"""The benchmark's three workloads.

Every workload has the same shape: ``setup`` builds all inputs from the
seed (datasets, video, agent, fleet, store, remote workers), then ``cold``
and ``warm`` are the two timed passes, and ``check`` verifies the outputs
outside the timed region:

* ``protocol`` - the section 3.1 protocol on the original Pensieve design
  (fcc, 5 seeds in lockstep, float32): train, checkpoint, score.  ``warm``
  trains again from scratch in the same process.
* ``campaign`` - ``NadaCampaign`` over fcc and starlink.  ``cold`` runs it
  serially on an empty result store; ``warm`` runs it again on that store
  through ``RemoteExecutor`` with two ``repro worker`` subprocesses.
* ``serve`` - ``Fleet.run`` over a mixed fcc/starlink/4g/5g trace set with
  Poisson arrivals; ``warm`` replays the same sessions on the same fleet.

The engine config is fixed for every workload (see :func:`apply_engine`).
Sizes are small enough for several repetitions per run; ``README.md``
explains the choices, including the inputs kept fixed across seeds.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import nn
from repro.abr.networks import fast_inference_enabled, set_fast_inference
from repro.abr.video import synthetic_video
from repro.core.design import DesignStatus
from repro.core.distributed import RemoteConfig, RemoteExecutor
from repro.core.early_stopping import EarlyStoppingConfig
from repro.core.evaluation import DesignTrainer, EvaluationConfig, instantiate_agent
from repro.core.pipeline import NadaCampaign, NadaConfig, NadaPipeline
from repro.core.results import ResultStore
from repro.core.scheduler import CampaignScheduler, protocol_score
from repro.emulation import Fleet, FleetConfig
from repro.rl.a2c import A2CConfig
from repro.traces.registry import ENVIRONMENTS, build_dataset

#: The engine config every workload runs under.
ENGINE = {"dtype": "float32", "compile": True, "numerics": "exact",
          "fast_inference": True}

PROTOCOL = {"environment": "fcc", "dataset_scale": 0.05, "num_chunks": 24,
            "seeds": 5, "train_epochs": 30, "checkpoint_interval": 10,
            "last_k_checkpoints": 3}

CAMPAIGN = {"environments": ("fcc", "starlink"), "target": "both",
            "designs_per_component": 6, "seeds": 2, "train_epochs": 8,
            "checkpoint_interval": 4, "last_k_checkpoints": 2,
            "early_stop_prefix": 8,
            "dataset_scale": 0.02, "num_chunks": 6, "remote_workers": 2,
            # Fixed across --seed: the LLM's design batch decides how many
            # jobs there are, so tying it to the seed made the work vary
            # (20 to 32 jobs).  The early-stopping check sits on the last
            # epoch for the same reason.
            "design_seed": 0}

SERVE = {"environments": ("fcc", "starlink", "4g", "5g"),
         "dataset_scale": 0.1, "num_chunks": 10, "sessions": 512,
         "arrival": "poisson", "arrival_rate_per_s": 200.0,
         "batch_window_s": 0.25, "reference_sessions": 16,
         # Fixed across --seed: the untrained policy's greedy bitrate sets the
         # cost of every emulated download (2.2 s to 11 s per pass when it
         # followed the seed).
         "agent_seed": 0}


def apply_engine() -> Dict[str, Any]:
    """Pin the process-global engine flags and return them as applied."""
    nn.set_default_dtype(ENGINE["dtype"])
    nn.set_compilation(ENGINE["compile"])
    nn.set_numerics(ENGINE["numerics"])
    set_fast_inference(ENGINE["fast_inference"])
    return {"dtype": str(nn.get_default_dtype()),
            "compile": nn.compilation_enabled(),
            "numerics": nn.get_numerics(),
            "fast_inference": fast_inference_enabled()}


class Workload:
    """Base class: ``setup`` / ``cold`` / ``warm`` / ``check`` / ``close``."""

    name = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = int(seed)
        self.scratch = scratch
        #: Per-layer numbers the workload measures itself (no tracing).
        self.layer: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cold(self) -> Any:
        raise NotImplementedError

    def warm(self) -> Any:
        return self.cold()

    def check(self, cold: Any, warm: Any) -> List[str]:
        """Errors found in the two passes' outputs (empty when correct)."""
        raise NotImplementedError

    def digest(self, outcome: Any) -> str:
        """A fingerprint of one pass's outputs, compared across repetitions."""
        raise NotImplementedError

    def counts(self, outcome: Any) -> Tuple[int, int]:
        """(operations attempted, operations failed) in one pass: jobs in the
        training workloads, sessions in ``serve``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
class ProtocolWorkload(Workload):
    name = "protocol"

    def setup(self) -> None:
        cfg = PROTOCOL
        spec = ENVIRONMENTS[cfg["environment"]]
        train, test = build_dataset(cfg["environment"], seed=self.seed,
                                    scale=cfg["dataset_scale"])
        video = synthetic_video(spec.bitrate_ladder,
                                num_chunks=cfg["num_chunks"], seed=self.seed)
        epochs = cfg["train_epochs"]
        self.trainer = DesignTrainer(video, train, test, config=EvaluationConfig(
            train_epochs=epochs,
            checkpoint_interval=cfg["checkpoint_interval"],
            last_k_checkpoints=cfg["last_k_checkpoints"],
            num_seeds=cfg["seeds"],
            a2c=A2CConfig(entropy_anneal_epochs=max(epochs // 2, 1))))
        self.seeds = [self.seed * 100 + i for i in range(cfg["seeds"])]

    def cold(self) -> Tuple[float, list]:
        runs = self.trainer.run_seeds(None, None, self.seeds)
        return protocol_score(runs, PROTOCOL["last_k_checkpoints"]), runs

    def check(self, cold, warm) -> List[str]:
        errors = []
        if self.digest(cold) != self.digest(warm):
            errors.append("protocol: cold and warm runs scored differently")
        if not np.isfinite(cold[0]):
            errors.append("protocol: score is not finite")
        return errors

    def digest(self, outcome) -> str:
        score, runs = outcome
        return _sha(repr((score, [(r.checkpoint_scores, r.reward_history)
                                  for r in runs])))

    def counts(self, outcome) -> Tuple[int, int]:
        score, _ = outcome
        return 1, 0 if np.isfinite(score) else 1


# --------------------------------------------------------------------------- #
class CampaignWorkload(Workload):
    """Cold: the serial campaign on an empty store.  Warm: the same campaign
    on the filled store through ``RemoteExecutor`` and two ``repro worker``
    subprocesses: store hits are served by the coordinator and the
    early-stopping jobs, which bypass the store, retrain on the workers, so
    the warm pass also checks remote results against serial ones."""

    name = "campaign"

    def _config(self) -> NadaConfig:
        cfg = CAMPAIGN
        epochs = cfg["train_epochs"]
        return NadaConfig(
            target=cfg["target"], num_designs=cfg["designs_per_component"],
            seed=cfg["design_seed"],
            evaluation=EvaluationConfig(
                train_epochs=epochs,
                checkpoint_interval=cfg["checkpoint_interval"],
                last_k_checkpoints=cfg["last_k_checkpoints"],
                num_seeds=cfg["seeds"],
                a2c=A2CConfig(entropy_anneal_epochs=max(epochs // 2, 1))),
            early_stopping=EarlyStoppingConfig(
                reward_prefix_length=cfg["early_stop_prefix"]))

    def setup(self) -> None:
        cfg = CAMPAIGN
        store = ResultStore(os.path.join(self.scratch, "store"))
        config = self._config()
        pipelines = {
            environment: NadaPipeline.for_environment(
                environment, config=config,
                dataset_scale=cfg["dataset_scale"],
                num_chunks=cfg["num_chunks"], seed=self.seed, store=store)
            for environment in cfg["environments"]}
        serial = next(iter(pipelines.values())).scheduler
        self.serial = NadaCampaign(pipelines, scheduler=serial)

        workers = cfg["remote_workers"]
        start = time.perf_counter()
        self.executor = RemoteExecutor(RemoteConfig(fallback="fail"))
        self.executor.launch_workers(workers)
        if not self.executor.wait_for_workers(workers, timeout=60.0):
            raise RuntimeError(f"only {self.executor.worker_count()} of "
                               f"{workers} remote workers connected")
        self.layer["core.distributed.setup_s"] = time.perf_counter() - start
        self.layer["core.distributed.workers"] = workers
        self.remote = NadaCampaign(pipelines, scheduler=CampaignScheduler(
            parallel=serial.parallel, store=store, executor=self.executor))

    def cold(self):
        return self.serial.run()

    def warm(self):
        return self.remote.run()

    @staticmethod
    def table(result) -> List[Tuple]:
        """Per design, in pool order: environment, kind, code, status, score."""
        rows = []
        for environment in result.environments:
            outcome = result[environment]
            rows.append((environment, "original", "", "",
                         repr(outcome.original_score)))
            for design in outcome.pool:
                rows.append((environment, design.kind.value, _sha(design.code),
                             design.status.value, repr(design.test_score)))
        return rows

    def check(self, cold, warm) -> List[str]:
        errors = []
        if self.table(cold) != self.table(warm):
            errors.append("campaign: the remote warm pass gave other "
                          "per-design scores or statuses than the serial "
                          "cold pass")
        for result in (cold, warm):
            failed = sum(result[env].failed_designs for env in result.environments)
            if failed:
                errors.append(f"campaign: {failed} design(s) quarantined")
        return errors

    def digest(self, outcome) -> str:
        return _sha(repr(self.table(outcome)))

    def counts(self, outcome) -> Tuple[int, int]:
        attempted = failed = 0
        for environment in outcome.environments:
            result = outcome[environment]
            trained = [d for d in result.pool if d.status in (
                DesignStatus.EVALUATED, DesignStatus.EARLY_STOPPED,
                DesignStatus.FAILED)]
            attempted += 1 + len(trained)
            failed += result.failed_designs
            failed += 0 if np.isfinite(result.original_score) else 1
        return attempted, failed

    def close(self) -> None:
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()


# --------------------------------------------------------------------------- #
class ServeWorkload(Workload):
    name = "serve"

    def setup(self) -> None:
        cfg = SERVE
        traces = []
        for environment in cfg["environments"]:
            _, test = build_dataset(environment, seed=self.seed,
                                    scale=cfg["dataset_scale"])
            traces.extend(test)
        spec = ENVIRONMENTS[cfg["environments"][0]]
        video = synthetic_video(spec.bitrate_ladder,
                                num_chunks=cfg["num_chunks"], seed=self.seed)
        self.agent = instantiate_agent(None, None, video, traces,
                                       seed=cfg["agent_seed"])
        self.fleet = Fleet(video, traces, config=FleetConfig(
            arrival_process=cfg["arrival"],
            arrival_rate_per_s=cfg["arrival_rate_per_s"],
            arrival_seed=self.seed,
            batch_window_s=cfg["batch_window_s"]))
        self.passes: List[Dict[str, float]] = []

    def cold(self):
        result = self.fleet.run(self.agent, SERVE["sessions"], greedy=True)
        m = result.metrics
        self.passes.append({"ticks": m.num_ticks, "decisions": m.num_decisions,
                            "decide_s": m.decide_s,
                            "p50_ms": m.p50_decision_latency_s * 1e3,
                            "p99_ms": m.p99_decision_latency_s * 1e3})
        return result

    def check(self, cold, warm) -> List[str]:
        errors = []
        if any(session is None for session in cold.sessions):
            errors.append("serve: some sessions did not finish")
        if cold.sessions != warm.sessions:
            errors.append("serve: cold and warm fleet runs differ")
        count = SERVE["reference_sessions"]
        reference = self.fleet.serial_reference(self.agent, count, greedy=True)
        if reference != cold.sessions[:count]:
            errors.append(f"serve: the first {count} fleet sessions are not "
                          f"bit-identical to Fleet.serial_reference")
        return errors

    def digest(self, outcome) -> str:
        return _sha(repr([s.total_reward for s in outcome.sessions]))

    def counts(self, outcome) -> Tuple[int, int]:
        return (len(outcome.sessions),
                sum(1 for session in outcome.sessions if session is None))


WORKLOADS = {cls.name: cls for cls in (ProtocolWorkload, CampaignWorkload,
                                       ServeWorkload)}
