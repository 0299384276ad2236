"""Fault-tolerance tests: injection harness, recovery matrix, store safety.

The PR's hard guarantees:

* a campaign with injected worker crashes, job exceptions, timeouts, torn
  store writes and lease contention completes and is **bit-identical**
  (scores and store records) to the fault-free serial run;
* a job that keeps failing is quarantined — the batch completes with
  partial results and a failure summary instead of a traceback;
* two processes sharing one store execute each (context, design, seed)
  exactly once, coordinated by lease files and compare-and-swap puts;
* SIGINT mid-campaign drains in-flight work and persists completed
  results before raising (the documented resume path holds under
  interrupt);
* corrupted store records are quarantined to ``*.corrupt`` and counted,
  never silently retrained over.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.analysis import ExperimentScale
from repro.analysis.experiments import build_environment
from repro.cli import build_parser, main
from repro.core import (
    CampaignScheduler,
    Design,
    DesignTrainer,
    EvaluationJob,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ParallelConfig,
    RemoteExecutor,
    ResultStore,
    TaskOutcome,
    inject,
    run_resilient,
)
from repro.core import faults
from repro.core.evaluation import TrainingRun
from repro.llm import StateDesignSpace, StateDesignSpec

TINY = ExperimentScale(train_epochs=6, checkpoint_interval=3,
                       last_k_checkpoints=2, num_seeds=2,
                       dataset_scale=0.02, num_chunks=6)

GOOD_STATE = StateDesignSpace().render(
    StateDesignSpec(extra_features=("buffer_diff",)))


def _trainer(environment: str = "fcc",
             scale: ExperimentScale = TINY) -> DesignTrainer:
    setup = build_environment(environment, scale)
    return DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                         config=scale.evaluation_config(), qoe=setup.qoe)


def _campaign_jobs(trainer: DesignTrainer, design: Design):
    return [
        EvaluationJob(trainer=trainer, state_design=None, network_design=None,
                      seeds=(0, 1), environment="fcc"),
        EvaluationJob(trainer=trainer, state_design=design,
                      network_design=None, seeds=(0, 1), environment="fcc"),
    ]


def _store_snapshot(root: str):
    """Map of relative record path -> parsed record, for content equality."""
    snapshot = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            assert name.endswith(".json"), f"unexpected residue file {rel}"
            with open(path, "r", encoding="utf-8") as handle:
                snapshot[rel] = json.load(handle)
    return snapshot


def _sample_run(seed: int = 0) -> TrainingRun:
    return TrainingRun(seed=seed, reward_history=[0.1, 0.2],
                       checkpoint_epochs=[3, 6],
                       checkpoint_scores=[0.5, 0.6],
                       early_stopped=False, last_k_checkpoints=2)


# --------------------------------------------------------------------------- #
# FaultPlan semantics
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="job.meteor")

    def test_times_bounds_occurrences(self):
        plan = FaultPlan(rules=(FaultRule("job.exception", times=2),))
        assert plan.should_fire("job.exception", "any", 0) is not None
        assert plan.should_fire("job.exception", "any", 1) is not None
        assert plan.should_fire("job.exception", "any", 2) is None

    def test_negative_times_fires_forever(self):
        plan = FaultPlan(rules=(FaultRule("job.exception", times=-1),))
        assert plan.should_fire("job.exception", "any", 99) is not None

    def test_match_substring(self):
        plan = FaultPlan(rules=(FaultRule("job.exception", match="fcc|"),))
        assert plan.should_fire("job.exception", "fcc|original", 0)
        assert plan.should_fire("job.exception", "starlink|x", 0) is None

    def test_probability_is_deterministic(self):
        plan = FaultPlan(rules=(FaultRule("job.exception",
                                          probability=0.5),), seed=3)
        draws = [plan.should_fire("job.exception", f"key{i}", 0) is not None
                 for i in range(64)]
        again = [plan.should_fire("job.exception", f"key{i}", 0) is not None
                 for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)
        other_seed = FaultPlan(rules=(FaultRule("job.exception",
                                                probability=0.5),), seed=4)
        assert draws != [other_seed.should_fire("job.exception", f"key{i}", 0)
                         is not None for i in range(64)]

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "job.exception:*:2,store.torn_write::1,"
            "job.timeout:fcc:1:2.5,seed=7")
        assert plan.seed == 7
        assert len(plan.rules) == 3
        assert plan.rules[0] == FaultRule("job.exception", "*", 2)
        assert plan.rules[2].delay_s == 2.5
        with pytest.raises(ValueError):
            FaultPlan.from_spec("job.exception:*:1:0.5:extra")

    def test_plan_pickles(self):
        plan = FaultPlan.from_spec("job.crash:*:1,seed=5")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_inject_scopes_plan(self):
        plan = FaultPlan(rules=(FaultRule("job.exception"),))
        assert faults.get_plan() is None
        with inject(plan):
            assert faults.get_plan() is plan
        assert faults.get_plan() is None

    def test_perturb_job_raises_injected_fault(self):
        plan = FaultPlan(rules=(FaultRule("job.exception", times=1),))
        with inject(plan):
            with pytest.raises(InjectedFault):
                faults.perturb_job("some-key", 0)
            faults.perturb_job("some-key", 1)  # retry attempt passes


# --------------------------------------------------------------------------- #
# run_resilient: retry, quarantine, interruption, pool respawn
# --------------------------------------------------------------------------- #
def _flaky(item, attempt):
    if attempt < item:
        raise ValueError(f"flaking on attempt {attempt}")
    return item * 10


def _crash_once(item, attempt):
    if item == 1 and attempt == 0:
        if faults.in_worker_process():
            os._exit(3)  # worker death, not an exception
        raise RuntimeError("crash surrogate (serial fallback)")
    return item * 10


class TestRunResilient:
    def test_serial_retries_then_succeeds(self):
        config = ParallelConfig(max_workers=1, max_retries=2,
                                backoff_base_s=0.0)
        outcomes = run_resilient(_flaky, [0, 1, 2], config)
        assert [o.value for o in outcomes] == [0, 10, 20]
        assert [o.attempts for o in outcomes] == [1, 2, 3]
        assert all(o.ok for o in outcomes)

    def test_serial_quarantines_past_budget(self):
        config = ParallelConfig(max_workers=1, max_retries=1,
                                backoff_base_s=0.0)
        outcomes = run_resilient(_flaky, [0, 3], config)
        assert outcomes[0].ok
        assert outcomes[1].status == "quarantined"
        assert outcomes[1].attempts == 2
        assert "ValueError" in outcomes[1].error

    def test_serial_should_stop_marks_interrupted(self):
        calls = []

        def fn(item, attempt):
            calls.append(item)
            return item

        config = ParallelConfig(max_workers=1)
        outcomes = run_resilient(fn, [0, 1, 2], config,
                                 should_stop=lambda: len(calls) >= 1)
        assert outcomes[0].ok
        assert {o.status for o in outcomes[1:]} == {"interrupted"}

    def test_pool_retries_and_preserves_order(self):
        config = ParallelConfig(max_workers=2, max_retries=2,
                                backoff_base_s=0.0)
        outcomes = run_resilient(_flaky, [0, 1, 2], config)
        assert [o.value for o in outcomes] == [0, 10, 20]
        assert all(o.ok for o in outcomes)
        assert outcomes[2].attempts == 3

    def test_pool_respawns_after_worker_death(self):
        config = ParallelConfig(max_workers=2, max_retries=2,
                                backoff_base_s=0.0)
        outcomes = run_resilient(_crash_once, [0, 1, 2], config)
        assert [o.value for o in outcomes] == [0, 10, 20]
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts >= 2

    def test_pool_quarantines_persistent_crasher(self):
        def always(item, attempt):  # serial path: not picklable anyway
            raise RuntimeError("never works")

        config = ParallelConfig(max_workers=1, max_retries=1,
                                backoff_base_s=0.0)
        outcomes = run_resilient(always, [0], config)
        assert outcomes[0].status == "quarantined"


# --------------------------------------------------------------------------- #
# Store safety: CAS puts, torn writes, corruption quarantine, leases
# --------------------------------------------------------------------------- #
class TestStoreSafety:
    def test_put_is_create_if_absent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "ab" + "0" * 62
        assert store.put_run(key, _sample_run()) is True
        assert store.put_run(key, _sample_run(seed=9)) is False
        assert store.put_races == 1
        assert store.peek_run(key).seed == 0  # first writer won

    def test_torn_write_healed_by_retry(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "cd" + "0" * 62
        plan = FaultPlan(rules=(FaultRule("store.torn_write", times=1),))
        with inject(plan):
            assert store.put_run(key, _sample_run()) is True
        assert store.torn_writes == 1
        assert store.peek_run(key).seed == 0
        assert store.statistics()["torn_writes"] == 1

    def test_undecodable_record_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "ef" + "0" * 62
        store.put_run(key, _sample_run())
        path = store._path(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "run": {"seed"')  # truncated
        assert store.peek_run(key) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert store.statistics()["corrupt"] == 1
        assert key not in store  # counted as a miss by future lookups

    def test_malformed_payload_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "12" + "0" * 62
        store.put_run(key, _sample_run())
        path = store._path(key)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 2, "meta": {}, "run": {"seed": 1}}, handle)
        assert store.peek_run(key) is None
        assert os.path.exists(path + ".corrupt")
        assert store.corrupt == 1

    def test_get_run_counts_quarantine_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "34" + "0" * 62
        store.put_run(key, _sample_run())
        with open(store._path(key), "w", encoding="utf-8") as handle:
            handle.write("not json")
        assert store.get_run(key) is None
        assert store.misses == 1

    def test_lease_claim_contend_release(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "56" + "0" * 62
        lease = store.claim(key)
        assert lease is not None
        assert store.lease_owner(key) == store.owner_token
        assert store.claim(key) is None  # held by ourselves counts as live
        assert store.lease_contended == 1
        store.release(lease)
        assert store.lease_owner(key) is None
        assert store.claim(key) is not None

    def test_stale_lease_stolen(self, tmp_path):
        store = ResultStore(str(tmp_path), lease_timeout=5.0)
        key = "78" + "0" * 62
        plan = FaultPlan(rules=(FaultRule("store.lease_hold", times=1,
                                          delay_s=60.0),))
        with inject(plan):
            lease = store.claim(key)
        assert lease is not None  # planted lease was 60s old: stolen
        assert store.lease_stolen == 1
        assert store.lease_owner(key) == store.owner_token

    def test_fresh_foreign_lease_contends(self, tmp_path):
        store = ResultStore(str(tmp_path), lease_timeout=30.0)
        key = "9a" + "0" * 62
        plan = FaultPlan(rules=(FaultRule("store.lease_hold", times=1,
                                          delay_s=0.0),))
        with inject(plan):
            assert store.claim(key) is None
        assert store.lease_contended == 1

    def test_release_is_owner_checked(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "bc" + "0" * 62
        lease = store.claim(key)
        # Simulate a steal: someone else rewrote the lease file.
        with open(lease.path, "w", encoding="utf-8") as handle:
            json.dump({"owner": "them@elsewhere", "ts": 0}, handle)
        store.release(lease)
        assert store.lease_released == 0
        assert store.lease_owner(key) == "them@elsewhere"

    def test_lease_epoch_fences_past_the_previous_holder(self, tmp_path):
        store = ResultStore(str(tmp_path), lease_timeout=5.0)
        key = "de" + "0" * 62
        lease = store.claim(key)
        assert lease.epoch == 1
        # A wedged foreign holder at epoch 3 whose heartbeat went silent.
        with open(lease.path, "w", encoding="utf-8") as handle:
            json.dump({"owner": "them@elsewhere", "ts": 0, "epoch": 3},
                      handle)
        then = time.time() - 120.0
        os.utime(lease.path, (then, then))
        stolen = store.claim(key)
        assert stolen is not None
        assert store.lease_stolen == 1
        assert stolen.epoch == 4  # strictly past the dead owner's token

    def test_fenced_put_dropped_after_lease_steal(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "f1" + "0" * 62
        lease = store.claim(key)
        # Simulate a steal while this "worker" was away computing.
        with open(lease.path, "w", encoding="utf-8") as handle:
            json.dump({"owner": "them@elsewhere", "ts": time.time(),
                       "epoch": lease.epoch + 1}, handle)
        assert store.put_run(key, _sample_run(), lease=lease) is False
        assert store.fenced_puts == 1
        assert store.statistics()["fenced_puts"] == 1
        assert key not in store  # the zombie's record never landed
        # The takeover (no stale lease handle) still publishes normally.
        assert store.put_run(key, _sample_run()) is True
        assert store.puts == 1


# --------------------------------------------------------------------------- #
# The recovery matrix: fault × execution shape, bit-identical to fault-free
# --------------------------------------------------------------------------- #
def _fault_case(site: str, workers):
    """(plan, extra ParallelConfig kwargs, store lease_timeout) per case."""
    if site == "exception":
        return FaultPlan(rules=(FaultRule("job.exception", times=1),)), {}, 30.0
    if site == "crash":
        return FaultPlan(rules=(FaultRule("job.crash", times=1),)), {}, 30.0
    if site == "timeout":
        if workers != 1:
            return (FaultPlan(rules=(FaultRule("job.timeout", times=1,
                                               delay_s=4.0),)),
                    {"job_timeout": 1.0}, 30.0)
        # Serially a job cannot be preempted; the injected delay must not
        # change results.
        return (FaultPlan(rules=(FaultRule("job.timeout", times=1,
                                           delay_s=0.2),)), {}, 30.0)
    if site == "torn_write":
        return FaultPlan(rules=(FaultRule("store.torn_write", times=1),)), {}, 30.0
    if site == "lease_steal":
        return (FaultPlan(rules=(FaultRule("store.lease_hold", times=1,
                                           delay_s=120.0),)), {}, 30.0)
    if site == "lease_wait":
        # A fresh foreign lease: the scheduler defers, polls, then takes
        # the lease over once it goes stale (the holder never publishes).
        return (FaultPlan(rules=(FaultRule("store.lease_hold", times=1,
                                           delay_s=0.0),)), {}, 0.5)
    raise AssertionError(site)


class TestRecoveryMatrix:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """Fault-free serial campaign: scores plus full store contents."""
        trainer = _trainer()
        design = Design(kind="state", code=GOOD_STATE)
        root = str(tmp_path_factory.mktemp("reference-store"))
        scheduler = CampaignScheduler(ParallelConfig(max_workers=1),
                                      store=ResultStore(root))
        results = scheduler.run(_campaign_jobs(trainer, design))
        return {
            "trainer": trainer,
            "design": design,
            "scores": [result.score for result in results],
            "store": _store_snapshot(root),
        }

    @pytest.mark.parametrize("site,workers", [
        (site, workers) for workers in (1, 2)
        for site in ("exception", "crash", "timeout", "torn_write",
                     "lease_steal", "lease_wait")
    ] + [(site, "remote") for site in ("exception", "crash", "timeout")])
    def test_recovered_campaign_is_bit_identical(self, reference, tmp_path,
                                                 site, workers):
        plan, extra, lease_timeout = _fault_case(site, workers)
        store = ResultStore(str(tmp_path), lease_timeout=lease_timeout)
        config = ParallelConfig(max_workers=1 if workers == 1 else 2,
                                max_retries=3, backoff_base_s=0.01, **extra)
        executor = RemoteExecutor() if workers == "remote" else None
        scheduler = CampaignScheduler(config, store=store, executor=executor)
        jobs = _campaign_jobs(reference["trainer"], reference["design"])
        try:
            if executor is not None:  # two `repro worker` subprocesses
                executor.launch_workers(2)
                assert executor.wait_for_workers(2, timeout=60.0)
            with inject(plan):
                results = scheduler.run(jobs)
            # Read before close(): shutdown disconnects count as lost too.
            lost = executor.workers_lost if executor is not None else 0
        finally:
            if executor is not None:
                executor.close()

        assert all(result.ok for result in results)
        assert scheduler.failures == []
        assert [r.score for r in results] == reference["scores"]
        # Store records — contents and layout — match the fault-free run.
        assert _store_snapshot(str(tmp_path)) == reference["store"]
        if site in ("exception", "crash"):
            assert all(result.attempts == 2 for result in results)
        if site == "torn_write":
            assert store.torn_writes > 0
        if workers == "remote" and site == "crash":
            assert lost >= 1
        if workers == "remote" and site == "timeout":
            # Every first attempt outlived job_timeout: revoked and charged.
            assert executor.last_stats["job_timeouts"] >= 1
            assert all(result.attempts >= 2 for result in results)
        if site == "lease_steal":
            assert store.lease_stolen > 0
        if site == "lease_wait":
            assert store.lease_contended > 0
            assert store.lease_stolen > 0

    def test_persistent_failure_quarantines_design_job(self, reference,
                                                       tmp_path):
        store = ResultStore(str(tmp_path))
        scheduler = CampaignScheduler(
            ParallelConfig(max_workers=1, max_retries=1, backoff_base_s=0.0),
            store=store)
        jobs = _campaign_jobs(reference["trainer"], reference["design"])
        plan = FaultPlan(rules=(FaultRule("job.exception", match="state:",
                                          times=-1),))
        with inject(plan):
            results = scheduler.run(jobs)
        assert results[0].ok
        assert results[0].score == reference["scores"][0]
        assert results[1].status == "quarantined"
        assert results[1].score == float("-inf")
        assert results[1].attempts == 2
        assert "InjectedFault" in results[1].error
        assert scheduler.failures == [results[1]]
        summary = scheduler.failure_summary()
        assert summary is not None and "quarantined" in summary
        # Only the healthy job's records persisted; no leases left behind.
        snapshot = _store_snapshot(str(tmp_path))
        assert len(snapshot) == 2
        assert {rel: record for rel, record in reference["store"].items()
                if record["meta"]["state_design"] == "original"} == snapshot

    def test_sigint_drains_and_persists(self, reference, tmp_path):
        """An interrupt mid-campaign persists completed jobs, then raises."""
        store = ResultStore(str(tmp_path))
        scheduler = CampaignScheduler(ParallelConfig(max_workers=1),
                                      store=store)
        jobs = _campaign_jobs(reference["trainer"], reference["design"])
        # SIGINT is delivered during the first job (label "original"); the
        # job finishes and persists, the second job never starts.
        plan = FaultPlan(rules=(FaultRule("job.interrupt", match="original",
                                          times=1),))
        with inject(plan):
            with pytest.raises(KeyboardInterrupt):
                scheduler.run(jobs)
        snapshot = _store_snapshot(str(tmp_path))
        assert len(snapshot) == 2  # both seeds of the original job
        assert {rel: record for rel, record in reference["store"].items()
                if record["meta"]["state_design"] == "original"} == snapshot
        # A resumed campaign completes from the store, bit-identically.
        resumed = CampaignScheduler(ParallelConfig(max_workers=1),
                                    store=ResultStore(str(tmp_path)))
        results = resumed.run(_campaign_jobs(reference["trainer"],
                                             reference["design"]))
        assert [r.score for r in results] == reference["scores"]
        assert results[0].cached
        assert _store_snapshot(str(tmp_path)) == reference["store"]

    def test_request_shutdown_before_run_interrupts(self, reference):
        scheduler = CampaignScheduler(ParallelConfig(max_workers=1))
        jobs = _campaign_jobs(reference["trainer"], reference["design"])
        original_run = scheduler._run_batch

        def stop_then_run(batch, tel):
            scheduler.request_shutdown()
            return original_run(batch, tel)

        scheduler._run_batch = stop_then_run
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(jobs)


# --------------------------------------------------------------------------- #
# Two processes, one store: each key executes exactly once
# --------------------------------------------------------------------------- #
def _shared_store_worker(root: str, out_path: str) -> None:
    trainer = _trainer()
    design = Design(kind="state", code=GOOD_STATE, design_id="shared-design")
    store = ResultStore(root, lease_timeout=120.0)
    scheduler = CampaignScheduler(ParallelConfig(max_workers=1), store=store)
    results = scheduler.run(_campaign_jobs(trainer, design))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"scores": [r.score for r in results],
                   "stats": store.statistics()}, handle)


def _stalled_victim_worker(root: str) -> None:
    """Claim the campaign's leases, then wedge forever (until SIGKILLed)."""
    trainer = _trainer()
    design = Design(kind="state", code=GOOD_STATE, design_id="shared-design")
    store = ResultStore(root, lease_timeout=120.0)
    scheduler = CampaignScheduler(ParallelConfig(max_workers=1), store=store)
    plan = FaultPlan(rules=(FaultRule("job.timeout", times=-1,
                                      delay_s=600.0),))
    with inject(plan):
        scheduler.run(_campaign_jobs(trainer, design))


class TestSharedStoreCampaign:
    def test_two_processes_execute_each_key_exactly_once(self, tmp_path):
        root = str(tmp_path / "store")
        outs = [str(tmp_path / f"proc{i}.json") for i in range(2)]
        procs = [multiprocessing.Process(target=_shared_store_worker,
                                         args=(root, out)) for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
            assert proc.exitcode == 0
        reports = []
        for out in outs:
            with open(out, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
        # Both campaigns converged on the same scores...
        assert reports[0]["scores"] == reports[1]["scores"]
        # ...and the 4 (context, design, seed) keys were each written by
        # exactly one process: puts across the fleet equal the record count.
        snapshot = _store_snapshot(root)
        assert len(snapshot) == 4
        total_puts = sum(report["stats"]["puts"] for report in reports)
        assert total_puts == 4
        assert sum(report["stats"]["put_races"] for report in reports) == 0
        # Work was actually shared: somebody hit records they didn't write
        # (unless the loser deferred on every job, in which case it shows
        # lease contention instead).
        total_hits = sum(report["stats"]["hits"] for report in reports)
        total_contended = sum(report["stats"]["lease_contended"]
                              for report in reports)
        assert total_hits > 0 or total_contended > 0

    def test_sigkilled_lease_holder_is_taken_over_exactly_once(self,
                                                               tmp_path):
        """A worker SIGKILLed mid-job leaves stale leases; a survivor steals
        them, re-executes, and ends up with exactly one record per key."""
        root = str(tmp_path / "store")
        victim = multiprocessing.Process(target=_stalled_victim_worker,
                                         args=(root,))
        victim.start()
        try:
            deadline = time.time() + 120.0
            claimed = []
            while time.time() < deadline and not claimed:
                for _, _, files in os.walk(root):
                    claimed.extend(name for name in files
                                   if name.endswith(".lease"))
                time.sleep(0.05)
            assert claimed, "victim never claimed a lease"
            os.kill(victim.pid, signal.SIGKILL)  # dies holding its leases
        finally:
            victim.join(timeout=30)
        assert victim.exitcode == -signal.SIGKILL

        trainer = _trainer()
        design = Design(kind="state", code=GOOD_STATE,
                        design_id="shared-design")
        reference = CampaignScheduler(ParallelConfig(max_workers=1)).run(
            _campaign_jobs(trainer, design))

        # The survivor first sees fresh-looking foreign leases (the victim
        # heartbeated until the kill), defers, then takes them over once
        # they cross the staleness deadline — and does all the work itself.
        store = ResultStore(root, lease_timeout=2.0)
        survivor = CampaignScheduler(ParallelConfig(max_workers=1),
                                     store=store)
        results = survivor.run(_campaign_jobs(trainer, design))
        assert all(result.ok for result in results)
        assert [r.score for r in results] == [r.score for r in reference]
        assert store.lease_stolen > 0
        assert store.puts == 4  # exactly once: every record is the survivor's
        assert store.fenced_puts == 0
        assert len(_store_snapshot(root)) == 4


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestFaultCli:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--max-retries", "5", "--job-timeout", "30",
             "--faults", "job.exception:*:1,seed=3"])
        assert args.max_retries == 5
        assert args.job_timeout == 30.0
        assert args.faults == "job.exception:*:1,seed=3"

    def test_chaos_run_retries_and_succeeds(self, capsys):
        exit_code = main([
            "run", "--environment", "fcc", "--num-designs", "2",
            "--train-epochs", "6", "--checkpoint-interval", "3",
            "--num-seeds", "1", "--num-chunks", "6",
            "--dataset-scale", "0.02", "--no-early-stopping",
            "--max-retries", "3",
            "--faults", "job.exception:*:1"])
        assert exit_code == 0
        assert faults.get_plan() is None  # cleared after the run
        captured = capsys.readouterr().out
        assert "original score" in captured

    def test_quarantined_jobs_fail_the_run(self, capsys):
        exit_code = main([
            "run", "--environment", "fcc", "--num-designs", "2",
            "--train-epochs", "6", "--checkpoint-interval", "3",
            "--num-seeds", "1", "--num-chunks", "6",
            "--dataset-scale", "0.02", "--no-early-stopping",
            "--max-retries", "1",
            "--faults", "job.exception:state:-1"])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert "original score" in captured.out  # graceful degradation
