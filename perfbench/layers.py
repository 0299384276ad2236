"""Per-layer metrics of one traced repetition.

Layers are named after the ``repro`` modules they time.  Unless noted, a
``*_s`` metric is the layer's self time (span time minus the wrapped calls
inside it), summed over the repetition's two timed passes.
``trace.uncovered_frac`` is the share of the passes' wall time that no
emitted self-time metric accounts for, so the emitted self times and it add
up to the wall time.  The inclusive exceptions, which do not count towards
the coverage, are ``rl.a2c.checkpoint_eval_s``, ``rl.a2c.graph_epoch_s``,
``core.evaluation.job_s``, ``core.scheduler.run_s`` and
``emulation.fleet.decide_s``; the self times of those spans are emitted as
``*_self_s`` (``core.scheduler.self_s`` for the scheduler).

``trace.overhead_frac`` and ``host.cpu_per_wall`` compare repetitions and
are filled in by ``run.py``.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from tracer import Tracer


def _counters(events: Sequence, name: str) -> float:
    return sum(e.value for e in events if e.kind == "counter" and e.name == name)


def layer_metrics(tracer: Tracer, events: Sequence, workload) -> Dict[str, float]:
    """Every per-layer metric this repetition can measure (0 where unused)."""
    totals = tracer.totals()
    outer = _outer_totals(tracer)

    def self_s(kind: str) -> float:
        return totals.get(kind, {}).get("self_s", 0.0)

    def count(kind: str) -> float:
        return totals.get(kind, {}).get("count", 0)

    units = tracer.units
    notes = tracer.notes
    m: Dict[str, float] = {}
    #: The self-time metrics, which together cover the passes.
    covered: List[str] = []

    def own(metric: str, kind: str) -> None:
        m[metric] = self_s(kind)
        covered.append(metric)

    own("abr.networks.forward_s", "abr.networks.forward")
    m["abr.networks.forward_calls"] = count("abr.networks.forward")
    own("abr.networks.update_forward_s", "abr.networks.update_forward")
    own("abr.networks.update_backward_s", "abr.networks.update_backward")
    own("nn.compile.forward_s", "nn.compile.forward")
    own("nn.compile.update_forward_s", "nn.compile.update_forward")
    own("nn.compile.update_backward_s", "nn.compile.update_backward")
    lowered = _counters(events, "compile.lowered")
    fallback = _counters(events, "compile.fallback")
    m["nn.compile.lowered"] = lowered
    m["nn.compile.fallback"] = fallback
    m["nn.compile.lowered_frac"] = (lowered / (lowered + fallback)
                                    if lowered + fallback else 0.0)
    own("nn.optim.step_s", "nn.optim.step")
    m["nn.optim.steps"] = count("nn.optim.step")
    own("nn.optim.clip_s", "nn.optim.clip")
    m["abr.env.steps"] = count("abr.env.step")
    own("abr.env.step_s", "abr.env.step")
    m["abr.state.builds"] = count("abr.state.build")
    own("abr.state.build_s", "abr.state.build")

    m["rl.a2c.seed_epochs"] = (units["rl.a2c.lockstep_epoch"]
                               + units["rl.a2c.graph_epoch"])
    own("rl.a2c.lockstep_epoch_self_s", "rl.a2c.lockstep_epoch")
    m["rl.a2c.checkpoint_eval_s"] = outer.get("rl.a2c.checkpoint_eval", 0.0)
    own("rl.a2c.checkpoint_eval_self_s", "rl.a2c.checkpoint_eval")
    m["rl.a2c.graph_epoch_s"] = outer.get("rl.a2c.graph_epoch", 0.0)
    own("rl.a2c.graph_epoch_self_s", "rl.a2c.graph_epoch")

    forwards = count("rl.agent.batch_forward")
    own("rl.agent.batch_forward_s", "rl.agent.batch_forward")
    m["rl.agent.batch_size_mean"] = (units["rl.agent.batch_forward"] / forwards
                                     if forwards else 0.0)
    m["emulation.player.steps"] = count("emulation.player.step")
    own("emulation.player.step_s", "emulation.player.step")

    passes: List[Dict[str, float]] = getattr(workload, "passes", [])
    m["emulation.fleet.ticks"] = sum(p["ticks"] for p in passes)
    m["emulation.fleet.decisions"] = sum(p["decisions"] for p in passes)
    m["emulation.fleet.decide_s"] = sum(p["decide_s"] for p in passes)
    m["emulation.fleet.decide_p50_ms"] = (
        statistics.median(p["p50_ms"] for p in passes) if passes else 0.0)
    m["emulation.fleet.decide_p99_ms"] = (
        statistics.median(p["p99_ms"] for p in passes) if passes else 0.0)
    own("emulation.fleet.loop_self_s", "emulation.fleet.loop")

    m["core.generation.designs"] = units["core.generation.generate"]
    own("core.generation.s", "core.generation.generate")
    filtered = [note for _, note in notes["core.filters.apply"]]
    total = sum(n["total"] for n in filtered)
    own("core.filters.apply_s", "core.filters.apply")
    m["core.filters.survivor_frac"] = (sum(n["survived"] for n in filtered)
                                       / total if total else 0.0)
    own("core.early_stopping.fit_s", "core.early_stopping.fit")
    m["core.early_stopping.stopped"] = units["core.early_stopping.decide"]

    # Jobs the remote workers ran arrive as their telemetry's job.train spans.
    remote_jobs = [e.value for e in events if e.kind == "span"
                   and e.name == "job.train" and e.pid != os.getpid()]
    m["core.evaluation.jobs"] = count("core.evaluation.job") + len(remote_jobs)
    m["core.evaluation.job_s"] = (outer.get("core.evaluation.job", 0.0)
                                  + sum(remote_jobs))
    own("core.evaluation.job_self_s", "core.evaluation.job")

    runs = notes["core.scheduler.run"]
    m["core.scheduler.run_s"] = outer.get("core.scheduler.run", 0.0)
    own("core.scheduler.self_s", "core.scheduler.run")
    m["core.scheduler.jobs_trained"] = sum(n["trained"] for _, n in runs)
    m["core.scheduler.store_hits"] = sum(n["cached"] for _, n in runs)
    own("core.results.get_s", "core.results.get")
    own("core.results.put_s", "core.results.put")
    own("core.results.claim_s", "core.results.claim")
    warm_jobs = sum(n["jobs"] for root, n in runs if root == "warm")
    m["core.results.hit_frac"] = (sum(n["cached"] for root, n in runs
                                      if root == "warm") / warm_jobs
                                  if warm_jobs else 0.0)

    batches = notes["core.distributed.run"]
    executor_s = sum(n["s"] for _, n in batches)
    workers = workload.layer.get("core.distributed.workers", 0)
    busy = sum(remote_jobs)
    # Scheduler time of the passes that ran on the remote workers.
    remote_roots = {root for root, _ in batches}
    remote_scheduler_s = sum(n["s"] for root, n in runs if root in remote_roots)
    m["core.distributed.setup_s"] = workload.layer.get(
        "core.distributed.setup_s", 0.0)
    m["core.distributed.worker_busy_frac"] = (
        busy / (workers * executor_s) if executor_s and workers else 0.0)
    m["core.distributed.overhead_s"] = (remote_scheduler_s - busy / workers
                                        if executor_s and workers else 0.0)
    m["core.distributed.requeues"] = sum(n.get("requeued", 0)
                                         for _, n in batches)
    # The coordinator's own time in the executor, mostly waiting on workers.
    own("core.distributed.run_self_s", "core.distributed.run")

    wall = sum(end - start for kind, parent, start, end, _ in tracer.spans
               if parent < 0 and kind.startswith("pass.") and end)
    m["trace.uncovered_frac"] = (1.0 - sum(m[name] for name in covered) / wall
                                 if wall else 0.0)
    return m


def _outer_totals(tracer: Tracer) -> Dict[str, float]:
    """Inclusive seconds per kind, not counting a span nested in its own kind."""
    spans = tracer.spans
    out: Dict[str, float] = {}
    for kind, parent, start, end, _ in spans:
        if not end or (parent >= 0 and spans[parent][0] == kind):
            continue
        out[kind] = out.get(kind, 0.0) + end - start
    return out

