"""Tests for the campaign telemetry layer (`repro.core.telemetry`).

Covers the PR's hard guarantees:

* the disabled hot path is a true no-op — the shared singleton span performs
  zero per-call allocations, so instrumentation can stay in hot loops;
* serial and multi-worker campaign runs produce identical event streams
  modulo timestamps and worker pids (the same order-preserving merge
  contract the scheduler gives results);
* the ``store.*`` counters the scheduler emits agree exactly with the
  result store's own hit/miss/partial-probe/put accounting, so the
  ``repro report`` hit-rate is provably the store's;
* per-checkpoint training metrics ride along with ``TrainingRun`` records
  and survive warm-store replays bit-exactly;
* the kernel compiler reports lowered networks and fallbacks keyed by
  reason;
* events round-trip through JSONL flush/load and render as a well-formed
  Chrome trace, and the ``repro report`` CLI surfaces them.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time

import numpy as np
import pytest

from repro.abr.networks import GenericActorCritic
from repro.analysis import ExperimentScale
from repro.analysis.experiments import build_environment
from repro.cli import main
from repro.core import (
    CampaignScheduler,
    Design,
    DesignTrainer,
    EvaluationJob,
    ParallelConfig,
    ResultStore,
    telemetry,
)
from repro.nn.compile import plan_for
from repro.rl.a2c import TRAINING_METRIC_NAMES
from repro.llm import StateDesignSpace, StateDesignSpec

TINY = ExperimentScale(train_epochs=6, checkpoint_interval=3,
                       last_k_checkpoints=2, num_seeds=2,
                       dataset_scale=0.02, num_chunks=6)

GOOD_STATE = StateDesignSpace().render(
    StateDesignSpec(extra_features=("buffer_diff",)))


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with no active sink."""
    telemetry.set_telemetry(None)
    yield
    telemetry.set_telemetry(None)


def _trainer(environment: str = "fcc",
             scale: ExperimentScale = TINY) -> DesignTrainer:
    setup = build_environment(environment, scale)
    return DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                         config=scale.evaluation_config(), qoe=setup.qoe)


def _job(trainer, state=None, seeds=(0, 1)) -> EvaluationJob:
    return EvaluationJob(trainer=trainer, state_design=state,
                         network_design=None, seeds=seeds,
                         environment="fcc")


def _run_with_sink(jobs, workers=1, store=None):
    """Run ``jobs`` through a fresh scheduler under a fresh in-memory sink."""
    sink = telemetry.Telemetry()
    previous = telemetry.set_telemetry(sink)
    try:
        results = CampaignScheduler(ParallelConfig(max_workers=workers),
                                    store=store).run(jobs)
    finally:
        telemetry.set_telemetry(previous)
    return results, sink.events


def _counter_totals(events):
    totals = {}
    for event in events:
        if event.kind == "counter":
            totals[event.name] = totals.get(event.name, 0.0) + event.value
    return totals


# --------------------------------------------------------------------------- #
# Disabled path: a true no-op.
# --------------------------------------------------------------------------- #
class TestDisabledPath:
    def test_disabled_span_is_a_shared_singleton(self):
        assert not telemetry.enabled()
        assert telemetry.span("a") is telemetry.span("b")
        assert telemetry.span("a") is telemetry._NOOP_SPAN

    def test_disabled_counter_and_series_record_nothing(self):
        telemetry.counter("x")
        telemetry.series("y", 0, 1.0)
        with telemetry.span("z", {"attr": 1}):
            pass
        assert telemetry.get_telemetry() is None

    def test_disabled_span_path_allocates_nothing(self):
        """The hot-loop contract: zero per-call allocations when off."""
        assert not telemetry.enabled()
        span = telemetry.span
        for _ in range(1_000):  # warm caches, intern strings
            with span("hot"):
                pass
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with span("hot"):
                pass
        delta = sys.getallocatedblocks() - before
        assert delta <= 2, f"disabled span path allocated {delta} blocks"

    def test_disabled_overhead_of_a_protocol_run_is_below_two_percent(self):
        """The price a real workload pays for its instrumentation when
        telemetry is off: the events an instrumented §3.1 protocol run emits
        times the measured per-call cost of the disabled span, as a share of
        that run's wall time.  A projection rather than a wall-clock A/B: the
        disabled path costs nanoseconds, so a direct A/B would drown in
        scheduler noise."""
        from repro.core.evaluation import TestScoreProtocol

        assert not telemetry.enabled()
        calls = 200_000
        span = telemetry.span
        start = time.perf_counter()
        for _ in range(calls):
            with span("bench.noop"):
                pass
        per_call = (time.perf_counter() - start) / calls

        scale = ExperimentScale(train_epochs=8, checkpoint_interval=4,
                                last_k_checkpoints=2, num_seeds=2,
                                dataset_scale=0.03, num_chunks=12)
        protocol = TestScoreProtocol(_trainer("fcc", scale), seeds=[0, 1],
                                     environment="fcc",
                                     scheduler=scale.scheduler())
        sink = telemetry.Telemetry()
        previous = telemetry.set_telemetry(sink)
        try:
            start = time.perf_counter()
            protocol.run(None, None)
            workload_s = time.perf_counter() - start
        finally:
            telemetry.set_telemetry(previous)

        assert sink.events
        projected = len(sink.events) * per_call / workload_s
        assert projected <= 0.02, (
            f"{len(sink.events)} events x {per_call * 1e9:.0f} ns over a "
            f"{workload_s:.2f} s run: {projected:.2%} projected overhead")

    def test_enable_is_idempotent_and_disable_clears(self, tmp_path):
        first = telemetry.enable(str(tmp_path))
        assert telemetry.enable("somewhere/else") is first
        telemetry.counter("ping")
        assert len(first.events) == 1
        assert telemetry.disable() is first
        assert not telemetry.enabled()


# --------------------------------------------------------------------------- #
# Merge determinism: serial == workers modulo timestamps and pids.
# --------------------------------------------------------------------------- #
class TestMergeDeterminism:
    def test_event_stream_identical_across_worker_counts(self):
        trainer = _trainer()
        design = Design(kind="state", code=GOOD_STATE)
        jobs = [_job(trainer), _job(trainer, state=design)]
        _, serial_events = _run_with_sink(jobs, workers=1)
        _, pooled_events = _run_with_sink(jobs, workers=2)

        def signatures(events):
            # A pool that cannot start falls back to serial with a counter;
            # placement is exactly what the contract excludes.
            return [e.signature() for e in events
                    if e.name != "parallel.serial_fallback"]

        assert signatures(serial_events) == signatures(pooled_events)
        names = {e.name for e in serial_events}
        assert {"scheduler.run", "scheduler.execute", "parallel.map",
                "job.train", "scheduler.jobs.submitted",
                "scheduler.jobs.trained"} <= names

    def test_job_train_spans_carry_identity_attrs(self):
        trainer = _trainer()
        _, events = _run_with_sink([_job(trainer)])
        trains = [e for e in events if e.name == "job.train"]
        assert len(trains) == 1
        assert trains[0].attrs["environment"] == "fcc"
        assert trains[0].attrs["design"] == "original"
        assert trains[0].attrs["seeds"] == "0,1"
        assert trains[0].value > 0 and trains[0].cpu_s >= 0


# --------------------------------------------------------------------------- #
# Store counters: the report's hit-rate is the store's own accounting.
# --------------------------------------------------------------------------- #
class TestStoreCounters:
    def test_cold_then_warm_counters_match_store(self, tmp_path):
        trainer = _trainer()
        cold_store = ResultStore(str(tmp_path))
        _, cold_events = _run_with_sink([_job(trainer)], store=cold_store)
        cold = _counter_totals(cold_events)
        assert cold.get("store.miss", 0) == cold_store.misses == 1
        assert cold.get("store.hit", 0) == cold_store.hits == 0
        assert cold.get("store.put", 0) == cold_store.puts == 2

        warm_store = ResultStore(str(tmp_path))
        _, warm_events = _run_with_sink([_job(trainer)], store=warm_store)
        warm = _counter_totals(warm_events)
        assert warm.get("store.hit", 0) == warm_store.hits == 2
        assert warm.get("store.miss", 0) == warm_store.misses == 0

        summary = telemetry.summarize(warm_events)
        assert summary["store"]["hits"] == warm_store.hits
        assert summary["store"]["hit_rate"] == 1.0
        stats = warm_store.statistics()
        assert stats["hits"] == summary["store"]["hits"]
        assert stats["misses"] == summary["store"]["misses"]

    def test_partial_probe_counter_matches_store(self, tmp_path):
        trainer = _trainer()
        first = ResultStore(str(tmp_path))
        _run_with_sink([_job(trainer, seeds=(0,))], store=first)
        # Widening the batch probes seed 0 successfully, then aborts on
        # seed 1: the probe is discarded work, counted as such.
        second = ResultStore(str(tmp_path))
        _, events = _run_with_sink([_job(trainer, seeds=(0, 1))],
                                   store=second)
        totals = _counter_totals(events)
        assert totals.get("store.partial_probe", 0) == \
            second.partial_probes == 1
        assert totals.get("store.miss", 0) == second.misses == 1
        assert totals.get("store.hit", 0) == second.hits == 0
        assert telemetry.summarize(events)["store"]["partial_probes"] == 1


# --------------------------------------------------------------------------- #
# Training metrics: recorded per checkpoint, persisted with the run.
# --------------------------------------------------------------------------- #
class TestTrainingMetrics:
    def test_series_and_run_metrics_align_with_checkpoints(self, tmp_path):
        trainer = _trainer()
        store = ResultStore(str(tmp_path))
        results, events = _run_with_sink([_job(trainer)], store=store)
        for run in results[0].runs:
            metrics = run.checkpoint_metrics
            assert set(metrics) == set(TRAINING_METRIC_NAMES)
            for values in metrics.values():
                assert len(values) == len(run.checkpoint_epochs)
                assert all(math.isfinite(v) for v in values)
        points = [e for e in events if e.kind == "series"]
        assert {e.name for e in points} == \
            {f"train.{name}" for name in TRAINING_METRIC_NAMES}
        # num_seeds x num_checkpoints points per metric, stepped by epoch.
        entropy = [e for e in points if e.name == "train.entropy"]
        assert len(entropy) == 2 * 2
        assert sorted({e.step for e in entropy}) == [3, 6]
        assert {e.attrs["seed"] for e in entropy} == {0, 1}

    def test_warm_replay_retains_metric_series(self, tmp_path):
        trainer = _trainer()
        cold, _ = _run_with_sink([_job(trainer)],
                                 store=ResultStore(str(tmp_path)))
        warm, _ = _run_with_sink([_job(trainer)],
                                 store=ResultStore(str(tmp_path)))
        assert warm[0].cached
        for fresh, replay in zip(cold[0].runs, warm[0].runs):
            assert replay.checkpoint_metrics == fresh.checkpoint_metrics

    def test_old_records_without_metrics_still_load(self, tmp_path):
        from repro.core.evaluation import TrainingRun
        store = ResultStore(str(tmp_path))
        run = TrainingRun(seed=0, reward_history=[0.1], checkpoint_epochs=[1],
                          checkpoint_scores=[0.5], early_stopped=False,
                          last_k_checkpoints=1)
        store.put_run("cd" * 32, run)
        assert ResultStore(str(tmp_path)).get_run("cd" * 32) \
            .checkpoint_metrics is None


# --------------------------------------------------------------------------- #
# Kernel compiler counters.
# --------------------------------------------------------------------------- #
class _Unlowerable(GenericActorCritic):
    """Codegen-style subclass whose forward the planner cannot verify."""

    def forward(self, states):  # pragma: no cover - structure-only
        return super().forward(states)


class TestCompileCounters:
    def test_lowered_and_fallback_counters(self):
        sink = telemetry.Telemetry()
        telemetry.set_telemetry(sink)
        assert plan_for(GenericActorCritic(
            (6, 8), 4, hidden_sizes=(8,),
            rng=np.random.default_rng(0))) is not None
        assert plan_for(_Unlowerable(
            (6, 8), 4, hidden_sizes=(8,),
            rng=np.random.default_rng(0))) is None
        telemetry.set_telemetry(None)

        totals = _counter_totals(sink.events)
        assert totals["compile.lowered"] == 1
        assert totals["compile.fallback"] == 1
        fallback, = (e for e in sink.events if e.name == "compile.fallback")
        assert fallback.attrs["network"] == "_Unlowerable"
        assert fallback.attrs["reason"]
        summary = telemetry.summarize(sink.events)
        assert summary["compile"]["lowered"] == 1
        assert summary["compile"]["fallbacks"] == {
            fallback.attrs["reason"]: 1}


# --------------------------------------------------------------------------- #
# Persistence and rendering.
# --------------------------------------------------------------------------- #
def _synthetic_sink(directory=None):
    sink = telemetry.Telemetry(directory)
    with sink.span("job.train", {"environment": "fcc",
                                 "design": "original", "seeds": "0"}):
        pass
    sink.counter("store.hit", 2)
    sink.counter("store.miss")
    sink.series("train.entropy", 3, 0.75, attrs={"seed": 0})
    return sink


class TestPersistenceAndRendering:
    def test_flush_load_roundtrip(self, tmp_path):
        sink = _synthetic_sink(str(tmp_path))
        path = sink.flush()
        assert path.endswith(".jsonl")
        loaded = telemetry.load_events(str(tmp_path))
        assert [e.signature() for e in loaded] == \
            [e.signature() for e in sink.events]
        with pytest.raises(FileNotFoundError):
            telemetry.load_events(str(tmp_path / "absent"))

    def test_chrome_trace_structure(self, tmp_path):
        sink = _synthetic_sink()
        trace = telemetry.chrome_trace(sink.events)
        assert set(trace) == {"traceEvents"}
        by_phase = {}
        for entry in trace["traceEvents"]:
            assert {"name", "ph", "ts", "pid"} <= set(entry)
            assert entry["ts"] >= 0.0  # rebased to the earliest event
            by_phase.setdefault(entry["ph"], []).append(entry)
        span, = by_phase["X"]
        assert span["name"] == "job.train" and span["dur"] >= 0.0
        assert len(by_phase["C"]) == 3  # two counters + one series point
        out = tmp_path / "trace.json"
        telemetry.write_chrome_trace(sink.events, str(out))
        assert json.loads(out.read_text())["traceEvents"]

    def test_render_report_sections(self):
        text = telemetry.render_report(_synthetic_sink().events)
        assert "telemetry summary" in text
        assert "2 hits / 1 misses (66.7% hit rate)" in text
        assert "train.entropy (1 points)" in text

    def test_summarize_empty(self):
        summary = telemetry.summarize([])
        assert summary["events"] == 0
        assert summary["store"]["hit_rate"] is None


# --------------------------------------------------------------------------- #
# CLI surfaces: `repro report`, `--telemetry`, `--trace`.
# --------------------------------------------------------------------------- #
class TestReportCLI:
    def test_report_renders_flushed_events(self, tmp_path, capsys):
        _synthetic_sink(str(tmp_path)).flush()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        assert "result store" in out

        assert main(["report", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["store"]["hits"] == 2

    def test_report_missing_directory_fails(self, tmp_path):
        assert main(["report", str(tmp_path / "absent")]) == 1

    def test_campaign_telemetry_end_to_end(self, tmp_path, capsys):
        teldir = tmp_path / "telemetry"
        trace = tmp_path / "trace.json"
        argv = ["campaign", "--environments", "fcc",
                "--num-designs", "2", "--dataset-scale", "0.02",
                "--num-chunks", "6", "--train-epochs", "4",
                "--checkpoint-interval", "2", "--num-seeds", "1",
                "--no-early-stopping", "--store", str(tmp_path / "store"),
                "--telemetry", str(teldir), "--trace", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        # The CLI closes its telemetry session; nothing leaks to later runs.
        assert not telemetry.enabled()

        events = telemetry.load_events(str(teldir))
        assert events
        trace_events = json.loads(trace.read_text())["traceEvents"]
        assert trace_events
        assert all({"name", "ph", "ts"} <= set(e) for e in trace_events)

        assert main(["report", str(teldir)]) == 0
        report = capsys.readouterr().out
        assert "result store" in report and "kernel compiler" in report
