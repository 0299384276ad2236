"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the ``repro`` modules from
the benchmark's side; nothing inside ``src/`` is modified.  Every wrapped
call records one span: its kind (the layer it belongs to), start, end, the
span that was open when it started (its parent) and the run id.  Spans stay
in memory until :meth:`Tracer.write` dumps them at the end of a repetition.

A layer's *self time* is its span's duration minus the time its wrapped
children cover.  Only calls made on the thread that installed the tracer are
recorded, and only inside a timed pass (:meth:`Tracer.root`); other calls
run unwrapped.

Targets that no longer exist (a later change renamed or removed them) are
skipped and listed in :attr:`Tracer.missing`; ``run.py`` then fails the run
rather than report the layers that went dark as 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span kind, module, attribute path) for every wrapped call site.  Module
#: level functions are wrapped at the binding their callers use (for
#: example ``original_states_batched`` as imported by ``repro.rl.a2c``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # abr.networks: the hand-fused Pensieve kernels.
    ("abr.networks.forward", "repro.abr.networks", "_SeedActorForward.probs"),
    ("abr.networks.update_forward", "repro.abr.networks", "PensieveSeedStack.fused_forward"),
    ("abr.networks.update_forward", "repro.abr.networks", "PensieveNetwork.fused_forward"),
    ("abr.networks.update_backward", "repro.abr.networks", "PensieveSeedStack.fused_backward"),
    ("abr.networks.update_backward", "repro.abr.networks", "PensieveNetwork.fused_backward"),
    # nn.compile: lowered generated networks.
    ("nn.compile.forward", "repro.nn.compile", "_ActorInference.probs"),
    ("nn.compile.update_forward", "repro.nn.compile", "CompiledSeedStack.fused_forward"),
    ("nn.compile.update_forward", "repro.nn.compile", "CompiledPlan.fused_forward"),
    ("nn.compile.update_backward", "repro.nn.compile", "CompiledSeedStack.fused_backward"),
    ("nn.compile.update_backward", "repro.nn.compile", "CompiledPlan.fused_backward"),
    # nn.optim: optimizer steps and gradient clipping.
    ("nn.optim.step", "repro.nn.optim", "StackedRMSProp.step"),
    ("nn.optim.step", "repro.nn.optim", "RMSProp.step"),
    ("nn.optim.step", "repro.nn.optim", "StackedAdam.step"),
    ("nn.optim.step", "repro.nn.optim", "Adam.step"),
    ("nn.optim.step", "repro.nn.optim", "StackedSGD.step"),
    ("nn.optim.step", "repro.nn.optim", "SGD.step"),
    ("nn.optim.clip", "repro.nn", "clip_grad_norm_stacked"),
    ("nn.optim.clip", "repro.nn", "clip_grad_norm"),
    # abr.env / abr.state: chunk simulation and state building.
    ("abr.env.step", "repro.abr.env", "StreamingSession.step"),
    ("abr.state.build", "repro.rl.a2c", "original_states_batched"),
    ("abr.state.build", "repro.emulation.fleet", "original_states_gathered"),
    ("abr.state.build", "repro.abr.state", "StateFunction.__call__"),
    # rl.a2c: training epochs and checkpoint evaluation.
    ("rl.a2c.lockstep_epoch", "repro.rl.a2c", "MultiSeedA2CTrainer.train_epoch"),
    ("rl.a2c.graph_epoch", "repro.rl.a2c", "A2CTrainer.train_epoch"),
    ("rl.a2c.checkpoint_eval", "repro.rl.a2c", "MultiSeedA2CTrainer.evaluate_checkpoint"),
    ("rl.a2c.checkpoint_eval", "repro.core.evaluation", "evaluate_agent"),
    ("rl.a2c.checkpoint_eval", "repro.rl.a2c", "evaluate_agent"),
    # Serving.
    ("rl.agent.batch_forward", "repro.rl.agent", "ABRAgent.batch_action_probabilities"),
    ("emulation.player.step", "repro.emulation.player", "DashPlayer.step"),
    ("emulation.fleet.loop", "repro.emulation.fleet", "Fleet.run"),
    # Campaign layers.
    ("core.generation.generate", "repro.core.generation", "DesignGenerator.generate"),
    ("core.filters.apply", "repro.core.filters", "FilterPipeline.apply"),
    ("core.early_stopping.fit", "repro.core.early_stopping", "RewardTrajectoryClassifier.fit"),
    ("core.early_stopping.decide", "repro.core.early_stopping", "RewardTrajectoryClassifier.should_stop"),
    ("core.evaluation.job", "repro.core.evaluation", "DesignTrainer.run_seeds"),
    ("core.scheduler.run", "repro.core.scheduler", "CampaignScheduler.run"),
    ("core.results.get", "repro.core.results", "ResultStore.get_run"),
    ("core.results.get", "repro.core.results", "ResultStore.peek_run"),
    ("core.results.put", "repro.core.results", "ResultStore.put_run"),
    ("core.results.claim", "repro.core.results", "ResultStore.claim"),
    ("core.distributed.run", "repro.core.distributed", "RemoteExecutor.run"),
)

#: Kinds whose calls also record a number taken from their arguments or
#: result (summed per kind into ``Tracer.units``).
_UNITS: Dict[str, Callable[[tuple, Any], float]] = {
    "rl.a2c.lockstep_epoch": lambda args, result: len(result),
    "rl.a2c.graph_epoch": lambda args, result: 1,
    "rl.agent.batch_forward": lambda args, result: len(args[1]),
    "core.generation.generate": lambda args, result: len(result),
    "core.early_stopping.decide": lambda args, result: 1 if result else 0,
}


def busy_wait(seconds: float) -> None:
    """Spin for ``seconds`` (sleep is too coarse for sub-millisecond delays)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type) and attr not in vars(owner):
        # Inherited: wrapping the base class's definition covers it.
        raise AttributeError(f"{path} is not defined on {owner.__name__}")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder installed around :data:`TARGETS`.

    ``inject`` maps a span kind to a per-call delay in seconds that the
    wrapper adds inside the span (the self-test uses it to plant a known
    slowdown in one layer).  With ``record=False`` only the injecting
    wrappers are installed, so an untraced run can carry a planted delay
    without paying for the others.
    """

    def __init__(self, run_id: str, inject: Optional[Dict[str, float]] = None,
                 record: bool = True) -> None:
        self.run_id = run_id
        self.inject = dict(inject or {})
        self.record = record
        #: One list per span: [kind, parent index, start, end, child time].
        self.spans: List[list] = []
        self.units: Dict[str, float] = defaultdict(float)
        #: Extra per-call observations keyed by kind (results worth keeping).
        self.notes: Dict[str, List[Tuple[str, Any]]] = defaultdict(list)
        self.missing: List[str] = []
        self._stack: List[int] = [-1]
        self._thread = threading.get_ident()
        self._root: Optional[str] = None

    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        for kind, module_name, path in TARGETS:
            if not self.record and kind not in self.inject:
                continue
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attr, self._wrap(kind, original))
        return self

    def _wrap(self, kind: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        delay = self.inject.get(kind, 0.0)
        units = _UNITS.get(kind)
        keep = kind in ("core.scheduler.run", "core.filters.apply",
                        "core.distributed.run")
        thread = self._thread
        record = self.record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] < 0 or threading.get_ident() != thread:
                return fn(*args, **kwargs)  # outside a timed pass
            if not record:
                result = fn(*args, **kwargs)
                busy_wait(delay)
                return result
            span = [kind, stack[-1], clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if delay:
                    busy_wait(delay)
            finally:
                stack.pop()
                span[3] = clock()
                spans[span[1]][4] += span[3] - span[2]
            if units is not None:
                self.units[kind] += units(args, result)
            if keep:
                note = self._note(kind, args, result)
                note["s"] = span[3] - span[2]
                self.notes[kind].append((self._root, note))
            return result

        return wrapper

    @staticmethod
    def _note(kind: str, args: tuple, result: Any) -> Any:
        if kind == "core.scheduler.run":
            return {"jobs": len(result),
                    "cached": sum(1 for r in result if r.cached),
                    "trained": sum(1 for r in result
                                   if not r.cached and not r.deduplicated)}
        if kind == "core.filters.apply":
            return {"total": result.total, "survived": result.well_normalized}
        # core.distributed.run: the executor's own per-batch statistics.
        return dict(args[0].last_stats)

    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a top-level span around one timed pass."""
        span = [f"pass.{name}", -1, time.perf_counter(), 0.0, 0.0]
        self._root = name
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[3] = time.perf_counter()
            self._root = None

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per kind: span count, inclusive seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for kind, _, start, end, child in self.spans:
            if not end:
                continue
            row = out[kind]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return dict(out)

    def write(self, path: str) -> None:
        """Dump every span as JSON: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "parent", "start", "end"],
                       "spans": [[kind, parent, start, end]
                                 for kind, parent, start, end, _ in self.spans]},
                      handle)
