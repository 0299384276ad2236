"""Fault-tolerant, order-preserving execution of independent work items.

The §3.1 protocol is embarrassingly parallel: every (design, seed) training
session is an independent, deterministic function of its inputs.  Every
batch runs through one :class:`Supervisor` (queue, attempts, backoff,
assignment epochs and deadlines, outcomes), driven by one of three
transports: inline in the caller, a local process pool, or the socket
workers of :mod:`repro.core.distributed`.

Design constraints:

* **Determinism.** Results are returned in submission order, and each work
  item runs exactly the same code it would run serially, so a parallel sweep
  is bit-identical to the serial one regardless of scheduling.
* **Graceful degradation.** ``max_workers <= 1`` (the default) runs inline
  with zero overhead; if a process pool cannot be created (restricted
  sandboxes, missing semaphores) the batch falls back to the inline
  transport with a warning instead of failing the experiment.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import pickle
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    TypeVar, Union)

from ..log import get_logger
from . import telemetry

__all__ = ["ParallelConfig", "Supervisor", "TaskOutcome", "effective_workers",
           "parallel_map", "run_resilient"]

T = TypeVar("T")
R = TypeVar("R")

logger = get_logger("parallel")

#: Environment variable consulted when ``max_workers`` is None.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Seconds per supervision tick of the pool transport.
_POLL_INTERVAL_S = 0.05

#: Fan out only when a batch has at least this many items; tiny batches are
#: not worth the process start-up cost.
CHUNK_THRESHOLD = 2

#: Growth factor of the retry delay (exponential backoff).
BACKOFF_FACTOR = 2.0

_POOL_DIED = "BrokenProcessPool: worker process died"


@dataclass(frozen=True)
class ParallelConfig:
    """How evaluation work items are executed.

    Attributes:
        max_workers: Process count for fan-out.  ``None`` reads
            :data:`WORKERS_ENV_VAR` (defaulting to 1); any value <= 1 runs
            serially in-process.
        max_retries: How many times :func:`run_resilient` re-runs a failing
            work item (raise, worker death, timeout) before quarantining it.
            0 fails fast on the first error.
        backoff_base_s: First retry delay; each further retry multiplies it
            by :data:`BACKOFF_FACTOR` (exponential backoff).
        job_timeout: Seconds one assignment of a work item may run before it
            is charged as failed and retried.  None disables the limit.
            Enforced by the pool transport (the wedged pool is recycled) and
            the remote transport (the assignment is revoked and its late
            result fenced; the worker is left alone).  An inline job cannot
            be preempted, so serial execution does not enforce it.
    """

    max_workers: Optional[int] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    job_timeout: Optional[float] = None

    def resolved_workers(self) -> int:
        return effective_workers(self.max_workers)

    def backoff_s(self, failures: int) -> float:
        """Delay before the ``failures``-th retry (1-based)."""
        return self.backoff_base_s * (BACKOFF_FACTOR ** max(0, failures - 1))


@dataclass
class TaskOutcome:
    """Terminal state of one resilient work item.

    ``status`` is ``"ok"`` (``value`` holds the result), ``"quarantined"``
    (every attempt failed; ``error`` holds the last failure) or
    ``"interrupted"`` (a shutdown request arrived before the item could
    finish).
    """

    value: Any = None
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def effective_workers(max_workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else env var, else serial."""
    if max_workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            max_workers = int(raw)
        except ValueError:
            warnings.warn(f"ignoring non-integer {WORKERS_ENV_VAR}={raw!r}")
            max_workers = 1
    if max_workers < 0:
        max_workers = os.cpu_count() or 1
    return max(1, max_workers)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------- #
# The supervisor: one batch's retry, backoff, quarantine and shutdown state.
# --------------------------------------------------------------------------- #
class Supervisor:
    """State machine of one batch, shared by every transport.

    Every item is in exactly one place: the queue, an *assignment* (one
    dispatch, stamped with a fresh epoch and a deadline), or its terminal
    :class:`TaskOutcome`.  :meth:`take` opens an assignment; :meth:`settle`,
    :meth:`fail` and :meth:`revoke` close it.  A transport that can receive
    late results asks :meth:`holds` first, so a revoked epoch is fenced.
    Callers on several threads share ``lock`` (the remote transport's).
    """

    def __init__(self, items: Sequence[Any], config: ParallelConfig,
                 lock: Any = None) -> None:
        self.items = list(items)
        self.config = config
        self.lock = lock or contextlib.nullcontext()
        count = len(self.items)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * count
        self.failures = [0] * count
        self.ready_at = [0.0] * count
        self.epochs = [0] * count
        self.queue: List[int] = list(range(count))
        #: index -> (owner, epoch, deadline) of every open assignment.
        self.running: Dict[int, Tuple[Any, int, float]] = {}
        #: Indices in settle order (tests assert arrival shuffles do not
        #: leak into the submission-order merge).
        self.result_order: List[int] = []
        #: The exception behind each item's latest failure, when one exists.
        self.raised: Dict[int, BaseException] = {}
        #: Set by a shutdown request: queued items will not start.
        self.stopping = False

    def done(self) -> bool:
        """Nothing is running and nothing more will start."""
        return not self.running and (not self.queue or self.stopping)

    def drive(self, step: Callable[[], None],
              should_stop: Optional[Callable[[], bool]] = None,
              heartbeat: Optional[Callable[[], None]] = None) -> None:
        """The supervision loop of every transport: ``step()`` until done.

        ``should_stop`` (polled between steps) or ^C stops it gracefully:
        nothing new starts, and running work gets ``job_timeout`` (60 s
        without one) to finish.  A second ^C while draining propagates.
        """
        grace_until = math.inf
        while True:
            with self.lock:
                if self.done():
                    return
            if (not self.stopping and should_stop is not None
                    and should_stop()):
                grace_until = self._stop()
            if time.monotonic() > grace_until:
                return
            if heartbeat is not None:
                heartbeat()
            try:
                step()
            except KeyboardInterrupt:
                if self.stopping:
                    raise
                grace_until = self._stop()

    def _stop(self) -> float:
        with self.lock:
            self.stopping = True
        return time.monotonic() + (self.config.job_timeout or 60.0)

    def take(self, owner: Any = None) -> Optional[Tuple[int, int, int]]:
        """Assign the first ready item: ``(index, epoch, attempt)`` or None."""
        if self.stopping:
            return None
        now = time.monotonic()
        for slot, index in enumerate(self.queue):
            if self.ready_at[index] <= now:
                del self.queue[slot]
                self.epochs[index] += 1
                timeout = self.config.job_timeout
                deadline = math.inf if timeout is None else now + timeout
                self.running[index] = (owner, self.epochs[index], deadline)
                return index, self.epochs[index], self.failures[index]
        return None

    def wait_s(self) -> float:
        """Seconds until the earliest queued item is ready again."""
        if not self.queue or self.stopping:
            return _POLL_INTERVAL_S
        soonest = min(self.ready_at[index] for index in self.queue)
        return max(soonest - time.monotonic(), 0.0)

    def holds(self, index: int, epoch: int) -> bool:
        """Whether ``epoch`` is still ``index``'s open assignment."""
        return index in self.running and self.running[index][1] == epoch

    def expired(self) -> Set[int]:
        """Indices whose assignment outlived ``job_timeout``."""
        now = time.monotonic()
        return {index for index, (_, _, deadline) in self.running.items()
                if now > deadline}

    def settle(self, index: int, value: Any) -> None:
        del self.running[index]
        self.outcomes[index] = TaskOutcome(value=value,
                                           attempts=self.failures[index] + 1)
        self.result_order.append(index)

    def fail(self, index: int, error: Union[BaseException, str]) -> None:
        """Charge one attempt to ``index``; requeue it or quarantine it."""
        del self.running[index]
        if isinstance(error, BaseException):
            self.raised[index] = error
            error = _describe(error)
        self.failures[index] += 1
        attempts = self.failures[index]
        logger.warning("work item %d failed (attempt %d/%d): %s", index,
                       attempts, self.config.max_retries + 1, error)
        if attempts > self.config.max_retries:
            self.outcomes[index] = TaskOutcome(status="quarantined",
                                               attempts=attempts, error=error)
            self.result_order.append(index)
        else:
            self.ready_at[index] = (time.monotonic()
                                    + self.config.backoff_s(attempts))
            bisect.insort(self.queue, index)

    def revoke(self, index: int) -> None:
        """Close an assignment uncharged and requeue the item."""
        del self.running[index]
        bisect.insort(self.queue, index)

    def revoke_all(self) -> int:
        revoked = len(self.running)
        for index in list(self.running):
            self.revoke(index)
        return revoked

    def finish(self) -> List[TaskOutcome]:
        """Submission-ordered outcomes; anything unfinished is interrupted."""
        for index in self.queue:
            self.outcomes[index] = TaskOutcome(
                status="interrupted", attempts=self.failures[index],
                error="shutdown requested")
        for index in self.running:
            self.outcomes[index] = TaskOutcome(
                status="interrupted", attempts=self.failures[index],
                error="shutdown requested while running")
        self.queue, self.running = [], {}
        return self.outcomes  # type: ignore[return-value]


# --------------------------------------------------------------------------- #
# Local transports.
# --------------------------------------------------------------------------- #
def _inline_step(supervisor: Supervisor,
                 fn: Callable[[Any, int], Any]) -> None:
    """Run one item in the caller (no preemption, so no ``job_timeout``)."""
    job = supervisor.take()
    if job is None:  # everything left is backing off
        time.sleep(supervisor.wait_s())
        return
    index, _, attempt = job
    try:
        value = fn(supervisor.items[index], attempt)
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        supervisor.fail(index, exc)
    except BaseException:  # ^C mid-job: this attempt will never finish
        supervisor.revoke(index)
        raise
    else:
        supervisor.settle(index, value)


class _PoolTransport:
    """Drives a supervisor through a local process pool.

    A job is submitted only when a worker slot is free, so its deadline
    starts at dispatch.  A dead worker charges every in-flight assignment; a
    job past ``job_timeout`` is charged and the rest requeued uncharged.
    Either way the pool is recycled.
    """

    def __init__(self, supervisor: Supervisor,
                 fn: Callable[[Any, int], Any], workers: int) -> None:
        pickle.dumps(fn)  # an unpicklable function cannot use a pool at all
        self.supervisor = supervisor
        self.fn = fn
        self.workers = workers
        self.pool: Optional[ProcessPoolExecutor] = None
        self.futures: Dict[Future, int] = {}

    def step(self) -> None:
        supervisor, futures = self.supervisor, self.futures
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        while len(futures) < self.workers:
            job = supervisor.take()
            if job is None:
                break
            index, _, attempt = job
            futures[self.pool.submit(self.fn, supervisor.items[index],
                                     attempt)] = index
        if not futures:  # everything left is backing off
            time.sleep(min(supervisor.wait_s(), 0.25) or _POLL_INTERVAL_S)
            return
        done, _ = wait(futures, timeout=_POLL_INTERVAL_S,
                       return_when=FIRST_COMPLETED)
        broken = False
        for future in done:
            broken = self._collect(future, futures.pop(future)) or broken
        expired = supervisor.expired()
        if not (broken or expired):
            return
        for future, index in futures.items():
            if future.done():
                # Finished as the pool broke or wedged: harvest it (a
                # BrokenProcessPool result charges it).
                self._collect(future, index)
            elif broken:
                supervisor.fail(index, _POOL_DIED)
            elif index in expired:
                supervisor.fail(index, f"TimeoutError: job exceeded "
                                       f"{supervisor.config.job_timeout:.1f}s")
            else:
                supervisor.revoke(index)
        futures.clear()
        self.close(recycle=True)
        telemetry.counter("parallel.pool_recycled")
        if broken:
            logger.warning("worker pool died; respawning (%d item(s) queued)",
                           len(supervisor.queue))

    def _collect(self, future: Future, index: int) -> bool:
        """Settle or charge one finished future; True if the pool broke."""
        try:
            value = future.result()
        except BrokenProcessPool:
            self.supervisor.fail(index, _POOL_DIED)
            return True
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.supervisor.fail(index, exc)
            return False
        self.supervisor.settle(index, value)
        return False

    def close(self, recycle: bool = False) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        pool.shutdown(wait=not recycle, cancel_futures=True)
        if recycle:
            # A wedged worker would otherwise run to completion in the
            # abandoned pool; terminate what we can (best effort, the
            # executor offers no public kill switch).  shutdown() may have
            # already nulled the internals dict.
            for process in list((getattr(pool, "_processes", None)
                                 or {}).values()):
                try:
                    process.terminate()
                except OSError:  # pragma: no cover - already gone
                    pass


def run_local(supervisor: Supervisor, fn: Callable[[Any, int], Any],
              should_stop: Optional[Callable[[], bool]] = None,
              heartbeat: Optional[Callable[[], None]] = None) -> None:
    """Drive ``supervisor`` to completion in this process or a local pool.

    Fans out over ``config.max_workers`` processes when at least
    :data:`CHUNK_THRESHOLD` items are queued; a pool that cannot be created
    degrades to the inline transport, attempt counts intact.
    """
    queued = len(supervisor.queue)
    workers = min(supervisor.config.resolved_workers(), queued)
    tel = telemetry.get_telemetry()
    attrs = ({"items": len(supervisor.items), "workers": max(workers, 1)}
             if tel is not None else None)
    with telemetry.span("parallel.map", attrs):
        if workers > 1 and queued >= CHUNK_THRESHOLD:
            try:
                pool = _PoolTransport(supervisor, fn, workers)
                try:
                    supervisor.drive(pool.step, should_stop, heartbeat)
                finally:
                    pool.close()
                return
            except (OSError, pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                logger.warning("process pool unavailable (%r); "
                               "falling back to serial execution", exc)
                warnings.warn(f"process pool unavailable ({exc!r}); "
                              f"falling back to serial execution")
                if tel is not None:
                    tel.counter("parallel.serial_fallback")
                supervisor.revoke_all()
        supervisor.drive(partial(_inline_step, supervisor, fn), should_stop,
                         heartbeat)


# --------------------------------------------------------------------------- #
# Public entry points.
# --------------------------------------------------------------------------- #
def run_resilient(fn: Callable[[T, int], R], items: Sequence[T],
                  config: Optional[ParallelConfig] = None,
                  should_stop: Optional[Callable[[], bool]] = None,
                  heartbeat: Optional[Callable[[], None]] = None,
                  ) -> List[TaskOutcome]:
    """Map ``fn(item, attempt)`` over ``items`` with failure isolation.

    Used by the campaign scheduler.  One raising, hanging or crashing work
    item does not poison the batch:

    * an item whose attempt raises is retried with exponential backoff up to
      ``config.max_retries`` times, then **quarantined** — the batch
      completes with a per-item :class:`TaskOutcome` instead of a traceback;
    * a worker death (``BrokenProcessPool``) charges an attempt to every
      item in flight and respawns the pool;
    * an item exceeding ``config.job_timeout`` inside a worker is failed,
      its (possibly wedged) pool recycled, and the item retried;
    * ``should_stop`` (polled between attempts and pool ticks) requests a
      graceful shutdown: running work is drained, unstarted work is marked
      ``"interrupted"``, and whatever completed is returned.

    ``fn`` receives the zero-based attempt index alongside the item so
    deterministic fault plans can key off it.  Outcomes preserve submission
    order, and retried attempts run exactly the code a first attempt runs,
    so recovered results are bit-identical to undisturbed ones.
    """
    supervisor = Supervisor(items, config or ParallelConfig())
    run_local(supervisor, fn, should_stop, heartbeat)
    return supervisor.finish()


def _without_attempt(fn: Callable[[T], R], item: T, attempt: int) -> R:
    return fn(item)


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 config: Optional[ParallelConfig] = None) -> List[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results preserve the order of ``items``.  ``fn`` and every item must be
    picklable when more than one worker is requested; the serial path has no
    such requirement.  Nothing is retried: the first failed item (in
    submission order) re-raises its error once the batch has finished.
    """
    config = replace(config or ParallelConfig(), max_retries=0)
    supervisor = Supervisor(items, config)
    run_local(supervisor, partial(_without_attempt, fn))
    outcomes = supervisor.finish()
    for index, outcome in enumerate(outcomes):
        if outcome.status == "interrupted":
            raise KeyboardInterrupt
        if not outcome.ok:
            raise supervisor.raised.get(index) or RuntimeError(outcome.error)
    return [outcome.value for outcome in outcomes]
