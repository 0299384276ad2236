"""Chunk-level ABR streaming simulator (re-implementation of Pensieve's env).

The simulator replays a bandwidth trace and models the download of video
chunks one at a time:

* downloading a chunk walks the trace segment by segment, consuming
  ``bandwidth x time x payload_fraction`` bytes per segment until the chunk is
  complete, then adds one link RTT;
* the playback buffer drains in real time during the download; if it empties,
  the difference is recorded as rebuffering time;
* each finished chunk adds ``chunk_duration`` seconds of video to the buffer;
* when the buffer exceeds the client's maximum (60 s, as in dash.js/Pensieve)
  the client pauses requests until it drains below the threshold.

On top of the raw simulator, :class:`StreamingSession` maintains the
observation histories that RL state functions consume and can run a full
video through any ABR policy, returning per-chunk records and QoE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..traces.base import Trace
from .qoe import LinearQoE, QoEMetric
from .video import Video

__all__ = [
    "SimulatorConfig",
    "ChunkStepResult",
    "ChunkLevelSimulator",
    "Observation",
    "ChunkRecord",
    "SessionResult",
    "StreamingSession",
    "run_session",
]

#: Length of the history window exposed to state functions (Pensieve's S_LEN).
HISTORY_LENGTH = 8


#: Minimum effective throughput (Mbit/s) credited to any trace segment; this
#: floor guarantees every download terminates in bounded (simulated) time.
MIN_THROUGHPUT_MBPS = 1e-6


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunable constants of the chunk-level simulator (Pensieve defaults)."""

    link_rtt_s: float = 0.08
    #: Fraction of raw link bytes that are HTTP payload (header overhead).
    payload_fraction: float = 0.95
    #: Client buffer capacity; above this the player pauses requests.
    max_buffer_s: float = 60.0
    #: Granularity of the pause-and-drain loop when the buffer is full.
    drain_sleep_s: float = 0.5
    #: Multiplicative noise applied to each chunk's effective bandwidth,
    #: modelling cross traffic the trace does not capture (0 disables it).
    bandwidth_noise_std: float = 0.0


@dataclass
class ChunkStepResult:
    """Outcome of downloading one chunk."""

    chunk_index: int
    bitrate_index: int
    chunk_size_bytes: float
    download_time_s: float
    throughput_mbps: float
    rebuffer_s: float
    sleep_s: float
    buffer_s: float
    remaining_chunks: int
    done: bool


class ChunkLevelSimulator:
    """Trace-driven chunk download simulator.

    The simulator is deliberately stateful in the same way Pensieve's is: the
    position inside the bandwidth trace persists across chunks, so a slow
    period affects consecutive downloads.
    """

    def __init__(self, video: Video, trace: Trace,
                 config: Optional[SimulatorConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.video = video
        self.trace = trace
        self.config = config or SimulatorConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        self.reset()

    # ------------------------------------------------------------------ #
    def reset(self, trace: Optional[Trace] = None,
              start_offset_s: Optional[float] = None) -> None:
        """Reset playback state; optionally switch to a new trace."""
        if trace is not None:
            self.trace = trace
        if start_offset_s is None:
            start_offset_s = 0.0
        self._time_in_trace_s = float(start_offset_s % max(self.trace.duration_s, 1e-9))
        self._buffer_s = 0.0
        self._next_chunk = 0

    @property
    def buffer_s(self) -> float:
        return self._buffer_s

    @property
    def next_chunk_index(self) -> int:
        return self._next_chunk

    @property
    def remaining_chunks(self) -> int:
        return self.video.num_chunks - self._next_chunk

    @property
    def finished(self) -> bool:
        return self._next_chunk >= self.video.num_chunks

    # ------------------------------------------------------------------ #
    def step(self, bitrate_index: int) -> ChunkStepResult:
        """Download the next chunk at ``bitrate_index`` and advance playback."""
        if self.finished:
            raise RuntimeError("all chunks have already been downloaded; call reset()")
        if not 0 <= bitrate_index < self.video.num_bitrates:
            raise IndexError(f"bitrate index {bitrate_index} out of range")

        chunk_index = self._next_chunk
        chunk_bytes = self.video.chunk_size(chunk_index, bitrate_index)
        noise = 1.0
        if self.config.bandwidth_noise_std > 0:
            noise = float(np.clip(
                self._rng.normal(1.0, self.config.bandwidth_noise_std), 0.3, 1.7))

        download_time = self._download(chunk_bytes, noise)
        download_time += self.config.link_rtt_s

        # Buffer drains during the download; any shortfall is rebuffering.
        rebuffer = max(download_time - self._buffer_s, 0.0)
        self._buffer_s = max(self._buffer_s - download_time, 0.0)
        self._buffer_s += self.video.chunk_duration_s

        # If the buffer exceeds the player's capacity, the client pauses
        # before requesting the next chunk; the pause advances trace time.
        sleep = 0.0
        if self._buffer_s > self.config.max_buffer_s:
            excess = self._buffer_s - self.config.max_buffer_s
            sleep = np.ceil(excess / self.config.drain_sleep_s) * self.config.drain_sleep_s
            self._buffer_s -= sleep
            self._advance_trace_time(sleep)

        throughput_mbps = (chunk_bytes * 8.0 / 1e6) / max(download_time, 1e-9)
        self._next_chunk += 1
        return ChunkStepResult(
            chunk_index=chunk_index,
            bitrate_index=bitrate_index,
            chunk_size_bytes=chunk_bytes,
            download_time_s=download_time,
            throughput_mbps=throughput_mbps,
            rebuffer_s=rebuffer,
            sleep_s=sleep,
            buffer_s=self._buffer_s,
            remaining_chunks=self.remaining_chunks,
            done=self.finished,
        )

    # ------------------------------------------------------------------ #
    def _required_rate_seconds(self, chunk_bytes: float, noise: float) -> float:
        """Convert a chunk size to required Mbit of (floored) link capacity.

        The segment loop consumes ``max(mbps * noise, MIN) * 1e6/8 * payload``
        bytes per second; dividing the chunk size by the constant factor turns
        the problem into 'integrate the floored throughput until it reaches R'.
        """
        bytes_per_rate_second = 1e6 / 8.0 * self.config.payload_fraction
        return chunk_bytes / bytes_per_rate_second

    def _download(self, chunk_bytes: float, noise: float) -> float:
        """Resolve the transfer of ``chunk_bytes`` against the trace.

        Binary-searches the trace's cached capacity prefix sums in O(log n).
        :meth:`_download_segment_walk` is the loop-based reference the
        equivalence tests compare against; the two agree to float round-off.
        """
        trace = self.trace
        times = trace.timestamps_s
        duration = trace.duration_s
        # max(r * noise, MIN) == noise * max(r, MIN / noise): the floor is
        # folded into the cached per-trace prefix, the noise into a scalar.
        floor = MIN_THROUGHPUT_MBPS / noise
        cumulative, rates = trace.capacity_prefix(floor)
        cycle_capacity = float(cumulative[-1]) * noise
        required = self._required_rate_seconds(chunk_bytes, noise)

        # Position within the replay cycle, relative to the first timestamp.
        rel = (self._time_in_trace_s - float(times[0])) % duration
        rel_times = trace.relative_times_s
        index = int(np.searchsorted(rel_times, rel, side="right")) - 1
        index = max(0, min(index, len(rates) - 1))
        consumed = (float(cumulative[index])
                    + float(rates[index]) * (rel - float(rel_times[index]))) * noise
        to_cycle_end = cycle_capacity - consumed

        if required <= to_cycle_end:
            whole_cycles = 0
            target = (consumed + required) / noise
            elapsed_base = -rel
        else:
            spill = required - to_cycle_end
            whole_cycles = int(spill // cycle_capacity)
            target = (spill - whole_cycles * cycle_capacity) / noise
            elapsed_base = (duration - rel) + whole_cycles * duration
            if target >= float(cumulative[-1]):
                # Float round-off pushed the remainder past one more cycle.
                target -= float(cumulative[-1])
                elapsed_base += duration

        j = int(np.searchsorted(cumulative, target, side="right")) - 1
        j = max(0, min(j, len(rates) - 1))
        finish = float(rel_times[j]) + (target - float(cumulative[j])) / float(rates[j])
        elapsed = elapsed_base + finish
        # Round-off guard: a download always takes positive time.
        elapsed = max(elapsed, 1e-12)
        self._advance_trace_time(elapsed)
        return elapsed

    #: Refuse to walk more than this many segments for a single chunk: a
    #: larger exact bound means the download is infeasible on any realistic
    #: timescale (the prefix-sum engine resolves the same download in O(log n)
    #: either way).
    MAX_WALK_ITERATIONS = 10_000_000

    def _download_segment_walk(self, chunk_bytes: float, noise: float) -> float:
        """Walk the trace segment by segment until the chunk is transferred.

        The iteration bound is exact rather than a magic constant: each pass
        over the replay cycle takes at most ``len(trace) - 1`` iterations and
        delivers at least the cycle's floored capacity, so the number of
        cycles needed is ``required / cycle_capacity``.  A bound beyond
        :data:`MAX_WALK_ITERATIONS` fails fast with a descriptive error
        instead of looping for minutes first.
        """
        remaining = chunk_bytes
        elapsed = 0.0
        floor = MIN_THROUGHPUT_MBPS / noise
        cumulative, _ = self.trace.capacity_prefix(floor)
        cycle_capacity = float(cumulative[-1]) * noise
        required = self._required_rate_seconds(chunk_bytes, noise)
        segments_per_cycle = max(len(self.trace) - 1, 1)
        cycles_needed = required / cycle_capacity
        max_iterations = int(np.ceil(cycles_needed + 2.0)) * segments_per_cycle
        if max_iterations > self.MAX_WALK_ITERATIONS:
            raise RuntimeError(
                f"download of {chunk_bytes:.0f} bytes on trace "
                f"{self.trace.name!r} would walk {max_iterations} segments "
                f"({cycles_needed:.0f} replay cycles of {cycle_capacity:.6g} "
                f"Mbit); the link is effectively dead — refusing to iterate "
                f"past {self.MAX_WALK_ITERATIONS}")
        for _ in range(max_iterations):
            raw_mbps, segment_remaining = self._segment_view()
            bytes_per_s = (max(raw_mbps * noise, MIN_THROUGHPUT_MBPS)
                           * 1e6 / 8.0 * self.config.payload_fraction)
            capacity = bytes_per_s * segment_remaining
            if capacity >= remaining:
                used = remaining / bytes_per_s
                elapsed += used
                self._advance_trace_time(used)
                return elapsed
            remaining -= capacity
            elapsed += segment_remaining
            self._advance_trace_time(segment_remaining)
        raise RuntimeError(
            f"download of {chunk_bytes:.0f} bytes did not terminate on trace "
            f"{self.trace.name!r} within {max_iterations} iterations "
            f"({segments_per_cycle} segments/cycle, {cycles_needed:.1f} cycles "
            f"of {cycle_capacity:.6g} Mbit needed)")

    def _segment_view(self) -> tuple:
        """Current segment's ``(throughput_mbps, seconds_to_next_sample)``.

        When modular arithmetic leaves the position a float round-off short of
        a sample boundary, the view snaps forward to the boundary so the walk
        integrates the trace exactly instead of charging phantom time at the
        previous segment's rate.
        """
        trace = self.trace
        times = trace.timestamps_s
        wrapped = (self._time_in_trace_s - times[0]) % trace.duration_s + times[0]
        index = int(np.searchsorted(times, wrapped, side="right")) - 1
        index = max(0, min(index, len(times) - 2))
        gap = float(times[index + 1] - wrapped)
        if gap <= 1e-9:
            # Effectively sitting on the next sample already.
            index += 1
            if index >= len(times) - 1:
                index = 0
            gap = float(times[index + 1] - times[index])
        return float(trace.throughputs_mbps[index]), gap

    def _advance_trace_time(self, delta_s: float) -> None:
        self._time_in_trace_s = (self._time_in_trace_s + delta_s) % max(
            self.trace.duration_s, 1e-9)


# --------------------------------------------------------------------------- #
# Observation and session layer
# --------------------------------------------------------------------------- #
@dataclass
class Observation:
    """Everything an ABR policy may observe before choosing the next bitrate.

    All histories are ordered oldest-first and have exactly
    :data:`HISTORY_LENGTH` entries (zero-padded at the front early in a
    session), which is the contract generated state functions rely on.
    """

    bitrate_kbps_history: np.ndarray
    throughput_mbps_history: np.ndarray
    download_time_s_history: np.ndarray
    buffer_s_history: np.ndarray
    next_chunk_sizes_bytes: np.ndarray
    buffer_s: float
    remaining_chunks: int
    total_chunks: int
    last_bitrate_index: int
    bitrate_ladder_kbps: np.ndarray
    chunk_duration_s: float

    def copy(self) -> "Observation":
        return Observation(
            bitrate_kbps_history=self.bitrate_kbps_history.copy(),
            throughput_mbps_history=self.throughput_mbps_history.copy(),
            download_time_s_history=self.download_time_s_history.copy(),
            buffer_s_history=self.buffer_s_history.copy(),
            next_chunk_sizes_bytes=self.next_chunk_sizes_bytes.copy(),
            buffer_s=self.buffer_s,
            remaining_chunks=self.remaining_chunks,
            total_chunks=self.total_chunks,
            last_bitrate_index=self.last_bitrate_index,
            bitrate_ladder_kbps=self.bitrate_ladder_kbps.copy(),
            chunk_duration_s=self.chunk_duration_s,
        )


@dataclass
class ChunkRecord:
    """Per-chunk log entry produced by a streaming session."""

    chunk_index: int
    bitrate_index: int
    bitrate_kbps: int
    download_time_s: float
    throughput_mbps: float
    rebuffer_s: float
    buffer_s: float
    reward: float


@dataclass
class SessionResult:
    """Summary of a full streaming session."""

    records: List[ChunkRecord]
    trace_name: str
    video_name: str

    @property
    def num_chunks(self) -> int:
        return len(self.records)

    @property
    def total_reward(self) -> float:
        return float(sum(r.reward for r in self.records))

    @property
    def mean_reward(self) -> float:
        return self.total_reward / max(self.num_chunks, 1)

    @property
    def total_rebuffer_s(self) -> float:
        return float(sum(r.rebuffer_s for r in self.records))

    @property
    def mean_bitrate_kbps(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.bitrate_kbps for r in self.records]))

    @property
    def bitrate_switches(self) -> int:
        return int(sum(1 for a, b in zip(self.records, self.records[1:])
                       if a.bitrate_index != b.bitrate_index))


Policy = Callable[[Observation], int]


class StreamingSession:
    """Runs a video playback through the simulator, one decision at a time.

    By default the wait for the very first chunk is treated as *startup delay*
    rather than rebuffering when computing the QoE reward (as dash.js and QoE
    studies do); pass ``charge_startup_rebuffering=True`` to penalize it like
    any other stall.
    """

    def __init__(self, video: Video, trace: Trace,
                 qoe: Optional[QoEMetric] = None,
                 config: Optional[SimulatorConfig] = None,
                 initial_bitrate_index: int = 0,
                 rng: Optional[np.random.Generator] = None,
                 start_offset_s: Optional[float] = None,
                 charge_startup_rebuffering: bool = False) -> None:
        self.video = video
        self.qoe = qoe or LinearQoE(video.bitrates_kbps)
        self.simulator = ChunkLevelSimulator(video, trace, config=config, rng=rng)
        if start_offset_s is not None:
            self.simulator.reset(start_offset_s=start_offset_s)
        self.initial_bitrate_index = initial_bitrate_index
        self.charge_startup_rebuffering = charge_startup_rebuffering
        self._last_bitrate_index = initial_bitrate_index
        self._previous_bitrate_for_qoe: Optional[int] = None
        self._history_len = HISTORY_LENGTH
        self._bitrate_history = np.zeros(self._history_len)
        self._throughput_history = np.zeros(self._history_len)
        self._download_time_history = np.zeros(self._history_len)
        self._buffer_history = np.zeros(self._history_len)
        self._ladder_kbps = np.asarray(self.video.bitrates_kbps, dtype=np.float64)
        self.records: List[ChunkRecord] = []

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.simulator.finished

    @property
    def history_arrays(self):
        """Read-only views of the four observation histories (oldest first).

        Returns ``(bitrate_kbps, throughput_mbps, download_time_s,
        buffer_s)`` — the live arrays backing :meth:`observe`'s defensive
        copies.  The multi-seed lockstep engine stacks these directly when
        batching state computation across sessions; callers must not mutate
        them.
        """
        return (self._bitrate_history, self._throughput_history,
                self._download_time_history, self._buffer_history)

    def observe(self) -> Observation:
        """Build the observation for the next bitrate decision."""
        if self.done:
            raise RuntimeError("session is finished")
        next_sizes = self.video.next_chunk_sizes(self.simulator.next_chunk_index)
        return Observation(
            bitrate_kbps_history=self._bitrate_history.copy(),
            throughput_mbps_history=self._throughput_history.copy(),
            download_time_s_history=self._download_time_history.copy(),
            buffer_s_history=self._buffer_history.copy(),
            next_chunk_sizes_bytes=next_sizes,
            buffer_s=self.simulator.buffer_s,
            remaining_chunks=self.simulator.remaining_chunks,
            total_chunks=self.video.num_chunks,
            last_bitrate_index=self._last_bitrate_index,
            bitrate_ladder_kbps=self._ladder_kbps.copy(),
            chunk_duration_s=self.video.chunk_duration_s,
        )

    def step(self, bitrate_index: int) -> tuple[ChunkRecord, bool]:
        """Download the next chunk at ``bitrate_index``; returns (record, done)."""
        is_first_chunk = self.simulator.next_chunk_index == 0
        result = self.simulator.step(bitrate_index)
        rebuffer_for_qoe = result.rebuffer_s
        if is_first_chunk and not self.charge_startup_rebuffering:
            # The wait before playback begins is startup delay, not a stall.
            rebuffer_for_qoe = 0.0
        reward = self.qoe.chunk_reward(bitrate_index, rebuffer_for_qoe,
                                       self._previous_bitrate_for_qoe)
        record = ChunkRecord(
            chunk_index=result.chunk_index,
            bitrate_index=bitrate_index,
            bitrate_kbps=self.video.bitrates_kbps[bitrate_index],
            download_time_s=result.download_time_s,
            throughput_mbps=result.throughput_mbps,
            rebuffer_s=result.rebuffer_s,
            buffer_s=result.buffer_s,
            reward=reward,
        )
        self.records.append(record)
        self._previous_bitrate_for_qoe = bitrate_index
        self._last_bitrate_index = bitrate_index
        self._push_history(self._bitrate_history, self.video.bitrates_kbps[bitrate_index])
        self._push_history(self._throughput_history, result.throughput_mbps)
        self._push_history(self._download_time_history, result.download_time_s)
        self._push_history(self._buffer_history, result.buffer_s)
        return record, result.done

    def result(self) -> SessionResult:
        return SessionResult(records=list(self.records),
                             trace_name=self.simulator.trace.name,
                             video_name=self.video.name)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _push_history(history: np.ndarray, value: float) -> None:
        history[:-1] = history[1:]
        history[-1] = value


def run_session(policy: Policy, video: Video, trace: Trace,
                qoe: Optional[QoEMetric] = None,
                config: Optional[SimulatorConfig] = None,
                rng: Optional[np.random.Generator] = None,
                start_offset_s: Optional[float] = None) -> SessionResult:
    """Stream the whole video with ``policy`` and return the session summary."""
    session = StreamingSession(video, trace, qoe=qoe, config=config, rng=rng,
                               start_offset_s=start_offset_s)
    while not session.done:
        observation = session.observe()
        action = int(policy(observation))
        session.step(action)
    return session.result()
