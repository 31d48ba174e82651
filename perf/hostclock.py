"""Host-speed calibration: turn wall seconds into reference-host seconds.

The boxes this benchmark runs on are shared: the same pure-Python loop takes
anything from 0.4 ms to 2 ms depending on what the neighbours do, in CPU time
as well as wall, drifting over milliseconds and over minutes.  Raw
events-per-wall-second therefore spreads by 15-50 % between identical runs,
far beyond any regression bound.  :class:`HostClock` samples the host's speed
*while the program under test runs*: an interval timer interrupts the main
thread every few milliseconds and the handler executes one fixed
pure-Python burst (shaped like the monitor's inner loops: small lists, dicts,
frozensets, tuple compares) and records how long it took.  A measured
interval is then reported as

    (wall - time spent in bursts) x (reference burst time / mean burst time)

that is, in seconds of a host on which a burst takes :data:`REFERENCE_BURST_S`.
Slow phases stretch the program and the bursts alike, so the ratio cancels
them; measured on this box the spread between identical runs drops from
15-50 % to 4-7 %.  The burst code is part of the benchmark, not of the
program, and identical for every commit compared.

The program under test is never wrapped: the handler runs between two of its
bytecodes, in the same thread, so burst time is known exactly and excluded.
Timers are not inherited by forked workers (fleet shards run undisturbed).
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["REFERENCE_BURST_S", "Interval", "HostClock", "burst"]

#: duration of one burst on the reference host (this box's median, seconds)
REFERENCE_BURST_S = 0.00075

#: timer period; with ~0.75 ms bursts the calibration share is about a fifth
_PERIOD_S = 0.004

_BURST_ROUNDS = 250


def burst(rounds: int = _BURST_ROUNDS) -> int:
    """One fixed unit of pure-Python work shaped like the monitor's loops."""
    depend = [0, 0, 0, 0]
    cut = [0, 0, 0, 0]
    letters: dict[int, dict[int, frozenset[int]]] = {}
    seen: set[tuple[int, ...]] = set()
    acc = 0
    for i in range(rounds):
        vc = (i & 15, (i >> 1) & 15, (i >> 2) & 15, (i >> 3) & 15)
        depend = [max(a, b) for a, b in zip(depend, vc)]
        letters.setdefault(i & 3, {})[i & 63] = frozenset((i & 1, 2))
        seen.add(vc)
        if all(a <= b for a, b in zip(cut, vc)):
            acc += 1
        cut[i & 3] = i & 15
        acc += i * i % 7
    return acc


@dataclass(frozen=True)
class Interval:
    """One measured interval, in wall seconds and in reference-host seconds."""

    wall_s: float
    #: wall seconds minus the time spent inside calibration bursts
    work_s: float
    bursts: int
    #: mean duration of the bursts that ran inside the interval
    mean_burst_s: float

    @property
    def ref_s(self) -> float:
        """The interval's work, in seconds of the reference host."""
        if self.mean_burst_s <= 0.0:
            return self.work_s
        return self.work_s * REFERENCE_BURST_S / self.mean_burst_s


class HostClock:
    """Interval-timer driven sampler of the host's speed (main thread only)."""

    def __init__(self, clock=time.perf_counter, run_burst=burst) -> None:
        self._clock = clock
        self._run_burst = run_burst
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._burst_total = 0.0
        self._last_end = 0.0
        self._in_burst = False
        self._previous_handler = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Install the SIGALRM handler and arm the interval timer."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, _PERIOD_S, _PERIOD_S)

    def stop(self) -> None:
        """Disarm the timer and restore the previous SIGALRM handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Run one burst now, unless one is running or has only just ended.

        The guard matters twice: Python may re-enter a signal handler from
        inside itself when a burst outlasts the timer period, and ticks that
        queued up during a stall would otherwise run back to back.
        """
        if self._in_burst:
            return
        started = self._clock()
        if started - self._last_end < _PERIOD_S / 2:
            return
        self._in_burst = True
        try:
            self._run_burst()
        finally:
            ended = self._clock()
            self._starts.append(started)
            self._durations.append(ended - started)
            self._burst_total += ended - started
            self._last_end = ended
            self._in_burst = False

    # -- reading --------------------------------------------------------
    def now(self) -> float:
        """The wall clock this instance samples against."""
        return self._clock()

    def work_now(self) -> float:
        """Wall clock minus all burst time so far: a clock bursts never advance.

        Valid from the main thread only (where bursts run), which is where
        every span of :mod:`perf.trace` starts and ends.
        """
        return self._clock() - self._burst_total

    def interval(self, start: float, end: float) -> Interval:
        """Account for the bursts that started inside ``[start, end)``.

        An interval too short to contain a burst is scaled by the mean of
        every burst sampled so far.
        """
        low = bisect_left(self._starts, start)
        high = bisect_left(self._starts, end)
        inside = self._durations[low:high]
        busy = sum(inside)
        wall = end - start
        if inside:
            mean = busy / len(inside)
        elif self._durations:
            mean = self._burst_total / len(self._durations)
        else:
            mean = 0.0
        return Interval(
            wall_s=wall,
            work_s=max(0.0, wall - busy),
            bursts=len(inside),
            mean_burst_s=mean,
        )
