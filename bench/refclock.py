"""Reference clock: wall time scaled by the speed of a fixed reference block.

On a host shared with other tenants, the speed of one core moves by 10% and
more within a second, and in steps of up to 2x that last from seconds to
minutes.  Process CPU time moves with wall time, so the slowdown cannot be
subtracted as stolen time.  While a ``RefClock`` runs, a timer signal every
``CAL_EVERY_S`` makes it time a short, fixed block of pure-Python work, also
in the middle of a long library call.  The block does what the library does
most: it composes a dict permutation of tuple-keyed points, builds small
objects, and sorts and hashes small dicts and tuples.  Of the blocks tried,
this mix tracked the library's speed best on the host the benchmark was
defined on.

``measure`` turns a timed interval into reference seconds.  It cuts the
interval at the blocks that ran inside it, leaves the blocks out, and scales
each piece by ``REF_BLOCK_S`` over the median duration of the four blocks
around that piece.  A time in reference seconds is the wall time the
interval would have taken on a host on which one block takes
``REF_BLOCK_S``.  A change to the library moves it as it moves wall time; a
change of host speed moves the blocks and the interval together and cancels.
The block calls nothing in the library.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# The median duration of one block on the 2-vCPU VM the benchmark was
# defined on (Python 3.11), so that reference seconds read close to that
# host's wall seconds.
REF_BLOCK_S = 0.002
CAL_EVERY_S = 0.05
_POINTS = {(i, i % 3): ((7 * i + 3) % 601, (5 * i) % 3) for i in range(601)}


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_block() -> int:
    p, acc = _POINTS, 0
    for _ in range(4):
        q = {k: p[(v[0], v[0] % 3)] for k, v in p.items()}
        acc += len(set(q.values()))
        p = q
    for r in range(40):
        records = [_Record(i, (7 * i + r) % 24) for i in range(24)]
        d = {x.key: x.value for x in records}
        acc += len(frozenset(d.items())) + hash(tuple(sorted(d, key=d.get)))
    return acc


class RefClock:
    """Use as a context manager: the timer runs inside the ``with`` block.
    ``pause`` and ``resume`` stop and restart it, for code whose own timing
    must not contain the blocks."""

    def __init__(self):
        self.starts, self.ends, self.durations = [], [], []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.calibrate()
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def _on_alarm(self, signum, frame) -> None:
        self.calibrate()

    def calibrate(self) -> None:
        """Time one reference block now."""
        if self._busy:
            # an alarm that arrives while a block runs is skipped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            reference_block()
            t1 = perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.durations.append(t1 - t0)
        finally:
            self._busy = False

    def measure(self, t0: float, t1: float) -> tuple:
        """(reference seconds, wall seconds) of the interval from t0 to t1,
        both without the blocks that ran inside it.  A block must have run
        before t0 and one after t1."""
        first = bisect.bisect_left(self.starts, t0)
        stop = bisect.bisect_left(self.starts, t1)
        if first == 0 or stop == len(self.starts):
            raise ValueError("no reference block before or after the interval")
        ref = wall = 0.0
        start, before = t0, first - 1
        for k in range(first, stop):
            ref, wall = self._add(ref, wall, start, self.starts[k], before)
            start, before = self.ends[k], k
        return self._add(ref, wall, start, t1, before)

    def _add(self, ref: float, wall: float, a: float, b: float, before: int) -> tuple:
        """Add the piece from a to b, which follows block ``before``: blocks
        before - 1 to before + 2 give its speed."""
        speed = statistics.median(self.durations[max(0, before - 1):before + 3])
        return ref + (b - a) * REF_BLOCK_S / speed, wall + (b - a)
