"""Machine-speed calibration for timings taken on a shared host.

Other tenants of a shared machine change how fast this process runs: on the
2-vCPU host the bounds were set on, the same census pass took anywhere from
10.5 to 16.4 s within six minutes.  A :class:`Calibrator` times a fixed
pure-Python reference every ``INTERVAL_S`` of CPU time (``ITIMER_PROF``),
inside whatever is running.  Its :meth:`Calibrator.clock` excludes the time
spent in the reference, and :meth:`Calibrator.factor` gives the factor that
rescales a time measured over an interval to a machine on which the
reference takes ``REFERENCE_S``.  The reference uses only the standard
library, so a change to qsing cannot change it; it runs twice per probe and
only the second run is timed, so the caches the interrupted work left cold
do not count.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0015
INTERVAL_S = 0.25

_MATRIX = ((0, 1, 2, 0, 1), (1, 0, 0, 2, 0), (2, 0, 0, 1, 1), (0, 2, 1, 0, 0), (1, 0, 1, 0, 0))


def reference() -> tuple:
    """Fixed work in the interpreter's idiom of the library: tuples, dicts, Fractions."""
    best = None
    for p in itertools.permutations(range(5)):
        form = tuple(tuple(_MATRIX[p[i]][p[j]] for j in range(5)) for i in range(5))
        if best is None or form < best:
            best = form
    seen: dict[tuple, int] = {}
    for i in range(3000):
        v = (i % 7, i % 11, i % 13)
        seen[v] = seen.get(v, 0) + 1
    a = [[Fraction((i + 1) ** (j + 1) + (i == j), i + 2) for j in range(6)] for i in range(6)]
    for c in range(6):
        for r in range(c + 1, 6):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return best, len(seen), a[5][5]


class Calibrator:
    """Times :func:`reference` at regular intervals while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _probe(self, signum, frame):
        begin = time.perf_counter()
        reference()  # warms the caches the interrupted work left cold
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.spent += end - begin

    def clock(self) -> float:
        """``time.perf_counter`` minus the time spent in the reference."""
        return time.perf_counter() - self.spent

    def factor(self, since: float, until: float) -> float | None:
        """REFERENCE_S over the mean reference time between two perf_counter readings.

        ``None`` when no reference ran in the interval.
        """
        lo = bisect.bisect_left(self.samples, (since,))
        hi = bisect.bisect_left(self.samples, (until,))
        durations = [d for _, d in self.samples[lo:hi]]
        return REFERENCE_S * len(durations) / sum(durations) if durations else None
