"""A reference loop that tracks how fast the machine runs right now.

On a shared host the same Python work can take up to twice as long from one
second to the next, depending on what runs beside it. The benchmark therefore
times a short fixed loop of `Fraction` arithmetic (the library's own hot
path) every REF_EVERY_S from a timer signal, also in the middle of an op, and
scales each measured time to a machine on which this loop takes
REF_NOMINAL_S. The time spent in the loop itself is taken out of every
measured interval. Work done by the library does not change the loop, so a
faster library still reads faster; a slower host no longer does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.0042
REF_EVERY_S = 0.05
# process start-up is scaled by a bare `python -c pass` start instead (run.py)
BARE_NOMINAL_S = 0.08


def reference_seconds() -> float:
    """Seconds for a fixed mix of `Fraction` arithmetic and small containers.

    The containers matter: between the host's slow and fast states a loop
    of `Fraction` arithmetic alone sped up about 3 % more than a generic
    evaluation did; with the containers the gap was under 1 %.
    """
    start = time.perf_counter()
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, 200):
        term = Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        total += term
        key = frozenset((i % 7, i % 11, i % 5))
        seen[key] = seen.get(key, Fraction(0)) + term
        pair = tuple(2 * x for x in (term, total))
        if pair[0] > pair[1]:
            total -= term
    return time.perf_counter() - start


class Speed:
    """Reference samples taken from SIGALRM while the `with` block runs.

    Intervals are perf_counter_ns() pairs. Read the results only after the
    block has ended, when the sample after the last interval exists.
    """

    def __init__(self):
        self.starts: list = []  # ns at which each sample began
        self.refs: list = []  # seconds the reference loop took
        self.paused = [0]  # prefix sums of ns spent sampling

    def sample(self, *_):
        start = time.perf_counter_ns()
        ref = reference_seconds()
        self.starts.append(start)
        self.refs.append(ref)
        self.paused.append(self.paused[-1] + time.perf_counter_ns() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def net_ns(self, start, end) -> int:
        """Length of [start, end] without the sampling done inside it."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        return end - start - (self.paused[j] - self.paused[i])

    def ref(self, start, end) -> float:
        """Mean reference time over [start, end]: the samples inside it, else its two neighbours."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        if j > i:
            return statistics.fmean(self.refs[i:j])
        return statistics.fmean(self.refs[max(i - 1, 0) : i + 1])

    def scaled(self, start, end) -> float:
        """Seconds of [start, end], sampling removed, at the nominal speed."""
        return self.net_ns(start, end) / 1e9 * REF_NOMINAL_S / self.ref(start, end)
