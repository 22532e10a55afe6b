"""A fixed pure-Python slice of work that measures how fast this process
runs at the moment.

The benchmark shares its machine with other work, and the speed of a
core drifts by 30% and more within minutes, and swings within seconds,
while nothing in this process changes.  ``Sampler`` times the slice from
a SIGALRM handler every INTERVAL_S while a pass runs, so the samples see
the same contention as the pass.  ``at_reference`` scales a region's
wall time to the speed at which the slice takes REFERENCE_S.  The slice
does the same kinds of work as the package (tuple composition, set and
dict lookups, a frozenset subset construction) and runs none of its
code, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

# the slice's median time inside a pass on a quiet core of the machine the
# baseline was measured on (2-vCPU Intel Xeon VM, Python 3.11.7)
REFERENCE_S = 0.0007
# Busy periods slow the slice more than the package's code: over runs of
# all four workloads on that machine, log pass time rose by 0.45 to 1.1
# (median 0.75) times the rise in log slice time, so the scale is damped
SENSITIVITY = 0.8
INTERVAL_S = 0.025
SETUP_SAMPLES = 9

_GENERATORS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 1, 2, 0))
# state -> letter -> successors of an NFA for "the 5th letter from the end
# is a"; its subset construction reaches 2^5 subsets
_NFA = {q: {"a": (q + 1,), "b": (q + 1,)} for q in range(1, 5)}
_NFA[0] = {"a": (0, 1), "b": (0,)}
_NFA[5] = {"a": (), "b": ()}


def _closure() -> int:
    seen = set(_GENERATORS)
    queue = deque(_GENERATORS)
    while queue:
        current = queue.popleft()
        for generator in _GENERATORS:
            composed = tuple(generator[q] for q in current)
            if composed not in seen:
                seen.add(composed)
                queue.append(composed)
    return len(seen)


def _subsets() -> int:
    start = frozenset({0})
    index = {start: 0}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for letter in "ab":
            target = frozenset(q for p in subset for q in _NFA[p][letter])
            if target not in index:
                index[target] = len(index)
                queue.append(target)
    return len(index)


def time_slice() -> float:
    start = time.perf_counter()
    _closure()
    _subsets()
    return time.perf_counter() - start


def at_reference(seconds: float, slice_s: float) -> float:
    """Wall seconds measured while the slice took slice_s, at the reference speed."""
    return seconds * (REFERENCE_S / slice_s) ** SENSITIVITY


class Sampler:
    """Times the slice every INTERVAL_S of wall time while active.

    ``spent`` is the time the samples took, which the caller subtracts
    from what it timed; ``on_sample(start, end)``, when given, is told
    when each sample ran.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(time_slice())
        end = time.perf_counter()
        self.spent += end - start
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median(self) -> float:
        return statistics.median(self.samples)
