"""Host-speed calibration: a fixed reference kernel timed throughout a run.

The benchmark shares a few cores of a busy host. Within seconds the speed of
those cores moves by a factor of up to about 1.6 (frequency and neighbours'
load), so the raw wall times of two runs of the same code can differ by more
than any change worth detecting. A run therefore also times a fixed kernel
that belongs to the benchmark, not to the program: a bitset branch-and-bound
maximum clique on a fixed random graph, the same kind of Python work
(big-int masks, bit counts, recursion) as the program's solvers. A SIGALRM
timer runs one kernel every REF_EVERY_S seconds, during set-up and during
the timed operations alike, so the samples are spread evenly over the run
however long each operation is. The time the kernels take is subtracted from
the operations they interrupt. Time metrics are reported in calibrated
seconds:

    calibrated_s = measured_s * REF_KERNEL_S / mean(kernel times of the run)

that is, seconds on a host where one kernel takes REF_KERNEL_S (about its
time on the 2-vCPU recording VM). The mean, not the median, because a
program slowed for a share of the run is slowed by the mean. A change to the
program moves calibrated and measured seconds alike; a change of host speed
moves the operations and the kernel together and cancels out.
"""
from __future__ import annotations

import random
import signal
import statistics
import time

REF_KERNEL_S = 0.020  # seconds of one kernel on the recording VM (Python 3.11.7)
REF_EVERY_S = 0.5     # timer interval between two kernels

_N = 120
_rng = random.Random(20140904)
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i


def _extend(size: int, cand: int, best: list[int]) -> None:
    """Maximum clique by branch and bound; a greedy colouring bounds each branch."""
    order, colour_of = [], []
    uncoloured, colour = cand, 0
    while uncoloured:
        colour += 1
        avail = uncoloured
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~_ADJ[v] & ~(1 << v)
            uncoloured &= ~(1 << v)
            order.append(v)
            colour_of.append(colour)
    for i in range(len(order) - 1, -1, -1):
        if size + colour_of[i] <= best[0]:
            return
        v = order[i]
        inner = cand & _ADJ[v]
        if inner:
            _extend(size + 1, inner, best)
        elif size + 1 > best[0]:
            best[0] = size + 1
        cand &= ~(1 << v)


def kernel() -> int:
    """One reference kernel; returns the clique number so it cannot be skipped."""
    best = [0]
    _extend(0, (1 << _N) - 1, best)
    return best[0]


CLIQUE_NUMBER = 9  # what kernel() returns


class Reference:
    """Kernel samples of one run, taken by a timer while the run is inside ``with``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in kernels, to subtract from what they interrupt
        self.wrong = 0
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        if kernel() != CLIQUE_NUMBER:
            self.wrong += 1  # not raised here: the program could be running
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False

    def __enter__(self) -> "Reference":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self) -> float:
        """Multiply measured seconds by this to get calibrated seconds."""
        if self.wrong:
            raise RuntimeError(f"reference kernel gave a wrong answer {self.wrong} times")
        return REF_KERNEL_S / statistics.fmean(self.samples)
