"""Machine-speed calibration for the timed runs.

The speed of the machines this benchmark runs on drifts: a fixed
pure-Python loop timed once a second on a 2-core VM varied between 60
and 90 iterations, and over a few minutes the same pass of witness
queries took anywhere from 1.0 to 2.9 s. The process's own CPU time
tracked its wall time, so the drift is the hardware's speed, not
waiting. Differences of that size between two runs swamp the changes
the benchmark has to judge.

So the timed runs interleave a fixed calibration task with the workload:
a breadth-first search over int masks written here, in the style of the
kernel, and never touched by a change to rsys. A time the benchmark
reports is a wall-clock time multiplied by NOMINAL_S / c, where c is the
calibration time that goes with it (`local_scales` for single queries,
`scale` for a whole run): the time it would have taken on a machine that
completes the calibration task in NOMINAL_S. The raw wall-clock values
are printed next to them.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from oracle import MaskSystem

# About the calibration time on the 2-core VM the benchmark was written
# on, at its faster moments. Only ratios between runs matter.
NOMINAL_S = 0.01

_rng = random.Random("rsysbench-calibration")
_SPECIES = 14
_SYSTEM = MaskSystem(
    (
        _rng.getrandbits(_SPECIES) & _rng.getrandbits(_SPECIES),
        _rng.getrandbits(_SPECIES) & _rng.getrandbits(_SPECIES) & _rng.getrandbits(_SPECIES),
        _rng.getrandbits(_SPECIES) & _rng.getrandbits(_SPECIES),
    )
    for _ in range(24)
)
_CONTEXTS = [0, 1, 2, 3, 1 << 13]
_STARTS = range(0, 1 << _SPECIES, 43)


def calibrate() -> float:
    """Seconds taken by the fixed calibration task."""
    t0 = perf_counter()
    for start in _STARTS:
        _SYSTEM.reachable(start, _CONTEXTS)
    return perf_counter() - t0


class Calibrator:
    """Runs the calibration task between queries, at most every `every`
    seconds. Keeps each sample's duration, the perf_counter() time of its
    midpoint, and the total time spent calibrating."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.samples: list = []
        self.times: list = []
        self.spent = 0.0
        self.sample()
        self.spent = 0.0
        self.next = perf_counter() + every

    def sample(self) -> None:
        t0 = perf_counter()
        took = calibrate()
        self.samples.append(took)
        self.times.append(t0 + took / 2)
        self.spent += took

    def __call__(self) -> None:
        if perf_counter() >= self.next:
            self.sample()
            self.next = perf_counter() + self.every


def scale(samples: list) -> float:
    """Factor turning measured times into times at nominal speed."""
    return NOMINAL_S / statistics.median(samples)


def local_scales(at: list, samples: list, times: list) -> list:
    """The scale factor at each time in `at`, interpolated linearly between
    the calibration samples taken at `times` (ascending), each first
    replaced by the median of itself and its two neighbours on each side."""
    samples = [
        statistics.median(samples[max(0, k - 2) : k + 3]) for k in range(len(samples))
    ]
    out = []
    k = 0
    last = len(times) - 1
    for t in at:
        while k < last - 1 and times[k + 1] <= t:
            k += 1
        if t <= times[0] or last == 0:
            d = samples[0]
        elif t >= times[last]:
            d = samples[last]
        else:
            w = (t - times[k]) / (times[k + 1] - times[k])
            d = samples[k] + w * (samples[k + 1] - samples[k])
        out.append(NOMINAL_S / d)
    return out
