"""How fast the machine runs right now, from a fixed reference kernel.

The cores of a shared host change speed by up to a factor two over tens
of seconds: one condorcet n=5 000 answer, repeated in one process for
150 s, took 0.27 s to 0.53 s, with CPU time equal to wall time, so the
time was not stolen but spent slower. A wall-clock figure from a 20 s run
then follows the host more than the program. `run.py` therefore runs this
kernel next to every answer and every set-up start, and divides each
wall time by the speed index measured around it: times are reported in
reference seconds, the seconds the same work takes when the kernel runs
at its nominal speed.

The kernel does the three kinds of work the library's time goes to:
pure-Python integer and container work, numpy array work, and small
HiGHS LP solves through scipy. It does not touch the library, so a change
to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Wall seconds of each part at the median speed of the 2-core machine the
# README's figures come from; the speed index is 1 at that speed.
NOMINAL = (0.0181, 0.0062, 0.0276)

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((300, 300))
_VALUES = _rng.random(200_000)
_A = _rng.random((60, 120))
_B = _A.sum(axis=1)
_C = -_rng.random(120)


def _python() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _numpy() -> None:
    for _ in range(3):
        _MATRIX @ _MATRIX
    np.sort(_VALUES)


def _lp() -> None:
    for _ in range(5):
        linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")


PARTS = (_python, _numpy, _lp)


def sample() -> float:
    """One speed index: the mean over the parts of wall time over nominal
    time. Above 1 the machine runs slower than nominal."""
    ratios = []
    for part, nominal in zip(PARTS, NOMINAL):
        begin = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - begin) / nominal)
    return sum(ratios) / len(ratios)


def factors(samples: list[float]) -> list[float]:
    """Speed factor of each timed step when `samples[k]` was taken just
    before step k and `samples[k + 1]` just after it: the median of the six
    samples nearest to the step. One sample alone carries about 10% noise
    of its own; the host's slow and fast periods last ten seconds and
    more, so a few neighbours still follow them."""
    return [statistics.median(samples[max(0, k - 2) : k + 4]) for k in range(len(samples) - 1)]
