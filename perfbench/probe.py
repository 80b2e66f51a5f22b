"""Machine-speed sampling, so job times compare across a noisy shared machine.

On a shared virtual machine each vCPU flips between a fast and a slow
state (about 1.4-1.7x apart) every few seconds, as the host's other work
comes and goes; over a 30 s run the share of slow time drifts by tens of
percent, and so does any plain wall time.  ``SpeedSampler`` measures the
state the job actually ran in: every ``INTERVAL`` seconds a timer signal
runs a tiny fixed kernel on the job's own thread and times it.
``rescale`` then puts the job's time at the reference speed:

    job_s = (job wall seconds - time spent sampling) * REFERENCE_S / typical sample

The kernel does what semiflex does most (Fraction arithmetic, tuple keys,
dict updates) but never imports it.  That keeps the samples independent of
the program only while the job keeps at most one core busy: a job whose
threads or processes run in parallel would slow the sampling thread down
and so shrink its own rescaled time.  ``rescale`` therefore keeps the wall
time for a job that used more than ``PARALLEL_CORES`` cores on average, and
for one whose main thread was held off the interpreter for most of the job
(fewer than ``COVERAGE`` of the expected samples were taken).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# A typical sample inside a job on the machine the baseline in README.md
# was measured on (2-vCPU Intel Xeon VM, Python 3.11.7), so that reported
# seconds read close to its wall seconds.  It only sets the scale.
REFERENCE_S = 0.0007

INTERVAL = 0.05  # seconds of wall time between samples

# A job that keeps more cores busy than this (CPU seconds over wall
# seconds) competes with its own samples; its time is not rescaled.
PARALLEL_CORES = 1.1

# Share of the expected samples (job wall time / INTERVAL) a job must have
# for them to stand for the whole job.  The handler runs only when the main
# thread holds the interpreter, which a pool that never yields it (a raised
# switch interval) prevents.
COVERAGE = 0.5

# Samples slower than this multiple of the median were hit by garbage
# collection or preemption, not by the machine's speed state.
OUTLIER = 3.0

_ROWS = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(6)] for i in range(5)]


def kernel() -> int:
    """One Gauss-Jordan pass over a fixed 5x6 Fraction matrix."""
    m = [list(r) for r in _ROWS]
    seen: dict = {}
    for r in range(5):
        piv = next((i for i in range(r, 5) if m[i][r]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][r]
        m[r] = [v / pv for v in m[r]]
        for i in range(5):
            if i != r and m[i][r]:
                f = m[i][r]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        for j, v in enumerate(m[r]):
            seen[(r, j)] = v
    return len(seen)


class SpeedSampler:
    """Times ``kernel`` every ``INTERVAL`` seconds of wall time while active.

    Uses SIGALRM, so it must be entered on the main thread; Python runs the
    handler on that thread between bytecodes.
    """

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def typical_sample(samples) -> float:
    """Mean of the samples without the outliers.

    Not the median: the machine's two speed states make the samples
    bimodal (about 0.47 and 0.80 ms in one depth-11 ``oracle`` job), and
    the median would jump between the modes instead of weighing them by
    the time spent in each.
    """
    cutoff = OUTLIER * statistics.median(samples)
    kept = [s for s in samples if s <= cutoff]
    return sum(kept) / len(kept)


def rescale(job_wall_s: float, setup_wall_s: float, samples, cpu_s: float):
    """(job_s, setup_s, corrected): the job and set-up times at reference
    speed, or the plain wall times (less the sampling time) when the
    samples do not cover the job or the job ran on more than one core."""
    spent = sum(samples)
    if len(samples) < max(1.0, COVERAGE * job_wall_s / INTERVAL) or cpu_s > PARALLEL_CORES * job_wall_s:
        return job_wall_s - spent, setup_wall_s, False
    scale = REFERENCE_S / typical_sample(samples)
    return (job_wall_s - spent) * scale, setup_wall_s * scale, True
