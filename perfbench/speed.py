"""Machine-speed probe: the benchmark's times are scaled to one reference speed.

On a shared machine the same call can run up to twice as slow for seconds
to minutes at a time, in wall and in CPU time alike. A fixed pure-Python probe (Fraction sums and
dict stores; no radialtyz code, so no change to the program moves it) runs
between evals. Probe time over REFERENCE_S is the machine's slowness at that
moment. The probe's CPU time is timed too: when another process time-slices
the CPU, the probe's wall time grows and its CPU time does not, and neither
does an eval's CPU time. So each eval's wall time is divided by the wall
slowness and its CPU time by the CPU slowness, probe CPU time over
REFERENCE_CPU_S: the times read as on a machine where the probe takes
REFERENCE_S. The unscaled times are printed alongside, in the context block.
"""
from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter, process_time

REFERENCE_S = 0.005  # the probe's wall time on the baseline machine, when quiet
# its CPU time there: the probe never waits, so on an idle CPU the two agree
# to 0.1%
REFERENCE_CPU_S = 0.005


def probe() -> tuple[float, float]:
    """(wall, CPU) seconds one fixed piece of big-rational, object-heavy work takes now."""
    started, cpu_started = perf_counter(), process_time()
    acc = Fraction(0)
    table = {}
    for k in range(1, 1500):
        acc += Fraction(1, k)
        table[k, k % 7] = acc.numerator & 0xFFFF
    return perf_counter() - started, process_time() - cpu_started


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the probe measures."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not on Linux, or not allowed: run unpinned
        pass


class Speed:
    """Slowness around each eval: 1.0 at reference speed, 2.0 when twice as slow.

    Slow spells last from under a second to minutes, so the estimate is local:
    the median of the probes taken before the previous eval, before this one
    and after it.
    """

    def __init__(self):
        self.samples = [probe()]

    def after_eval(self) -> tuple[float, float]:
        """(wall slowness, CPU slowness) around the eval just finished."""
        self.samples.append(probe())
        walls, cpus = zip(*self.samples[-3:])
        return statistics.median(walls) / REFERENCE_S, statistics.median(cpus) / REFERENCE_CPU_S

    def run_factor(self) -> float:
        """The wall slowness over the whole run, for totals that are not per eval."""
        return statistics.median(wall for wall, _ in self.samples) / REFERENCE_S
