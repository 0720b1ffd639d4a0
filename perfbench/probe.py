"""Host-speed probe: a fixed micro-kernel, timed while the workload runs.

On a shared 2-vCPU Linux host the same code ran at speeds that differed
by up to 3x minutes apart, and by tens of percent from one second to
the next; CPU time tracked wall time, so this is the speed of the host,
not scheduling.  A kernel timed before or after a pass misses
the second-scale part, so :class:`SpeedProbe` times the kernel *during*
the pass: a ``SIGALRM`` interval timer interrupts the workload every
:data:`INTERVAL_S` seconds, between two byte-codes of the main thread, and the
handler times one :func:`kernel`.  No thread or process is started.

Each sample gives the host's speed relative to the reference,
``REFERENCE_S / kernel time``.  The samples are evenly spaced in time, so
their mean is the speed averaged over the pass, and the pass time times
that mean is the time the pass would have taken at the reference speed.
This time-weighted mean tracked the workloads better than the median
kernel time did, most of all on passes of several seconds, over which
the speed changes.

The kernel does, in small, the two kinds of work runlab's layers do: a
short sum of ``fractions.Fraction`` values (Python-level arithmetic,
gcds, small objects), as in ``exactnum``, and a descent histogram over
permutations, as in ``permcore``.  On that host, sampled side by side
during 30 passes of each workload over eight minutes, it left 2-4 %
variation (coefficient of variation) in the scaled pass times against
9-13 % raw.  Rational arithmetic done by hand on bare integers left
4-7 % and under-corrected in slow phases; a ``Fraction``-only kernel
left 2-5 % but over-corrected ``oracle-s9``; strided memory reads did
not track at all.
"""

import itertools
import signal
import statistics
import time
from fractions import Fraction

#: Kernel time that defines the reference host speed.
REFERENCE_S = 2.5e-5
#: Seconds between two samples taken during a pass.
INTERVAL_S = 0.01


def kernel() -> int:
    """Fixed work of both kinds; about 35 us on that host.

    A sum of ``1 / (i^2 + 1)`` as ``Fraction`` for i < 7, then the descent
    counts of the first 30 permutations of 1..6.
    """
    total = Fraction(0)
    for i in range(1, 7):
        total += Fraction(1, i * i + 1)
    counts: "dict[int, int]" = {}
    for w in itertools.islice(itertools.permutations(range(1, 7)), 30):
        k = sum(1 for i in range(5) if w[i] > w[i + 1])
        counts[k] = counts.get(k, 0) + 1
    return total.denominator + len(counts)


def sample(count: int) -> "list[float]":
    """``count`` back-to-back kernel times, in seconds."""
    out = []
    clock = time.perf_counter
    for _ in range(count):
        start = clock()
        kernel()
        out.append(clock() - start)
    return out


def scale(samples: "list[float]") -> float:
    """Factor that turns seconds measured alongside ``samples`` into reference seconds:
    the mean relative speed ``REFERENCE_S / kernel time`` of the samples."""
    return REFERENCE_S * statistics.fmean(1 / k for k in samples)


class SpeedProbe:
    """Context manager that samples the kernel every :data:`INTERVAL_S` seconds."""

    #: A pass shorter than this many intervals gets direct samples on top.
    MIN_SAMPLES = 20

    def __init__(self):
        self.samples: "list[float]" = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < self.MIN_SAMPLES:
            self.samples += sample(self.MIN_SAMPLES - len(self.samples))

    def scale(self) -> float:
        """Factor that turns a time measured under this probe into reference seconds."""
        return scale(self.samples)
