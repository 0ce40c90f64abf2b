"""Host pace: a fixed pure-Python task, timed through a workload's run.

The host this benchmark was built on gives its vCPUs speed phases: a
fixed loop takes 36 ms for a while, then 25 ms, then 33 ms, switching
within seconds, and its CPU time moves with its wall time.  Medians
over a run cannot remove a phase that lasts as long as the run.  So the
benchmark times this task about every ``EVERY_S`` seconds, between ops
and in the middle of them, and scales each stretch of an op's wall time
by ``NOMINAL_S`` over the task time measured around it.  When the op is
a child process, the child is stopped while the task runs, and it runs
on the same CPU as the task (see run.py).  A paced time is the op's wall time
at the host speed at which the task takes ``NOMINAL_S``.

The task lives in the benchmark, not in the package, so that a change
to the package moves the op times and never the pace.  It does the kind
of work the package does, in two halves: continued fractions, tuples of
+/-2 entries, orbit minima and small objects, then the oracle's parse
search on a fixed vector of 1000 entries.  Tried against ops of all
three workloads over 150 s, this mix tracked the host better than
either half alone: the ops' paced times drifted 2 to 4 % between
windows of the run, against 17 to 19 % for their raw times.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import signal
import statistics
import time

import oracle

NOMINAL_S = 0.007  # the task's time in a fast phase of the host described above
EVERY_S = 0.2
_VECTOR = oracle.random_vector(random.Random(0), 1000)


class _Frac:
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        g = math.gcd(p, q)
        self.p, self.q = p // g, q // g


def task() -> int:
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for q in range(5, 505, 2):
        for p in (1, 2, q // 3, q // 2, q - 2):
            f = _Frac(p, q)
            a, b, terms = f.p, f.q, []
            while a:
                terms.append(b // a)
                a, b = b % a, a
            v = tuple(2 if t % 2 else -2 for t in terms for _ in range(1 + t % 3))
            w = min(v, v[::-1], tuple(-x for x in v))
            counts[w] = counts.get(w, 0) + 1
            total += len(w)
    return total + len(counts) + len(oracle.smaller_set(_VECTOR))


class Pacer:
    """Pace samples through a run, and op times scaled by them to nominal speed.

    Between ops, calling the pacer takes a sample when one is due, at
    most every ``EVERY_S`` seconds.  After ``start()``, a SIGALRM timer
    marks samples due; while ``inside`` is true it takes them at once, in
    the middle of an op.  So a long op is paced by samples taken during
    it.  While ``child`` is set, the op is that child process, and its
    process group is stopped for the length of each sample.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # samples never overlap, so starts and ends both ascend
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.smooth: list[float] = []  # running median of 5 samples, one value per sample
        self.due = True
        self.inside = False
        self.child = None  # the running op's subprocess.Popen, started in its own process group

    def take(self) -> None:
        t0 = time.perf_counter()
        task()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)
        self.due = False

    def __call__(self, force: bool = False) -> None:
        if force or self.due:
            self.take()

    def _alarm(self, signum, frame) -> None:
        if not self.inside:
            self.due = True
        elif self.child is None:
            self.take()
        else:
            self._take_paused(self.child.pid)

    def _take_paused(self, group: int) -> None:
        try:
            os.killpg(group, signal.SIGSTOP)
        except ProcessLookupError:  # the child has ended and been reaped
            self.due = True
            return
        try:
            self.take()
        finally:
            try:
                os.killpg(group, signal.SIGCONT)
            except ProcessLookupError:
                pass

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paced(self, a: float, b: float) -> float:
        """Nominal-speed seconds of the work in [a, b], leaving out the samples taken in it.

        Each stretch of work between two samples is scaled by NOMINAL_S
        over the mean of the smoothed times on either side of it.  The
        smoothing is a running median of five samples, so one sample that
        an interrupt slowed does not scale the ops next to it.
        """
        if len(self.smooth) != len(self.seconds):
            self.smooth = [statistics.median(self.seconds[max(0, k - 2):k + 3]) for k in range(len(self.seconds))]
        i = bisect.bisect_left(self.starts, a)  # samples i..j-1 lie inside [a, b]
        j = bisect.bisect_right(self.ends, b)
        edges = [a] + [t for k in range(i, j) for t in (self.starts[k], self.ends[k])] + [b]
        total = 0.0
        for n, k in enumerate(range(i - 1, j)):  # stretch n lies between samples k and k + 1
            near = [self.smooth[m] for m in (k, k + 1) if 0 <= m < len(self.smooth)]
            total += (edges[2 * n + 1] - edges[2 * n]) * NOMINAL_S / statistics.fmean(near)
        return total
