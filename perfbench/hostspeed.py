"""Host-speed reference: a fixed pure-Python kernel timed alongside the work.

The benchmark runs on a share of a machine whose speed drifts within
seconds, by 10 to 20% over a minute and up to a factor of two between the
fastest and slowest seconds, as other work on it comes and goes.  So
worker.py runs ``Sampler`` around its passes: a timer interrupts the
running operation every ``INTERVAL_S`` seconds and times one ``slice()`` of
the kernel, whose time is taken out of the operation's.  run.py rescales
each operation's time by ``NOMINAL_S`` over the mean time of the slices
taken during it: a timing is reported as it would read on a host where a
slice takes ``NOMINAL_S``, the slice time of a quiet 2-vCPU virtual machine
with CPython 3.11.7.

The kernel checks half the candidate maps Z4 x Z4 x Z2 -> Z4 x Z2 given by
generator images against the homomorphism law, by table lookups.  That is
the interpreter work that xmodkit's own loops do, so it slows down with them
when the host does.  It uses no xmodkit code, allocates no containers and
runs with the garbage collector off, so a change to the program cannot change
its time.
"""

import gc
import itertools
import signal
import time

NOMINAL_S = 0.0085
INTERVAL_S = 0.125

SOURCE, TARGET = (4, 4, 2), (4, 2)   # Z4 x Z4 x Z2 and Z4 x Z2
HALF = 4                              # h0 runs over half of the target
HOMS = 128                            # homs with such an h0: 4 * 8 * 4


def _elements(mods):
    return list(itertools.product(*(range(m) for m in mods)))


def _table(mods):
    elems = _elements(mods)
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple((x + y) % m for x, y, m in zip(a, b, mods))]
             for b in elems] for a in elems]


SMUL, TMUL = _table(SOURCE), _table(TARGET)
N, M = len(SMUL), len(TMUL)
# exponents of the three generators in each source element
EXP = [list(col) for col in zip(*_elements(SOURCE))]
# POW[h][k] = h^k in the target
POW = [[0] * 4 for _ in range(M)]
for _h in range(M):
    for _k in range(1, 4):
        POW[_h][_k] = TMUL[POW[_h][_k - 1]][_h]
PHI = [0] * N


def kernel():
    """Number of generator images (h0, h1, h2), h0 among the first HALF
    target elements, that extend to a hom."""
    e0, e1, e2 = EXP
    count = 0
    for h0 in range(HALF):
        for h1 in range(M):
            for h2 in range(M):
                p0, p1, p2 = POW[h0], POW[h1], POW[h2]
                for i in range(N):
                    PHI[i] = TMUL[TMUL[p0[e0[i]]][p1[e1[i]]]][p2[e2[i]]]
                ok = 1
                for i in range(N):
                    row, trow = SMUL[i], TMUL[PHI[i]]
                    for j in range(N):
                        if PHI[row[j]] != trow[PHI[j]]:
                            ok = 0
                            break
                    if not ok:
                        break
                count += ok
    return count


def timed_slice():
    """Wall time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        count = kernel()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if count != HOMS:
        raise AssertionError(f"host-speed kernel counted {count} homs, not {HOMS}")
    return elapsed


class Sampler:
    """Times a slice every INTERVAL_S seconds from a SIGALRM timer, inside
    whatever the main thread is running; ``samples`` lists (start, seconds).
    Python runs the handler between bytecodes, so it interrupts pure-Python
    work promptly and resumes it afterwards."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            self.samples.append((started, timed_slice()))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
