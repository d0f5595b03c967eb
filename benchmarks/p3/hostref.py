"""Host reference: a fixed pure-Python integer loop as the unit of time.

Every ``*_ref`` metric of the P3 benchmark is a wall time expressed in
units of :func:`spin` at ``LOOP_ITERATIONS`` (~50 ms), as measured while
the timed work ran.  The loop imports nothing from ``repro`` and
allocates no GC-tracked objects (small ints only), so no change to the
program under test can move it.  Do not edit the loop or its constants:
doing so re-scales every committed ``*_ref`` baseline.

Why *while the work ran*: on a shared 2-vCPU VM the host switches
between a fast and a ~1.5x slower state that lasts seconds at a time (a
busy neighbour), so one median over a run, or samples only between long
ops, leave the ratio about as noisy as raw seconds.  :class:`HostClock`
therefore samples the loop on a wall-clock timer *during* the timed ops
(a SIGALRM handler, ~5% of wall time), and :func:`op_refs` converts each
op to reference units at the rate sampled inside it -- the mean of the
samples' rates, so each stretch of the op counts by its wall time --
after removing the sampler's own time.  An op with no sample inside it
uses the samples just before and after it.

An op that keeps *width* processes busy at once (papid's two shard
workers) waits for the slower vCPU, and the client's own vCPU may be
the fast one.  A clock of width 2 therefore runs each sample on two
processes at the same time and records the time until both finish.
"""

from __future__ import annotations

import bisect
import multiprocessing
import signal
import time
from typing import List, Sequence, Tuple

#: iterations of the reference unit; ~50 ms on a 2-vCPU x86-64 VM
#: running CPython 3.11.
LOOP_ITERATIONS = 350_000
#: one sample runs a fifth of the unit (~10 ms) and is scaled up.
SAMPLE_ITERATIONS = LOOP_ITERATIONS // 5
#: the unit's nominal duration: ``setup_s`` is reported in seconds on a
#: host where the unit takes this long, so host speed cancels out of it
#: as it does out of the ``*_ref`` metrics.
NOMINAL_UNIT_S = 0.05


def spin(n: int = LOOP_ITERATIONS) -> int:
    """The reference work: an LCG over machine-word ints."""
    x = 0
    i = 0
    while i < n:
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        i += 1
    return x


def probe(n: int = 5) -> List[float]:
    """*n* back-to-back one-process samples, in seconds per unit."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        spin(SAMPLE_ITERATIONS)
        out.append((time.perf_counter_ns() - t0) / 1e9
                   * LOOP_ITERATIONS / SAMPLE_ITERATIONS)
    return out


def _spin_on_request(conn) -> None:
    """Helper-process loop: spin once per request until told to stop."""
    while True:
        n = conn.recv()
        if n is None:
            return
        spin(n)
        conn.send(n)


class HostClock:
    """Host-reference samples taken during (timer) or between ops.

    A clock of ``width`` > 1 forks ``width - 1`` helper processes and
    must be closed (it is a context manager).
    """

    def __init__(self, width: int = 1) -> None:
        #: each sample in seconds per reference unit.
        self.samples: List[float] = []
        #: ``[start_ns, end_ns]`` of each sample (``perf_counter_ns``).
        self.intervals: List[List[int]] = []
        self._prev_handler = None
        self._helpers = []
        # spawn, not fork: the caller may already run threads (papid)
        ctx = multiprocessing.get_context("spawn")
        for _ in range(width - 1):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_spin_on_request, args=(child,),
                               name="p3-hostref", daemon=True)
            proc.start()
            child.close()
            self._helpers.append((proc, parent))

    def take(self) -> None:
        t0 = time.perf_counter_ns()
        for _proc, conn in self._helpers:
            conn.send(SAMPLE_ITERATIONS)
        spin(SAMPLE_ITERATIONS)
        for _proc, conn in self._helpers:
            conn.recv()
        t1 = time.perf_counter_ns()
        self.intervals.append([t0, t1])
        self.samples.append(
            (t1 - t0) / 1e9 * LOOP_ITERATIONS / SAMPLE_ITERATIONS)

    def start(self, every_s: float) -> None:
        """Sample every *every_s* wall seconds until :meth:`stop`."""
        self._prev_handler = signal.signal(
            signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler)

    def close(self) -> None:
        """Stop and reap the helper processes."""
        for proc, conn in self._helpers:
            conn.send(None)
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._helpers = []

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def op_refs(samples: Sequence[float], intervals: Sequence[Sequence[int]],
            ops: Sequence[Tuple[int, int]]) -> List[Tuple[float, float]]:
    """``(seconds, ref units)`` of each ``(t0_ns, t1_ns)`` op.

    *seconds* excludes sampler time inside the op; *ref units* divides
    it by the reference unit measured during the op (module docstring).
    """
    if not samples:
        raise ValueError("no host-reference samples taken")
    starts = [iv[0] for iv in intervals]
    out = []
    for t0, t1 in ops:
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        inside = range(lo, hi) if hi > lo else range(max(0, lo - 1),
                                                     min(len(starts), lo + 1))
        rate = sum(1.0 / samples[i] for i in inside) / len(inside)
        busy = sum(
            max(0, min(intervals[i][1], t1) - max(intervals[i][0], t0))
            for i in range(max(0, lo - 1), hi)
        )
        seconds = (t1 - t0 - busy) / 1e9
        out.append((seconds, seconds * rate))
    return out
