"""Retry policy and per-EventSet health records for the self-healing runtime.

The paper's platforms fail in practice: substrate calls return
``PAPI_ESYS`` transiently, and counters can be stolen by other users of
the machine (``PAPI_ECLOST``).  Rather than surface every such hiccup --
or worse, silently return corrupt totals -- the library retries
transient substrate failures with bounded backoff (billed in simulated
cycles, so recovery has a visible, measurable cost) and records every
degradation it had to perform in an :class:`EventSetHealth` ledger that
callers can inspect alongside their counts.

The recovery ladder, from cheapest to most degraded:

1. **retry with backoff** -- transient ``PAPI_ESYS`` on a substrate call;
2. **re-acquire and resume** -- ``PAPI_ECLOST``: salvage the last-good
   totals, re-allocate around the stolen counter, restart, and record a
   :class:`LostInterval` covering the unobserved window;
3. **software emulation** -- hardware overflow arming failed for good:
   emulate the interrupt from a timer poll (coarser attribution);
4. **multiplex fallback** (opt-in) -- re-allocation infeasible: finish
   the run time-sliced rather than abort;
5. **fail** -- nothing above applies: raise, with the EventSet left in a
   well-defined stopped state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.core.errors import SystemError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.pmu import PMU

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient substrate failures.

    Backoff is charged to the simulated machine as system cycles, so a
    recovered run is slower than a clean one by exactly the backoff it
    paid -- perturbation stays visible, as everywhere else in the model.

    ``jitter_frac`` spreads retries of independent callers apart: with
    jitter ``j`` and a caller-supplied seeded RNG, each wait is scaled
    by a factor drawn uniformly from ``[1 - j, 1 + j]``.  The default
    (``0.0``) keeps the ladder exactly deterministic, so every existing
    billed-backoff account is unchanged; the papid client opts in with
    a per-client seeded RNG that doubles as a determinism witness.
    """

    max_retries: int = 3
    backoff_cycles: int = 200
    backoff_multiplier: int = 2
    jitter_frac: float = 0.0

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> int:
        """Cycles to wait before retry number *attempt* (0-based).

        Without jitter (or without an RNG) this is the exact ladder
        ``backoff_cycles * multiplier ** attempt``; with both, the exact
        value is scaled by a uniform factor in ``[1-j, 1+j]`` and
        rounded to whole cycles (never below 1).
        """
        wait = self.backoff_cycles * self.backoff_multiplier ** attempt
        if self.jitter_frac > 0.0 and rng is not None:
            lo = 1.0 - self.jitter_frac
            hi = 1.0 + self.jitter_frac
            wait = max(1, int(round(wait * rng.uniform(lo, hi))))
        return wait


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class LostInterval:
    """One window during which an EventSet's counters were not observed.

    Counts accumulated inside the window are unrecoverable; the runtime
    salvages the last-good totals instead of returning corrupt numbers,
    and the interval tells the caller exactly what was missed.
    """

    start_cycle: int
    end_cycle: int
    natives: Tuple[str, ...]
    reason: str
    recovered: bool = False


@dataclass
class EventSetHealth:
    """Per-EventSet ledger of every fault the runtime absorbed."""

    retries: int = 0
    backoff_cycles: int = 0
    lost_intervals: List[LostInterval] = field(default_factory=list)
    corruptions: int = 0
    overflow_emulated: bool = False
    degraded_to_multiplex: bool = False
    mpx_rotation_faults: int = 0

    @property
    def clean(self) -> bool:
        """True when no fault of any kind was absorbed."""
        return (
            self.retries == 0
            and not self.lost_intervals
            and self.corruptions == 0
            and not self.overflow_emulated
            and not self.degraded_to_multiplex
            and self.mpx_rotation_faults == 0
        )

    def summary(self) -> dict:
        """JSON-friendly snapshot (papirun output, tests)."""
        return {
            "retries": self.retries,
            "backoff_cycles": self.backoff_cycles,
            "lost_intervals": [
                {
                    "start_cycle": iv.start_cycle,
                    "end_cycle": iv.end_cycle,
                    "natives": list(iv.natives),
                    "reason": iv.reason,
                    "recovered": iv.recovered,
                }
                for iv in self.lost_intervals
            ],
            "corruptions": self.corruptions,
            "overflow_emulated": self.overflow_emulated,
            "degraded_to_multiplex": self.degraded_to_multiplex,
            "mpx_rotation_faults": self.mpx_rotation_faults,
        }


def call_with_retry(
    substrate,
    fn: Callable[[], T],
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    health: Optional[EventSetHealth] = None,
    cpu: int = 0,
    rng: Optional[random.Random] = None,
) -> T:
    """Run *fn*, retrying transient ``PAPI_ESYS`` failures with backoff.

    Only ``SystemError_`` is retried: a re-issued call can succeed once
    the condition clears.  ``CountersLostError`` is *transient* but not
    retryable in place -- the counter is gone and must be re-acquired --
    so it propagates to the recovery layer, as do all fatal errors.

    *rng*, when given together with a jittered policy, randomizes each
    wait (see :meth:`RetryPolicy.backoff`); the EventSet path passes
    none, so its billed-backoff accounting is bit-identical to the
    pre-jitter ladder.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except SystemError_:
            if attempt >= policy.max_retries:
                raise
            wait = policy.backoff(attempt, rng=rng)
            substrate.machine.charge(wait, cpu=cpu)
            if health is not None:
                health.retries += 1
                health.backoff_cycles += wait
            attempt += 1


def scrub(counters: Iterable[Tuple["PMU", int]]) -> None:
    """Stop each ``(pmu, index)`` counter if it runs and clear it; never raises.

    Raw register cleanup bypasses the substrate call boundary, and with it
    the fault injector, so it is the one operation a teardown can always
    rely on.  Clearing a counter also drops any overflow watch armed on it.
    """
    for pmu, idx in counters:
        try:
            if pmu.running(idx):
                pmu.stop(idx)
            pmu.clear(idx)
        except Exception:
            pass
