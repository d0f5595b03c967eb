"""Statistical call sampling for probes: trading accuracy for overhead.

Section 4: "Unacceptable overhead has caused some tool developers to
reduce the number of calls through statistical sampling techniques
[Mendes & Reed]."  The technique: instead of reading counters on *every*
function entry/exit, read on every k-th call (per function) and scale
the accumulated deltas by k.  Overhead drops by ~k; per-function totals
become estimates whose error depends on call-to-call variance.

:class:`SamplingPapiProbe` is a drop-in replacement for
:class:`~repro.tools.dynaprof.PapiProbe`; the A4 ablation benchmark
sweeps k to trace the overhead/accuracy curve.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.hw.cpu import CPU
from repro.tools.dynaprof import FunctionProfile, PapiProbe


class SamplingPapiProbe(PapiProbe):
    """A PAPI probe that measures only every k-th call per function.

    On a *measured* call the probe reads counters at entry and exit and
    accumulates the delta scaled by k; on skipped calls it does nothing
    but bump a counter (no reads -> no interface cost).  ``calls`` in
    the resulting profiles reflects *actual* calls; metric totals are
    scaled estimates.

    Exclusive-time accounting is not attempted under sampling (a skipped
    parent cannot subtract its children), matching the real tools, which
    report inclusive estimates in this mode; ``exclusive`` mirrors the
    inclusive estimate.
    """

    def __init__(self, papi: Papi, events: Sequence[str], k: int) -> None:
        super().__init__(papi, events)
        if k < 1:
            raise InvalidArgumentError("sampling factor k must be >= 1")
        self.k = k
        self._call_seen: Dict[str, int] = {}
        self._entry_stack: List[Tuple[str, bool, Dict[str, float]]] = []
        self.measured_calls = 0
        self.skipped_calls = 0

    def on_entry(self, function: str, cpu: CPU) -> None:
        seen = self._call_seen.get(function, 0)
        self._call_seen[function] = seen + 1
        measure = seen % self.k == 0
        if measure:
            self.measured_calls += 1
            snapshot = self._snapshot()  # the only costly operation
        else:
            self.skipped_calls += 1
            snapshot = {}
        self._entry_stack.append((function, measure, snapshot))

    def on_exit(self, function: str, cpu: CPU) -> None:
        if not self._entry_stack:
            return
        name, measured, entry = self._entry_stack.pop()
        prof = self.profiles.setdefault(name, FunctionProfile(name))
        prof.calls += 1
        if not measured:
            return
        now = self._snapshot()
        scaled = {m: (now[m] - entry[m]) * self.k for m in now}
        prof._add(prof.inclusive, scaled)
        prof._add(prof.exclusive, scaled)

    def estimate_error_bound(self, function: str) -> float:
        """Half-width heuristic: 1/sqrt(measured samples) of the total."""
        prof = self.profiles.get(function)
        if prof is None or prof.calls == 0:
            return float("inf")
        measured = (prof.calls + self.k - 1) // self.k
        return 1.0 / measured ** 0.5
