"""Software multiplexing: time-slicing counter sets and scaling counts.

"Multiplexing allows more counters to be used simultaneously than are
physically supported by the hardware.  With multiplexing, the physical
counters are time-sliced, and the counts are estimated from the
measurements."  (Section 2)

The controller partitions an EventSet's native events into hardware-
feasible subsets (each subset is one optimal-allocation result), rotates
the active subset on a cycle-timer interrupt, and estimates each event's
full-run count as::

    estimate = counted * (total_running_cycles / subset_active_cycles)

The estimation error this introduces on short, phased runs -- the reason
the spec forces multiplexing to be an explicit low-level opt-in -- is
exactly what experiment E3 measures.  Every subset rotation goes through
the substrate's real program/start/stop operations, so multiplexing also
pays its true interface overhead.

On SMP machines each controller is pinned to its EventSet's bound CPU:
the rotation timer and the quantum clock are that CPU's own cycle
counter, so each CPU multiplexes independently at the pace of the work
its counters observe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.allocation import allocate
from repro.core.errors import ConflictError, PapiError, SubstrateFeatureError
from repro.core.resilience import scrub
from repro.hw.events import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventset import EventSet
    from repro.platforms.base import NativeEvent

#: default rotation quantum in cycles (overridable per Papi instance via
#: ``papi.mpx_quantum_cycles``); roughly 10 microseconds at 500 MHz.
DEFAULT_QUANTUM_CYCLES = 5000


def partition_natives(substrate, natives: Dict[str, "NativeEvent"],
                      banned=()):
    """Split *natives* into hardware-feasible subsets.

    Greedy set-cover by repeated optimal allocation: each round maps as
    many remaining events as the hardware allows and peels them off.
    Raises ConflictError if some event cannot be placed even alone.
    *banned* counters (held by another user) are excluded, so a
    controller built during loss recovery routes around them.
    """
    remaining = dict(natives)
    subsets: List[Dict[str, int]] = []
    while remaining:
        result = allocate(substrate, list(remaining.values()), banned=banned)
        if not result.assignment:
            raise ConflictError(
                f"events {sorted(remaining)} cannot be counted on "
                f"{substrate.NAME} at all"
            )
        subsets.append(dict(result.assignment))
        for name in result.assignment:
            del remaining[name]
    return subsets


class MultiplexController:
    """Drives one multiplexed EventSet run."""

    def __init__(self, eventset: "EventSet") -> None:
        self.eventset = eventset
        self.substrate = eventset.substrate
        self.machine = eventset.substrate.machine
        #: the CPU whose PMU (and cycle timer) drives the rotation; each
        #: CPU multiplexes independently, with quanta measured in *its
        #: own* executed cycles, so rotation cadence tracks the work the
        #: counters actually observe.
        self.cpu = eventset.cpu
        self._pmu = self.machine.cpus[self.cpu].pmu
        self._counts = self.machine.cpus[self.cpu].counts
        self.quantum = getattr(
            eventset.papi, "mpx_quantum_cycles", DEFAULT_QUANTUM_CYCLES
        )
        self.natives = dict(eventset._natives)
        self.subsets = partition_natives(
            self.substrate, self.natives,
            banned=sorted(self.substrate.unavailable_counters(self.cpu)),
        )
        self._subset_of: Dict[str, int] = {}
        for si, subset in enumerate(self.subsets):
            for name in subset:
                self._subset_of[name] = si
        self._accum: Dict[str, int] = {name: 0 for name in self.natives}
        self._active: List[int] = [0] * len(self.subsets)
        self._current = 0
        self._slice_start = 0
        self._total_start = 0
        self._running = False
        self.rotations = 0
        # component rotation state: multiplexing rotates *within* each
        # component whose members exceed its counter bank, never across
        # components.  The banks are free-running, so walking the windows
        # is pure bookkeeping -- component reads stay exact regardless of
        # which window is live (unlike the CPU subsets, whose counts must
        # be scaled from their active slices).
        by_comp: Dict[str, List[int]] = {}
        for code, (comp_name, _short) in sorted(
            eventset._cmp_events.items()
        ):
            by_comp.setdefault(comp_name, []).append(code)
        self.cmp_windows: Dict[str, List[List[int]]] = {}
        self.cmp_current: Dict[str, int] = {}
        for comp_name, codes in by_comp.items():
            cap = self.substrate.component(comp_name).n_counters
            if len(codes) > cap:
                self.cmp_windows[comp_name] = [
                    codes[i:i + cap] for i in range(0, len(codes), cap)
                ]
                self.cmp_current[comp_name] = 0
        #: set when a rotation fault left the current subset in limbo;
        #: the next tick re-programs it instead of rotating onward.
        self._wedged = False

    # ------------------------------------------------------------------

    def _now(self) -> int:
        """The bound CPU's own executed-cycle clock."""
        return self._counts[Signal.TOT_CYC]

    def _sub(self, fn):
        """Substrate call under the owning EventSet's retry policy."""
        return self.eventset._sub(fn)

    def _program_and_start(self, subset_index: int) -> None:
        subset = self.subsets[subset_index]
        self.eventset._program_and_start(
            list(subset.items()), sorted(subset.values())
        )

    def _stop_and_collect(self, subset_index: int, now: int) -> None:
        subset = self.subsets[subset_index]
        values = self._sub(lambda: self.substrate.stop_counters(
            [subset[name] for name in subset], cpu=self.cpu
        ))
        for name, value in zip(subset, values):
            self._accum[name] += value
        self._active[subset_index] += now - self._slice_start

    def start(self) -> None:
        if self._running:
            raise ConflictError("multiplex controller already running")
        pmu = self._pmu
        if pmu.timer_active:
            raise SubstrateFeatureError(
                "the platform timer is busy (another multiplexed EventSet "
                "is running)"
            )
        now = self._now()
        self._total_start = now
        self._slice_start = now
        self._current = 0
        if self.subsets:
            self._program_and_start(0)
        pmu.set_cycle_timer(self.quantum, self._on_tick)
        self._running = True

    def _on_tick(self, cycle: int) -> None:
        """Timer interrupt: rotate to the next subset.

        Fault containment: a rotation that fails (transient failure
        surviving every retry, or a counter stolen mid-rotation) must
        not propagate out of the timer-interrupt context -- it would
        unwind the machine's execution loop.  The controller instead
        marks itself *wedged*: the failed slice's counts are discarded
        (tallied as ``mpx_rotation_faults`` in the EventSet's health
        ledger) and each subsequent tick retries re-programming the
        current subset until the hardware cooperates again.
        """
        rotated_components = False
        if self.cmp_windows:
            for comp_name, windows in self.cmp_windows.items():
                self.cmp_current[comp_name] = (
                    self.cmp_current[comp_name] + 1
                ) % len(windows)
            rotated_components = True
        if len(self.subsets) <= 1 and not self._wedged:
            # nothing to rotate on the CPU side; counts stay exact
            if rotated_components:
                self.rotations += 1
            return
        try:
            if self._wedged:
                self._program_and_start(self._current)
                self._wedged = False
                self._slice_start = cycle
                return
            self._stop_and_collect(self._current, cycle)
            self._current = (self._current + 1) % len(self.subsets)
            self._slice_start = cycle
            self._program_and_start(self._current)
            self.rotations += 1
        except PapiError:
            self._wedged = True
            self.eventset.health.mpx_rotation_faults += 1

    # ------------------------------------------------------------------

    def _live_values(self) -> Dict[str, int]:
        """Current subset's live counter values (no stop)."""
        if not self.subsets:  # component-only set: no CPU counters live
            return {}
        subset = self.subsets[self._current]
        if self._wedged:
            return {name: 0 for name in subset}
        try:
            values = self._sub(lambda: self.substrate.read_counters(
                [subset[name] for name in subset], cpu=self.cpu
            ))
        except PapiError:
            self.eventset.health.mpx_rotation_faults += 1
            return {name: 0 for name in subset}
        return dict(zip(subset, values))

    def _estimate(
        self, counted: Dict[str, int], active: List[int], total: int
    ) -> Dict[str, int]:
        est: Dict[str, int] = {}
        for name in self.natives:
            si = self._subset_of[name]
            a = active[si]
            if a <= 0:
                est[name] = 0
            elif total <= a:
                est[name] = counted[name]
            else:
                est[name] = round(counted[name] * (total / a))
        return est

    def read(self) -> Dict[str, int]:
        now = self._now()
        if not self.subsets:
            return {}
        counted = dict(self._accum)
        live = self._live_values()
        for name, v in live.items():
            counted[name] += v
        active = list(self._active)
        active[self._current] += now - self._slice_start
        total = now - self._total_start
        return self._estimate(counted, active, total)

    def stop(self) -> Dict[str, int]:
        now = self._now()
        if self.subsets and not self._wedged:
            try:
                self._stop_and_collect(self._current, now)
            except PapiError:
                self._wedged = True
        if self._wedged:
            # the live slice is lost: count the fault, scrub its counters
            self.eventset.health.mpx_rotation_faults += 1
            self._scrub_current()
        self._pmu.clear_cycle_timer()
        self._running = False
        if not self.subsets:
            return {}
        total = now - self._total_start
        return self._estimate(dict(self._accum), list(self._active), total)

    def abort(self) -> None:
        """Raw teardown for emergency paths; never raises."""
        try:
            self._pmu.clear_cycle_timer()
        except Exception:
            pass
        self._scrub_current()
        self._running = False

    def _scrub_current(self) -> None:
        if self.subsets:
            scrub((self._pmu, idx) for idx in self.subsets[self._current].values())

    def reset(self) -> None:
        """Zero all accumulated counts and restart the clocks."""
        now = self._now()
        if self.subsets:
            subset = self.subsets[self._current]
            try:
                self._sub(lambda: self.substrate.reset_counters(
                    [subset[name] for name in subset], cpu=self.cpu
                ))
            except PapiError:
                self.eventset.health.mpx_rotation_faults += 1
                self._wedged = True
        for name in self._accum:
            self._accum[name] = 0
        self._active = [0] * len(self.subsets)
        self._slice_start = now
        self._total_start = now
