"""Overflow dispatch: counter threshold crossings -> user callbacks.

"The low-level interface ... provides the functionality of user
callbacks on counter overflow" (Section 2).  The PMU raises an
:class:`~repro.hw.pmu.OverflowRecord` with the *interrupt* program
counter -- which, on out-of-order platforms, has skidded several
instructions past the instruction that caused the event (Section 4's
attribution problem).  This module packages the record into the
PAPI-level :class:`OverflowInfo` handed to user handlers.

``true_address`` carries the skid-free causing address.  Real hardware
does not reveal it through this interface; it is exposed here (clearly
marked) because the reproduction's E5 experiment needs ground truth to
*measure* the attribution error the paper describes.  Portable tools
must only use ``address``.

Interaction with the execution engine: overflow thresholds are
*deadlines* for the engine (:mod:`repro.hw.blockcache`).  Before each
block or region step it queries ``PMU.watch_constraints`` for
the headroom below every armed ``next_trigger`` and runs only steps
that stay strictly below it (none while a watch is due), so the
threshold-crossing instruction, the skid draw and the delivery all
happen on the precise interpreter path -- overflow handlers observe
identical ``OverflowInfo`` records (addresses, cycles, counts) whether
the engine is on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.hw.isa import INS_BYTES
from repro.hw.pmu import PMU, OverflowRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventset import EventSet
    from repro.platforms.base import NativeEvent


@dataclass(frozen=True)
class OverflowInfo:
    """What a PAPI overflow handler receives."""

    eventset_handle: int
    code: int                 #: the overflowing event's code
    symbol: str               #: its name
    address: int              #: interrupt pc as a byte address (with skid)
    overflow_count: int       #: how many times this watch has fired
    threshold: int
    cycle: int                #: machine cycle of delivery
    #: ground-truth causing address (simulation-only diagnostic; see
    #: module docstring).  Portable code must ignore this.
    true_address: int


@dataclass
class OverflowRegistration:
    """One PAPI_overflow registration, installable onto a PMU counter."""

    eventset: "EventSet"
    code: int
    native: "NativeEvent"
    threshold: int
    handler: Callable[[OverflowInfo], None]

    def make_dispatch(self) -> Callable[[OverflowRecord], None]:
        """The PMU-level handler wrapping the user callback."""
        symbol = self.eventset.papi.event_code_to_name(self.code)
        handle = self.eventset.handle
        threshold = self.threshold
        user_handler = self.handler

        def _dispatch(record: OverflowRecord) -> None:
            user_handler(
                OverflowInfo(
                    eventset_handle=handle,
                    code=self.code,
                    symbol=symbol,
                    address=record.reported_pc * INS_BYTES,
                    overflow_count=record.overflow_count,
                    threshold=threshold,
                    cycle=record.cycle,
                    true_address=record.trigger_pc * INS_BYTES,
                )
            )

        return _dispatch

    def install(self, pmu: PMU, counter_index: int) -> None:
        pmu.set_overflow(counter_index, self.threshold, self.make_dispatch())


@dataclass
class _SoftWatch:
    """Emulator-side state for one registration."""

    reg: OverflowRegistration
    index: int
    next_trigger: int
    overflow_count: int = 0


class SoftwareOverflowEmulator:
    """Timer-driven overflow emulation: the graceful-degradation path.

    When hardware overflow arming fails for good (``PAPI_ESYS`` through
    every retry), the library falls back to polling the counter from the
    PMU cycle timer and synthesizing :class:`OverflowInfo` callbacks in
    software -- the strategy PAPI uses on platforms whose substrate has
    no interrupt support at all (Section 2: overflows "implemented in
    software using a high resolution interval timer" where hardware
    support is missing).

    The price is attribution: the reported ``address`` is wherever the
    program happened to be at the *poll* that noticed the crossing, not
    within interrupt skid of the causing instruction.  ``true_address``
    equals ``address`` here -- the emulator genuinely does not know the
    causing pc, and pretending otherwise would falsify E5-style skid
    studies.  The EventSet's health record sets ``overflow_emulated`` so
    callers know the quality of what they got.
    """

    def __init__(self, eventset: "EventSet", poll_cycles: int = 2000) -> None:
        self.eventset = eventset
        self.poll_cycles = poll_cycles
        machine = eventset.substrate.machine
        self._cpu = machine.cpus[eventset.cpu]
        self._pmu = self._cpu.pmu
        self._watches: dict = {}  # code -> _SoftWatch
        self._running = False

    def arm(self, reg: OverflowRegistration, index: int) -> None:
        self._watches[reg.code] = _SoftWatch(
            reg=reg,
            index=index,
            next_trigger=self._pmu.read(index) + reg.threshold,
        )
        if not self._running:
            self._pmu.set_cycle_timer(self.poll_cycles, self._on_tick)
            self._running = True

    def disarm(self, code: int) -> None:
        self._watches.pop(code, None)
        if not self._watches:
            self.stop()

    def stop(self) -> None:
        if self._running:
            self._pmu.clear_cycle_timer()
            self._running = False

    def rebase(self, code: int, index: int) -> bool:
        """Re-home *code*'s watch onto counter *index* after counter-loss
        recovery; False when the emulator holds no watch for *code*."""
        watch = self._watches.get(code)
        if watch is None:
            return False
        watch.index = index
        watch.next_trigger = self._pmu.read(index) + watch.reg.threshold
        return True

    def _on_tick(self, cycle: int) -> None:
        pc_bytes = self._cpu.pc * INS_BYTES
        for watch in self._watches.values():
            value = self._pmu.read(watch.index)
            reg = watch.reg
            while value >= watch.next_trigger:
                watch.next_trigger += reg.threshold
                watch.overflow_count += 1
                reg.handler(
                    OverflowInfo(
                        eventset_handle=self.eventset.handle,
                        code=reg.code,
                        symbol=self.eventset.papi.event_code_to_name(reg.code),
                        address=pc_bytes,
                        overflow_count=watch.overflow_count,
                        threshold=reg.threshold,
                        cycle=cycle,
                        true_address=pc_bytes,
                    )
                )
