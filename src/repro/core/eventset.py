"""EventSets: the unit of counter management in the low-level API.

"PAPI manages events in user-defined sets called EventSets" (Section 5).
An EventSet collects event codes (presets and/or natives), resolves them
to the platform's native events, asks the allocator (Section 5's graph
matching) for a counter assignment, and drives the substrate's counter
operations on start/stop/read/accum/reset.

Three counting regimes, chosen automatically:

- **direct** (default): events fit the physical counters or adding them
  raises :class:`~repro.core.errors.ConflictError`;
- **multiplexed**: only after an explicit :meth:`set_multiplex` call --
  the paper describes at length why multiplexing must be opt-in and
  low-level-only (naive use silently produces wrong numbers on short
  runs, experiment E3);
- **sampling** (simALPHA): counts are estimated from ProfileMe samples
  through a :class:`~repro.platforms.simalpha.SamplingSession`; any
  number of events can be "counted" at once and no allocation happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import constants as C
from repro.core.allocation import allocate
from repro.core.errors import (
    ConflictError,
    CountersLostError,
    InvalidArgumentError,
    IsRunningError,
    NoSuchEventError,
    NotRunningError,
    PapiError,
    SubstrateFeatureError,
    SystemError_,
)
from repro.core.overflow import (
    OverflowInfo,
    OverflowRegistration,
    SoftwareOverflowEmulator,
)
from repro.core.resilience import (
    DEFAULT_RETRY_POLICY,
    EventSetHealth,
    LostInterval,
    call_with_retry,
    scrub,
)
from repro.platforms.base import NativeEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.library import Papi
    from repro.core.multiplex import MultiplexController
    from repro.platforms.base import Substrate
    from repro.simos.thread import Thread

#: why an EventSet is never both attached and multiplexed, in either order
_ATTACHED_MPX = (
    "an attached EventSet cannot be multiplexed: the rotation runs on the "
    "CPU's cycle clock and would count whatever the CPU runs"
)


class ThreadCounters:
    """The substrate's counter calls for an EventSet attached to a thread.

    Attached counters belong to the OS: they run only while the thread
    holds a CPU and live on whichever PMU the scheduler last homed them
    to, so every call goes through the OS rather than one CPU's
    registers.  The charges are the substrate's, except that a start or
    a stop charges after the counter access, where the substrate charges
    before it.
    """

    def __init__(self, substrate: "Substrate", thread: "Thread") -> None:
        self.substrate = substrate
        self.os = substrate.os
        self.thread = thread

    def start_counters(self, indices: Sequence[int], cpu: int = 0) -> None:
        """Bind each counter to the thread, homed on *cpu*, and start it."""
        for idx in indices:
            if idx not in self.thread.bound_counters:
                self.os.bind_counter(self.thread, idx, cpu=cpu)
            self.os.counter_start(self.thread, idx)
        self.substrate._charge(self.substrate.COSTS.start)

    def stop_counters(self, indices: Sequence[int], cpu: int = 0) -> List[int]:
        values = [self.os.counter_stop(self.thread, idx) for idx in indices]
        self.substrate._charge(self.substrate.COSTS.stop)
        return values

    def read_counters(self, indices: Sequence[int], cpu: int = 0) -> List[int]:
        costs = self.substrate.COSTS
        self.substrate._charge(costs.read + costs.read_per_counter * len(indices))
        return [self.os.counter_value(self.thread, idx) for idx in indices]

    def reset_counters(self, indices: Sequence[int], cpu: int = 0) -> None:
        self.substrate._charge(self.substrate.COSTS.reset)
        for idx in indices:
            self.os.counter_reset(self.thread, idx)


class EventSet:
    """One PAPI EventSet.  Create via :meth:`Papi.create_eventset`."""

    def __init__(self, papi: "Papi", handle: int) -> None:
        self.papi = papi
        self.handle = handle
        self.substrate = papi.substrate
        self._codes: List[int] = []
        self._terms: Dict[int, Tuple[Tuple[NativeEvent, int], ...]] = {}
        self._natives: Dict[str, NativeEvent] = {}
        self._assignment: Dict[str, int] = {}
        #: non-CPU component members: code -> (component name, short name).
        #: These never enter the CPU allocation/PMU path; they are read
        #: as free-running snapshots against :attr:`_cmp_base`.
        self._cmp_events: Dict[int, Tuple[str, str]] = {}
        #: free-running base snapshots taken at start()/reset().
        self._cmp_base: Dict[int, int] = {}
        self._multiplexed = False
        #: this run fell back to multiplexing (:meth:`_degrade_to_multiplex`);
        #: the fallback ends with the run.
        self._degraded = False
        self._attached: Optional["Thread"] = None
        #: the counter calls of the current run, chosen at start(): the
        #: substrate, or a :class:`ThreadCounters` for an attached set.
        self._ops = self.substrate
        self._running = False
        self._session = None            # SamplingSession on simALPHA
        self._mpx: Optional["MultiplexController"] = None
        self._overflows: Dict[int, OverflowRegistration] = {}
        self._start_real_cyc = 0
        self._domain = C.PAPI_DOM_USER
        #: CPU whose PMU hosts this EventSet's counters (SMP machines);
        #: attached threads may migrate, re-homing the counters with them.
        self._cpu = 0
        #: cumulative ledger of every fault the runtime absorbed on this
        #: EventSet's behalf (retries, lost intervals, degradations).
        self.health = EventSetHealth()
        #: per-native counts salvaged across counter-loss recoveries;
        #: added to raw hardware reads so totals stay monotone.
        self._recovery_base: Dict[str, int] = {}
        #: (last plausible totals, real cycle they were observed at) --
        #: the salvage point for loss recovery and the reference for the
        #: corruption plausibility check.
        self._good: Optional[Tuple[Dict[str, int], int]] = None
        #: software overflow emulation (armed when hardware arming fails).
        self._soft_overflow: Optional[SoftwareOverflowEmulator] = None
        #: rotations the last multiplexed run completed (set at stop).
        self.mpx_rotations = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[int]:
        """Event codes in add order (PAPI_list_events)."""
        return list(self._codes)

    @property
    def event_names(self) -> List[str]:
        return [self.papi.event_code_to_name(c) for c in self._codes]

    @property
    def num_events(self) -> int:
        return len(self._codes)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def multiplexed(self) -> bool:
        return self._multiplexed

    @property
    def attached(self) -> Optional["Thread"]:
        return self._attached

    @property
    def cpu(self) -> int:
        """The CPU this EventSet's counters are allocated on."""
        return self._cpu

    @property
    def assignment(self) -> Dict[str, int]:
        """Native event -> physical counter (empty when sampling/multiplexed)."""
        return dict(self._assignment)

    @property
    def component_events(self) -> Dict[int, Tuple[str, str]]:
        """Non-CPU members: code -> (component name, short name)."""
        return dict(self._cmp_events)

    @property
    def component_assignment(self) -> Dict[str, int]:
        """Qualified component event -> counter index within its component.

        Allocation partitions per component: each component's members are
        packed into its own counter bank independently (multiplexed
        members share the bank round-robin, so indices wrap).
        """
        from repro.core.allocation import component_assignment

        by_comp: Dict[str, List[Tuple[int, str]]] = {}
        for code, (comp_name, short) in self._cmp_events.items():
            by_comp.setdefault(comp_name, []).append((code, short))
        out: Dict[str, int] = {}
        for comp_name, members in by_comp.items():
            comp = self.substrate.component(comp_name)
            shorts = [short for _code, short in members]
            for short, idx in component_assignment(
                shorts, comp.n_counters
            ).items():
                sep = C.PAPI_COMPONENT_SEPARATOR
                out[f"{comp_name}{sep}{short}"] = idx
        return out

    def _component_members(self, comp_name: str) -> List[int]:
        return [
            code for code, (cn, _short) in self._cmp_events.items()
            if cn == comp_name
        ]

    def state(self) -> int:
        """PAPI_state bit flags."""
        flags = C.PAPI_RUNNING if self._running else C.PAPI_STOPPED
        if self._multiplexed:
            flags |= C.PAPI_MULTIPLEXING
        if self._overflows:
            flags |= C.PAPI_OVERFLOWING
        if self._attached is not None:
            flags |= C.PAPI_ATTACHED
        return flags

    # ------------------------------------------------------------------
    # event membership
    # ------------------------------------------------------------------

    def _sampling(self) -> bool:
        return self.substrate.supports_sampling_counts()

    def _unique_natives(
        self, extra: Tuple[Tuple[NativeEvent, int], ...] = ()
    ) -> Dict[str, NativeEvent]:
        natives = dict(self._natives)
        for native, _coeff in extra:
            natives.setdefault(native.name, native)
        return natives

    def add_event(self, code: int) -> None:
        """PAPI_add_event.

        On direct platforms this re-runs optimal allocation over the
        union of natives; an incomplete mapping (unless multiplexing is
        enabled) raises :class:`ConflictError` and leaves the EventSet
        unchanged -- the C library's ECNFLCT behaviour.
        """
        if self._running:
            raise IsRunningError("cannot add events while running")
        if code in self._codes:
            raise InvalidArgumentError(
                f"event {self.papi.event_code_to_name(code)} already present"
            )
        if C.is_native(code) and C.component_id(code) != C.PAPI_CPU_COMPONENT:
            self._add_component_event(code)
            return
        terms = self.papi.resolve_terms(code)  # raises NoSuchEventError
        candidates = self._unique_natives(terms)

        if self._sampling():
            pass  # the sampler observes everything; no allocation at all
        elif self._multiplexed:
            if len(candidates) > C.PAPI_MAX_MPX_EVENTS:
                raise ConflictError(
                    f"multiplexed EventSets hold at most "
                    f"{C.PAPI_MAX_MPX_EVENTS} native events"
                )
            self._check_multiplex_feasible(candidates)
        else:
            result = allocate(self.substrate, list(candidates.values()))
            if not result.complete:
                raise ConflictError(
                    f"cannot map {sorted(result.unplaced)} onto "
                    f"{self.substrate.n_counters} counters of "
                    f"{self.substrate.NAME}; enable multiplexing or remove "
                    f"events"
                )
            self._assignment = result.assignment

        self._codes.append(code)
        self._terms[code] = terms
        self._natives = candidates

    def _add_component_event(self, code: int) -> None:
        """Add one non-CPU component event (partitioned allocation).

        Component events never touch the CPU allocator: each component's
        members must fit that component's own counter bank, and
        multiplexing rotates *within* a component, never across.
        """
        # raises NoSuchComponentError / NoSuchEventError respectively
        comp = self.substrate.component_by_id(C.component_id(code))
        name = self.papi.event_code_to_name(code)
        short = name.split(C.PAPI_COMPONENT_SEPARATOR, 1)[1]
        members = self._component_members(comp.name)
        if self._multiplexed:
            if not comp.SUPPORTS_MULTIPLEX:
                raise SubstrateFeatureError(
                    f"component {comp.name!r} declares no multiplexing; "
                    f"{name} cannot join a multiplexed EventSet"
                )
        elif len(members) + 1 > comp.n_counters:
            raise ConflictError(
                f"component {comp.name!r} has {comp.n_counters} counters "
                f"but would need {len(members) + 1}; enable multiplexing "
                f"or remove events"
            )
        self._codes.append(code)
        self._cmp_events[code] = (comp.name, short)

    def _check_multiplex_feasible(self, natives: Dict[str, NativeEvent]) -> None:
        """Every native must be placeable *alone* for multiplexing to work."""
        for native in natives.values():
            result = allocate(self.substrate, [native])
            if not result.complete:
                raise ConflictError(
                    f"native event {native.name} cannot be counted on any "
                    f"counter of {self.substrate.NAME}"
                )

    def add_events(self, codes: List[int]) -> None:
        for code in codes:
            self.add_event(code)

    def add_named(self, *names: str) -> None:
        """Convenience: add events by preset symbol or native name."""
        for name in names:
            self.add_event(self.papi.event_name_to_code(name))

    def remove_event(self, code: int) -> None:
        if self._running:
            raise IsRunningError("cannot remove events while running")
        if code not in self._codes:
            raise NoSuchEventError(
                f"event 0x{code:08x} is not in this EventSet"
            )
        # as C PAPI_remove_event does: the event's overflow goes with it
        self.clear_overflow(code)
        self._codes.remove(code)
        if code in self._cmp_events:
            del self._cmp_events[code]
            self._cmp_base.pop(code, None)
            return
        del self._terms[code]
        # rebuild the native set from the remaining events
        self._natives = {}
        for c in self._codes:
            if c in self._cmp_events:
                continue
            for native, _coeff in self._terms[c]:
                self._natives.setdefault(native.name, native)
        if not self._sampling() and not self._multiplexed and self._natives:
            result = allocate(self.substrate, list(self._natives.values()))
            assert result.complete, "removal cannot create conflicts"
            self._assignment = result.assignment
        elif not self._natives:
            self._assignment = {}

    def cleanup(self) -> None:
        """PAPI_cleanup_eventset: drop all events (must be stopped)."""
        if self._running:
            raise IsRunningError("cannot clean up a running EventSet")
        self._codes.clear()
        self._terms.clear()
        self._natives.clear()
        self._assignment.clear()
        self._cmp_events.clear()
        self._cmp_base.clear()
        self._overflows.clear()

    # ------------------------------------------------------------------
    # options
    # ------------------------------------------------------------------

    def set_multiplex(self) -> None:
        """Enable software multiplexing (explicitly, as the spec requires).

        The paper: "This issue was resolved by requiring multiplexing to
        be explicitly enabled in the low-level interface, rather than
        implementing it transparently in the high-level interface."
        """
        if self._running:
            raise IsRunningError("cannot enable multiplexing while running")
        if self._sampling():
            raise SubstrateFeatureError(
                "the sampling substrate estimates all events at once; "
                "multiplexing is meaningless there"
            )
        if self._overflows:
            raise InvalidArgumentError(
                "overflow and multiplexing cannot be combined"
            )
        if self._multiplexed:
            return
        if self._domain != C.PAPI_DOM_USER:
            raise InvalidArgumentError(
                "PAPI_DOM_ALL cannot be combined with multiplexing"
            )
        if self._attached is not None:
            raise InvalidArgumentError(_ATTACHED_MPX)
        for comp_name in {cn for cn, _short in self._cmp_events.values()}:
            comp = self.substrate.component(comp_name)
            if not comp.SUPPORTS_MULTIPLEX:
                raise SubstrateFeatureError(
                    f"component {comp_name!r} declares no multiplexing; "
                    "remove its events before PAPI_set_multiplex"
                )
        self._check_multiplex_feasible(self._natives)
        self._multiplexed = True
        self._assignment = {}

    def set_domain(self, domain: int) -> None:
        """PAPI_set_domain: choose what execution contexts are counted.

        ``PAPI_DOM_USER`` (default) counts only application work;
        ``PAPI_DOM_ALL`` additionally folds kernel/interface cycles into
        cycle events (so measured TOT_CYC includes the counter
        interface's own cost -- the perturbation made visible).
        """
        if self._running:
            raise IsRunningError("cannot change domain while running")
        if domain not in (C.PAPI_DOM_USER, C.PAPI_DOM_ALL):
            raise InvalidArgumentError(
                f"unsupported domain 0x{domain:x} (use PAPI_DOM_USER or "
                f"PAPI_DOM_ALL)"
            )
        if domain != C.PAPI_DOM_USER and self._sampling():
            raise SubstrateFeatureError(
                "the DCPI sampler observes user mode only"
            )
        if domain != C.PAPI_DOM_USER and self._multiplexed:
            raise InvalidArgumentError(
                "PAPI_DOM_ALL cannot be combined with multiplexing"
            )
        self._domain = domain

    def get_domain(self) -> int:
        return self._domain

    def attach(self, thread: "Thread") -> None:
        """Attach counting to *thread* (counts only while it runs)."""
        if self._running:
            raise IsRunningError("cannot attach while running")
        if self._sampling():
            raise SubstrateFeatureError(
                "per-thread attach is not supported on the sampling substrate"
            )
        if self._multiplexed:
            raise InvalidArgumentError(_ATTACHED_MPX)
        self._attached = thread

    def detach(self) -> None:
        if self._running:
            raise IsRunningError("cannot detach while running")
        self._attached = None

    def bind_cpu(self, cpu: int) -> None:
        """Pin this EventSet's counter allocation to one CPU's PMU.

        On SMP machines each CPU has its own physical counters; an
        unattached EventSet counts whatever runs on its bound CPU, while
        an attached one merely starts there (the scheduler re-homes the
        counters whenever the thread migrates).  CPU 0 is the default
        and the only choice on single-CPU machines.
        """
        if self._running:
            raise IsRunningError("cannot re-bind CPU while running")
        ncpus = self.substrate.machine.config.ncpus
        if not 0 <= cpu < ncpus:
            raise InvalidArgumentError(
                f"cpu {cpu} out of range (machine has {ncpus})"
            )
        self._cpu = cpu

    # ------------------------------------------------------------------
    # overflow
    # ------------------------------------------------------------------

    def overflow(
        self,
        code: int,
        threshold: int,
        handler: Callable[[OverflowInfo], None],
    ) -> None:
        """PAPI_overflow: call *handler* every *threshold* increments.

        Restricted, as in the C library, to events that map to a single
        native event (derived events cannot overflow) on direct-counting
        substrates, and incompatible with multiplexing.
        """
        if self._sampling():
            raise SubstrateFeatureError(
                "overflow interrupts are unavailable over the DCPI "
                "aggregate interface; use hardware sampling / PAPI_profil"
            )
        if self._multiplexed:
            raise InvalidArgumentError(
                "overflow and multiplexing cannot be combined"
            )
        if code not in self._codes:
            raise NoSuchEventError("event must be added before PAPI_overflow")
        if code in self._cmp_events:
            raise InvalidArgumentError(
                "component events are free-running snapshots; "
                "PAPI_overflow requires a programmed PMU counter"
            )
        if threshold < C.PAPI_MIN_OVERFLOW:
            raise InvalidArgumentError(
                f"threshold must be >= {C.PAPI_MIN_OVERFLOW}"
            )
        terms = self._terms[code]
        if len(terms) != 1 or terms[0][1] != 1:
            raise InvalidArgumentError(
                "derived events cannot be used with PAPI_overflow"
            )
        self._overflows[code] = OverflowRegistration(
            eventset=self,
            code=code,
            native=terms[0][0],
            threshold=threshold,
            handler=handler,
        )
        if self._running:
            self._install_overflow(self._overflows[code])

    def _cpu_for(self, idx: int) -> int:
        """The CPU physically hosting counter *idx* right now.

        Attached counters live wherever the scheduler last homed them
        (they migrate with the thread); otherwise on the bound CPU.
        """
        if self._attached is not None and idx in self._attached.counter_home:
            return self._attached.counter_home[idx]
        return self._cpu

    def _pmu_for(self, idx: int):
        """The PMU physically hosting counter *idx* right now."""
        return self.substrate.machine.cpus[self._cpu_for(idx)].pmu

    def clear_overflow(self, code: int) -> None:
        reg = self._overflows.pop(code, None)
        if reg is not None and self._running:
            if self._soft_overflow is not None:
                self._soft_overflow.disarm(code)
            idx = self._assignment.get(reg.native.name)
            if idx is not None:
                self._pmu_for(idx).clear_overflow(idx)

    def _install_overflow(self, reg: OverflowRegistration) -> None:
        """Arm one overflow watch: hardware first, software on failure.

        Hardware arming goes through the substrate so injected faults
        can hit it; if it still fails after the retry policy is
        exhausted, the registration degrades to the timer-driven
        :class:`SoftwareOverflowEmulator` (coarse attribution, recorded
        in the health ledger) instead of aborting the run.
        """
        idx = self._assignment[reg.native.name]
        cpu = self._cpu_for(idx)
        try:
            self._sub(lambda: self.substrate.arm_overflow(
                idx, reg.threshold, reg.make_dispatch(), cpu=cpu
            ))
        except SystemError_:
            if self._soft_overflow is None:
                self._soft_overflow = SoftwareOverflowEmulator(self)
            self._soft_overflow.arm(reg, idx)
            self.health.overflow_emulated = True

    # ------------------------------------------------------------------
    # resilience: retry, loss recovery, corruption containment
    # ------------------------------------------------------------------

    def _sub(self, fn):
        """Run one substrate call under the library's retry policy."""
        return call_with_retry(
            self.substrate, fn,
            getattr(self.papi, "retry_policy", DEFAULT_RETRY_POLICY),
            self.health, cpu=self._cpu,
        )

    def _note_good(self, totals: Dict[str, int]) -> None:
        self._good = (dict(totals), self.substrate.real_cyc())

    def _scrub(self) -> None:
        """Raw-PMU cleanup of the run's counters; never raises.

        The emergency path (kernel-assisted teardown): injected faults
        only hit the substrate's call boundary, so direct register
        cleanup is the one operation recovery can always rely on.
        """
        scrub((self._pmu_for(idx), idx) for idx in self._assignment.values())
        if self._mpx is not None:
            self._mpx.abort()

    def _emergency_stop(self) -> None:
        """Force the EventSet into a well-defined STOPPED state.

        A failed start, a recovery that cannot go on and the shutdown
        path end here: the counters are scrubbed, then released like a
        normal stop's -- never half-started/half-stopped.
        """
        self._scrub()
        self._release()

    def _release(self) -> None:
        """End the run: disarm its overflows, unbind an attached thread's
        counters, end a multiplex fallback and free the library's counter
        slot; never raises.

        A normal stop, a failed start and an emergency stop all end here.
        """
        for reg in self._overflows.values():
            idx = self._assignment.get(reg.native.name)
            if idx is not None:
                self._pmu_for(idx).clear_overflow(idx)
        if self._soft_overflow is not None:
            self._soft_overflow.stop()
            self._soft_overflow = None
        if self._attached is not None:
            self.substrate.os.force_release_thread_counters(self._attached)
        if self._mpx is not None:
            # kept after the run so the convergence harness can relate
            # estimate quality to how many rotations the run completed.
            self.mpx_rotations = self._mpx.rotations
            self._mpx = None
        if self._degraded:
            # the set was never multiplexed by its caller: the next run
            # counts directly, on counters allocated as add_event does.
            self._degraded = self._multiplexed = False
            self._assignment = allocate(
                self.substrate, list(self._natives.values())
            ).assignment
        self._session = None
        self._cmp_base = {}
        self._running = False
        self.papi._release_counters(self)

    def _lost_interval(self, reason: str) -> LostInterval:
        """Ledger the window since the last good observation as lost."""
        good_cyc = self._good[1] if self._good else self._start_real_cyc
        interval = LostInterval(
            start_cycle=good_cyc,
            end_cycle=self.substrate.real_cyc(),
            natives=tuple(self._natives),
            reason=reason,
        )
        self.health.lost_intervals.append(interval)
        return interval

    def _plausibility_bound(self, elapsed: int) -> int:
        """Max believable count delta over *elapsed* real cycles.

        No native event can advance faster than a few signals per cycle;
        a wild wrap (sign flip or a 2**48-scale jump) is orders of
        magnitude outside this envelope, so the check never misfires on
        clean data yet always catches injected corruption.
        """
        return 8 * max(0, elapsed) + 4096

    def _corruption_check(self, totals: Dict[str, int]) -> Dict[str, int]:
        """Replace implausible totals with the last-good values.

        A corrupt value comes from a mis-latched *read* -- the hardware
        register itself still counts correctly -- so the contained value
        is simply the last plausible one; the next read sees the true
        register again.  Every replacement is tallied in the health
        ledger: the caller gets a monotone, slightly stale number and a
        record that validation fired, never a wild total.
        """
        if self._good is None:
            return totals
        good_vals, good_cyc = self._good
        bound = self._plausibility_bound(
            self.substrate.real_cyc() - good_cyc
        )
        fixed = None
        for name, value in totals.items():
            delta = value - good_vals.get(name, 0)
            if delta < 0 or delta > bound:
                if fixed is None:
                    fixed = dict(totals)
                fixed[name] = good_vals.get(name, 0)
                self.health.corruptions += 1
        return fixed if fixed is not None else totals

    def _recover_lost(self, reason: str, stop: bool) -> Dict[str, int]:
        """Handle ``PAPI_ECLOST``: salvage, re-acquire, resume.

        Returns the salvaged per-native totals (the last plausible
        observation).  The unobserved window is recorded as a
        :class:`LostInterval`; when *stop* is false the EventSet is
        re-allocated around the stolen counter and restarted, falling
        back to multiplexing (opt-in) when re-allocation is infeasible.
        """
        interval = self._lost_interval(reason)
        good_vals = self._good[0] if self._good else {}
        self._recovery_base = {
            name: good_vals.get(name, 0) for name in self._natives
        }
        self._scrub()
        if not stop:  # a stopping run is over: the salvage is its answer
            self._reacquire(reason)
            self._note_good(self._recovery_base)
        interval.recovered = True
        return dict(self._recovery_base)

    def _reacquire(self, reason: str) -> None:
        """Restart the run on counters the thief left free.

        Emergency-stops the set and raises when neither re-allocation nor
        the opt-in multiplex fallback can carry the run on.
        """
        sub = self.substrate
        banned = sorted(sub.unavailable_counters(self._cpu))
        result = allocate(sub, list(self._natives.values()), banned=banned)
        try:
            if result.complete:
                self._assignment = dict(result.assignment)
                self._start_direct()
            elif (
                not getattr(self.papi, "degrade_to_multiplex", False)
                or self._overflows
            ):
                raise CountersLostError(
                    f"{reason}; re-allocation is infeasible "
                    f"(banned counters: {banned})"
                ) from None
            else:
                try:
                    self._degrade_to_multiplex()
                except PapiError:
                    raise CountersLostError(
                        f"{reason}; re-allocation infeasible and the "
                        f"multiplex fallback failed"
                    ) from None
        except PapiError:
            self._emergency_stop()
            raise

    def _degrade_to_multiplex(self) -> None:
        """Finish the run time-sliced when direct re-allocation failed."""
        self._assignment = {}
        self._multiplexed = self._degraded = True
        self._start_multiplexed()
        self.health.degraded_to_multiplex = True

    def _start_multiplexed(self) -> None:
        from repro.core.multiplex import MultiplexController

        self._mpx = MultiplexController(self)
        self._mpx.start()

    def _start_direct(self) -> None:
        """Program and start the assigned counters, in native order."""
        order = self._counter_order()
        self._program_and_start(order, [idx for _name, idx in order])

    def _program_and_start(
        self, counters: List[Tuple[str, int]], start: List[int]
    ) -> None:
        """Bring counters up: the one way a run's counters start.

        Programs each ``(native, index)`` of *counters* with the set's
        counting domain, starts the indices *start* through the run's
        counter calls, then arms every overflow registration: installs
        it, or rebases its software watch onto the new counter.  A
        direct start, the restart after a lost counter and every
        multiplex rotation come through here.
        """
        for name, idx in counters:
            pmu = self._pmu_for(idx)
            if pmu.running(idx):
                pmu.stop(idx)
            self._sub(lambda name=name, idx=idx: self.substrate.program_counter(
                idx, self._programmed_event(self._natives[name]),
                cpu=self._cpu,
            ))
        self._sub(lambda: self._ops.start_counters(start, cpu=self._cpu))
        for reg in self._overflows.values():
            idx = self._assignment[reg.native.name]
            soft = self._soft_overflow
            if soft is None or not soft.rebase(reg.code, idx):
                self._install_overflow(reg)

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------

    def _require_events(self) -> None:
        if not self._codes:
            raise InvalidArgumentError("EventSet has no events")

    def _counter_order(self) -> List[Tuple[str, int]]:
        """(native name, counter index) in deterministic native order."""
        return [(name, self._assignment[name]) for name in self._natives]

    def start(self) -> None:
        """PAPI_start.

        Crash-consistent: if anything fails mid-start (including an
        injected fault surviving every retry), all partially programmed
        state is rolled back through the emergency stop and the EventSet
        is left stopped, counters released, no timers armed.
        """
        self._require_events()
        if self._running:
            raise IsRunningError("EventSet is already running")
        self.papi._acquire_counters(self)
        self._ops = (
            self.substrate if self._attached is None
            else ThreadCounters(self.substrate, self._attached)
        )
        try:
            if self._sampling():
                # period override: papi.sampling_period (None = platform
                # default); the A2 ablation sweeps this.  A component-only
                # set needs no sampler: its counters are free-running.
                if self._natives:
                    self._session = self.substrate.sampling_session(
                        list(self._natives.values()),
                        period=getattr(self.papi, "sampling_period", None),
                    )
                    self._session.start()
            elif self._multiplexed:
                self._start_multiplexed()
            elif self._natives:  # a component-only set programs no counter
                self._start_direct()
        except Exception:
            self._emergency_stop()
            raise
        self._running = True
        self._start_real_cyc = self.substrate.real_cyc()
        self._recovery_base = {name: 0 for name in self._natives}
        self._note_good({name: 0 for name in self._natives})
        self._snapshot_components()

    def _snapshot_components(self) -> None:
        """Re-base every component member on its free-running total.

        Snapshot reads are charge-free (like :meth:`Substrate.arm_overflow`:
        control-plane work that must not perturb what is being measured),
        and they sit outside the fault-injection gate -- stolen or corrupt
        CPU counters cannot damage a socket-scoped base.
        """
        self._cmp_base = {
            code: self.substrate.component(comp_name).raw_value(short)
            for code, (comp_name, short) in self._cmp_events.items()
        }

    def _programmed_event(self, native: NativeEvent) -> NativeEvent:
        """Apply the counting domain to a native event's signal set."""
        from dataclasses import replace

        from repro.hw.events import Signal

        if (
            self._domain & C.PAPI_DOM_KERNEL
            and Signal.TOT_CYC in native.signals
        ):
            return replace(native, signals=native.signals + (Signal.SYS_CYC,))
        return native

    def _compute_values(self, native_values: Dict[str, int]) -> List[int]:
        out = []
        for code in self._codes:
            if code in self._cmp_events:
                comp_name, short = self._cmp_events[code]
                comp = self.substrate.component(comp_name)
                out.append(
                    comp.raw_value(short) - self._cmp_base.get(code, 0)
                )
                continue
            total = 0
            for native, coeff in self._terms[code]:
                total += coeff * native_values[native.name]
            out.append(total)
        return out

    def _read_native_values(self, stop: bool = False) -> Dict[str, int]:
        if not self._natives and not self._multiplexed:
            # component-only set: all values are snapshot deltas.
            return {}
        if self._sampling():
            assert self._session is not None
            if stop:
                self._session.stop()
            return {
                name: self._session.estimate(native)
                for name, native in self._natives.items()
            }
        if self._multiplexed:
            assert self._mpx is not None
            estimates = self._mpx.stop() if stop else self._mpx.read()
            if any(self._recovery_base.values()):
                # counts salvaged before a mid-run multiplex degradation
                estimates = {
                    name: v + self._recovery_base.get(name, 0)
                    for name, v in estimates.items()
                }
            return estimates
        order = self._counter_order()
        indices = [idx for _name, idx in order]
        op = self._ops.stop_counters if stop else self._ops.read_counters
        try:
            values = self._sub(lambda: op(indices, cpu=self._cpu))
        except CountersLostError as exc:
            return self._recover_lost(str(exc), stop=stop)
        totals = {
            name: val + self._recovery_base.get(name, 0)
            for (name, _idx), val in zip(order, values)
        }
        if self.substrate.faults is not None:
            totals = self._corruption_check(totals)
        self._note_good(totals)
        return totals

    def read(self) -> List[int]:
        """PAPI_read: values since start/reset, in event-add order."""
        if not self._running:
            raise NotRunningError("PAPI_read requires a running EventSet")
        return self._compute_values(self._read_native_values())

    def stop(self) -> List[int]:
        """PAPI_stop: stop counting and return the final values.

        Crash-consistent: a fault that survives recovery still leaves
        the EventSet fully stopped (via the emergency path) before the
        error propagates -- never half-stopped.
        """
        if not self._running:
            raise NotRunningError("EventSet is not running")
        try:
            values = self._compute_values(self._read_native_values(stop=True))
        except PapiError as exc:
            if self._running:
                # recovery itself may have already emergency-stopped
                # (and recorded its interval); only a fresh failure
                # needs the teardown here.
                self._lost_interval(f"stop failed: {exc}")
                self._emergency_stop()
            raise
        self._release()
        return values

    def reset(self) -> None:
        """PAPI_reset: zero the counters without stopping."""
        if not self._running:
            raise NotRunningError("EventSet is not running")
        if self._sampling():
            if self._session is not None:
                self._session.reset()
        elif self._multiplexed:
            assert self._mpx is not None
            self._mpx.reset()
        elif self._natives:
            indices = [idx for _name, idx in self._counter_order()]
            try:
                self._sub(lambda: self._ops.reset_counters(
                    indices, cpu=self._cpu
                ))
            except CountersLostError as exc:
                # recovery restarts the counters from the salvage point;
                # a reset discards counts anyway, so zero the bases too.
                self._recover_lost(str(exc), stop=False)
        self._recovery_base = {name: 0 for name in self._natives}
        self._note_good({name: 0 for name in self._natives})
        self._snapshot_components()

    def accum(self, values: List[int]) -> List[int]:
        """PAPI_accum: add current counts into *values*, then reset."""
        if len(values) != len(self._codes):
            raise InvalidArgumentError(
                f"expected {len(self._codes)} accumulators, got {len(values)}"
            )
        current = self.read()
        self.reset()
        return [v + c for v, c in zip(values, current)]

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(self.event_names)
        return f"<EventSet #{self.handle} [{names}] {'RUN' if self._running else 'STOP'}>"
