"""The substrate interface: PAPI's machine-dependent layer.

The paper (Figure 1) splits the PAPI implementation into a portable
library over a per-platform *substrate* -- "all that needs to be
rewritten to port PAPI to a new architecture".  A substrate bundles:

- the simulated :class:`~repro.hw.machine.Machine` (with its platform-
  specific PMU geometry, predictor, cache sizes and clock rate);
- the **native event table**: the events this platform documents, each a
  combination of one or more hardware signals, possibly restricted to a
  subset of the physical counters or organized into counter *groups*
  (the POWER model);
- the **access cost model**: how many simulated cycles each counter
  operation costs through this platform's native interface -- register
  reads (Cray T3E) are cheap, kernel-patch syscalls (Linux/x86) are
  expensive, vendor libraries (AIX pmtoolkit) sit in between, and
  sampling daemons (Tru64 DCPI/DADD) amortize their cost over interrupt
  deliveries instead of read calls;
- the **counting style**: ``direct`` substrates program physical
  counters; the ``sampling`` substrate (simALPHA) cannot count directly
  at all and estimates aggregate counts from ProfileMe samples.

Everything above the substrate -- EventSets, presets, multiplexing,
overflow dispatch, profiling -- is the portable library in
:mod:`repro.core` and never touches the machine directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hw.machine import Machine, MachineConfig
from repro.simos.scheduler import OS

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.hw.pmu import OverflowRecord


class SubstrateError(Exception):
    """Raised for substrate-level failures (bad events, unsupported ops)."""


@dataclass(frozen=True)
class NativeEvent:
    """One documented native event of a platform.

    ``signals`` is the set of hardware signals whose sum this event
    counts -- most are single-signal, but platform quirks are expressed
    here (e.g. simPOWER's ``PM_FPU_INS`` includes the precision-convert
    signal, reproducing the POWER3 rounding-instruction discrepancy).

    ``allowed_counters`` restricts which physical counters can host the
    event (``None`` = any); this is the raw material of the counter
    allocation problem.
    """

    name: str
    signals: Tuple[int, ...]
    description: str = ""
    allowed_counters: Optional[Tuple[int, ...]] = None

    def can_use(self, counter: int) -> bool:
        return self.allowed_counters is None or counter in self.allowed_counters


@dataclass(frozen=True)
class CounterGroup:
    """A POWER-style counter group: a fixed event->counter assignment.

    On group-managed platforms an EventSet must be satisfiable by a
    single group; the hardware-dependent half of the allocator picks the
    group (see :mod:`repro.core.allocation.translate`).
    """

    gid: int
    assignments: Dict[str, int]  # native event name -> counter index

    def covers(self, names: Sequence[str]) -> bool:
        return all(n in self.assignments for n in names)


@dataclass(frozen=True)
class AccessCosts:
    """Simulated-cycle cost of each native-interface operation."""

    read: int           #: one read call (all of an EventSet's counters)
    read_per_counter: int
    start: int
    stop: int
    program: int        #: programming one control register
    reset: int
    #: distinct cache lines the interface touches per call (pollution).
    pollute_lines: int = 0

    def per_op(self, n_counters: int) -> Dict[str, int]:
        """Documented wall cycles of start/read/reset/stop on an
        EventSet of *n_counters* natives (what the cost probe times)."""
        return {
            "start": self.program * n_counters + self.start,
            "read": self.read + self.read_per_counter * n_counters,
            "reset": self.reset,
            "stop": self.stop,
        }


class Substrate:
    """Base class for the five simulated platforms.

    Subclasses define class attributes ``NAME``, ``STYLE``, ``COUNTING``,
    ``COSTS``, build their machine config in :meth:`_machine_config` and
    their event table in :meth:`_native_events` (plus optional
    :meth:`_groups`).
    """

    NAME = "abstract"
    STYLE = "abstract"          # register | syscall | library | sampling
    COUNTING = "direct"         # direct | sampling
    COSTS = AccessCosts(read=0, read_per_counter=0, start=0, stop=0,
                        program=0, reset=0)
    DESCRIPTION = ""
    #: whether the modelled FPU has fused multiply-add; drives workload
    #: generation and the preset-table FMA-normalization lint (PL203).
    HAS_FMA = False
    #: the attribution mechanism ``PAPI_profil`` rides on here:
    #: ``overflow`` (interrupt pc, subject to skid), ``profileme``
    #: (precise retire-time hardware sampling).  The validate harness's
    #: skid plane keys its pass criteria on this plus :attr:`skid_max`.
    PROFILING = "overflow"

    def __init__(self, seed: int = 12345, ncpus: int = 1,
                 engine: str = "trace") -> None:
        config = self._machine_config(seed)
        if config.engine != engine:
            config = dataclasses.replace(config, engine=engine)
        if config.ncpus != ncpus:
            config = dataclasses.replace(config, ncpus=ncpus)
        self.machine = Machine(config)
        self.os = OS(self.machine)
        self.native_events: Dict[str, NativeEvent] = {
            ev.name: ev for ev in self._native_events()
        }
        self.groups: Optional[List[CounterGroup]] = self._groups()
        self._validate_tables()
        # the PAPI-C component registry: this substrate's PMU is component
        # 0 (the CPU component), followed by the socket-scoped uncore and
        # energy planes.  Imported at function level: repro.components
        # pulls in repro.core, whose package init imports this module.
        from repro.components import build_components

        self.components = build_components(
            self, uncore_counters=self._uncore_counters()
        )
        self._component_by_name = {c.name: c for c in self.components}
        #: cumulative cycles this substrate's interface has charged.
        self.interface_cycles = 0
        #: attached fault injector (:mod:`repro.faults`); ``None`` keeps
        #: every counter op on the byte-identical clean path.
        self.faults: Optional["FaultInjector"] = None

    # -- subclass hooks ---------------------------------------------------

    def _machine_config(self, seed: int) -> MachineConfig:
        raise NotImplementedError

    def _native_events(self) -> Sequence[NativeEvent]:
        raise NotImplementedError

    def _groups(self) -> Optional[List[CounterGroup]]:
        return None

    def _uncore_counters(self) -> int:
        """Physical counters in this platform's uncore bank (override)."""
        return 2

    # -- validation ---------------------------------------------------------

    def _validate_tables(self) -> None:
        n = self.n_counters
        for ev in self.native_events.values():
            if ev.allowed_counters is not None:
                for c in ev.allowed_counters:
                    if not 0 <= c < n:
                        raise SubstrateError(
                            f"{self.NAME}: event {ev.name} allows counter {c} "
                            f"but the PMU has only {n}"
                        )
        if self.groups is not None:
            for g in self.groups:
                for name, c in g.assignments.items():
                    if name not in self.native_events:
                        raise SubstrateError(
                            f"{self.NAME}: group {g.gid} references unknown "
                            f"event {name!r}"
                        )
                    if not 0 <= c < n:
                        raise SubstrateError(
                            f"{self.NAME}: group {g.gid} uses counter {c}"
                        )

    # -- properties ---------------------------------------------------------

    @property
    def n_counters(self) -> int:
        return self.machine.pmu.config.n_counters

    @property
    def skid_max(self) -> int:
        """Worst-case overflow-interrupt skid, in retired instructions.

        0 means interrupt-pc profiling is precise here (in-order cores);
        larger values smear ``PAPI_profil`` histograms downstream of the
        causing instruction -- the Section 4 attribution hazard the
        validate harness's skid plane measures.
        """
        return self.machine.pmu.config.skid_max

    @property
    def uses_groups(self) -> bool:
        return self.groups is not None

    def query_native(self, name: str) -> NativeEvent:
        try:
            return self.native_events[name]
        except KeyError:
            raise SubstrateError(
                f"{self.NAME}: no native event named {name!r}"
            ) from None

    def list_native(self) -> List[NativeEvent]:
        return sorted(self.native_events.values(), key=lambda e: e.name)

    # -- components -----------------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def component_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def component(self, name: str):
        """Look up a component by name; raises ``PAPI_ENOCMP`` if absent."""
        comp = self._component_by_name.get(name)
        if comp is None:
            from repro.core.errors import NoSuchComponentError

            raise NoSuchComponentError(
                f"{self.NAME}: no component named {name!r} "
                f"(have {', '.join(self.component_names)})"
            )
        return comp

    def component_by_id(self, cid: int):
        if 0 <= cid < len(self.components):
            return self.components[cid]
        from repro.core.errors import NoSuchComponentError

        raise NoSuchComponentError(f"{self.NAME}: no component id {cid}")

    # -- fault injection ------------------------------------------------------

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Route every counter op through *injector* (see repro.faults)."""
        injector.bind(self)
        self.faults = injector

    def detach_faults(self) -> None:
        if self.faults is not None:
            self.faults.unbind()
            self.faults = None

    def _gate(self, op: str, indices: Sequence[int], cpu: int) -> None:
        """Fault-injection gate; a no-op unless an injector is attached."""
        if self.faults is not None:
            self.faults.before_op(op, indices, cpu)

    def unavailable_counters(self, cpu: int = 0) -> FrozenSet[int]:
        """Counters currently held by other users of the machine.

        Only ever non-empty under fault injection; the allocator's
        recovery path bans these indices when re-acquiring after
        ``PAPI_ECLOST``.
        """
        if self.faults is not None:
            return self.faults.unavailable(cpu)
        return frozenset()

    # -- cost charging --------------------------------------------------------

    def _charge(self, cycles: int) -> None:
        self.machine.charge(cycles, pollute_lines=self.COSTS.pollute_lines)
        self.interface_cycles += cycles

    # -- direct counting operations --------------------------------------------
    # The PAPI core calls these with concrete counter assignments produced
    # by the allocator.  Sampling substrates override them to raise, and
    # provide the sampling session API instead.  *cpu* selects which
    # per-CPU PMU the operation targets (CPU 0 = the classic single-CPU
    # path; EventSets pinned elsewhere pass their bound CPU).

    def _cpu_pmu(self, cpu: int):
        return self.machine.cpus[cpu].pmu

    def program_counter(self, index: int, event: NativeEvent,
                        cpu: int = 0) -> None:
        self._charge(self.COSTS.program)
        self._gate("program", (index,), cpu)
        self._cpu_pmu(cpu).program(index, event.signals)

    def clear_counter(self, index: int, cpu: int = 0) -> None:
        self._charge(self.COSTS.program)
        self._gate("clear", (index,), cpu)
        self._cpu_pmu(cpu).clear(index)

    def start_counters(self, indices: Sequence[int], cpu: int = 0) -> None:
        self._charge(self.COSTS.start)
        self._gate("start", indices, cpu)
        pmu = self._cpu_pmu(cpu)
        for i in indices:
            pmu.start(i)

    def stop_counters(self, indices: Sequence[int], cpu: int = 0) -> List[int]:
        self._charge(self.COSTS.stop)
        self._gate("stop", indices, cpu)
        pmu = self._cpu_pmu(cpu)
        values = [pmu.stop(i) for i in indices]
        if self.faults is not None:
            values = self.faults.filter_values("stop", indices, values, cpu)
        return values

    def read_counters(self, indices: Sequence[int], cpu: int = 0) -> List[int]:
        self._charge(self.COSTS.read + self.COSTS.read_per_counter * len(indices))
        self._gate("read", indices, cpu)
        pmu = self._cpu_pmu(cpu)
        values = [pmu.read(i) for i in indices]
        if self.faults is not None:
            values = self.faults.filter_values("read", indices, values, cpu)
        return values

    def reset_counters(self, indices: Sequence[int], cpu: int = 0) -> None:
        self._charge(self.COSTS.reset)
        self._gate("reset", indices, cpu)
        pmu = self._cpu_pmu(cpu)
        for i in indices:
            pmu.write(i, 0)

    # -- overflow arming --------------------------------------------------------
    # Arming goes through the substrate (rather than the library poking
    # the PMU directly) so injected faults can make it fail, driving the
    # software-emulation fallback.  Arming is control-plane work batched
    # into the surrounding program/start calls, so it charges nothing --
    # the clean path stays bit-exact with the historical behaviour.

    def arm_overflow(self, index: int, threshold: int,
                     handler: Callable[["OverflowRecord"], None],
                     cpu: int = 0) -> None:
        self._gate("arm", (index,), cpu)
        self._cpu_pmu(cpu).set_overflow(index, threshold, handler)

    def disarm_overflow(self, index: int, cpu: int = 0) -> None:
        self._cpu_pmu(cpu).clear_overflow(index)

    # -- sampling (overridden by simALPHA) -----------------------------------

    def supports_sampling_counts(self) -> bool:
        return self.COUNTING == "sampling"

    # -- timers -----------------------------------------------------------------

    def real_cyc(self) -> int:
        """Wall-clock cycles (user + interface/system work)."""
        return self.machine.real_cycles

    def real_usec(self) -> float:
        return self.machine.real_cycles / self.machine.config.mhz

    def virt_cyc(self, thread=None) -> int:
        """Process/thread-virtual cycles (excludes other threads' time)."""
        if thread is None:
            return self.machine.user_cycles
        return thread.user_cycles

    def virt_usec(self, thread=None) -> float:
        return self.virt_cyc(thread) / self.machine.config.mhz

    # -- info ----------------------------------------------------------------

    def describe(self) -> str:
        kind = f"{self.STYLE} interface, {self.COUNTING} counting"
        return (
            f"{self.NAME}: {self.DESCRIPTION} ({kind}; "
            f"{self.n_counters} counters, "
            f"{len(self.native_events)} native events)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Substrate {self.NAME}>"
