"""The simulated machine: CPU + memory hierarchy + PMU + clocks.

A :class:`Machine` is what a platform substrate (see
:mod:`repro.platforms`) wraps.  It owns two clocks:

- **user cycles** -- ``counts[TOT_CYC]`` -- advanced by program execution
  (including interrupt delivery costs, which delay the program);
- **system cycles** -- advanced by :meth:`Machine.charge`, which is how
  counter-interface code (reads, starts, syscalls into the kernel
  substrate) bills its cost to the machine.

``real_cycles`` (their sum) is the wall clock; the overhead experiments
(E1/E7) compare real_cycles between instrumented and uninstrumented runs,
exactly as the paper measured wall-clock dilation.  :meth:`Machine.charge`
can also *pollute* the data cache with the interface's working set,
modelling the perturbation discussed in Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.hw.cache import HierarchyConfig, MemoryHierarchy, default_hierarchy
from repro.hw.cpu import CPU, CPUConfig, MachineFault, RunResult, check_tier
from repro.hw.events import Signal, fresh_counts
from repro.hw.isa import Program
from repro.hw.pmu import PMU, PMUConfig


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of one simulated machine."""

    name: str = "sim"
    cpu: CPUConfig = field(default_factory=CPUConfig)
    hierarchy: HierarchyConfig = field(default_factory=default_hierarchy)
    pmu: PMUConfig = field(default_factory=PMUConfig)
    #: simulated core clock, cycles per microsecond (500 => 500 MHz).
    mhz: int = 500
    seed: int = 12345
    #: execution-engine tier (see repro/hw/blockcache.py): "off" (pure
    #: interpreter) or "trace" (compiled blocks and compiled loop
    #: regions).  The engine is bit-exact with the interpreter --
    #: identical counts, cache state and interrupt delivery -- so this
    #: only trades simulation speed.
    engine: str = "trace"
    #: number of CPUs.  Each CPU gets its own signal-counts array, PMU
    #: and block engine (private decode caches); the memory hierarchy is
    #: shared.  ``ncpus=1`` is bit-exact with the historical single-CPU
    #: machine.
    ncpus: int = 1

    def __post_init__(self) -> None:
        if self.mhz < 1:
            raise ValueError("clock rate must be at least 1 MHz")
        if self.ncpus < 1:
            raise ValueError("a machine needs at least one CPU")
        check_tier(self.engine)


class Machine:
    """One simulated computer (possibly SMP).

    Each CPU owns a private signal-counts array shared by reference with
    its private PMU (which reads it), so counter reads are just integer
    subtraction -- the same cheap register-delta model as real hardware.
    The memory hierarchy (caches, TLB, predictor-free parts) is shared by
    every CPU, as on a simple shared-cache SMP.

    For backwards compatibility ``machine.cpu``, ``machine.pmu`` and
    ``machine.counts`` refer to CPU 0; single-CPU code keeps working
    unchanged and is bit-exact with the historical machine.
    """

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.system_cycles = 0
        self._probes: Dict[int, Callable[[int, CPU], None]] = {}
        self.cpus: List[CPU] = []
        for i in range(self.config.ncpus):
            counts = fresh_counts()
            # CPU 0 keeps the machine seed exactly (bit-exact with the
            # single-CPU machine); siblings get derived streams so their
            # skid/sampling jitter is independent.
            pmu = PMU(self.config.pmu, counts,
                      seed=self.config.seed + 7919 * i)
            cpu = CPU(
                self.config.cpu,
                hierarchy=self.hierarchy,
                pmu=pmu,
                counts=counts,
                engine=self.config.engine,
            )
            cpu.cpu_index = i
            cpu.probe_dispatch = self._dispatch_probe
            cpu.probe_resolver = self._probes.get
            self.cpus.append(cpu)
        #: scratch addresses the counter interface touches when polluting;
        #: chosen high so they collide with application lines by indexing.
        self._pollution_base = 1 << 30

    # -- CPU-0 compatibility aliases -----------------------------------

    @property
    def cpu(self) -> CPU:
        return self.cpus[0]

    @property
    def pmu(self) -> PMU:
        return self.cpus[0].pmu

    @property
    def counts(self) -> List[int]:
        return self.cpus[0].counts

    @property
    def ncpus(self) -> int:
        return self.config.ncpus

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------

    @property
    def user_cycles(self) -> int:
        """Execution cycles summed over every CPU."""
        if len(self.cpus) == 1:
            return self.cpus[0].counts[Signal.TOT_CYC]
        return sum(c.counts[Signal.TOT_CYC] for c in self.cpus)

    @property
    def real_cycles(self) -> int:
        return self.user_cycles + self.system_cycles

    @property
    def real_usec(self) -> float:
        return self.real_cycles / self.config.mhz

    def charge(self, cycles: int, pollute_lines: int = 0,
               cpu: int = 0) -> None:
        """Bill *cycles* of counter-interface work to the machine.

        When *pollute_lines* > 0, that many distinct cache lines are
        touched as data accesses (without counting as application events),
        evicting application state -- the paper's cache-pollution effect.
        *cpu* selects which CPU's kernel-cycle signal the work is billed
        to (the CPU the interface call executed on).
        """
        if cycles < 0 or pollute_lines < 0:
            raise ValueError("cannot charge negative work")
        self.system_cycles += cycles
        # kernel-domain cycles are also a signal, so DOM_ALL counters on
        # the cycle event can include interface work (PAPI_set_domain).
        self.cpus[cpu].counts[Signal.SYS_CYC] += cycles
        if pollute_lines:
            line = self.hierarchy.config.l1d.line_bytes
            base = self._pollution_base
            self.hierarchy.pollute(
                base + i * line for i in range(pollute_lines)
            )

    # ------------------------------------------------------------------
    # program control
    # ------------------------------------------------------------------

    def load(self, program: Program, heap_words: Optional[int] = None) -> None:
        self.cpu.load(program, heap_words=heap_words)

    @property
    def program(self) -> Optional[Program]:
        return self.cpu.program

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> RunResult:
        return self.cpu.run(max_instructions=max_instructions, max_cycles=max_cycles)

    def run_to_completion(self, budget_instructions: int = 50_000_000) -> RunResult:
        """Run until HALT; raises if the budget is exhausted (runaway guard)."""
        result = self.cpu.run(max_instructions=budget_instructions)
        if not result.halted:
            raise MachineFault(
                f"program did not halt within {budget_instructions} instructions"
            )
        return result

    # ------------------------------------------------------------------
    # probes (instrumentation hook used by dynaprof / the PAPI library)
    # ------------------------------------------------------------------

    def register_probe(self, probe_id: int, handler: Callable[[int, CPU], None]) -> None:
        if probe_id in self._probes:
            raise ValueError(f"probe id {probe_id} already registered")
        self._probes[probe_id] = handler
        self._invalidate_engines()

    def unregister_probe(self, probe_id: int) -> None:
        if self._probes.pop(probe_id, None) is not None:
            self._invalidate_engines()

    def clear_probes(self) -> None:
        if self._probes:
            self._probes.clear()
            self._invalidate_engines()

    def _invalidate_engines(self) -> None:
        """Drop compiled code on every CPU after a probe-registry change.

        Compiled regions pre-resolve probe handlers (and compile
        handler-less probes down to bare counts), so any registration
        change makes cached regions stale; recompilation re-resolves
        against the updated registry.
        """
        for c in self.cpus:
            if c.engine is not None:
                c.engine.invalidate()

    def _dispatch_probe(self, probe_id: int, cpu: CPU) -> None:
        handler = self._probes.get(probe_id)
        if handler is not None:
            handler(probe_id, cpu)

    # ------------------------------------------------------------------
    # signal access / reset
    # ------------------------------------------------------------------

    def signal_total(self, signal: int) -> int:
        """Raw machine-lifetime total of one event signal (all CPUs)."""
        if len(self.cpus) == 1:
            return self.cpus[0].counts[signal]
        return sum(c.counts[signal] for c in self.cpus)

    def socket_activity(self) -> Dict[str, int]:
        """Socket-scoped raw activity totals for non-CPU components.

        Uncore and energy counters are free-running at the socket level:
        each entry sums a per-CPU signal over every CPU (or reports shared
        hierarchy geometry), so the totals are invariant under thread
        placement and migration -- the per-CPU split changes, the socket
        sums do not.  Interface charges bill ``SYS_CYC`` only (see
        :meth:`charge`), so none of these totals move when the counter
        interface itself runs.
        """
        return {
            "instructions": self.signal_total(Signal.TOT_INS),
            "cycles": self.signal_total(Signal.TOT_CYC),
            "stores": self.signal_total(Signal.SR_INS),
            "l2_lines_in": self.signal_total(Signal.L2_MISS),
            "tlb_walks": self.signal_total(Signal.TLB_DM),
            "l2_line_bytes": self.hierarchy.l2_line_bytes,
        }

    def engine_stats(self):
        """CPU 0's block-engine counters, or None when the engine is off."""
        return self.cpu.engine_stats()

    def reset(self) -> None:
        """Power-cycle: zero all signals, flush caches, reset the PMUs.

        The loaded program (if any) must be re-loaded afterwards.
        """
        self.system_cycles = 0
        self.hierarchy.flush()
        self.hierarchy.reset_stats()
        for cpu in self.cpus:
            for i in range(len(cpu.counts)):
                cpu.counts[i] = 0
            cpu.pmu.reset()
            cpu.predictor.reset()
            cpu.halted = True
            cpu.program = None
            cpu.code = []
            if cpu.engine is not None:
                cpu.engine.invalidate()
        self._probes.clear()
