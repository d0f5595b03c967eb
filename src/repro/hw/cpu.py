"""The interpreter CPU: executes programs and raises event signals.

This is the hot path of the whole reproduction -- every simulated
instruction flows through :meth:`CPU.run` -- so the loop is written as one
big dispatch with local-variable aliases, at some cost in elegance.  The
rest of the system only touches the CPU through its architectural state
(registers, memory, pc), the signal counts array, and the PMU hooks.

Event semantics (what increments what) are documented in
:mod:`repro.hw.events`; latencies and penalties come from
:class:`CPUConfig` so platforms can differ.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.hw.branch import BranchPredictor, make_predictor
from repro.hw.cache import MemoryHierarchy
from repro.hw.events import Signal, fresh_counts
from repro.hw.isa import (
    DATA_SEGMENT_BASE,
    INS_BYTES,
    NUM_FREGS,
    NUM_IREGS,
    WORD_BYTES,
    Op,
    Program,
)
from repro.hw.pmu import PMU, SampleRecord


class MachineFault(Exception):
    """Raised for runtime faults: bad memory access, divide by zero, ..."""


#: execution-engine tiers: the pure interpreter, and the engine of
#: :mod:`repro.hw.blockcache` (compiled blocks and compiled loop
#: regions).  The tiers are bit-exact with each other; they differ only
#: in simulation speed.
ENGINE_TIERS = ("off", "trace")


def check_tier(tier: object) -> None:
    """Reject anything but one of :data:`ENGINE_TIERS`."""
    if tier not in ENGINE_TIERS:
        raise ValueError(
            f"unknown engine tier {tier!r}; expected one of {ENGINE_TIERS}"
        )


_F32 = struct.Struct("<f")


def _round_to_single(x: float) -> float:
    """Round a double to IEEE single precision (the FCVT operation)."""
    return _F32.unpack(_F32.pack(x))[0]


def default_latencies() -> List[int]:
    """Base latency (cycles) per opcode, before memory/branch penalties."""
    lat = [1] * Op.N_OPS
    lat[Op.MUL] = 3
    lat[Op.DIV] = 12
    lat[Op.FADD] = 2
    lat[Op.FSUB] = 2
    lat[Op.FMUL] = 3
    lat[Op.FDIV] = 14
    lat[Op.FSQRT] = 20
    lat[Op.FMA] = 3
    lat[Op.FCVT] = 2
    return lat


@dataclass(frozen=True)
class CPUConfig:
    """Microarchitectural parameters of one simulated CPU."""

    predictor: str = "two-bit"
    branch_penalty: int = 6
    syscall_cost: int = 200
    latencies: Tuple[int, ...] = tuple(default_latencies())
    #: heap words appended beyond the program's declared data size.
    heap_words: int = 0

    def __post_init__(self) -> None:
        if len(self.latencies) != Op.N_OPS:
            raise ValueError("latencies must cover every opcode")
        if self.branch_penalty < 0 or self.syscall_cost < 0:
            raise ValueError("penalties must be non-negative")


@dataclass
class RunResult:
    """Outcome of one :meth:`CPU.run` slice."""

    reason: str                 #: "halt" | "max_instructions" | "max_cycles" | "stop"
    instructions: int           #: instructions retired during this slice
    cycles: int                 #: cycles elapsed during this slice

    @property
    def halted(self) -> bool:
        return self.reason == "halt"


@dataclass
class CPUContext:
    """Snapshot of architectural state (for thread context switching)."""

    pc: int
    data_base: int
    iregs: List[int]
    fregs: List[float]
    call_stack: List[int]
    halted: bool
    cur_iline: int
    code: List[tuple]
    memory: List[float]
    program: Optional[Program]
    touched_pages: Set[int]


class CPU:
    """Interpreter for the simulated ISA.

    A :class:`~repro.hw.machine.Machine` owns one or more CPUs, each
    with a private PMU, signal-counts array and block engine (so decode
    caches are per-CPU) over a shared memory hierarchy.  Threads are
    time-multiplexed onto CPUs by saving/restoring :class:`CPUContext`.
    """

    def __init__(
        self,
        config: Optional[CPUConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        pmu: Optional[PMU] = None,
        counts: Optional[List[int]] = None,
        engine: str = "trace",
    ) -> None:
        self.config = config or CPUConfig()
        self.counts: List[int] = counts if counts is not None else fresh_counts()
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.pmu = pmu  # may be attached later by the Machine
        self.predictor: BranchPredictor = make_predictor(self.config.predictor)
        # architectural state
        self.pc = 0
        self.iregs: List[int] = [0] * NUM_IREGS
        self.fregs: List[float] = [0.0] * NUM_FREGS
        self.call_stack: List[int] = []
        self.halted = True
        self.cur_iline = -1
        self.code: List[tuple] = []
        self.memory: List[float] = []
        self.program: Optional[Program] = None
        self.touched_pages: Set[int] = set()
        #: byte address where this context's data segment lives; threads
        #: get distinct bases so their pages/lines do not alias (distinct
        #: physical memory, as on a real machine).
        self.data_base: int = DATA_SEGMENT_BASE
        #: position of this CPU in its machine's ``cpus`` list (set by
        #: the Machine; 0 for standalone CPUs and single-CPU machines).
        self.cpu_index: int = 0
        #: invoked as ``probe_dispatch(probe_id, cpu)`` on PROBE opcodes.
        self.probe_dispatch: Optional[Callable[[int, "CPU"], None]] = None
        #: optional ``probe_id -> handler-or-None`` lookup the trace
        #: engine uses to pre-resolve probe handlers at region compile
        #: time (the Machine installs ``dict.get`` of its registry and
        #: invalidates engines whenever registrations change).
        self.probe_resolver: Optional[Callable[[int], object]] = None
        #: set by external code to make :meth:`run` return early.
        self.stop_flag = False
        # derived constants
        self._page_shift = self.hierarchy.config.tlb.page_bits
        self._iline_shift = self.hierarchy.config.l1i.line_bits
        #: execution engine at the *engine* tier (None at "off": pure
        #: interpreter).  The engine is bit-exact with the interpreter at
        #: every tier; see :mod:`repro.hw.blockcache` for the contract.
        check_tier(engine)
        self.engine = None
        if engine != "off":
            from repro.hw.blockcache import BlockEngine

            self.engine = BlockEngine(self)
            if self.pmu is not None:
                self.pmu.set_flush_hook(self.engine.flush)
                self.pmu.unquiet_hook = self.engine.unbind

    # ------------------------------------------------------------------
    # program loading / context switching
    # ------------------------------------------------------------------

    def load(self, program: Program, heap_words: Optional[int] = None) -> None:
        """Load *program*, allocate its memory and reset architectural state.

        Reloading the Program already loaded keeps its resolved code, and
        with it the engine's code table; any other Program retires it.
        """
        heap = self.config.heap_words if heap_words is None else heap_words
        if program is not self.program or not self.code:
            if self.engine is not None and self.code:
                self.engine.retire(self.code)
            self.program = program
            self.code = program.resolve()
        elif self.engine is not None:
            # same code, but the registers and memory bound to the
            # engine are replaced below.
            self.engine.unbind()
        self.memory = program.initial_memory(heap)
        self.pc = program.label_at(program.entry)
        self.iregs = [0] * NUM_IREGS
        self.fregs = [0.0] * NUM_FREGS
        self.call_stack = []
        self.halted = False
        self.cur_iline = -1
        self.touched_pages = set()
        self.data_base = DATA_SEGMENT_BASE
        self.stop_flag = False

    def save_context(self) -> CPUContext:
        return CPUContext(
            pc=self.pc,
            data_base=self.data_base,
            iregs=list(self.iregs),
            fregs=list(self.fregs),
            call_stack=list(self.call_stack),
            halted=self.halted,
            cur_iline=self.cur_iline,
            code=self.code,
            memory=self.memory,
            program=self.program,
            touched_pages=self.touched_pages,
        )

    def restore_context(self, ctx: CPUContext) -> None:
        self.pc = ctx.pc
        self.data_base = ctx.data_base
        self.iregs = list(ctx.iregs)
        self.fregs = list(ctx.fregs)
        self.call_stack = list(ctx.call_stack)
        self.halted = ctx.halted
        # force an instruction refetch: the incoming thread's lines may
        # have been evicted while it was descheduled.
        self.cur_iline = -1
        self.code = ctx.code
        self.memory = ctx.memory
        self.program = ctx.program
        self.touched_pages = ctx.touched_pages
        if self.engine is not None:
            # the incoming thread's register/memory objects differ from
            # the bound ones; drop the binding until the next run().
            self.engine.unbind()

    # ------------------------------------------------------------------
    # block-engine control
    # ------------------------------------------------------------------

    def engine_barrier(self) -> None:
        """External machine-state change (cache pollution, reset, ...).

        Flushes the engine; a no-op when the engine is disabled.
        """
        if self.engine is not None:
            self.engine.flush()

    def engine_stats(self):
        """The engine's :class:`~repro.hw.blockcache.EngineStats`, or None."""
        return self.engine.stats if self.engine is not None else None

    def migrate(self, program: Program, remap: Callable[[int], int]) -> None:
        """Move a paused CPU onto rewritten *program* (dynaprof attach).

        ``remap`` translates old instruction indices to new ones; it is
        applied to the pc and every return address on the call stack.
        """
        if self.engine is not None and self.code:
            # probe insertion rewrote the program: retire the old decode
            # cache (pcs and block shapes no longer match).
            self.engine.retire(self.code)
        self.program = program
        self.code = program.resolve()
        self.pc = remap(self.pc)
        self.call_stack = [remap(ra) for ra in self.call_stack]
        self.cur_iline = -1
        needed = program.data_size
        if len(self.memory) < needed:
            self.memory.extend([0] * (needed - len(self.memory)))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> RunResult:
        """Execute until HALT, an instruction/cycle budget, or stop_flag.

        ``max_cycles`` is a budget of *additional* cycles for this slice
        (used by the scheduler for time quanta).
        """
        if self.halted:
            return RunResult("halt", 0, 0)
        if not self.code:
            raise MachineFault("no program loaded")

        # --- local aliases for the hot loop -----------------------------
        code = self.code
        counts = self.counts
        iregs = self.iregs
        fregs = self.fregs
        memory = self.memory
        mem_len = len(memory)
        call_stack = self.call_stack
        hierarchy = self.hierarchy
        data_access = hierarchy.data_access
        inst_fetch = hierarchy.inst_fetch
        predictor = self.predictor
        predict = predictor.predict
        pred_update = predictor.update
        pmu = self.pmu
        branch_penalty = self.config.branch_penalty
        syscall_cost = self.config.syscall_cost
        lat = self.config.latencies
        page_shift = self._page_shift
        iline_shift = self._iline_shift
        touched = self.touched_pages
        data_base = self.data_base
        probe_dispatch = self.probe_dispatch

        pc = self.pc
        cur_iline = self.cur_iline
        executed = 0
        cycle0 = counts[Signal.TOT_CYC]
        ins_budget = max_instructions if max_instructions is not None else -1
        cyc_budget = (cycle0 + max_cycles) if max_cycles is not None else -1

        # block engine: compiled fast path for block-leader pcs.  Any pc
        # in ``denied`` (probes, syscalls, halts, mid-block resumes) and
        # any block that could cross a PMU/budget deadline falls through
        # to the interpreter body below, which remains the precise
        # reference path.
        engine = self.engine
        denied = None
        if engine is not None:
            _blocks, denied = engine.begin()
            engine_execute = engine.execute

        TOT_INS = Signal.TOT_INS
        TOT_CYC = Signal.TOT_CYC
        STL_CYC = Signal.STL_CYC
        INT_INS = Signal.INT_INS
        LD_INS = Signal.LD_INS
        SR_INS = Signal.SR_INS
        BR_INS = Signal.BR_INS
        BR_CN = Signal.BR_CN
        BR_TKN = Signal.BR_TKN
        BR_NTK = Signal.BR_NTK
        BR_MSP = Signal.BR_MSP
        L1D_ACC = Signal.L1D_ACC
        L1D_MISS = Signal.L1D_MISS
        L1I_ACC = Signal.L1I_ACC
        L1I_MISS = Signal.L1I_MISS
        L2_ACC = Signal.L2_ACC
        L2_MISS = Signal.L2_MISS
        TLB_DM = Signal.TLB_DM
        MEM_RCY = Signal.MEM_RCY

        reason = "halt"
        while True:
            if self.stop_flag:
                reason = "stop"
                break
            if executed == ins_budget:
                reason = "max_instructions"
                break
            if cyc_budget >= 0 and counts[TOT_CYC] >= cyc_budget:
                reason = "max_cycles"
                break

            if denied is not None and pc not in denied:
                res = engine_execute(
                    pc,
                    cur_iline,
                    ins_budget - executed if ins_budget >= 0 else -1,
                    cyc_budget,
                )
                if res is not None:
                    pc, cur_iline, n = res
                    executed += n
                    if engine.probe_exit_pc >= 0:
                        # a probe handler perturbed the machine inside a
                        # compiled region; the probe retired in-region
                        # without its post-retire hooks.  Resync if the
                        # handler rewrote or reloaded the program, then
                        # run the PMU hooks the interpreter would have
                        # run for it.
                        exec_pc = engine.probe_exit_pc
                        engine.probe_exit_pc = -1
                        if self.code is not code or self.memory is not memory:
                            code = self.code
                            memory = self.memory
                            mem_len = len(memory)
                            iregs = self.iregs
                            fregs = self.fregs
                            call_stack = self.call_stack
                            touched = self.touched_pages
                            data_base = self.data_base
                            probe_dispatch = self.probe_dispatch
                            cur_iline = -1
                            if (
                                0 <= self.pc < len(code)
                                and code[self.pc][0] == Op.PROBE
                            ):
                                pc = self.pc + 1
                            else:
                                pc = self.pc
                            _blocks, denied = engine.begin()
                            engine_execute = engine.execute
                        if pmu is not None:
                            if pmu.sampler is not None:
                                pmu.sample_countdown -= 1
                                if pmu.sample_countdown <= 0:
                                    sample = SampleRecord(
                                        pc=exec_pc,
                                        opcode=Op.PROBE,
                                        cycle=counts[TOT_CYC],
                                        is_load=False,
                                        is_store=False,
                                        is_fp=Op.FLI <= Op.PROBE <= Op.FCVT,
                                        is_branch=Op.JMP <= Op.PROBE <= Op.RET,
                                        br_mispred=False,
                                        l1d_miss=False,
                                        l2_miss=False,
                                        tlb_miss=False,
                                        latency=lat[Op.PROBE],
                                    )
                                    hw = pmu.deliver_sample(sample)
                                    counts[TOT_CYC] += (
                                        hw * pmu.config.interrupt_cost
                                    )
                                    counts[Signal.HW_INT] += hw
                            if pmu.watch_active:
                                hw = pmu.check_overflow(pc, counts[TOT_CYC])
                                if hw:
                                    counts[TOT_CYC] += (
                                        hw * pmu.config.interrupt_cost
                                    )
                                    counts[Signal.HW_INT] += hw
                            if pmu.timer_active:
                                hw = pmu.check_timer(counts[TOT_CYC])
                                if hw:
                                    counts[Signal.HW_INT] += hw
                    continue

            # ---- instruction fetch -------------------------------------
            byte_pc = pc * INS_BYTES
            iline = byte_pc >> iline_shift
            if iline != cur_iline:
                cur_iline = iline
                flat, i1m, l2m = inst_fetch(byte_pc)
                counts[L1I_ACC] += 1
                if i1m:
                    counts[L1I_MISS] += 1
                    counts[L2_ACC] += 1
                    if l2m:
                        counts[L2_MISS] += 1
                if flat:
                    counts[TOT_CYC] += flat
                    counts[STL_CYC] += flat

            try:
                op, a, b, c, d = code[pc]
            except IndexError:
                raise MachineFault(f"pc out of range: {pc}") from None

            counts[TOT_INS] += 1
            counts[TOT_CYC] += lat[op]
            executed += 1
            next_pc = pc + 1
            exec_pc = pc
            mem_l1m = mem_l2m = mem_tlbm = br_msp = False
            mem_penalty = 0

            # ---- execute ------------------------------------------------
            if op == Op.FLOAD or op == Op.LOAD:
                addr = iregs[b] + d
                if not 0 <= addr < mem_len:
                    raise MachineFault(
                        f"pc {pc}: load address {addr} out of range"
                    )
                byte_addr = addr * WORD_BYTES + data_base
                penalty, l1m, l2m, tlbm = data_access(byte_addr)
                mem_l1m, mem_l2m, mem_tlbm, mem_penalty = l1m, l2m, tlbm, penalty
                counts[LD_INS] += 1
                counts[L1D_ACC] += 1
                if l1m:
                    counts[L1D_MISS] += 1
                    counts[L2_ACC] += 1
                    if l2m:
                        counts[L2_MISS] += 1
                    if pmu is not None and pmu.ear_active:
                        pmu.ear_miss(pc, byte_addr, counts[TOT_CYC], "l1d_miss")
                if tlbm:
                    counts[TLB_DM] += 1
                    touched.add(byte_addr >> page_shift)
                    if pmu is not None and pmu.ear_active:
                        pmu.ear_miss(pc, byte_addr, counts[TOT_CYC], "tlb_miss")
                if penalty:
                    counts[TOT_CYC] += penalty
                    counts[STL_CYC] += penalty
                    counts[MEM_RCY] += penalty
                if op == Op.LOAD:
                    iregs[a] = int(memory[addr])
                else:
                    fregs[a] = float(memory[addr])
            elif op == Op.FSTORE or op == Op.STORE:
                addr = iregs[b] + d
                if not 0 <= addr < mem_len:
                    raise MachineFault(
                        f"pc {pc}: store address {addr} out of range"
                    )
                byte_addr = addr * WORD_BYTES + data_base
                penalty, l1m, l2m, tlbm = data_access(byte_addr)
                mem_l1m, mem_l2m, mem_tlbm, mem_penalty = l1m, l2m, tlbm, penalty
                counts[SR_INS] += 1
                counts[L1D_ACC] += 1
                if l1m:
                    counts[L1D_MISS] += 1
                    counts[L2_ACC] += 1
                    if l2m:
                        counts[L2_MISS] += 1
                    if pmu is not None and pmu.ear_active:
                        pmu.ear_miss(pc, byte_addr, counts[TOT_CYC], "l1d_miss")
                if tlbm:
                    counts[TLB_DM] += 1
                    touched.add(byte_addr >> page_shift)
                    if pmu is not None and pmu.ear_active:
                        pmu.ear_miss(pc, byte_addr, counts[TOT_CYC], "tlb_miss")
                if penalty:
                    counts[TOT_CYC] += penalty
                    counts[STL_CYC] += penalty
                    counts[MEM_RCY] += penalty
                if op == Op.STORE:
                    memory[addr] = iregs[a]
                else:
                    memory[addr] = fregs[a]
            elif op == Op.ADDI:
                counts[INT_INS] += 1
                iregs[a] = iregs[b] + d
            elif op == Op.ADD:
                counts[INT_INS] += 1
                iregs[a] = iregs[b] + iregs[c]
            elif op == Op.FMA:
                counts[Signal.FP_FMA] += 1
                fregs[a] = fregs[b] * fregs[c] + fregs[d]
            elif op == Op.FADD:
                counts[Signal.FP_ADD] += 1
                fregs[a] = fregs[b] + fregs[c]
            elif op == Op.FMUL:
                counts[Signal.FP_MUL] += 1
                fregs[a] = fregs[b] * fregs[c]
            elif op == Op.FSUB:
                counts[Signal.FP_ADD] += 1
                fregs[a] = fregs[b] - fregs[c]
            elif op == Op.BLT or op == Op.BGE or op == Op.BEQ or op == Op.BNE:
                counts[BR_INS] += 1
                counts[BR_CN] += 1
                if op == Op.BLT:
                    taken = iregs[a] < iregs[b]
                elif op == Op.BGE:
                    taken = iregs[a] >= iregs[b]
                elif op == Op.BEQ:
                    taken = iregs[a] == iregs[b]
                else:
                    taken = iregs[a] != iregs[b]
                predicted = predict(pc)
                pred_update(pc, taken)
                if taken:
                    counts[BR_TKN] += 1
                    next_pc = c
                else:
                    counts[BR_NTK] += 1
                if predicted != taken:
                    br_msp = True
                    counts[BR_MSP] += 1
                    counts[TOT_CYC] += branch_penalty
                    counts[STL_CYC] += branch_penalty
            elif op == Op.JMP:
                counts[BR_INS] += 1
                next_pc = a
            elif op == Op.CALL:
                counts[BR_INS] += 1
                counts[Signal.CALL_INS] += 1
                call_stack.append(pc + 1)
                next_pc = a
            elif op == Op.RET:
                counts[BR_INS] += 1
                counts[Signal.RET_INS] += 1
                if not call_stack:
                    raise MachineFault(f"pc {pc}: RET with empty call stack")
                next_pc = call_stack.pop()
            elif op == Op.LI:
                counts[INT_INS] += 1
                iregs[a] = d
            elif op == Op.MOV:
                counts[INT_INS] += 1
                iregs[a] = iregs[b]
            elif op == Op.SUB:
                counts[INT_INS] += 1
                iregs[a] = iregs[b] - iregs[c]
            elif op == Op.MUL:
                counts[INT_INS] += 1
                iregs[a] = iregs[b] * iregs[c]
            elif op == Op.DIV:
                counts[INT_INS] += 1
                if iregs[c] == 0:
                    raise MachineFault(f"pc {pc}: integer divide by zero")
                q = abs(iregs[b]) // abs(iregs[c])
                iregs[a] = q if (iregs[b] < 0) == (iregs[c] < 0) else -q
            elif op == Op.MULI:
                counts[INT_INS] += 1
                iregs[a] = iregs[b] * d
            elif op == Op.FDIV:
                counts[Signal.FP_DIV] += 1
                if fregs[c] == 0.0:
                    raise MachineFault(f"pc {pc}: float divide by zero")
                fregs[a] = fregs[b] / fregs[c]
            elif op == Op.FSQRT:
                counts[Signal.FP_SQRT] += 1
                if fregs[b] < 0.0:
                    raise MachineFault(f"pc {pc}: sqrt of negative value")
                fregs[a] = fregs[b] ** 0.5
            elif op == Op.FCVT:
                counts[Signal.FP_CVT] += 1
                fregs[a] = _round_to_single(fregs[b])
            elif op == Op.FLI:
                counts[Signal.FP_MOV] += 1
                fregs[a] = d
            elif op == Op.FMOV:
                counts[Signal.FP_MOV] += 1
                fregs[a] = fregs[b]
            elif op == Op.NOP:
                pass
            elif op == Op.PROBE:
                counts[Signal.PRB_INS] += 1
                if probe_dispatch is not None:
                    # expose live state so probes can read counters etc.
                    self.pc = pc
                    self.cur_iline = cur_iline
                    probe_dispatch(a, self)
                    if self.code is not code or self.memory is not memory:
                        # the handler rewrote the program (dynaprof
                        # instrument/remove_probes) or reloaded one (a
                        # reload of the same Program keeps ``code``):
                        # rebind every cached alias and resume under the
                        # new indexing -- past the migrated probe when
                        # it still exists there, at the new pc otherwise.
                        code = self.code
                        memory = self.memory
                        mem_len = len(memory)
                        iregs = self.iregs
                        fregs = self.fregs
                        call_stack = self.call_stack
                        touched = self.touched_pages
                        data_base = self.data_base
                        probe_dispatch = self.probe_dispatch
                        cur_iline = -1
                        if (
                            0 <= self.pc < len(code)
                            and code[self.pc][0] == Op.PROBE
                        ):
                            next_pc = self.pc + 1
                        else:
                            next_pc = self.pc
                        if engine is not None:
                            _blocks, denied = engine.begin()
                            engine_execute = engine.execute
            elif op == Op.SYSCALL:
                counts[Signal.SYS_INS] += 1
                counts[TOT_CYC] += syscall_cost
            elif op == Op.HALT:
                self.halted = True
                pc = next_pc  # leave pc past the HALT
                reason = "halt"
                # final PMU bookkeeping below, then exit
                if pmu is not None:
                    if pmu.watch_active:
                        n = pmu.check_overflow(pc, counts[TOT_CYC])
                        if n:
                            cost = n * pmu.config.interrupt_cost
                            counts[TOT_CYC] += cost
                            counts[Signal.HW_INT] += n
                    if pmu.timer_active:
                        n = pmu.check_timer(counts[TOT_CYC])
                        if n:
                            counts[Signal.HW_INT] += n
                break
            else:  # pragma: no cover - unreachable with a valid assembler
                raise MachineFault(f"pc {pc}: illegal opcode {op}")

            pc = next_pc

            # ---- PMU hooks ----------------------------------------------
            if pmu is not None:
                if pmu.sampler is not None:
                    pmu.sample_countdown -= 1
                    if pmu.sample_countdown <= 0:
                        # ProfileMe: precise attribution of the instruction
                        # that just retired, with its true miss behaviour.
                        sample = SampleRecord(
                            pc=exec_pc,
                            opcode=op,
                            cycle=counts[TOT_CYC],
                            is_load=op == Op.LOAD or op == Op.FLOAD,
                            is_store=op == Op.STORE or op == Op.FSTORE,
                            is_fp=Op.FLI <= op <= Op.FCVT,
                            is_branch=Op.JMP <= op <= Op.RET,
                            br_mispred=br_msp,
                            l1d_miss=mem_l1m,
                            l2_miss=mem_l2m,
                            tlb_miss=mem_tlbm,
                            latency=lat[op] + mem_penalty,
                        )
                        n = pmu.deliver_sample(sample)
                        cost = n * pmu.config.interrupt_cost
                        counts[TOT_CYC] += cost
                        counts[Signal.HW_INT] += n
                if pmu.watch_active:
                    n = pmu.check_overflow(pc, counts[TOT_CYC])
                    if n:
                        cost = n * pmu.config.interrupt_cost
                        counts[TOT_CYC] += cost
                        counts[Signal.HW_INT] += n
                if pmu.timer_active:
                    n = pmu.check_timer(counts[TOT_CYC])
                    if n:
                        counts[Signal.HW_INT] += n

        # --- write back architectural state ------------------------------
        self.pc = pc
        self.cur_iline = cur_iline
        return RunResult(reason, executed, counts[TOT_CYC] - cycle0)
