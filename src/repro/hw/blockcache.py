"""Basic-block execution engine for the simulated CPU.

The interpreter in :mod:`repro.hw.cpu` dispatches one instruction at a
time; every experiment in the repo bottoms out in that loop.  This module
adds a *block cache* in front of it:

- a loaded program's resolved code is partitioned into **basic blocks**
  (maximal straight-line runs ending at a control transfer, cut before
  PROBE/SYSCALL/HALT, which always take the precise path);
- each block is compiled, once, into a Python function that replays the
  interpreter's exact effect sequence -- signal counts, cache/TLB
  accesses, EAR callbacks, fault messages, register/memory writes -- with
  all per-instruction constants (latencies, signal indices, byte
  addresses, line boundaries) baked in as literals.  Blocks and regions
  share one per-instruction generator (:class:`_Emitter`), and every
  compiled fetch first checks whether its line is already the MRU way of
  its (statically known) L1I set, calling ``inst_fetch`` only when it is
  not.

On top of the block layer, hot loop heads -- detected by back-edge
counters on block exits, a self-loop block's branch to its own start
included -- are promoted to a **compiled region** (the engine is the
``"trace"`` tier, the default; the only other tier, ``"off"``, builds no
engine).  The member blocks of the cycle through the head are stitched
into one generated state-machine function that transfers control
internally and only returns on region exit or *fuel* exhaustion.  Fuel
is the number of whole block steps that provably cannot cross any
deadline; dynaprof PROBE instructions compile into regions as
constant-cost prologue segments that dispatch the probe handler and
side-exit if the handler perturbed the machine (stop flag, PMU arming,
program rewrite).

Correctness contract: a run with the engine enabled is **bit-exact**
with the interpreter -- identical ``counts[]``, cache/TLB state and
statistics, RNG stream, architectural state, fault behaviour and
interrupt delivery points.  One *deadline* rule (:meth:`BlockEngine._fuel`)
counts the whole steps of a given worst-case cost that fit before the
next instruction/cycle budget boundary, ProfileMe sample, overflow
threshold or cycle-timer tick: a block runs one step and a region takes
the steps that fit as fuel.  When no step fits, the engine declines and
the interpreter executes one instruction at a time, so interrupts and
samples fire at exactly the same instruction boundary (and draw from the
RNG at exactly the same point) as an engine-off run.  PROBE instructions
are never compiled into plain blocks; inside regions they run only while
the PMU is completely quiet, so deadline/flush crossings always take the
precise path.

Invalidation rules (see DESIGN.md): block tables are keyed by the
identity of the resolved code list.  ``CPU.load`` of the Program already
loaded keeps that list, so its table -- blocks, regions, heat -- survives
the reload and the engine is only unbound; loading a different Program
or ``migrate`` (dynaprof probe insertion/removal) retires the old
program's table, and its regions die with it.  Context restores rebind
the active table; ``Machine.reset`` and probe-registry changes drop every
table.  Compiled code never depends on cache contents (every fetch and
access checks the live state), so :meth:`Machine.charge` cache pollution
only flushes.

Compiling is the other half of the cost of a table.  Generated source
embeds constants only (pcs, latencies, signal indices, literals); live
objects -- the L1I ways, the predictor and its table, ``_code``,
``_eng``, probe handlers -- are bound as globals.  Machines of one configuration running
the same code therefore generate the same text, and the process keeps
one LRU cache of compiled code objects (:func:`compile_cached`, at most
:data:`MAX_CODE_OBJECTS`) keyed by the exact source text plus filename:
a new machine, or a table rebuilt after a retire, reuses the code object
instead of recompiling it.  Each use still ``exec``s it into fresh
globals, so those bindings are never shared between machines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import CodeType
from typing import Dict, List, Optional, Set, Tuple

from repro.hw.events import Signal
from repro.hw.isa import (
    BLOCK_BREAK_OPS,
    BRANCH_OPS,
    INS_BYTES,
    WORD_BYTES,
    Op,
)

#: longest straight-line run compiled into one block; bounds both the
#: generated-code size and the worst-case deadline a block can consume.
MAX_BLOCK_LEN = 64

#: most code tables kept alive at once (one per resolved program).
MAX_TABLES = 16

#: most compiled code objects kept in the process-wide code cache.
MAX_CODE_OBJECTS = 256

#: back-edge arrivals at a loop head before it is promoted to a
#: compiled region.
REGION_HOT = 16

#: most member blocks stitched into one compiled region.
MAX_REGION_BLOCKS = 16

#: longest instruction path one region unit inlines straight-line
#: before it dispatches.
TRACE_MAX_INS = 256

#: largest join block tail-duplicated into each predecessor path during
#: region compilation (classic superblock formation); bigger joins keep
#: a dispatch arm of their own.
REGION_DUP_MAX_INS = 32

#: total instruction-emission budget per region unit; bounds the code
#: blowup tail duplication can cause on diamond chains.
REGION_UNIT_EMIT_MAX = 512

#: hard cap on block steps per region entry; bounds the time between
#: deadline re-checks (and stop_flag polls) when no budgets are armed.
REGION_FUEL_MAX = 1 << 16

_S = Signal

#: ALU-ish opcodes with no fault, memory or control behaviour; their
#: count updates can be merged into one segment of the compiled body.
_SIMPLE_EFFECTS: Dict[int, Tuple[Tuple[int, ...], str]] = {
    Op.NOP: ((), ""),
    Op.LI: ((_S.INT_INS,), "iregs[{a}] = {d}"),
    Op.MOV: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}]"),
    Op.ADD: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}] + iregs[{c}]"),
    Op.SUB: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}] - iregs[{c}]"),
    Op.MUL: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}] * iregs[{c}]"),
    Op.ADDI: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}] + {d}"),
    Op.MULI: ((_S.INT_INS,), "iregs[{a}] = iregs[{b}] * {d}"),
    Op.FLI: ((_S.FP_MOV,), "fregs[{a}] = {d}"),
    Op.FMOV: ((_S.FP_MOV,), "fregs[{a}] = fregs[{b}]"),
    Op.FADD: ((_S.FP_ADD,), "fregs[{a}] = fregs[{b}] + fregs[{c}]"),
    Op.FSUB: ((_S.FP_ADD,), "fregs[{a}] = fregs[{b}] - fregs[{c}]"),
    Op.FMUL: ((_S.FP_MUL,), "fregs[{a}] = fregs[{b}] * fregs[{c}]"),
    Op.FMA: ((_S.FP_FMA,), "fregs[{a}] = fregs[{b}] * fregs[{c}] + fregs[{d}]"),
    Op.FCVT: ((_S.FP_CVT,), "fregs[{a}] = _round_to_single(fregs[{b}])"),
}


@dataclass
class BasicBlock:
    """One compiled basic block."""

    start: int
    n_ins: int
    #: compiled executor; returns ``(next_pc, cur_iline)``.
    fn: object
    #: worst-case per-signal deltas of one execution (every access
    #: missing; ``max_deltas[TOT_CYC]`` is its worst-case cycles).
    max_deltas: List[int]
    #: ends without a control transfer (next block starts at start+n_ins).
    falls_through: bool = False


@dataclass
class Region:
    """One compiled loop region (a self-loop block alone, or several).

    The generated function is a pc state machine over the member blocks:
    control transfers between members stay inside the function, and it
    returns ``(next_pc, cur_iline, n_retired)`` on a region exit or when
    the entry *fuel* (whole block steps proven deadline-safe) runs out.
    """

    head: int
    fn: object
    members: Tuple[int, ...]
    #: worst-case instructions one block step retires.
    max_nb: int
    #: worst-case per-signal deltas of one block step.
    max_deltas: List[int]
    #: contains *active* dynaprof probe segments (entry requires a quiet
    #: PMU); probes with no registered handler compile to bare counts.
    has_probe: bool
    #: predictor whose state is open-coded into the region (or None when
    #: branches go through the predict/update calls).
    predictor: object = None
    #: touches data memory: entry declines while an EAR is armed because
    #: deferred cycle counts would skew EAR timestamps.
    has_mem: bool = False


@dataclass
class EngineStats:
    """Cumulative work accounting (exposed via ``Machine.engine_stats``)."""

    #: block executions through compiled code.
    blocks_executed: int = 0
    #: instructions retired through the engine (blocks + regions).
    fast_instructions: int = 0
    #: distinct blocks compiled.
    blocks_compiled: int = 0
    #: flush-barrier invocations (PMU reads / Machine.charge).
    flushes: int = 0
    #: distinct compiled regions / region entries / in-region retires.
    regions_compiled: int = 0
    region_entries: int = 0
    region_instructions: int = 0

    # Placeholders, not fields, fixed at 0: the engine neither replays
    # nor builds traces.  benchmarks/p3/layers.py:73 reads this one; it
    # goes with the next change to that benchmark.
    replayed_instructions = 0
    # benchmarks/p3/layers.py:76 reads this one; it goes with the next
    # change to that benchmark.
    traces_compiled = 0


@dataclass
class _CodeTable:
    """Per-program decode cache: compiled blocks keyed by entry pc."""

    code: List[tuple]
    leaders: Set[int]
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    denied: Set[int] = field(default_factory=set)
    #: compiled regions keyed by head pc.
    regions: Dict[int, Region] = field(default_factory=dict)
    #: back-edge arrival counters feeding the REGION_HOT promotion.
    heat: Dict[int, int] = field(default_factory=dict)
    #: heads where region promotion already failed.
    region_denied: Set[int] = field(default_factory=set)
    #: pcs that cannot block-compile but must stay engine-dispatchable
    #: because a region is keyed there (probe heads).
    nocompile: Set[int] = field(default_factory=set)


@functools.lru_cache(maxsize=MAX_CODE_OBJECTS)
def compile_cached(src: str, filename: str) -> CodeType:
    """Compile generated source once per process.

    A process-wide LRU (see ``compile_cached.cache_info()``) keyed by the
    exact source text plus its filename, so two units that differ in any
    literal (``0.0`` vs ``-0.0``, ``1`` vs ``1.0``) never share code.
    Only the immutable code object is shared: every caller still
    ``exec``s it into fresh globals bound to its own machine.
    ``lru_cache`` keeps its map coherent under concurrent calls; two
    threads that miss on one source may both compile it, harmlessly.
    """
    return compile(src, filename, "exec")


def _compute_leaders(code: List[tuple]) -> Set[int]:
    """Basic-block leaders: entry, control targets, post-break pcs."""
    leaders = {0}
    for pc, ins in enumerate(code):
        op = ins[0]
        if op in BRANCH_OPS:
            leaders.add(ins[3])
            leaders.add(pc + 1)
        elif op == Op.JMP or op == Op.CALL:
            leaders.add(ins[1])
            leaders.add(pc + 1)
        elif op in BLOCK_BREAK_OPS or op == Op.RET:
            leaders.add(pc + 1)
    return leaders


def steps_before_deadline(
    limit: int, rem_ins: int, n_ins: int, deadlines: List[Tuple[int, int]]
) -> int:
    """Whole steps, at most *limit*, that fit before the next deadline.

    Each step retires *n_ins* (>= 1) instructions and may end exactly on
    the instruction budget *rem_ins* (-1 = none).  Every other deadline
    is a ``(headroom, cost)`` pair that must stay strictly ahead: after
    ``j`` steps, ``j * cost < headroom``.  A zero-cost deadline caps
    nothing unless it is already due (``headroom <= 0``), and then no
    step fits.
    """
    k = limit
    if rem_ins >= 0 and rem_ins // n_ins < k:
        k = rem_ins // n_ins
    for headroom, cost in deadlines:
        if cost > 0:
            cap = (headroom - 1) // cost
            if cap < k:
                k = cap
        elif headroom <= 0:
            return 0
    return k if k > 0 else 0


class _EmitUnsupported(Exception):
    """An opcode the shared emitter cannot compile (SYSCALL/HALT)."""


class _Emitter:
    """The engine's one per-instruction code generator.

    Blocks and region members both emit through it.
    Per instruction it replicates the interpreter's effect ordering --
    fetch, retirement counts, then the op effect.  Static counts of
    consecutive instructions merge into a pending batch that is written
    out (or, in a region's defer mode, folded into per-pass vectors)
    before every point where ``counts[]`` can be observed -- memory
    access and EAR callback, fault raise, branch resolution, probe,
    exit -- so every unit stays bit-exact with the interpreter.
    """

    def __init__(
        self,
        compiler: "BlockCompiler",
        depth: int = 1,
        il_var: str = "cur_iline",
        track_il: bool = False,
        defer: bool = False,
    ) -> None:
        self.c = compiler
        self.depth = depth
        #: name of the current-iline variable in the generated scope.
        self.il_var = il_var
        #: regions keep ``il`` as a live local across blocks, so fetches
        #: must assign it; blocks return literal ilines.
        self.track_il = track_il
        #: deferred-count mode: static retirement counts are not written
        #: per pass but accumulated into per-member vectors the region's
        #: exit flush applies as batched multiply-adds.  Fault raises
        #: get a cold inline flush (see :meth:`emit_fault_guard`).
        self.defer = defer
        #: extra indent applied by :meth:`emit` on top of ``depth``;
        #: region codegen bumps this while inlining branch arms.
        self.extra = 0
        self.lines: List[str] = []
        self.pending: Dict[int, int] = {}
        #: pending snapshots at fault raises (defer mode); markers in
        #: the emitted lines are expanded once the exit flush is known.
        self.fault_sites: List[Dict[int, int]] = []
        #: globals the warm-fetch fast path binds (per-set ways lists);
        #: merged into the generated function's namespace by the caller.
        self.fetch_globals: Dict[str, object] = {}
        self.md = [0] * Signal.N_SIGNALS
        self.il_prev: Optional[int] = None

    def emit(self, text: str, extra: int = 0) -> None:
        self.lines.append("    " * (self.depth + self.extra + extra) + text)

    def add_pending(self, sig: int, n: int = 1) -> None:
        self.pending[sig] = self.pending.get(sig, 0) + n

    def flush_pending(self) -> None:
        if self.defer:
            return  # folded into the member vector by the region emitter
        for sig, n in self.pending.items():
            self.emit(f"counts[{sig}] += {n}")
        self.pending.clear()

    def emit_fault_guard(self, cond: str, raise_stmt: str) -> None:
        """Emit a fault check whose raise leaves counts exact.

        Direct mode flushes pendings before the check (they cover only
        retired instructions).  Defer mode leaves a marker inside the
        cold branch; the region assembler expands it into a full
        deferred flush plus the pending snapshot once every member's
        vector is known.
        """
        if not self.defer:
            self.flush_pending()
            self.emit(cond)
            self.emit("    " + raise_stmt)
            return
        self.emit(cond)
        idx = len(self.fault_sites)
        self.fault_sites.append(dict(self.pending))
        self.emit(f"    \x00F{idx}\x00")
        self.emit("    " + raise_stmt)

    def emit_memory(self, pc: int, op: int, a: int, b: int, d: int) -> None:
        """One data access, as the interpreter's LOAD/STORE path does it.

        The caller flushes pending counts first, so an EAR callback reads
        an exact ``TOT_CYC``.  The dynamic parts (miss paths, penalties)
        are always written directly -- in defer mode they commute with
        the deferred static adds because nothing inside a region reads
        counts (EAR-armed runs decline region entry; see
        ``_run_region``).  Only the bounds fault needs the defer-aware
        cold flush.
        """
        c = self.c
        emit = self.emit
        is_load = op in (Op.LOAD, Op.FLOAD)
        word = "load" if is_load else "store"
        emit(f"_ad = iregs[{b}] + {d}")
        self.emit_fault_guard(
            "if not 0 <= _ad < mem_len:",
            "raise MachineFault("
            f"f\"pc {pc}: {word} address {{_ad}} out of range\")",
        )
        emit(f"_ba = _ad * {WORD_BYTES} + data_base")
        emit("_pen, _l1m, _l2m, _tlbm = data_access(_ba)")
        emit(f"counts[{_S.LD_INS if is_load else _S.SR_INS}] += 1")
        emit(f"counts[{_S.L1D_ACC}] += 1")
        emit("if _l1m:")
        emit(f"    counts[{_S.L1D_MISS}] += 1")
        emit(f"    counts[{_S.L2_ACC}] += 1")
        emit("    if _l2m:")
        emit(f"        counts[{_S.L2_MISS}] += 1")
        emit("    if pmu is not None and pmu.ear_active:")
        emit(f"        pmu.ear_miss({pc}, _ba, counts[{_S.TOT_CYC}], \"l1d_miss\")")
        emit("if _tlbm:")
        emit(f"    counts[{_S.TLB_DM}] += 1")
        emit(f"    touched.add(_ba >> {c._page_shift})")
        emit("    if pmu is not None and pmu.ear_active:")
        emit(f"        pmu.ear_miss({pc}, _ba, counts[{_S.TOT_CYC}], \"tlb_miss\")")
        emit("if _pen:")
        emit(f"    counts[{_S.TOT_CYC}] += _pen")
        emit(f"    counts[{_S.STL_CYC}] += _pen")
        emit(f"    counts[{_S.MEM_RCY}] += _pen")
        if op == Op.LOAD:
            emit(f"iregs[{a}] = int(memory[_ad])")
        elif op == Op.FLOAD:
            emit(f"fregs[{a}] = float(memory[_ad])")
        elif op == Op.STORE:
            emit(f"memory[_ad] = iregs[{a}]")
        else:
            emit(f"memory[_ad] = fregs[{a}]")

    def emit_fetch(self, pc: int, conditional: bool) -> None:
        c = self.c
        il = (pc * INS_BYTES) >> c._iline_shift
        pad = ""
        if conditional:
            self.emit(f"if {self.il_var} != {il}:")
            pad = "    "
        if self.track_il:
            self.emit(f"{pad}il = {il}")
        # warm-fetch fast path: the line index equals il (both are the
        # byte address >> L1I line bits), so the target set is known at
        # compile time and its ways list can be bound as a global.  When
        # the line is already the MRU way, ``Cache.access`` reduces to
        # ``hits += 1`` with no reordering -- open-code exactly that and
        # fall back to the real ``inst_fetch`` otherwise (cold lines,
        # non-MRU hits, evictions by pollution).
        w = f"_iw{il}"
        self.fetch_globals[w] = c._l1i._sets[il & c._l1i._set_mask]
        self.fetch_globals["_l1i"] = c._l1i
        # an unconditional fetch runs exactly once per pass, so its
        # L1I_ACC signal count is static: it joins the batched per-pass
        # vector (defer mode) or the pending batch (direct mode).  A
        # conditional (entry) fetch may be skipped and stays direct.
        static_acc = not conditional
        if static_acc:
            self.add_pending(_S.L1I_ACC)
        self.emit(f"{pad}if {w} and {w}[-1] == {il}:")
        self.emit(f"{pad}    _l1i.hits += 1")
        if not static_acc:
            self.emit(f"{pad}    counts[{_S.L1I_ACC}] += 1")
        self.emit(f"{pad}else:")
        pad += "    "
        self.emit(f"{pad}_fl, _i1m, _il2m = inst_fetch({pc * INS_BYTES})")
        if not static_acc:
            self.emit(f"{pad}counts[{_S.L1I_ACC}] += 1")
        self.emit(f"{pad}if _i1m:")
        self.emit(f"{pad}    counts[{_S.L1I_MISS}] += 1")
        self.emit(f"{pad}    counts[{_S.L2_ACC}] += 1")
        self.emit(f"{pad}    if _il2m:")
        self.emit(f"{pad}        counts[{_S.L2_MISS}] += 1")
        self.emit(f"{pad}if _fl:")
        self.emit(f"{pad}    counts[{_S.TOT_CYC}] += _fl")
        self.emit(f"{pad}    counts[{_S.STL_CYC}] += _fl")
        md = self.md
        md[_S.L1I_ACC] += 1
        md[_S.L1I_MISS] += 1
        md[_S.L2_ACC] += 1
        md[_S.L2_MISS] += 1
        md[_S.TOT_CYC] += c._fetch_worst
        md[_S.STL_CYC] += c._fetch_worst

    def emit_ins(self, pc: int, ins: tuple, first: bool) -> None:
        """Emit one instruction's effects (control transfer excluded).

        For BRANCH/JMP/CALL/RET/PROBE this applies the fetch and the
        retirement/class counts; the caller emits the transfer and, for
        branches, the resolution (:meth:`emit_branch_calls` in blocks,
        predictor-inlined arms in regions).
        """
        c = self.c
        op, a, b, cc, d = ins
        il = (pc * INS_BYTES) >> c._iline_shift
        if first:
            self.emit_fetch(pc, conditional=True)
        elif il != self.il_prev:
            # no flush: the fetch observes cache state, never counts[],
            # and its dynamic stall adds commute with pending statics --
            # batches stay pending until a real observation point
            # (probe, branch resolution, memory fault guard, exit).
            self.emit_fetch(pc, conditional=False)
        self.il_prev = il

        lat = c._lat
        md = self.md
        md[_S.TOT_INS] += 1
        md[_S.TOT_CYC] += lat[op]
        self.add_pending(_S.TOT_INS)
        self.add_pending(_S.TOT_CYC, lat[op])

        simple = _SIMPLE_EFFECTS.get(op)
        if simple is not None:
            sigs, template = simple
            for sig in sigs:
                self.add_pending(sig)
                md[sig] += 1
            if template:
                self.emit(template.format(a=a, b=b, c=cc, d=repr(d)))
            return
        if op in (Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE):
            self.flush_pending()
            self.emit_memory(pc, op, a, b, d)
            md[_S.LD_INS if op in (Op.LOAD, Op.FLOAD) else _S.SR_INS] += 1
            md[_S.L1D_ACC] += 1
            md[_S.L1D_MISS] += 1
            md[_S.L2_ACC] += 1
            md[_S.L2_MISS] += 1
            md[_S.TLB_DM] += 1
            md[_S.TOT_CYC] += c._mem_worst
            md[_S.STL_CYC] += c._mem_worst
            md[_S.MEM_RCY] += c._mem_worst
        elif op == Op.DIV:
            self.add_pending(_S.INT_INS)
            md[_S.INT_INS] += 1
            self.emit_fault_guard(
                f"if iregs[{cc}] == 0:",
                f'raise MachineFault("pc {pc}: integer divide by zero")',
            )
            self.emit(f"_q = abs(iregs[{b}]) // abs(iregs[{cc}])")
            self.emit(
                f"iregs[{a}] = _q if (iregs[{b}] < 0) == (iregs[{cc}] < 0) else -_q"
            )
        elif op == Op.FDIV:
            self.add_pending(_S.FP_DIV)
            md[_S.FP_DIV] += 1
            self.emit_fault_guard(
                f"if fregs[{cc}] == 0.0:",
                f'raise MachineFault("pc {pc}: float divide by zero")',
            )
            self.emit(f"fregs[{a}] = fregs[{b}] / fregs[{cc}]")
        elif op == Op.FSQRT:
            self.add_pending(_S.FP_SQRT)
            md[_S.FP_SQRT] += 1
            self.emit_fault_guard(
                f"if fregs[{b}] < 0.0:",
                f'raise MachineFault("pc {pc}: sqrt of negative value")',
            )
            self.emit(f"fregs[{a}] = fregs[{b}] ** 0.5")
        elif op in BRANCH_OPS:
            self.add_pending(_S.BR_INS)
            self.add_pending(_S.BR_CN)
            md[_S.BR_INS] += 1
            md[_S.BR_CN] += 1
            md[_S.BR_TKN] += 1
            md[_S.BR_NTK] += 1
            md[_S.BR_MSP] += 1
            md[_S.TOT_CYC] += c._branch_penalty
            md[_S.STL_CYC] += c._branch_penalty
        elif op == Op.JMP:
            self.add_pending(_S.BR_INS)
            md[_S.BR_INS] += 1
        elif op == Op.CALL:
            self.add_pending(_S.BR_INS)
            self.add_pending(_S.CALL_INS)
            md[_S.BR_INS] += 1
            md[_S.CALL_INS] += 1
        elif op == Op.RET:
            self.add_pending(_S.BR_INS)
            self.add_pending(_S.RET_INS)
            md[_S.BR_INS] += 1
            md[_S.RET_INS] += 1
        elif op == Op.PROBE:
            self.add_pending(_S.PRB_INS)
            md[_S.PRB_INS] += 1
        else:
            raise _EmitUnsupported(op)

    # -- branch resolution (counts + predictor; transfer is the caller's)

    _CMP = {Op.BLT: "<", Op.BGE: ">=", Op.BEQ: "==", Op.BNE: "!="}

    def emit_branch_calls(self, pc: int, op: int, a: int, b: int) -> None:
        """Resolve a branch through the predict/update calls."""
        bp = self.c._branch_penalty
        self.flush_pending()
        self.emit(f"_t = iregs[{a}] {self._CMP[op]} iregs[{b}]")
        self.emit(f"_p = predict({pc})")
        self.emit(f"pred_update({pc}, _t)")
        self.emit("if _t:")
        self.emit(f"    counts[{_S.BR_TKN}] += 1")
        self.emit("else:")
        self.emit(f"    counts[{_S.BR_NTK}] += 1")
        self.emit("if _p != _t:")
        self.emit(f"    counts[{_S.BR_MSP}] += 1")
        self.emit(f"    counts[{_S.TOT_CYC}] += {bp}")
        self.emit(f"    counts[{_S.STL_CYC}] += {bp}")


class BlockCompiler:
    """Generates the executor functions for blocks and regions.

    Both emit their instructions through one :class:`_Emitter`, so the
    generated source replicates the interpreter's effect ordering
    instruction for instruction in every unit; regions add a dispatch
    loop around per-member emitters.
    """

    def __init__(self, cpu) -> None:
        config = cpu.config
        hcfg = cpu.hierarchy.config
        self._lat = config.latencies
        self._branch_penalty = config.branch_penalty
        self._iline_shift = hcfg.l1i.line_bits
        self._page_shift = hcfg.tlb.page_bits
        #: the L1I cache object, for the open-coded warm-fetch fast path
        #: (generated code peeks the MRU way of the statically known set
        #: before paying for a full ``inst_fetch`` call).
        self._l1i = cpu.hierarchy.l1i
        #: worst-case extra cycles for one data access / one fetch.
        self._mem_worst = hcfg.tlb_walk_latency + hcfg.l2_latency + hcfg.mem_latency
        self._fetch_worst = hcfg.l2_latency + hcfg.mem_latency
        self._globals = {
            "MachineFault": _machine_fault_class(),
            "_round_to_single": _round_to_single_fn(),
        }

    # -- partitioning ---------------------------------------------------

    def scan_block(self, code: List[tuple], start: int) -> List[tuple]:
        """Instructions of the block headed at *start* (may be empty)."""
        instrs: List[tuple] = []
        pc = start
        end = len(code)
        while pc < end and len(instrs) < MAX_BLOCK_LEN:
            ins = code[pc]
            op = ins[0]
            if op in BLOCK_BREAK_OPS:
                break
            instrs.append(ins)
            if op in BRANCH_OPS or op in (Op.JMP, Op.CALL, Op.RET):
                break
            pc += 1
        return instrs

    # -- blocks ---------------------------------------------------------

    def compile_block(self, code: List[tuple], start: int) -> Optional[BasicBlock]:
        """Compile the basic block headed at *start*, or None if empty.

        The executor returns ``(next_pc, cur_iline)``: the last
        instruction's transfer becomes the return value.
        """
        instrs = self.scan_block(code, start)
        if not instrs:
            return None
        e = _Emitter(self)
        for i, ins in enumerate(instrs):
            e.emit_ins(start + i, ins, first=(i == 0))
        tpc = start + len(instrs) - 1
        op, a, b, c, _d = instrs[-1]
        falls_through = op not in BRANCH_OPS and op not in (
            Op.JMP, Op.CALL, Op.RET
        )
        if op in BRANCH_OPS:
            e.emit_branch_calls(tpc, op, a, b)
            nxt = f"({c} if _t else {tpc + 1})"
        elif op == Op.RET:
            e.emit_fault_guard(
                "if not call_stack:",
                f'raise MachineFault("pc {tpc}: RET with empty call stack")',
            )
            nxt = "call_stack.pop()"
        else:
            e.flush_pending()
            if op == Op.CALL:
                e.emit(f"call_stack.append({tpc + 1})")
            # a MAX_BLOCK_LEN split falls through (past the end of the
            # code, the slow path then raises the "pc out of range" fault).
            nxt = tpc + 1 if falls_through else a
        il_last = (tpc * INS_BYTES) >> self._iline_shift
        e.emit(f"return {nxt}, {il_last}")

        src = (
            "def _block(counts, iregs, fregs, memory, mem_len, call_stack,\n"
            "           data_access, inst_fetch, predict, pred_update, pmu,\n"
            "           touched, data_base, cur_iline):\n"
            + "\n".join(e.lines)
            + "\n"
        )
        ns: Dict[str, object] = {}
        g = dict(self._globals)
        g.update(e.fetch_globals)
        exec(compile_cached(src, f"<block@{start}>"), g, ns)
        return BasicBlock(
            start=start,
            n_ins=len(instrs),
            fn=ns["_block"],
            max_deltas=e.md,
            falls_through=falls_through,
        )

    # Placeholder that compiles nothing and that the engine never calls:
    # benchmarks/p3/layers.py:153 wraps this name.  It goes with the next
    # change to that benchmark.
    def compile_trace(self, code: List[tuple], head: int) -> None:
        return None

    # -- compiled regions -----------------------------------------------

    def _region_members(
        self, code: List[tuple], head: int
    ) -> Optional[List[Tuple[int, Tuple[str, List[tuple], List[int]]]]]:
        """Member blocks of the region rooted at *head*, or None.

        BFS over the static CFG from *head*, capped at
        MAX_REGION_BLOCKS, pruned to blocks that can reach *head* again
        (anything else exits the region on first touch anyway); requires
        a cycle through *head*, which may be a self-loop block alone.
        """
        end = len(code)
        info: Dict[int, Tuple[str, List[tuple], List[int]]] = {}
        order: List[int] = []
        queue = [head]
        visited = {head}
        call_conts: Set[int] = set()
        while queue:
            s = queue.pop(0)
            if not 0 <= s < end:
                continue
            ins = code[s]
            op = ins[0]
            if op == Op.PROBE:
                kind, instrs, succs = "probe", [ins], [s + 1]
            elif op in BLOCK_BREAK_OPS:
                continue  # SYSCALL/HALT never join a region
            else:
                instrs = self.scan_block(code, s)
                if not instrs:
                    continue
                lpc = s + len(instrs) - 1
                term = instrs[-1]
                lop = term[0]
                if lop in BRANCH_OPS:
                    succs = [term[3], lpc + 1]
                elif lop == Op.JMP:
                    succs = [term[1]]
                elif lop == Op.CALL:
                    call_conts.add(lpc + 1)
                    succs = [term[1], lpc + 1]
                elif lop == Op.RET:
                    succs = []  # dynamic; resolved via call_conts below
                else:
                    succs = [lpc + 1]  # MAX_BLOCK_LEN split
                kind = "block"
            info[s] = (kind, instrs, succs)
            order.append(s)
            for t in succs:
                if t not in visited and len(visited) < MAX_REGION_BLOCKS:
                    visited.add(t)
                    queue.append(t)
        if head not in info:
            return None

        def outs(entry):
            kind, _instrs, succs = entry
            if not succs and kind == "block":
                return call_conts  # RET: any call continuation we saw
            return succs

        reach = {head}
        changed = True
        while changed:
            changed = False
            for s, entry in info.items():
                if s in reach:
                    continue
                if any(t in reach for t in outs(entry)):
                    reach.add(s)
                    changed = True
        if not any(head in outs(info[s]) for s in info if s in reach):
            return None  # no cycle back through the head
        return [(s, info[s]) for s in order if s in reach]

    def compile_region(
        self, code: List[tuple], head: int, predictor, engine
    ) -> Optional[Region]:
        """Compile the loop region at *head* into a pc state machine.

        Three codegen strategies stack on top of the basic state
        machine:

        - **superblock inlining** -- a member with exactly one incoming
          edge is emitted inline at its predecessor's transfer site, so
          hot cycles run straight-line with one dispatch per iteration;
        - **deferred (vectorized) counts** -- when the region has no
          active probes, static per-pass retirement counts accumulate
          in per-member pass counters (plus per-branch taken/mispredict
          counters) and are applied as one batched multiply-add flush
          at region exit; fault raises get a cold inline flush so
          counts stay exact at every observable point;
        - **pre-resolved probe handlers** -- probe members call the
          registered handler directly (the machine invalidates engines
          when registrations change) behind a guard specialized on the
          CPU's PMU; probes with no handler compile to bare counts.
        """
        members = self._region_members(code, head)
        if members is None:
            return None
        info: Dict[int, Tuple[str, List[tuple], List[int]]] = dict(members)
        member_set = set(info)
        order = [s for s, _ in members]
        spec = predictor.inline_spec() if predictor is not None else None
        cpu = engine.cpu if engine is not None else None
        resolver = getattr(cpu, "probe_resolver", None)
        pmu_obj = getattr(cpu, "pmu", None)
        bp = self._branch_penalty

        # -- probe handler resolution --------------------------------
        probe_mode: Dict[int, Tuple[str, object]] = {}
        for s in order:
            kind, instrs, _succs = info[s]
            if kind != "probe":
                continue
            pid = instrs[0][1]
            if resolver is not None:
                h = resolver(pid)
                probe_mode[s] = ("direct", h) if h is not None else ("none", None)
            else:
                probe_mode[s] = ("dynamic", None)
        active_probes = {s for s, (m, _h) in probe_mode.items() if m != "none"}
        defer = not active_probes
        has_mem = any(
            ins[0] in (Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE)
            for s in order
            for ins in info[s][1]
        )

        # -- static transfer edges, for superblock inlining ----------
        call_conts: Set[int] = set()
        has_ret = False
        edges: Dict[int, List[int]] = {}
        for s in order:
            kind, instrs, _succs = info[s]
            if kind == "probe":
                edges[s] = [s + 1]
                continue
            lpc = s + len(instrs) - 1
            term = instrs[-1]
            lop = term[0]
            if lop in BRANCH_OPS:
                edges[s] = [term[3], lpc + 1]
            elif lop == Op.JMP:
                edges[s] = [term[1]]
            elif lop == Op.CALL:
                call_conts.add(lpc + 1)
                edges[s] = [term[1]]
            elif lop == Op.RET:
                has_ret = True
                edges[s] = []
            else:
                edges[s] = [lpc + 1]
        indeg: Dict[int, int] = {s: 0 for s in member_set}
        for s, ts in edges.items():
            for t in ts:
                if t in indeg:
                    indeg[t] += 1
        # RET targets are reached dynamically; they must keep a
        # dispatch arm of their own.
        no_inline: Set[int] = set(call_conts) if has_ret else set()

        def inlinable(t: int) -> bool:
            # indeg > 1 joins are tail-duplicated into each predecessor
            # path (superblock formation) when small enough; every
            # emitted copy gets its own pass counters, so duplication
            # never shares or double-applies count state.
            return (
                t in member_set
                and t != head
                and t not in no_inline
                and (indeg[t] == 1 or len(info[t][1]) <= REGION_DUP_MAX_INS)
            )

        # -- emission ------------------------------------------------
        # Count state is keyed by *emitted copy*, not by member pc:
        # tail duplication can emit one member several times (and a
        # member can be both inlined and a dispatch root), so each copy
        # gets its own pass counter ``k<cid>`` and static count vector.
        member_vec: Dict[int, Dict[int, int]] = {}  # cid -> sig -> count
        member_nb: Dict[int, int] = {}  # cid -> instructions per pass
        branch_meta: List[Tuple[int, int, str]] = []  # (pc, cid, msp kind)
        copy_seq = [0]
        handler_globals: Dict[str, object] = {}
        emitting: List[int] = []
        scheduled: Set[int] = set()
        queue: List[int] = []

        def schedule(t: int) -> None:
            if t not in scheduled:
                scheduled.add(t)
                queue.append(t)

        cur_root = [head]

        def emit_goto(em: _Emitter, t: int, acc: int) -> None:
            """End-of-path transfer to pc *t* (inline, dispatch, or exit).

            Units are emitted as ``while True`` inner loops inside a
            ``while fuel > 0`` dispatcher, so the hot back-edge to the
            current unit's own root is a bare ``continue``; transfers to
            other units break to the dispatcher, and exits break with
            ``pc`` set (defer mode, falling through to the batched count
            flush) or return directly (direct mode).
            """
            if (
                inlinable(t)
                and t not in emitting
                and t not in scheduled
                and acc + len(info[t][1]) <= TRACE_MAX_INS
                and em.emitted_ins + len(info[t][1]) <= REGION_UNIT_EMIT_MAX
            ):
                emit_body(em, t, acc)
                return
            em.flush_pending()
            if t == cur_root[0]:
                if not defer and acc:
                    em.emit(f"n += {acc}")
                em.emit("fuel -= 1")
                em.emit("if fuel > 0:")
                em.emit("    continue")
                if defer:
                    em.emit(f"pc = {t}")
                    em.emit("break")
                else:
                    em.emit(f"return {t}, il, n")
            elif t in member_set:
                schedule(t)
                if not defer and acc:
                    em.emit(f"n += {acc}")
                em.emit("fuel -= 1")
                em.emit(f"pc = {t}")
                em.emit("break")
            elif defer:
                em.emit(f"pc = {t}")
                em.emit("break")
            else:
                em.emit(f"return {t}, il, n + {acc}")

        def fold_member(em: _Emitter, cid: int) -> None:
            """Defer mode: bank this pass's static counts into k-weighted
            vectors and bump this emitted copy's pass counter."""
            vec = member_vec.setdefault(cid, {})
            for sig, v in em.pending.items():
                vec[sig] = vec.get(sig, 0) + v
            em.pending.clear()
            em.emit(f"k{cid} += 1")

        def emit_arms(
            em: _Emitter, bpc: int, owner: int, op: int, a: int, b: int,
            taken: int, fall: int, acc: int,
        ) -> None:
            """Branch resolution with the transfer folded into the arms."""
            cmp_ = _Emitter._CMP[op]
            em.flush_pending()
            cond = f"iregs[{a}] {cmp_} iregs[{b}]"
            if spec is None:
                em.emit(f"_t = {cond}")
                cond = "_t"
                em.emit(f"_p = predict({bpc})")
                em.emit(f"pred_update({bpc}, _t)")
                em.emit("if _p != _t:")
                if defer:
                    em.emit(f"    m{bpc}_{owner} += 1")
                else:
                    em.emit(f"    counts[{_S.BR_MSP}] += 1")
                    em.emit(f"    counts[{_S.TOT_CYC}] += {bp}")
                    em.emit(f"    counts[{_S.STL_CYC}] += {bp}")
                taken_pre: List[str] = (
                    [f"t{bpc}_{owner} += 1"] if defer
                    else [f"counts[{_S.BR_TKN}] += 1"]
                )
                fall_pre: List[str] = (
                    [] if defer else [f"counts[{_S.BR_NTK}] += 1"]
                )
                kindb = "m"
            elif spec[0] == "static":
                taken_pre = (
                    [f"t{bpc}_{owner} += 1"] if defer
                    else [f"counts[{_S.BR_TKN}] += 1"]
                )
                fall_pre = (
                    [] if defer else [
                        f"counts[{_S.BR_NTK}] += 1",
                        f"counts[{_S.BR_MSP}] += 1",
                        f"counts[{_S.TOT_CYC}] += {bp}",
                        f"counts[{_S.STL_CYC}] += {bp}",
                    ]
                )
                kindb = "static"
            else:
                # twobit or gshare; the mispredict check nests inside the
                # table-update check (_s < 2 implies _s < 3, _s >= 2
                # implies _s > 0), so saturated steady branches pay one
                # comparison, not two.  gshare differs only in its
                # history-hashed index and the history shift per arm.
                if spec[0] == "gshare":
                    em.emit(f"_i = ({bpc} ^ _gp._history) & {spec[2]}")
                    idx = "_i"
                    hm = predictor._history_mask
                    shift = "_gp._history = (_gp._history << 1"
                    taken_hist = [f"{shift} | 1) & {hm}"]
                    fall_hist = [f"{shift}) & {hm}"]
                else:
                    idx = bpc & spec[2]
                    taken_hist = fall_hist = []
                em.emit(f"_s = _bt[{idx}]")
                if defer:
                    taken_pre = [
                        f"t{bpc}_{owner} += 1",
                        "if _s < 3:",
                        f"    _bt[{idx}] = _s + 1",
                        "    if _s < 2:",
                        f"        m{bpc}_{owner} += 1",
                    ]
                    fall_pre = [
                        "if _s > 0:",
                        f"    _bt[{idx}] = _s - 1",
                        "    if _s >= 2:",
                        f"        m{bpc}_{owner} += 1",
                    ]
                else:
                    taken_pre = [
                        f"counts[{_S.BR_TKN}] += 1",
                        "if _s < 3:",
                        f"    _bt[{idx}] = _s + 1",
                        "    if _s < 2:",
                        f"        counts[{_S.BR_MSP}] += 1",
                        f"        counts[{_S.TOT_CYC}] += {bp}",
                        f"        counts[{_S.STL_CYC}] += {bp}",
                    ]
                    fall_pre = [
                        f"counts[{_S.BR_NTK}] += 1",
                        "if _s > 0:",
                        f"    _bt[{idx}] = _s - 1",
                        "    if _s >= 2:",
                        f"        counts[{_S.BR_MSP}] += 1",
                        f"        counts[{_S.TOT_CYC}] += {bp}",
                        f"        counts[{_S.STL_CYC}] += {bp}",
                    ]
                taken_pre += taken_hist
                fall_pre += fall_hist
                kindb = "m"
            if defer:
                branch_meta.append((bpc, owner, kindb))
            saved_il = em.il_prev
            em.emit(f"if {cond}:")
            em.extra += 1
            for ln in taken_pre:
                em.emit(ln)
            emit_goto(em, taken, acc)
            em.extra -= 1
            em.il_prev = saved_il
            em.emit("else:")
            em.extra += 1
            for ln in fall_pre:
                em.emit(ln)
            emit_goto(em, fall, acc)
            em.extra -= 1
            em.il_prev = saved_il

        def emit_body(em: _Emitter, s: int, acc: int) -> None:
            """Emit one copy of member *s* (inlining successors) into *em*."""
            kind, instrs, _succs = info[s]
            cid = copy_seq[0]
            copy_seq[0] += 1
            emitting.append(s)
            first = acc == 0
            if kind == "probe":
                member_nb[cid] = 1
                em.emitted_ins += 1
                mode, handler = probe_mode[s]
                pid = instrs[0][1]
                em.emit_ins(s, instrs[0], first=first)
                if mode == "none":
                    if defer:
                        fold_member(em, cid)
                    emit_goto(em, s + 1, acc + 1)
                else:
                    em.flush_pending()
                    # Three terms cover every way a handler can force a
                    # precise exit: ``_table is None`` subsumes the PMU
                    # flags (arming a watch/timer/sampler/EAR fires
                    # ``pmu.unquiet_hook`` -> ``engine.unbind``) and the
                    # probe-registry invalidation; region *entry* already
                    # requires a quiet PMU, so mid-region arming is the
                    # only transition to catch.
                    guard = (
                        "cpu.stop_flag or cpu.code is not _code"
                        " or _eng._table is None"
                    )
                    if mode == "direct":
                        handler_globals[f"_h{s}"] = handler
                        em.emit(f"cpu.pc = {s}")
                        em.emit("cpu.cur_iline = il")
                        em.emit(f"_h{s}({pid}, cpu)")
                        em.emit(f"if {guard}:")
                        em.emit(f"    _eng.probe_exit_pc = {s}")
                        em.emit(f"    return {s + 1}, il, n + {acc + 1}")
                    else:  # dynamic dispatch through the cpu hook
                        em.emit("if probe_dispatch is not None:")
                        em.emit(f"    cpu.pc = {s}")
                        em.emit("    cpu.cur_iline = il")
                        em.emit(f"    probe_dispatch({pid}, cpu)")
                        em.emit(f"    if {guard}:")
                        em.emit(f"        _eng.probe_exit_pc = {s}")
                        em.emit(f"        return {s + 1}, il, n + {acc + 1}")
                    emit_goto(em, s + 1, acc + 1)
                em.unit_nb = max(getattr(em, "unit_nb", 0), acc + 1)
                emitting.pop()
                return
            nb = len(instrs)
            member_nb[cid] = nb
            em.emitted_ins += nb
            for i, ins in enumerate(instrs):
                em.emit_ins(s + i, ins, first=(first and i == 0))
            acc2 = acc + nb
            em.unit_nb = max(getattr(em, "unit_nb", 0), acc2)
            lpc = s + nb - 1
            term = instrs[-1]
            lop = term[0]
            if defer:
                fold_member(em, cid)
            if lop in BRANCH_OPS:
                emit_arms(
                    em, lpc, cid, lop, term[1], term[2], term[3], lpc + 1, acc2
                )
            elif lop == Op.JMP:
                emit_goto(em, term[1], acc2)
            elif lop == Op.CALL:
                em.emit(f"call_stack.append({lpc + 1})")
                emit_goto(em, term[1], acc2)
            elif lop == Op.RET:
                em.emit_fault_guard(
                    "if not call_stack:",
                    f'raise MachineFault("pc {lpc}: '
                    'RET with empty call stack")',
                )
                em.emit("_r = call_stack.pop()")
                em.flush_pending()
                if not defer and acc2:
                    em.emit(f"n += {acc2}")
                em.emit("fuel -= 1")
                em.emit("pc = _r")
                em.emit("break")
            else:
                emit_goto(em, lpc + 1, acc2)
            emitting.pop()

        schedule(head)
        for s in order:
            if not inlinable(s):
                schedule(s)
        units: List[Tuple[int, _Emitter]] = []
        qi = 0
        while qi < len(queue):
            s = queue[qi]
            qi += 1
            cur_root[0] = s
            em = _Emitter(self, depth=4, il_var="il", track_il=True, defer=defer)
            em.unit_nb = 0
            em.emitted_ins = 0
            emit_body(em, s, 0)
            units.append((s, em))

        # -- exit flush (defer mode) ---------------------------------
        def flush_lines(extra_const: Dict[int, int]) -> List[str]:
            terms: Dict[int, List[str]] = {}
            for s, vec in member_vec.items():
                for sig, v in vec.items():
                    terms.setdefault(sig, []).append(
                        f"k{s}" if v == 1 else f"k{s}*{v}"
                    )
            msp_parts: List[str] = []
            for bpc, owner, kindb in branch_meta:
                terms.setdefault(_S.BR_TKN, []).append(f"t{bpc}_{owner}")
                part_ntk = f"(k{owner} - t{bpc}_{owner})"
                terms.setdefault(_S.BR_NTK, []).append(part_ntk)
                part = f"m{bpc}_{owner}" if kindb == "m" else part_ntk
                terms.setdefault(_S.BR_MSP, []).append(part)
                msp_parts.append(part)
            if msp_parts:
                msum = " + ".join(msp_parts)
                expr = f"({msum})*{bp}" if bp != 1 else f"({msum})"
                terms.setdefault(_S.TOT_CYC, []).append(expr)
                terms.setdefault(_S.STL_CYC, []).append(expr)
            out: List[str] = []
            for sig in sorted(set(terms) | set(extra_const)):
                parts = list(terms.get(sig, []))
                c0 = extra_const.get(sig, 0)
                if c0:
                    parts.append(str(c0))
                out.append(f"counts[{sig}] += " + " + ".join(parts))
            return out

        n_parts = [
            f"k{s}" if nb == 1 else f"k{s}*{nb}"
            for s, nb in sorted(member_nb.items())
        ]
        n_expr = " + ".join(n_parts) if n_parts else "0"

        lines: List[str] = []
        max_nb = 0
        max_deltas = [0] * Signal.N_SIGNALS
        for idx, (s, em) in enumerate(units):
            body = em.lines
            if defer and em.fault_sites:
                body = []
                for ln in em.lines:
                    stripped = ln.lstrip()
                    if stripped.startswith("\x00F"):
                        fidx = int(stripped[2:-1])
                        pad = ln[: len(ln) - len(stripped)]
                        for fl in flush_lines(em.fault_sites[fidx]):
                            body.append(pad + fl)
                    else:
                        body.append(ln)
            kw = "if" if idx == 0 else "elif"
            lines.append(f"        {kw} pc == {s}:")
            lines.append("            while True:")
            lines.extend(body)
            max_nb = max(max_nb, em.unit_nb)
            for i in range(Signal.N_SIGNALS):
                if em.md[i] > max_deltas[i]:
                    max_deltas[i] = em.md[i]
        lines.append("        else:")
        lines.append("            break")

        pre: List[str] = []
        if defer:
            for s in sorted(member_nb):
                pre.append(f"    k{s} = 0")
            for bpc, owner, kindb in branch_meta:
                pre.append(f"    t{bpc}_{owner} = 0")
                if kindb == "m":
                    pre.append(f"    m{bpc}_{owner} = 0")
        else:
            pre.append("    n = 0")
        tail: List[str] = []
        if defer:
            for fl in flush_lines({}):
                tail.append("    " + fl)
            tail.append(f"    return pc, il, {n_expr}")
        else:
            tail.append("    return pc, il, n")

        src = (
            "def _region(counts, iregs, fregs, memory, mem_len, call_stack,\n"
            "            data_access, inst_fetch, predict, pred_update, pmu,\n"
            "            touched, data_base, cpu, probe_dispatch, cur_iline,\n"
            "            fuel):\n"
            + "\n".join(pre)
            + "\n"
            "    il = cur_iline\n"
            f"    pc = {head}\n"
            "    while fuel > 0:\n"
            + "\n".join(lines)
            + "\n"
            + "\n".join(tail)
            + "\n"
        )
        g = dict(self._globals)
        g["_code"] = code
        g["_eng"] = engine
        g.update(handler_globals)
        for _s, em in units:
            g.update(em.fetch_globals)
        if spec is not None and spec[1] is not None:
            g["_bt"] = spec[1]
            g["_gp"] = predictor  # gshare reads and shifts its history
        ns: Dict[str, object] = {}
        exec(compile_cached(src, f"<region@{head}>"), g, ns)
        return Region(
            head=head,
            fn=ns["_region"],
            members=tuple(member_set),
            max_nb=max_nb,
            max_deltas=max_deltas,
            has_probe=bool(active_probes),
            predictor=predictor if spec is not None else None,
            has_mem=has_mem,
        )


def _machine_fault_class():
    from repro.hw.cpu import MachineFault

    return MachineFault


def _round_to_single_fn():
    from repro.hw.cpu import _round_to_single

    return _round_to_single


class BlockEngine:
    """The block cache and region engine bound to one CPU.

    ``CPU.run`` calls :meth:`begin` once per slice and :meth:`execute`
    whenever the pc heads a (potential) block; everything else -- table
    management, deadline math, region promotion -- lives here.
    """

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.compiler = BlockCompiler(cpu)
        self.stats = EngineStats()
        self._tables: Dict[int, _CodeTable] = {}
        self._table: Optional[_CodeTable] = None
        self._ctx: Optional[tuple] = None
        #: pc of a probe that side-exited a region because its handler
        #: perturbed the machine; CPU.run runs the probe's post-retire
        #: PMU hooks (and resyncs on a program rewrite), then clears it.
        self.probe_exit_pc = -1

    # -- lifecycle ------------------------------------------------------

    def begin(self) -> Tuple[Dict[int, BasicBlock], Set[int]]:
        """Bind the engine to the CPU's current code; called per run()."""
        cpu = self.cpu
        code = cpu.code
        key = id(code)
        table = self._tables.get(key)
        if table is None or table.code is not code:
            table = _CodeTable(code, _compute_leaders(code))
            while len(self._tables) >= MAX_TABLES:
                self._tables.pop(next(iter(self._tables)))
            self._tables[key] = table
        # a slice can resume mid-block (quantum expiry); treat the resume
        # pc as a leader so the hot path re-enters compiled code there.
        entry = cpu.pc
        if entry not in table.leaders:
            table.leaders.add(entry)
            table.denied.discard(entry)
        self._table = table
        self._ctx = (
            cpu.counts, cpu.iregs, cpu.fregs, cpu.memory, len(cpu.memory),
            cpu.call_stack, cpu.hierarchy.data_access, cpu.hierarchy.inst_fetch,
            cpu.predictor.predict, cpu.predictor.update, cpu.pmu,
            cpu.touched_pages, cpu.data_base,
        )
        return table.blocks, table.denied

    def invalidate(self) -> None:
        """Drop every code table (machine reset)."""
        self._tables.clear()
        self._table = None
        self._ctx = None

    def retire(self, code: List[tuple]) -> None:
        """Drop the table of one program's code.

        Called when the CPU leaves that code for another Program (a
        load of a different Program, or a dynaprof migrate); reloading
        the same Program keeps its table and only unbinds.
        """
        self._tables.pop(id(code), None)
        if self._table is not None and self._table.code is code:
            self.unbind()

    def unbind(self) -> None:
        """Forget the active binding (context restore); tables survive."""
        self._table = None
        self._ctx = None

    def flush(self) -> None:
        """Flush-before-read barrier (installed as the PMU flush hook).

        The engine applies all effects synchronously inside
        :meth:`execute` -- compiled blocks write ``counts[]`` directly and
        a region applies its deferred counts before it returns -- so there
        is never deferred state to write back; this hook is the
        enforcement point that keeps it that way (any future staging must
        drain here) and the observability counter for the read-barrier
        tests.
        """
        self.stats.flushes += 1

    # -- execution ------------------------------------------------------

    def _fuel(self, limit: int, n_ins: int, deltas: List[int],
              rem_ins: int, cyc_budget: int) -> int:
        """Steps (at most *limit*) of one cost that fit before a deadline.

        A step retires *n_ins* instructions and adds at most ``deltas[s]``
        of each signal, cycles included: a block's or region's worst
        case.  Deadlines: the budgets,
        the sample countdown, every running overflow watch and the cycle
        timer (:func:`steps_before_deadline`); no step fits while an
        overflow delivery is in its skid window.
        """
        cpu = self.cpu
        now = cpu.counts[_S.TOT_CYC]
        cyc = deltas[_S.TOT_CYC]
        deadlines = []
        if cyc_budget >= 0:
            deadlines.append((cyc_budget - now, cyc))
        pmu = cpu.pmu
        if pmu is not None:
            if pmu.sampler is not None:
                deadlines.append((pmu.sample_countdown, n_ins))
            if pmu.watch_active:
                if pmu.has_pending():
                    return 0
                for headroom, signals in pmu.watch_constraints():
                    worst = 0
                    for s in signals:
                        worst += deltas[s]
                    deadlines.append((headroom, worst))
            if pmu.timer_active:
                deadlines.append((pmu.cycles_to_timer(now), cyc))
        return steps_before_deadline(limit, rem_ins, n_ins, deadlines)

    def execute(
        self, pc: int, cur_iline: int, rem_ins: int, cyc_budget: int
    ) -> Optional[Tuple[int, int, int]]:
        """Run the block headed at *pc* fast, or return None to decline.

        *rem_ins* is the remaining instruction budget (-1 = unlimited);
        *cyc_budget* the absolute TOT_CYC stop line (-1 = unlimited).
        Returns ``(next_pc, cur_iline, instructions_retired)``.
        """
        table = self._table
        if table is None:
            # a probe-registry change invalidated the binding mid-slice
            # (a handler registered/removed a probe); rebind to the
            # current code and carry on -- regions recompile against the
            # updated registry on their next heat promotion.
            self.begin()
            table = self._table
        region = table.regions.get(pc)
        if region is not None:
            res = self._run_region(region, cur_iline, rem_ins, cyc_budget)
            if res is not None:
                return res
        block = table.blocks.get(pc)
        if block is None:
            if pc in table.nocompile:
                return None
            if pc not in table.leaders:
                self._deny(table, pc)
                return None
            block = self.compiler.compile_block(table.code, pc)
            if block is None:
                self._deny(table, pc)
                return None
            table.blocks[pc] = block
            self.stats.blocks_compiled += 1
            if block.falls_through:
                # a MAX_BLOCK_LEN split: let the hot path continue into
                # the rest of the straight-line run.
                nxt = block.start + block.n_ins
                table.leaders.add(nxt)
                table.denied.discard(nxt)

        res = self._run_block(block, cur_iline, rem_ins, cyc_budget)
        if res is not None and res[0] <= pc:
            # back edge, a self-loop's included: count arrivals at the
            # loop head and promote hot heads to a compiled region.
            self._heat(table, res[0])
        return res

    def _run_block(
        self, block: BasicBlock, cur_iline: int, rem_ins: int, cyc_budget: int
    ) -> Optional[Tuple[int, int, int]]:
        """Run a block once; None declines (a deadline is in reach)."""
        n_ins = block.n_ins
        if not self._fuel(1, n_ins, block.max_deltas, rem_ins, cyc_budget):
            return None
        pmu = self.cpu.pmu
        sampler_on = pmu is not None and pmu.sampler is not None
        next_pc, cur_iline = block.fn(*self._ctx, cur_iline)
        if sampler_on:
            pmu.sample_countdown -= n_ins
        self.stats.blocks_executed += 1
        self.stats.fast_instructions += n_ins
        return next_pc, cur_iline, n_ins

    # -- regions --------------------------------------------------------

    def _deny(self, table: _CodeTable, pc: int) -> None:
        """Stop offering *pc* to compile_block.

        A pc that heads a region (dynaprof probes, typically) must stay
        engine-dispatchable, so it goes to ``nocompile`` instead of the
        run loop's ``denied`` set.
        """
        if pc in table.regions:
            table.nocompile.add(pc)
        else:
            table.denied.add(pc)

    def _heat(self, table: _CodeTable, head: int) -> None:
        if head in table.region_denied or head in table.regions:
            return
        h = table.heat.get(head, 0) + 1
        if h < REGION_HOT:
            table.heat[head] = h
            return
        table.heat.pop(head, None)
        self._build_region(table, head)

    def _build_region(self, table: _CodeTable, head: int) -> None:
        """Promote a hot loop head to a compiled region."""
        try:
            region = self.compiler.compile_region(
                table.code, head, self.cpu.predictor, self
            )
        except _EmitUnsupported:  # pragma: no cover - member scan excludes
            region = None
        if region is not None:
            table.regions[head] = region
            table.denied.discard(head)
            self.stats.regions_compiled += 1
            return
        table.region_denied.add(head)

    def _run_region(
        self, region: Region, cur_iline: int, rem_ins: int, cyc_budget: int
    ) -> Optional[Tuple[int, int, int]]:
        """Enter a compiled region with deadline-derived fuel, or decline.

        Fuel is the number of whole block steps that provably cannot
        cross any deadline (:meth:`_fuel`); the precise path finishes
        the tail.
        """
        cpu = self.cpu
        if region.predictor is not None and region.predictor is not cpu.predictor:
            # the inlined predictor state is stale; rebuild via heat.
            self._table.regions.pop(region.head, None)
            return None
        pmu = cpu.pmu
        if pmu is not None:
            if region.has_probe and not pmu.quiet():
                # probe handlers run inline only while no PMU machinery
                # can observe retirement; otherwise the precise path
                # keeps exact interrupt/sample delivery around probes.
                return None
            if region.has_mem and pmu.ear_active:
                # deferred cycle counts would skew the TOT_CYC timestamps
                # EAR records on miss events; the precise path (and the
                # per-block engine) keep them exact while an EAR is armed.
                return None
        fuel = self._fuel(REGION_FUEL_MAX, region.max_nb, region.max_deltas,
                          rem_ins, cyc_budget)
        if not fuel:
            return None
        # read before entry: an inline probe handler may arm a sampler.
        sampler_on = pmu is not None and pmu.sampler is not None
        next_pc, cur_iline, n = region.fn(
            *self._ctx, cpu, cpu.probe_dispatch, cur_iline, fuel
        )
        if sampler_on:
            pmu.sample_countdown -= n
        st = self.stats
        st.region_entries += 1
        st.region_instructions += n
        st.fast_instructions += n
        return next_pc, cur_iline, n
