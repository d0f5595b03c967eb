"""Static counter oracle: affine signal bounds without executing.

:func:`repro.validate.oracle.expected_signal_counts` *runs* a program
(in a minimal re-interpretation) to produce the ground-truth counts of
the architecturally determined signals.  This module derives **bounds**
on those same counts purely statically -- an abstract interpretation
over the resolved instruction stream:

1. each function region is partitioned into basic blocks and a block
   CFG is built (branches/jumps/calls/returns terminate blocks);
2. a flow-sensitive integer-constant propagation runs over the CFG
   (``CALL``/``SYSCALL``/``PROBE`` clobber every register -- there is no
   calling convention to lean on);
3. natural loops are found via dominators, and for the two structured
   loop shapes the workload builder emits -- top-test (``bge`` in the
   header, :meth:`repro.workloads.builder.Flow.loop`) and bottom-test
   (compare-and-branch in the latch) -- the trip count is solved in
   closed form from the single ``addi`` induction step and the
   loop-invariant bound;
4. block execution frequencies are propagated as *intervals*
   ``[lo, hi]`` (``hi = None`` meaning unbounded), innermost loops
   first: a recognized exit branch leaves the loop exactly once per
   entry, an unrecognized branch splits pessimistically;
5. function summaries compose bottom-up over the (acyclic) call graph;
   recursion, indirect region entry, or any shape the analysis cannot
   prove collapses to the sound top element ``[0, unbounded)``.

The contract -- checked property-style by the test suite against the
exact oracle -- is the **bracket invariant**: for every signal in
:data:`repro.validate.oracle.ORACLE_SIGNALS`,
``bounds.lo[s] <= exact[s] <= bounds.hi[s]``.  When every recognized
structure resolves exactly, ``lo == hi`` (:meth:`SignalBounds.is_exact`)
and the static oracle *is* the oracle, no execution needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.hw.events import Signal
from repro.hw.isa import (
    BRANCH_OPS,
    NUM_IREGS,
    FunctionInfo,
    Op,
    Program,
)

__all__ = [
    "Interval",
    "SignalBounds",
    "StaticOracleError",
    "static_signal_bounds",
    "op_signal_vector",
]


class StaticOracleError(Exception):
    """Raised for malformed inputs (not for imprecision -- imprecision
    widens to ``[0, unbounded)``, it never raises)."""


# ---------------------------------------------------------------------------
# intervals over non-negative execution frequencies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A non-negative integer interval; ``hi is None`` means unbounded."""

    lo: int
    hi: Optional[int]

    def __post_init__(self) -> None:
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise StaticOracleError(f"malformed interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None


ZERO = Interval(0, 0)
ONE = Interval(1, 1)
TOP = Interval(0, None)


def iadd(a: Interval, b: Interval) -> Interval:
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(a.lo + b.lo, hi)


def imul(a: Interval, b: Interval) -> Interval:
    # exact-zero absorbs even an unbounded partner
    if (a.lo, a.hi) == (0, 0) or (b.lo, b.hi) == (0, 0):
        return ZERO
    hi = None if a.hi is None or b.hi is None else a.hi * b.hi
    return Interval(a.lo * b.lo, hi)


def _tighten(a: Interval, b: Interval) -> Interval:
    """Intersect two intervals that both contain the true value."""
    lo = max(a.lo, b.lo)
    if b.hi is None:
        hi = a.hi
    elif a.hi is None:
        hi = b.hi
    else:
        hi = min(a.hi, b.hi)
    if hi is not None and hi < lo:
        return b  # interval-sum slack; *b* (the seed) is authoritative
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# per-signal bounds
# ---------------------------------------------------------------------------


#: The signals the exact oracle determines architecturally; bounds are
#: meaningful for exactly these (everything else stays [0, 0]).
from repro.validate.oracle import ORACLE_SIGNALS  # noqa: E402  (cycle-free)


@dataclass
class SignalBounds:
    """Per-signal count intervals; index with :class:`Signal` values."""

    lo: List[int] = field(default_factory=lambda: [0] * Signal.N_SIGNALS)
    hi: List[Optional[int]] = field(
        default_factory=lambda: [0] * Signal.N_SIGNALS
    )

    def add(self, signal: int, freq: Interval) -> None:
        self.lo[signal] += freq.lo
        if self.hi[signal] is None or freq.hi is None:
            self.hi[signal] = None
        else:
            self.hi[signal] += freq.hi

    def add_bounds(self, other: "SignalBounds", freq: Interval) -> None:
        for sig in ORACLE_SIGNALS:
            self.add(sig, imul(freq, Interval(other.lo[sig], other.hi[sig])))

    def interval(self, signal: int) -> Interval:
        return Interval(self.lo[signal], self.hi[signal])

    def is_exact(self) -> bool:
        return all(self.lo[s] == self.hi[s] for s in ORACLE_SIGNALS)

    def brackets(self, counts: Sequence[int]) -> bool:
        """True when ``lo <= counts <= hi`` on every oracle signal."""
        for sig in ORACLE_SIGNALS:
            if counts[sig] < self.lo[sig]:
                return False
            if self.hi[sig] is not None and counts[sig] > self.hi[sig]:
                return False
        return True

    def mismatches(self, counts: Sequence[int]) -> List[str]:
        """Human-readable bracket violations (for test failure output)."""
        from repro.hw.events import signal_name

        out = []
        for sig in ORACLE_SIGNALS:
            lo, hi = self.lo[sig], self.hi[sig]
            if counts[sig] < lo or (hi is not None and counts[sig] > hi):
                out.append(
                    f"{signal_name(sig)}: exact={counts[sig]} "
                    f"not in [{lo}, {'inf' if hi is None else hi}]"
                )
        return out

    @classmethod
    def unknown(cls) -> "SignalBounds":
        b = cls()
        for sig in ORACLE_SIGNALS:
            b.hi[sig] = None
        return b


# ---------------------------------------------------------------------------
# per-op signal vectors (mirrors validate.oracle's counting, exactly)
# ---------------------------------------------------------------------------

_INT_OPS = frozenset(
    {Op.LI, Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.ADDI, Op.MULI}
)

_OP_EXTRA: Dict[int, Tuple[int, ...]] = {
    Op.LOAD: (Signal.LD_INS,),
    Op.FLOAD: (Signal.LD_INS,),
    Op.STORE: (Signal.SR_INS,),
    Op.FSTORE: (Signal.SR_INS,),
    Op.FMA: (Signal.FP_FMA,),
    Op.FADD: (Signal.FP_ADD,),
    Op.FSUB: (Signal.FP_ADD,),
    Op.FMUL: (Signal.FP_MUL,),
    Op.FDIV: (Signal.FP_DIV,),
    Op.FSQRT: (Signal.FP_SQRT,),
    Op.FCVT: (Signal.FP_CVT,),
    Op.FLI: (Signal.FP_MOV,),
    Op.FMOV: (Signal.FP_MOV,),
    Op.JMP: (Signal.BR_INS,),
    Op.CALL: (Signal.BR_INS, Signal.CALL_INS),
    Op.RET: (Signal.BR_INS, Signal.RET_INS),
    Op.SYSCALL: (Signal.SYS_INS,),
    Op.PROBE: (Signal.PRB_INS,),
}


def op_signal_vector(op: int) -> Tuple[int, ...]:
    """Outcome-independent signals one execution of *op* increments.

    Conditional branches additionally increment ``BR_TKN`` or
    ``BR_NTK`` depending on the outcome; that bit is the only
    state-dependent part of the whole signal model and is handled
    separately by both the frequency propagation here and the block
    engine's taken-count replay.
    """
    vec = [Signal.TOT_INS]
    if op in _INT_OPS:
        vec.append(Signal.INT_INS)
    elif op in BRANCH_OPS:
        vec.append(Signal.BR_INS)
        vec.append(Signal.BR_CN)
    else:
        vec.extend(_OP_EXTRA.get(op, ()))
    return tuple(vec)


# ---------------------------------------------------------------------------
# basic blocks within a function region
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    start: int
    end: int  # exclusive; terminator is code[end - 1]


def _partition(code, region: FunctionInfo) -> List[_Block]:
    leaders: Set[int] = {region.start}
    for pc in range(region.start, region.end):
        op, a, b, c, d = code[pc]
        if op in BRANCH_OPS:
            if region.start <= c < region.end:
                leaders.add(c)
            leaders.add(pc + 1)
        elif op == Op.JMP:
            if region.start <= a < region.end:
                leaders.add(a)
            leaders.add(pc + 1)
        elif op in (Op.CALL, Op.RET, Op.HALT):
            leaders.add(pc + 1)
    ordered = sorted(pc for pc in leaders if region.start <= pc < region.end)
    blocks = []
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else region.end
        blocks.append(_Block(start, end))
    return blocks


class _Irregular(Exception):
    """Internal bail signal: the function's shape defeats the analysis;
    its summary collapses to :meth:`SignalBounds.unknown`."""


def _successors(code, region, block: _Block) -> List[Tuple[int, str]]:
    """(target pc, edge kind) pairs; kinds: taken/fall/jmp/call/none."""
    term_pc = block.end - 1
    op, a, b, c, d = code[term_pc]
    succ: List[Tuple[int, str]] = []
    if op in BRANCH_OPS:
        if not region.start <= c < region.end:
            raise _Irregular("branch leaves the function region")
        succ.append((c, "taken"))
        if block.end < region.end:
            succ.append((block.end, "fall"))
        else:
            raise _Irregular("conditional fall-through exits the region")
    elif op == Op.JMP:
        if not region.start <= a < region.end:
            raise _Irregular("jump leaves the function region")
        succ.append((a, "jmp"))
    elif op in (Op.RET, Op.HALT):
        pass
    else:  # CALL or plain fall-through into the next leader
        kind = "call" if op == Op.CALL else "fall"
        if block.end < region.end:
            succ.append((block.end, kind))
        elif op != Op.CALL:
            raise _Irregular("control runs off the end of the region")
        # a CALL as the region's last instruction never returns into
        # this region; treat as no successor (the callee HALTs or the
        # program faults -- either way nothing downstream runs).
    return succ


# ---------------------------------------------------------------------------
# constant propagation (integer registers only)
# ---------------------------------------------------------------------------

_Consts = Dict[int, int]  # reg index -> known value; absent = unknown

#: Ops that invalidate every tracked register.  Only CALL: the callee
#: writes registers freely (no calling convention).  PROBE and SYSCALL
#: are *pure counting ops in the exact oracle's semantics* -- the model
#: this analysis brackets -- so they clobber nothing here even though
#: the full machine may run arbitrary probe handlers.
_CLOBBER_ALL = frozenset({Op.CALL})


def _const_transfer(consts: _Consts, ins) -> _Consts:
    op, a, b, c, d = ins
    if op in _CLOBBER_ALL:
        return {}
    out = dict(consts)

    def put(reg, value):
        if value is None:
            out.pop(reg, None)
        else:
            out[reg] = value

    if op == Op.LI:
        put(a, d if isinstance(d, int) else None)
    elif op == Op.MOV:
        put(a, out.get(b))
    elif op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV):
        x, y = out.get(b), out.get(c)
        if x is None or y is None or (op == Op.DIV and y == 0):
            put(a, None)
        elif op == Op.ADD:
            put(a, x + y)
        elif op == Op.SUB:
            put(a, x - y)
        elif op == Op.MUL:
            put(a, x * y)
        else:
            put(a, int(x / y))  # trunc toward 0, as the machine does
    elif op in (Op.ADDI, Op.MULI):
        x = out.get(b)
        if x is None or not isinstance(d, int):
            put(a, None)
        else:
            put(a, x + d if op == Op.ADDI else x * d)
    elif op == Op.LOAD:
        put(a, None)
    return out


def _meet(a: Optional[_Consts], b: _Consts) -> _Consts:
    if a is None:
        return dict(b)
    return {r: v for r, v in a.items() if b.get(r) == v}


def _const_fixpoint(
    code, blocks: List[_Block], entry_consts: _Consts
) -> Tuple[Dict[int, _Consts], Dict[int, _Consts]]:
    """Per-block IN/OUT constant maps (optimistic iteration)."""
    ins_map: Dict[int, Optional[_Consts]] = {b.start: None for b in blocks}
    outs_map: Dict[int, Optional[_Consts]] = {b.start: None for b in blocks}
    by_start = {b.start: b for b in blocks}
    work = [blocks[0].start]
    ins_map[blocks[0].start] = dict(entry_consts)
    while work:
        start = work.pop()
        block = by_start[start]
        consts = dict(ins_map[start] or {})
        for pc in range(block.start, block.end):
            consts = _const_transfer(consts, code[pc])
        if outs_map[start] == consts:
            continue
        outs_map[start] = consts
        for tgt, _kind in block.succ:  # type: ignore[attr-defined]
            merged = _meet(ins_map[tgt], consts) if ins_map[tgt] is not None \
                else dict(consts)
            if merged != ins_map[tgt]:
                ins_map[tgt] = merged
                work.append(tgt)
    return (
        {s: (m or {}) for s, m in ins_map.items()},
        {s: (m or {}) for s, m in outs_map.items()},
    )


# ---------------------------------------------------------------------------
# dominators and natural loops
# ---------------------------------------------------------------------------


def _dominators(starts: List[int], entry: int, preds) -> Dict[int, Set[int]]:
    full = set(starts)
    dom = {s: set(full) for s in starts}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for s in starts:
            if s == entry:
                continue
            ps = [p for p, _ in preds.get(s, ())]
            new = set(full) if not ps else set.intersection(
                *(dom[p] for p in ps)
            )
            new.add(s)
            if new != dom[s]:
                dom[s] = new
                changed = True
    return dom


@dataclass
class _Loop:
    header: int
    blocks: Set[int]
    back_sources: Set[int]
    children: List["_Loop"] = field(default_factory=list)
    trips: Interval = TOP  # header executions per loop entry
    exit_block: Optional[int] = None  # recognized single exit branch
    exit_edge_taken: bool = False  # exit is the taken side of that branch


def _natural_loops(starts, entry, preds, succs, dom) -> List[_Loop]:
    by_header: Dict[int, _Loop] = {}
    for u in starts:
        for v, _kind in succs.get(u, ()):
            if v in dom[u]:  # back edge u -> v
                loop = by_header.setdefault(v, _Loop(v, {v}, set()))
                loop.back_sources.add(u)
                stack = [u]
                while stack:
                    n = stack.pop()
                    if n in loop.blocks:
                        continue
                    loop.blocks.add(n)
                    stack.extend(p for p, _ in preds.get(n, ()))
    loops = sorted(by_header.values(), key=lambda l: len(l.blocks))
    # nest: attach each loop to the smallest strictly containing loop
    roots: List[_Loop] = []
    for i, inner in enumerate(loops):
        parent = None
        for outer in loops[i + 1:]:
            if inner.header != outer.header and \
                    inner.blocks <= outer.blocks:
                parent = outer
                break
        (parent.children if parent else roots).append(inner)
    return roots


# ---------------------------------------------------------------------------
# trip-count inference
# ---------------------------------------------------------------------------

_REL_BY_OP = {Op.BEQ: "eq", Op.BNE: "ne", Op.BLT: "lt", Op.BGE: "ge"}
_MIRROR = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
           "eq": "eq", "ne": "ne"}
_COMPLEMENT = {"lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
               "eq": "ne", "ne": "eq"}


def _first_k(kind: str, x0: int, s: int, bound: int) -> Optional[int]:
    """Smallest ``k >= 0`` with ``pred(x0 + k*s, bound)`` true, else None."""
    if kind == "lt":
        return _first_k("le", x0, s, bound - 1)
    if kind == "gt":
        return _first_k("le", -x0, -s, -(bound + 1))
    if kind == "ge":
        return _first_k("le", -x0, -s, -bound)
    if kind == "le":
        if x0 <= bound:
            return 0
        if s >= 0:
            return None
        p, q = x0 - bound, -s
        return (p + q - 1) // q  # ceil((x0-bound)/(-s)), both positive
    if kind == "eq":
        if s == 0:
            return 0 if x0 == bound else None
        k, rem = divmod(bound - x0, s)
        return k if rem == 0 and k >= 0 else None
    if kind == "ne":
        if x0 != bound:
            return 0
        return None if s == 0 else 1
    raise StaticOracleError(f"unknown relation {kind!r}")


def _written_iregs(code, pcs, callee_writes) -> Dict[int, List[int]]:
    """reg -> pcs (within *pcs*) whose instruction writes it; a clobber
    op maps every register to that pc."""
    writes: Dict[int, List[int]] = {}
    for pc in pcs:
        op, a, b, c, d = code[pc]
        if op == Op.CALL:
            for r in callee_writes(a):
                writes.setdefault(r, []).append(pc)
        elif op in _INT_OPS or op == Op.LOAD:
            writes.setdefault(a, []).append(pc)
    return writes


def _infer_trips(
    code, loop: _Loop, by_start, succs, dom, preds,
    outs_consts, callee_writes, callee_may_halt,
) -> None:
    """Fill ``loop.trips`` / ``loop.exit_block`` when the loop matches a
    structured shape; otherwise leave the pessimistic defaults."""
    # exactly one edge leaves the loop, from a conditional branch; no
    # other way out (a HALT or a may-halt call would end the program
    # mid-loop, invalidating an exact trip count)
    exits = []
    loop_pcs = [pc for s in loop.blocks
                for pc in range(by_start[s].start, by_start[s].end)]
    for pc in loop_pcs:
        op = code[pc][0]
        if op == Op.HALT:
            return
        if op == Op.CALL and callee_may_halt(code[pc][1]):
            return
    for u in loop.blocks:
        for v, kind in succs.get(u, ()):
            if v not in loop.blocks:
                exits.append((u, v, kind))
    if len(exits) != 1:
        return
    exit_src, _exit_tgt, exit_kind = exits[0]
    if any(exit_src in ch.blocks for ch in loop.children):
        return  # exit buried in a nested loop: not a structured shape
    block = by_start[exit_src]
    term_pc = block.end - 1
    op, ra, rb, c, d = code[term_pc]
    if op not in BRANCH_OPS:
        return
    if exit_src != loop.header and exit_src not in loop.back_sources:
        return  # exit from the middle: not a structured shape

    writes = _written_iregs(code, loop_pcs, callee_writes)

    def classify(reg):
        w = writes.get(reg, [])
        if not w:
            return ("inv", None, None)
        if len(w) != 1:
            return (None, None, None)
        wpc = w[0]
        wop, wa, wb, wc, wd = code[wpc]
        if wop != Op.ADDI or wa != reg or wb != reg or \
                not isinstance(wd, int) or wd == 0:
            return (None, None, None)
        # the step must run exactly once per iteration: its block is in
        # this loop (not a nested one) and dominates every back edge
        wstart = next(s for s in loop.blocks
                      if by_start[s].start <= wpc < by_start[s].end)
        inner = any(wstart in ch.blocks for ch in loop.children)
        if inner or not all(wstart in dom[src]
                            for src in loop.back_sources):
            return (None, None, None)
        return ("ind", wd, wpc)

    ka, sa, pca = classify(ra)
    kb, sb, pcb = classify(rb)
    if ka == "ind" and kb == "inv":
        ind_reg, step, step_pc, inv_reg, mirror = ra, sa, pca, rb, False
    elif kb == "ind" and ka == "inv":
        ind_reg, step, step_pc, inv_reg, mirror = rb, sb, pcb, ra, True
    else:
        return

    # loop-invariant bound and induction base: the values flowing in on
    # the entry edges (the header's IN fact meets the back edge, where
    # the induction register varies, so it cannot be used here)
    entry_preds = [p for p, _ in preds.get(loop.header, ())
                   if p not in loop.blocks]
    if not entry_preds:
        return
    entry_vals: Optional[_Consts] = None
    for p in entry_preds:
        entry_vals = _meet(entry_vals, outs_consts.get(p, {}))
    bound = entry_vals.get(inv_reg)
    base = entry_vals.get(ind_reg)
    if bound is None or base is None:
        return

    rel = _REL_BY_OP[op]
    if mirror:
        rel = _MIRROR[rel]
    if exit_kind != "taken":
        rel = _COMPLEMENT[rel]
    # Value of the induction register at the k-th execution of the
    # compare (k = 0, 1, ...).  The step runs once per completed
    # iteration; it additionally runs *before* the k-th compare when it
    # sits between the start of the compare's own iteration and the
    # compare itself: earlier in the same block, or in a block that
    # dominates a non-header exit block (the classic bottom-test latch).
    step_start = next(s for s in loop.blocks
                      if by_start[s].start <= step_pc < by_start[s].end)
    if step_start == exit_src:
        pre = 1 if step_pc < term_pc else 0
    elif exit_src != loop.header and step_start in dom[exit_src]:
        pre = 1
    else:
        pre = 0
    k_exit = _first_k(rel, base + pre * step, step, bound)
    if k_exit is None:
        return  # provably never exits; keep the pessimistic default
    loop.trips = Interval(k_exit + 1, k_exit + 1)
    loop.exit_block = exit_src
    loop.exit_edge_taken = exit_kind == "taken"


# ---------------------------------------------------------------------------
# frequency propagation and function summaries
# ---------------------------------------------------------------------------


@dataclass
class _FnSummary:
    bounds: SignalBounds
    may_halt: bool
    writes: FrozenSet[int]


_UNKNOWN_SUMMARY = _FnSummary(
    SignalBounds.unknown(), True, frozenset(range(NUM_IREGS))
)


class _FunctionAnalysis:
    def __init__(self, code, region: FunctionInfo, summaries, fn_names):
        self.code = code
        self.region = region
        self.summaries = summaries  # name -> _FnSummary
        self.fn_names = fn_names  # entry pc -> name
        self.may_halt = False

    def _callee(self, target) -> _FnSummary:
        name = self.fn_names.get(target)
        if name is None:
            return _UNKNOWN_SUMMARY
        return self.summaries.get(name, _UNKNOWN_SUMMARY)

    def callee_writes(self, target) -> FrozenSet[int]:
        return self._callee(target).writes

    def run(self, entry_consts: _Consts) -> SignalBounds:
        code, region = self.code, self.region
        all_blocks = _partition(code, region)
        by_start = {b.start: b for b in all_blocks}
        # keep only blocks reachable from the region entry: dead blocks
        # would otherwise register phantom dominator back edges
        reachable: Set[int] = set()
        stack = [region.start]
        while stack:
            s = stack.pop()
            if s in reachable:
                continue
            reachable.add(s)
            block = by_start[s]
            block.succ = _successors(code, region, block)  # type: ignore
            stack.extend(t for t, _ in block.succ)  # type: ignore
        blocks = [b for b in all_blocks if b.start in reachable]
        starts = [b.start for b in blocks]
        succs = {b.start: b.succ for b in blocks}  # type: ignore
        preds: Dict[int, List[Tuple[int, str]]] = {s: [] for s in starts}
        for b in blocks:
            for tgt, kind in b.succ:  # type: ignore[attr-defined]
                preds[tgt].append((b.start, kind))

        ins_consts, outs_consts = _const_fixpoint(
            code, blocks, entry_consts
        )
        dom = _dominators(starts, region.start, preds)
        roots = _natural_loops(starts, region.start, preds, succs, dom)

        def may_halt_callee(target) -> bool:
            return self._callee(target).may_halt

        def infer(loop: _Loop):
            for ch in loop.children:
                infer(ch)
            _infer_trips(code, loop, by_start, succs, dom, preds,
                         outs_consts, self.callee_writes, may_halt_callee)

        for loop in roots:
            infer(loop)

        bounds = SignalBounds()
        top = _Loop(region.start, set(starts), set(), children=roots,
                    trips=ONE)
        self._flow(top, ONE, bounds, by_start, succs, ins_consts)
        return bounds

    # -- one loop-tree node -------------------------------------------

    def _flow(
        self, node: _Loop, entry_freq: Interval, bounds: SignalBounds,
        by_start, succs, ins_consts,
    ) -> Dict[int, Interval]:
        """Accumulate signal counts for one entry of *node* scaled by
        *entry_freq*; returns the frequencies flowing out of it."""
        child_of: Dict[int, _Loop] = {}
        for ch in node.children:
            for s in ch.blocks:
                child_of[s] = ch
        members = [s for s in node.blocks if s not in child_of]

        def condense(s: int):
            ch = child_of.get(s)
            if ch is None:
                return s
            if s != ch.header:
                raise _Irregular("irreducible entry into a nested loop")
            return ch

        # condensed DAG (back edges to this node's header dropped)
        cedges: Dict[object, List[Tuple[object, int, str]]] = {}
        indeg: Dict[object, int] = {}
        nodes: List[object] = list(members) + list(node.children)
        for n in nodes:
            cedges[id(n)] = []
            indeg[id(n)] = 0
        by_id = {id(n): n for n in nodes}

        def out_edges(n):
            if isinstance(n, _Loop):
                for u in n.blocks:
                    for v, kind in succs.get(u, ()):
                        if v not in n.blocks:
                            yield u, v, kind
            else:
                for v, kind in succs.get(n, ()):
                    yield n, v, kind

        exits: Dict[int, Interval] = {}
        leaves_node: Set[int] = set()  # ids of nodes with an exit edge
        for n in nodes:
            for u, v, kind in out_edges(n):
                if v == node.header and v in node.blocks:
                    continue  # back edge of this node
                if v in node.blocks:
                    tgt = condense(v)
                    cedges[id(n)].append((tgt, u, kind))
                    indeg[id(tgt)] += 1
                else:
                    leaves_node.add(id(n))

        seed = imul(entry_freq, node.trips)
        head = condense(node.header)
        if isinstance(head, _Loop) and head.header != node.header:
            raise _Irregular("loop header inside a sibling loop")

        # topological order (Kahn); a leftover node means irreducibility
        order: List[object] = []
        pending = dict(indeg)
        ready = [n for n in nodes if pending[id(n)] == 0]
        while ready:
            n = ready.pop()
            order.append(n)
            for tgt, _u, _kind in cedges[id(n)]:
                pending[id(tgt)] -= 1
                if pending[id(tgt)] == 0:
                    ready.append(tgt)
        if len(order) != len(nodes):
            raise _Irregular("condensed flow graph is not acyclic")

        # Post-dominance over the condensed DAG, with a virtual sink fed
        # by every node where a traversal can end: no internal
        # successors, an edge leaving this region, a nested loop (its
        # trips may be unbounded), or an op that can stop the program
        # (HALT, a call into a may-halt callee).  A node post-dominating
        # the head lies on *every* traversal exactly once, so its
        # frequency is exactly the seed -- this undoes the precision the
        # plain interval sum loses at a branch-rejoin.
        _SINK = -1
        pdom: Dict[object, FrozenSet[int]] = {}
        for n in reversed(order):
            ends_here = (
                id(n) in leaves_node
                or not cedges[id(n)]
                or isinstance(n, _Loop)
                or self._can_stop(n, by_start)
            )
            sets = [pdom[id(tgt)] for tgt, _u, _k in cedges[id(n)]]
            if ends_here:
                sets.append(frozenset({_SINK}))
            inter: FrozenSet[int] = sets[0]
            for s in sets[1:]:
                inter = inter & s
            pdom[id(n)] = inter | {id(n)}
        on_every_path = pdom[id(head)]

        freq: Dict[object, Interval] = {id(n): ZERO for n in nodes}
        freq[id(head)] = seed
        for n in order:
            f = freq[id(n)]
            if id(n) in on_every_path:
                f = _tighten(f, seed)
            edge_freqs = self._node_counts(
                n, f, entry_freq, node, bounds, by_start, succs, ins_consts
            )
            for tgt, u, kind in cedges[id(n)]:
                iv = edge_freqs.get((u, kind), ZERO)
                freq[id(tgt)] = iadd(freq[id(tgt)], iv)
            for (u, kind), iv in edge_freqs.items():
                for v, k2 in succs.get(u, ()):
                    if k2 == kind and v not in node.blocks:
                        exits[v] = iadd(exits.get(v, ZERO), iv)
        return exits

    def _can_stop(self, n, by_start) -> bool:
        """The program itself can end while executing block *n*."""
        block = by_start[n]
        for pc in range(block.start, block.end):
            op = self.code[pc][0]
            if op == Op.HALT:
                return True
            if op == Op.CALL and self._callee(self.code[pc][1]).may_halt:
                return True
        return False

    def _node_counts(
        self, n, f: Interval, entry_freq: Interval, owner: _Loop,
        bounds: SignalBounds, by_start, succs, ins_consts,
    ) -> Dict[Tuple[int, str], Interval]:
        """Count *n* executed with frequency *f*; returns per-edge
        frequencies keyed by (source block, edge kind)."""
        if isinstance(n, _Loop):
            inner = self._flow(n, f, bounds, by_start, succs, ins_consts)
            out: Dict[Tuple[int, str], Interval] = {}
            for u in n.blocks:
                for v, kind in succs.get(u, ()):
                    if v not in n.blocks and v in inner:
                        out[(u, kind)] = inner[v]
            return out

        block = by_start[n]
        code = self.code
        for pc in range(block.start, block.end):
            op = code[pc][0]
            for sig in op_signal_vector(op):
                bounds.add(sig, f)
            if op == Op.HALT:
                self.may_halt = True
            elif op == Op.CALL:
                bounds.add_bounds(self._callee(code[pc][1]).bounds, f)

        term = code[block.end - 1]
        op = term[0]
        succ = succs.get(n, ())
        if op in BRANCH_OPS:
            taken, fall = ZERO, ZERO
            if owner.exit_block == n and owner.trips.exact is not None:
                # recognized loop exit: leaves exactly once per entry
                stay = imul(entry_freq,
                            Interval(owner.trips.lo - 1, owner.trips.lo - 1))
                taken, fall = (entry_freq, stay) if owner.exit_edge_taken \
                    else (stay, entry_freq)
            else:
                decided = self._static_outcome(block, ins_consts)
                if decided is True:
                    taken = f
                elif decided is False:
                    fall = f
                else:
                    taken = fall = Interval(0, f.hi)
            bounds.add(Signal.BR_TKN, taken)
            bounds.add(Signal.BR_NTK, fall)
            return {(n, "taken"): taken, (n, "fall"): fall}
        if op == Op.CALL and self._callee(term[1]).may_halt:
            return {(n, kind): Interval(0, f.hi) for _v, kind in succ}
        return {(n, kind): f for _v, kind in succ}

    def _static_outcome(self, block, ins_consts) -> Optional[bool]:
        consts = dict(ins_consts.get(block.start, {}))
        for pc in range(block.start, block.end - 1):
            consts = _const_transfer(consts, self.code[pc])
        op, ra, rb, c, d = self.code[block.end - 1]
        x, y = consts.get(ra), consts.get(rb)
        if x is None or y is None:
            return None
        if op == Op.BEQ:
            return x == y
        if op == Op.BNE:
            return x != y
        if op == Op.BLT:
            return x < y
        return x >= y  # BGE


# ---------------------------------------------------------------------------
# whole-program composition
# ---------------------------------------------------------------------------


def _call_targets(code, region: FunctionInfo) -> Set[int]:
    return {
        code[pc][1]
        for pc in range(region.start, region.end)
        if code[pc][0] == Op.CALL
    }


def _direct_writes(code, region: FunctionInfo) -> Set[int]:
    regs: Set[int] = set()
    for pc in range(region.start, region.end):
        op, a, b, c, d = code[pc]
        if op in _INT_OPS or op == Op.LOAD:
            regs.add(a)
    return regs


def static_signal_bounds(program: Program) -> SignalBounds:
    """Bounds on every oracle signal for one run of *program*.

    Never executes an instruction.  Guaranteed sound: for each signal
    in :data:`ORACLE_SIGNALS` the exact oracle's count lies within
    ``[lo, hi]`` (``hi is None`` = unbounded) whenever the exact oracle
    completes without error.
    """
    code = program.resolve()
    entry_pc = program.label_at(program.entry)
    region = program.function_at(entry_pc)
    if region is None or region.start != entry_pc:
        region = FunctionInfo("__entry__", entry_pc, len(code))
    fn_regions: Dict[str, FunctionInfo] = {region.name: region}
    for name, info in program.functions.items():
        if info.start != region.start:
            fn_regions.setdefault(name, info)
    fn_names = {info.start: name for name, info in fn_regions.items()}

    # bottom-up over the call graph; anything cyclic stays unknown
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(name: str) -> None:
        if state.get(name, 0):
            if state[name] == 1:
                state[name] = 3  # recursion: poison
            return
        state[name] = 1
        for tgt in _call_targets(code, fn_regions[name]):
            callee = fn_names.get(tgt)
            if callee is not None:
                visit(callee)
                if state.get(callee) == 3:
                    state[name] = 3
        if state[name] == 1:
            state[name] = 2
        order.append(name)

    for name in fn_regions:
        visit(name)

    summaries: Dict[str, _FnSummary] = {}
    for name in order:
        if state.get(name) == 3 or name == region.name:
            continue
        info = fn_regions[name]
        analysis = _FunctionAnalysis(code, info, summaries, fn_names)
        try:
            fn_bounds = analysis.run({})
        except _Irregular:
            continue  # missing summary == unknown
        writes = set(_direct_writes(code, info))
        may_halt = analysis.may_halt
        for tgt in _call_targets(code, info):
            callee = summaries.get(fn_names.get(tgt, ""), _UNKNOWN_SUMMARY)
            writes |= callee.writes
            may_halt = may_halt or callee.may_halt
        summaries[name] = _FnSummary(fn_bounds, may_halt, frozenset(writes))

    entry_consts: _Consts = {r: 0 for r in range(NUM_IREGS)}
    analysis = _FunctionAnalysis(code, region, summaries, fn_names)
    try:
        return analysis.run(entry_consts)
    except _Irregular:
        return SignalBounds.unknown()
