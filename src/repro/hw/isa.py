"""Instruction set, programs and the assembler for the simulated machine.

The ISA is a small load/store architecture, rich enough to express the
workloads the paper's experiments need (dense linear algebra with fused
multiply-adds, pointer chasing, branchy kernels, mixed-precision code with
rounding/convert instructions) while staying fast to interpret in Python.

Programs are kept in *symbolic* form -- branch and call targets are string
labels bound to instruction indices -- so that tools can rewrite a program
(e.g. dynaprof inserting probes at function entry/exit) without breaking
control flow.  :meth:`Program.resolve` lowers the symbolic form to a flat
list of plain tuples that the interpreter executes.

Instruction layout: every instruction is ``(op, a, b, c, d)`` where the
meaning of the operand slots depends on ``op`` (documented per opcode in
:class:`Op`).  Register operands are small ints (index into the integer or
float register file); immediate operands are Python ints/floats; resolved
control-flow targets are absolute instruction indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class ProgramError(Exception):
    """Raised for malformed programs: unknown labels, bad registers, etc."""


class Op:
    """Opcode namespace.  Values are dense ints for fast dispatch.

    Operand conventions (``a``, ``b``, ``c``, ``d``):

    ======== =====================================================
    opcode   operands
    ======== =====================================================
    HALT     --
    NOP      --
    JMP      a=target
    BEQ      a=ra, b=rb, c=target   (branch if ra == rb)
    BNE      a=ra, b=rb, c=target
    BLT      a=ra, b=rb, c=target   (branch if ra < rb)
    BGE      a=ra, b=rb, c=target
    CALL     a=target
    RET      --
    PROBE    a=probe id (int)
    SYSCALL  a=syscall number
    LI       a=rd, d=imm (int)
    MOV      a=rd, b=ra
    ADD      a=rd, b=ra, c=rb
    SUB      a=rd, b=ra, c=rb
    MUL      a=rd, b=ra, c=rb
    DIV      a=rd, b=ra, c=rb       (integer division, trunc toward 0)
    ADDI     a=rd, b=ra, d=imm
    MULI     a=rd, b=ra, d=imm
    LOAD     a=rd, b=ra, d=offset   (rd <- mem[ra + offset], int)
    STORE    a=rs, b=ra, d=offset   (mem[ra + offset] <- rs, int)
    FLOAD    a=fd, b=ra, d=offset   (fd <- mem[ra + offset], float)
    FSTORE   a=fs, b=ra, d=offset   (mem[ra + offset] <- fs, float)
    FLI      a=fd, d=imm (float)
    FMOV     a=fd, b=fa
    FADD     a=fd, b=fa, c=fb
    FSUB     a=fd, b=fa, c=fb
    FMUL     a=fd, b=fa, c=fb
    FDIV     a=fd, b=fa, c=fb
    FSQRT    a=fd, b=fa
    FMA      a=fd, b=fa, c=fb, d=fc (fd <- fa * fb + fc, fused)
    FCVT     a=fd, b=fa             (precision convert / rounding)
    ======== =====================================================
    """

    HALT = 0
    NOP = 1
    JMP = 2
    BEQ = 3
    BNE = 4
    BLT = 5
    BGE = 6
    CALL = 7
    RET = 8
    PROBE = 9
    SYSCALL = 10
    LI = 11
    MOV = 12
    ADD = 13
    SUB = 14
    MUL = 15
    DIV = 16
    ADDI = 17
    MULI = 18
    LOAD = 19
    STORE = 20
    FLOAD = 21
    FSTORE = 22
    FLI = 23
    FMOV = 24
    FADD = 25
    FSUB = 26
    FMUL = 27
    FDIV = 28
    FSQRT = 29
    FMA = 30
    FCVT = 31

    N_OPS = 32


#: Opcode index -> mnemonic.
OP_NAMES: List[str] = [""] * Op.N_OPS
for _name, _value in vars(Op).items():
    if _name.startswith("_") or _name == "N_OPS":
        continue
    OP_NAMES[_value] = _name

OP_BY_NAME: Dict[str, int] = {n: i for i, n in enumerate(OP_NAMES) if n}

#: Opcodes whose ``a``/``c`` operand is a control-flow target label.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
JUMP_OPS = frozenset({Op.JMP, Op.CALL})
CONTROL_OPS = BRANCH_OPS | JUMP_OPS | {Op.RET, Op.HALT}

#: Opcodes that access data memory.
MEMORY_OPS = frozenset({Op.LOAD, Op.STORE, Op.FLOAD, Op.FSTORE})

#: Opcodes the block engine never compiles: they re-enter the simulation
#: control plane (probe dispatch, syscalls) or end execution, so they
#: always take the precise interpreter path and cut basic blocks short.
BLOCK_BREAK_OPS = frozenset({Op.PROBE, Op.SYSCALL, Op.HALT})

#: Opcodes that can raise a MachineFault at runtime (bad address, divide
#: by zero, negative sqrt, empty call stack).  The block compiler flushes
#: pending count updates before each of these so the counts array is
#: exact at the moment a fault propagates.
FAULTING_OPS = frozenset(
    {Op.LOAD, Op.STORE, Op.FLOAD, Op.FSTORE, Op.DIV, Op.FDIV, Op.FSQRT, Op.RET}
)

#: Floating point opcodes (for instruction-mix bookkeeping).
FP_OPS_SET = frozenset(
    {Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FSQRT, Op.FMA, Op.FCVT, Op.FLI, Op.FMOV}
)

#: Number of integer and floating point registers.
NUM_IREGS = 32
NUM_FREGS = 32

#: Bytes per instruction slot; instruction *addresses* (as seen by the
#: instruction cache and profiling buffers) are ``pc * INS_BYTES``.
INS_BYTES = 4

#: Bytes per data memory word; data *addresses* seen by the data cache are
#: ``DATA_SEGMENT_BASE + word_index * WORD_BYTES``.
WORD_BYTES = 8

#: Byte address where the data segment starts.  Keeps code and data in
#: disjoint address ranges so the unified L2 does not alias instruction
#: lines with data lines (as on a real machine, where text and data load
#: at different virtual addresses).
DATA_SEGMENT_BASE = 1 << 26


@dataclass(frozen=True)
class Instruction:
    """One symbolic instruction.

    ``a``/``b``/``c``/``d`` hold register indices, immediates, or -- for
    control flow ops -- a label string prior to resolution.
    """

    op: int
    a: object = 0
    b: object = 0
    c: object = 0
    d: object = 0

    def target_field(self) -> Optional[str]:
        """Name of the operand slot holding this instruction's label, if any."""
        if self.op in JUMP_OPS:
            return "a"
        if self.op in BRANCH_OPS:
            return "c"
        return None

    def target(self) -> Optional[object]:
        fieldname = self.target_field()
        return getattr(self, fieldname) if fieldname else None

    def with_target(self, value: object) -> "Instruction":
        fieldname = self.target_field()
        if fieldname is None:
            raise ProgramError(f"{OP_NAMES[self.op]} has no control-flow target")
        return replace(self, **{fieldname: value})

    def mnemonic(self) -> str:
        return OP_NAMES[self.op]


@dataclass(frozen=True)
class FunctionInfo:
    """A named region of the program: ``[start, end)`` instruction indices."""

    name: str
    start: int
    end: int

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


class Program:
    """A symbolic program: instructions + labels + function table.

    Instances are immutable from the outside; rewriting operations return
    a new :class:`Program` plus a pc-remapping callable so a paused machine
    can be migrated onto the rewritten code (this is what dynaprof's
    "attach to a running executable" uses).
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Dict[str, int],
        functions: Dict[str, FunctionInfo],
        entry: str = "main",
        data_size: int = 0,
        name: str = "a.out",
        data_init: Sequence[Tuple[int, Sequence[object]]] = (),
    ) -> None:
        self._instructions: Tuple[Instruction, ...] = tuple(instructions)
        self._labels = dict(labels)
        self._functions = dict(functions)
        self.entry = entry
        self.data_size = int(data_size)
        self.name = name
        #: the program's ``.data`` section: ``(base word, values)`` runs,
        #: applied to memory in order at load time (a later run
        #: overrides an earlier one where they overlap).
        self.data_init: Tuple[Tuple[int, Tuple[object, ...]], ...] = tuple(
            (int(base), tuple(values)) for base, values in data_init
        )
        self._validate()

    # -- introspection -------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return self._instructions

    @property
    def labels(self) -> Dict[str, int]:
        return dict(self._labels)

    @property
    def functions(self) -> Dict[str, FunctionInfo]:
        return dict(self._functions)

    def __len__(self) -> int:
        return len(self._instructions)

    def function_at(self, pc: int) -> Optional[FunctionInfo]:
        """Return the function containing instruction index *pc*, if any."""
        for info in self._functions.values():
            if pc in info:
                return info
        return None

    def label_at(self, name: str) -> int:
        try:
            return self._labels[name]
        except KeyError:
            raise ProgramError(f"unknown label: {name!r}") from None

    # -- validation / lowering ------------------------------------------

    def _validate(self) -> None:
        n = len(self._instructions)
        for label, idx in self._labels.items():
            if not 0 <= idx <= n:
                raise ProgramError(f"label {label!r} out of range: {idx}")
        if self.entry not in self._labels:
            raise ProgramError(f"entry label {self.entry!r} is not defined")
        for pc, ins in enumerate(self._instructions):
            tgt = ins.target()
            if tgt is not None and isinstance(tgt, str) and tgt not in self._labels:
                raise ProgramError(
                    f"pc {pc}: {ins.mnemonic()} targets undefined label {tgt!r}"
                )
        for fn in self._functions.values():
            if not (0 <= fn.start <= fn.end <= n):
                raise ProgramError(f"function {fn.name!r} region out of range")
        for base, values in self.data_init:
            end = base + len(values)
            if not 0 <= base <= end <= self.data_size:
                raise ProgramError(
                    f"data initializer at words [{base}, {end}) outside "
                    f"the data section (size {self.data_size})"
                )

    def initial_memory(self, heap_words: int = 0) -> List[object]:
        """The load-time memory image: the data section, then *heap_words*
        zero words, with every ``.data`` run applied in order."""
        memory: List[object] = [0] * (self.data_size + heap_words)
        for base, values in self.data_init:
            memory[base:base + len(values)] = values
        return memory

    def resolve(self) -> List[Tuple[int, object, object, object, object]]:
        """Lower to executable form: flat tuples with absolute targets."""
        code: List[Tuple[int, object, object, object, object]] = []
        for ins in self._instructions:
            tgt = ins.target()
            if tgt is not None and isinstance(tgt, str):
                ins = ins.with_target(self._labels[tgt])
            code.append((ins.op, ins.a, ins.b, ins.c, ins.d))
        return code

    # -- rewriting (dynamic instrumentation support) ---------------------

    def insert(
        self, insertions: Dict[int, Sequence[Instruction]]
    ) -> Tuple["Program", Callable[[int], int]]:
        """Insert instruction sequences before the given indices.

        *insertions* maps instruction index -> sequence to insert before
        that index.  Labels bound at an insertion point move with the
        inserted code's head so that existing control flow executes the
        inserted instructions (this is what makes an entry probe fire on
        every call).  Returns ``(new_program, remap)`` where ``remap``
        translates old instruction indices to new ones.
        """
        for idx in insertions:
            if not 0 <= idx <= len(self._instructions):
                raise ProgramError(f"insertion point out of range: {idx}")

        new_instructions: List[Instruction] = []
        # old_to_new: new index of each original instruction (used to remap
        # a paused machine's pc and return addresses -- the in-flight
        # instruction resumes at itself, not at code inserted before it).
        old_to_new: List[int] = []
        # head_map: where the code region for each original index begins,
        # i.e. the first *inserted* instruction if any.  Labels and
        # function boundaries use this so that existing control flow
        # (calls, branches) executes the inserted probes.
        head_map: List[int] = []
        points = sorted(insertions.items())
        point_iter = iter(points)
        next_point = next(point_iter, None)
        for old_idx, ins in enumerate(self._instructions):
            head_map.append(len(new_instructions))
            while next_point is not None and next_point[0] == old_idx:
                new_instructions.extend(next_point[1])
                next_point = next(point_iter, None)
            old_to_new.append(len(new_instructions))
            new_instructions.append(ins)
        head_map.append(len(new_instructions))
        while next_point is not None:
            new_instructions.extend(next_point[1])
            next_point = next(point_iter, None)
        old_to_new.append(len(new_instructions))  # map for index == len()

        def remap(old_pc: int) -> int:
            if not 0 <= old_pc < len(old_to_new):
                raise ProgramError(f"cannot remap pc {old_pc}")
            return old_to_new[old_pc]

        new_labels = {name: head_map[idx] for name, idx in self._labels.items()}
        new_functions = {
            name: FunctionInfo(fn.name, head_map[fn.start], head_map[fn.end])
            for name, fn in self._functions.items()
        }
        program = Program(
            new_instructions,
            new_labels,
            new_functions,
            entry=self.entry,
            data_size=self.data_size,
            name=self.name,
            data_init=self.data_init,
        )
        return program, remap

    def remove(
        self, indices: Iterable[int]
    ) -> Tuple["Program", Callable[[int], int]]:
        """Remove the instructions at *indices* (dynaprof deinstrument).

        The inverse of :meth:`insert`.  Labels bound at a removed
        instruction move to the next surviving one, and the returned
        ``remap`` sends a removed pc there too -- a machine paused at a
        probe resumes at the instruction the probe guarded.
        """
        drop = set(indices)
        n = len(self._instructions)
        for idx in drop:
            if not 0 <= idx < n:
                raise ProgramError(f"removal point out of range: {idx}")
        old_to_new: List[int] = []
        survivors: List[Instruction] = []
        for old_idx, ins in enumerate(self._instructions):
            old_to_new.append(len(survivors))
            if old_idx not in drop:
                survivors.append(ins)
        old_to_new.append(len(survivors))

        new_instructions: List[Instruction] = []
        for ins in survivors:
            tgt = ins.target()
            if tgt is not None and not isinstance(tgt, str):
                ins = ins.with_target(old_to_new[tgt])
            new_instructions.append(ins)

        def remap(old_pc: int) -> int:
            if not 0 <= old_pc < len(old_to_new):
                raise ProgramError(f"cannot remap pc {old_pc}")
            return old_to_new[old_pc]

        new_labels = {
            name: old_to_new[idx] for name, idx in self._labels.items()
        }
        new_functions = {
            name: FunctionInfo(fn.name, old_to_new[fn.start], old_to_new[fn.end])
            for name, fn in self._functions.items()
        }
        program = Program(
            new_instructions,
            new_labels,
            new_functions,
            entry=self.entry,
            data_size=self.data_size,
            name=self.name,
            data_init=self.data_init,
        )
        return program, remap

    # -- debugging -------------------------------------------------------

    def disassemble(self, start: int = 0, end: Optional[int] = None) -> str:
        """Human readable listing with labels and function boundaries."""
        end = len(self._instructions) if end is None else end
        label_by_index: Dict[int, List[str]] = {}
        for name, idx in self._labels.items():
            label_by_index.setdefault(idx, []).append(name)
        lines: List[str] = []
        for pc in range(start, end):
            for name in sorted(label_by_index.get(pc, ())):
                lines.append(f"{name}:")
            ins = self._instructions[pc]
            operands = ", ".join(
                str(getattr(ins, f))
                for f in ("a", "b", "c", "d")
                if getattr(ins, f) != 0 or f == "a"
            )
            lines.append(f"  {pc:6d}  {ins.mnemonic():<8s} {operands}")
        return "\n".join(lines)


def _parse_reg(token: object, bank: str) -> int:
    """Parse ``"r5"``/``"f3"`` (or a raw int) into a register index."""
    if isinstance(token, int):
        idx = token
    elif isinstance(token, str) and len(token) >= 2 and token[0] == bank:
        try:
            idx = int(token[1:])
        except ValueError:
            raise ProgramError(f"bad register name: {token!r}") from None
    else:
        raise ProgramError(f"expected {bank!r}-register, got {token!r}")
    limit = NUM_IREGS if bank == "r" else NUM_FREGS
    if not 0 <= idx < limit:
        raise ProgramError(f"register index out of range: {token!r}")
    return idx


class Assembler:
    """Builder producing :class:`Program` objects.

    Registers are written as strings (``"r0"``..``"r31"``,
    ``"f0"``..``"f31"``); the assembler parses them once so the
    interpreter never pays string costs.

    Example::

        asm = Assembler()
        asm.func("main")
        asm.li("r1", 10)
        asm.li("r2", 0)
        asm.label("loop")
        asm.addi("r2", "r2", 1)
        asm.blt("r2", "r1", "loop")
        asm.halt()
        asm.endfunc()
        program = asm.build()
    """

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._functions: Dict[str, FunctionInfo] = {}
        self._open_function: Optional[Tuple[str, int]] = None
        self._data_size = 0
        self._data_init: List[Tuple[int, Tuple[object, ...]]] = []

    # -- structure -------------------------------------------------------

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise ProgramError(f"duplicate label: {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def func(self, name: str) -> "Assembler":
        """Open a function region; also binds a label of the same name."""
        if self._open_function is not None:
            raise ProgramError(
                f"function {self._open_function[0]!r} is still open"
            )
        if name in self._functions:
            raise ProgramError(f"duplicate function: {name!r}")
        self.label(name)
        self._open_function = (name, len(self._instructions))
        return self

    def endfunc(self) -> "Assembler":
        if self._open_function is None:
            raise ProgramError("endfunc without func")
        name, start = self._open_function
        self._functions[name] = FunctionInfo(name, start, len(self._instructions))
        self._open_function = None
        return self

    def reserve_data(self, words: int) -> int:
        """Reserve *words* words of data memory; returns the base address."""
        if words < 0:
            raise ProgramError("cannot reserve a negative amount of memory")
        base = self._data_size
        self._data_size += words
        return base

    def init_array(self, values: Sequence[object]) -> int:
        """Reserve and initialize an array; returns the base address."""
        base = self.reserve_data(len(values))
        self._data_init.append((base, tuple(values)))
        return base

    def init_word(self, addr: int, value: object) -> "Assembler":
        """Initialize one already-reserved data word (a run of one)."""
        self._data_init.append((int(addr), (value,)))
        return self

    def raw(self, ins: Instruction) -> "Assembler":
        self._instructions.append(ins)
        return self

    # -- control flow ------------------------------------------------------

    def halt(self):
        return self.raw(Instruction(Op.HALT))

    def nop(self):
        return self.raw(Instruction(Op.NOP))

    def jmp(self, target: str):
        return self.raw(Instruction(Op.JMP, target))

    def beq(self, ra, rb, target: str):
        return self.raw(
            Instruction(Op.BEQ, _parse_reg(ra, "r"), _parse_reg(rb, "r"), target)
        )

    def bne(self, ra, rb, target: str):
        return self.raw(
            Instruction(Op.BNE, _parse_reg(ra, "r"), _parse_reg(rb, "r"), target)
        )

    def blt(self, ra, rb, target: str):
        return self.raw(
            Instruction(Op.BLT, _parse_reg(ra, "r"), _parse_reg(rb, "r"), target)
        )

    def bge(self, ra, rb, target: str):
        return self.raw(
            Instruction(Op.BGE, _parse_reg(ra, "r"), _parse_reg(rb, "r"), target)
        )

    def call(self, target: str):
        return self.raw(Instruction(Op.CALL, target))

    def ret(self):
        return self.raw(Instruction(Op.RET))

    def probe(self, probe_id: int):
        return self.raw(Instruction(Op.PROBE, int(probe_id)))

    def syscall(self, number: int):
        return self.raw(Instruction(Op.SYSCALL, int(number)))

    # -- integer ----------------------------------------------------------

    def li(self, rd, imm: int):
        return self.raw(Instruction(Op.LI, _parse_reg(rd, "r"), d=int(imm)))

    def mov(self, rd, ra):
        return self.raw(Instruction(Op.MOV, _parse_reg(rd, "r"), _parse_reg(ra, "r")))

    def _int3(self, op, rd, ra, rb):
        return self.raw(
            Instruction(
                op, _parse_reg(rd, "r"), _parse_reg(ra, "r"), _parse_reg(rb, "r")
            )
        )

    def add(self, rd, ra, rb):
        return self._int3(Op.ADD, rd, ra, rb)

    def sub(self, rd, ra, rb):
        return self._int3(Op.SUB, rd, ra, rb)

    def mul(self, rd, ra, rb):
        return self._int3(Op.MUL, rd, ra, rb)

    def div(self, rd, ra, rb):
        return self._int3(Op.DIV, rd, ra, rb)

    def addi(self, rd, ra, imm: int):
        return self.raw(
            Instruction(Op.ADDI, _parse_reg(rd, "r"), _parse_reg(ra, "r"), d=int(imm))
        )

    def muli(self, rd, ra, imm: int):
        return self.raw(
            Instruction(Op.MULI, _parse_reg(rd, "r"), _parse_reg(ra, "r"), d=int(imm))
        )

    # -- memory ------------------------------------------------------------

    def load(self, rd, ra, offset: int = 0):
        return self.raw(
            Instruction(
                Op.LOAD, _parse_reg(rd, "r"), _parse_reg(ra, "r"), d=int(offset)
            )
        )

    def store(self, rs, ra, offset: int = 0):
        return self.raw(
            Instruction(
                Op.STORE, _parse_reg(rs, "r"), _parse_reg(ra, "r"), d=int(offset)
            )
        )

    def fload(self, fd, ra, offset: int = 0):
        return self.raw(
            Instruction(
                Op.FLOAD, _parse_reg(fd, "f"), _parse_reg(ra, "r"), d=int(offset)
            )
        )

    def fstore(self, fs, ra, offset: int = 0):
        return self.raw(
            Instruction(
                Op.FSTORE, _parse_reg(fs, "f"), _parse_reg(ra, "r"), d=int(offset)
            )
        )

    # -- floating point ------------------------------------------------------

    def fli(self, fd, imm: float):
        return self.raw(Instruction(Op.FLI, _parse_reg(fd, "f"), d=float(imm)))

    def fmov(self, fd, fa):
        return self.raw(
            Instruction(Op.FMOV, _parse_reg(fd, "f"), _parse_reg(fa, "f"))
        )

    def _fp3(self, op, fd, fa, fb):
        return self.raw(
            Instruction(
                op, _parse_reg(fd, "f"), _parse_reg(fa, "f"), _parse_reg(fb, "f")
            )
        )

    def fadd(self, fd, fa, fb):
        return self._fp3(Op.FADD, fd, fa, fb)

    def fsub(self, fd, fa, fb):
        return self._fp3(Op.FSUB, fd, fa, fb)

    def fmul(self, fd, fa, fb):
        return self._fp3(Op.FMUL, fd, fa, fb)

    def fdiv(self, fd, fa, fb):
        return self._fp3(Op.FDIV, fd, fa, fb)

    def fsqrt(self, fd, fa):
        return self.raw(
            Instruction(Op.FSQRT, _parse_reg(fd, "f"), _parse_reg(fa, "f"))
        )

    def fma(self, fd, fa, fb, fc):
        return self.raw(
            Instruction(
                Op.FMA,
                _parse_reg(fd, "f"),
                _parse_reg(fa, "f"),
                _parse_reg(fb, "f"),
                _parse_reg(fc, "f"),
            )
        )

    def fcvt(self, fd, fa):
        return self.raw(
            Instruction(Op.FCVT, _parse_reg(fd, "f"), _parse_reg(fa, "f"))
        )

    # -- finalize -------------------------------------------------------------

    def build(self, entry: str = "main", extra_data: int = 0) -> Program:
        if self._open_function is not None:
            raise ProgramError(
                f"function {self._open_function[0]!r} was never closed"
            )
        return Program(
            self._instructions,
            self._labels,
            self._functions,
            entry=entry,
            data_size=self._data_size + int(extra_data),
            name=self.name,
            data_init=self._data_init,
        )
