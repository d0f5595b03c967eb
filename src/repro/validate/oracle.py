"""Ground-truth oracle: analytic expected counts for a program.

Section 4 of the paper: "test programs may need to be written to
determine exactly what events are being counted ... for which the
expected counts are known".  :mod:`repro.core.calibrate` does that for a
handful of kernels whose authors wrote the expectations down by hand;
this module generalizes it: an *independent reference interpreter* walks
any resolved program and derives the exact count of every
**architecturally determined** signal -- instructions retired, integer
and floating point operations (with FMA and convert accounting), loads,
stores, and branch outcomes (computed, since they are data-dependent but
deterministic).

Micro-architectural signals -- cycles, stalls, cache/TLB misses, branch
*mispredictions*, interrupts -- depend on cache geometry, predictor
state and interrupt timing; no analytic oracle exists for them, so they
are excluded (:data:`ORACLE_SIGNALS`) and the conformance matrix marks
presets touching them as unscored rather than guessing.

The interpreter deliberately shares no code with
:class:`repro.hw.cpu.CPU`: it is a second, simpler implementation of the
ISA's architectural semantics, so a bookkeeping bug in the simulator's
hot loop (or its block engine) cannot cancel out of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.presets import (
    PresetMapping,
    mapping_signal_vector,
    platform_preset_map,
    reference_vector,
)
from repro.hw.cpu import _round_to_single
from repro.hw.events import Signal
from repro.hw.isa import INS_BYTES, NUM_FREGS, NUM_IREGS, Op, Program

#: Signals whose value is fully determined by the program's architectural
#: execution (no cache, predictor or timing dependence).  Everything the
#: oracle predicts; everything else is micro-architectural and unscored.
ORACLE_SIGNALS = frozenset({
    Signal.TOT_INS,
    Signal.INT_INS,
    Signal.LD_INS,
    Signal.SR_INS,
    Signal.BR_INS,
    Signal.BR_CN,
    Signal.BR_TKN,
    Signal.BR_NTK,
    Signal.CALL_INS,
    Signal.RET_INS,
    Signal.FP_ADD,
    Signal.FP_MUL,
    Signal.FP_DIV,
    Signal.FP_SQRT,
    Signal.FP_FMA,
    Signal.FP_CVT,
    Signal.FP_MOV,
    Signal.SYS_INS,
    Signal.PRB_INS,
})


class OracleError(Exception):
    """Raised when a program cannot be oracle-executed (fault, runaway)."""


def expected_signal_counts(
    program: Program,
    heap_words: int = 0,
    max_instructions: int = 50_000_000,
    iline_shift: Optional[int] = None,
) -> List[int]:
    """Execute *program* architecturally; return exact signal counts.

    The returned list is indexed by :class:`~repro.hw.events.Signal`;
    only :data:`ORACLE_SIGNALS` entries are meaningful (the rest stay 0).
    Faults (bad addresses, divide by zero, runaway loops) raise
    :class:`OracleError` -- validation workloads must be fault-free.

    *iline_shift* additionally predicts ``Signal.L1I_ACC``: an
    instruction-cache access happens exactly when the fetch line
    (``pc * INS_BYTES >> iline_shift``) differs from the previous
    instruction's, starting cold.  Unlike misses, *accesses* are fully
    determined by the dynamic pc stream and the documented line width,
    so the refutation harness can check a platform's published fetch
    geometry against behaviour (an off-by-one in the line width is
    exactly the kind of documentation drift Section 4 warns about).
    """
    code = program.resolve()
    counts = [0] * Signal.N_SIGNALS
    memory = program.initial_memory(heap_words)
    mem_len = len(memory)
    iregs = [0] * NUM_IREGS
    fregs = [0.0] * NUM_FREGS
    call_stack: List[int] = []
    pc = program.label_at(program.entry)
    executed = 0
    cur_iline = -1

    while True:
        if executed >= max_instructions:
            raise OracleError(
                f"program exceeded the oracle budget of "
                f"{max_instructions} instructions"
            )
        if iline_shift is not None:
            iline = (pc * INS_BYTES) >> iline_shift
            if iline != cur_iline:
                cur_iline = iline
                counts[Signal.L1I_ACC] += 1
        try:
            op, a, b, c, d = code[pc]
        except IndexError:
            raise OracleError(f"pc out of range: {pc}") from None
        counts[Signal.TOT_INS] += 1
        executed += 1
        next_pc = pc + 1

        if op == Op.FLOAD or op == Op.LOAD:
            addr = iregs[b] + d
            if not 0 <= addr < mem_len:
                raise OracleError(f"pc {pc}: load address {addr} out of range")
            counts[Signal.LD_INS] += 1
            if op == Op.LOAD:
                iregs[a] = int(memory[addr])
            else:
                fregs[a] = float(memory[addr])
        elif op == Op.FSTORE or op == Op.STORE:
            addr = iregs[b] + d
            if not 0 <= addr < mem_len:
                raise OracleError(f"pc {pc}: store address {addr} out of range")
            counts[Signal.SR_INS] += 1
            memory[addr] = iregs[a] if op == Op.STORE else fregs[a]
        elif op == Op.ADDI:
            counts[Signal.INT_INS] += 1
            iregs[a] = iregs[b] + d
        elif op == Op.ADD:
            counts[Signal.INT_INS] += 1
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
            counts[Signal.BR_INS] += 1
            counts[Signal.BR_CN] += 1
            if op == Op.BLT:
                taken = iregs[a] < iregs[b]
            elif op == Op.BGE:
                taken = iregs[a] >= iregs[b]
            elif op == Op.BEQ:
                taken = iregs[a] == iregs[b]
            else:
                taken = iregs[a] != iregs[b]
            if taken:
                counts[Signal.BR_TKN] += 1
                next_pc = c
            else:
                counts[Signal.BR_NTK] += 1
        elif op == Op.JMP:
            counts[Signal.BR_INS] += 1
            next_pc = a
        elif op == Op.CALL:
            counts[Signal.BR_INS] += 1
            counts[Signal.CALL_INS] += 1
            call_stack.append(pc + 1)
            next_pc = a
        elif op == Op.RET:
            counts[Signal.BR_INS] += 1
            counts[Signal.RET_INS] += 1
            if not call_stack:
                raise OracleError(f"pc {pc}: RET with empty call stack")
            next_pc = call_stack.pop()
        elif op == Op.LI:
            counts[Signal.INT_INS] += 1
            iregs[a] = d
        elif op == Op.MOV:
            counts[Signal.INT_INS] += 1
            iregs[a] = iregs[b]
        elif op == Op.SUB:
            counts[Signal.INT_INS] += 1
            iregs[a] = iregs[b] - iregs[c]
        elif op == Op.MUL:
            counts[Signal.INT_INS] += 1
            iregs[a] = iregs[b] * iregs[c]
        elif op == Op.DIV:
            counts[Signal.INT_INS] += 1
            if iregs[c] == 0:
                raise OracleError(f"pc {pc}: integer divide by zero")
            q = abs(iregs[b]) // abs(iregs[c])
            iregs[a] = q if (iregs[b] < 0) == (iregs[c] < 0) else -q
        elif op == Op.MULI:
            counts[Signal.INT_INS] += 1
            iregs[a] = iregs[b] * d
        elif op == Op.FDIV:
            counts[Signal.FP_DIV] += 1
            if fregs[c] == 0.0:
                raise OracleError(f"pc {pc}: float divide by zero")
            fregs[a] = fregs[b] / fregs[c]
        elif op == Op.FSQRT:
            counts[Signal.FP_SQRT] += 1
            if fregs[b] < 0.0:
                raise OracleError(f"pc {pc}: sqrt of negative value")
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
        elif op == Op.SYSCALL:
            counts[Signal.SYS_INS] += 1
        elif op == Op.HALT:
            return counts
        else:
            raise OracleError(f"pc {pc}: unknown opcode {op}")
        pc = next_pc


@dataclass(frozen=True)
class PresetExpectation:
    """What one platform's realization of one preset *should* read.

    ``expected`` applies the platform's mapping vector to the oracle
    counts -- so a platform whose native event has quirky semantics (the
    POWER3 ``PM_FPU_INS`` counting converts) gets the quirky number, and
    ``drift`` records that it differs from ``reference_expected`` (the
    catalogue's reference semantics).  Section 4's drift hazard becomes a
    computed column, not a footnote.
    """

    symbol: str
    #: every hardware signal in ORACLE_SIGNALS => analytically checkable
    checkable: bool
    #: oracle value under the *platform's* mapping (None if uncheckable)
    expected: Optional[int]
    #: oracle value under the catalogue's reference semantics
    reference_expected: Optional[int]
    #: platform semantics deviate from the reference on this workload
    drift: bool
    #: the signal vector the platform mapping actually counts
    signals: Tuple[int, ...]


def _vector_value(vec: Dict[int, int], counts: List[int]) -> int:
    return sum(coeff * counts[sig] for sig, coeff in vec.items())


def expected_preset_values(
    platform_name: str,
    signal_counts: List[int],
    native_signals: Dict[str, Tuple[int, ...]],
) -> Dict[str, PresetExpectation]:
    """Expected value of every preset the platform maps, from oracle counts.

    *native_signals* is the platform's native-event signal table
    (``{name: signals}`` from ``substrate.native_events``); the platform
    mapping's signal vector (:func:`mapping_signal_vector`) applied to
    the oracle counts is what a bug-free substrate must report.
    """
    out: Dict[str, PresetExpectation] = {}
    for symbol, mapping in platform_preset_map(platform_name).items():
        out[symbol] = _expectation(mapping, signal_counts, native_signals)
    return out


def _expectation(
    mapping: PresetMapping,
    counts: List[int],
    native_signals: Dict[str, Tuple[int, ...]],
) -> PresetExpectation:
    vec = mapping_signal_vector(mapping.terms, native_signals)
    checkable = bool(vec) and all(sig in ORACLE_SIGNALS for sig in vec)
    ref_vec = reference_vector(mapping.preset)
    ref_checkable = bool(ref_vec) and all(
        sig in ORACLE_SIGNALS for sig in ref_vec
    )
    expected = _vector_value(vec, counts) if checkable else None
    reference = _vector_value(ref_vec, counts) if ref_checkable else None
    drift = (
        checkable and ref_checkable and expected != reference
    )
    return PresetExpectation(
        symbol=mapping.preset.symbol,
        checkable=checkable,
        expected=expected,
        reference_expected=reference,
        drift=drift,
        signals=tuple(sorted(vec)),
    )
