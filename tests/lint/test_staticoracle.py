"""Static counter oracle: affine bounds must bracket the exact oracle.

The contract under test: for every program the exact oracle can run,
``static_signal_bounds(p).brackets(expected_signal_counts(p))`` -- and
for control-regular programs (counted loops, straight-line bodies) the
bounds collapse to a point, i.e. the static oracle IS the exact oracle
without executing a single instruction.
"""

import pytest

from repro.hw.events import Signal
from repro.hw.isa import Assembler
from repro.lint.staticoracle import (
    Interval,
    StaticOracleError,
    _first_k,
    block_signal_vectors,
    static_signal_bounds,
    verify_block_affine,
)
from repro.validate.oracle import ORACLE_SIGNALS, expected_signal_counts
from repro.workloads.branches import random_branches
from repro.workloads.builder import Flow, loop_control_vector
from repro.workloads.linalg import dot, matmul
from repro.workloads.validation import conformance_mix


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


class TestInterval:
    def test_exact_property(self):
        assert Interval(3, 3).exact == 3
        assert Interval(3, 5).exact is None
        assert Interval(0, None).exact is None

    def test_malformed_rejected(self):
        with pytest.raises(StaticOracleError):
            Interval(5, 3)
        with pytest.raises(StaticOracleError):
            Interval(-1, 2)


class TestFirstK:
    """Closed-form first-exit iteration vs brute-force simulation."""

    KINDS = ("lt", "le", "gt", "ge", "eq", "ne")

    @staticmethod
    def _holds(kind, x, bound):
        return {
            "lt": x < bound, "le": x <= bound,
            "gt": x > bound, "ge": x >= bound,
            "eq": x == bound, "ne": x != bound,
        }[kind]

    @staticmethod
    def _brute(kind, x0, s, bound, limit=10_000):
        for k in range(limit):
            if TestFirstK._holds(kind, x0 + k * s, bound):
                return k
        return None

    def test_matches_brute_force(self):
        for kind in self.KINDS:
            for x0 in range(-6, 7, 2):
                for s in (-3, -1, 1, 2, 5):
                    for bound in range(-5, 6, 2):
                        got = _first_k(kind, x0, s, bound)
                        want = self._brute(kind, x0, s, bound)
                        # None from _first_k means "gave up / diverges";
                        # a definite answer must be the true first k.
                        if got is not None:
                            assert got == want, (kind, x0, s, bound)

    def test_straightforward_upcount(self):
        # for (x = 0; !(x >= 8); x += 1): exits at k = 8
        assert _first_k("ge", 0, 1, 8) == 8


# ---------------------------------------------------------------------------
# exactness on control-regular programs
# ---------------------------------------------------------------------------


def _empty_loop(n):
    asm = Assembler(name=f"loop{n}")
    flow = Flow(asm)
    asm.func("main")
    with flow.loop(n, "r30", "r31"):
        pass
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestExactness:
    @pytest.mark.parametrize("n", [0, 1, 5, 33])
    def test_counted_loop_is_exact_and_matches_closed_form(self, n):
        program = _empty_loop(n)
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.is_exact(), "counted loop must collapse to a point"
        assert bounds.brackets(exact), bounds.mismatches(exact)
        vec = loop_control_vector(n)
        # the halt is the only instruction outside the loop skeleton
        assert exact[Signal.TOT_INS] == vec[Signal.TOT_INS] + 1
        for sig in (Signal.BR_INS, Signal.BR_CN,
                    Signal.BR_TKN, Signal.BR_NTK):
            assert bounds.interval(sig).exact == vec[sig] == exact[sig]

    def test_bottom_test_single_block_loop(self):
        # do { body } while (x < limit): step and compare share a block
        asm = Assembler(name="bottom")
        asm.func("main")
        asm.li("r1", 0)
        asm.li("r2", 7)
        asm.label("top")
        asm.addi("r1", "r1", 1)
        asm.blt("r1", "r2", "top")
        asm.halt()
        asm.endfunc()
        program = asm.build()
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.is_exact()
        assert bounds.brackets(exact), bounds.mismatches(exact)
        assert bounds.interval(Signal.BR_CN).exact == 7

    def test_nested_loops_matmul_is_exact(self):
        program = matmul(3).program
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.is_exact()
        assert bounds.brackets(exact), bounds.mismatches(exact)

    def test_call_into_leaf_is_exact(self):
        program = dot(16).program
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.is_exact()
        assert bounds.brackets(exact), bounds.mismatches(exact)


# ---------------------------------------------------------------------------
# soundness where exactness is impossible
# ---------------------------------------------------------------------------


class TestSoundLooseness:
    def test_data_dependent_branches_bracket(self):
        program = random_branches(64).program
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.brackets(exact), bounds.mismatches(exact)
        # taken/not-taken split genuinely depends on the data
        assert bounds.interval(Signal.BR_TKN).exact is None

    def test_conformance_mix_brackets(self):
        program = conformance_mix(20).program
        bounds = static_signal_bounds(program)
        exact = expected_signal_counts(program)
        assert bounds.brackets(exact), bounds.mismatches(exact)

    def test_recursion_degrades_to_unbounded_not_wrong(self):
        asm = Assembler(name="rec")
        asm.func("main")
        asm.call("spin")
        asm.halt()
        asm.endfunc()
        asm.func("spin")
        asm.call("spin")
        asm.ret()
        asm.endfunc()
        bounds = static_signal_bounds(asm.build())
        assert bounds.hi[Signal.TOT_INS] is None


# ---------------------------------------------------------------------------
# block-engine affine invariance
# ---------------------------------------------------------------------------


class TestBlockAffine:
    @pytest.mark.parametrize(
        "make", [lambda: dot(8), lambda: matmul(3),
                 lambda: conformance_mix(12)],
        ids=["dot", "matmul", "conformance_mix"],
    )
    def test_workloads_certify(self, make):
        vectors = verify_block_affine(make().program)
        assert vectors
        for vec in vectors.values():
            assert vec[Signal.TOT_INS] >= 1

    def test_block_vectors_sum_to_straightline_counts(self):
        asm = Assembler(name="straight")
        asm.func("main")
        asm.li("r1", 1)
        asm.fli("f1", 2.0)
        asm.fadd("f2", "f1", "f1")
        asm.halt()
        asm.endfunc()
        program = asm.build()
        vectors = block_signal_vectors(program.resolve())
        total = [0] * Signal.N_SIGNALS
        for vec in vectors.values():
            for sig in ORACLE_SIGNALS:
                total[sig] += vec[sig]
        exact = expected_signal_counts(program)
        for sig in (Signal.TOT_INS, Signal.INT_INS,
                    Signal.FP_ADD, Signal.FP_MOV):
            assert total[sig] == exact[sig]


# ---------------------------------------------------------------------------
# trace-level certificates
# ---------------------------------------------------------------------------


def _superblock_loop(n=10):
    """A multi-block loop whose body is a unique static path: a JMP
    split plus a CALL to a leaf, closed by one conditional branch."""
    asm = Assembler(name="superblock")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.addi("r4", "r4", 1)
    asm.jmp("mid")
    asm.label("mid")
    asm.call("leaf")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    asm.func("leaf")
    asm.fadd("f2", "f1", "f1")
    asm.ret()
    asm.endfunc()
    return asm.build()


def _diamond_loop(n=10):
    """A loop with a data-dependent branch inside: no unique path."""
    asm = Assembler(name="diamond")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.beq("r1", "r0", "else_")
    asm.addi("r4", "r4", 1)
    asm.jmp("join")
    asm.label("else_")
    asm.addi("r5", "r5", 1)
    asm.label("join")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


def _probed_loop(n=10):
    asm = Assembler(name="probed")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.probe(1)
    asm.addi("r4", "r4", 1)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestTraceCertificates:
    def test_superblock_loop_certifies(self):
        report = verify_block_affine(_superblock_loop())
        certs = report.certified_traces
        assert len(certs) == 1
        (cert,) = certs.values()
        assert cert.certified and cert.vector is not None
        assert cert.path_len > 2  # genuinely multi-block, not a self-loop
        assert cert.vector[Signal.TOT_INS] == cert.path_len
        # the trace crosses a CALL/RET pair and an FP add in the leaf
        assert cert.vector[Signal.FP_ADD] == 1

    def test_diamond_loop_skips_with_reason(self):
        report = verify_block_affine(_diamond_loop())
        # the outer back edge cannot certify (two paths), and the skip
        # names the branch rather than passing silently
        skipped = report.skipped_traces
        assert skipped, "multi-path cycle must not certify"
        for cert in skipped.values():
            assert cert.reason  # never silent
        outer = [c for c in skipped.values() if "branch" in c.reason]
        assert outer, [c.reason for c in skipped.values()]
        assert not report.certified_traces

    def test_probed_loop_skip_names_the_probe(self):
        report = verify_block_affine(_probed_loop())
        skipped = report.skipped_traces
        assert len(skipped) == 1
        (cert,) = skipped.values()
        assert "PROBE" in cert.reason
        assert not cert.certified

    def test_self_loop_defers_to_block_tier(self):
        asm = Assembler(name="tight")
        asm.func("main")
        asm.li("r1", 0)
        asm.li("r2", 50)
        asm.label("loop")
        asm.addi("r1", "r1", 1)
        asm.blt("r1", "r2", "loop")
        asm.halt()
        asm.endfunc()
        report = verify_block_affine(asm.build())
        (cert,) = report.skipped_traces.values()
        assert "self-loop block" in cert.reason

    def test_report_keeps_dict_interface(self):
        report = verify_block_affine(_superblock_loop())
        assert dict(report)  # block vectors still reachable as a mapping
        for vec in report.values():
            assert vec[Signal.TOT_INS] >= 1
