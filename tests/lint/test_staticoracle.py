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
    static_signal_bounds,
)
from repro.validate.oracle import expected_signal_counts
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
