"""Property-based tests: the static oracle brackets the exact oracle.

Random structured programs (the same generator family as
``test_props_oracle``: counted top- and bottom-test loops, ALU/FP/memory
bodies, data-dependent branches, calls into a leaf, probes) are analyzed
WITHOUT executing; the derived per-signal intervals must always contain
the exact oracle's counts.  Together with ``test_props_oracle`` (exact
== simulator) this pins the full chain: static bounds >= exact oracle ==
simulator, engine on/off.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hw import Assembler
from repro.lint.staticoracle import static_signal_bounds
from repro.validate.oracle import expected_signal_counts
from tests.property_examples import examples

_BODY_OPS = (
    "alu_addi", "alu_add", "alu_mul", "fp_add", "fp_mul", "fp_cvt",
    "mem_load", "mem_store", "branch", "call_leaf", "probe", "nop",
)

body_ops = st.lists(st.sampled_from(_BODY_OPS), min_size=0, max_size=5)
segments = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=15),   # loop iterations
        st.booleans(),                            # bottom-test loop?
        body_ops,
    ),
    min_size=1,
    max_size=3,
)


def build_program(segs):
    """A halting, fault-free program; every loop has a static trip count."""
    asm = Assembler(name="static_prop")
    base = asm.init_array([1 + (i % 7) for i in range(64)])

    asm.func("leaf")
    asm.addi("r6", "r6", 1)
    asm.fadd("f4", "f1", "f2")
    asm.ret()
    asm.endfunc()

    asm.func("main")
    asm.li("r9", base)
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)
    for i, (iters, bottom_test, body) in enumerate(segs):
        asm.li("r1", 0)
        asm.li("r3", iters)
        asm.label(f"loop{i}")
        if not bottom_test:
            asm.bge("r1", "r3", f"exit{i}")
        for j, op in enumerate(body):
            if op == "alu_addi":
                asm.addi("r2", "r2", j + 1)
            elif op == "alu_add":
                asm.add("r4", "r4", "r2")
            elif op == "alu_mul":
                asm.muli("r5", "r2", 3)
            elif op == "fp_add":
                asm.fadd("f3", "f1", "f2")
            elif op == "fp_mul":
                asm.fmul("f3", "f1", "f2")
            elif op == "fp_cvt":
                asm.fcvt("f5", "f3")
            elif op == "mem_load":
                asm.load("r7", "r9", (i * 7 + j) % 64)
            elif op == "mem_store":
                asm.store("r2", "r9", (i * 11 + j) % 64)
            elif op == "branch":
                # data-dependent: forces this segment's bounds loose
                asm.beq("r2", "r3", f"done{i}_{j}")
                asm.label(f"done{i}_{j}")
            elif op == "call_leaf":
                asm.call("leaf")
            elif op == "probe":
                asm.probe((i + j) % 7 + 1)
            elif op == "nop":
                asm.nop()
        asm.addi("r1", "r1", 1)
        if bottom_test:
            asm.blt("r1", "r3", f"loop{i}")
        else:
            asm.jmp(f"loop{i}")
        asm.label(f"exit{i}")
    asm.syscall(1)
    asm.halt()
    asm.endfunc()
    return asm.build()


@given(segs=segments)
@settings(deadline=None)
def test_static_bounds_bracket_exact_oracle(segs):
    program = build_program(segs)
    bounds = static_signal_bounds(program)
    exact = expected_signal_counts(program)
    assert bounds.brackets(exact), bounds.mismatches(exact)


@given(segs=segments)
@settings(deadline=None, max_examples=examples(15))
def test_branch_free_programs_are_exact(segs):
    clean = [
        (iters, bottom, [op for op in body
                         if op not in ("branch", "call_leaf")])
        for iters, bottom, body in segs
    ]
    program = build_program(clean)
    bounds = static_signal_bounds(program)
    exact = expected_signal_counts(program)
    assert bounds.is_exact(), bounds.mismatches(exact)
    assert bounds.brackets(exact), bounds.mismatches(exact)
