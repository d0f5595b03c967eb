"""Property-based tests: the validate oracle agrees with the simulator.

Random structured programs -- counted loops with integer/floating point
bodies, in-bounds memory traffic, data-dependent branches, calls into a
leaf function, probes and syscalls -- executed on every substrate, at
every engine tier and on 1- and 4-CPU machines.  For every
architecturally determined signal the independent reference interpreter
(:func:`repro.validate.oracle.expected_signal_counts`) and the
simulator's raw signal totals must agree *exactly*.  The two
implementations share no code, so agreement here means neither has a
bookkeeping bug the other cancels out.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hw import Assembler
from repro.hw.cpu import ENGINE_TIERS
from repro.hw.events import signal_name
from repro.platforms import PLATFORM_NAMES, create
from repro.validate.oracle import ORACLE_SIGNALS, expected_signal_counts

# -- program generator -------------------------------------------------

_BODY_OPS = (
    "alu_addi", "alu_add", "alu_mul", "alu_div", "fp_add", "fp_mul",
    "fp_div", "fp_cvt", "mem_load", "mem_store", "mem_fload", "branch",
    "call_leaf", "probe", "nop",
)

body_ops = st.lists(st.sampled_from(_BODY_OPS), min_size=0, max_size=6)
segments = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),   # loop iterations
        body_ops,
    ),
    min_size=1,
    max_size=4,
)


def build_program(segs):
    """A halting, fault-free program touching the drawn signal classes."""
    asm = Assembler(name="oracle_prop")
    base = asm.init_array([1 + (i % 7) for i in range(64)])

    asm.func("leaf")
    asm.addi("r6", "r6", 1)
    asm.fadd("f4", "f1", "f2")
    asm.ret()
    asm.endfunc()

    asm.func("main")
    asm.li("r9", base)
    asm.li("r8", 3)             # nonzero integer divisor
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)          # nonzero float divisor
    for i, (iters, body) in enumerate(segs):
        asm.li("r1", 0)
        asm.li("r3", iters)
        asm.label(f"loop{i}")
        for j, op in enumerate(body):
            if op == "alu_addi":
                asm.addi("r2", "r2", j + 1)
            elif op == "alu_add":
                asm.add("r4", "r4", "r2")
            elif op == "alu_mul":
                asm.muli("r5", "r2", 3)
            elif op == "alu_div":
                asm.div("r5", "r4", "r8")
            elif op == "fp_add":
                asm.fadd("f3", "f1", "f2")
            elif op == "fp_mul":
                asm.fmul("f3", "f1", "f2")
            elif op == "fp_div":
                asm.fdiv("f3", "f1", "f2")
            elif op == "fp_cvt":
                asm.fcvt("f5", "f3")
            elif op == "mem_load":
                asm.load("r7", "r9", (i * 7 + j) % 64)
            elif op == "mem_store":
                asm.store("r2", "r9", (i * 11 + j) % 64)
            elif op == "mem_fload":
                asm.fload("f6", "r9", (i + j) % 64)
            elif op == "branch":
                # data-dependent, both outcomes exercised across iters
                asm.label(f"br{i}_{j}")
                asm.beq("r1", "r3", f"done{i}_{j}")
                asm.label(f"done{i}_{j}")
            elif op == "call_leaf":
                asm.call("leaf")
            elif op == "probe":
                asm.probe((i + j) % 7 + 1)
            elif op == "nop":
                asm.nop()
        asm.addi("r1", "r1", 1)
        asm.blt("r1", "r3", f"loop{i}")
    asm.syscall(1)
    asm.halt()
    asm.endfunc()
    return asm.build()


@given(
    segs=segments,
    platform=st.sampled_from(list(PLATFORM_NAMES)),
    engine=st.sampled_from(ENGINE_TIERS),
    ncpus=st.sampled_from([1, 4]),
)
@settings(deadline=None)
def test_oracle_matches_simulator(segs, platform, engine, ncpus):
    program = build_program(segs)
    expected = expected_signal_counts(program)
    substrate = create(platform, engine=engine, ncpus=ncpus)
    if ncpus == 1:
        substrate.machine.load(program)
        substrate.machine.run_to_completion()
    else:
        substrate.os.spawn(program, name="prop")
        substrate.os.run()
    for signal in sorted(ORACLE_SIGNALS):
        assert substrate.machine.signal_total(signal) == expected[signal], (
            signal_name(signal), platform, engine, ncpus
        )
