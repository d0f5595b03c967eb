"""Block execution engine: partitioning, bit-exactness, regions, deadlines.

Every test here checks the engine against the same ground truth: the
pure interpreter (``engine="off"``).  The contract under test is
*bit-exactness* -- not "close", identical.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import workloads
from repro.hw import CPU, Assembler, Machine, MachineConfig, Signal
from repro.hw.blockcache import (
    MAX_BLOCK_LEN,
    MAX_UNITS,
    UNIT_CACHE,
    EngineStats,
    _compute_leaders,
)
from repro.hw.cache import default_hierarchy
from repro.hw.cpu import ENGINE_TIERS, CPUConfig, MachineFault
from repro.hw.isa import INS_BYTES, Instruction, Op
from repro.hw.pmu import PMUConfig
from repro.platforms import PLATFORM_NAMES, create
from repro.workloads import dot, random_branches
from tests.engine_units import assert_units_fresh


def machine_pair(**cfg):
    """A (engine-off, engine-on) machine pair with identical configs."""
    base = MachineConfig(**cfg)
    off = Machine(dataclasses.replace(base, engine="off"))
    on = Machine(dataclasses.replace(base, engine="trace"))
    return off, on


def full_state(m: Machine):
    """Everything observable that must match between the two paths."""
    return {
        "counts": list(m.counts),
        "real_cycles": m.real_cycles,
        "iregs": list(m.cpu.iregs),
        "fregs": list(m.cpu.fregs),
        "memory": list(m.cpu.memory),
        "pc": m.cpu.pc,
        "halted": m.cpu.halted,
        "call_stack": list(m.cpu.call_stack),
        "touched_pages": set(m.cpu.touched_pages),
        "cache_stats": m.hierarchy.stats_snapshot(),
    }


def assert_equivalent(prog, run, **cfg):
    """Run *prog* via *run(machine)* on both paths; states must match."""
    off, on = machine_pair(**cfg)
    off.load(prog)
    on.load(prog)
    r_off = run(off)
    r_on = run(on)
    s_off, s_on = full_state(off), full_state(on)
    for key in s_off:
        assert s_off[key] == s_on[key], key
    assert r_off == r_on
    return off, on


def counting_loop(n=500, stride=1):
    asm = Assembler(name="count")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.addi("r3", "r3", 7)
    asm.addi("r1", "r1", stride)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------


def test_leaders_cover_entry_targets_and_joins():
    prog = counting_loop()
    code = prog.resolve()
    leaders = _compute_leaders(code)
    # entry pc and the loop head (branch target) are leaders, as is the
    # fall-through successor of the closing branch.
    assert 0 in leaders
    branch_pc = next(pc for pc, ins in enumerate(code) if ins[0] == Op.BLT)
    assert code[branch_pc][3] in leaders
    assert branch_pc + 1 in leaders


def test_probe_pcs_never_compiled():
    asm = Assembler(name="probed")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", 50)
    asm.label("loop")
    asm.probe(3)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    prog = asm.build()

    hits = []
    off, on = machine_pair()
    for m in (off, on):
        m.load(prog)
        m.register_probe(3, lambda pid, cpu: hits.append((pid, cpu.pc)))
        m.run_to_completion()
    assert full_state(off) == full_state(on)
    # 50 firings per machine, identical pcs
    assert len(hits) == 100
    assert hits[:50] == hits[50:]
    # the PROBE pc heads no compiled block
    st = on.engine_stats()
    assert st.blocks_compiled >= 1


# ----------------------------------------------------------------------
# bit-exact equivalence across program shapes
# ----------------------------------------------------------------------


def test_counting_loop_equivalence():
    off, on = assert_equivalent(
        counting_loop(2000), lambda m: m.run_to_completion()
    )
    st = on.engine_stats()
    assert st.fast_instructions > 0
    # the self-loop block is a one-member region once hot
    assert st.regions_compiled == 1
    assert st.region_instructions > 0
    assert off.engine_stats() is None


def test_fma_loop_equivalence(fma_loop_program):
    _, on = assert_equivalent(
        fma_loop_program, lambda m: m.run_to_completion()
    )
    # striding store base: the compiled path runs it.
    assert on.engine_stats().fast_instructions > 0


def test_call_ret_and_memory_equivalence():
    asm = Assembler(name="callmem")
    base = asm.reserve_data(64)
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", 40)
    asm.li("r5", base)
    asm.label("loop")
    asm.call("work")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    asm.func("work")
    asm.load("r3", "r5", 2)
    asm.add("r4", "r4", "r3")
    asm.store("r4", "r5", 3)
    asm.ret()
    asm.endfunc()
    assert_equivalent(asm.build(), lambda m: m.run_to_completion())


def test_long_straight_line_block_split():
    # straight-line run far beyond MAX_BLOCK_LEN: split blocks must chain.
    asm = Assembler(name="straight")
    asm.label("main")
    for i in range(3 * MAX_BLOCK_LEN):
        asm.addi("r1", "r1", i % 5)
    asm.halt()
    _, on = assert_equivalent(asm.build(), lambda m: m.run_to_completion())
    assert on.engine_stats().blocks_compiled >= 3


def test_fault_messages_identical():
    asm = Assembler(name="crash")
    asm.label("main")
    asm.li("r1", 3)
    asm.li("r2", 0)
    asm.div("r3", "r1", "r2")
    asm.halt()
    prog = asm.build()
    msgs = []
    for m in machine_pair():
        m.load(prog)
        with pytest.raises(MachineFault) as err:
            m.run_to_completion()
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1]
    assert "divide by zero" in msgs[0]


def test_out_of_range_store_fault_identical():
    asm = Assembler(name="oob")
    asm.label("main")
    asm.li("r1", 1 << 40)
    asm.store("r1", "r1", 0)
    asm.halt()
    prog = asm.build()
    msgs = []
    for m in machine_pair():
        m.load(prog)
        with pytest.raises(MachineFault) as err:
            m.run_to_completion()
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1]
    assert "out of range" in msgs[0]


# ----------------------------------------------------------------------
# budget deadlines: stop at exactly the same instruction either way
# ----------------------------------------------------------------------


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50, 151, 1499])
def test_instruction_budget_boundary(budget):
    assert_equivalent(
        counting_loop(300), lambda m: m.run(max_instructions=budget)
    )


#: every opcode free and no branch penalty: a warm loop iteration costs
#: zero cycles, while a compiled step's worst case still counts fetch
#: misses, so the cycle budget caps fuel the loop may never use.
ZERO_LATENCY = CPUConfig(latencies=(0,) * Op.N_OPS, branch_penalty=0)


@pytest.mark.parametrize("budget", [1, 13, 100, 997, 4001])
def test_cycle_budget_boundary(budget):
    for cpu in (CPUConfig(), ZERO_LATENCY):
        assert_equivalent(
            counting_loop(300), lambda m: m.run(max_cycles=budget), cpu=cpu
        )


def test_resume_after_budget_is_equivalent():
    def run(m):
        parts = []
        while not m.cpu.halted:
            parts.append(m.run(max_instructions=37).instructions)
        return parts

    assert_equivalent(counting_loop(400), run)


# ----------------------------------------------------------------------
# PMU deadlines: overflow watches and timers fire identically
# ----------------------------------------------------------------------


def watched_run(prog, watches):
    """Run *prog* on both paths, counter *i* raising an overflow each
    ``watches[i] = (signal, threshold)``; records and state must match.
    Returns the engine-on machine."""
    records = {}
    for label, m in zip(("off", "on"), machine_pair()):
        m.load(prog)
        got = []
        for i, (signal, threshold) in enumerate(watches):
            m.pmu.program(i, [signal])
            m.pmu.set_overflow(i, threshold, lambda rec, got=got: got.append(
                (rec.counter, rec.trigger_pc, rec.reported_pc, rec.cycle,
                 rec.overflow_count)
            ))
            m.pmu.start(i)
        m.run_to_completion()
        records[label] = got, full_state(m)
    assert records["on"] == records["off"]
    assert len(records["on"][0]) >= 10
    return m


def test_overflow_records_identical_mid_loop():
    watched_run(counting_loop(3000), [(Signal.TOT_INS, 700)])
    # HW_INT advances after the overflow check, so a watch on it is due
    # (headroom 0) from each delivery until the next retire delivers
    # again; no compiled step advances HW_INT, and none may start then.
    on = watched_run(
        random_branches(400).program,
        [(Signal.TOT_CYC, 1000), (Signal.HW_INT, 1)],
    )
    assert on.engine_stats().regions_compiled >= 1


def test_cycle_timer_ticks_identical():
    prog = counting_loop(2000)
    ticks = {}
    for label, m in zip(("off", "on"), machine_pair()):
        m.load(prog)
        got = []
        m.pmu.set_cycle_timer(900, lambda cycle, got=got: got.append(cycle))
        m.run_to_completion()
        ticks[label] = got
    assert ticks["on"] == ticks["off"]
    assert len(ticks["on"]) >= 5


# ----------------------------------------------------------------------
# region engagement and invalidation
# ----------------------------------------------------------------------


def test_replay_reaches_steady_state_counts():
    n = 100_000
    off, on = assert_equivalent(
        counting_loop(n), lambda m: m.run_to_completion()
    )
    st = on.engine_stats()
    # nearly every loop instruction retires inside the compiled region
    assert st.region_instructions > 0.9 * 3 * n


def test_charge_pollution_mid_run_keeps_engine_exact():
    # compiled code reads the live caches, so interface pollution between
    # two slices needs nothing from the engine
    off, on = machine_pair()
    prog = counting_loop(5000)
    on.load(prog)
    on.run(max_instructions=4000)
    on.charge(100, pollute_lines=32)
    on.run_to_completion()

    off.load(prog)
    off.run(max_instructions=4000)
    off.charge(100, pollute_lines=32)
    off.run_to_completion()
    assert full_state(off) == full_state(on)


def test_reload_retires_old_table():
    off, on = machine_pair()
    a = counting_loop(200)
    b = counting_loop(300, stride=2)
    for m in (off, on):
        m.load(a)
        m.run_to_completion()
        m.load(b)
        m.run_to_completion()
    assert full_state(off) == full_state(on)


def branchy_loop(n=60):
    """A diamond loop with a call: compiles blocks and, at the trace
    tier, a region."""
    asm = Assembler(name="branchy")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.li("r5", 2)
    asm.label("loop")
    asm.div("r3", "r1", "r5")
    asm.muli("r3", "r3", 2)
    asm.sub("r3", "r1", "r3")
    asm.beq("r3", "r0", "even")
    asm.addi("r4", "r4", 3)
    asm.call("leaf")
    asm.jmp("join")
    asm.label("even")
    asm.addi("r6", "r6", 1)
    asm.label("join")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    asm.func("leaf")
    asm.fma("f5", "f1", "f2", "f2")
    asm.ret()
    asm.endfunc()
    return asm.build()


def compiled_units(m):
    st = m.engine_stats()
    return st.blocks_compiled, st.regions_compiled


@pytest.mark.parametrize("tier", ENGINE_TIERS[1:])
def test_reload_of_same_program_keeps_table(tier):
    off = Machine(MachineConfig(engine="off"))
    on = Machine(MachineConfig(engine=tier))
    prog = branchy_loop()
    for m in (off, on):
        m.load(prog)
        m.run_to_completion()
    first = compiled_units(on)
    assert first[0] > 0
    assert first[1] > 0
    for m in (off, on):
        m.load(prog)
        m.run_to_completion()
    assert compiled_units(on) == first
    assert full_state(off) == full_state(on)


def _load_other(m, prog):
    m.load(counting_loop(50))
    m.run_to_completion()


def _reset(m, prog):
    m.reset()


def _register_probe(m, prog):
    m.register_probe(99, lambda pid, cpu: None)


def _unregister_probe(m, prog):
    m.register_probe(99, lambda pid, cpu: None)
    m.load(prog)
    m.run_to_completion()
    m.unregister_probe(99)


def holds_table_for(m, code):
    return any(t.code is code for t in m.cpu.engine._tables.values())


@pytest.mark.parametrize("drop", [
    _load_other, _reset, _register_probe, _unregister_probe,
])
def test_table_dropped_on_program_change_reset_and_probe_registry(drop):
    off, on = machine_pair()
    prog = branchy_loop()
    for m in (off, on):
        m.load(prog)
        m.run_to_completion()
    old_code = on.cpu.code
    assert holds_table_for(on, old_code)
    for m in (off, on):
        drop(m, prog)
    assert not holds_table_for(on, old_code)
    before = on.engine_stats().blocks_compiled
    for m in (off, on):
        m.load(prog)
        m.run_to_completion()
    # the next pass over the same Program compiles its blocks afresh
    assert on.engine_stats().blocks_compiled > before
    assert full_state(off) == full_state(on)


def test_migrate_retires_old_table():
    off, on = machine_pair()
    prog = branchy_loop()
    new_prog, remap = prog.insert({0: [Instruction(Op.NOP)]})
    for m in (off, on):
        m.load(prog)
        m.run(max_instructions=200)
    old_code = on.cpu.code
    assert holds_table_for(on, old_code)
    for m in (off, on):
        m.cpu.migrate(new_prog, remap)
        m.run_to_completion()
    assert not holds_table_for(on, old_code)
    assert full_state(off) == full_state(on)


def test_probe_handler_reload_of_same_program_restarts_it():
    asm = Assembler(name="reloader")
    base = asm.reserve_data(4)
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", 30)
    asm.li("r5", base)
    asm.label("loop")
    asm.probe(7)
    asm.addi("r1", "r1", 1)
    asm.store("r1", "r5", 0)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    prog = asm.build()

    def run(m):
        fired = []

        def handler(pid, cpu):
            fired.append(cpu.pc)
            # late enough that the trace tier runs the loop as a region
            if len(fired) == 25:
                cpu.load(prog)  # restart from the entry with fresh state

        m.register_probe(7, handler)
        m.load(prog)
        m.run_to_completion()
        return fired

    machines = {t: Machine(MachineConfig(engine=t)) for t in ENGINE_TIERS}
    logs = {t: (run(m), full_state(m)) for t, m in machines.items()}
    fired, state = logs["off"]
    assert len(fired) == 25 + 30
    assert state["iregs"][1] == 30
    assert logs["trace"] == logs["off"]
    assert machines["trace"].engine_stats().regions_compiled > 0


def test_pmu_read_after_compiled_run_matches_interpreter():
    # the engine commits every count before it returns: a read needs no
    # write-back
    off, on = machine_pair()
    prog = counting_loop(100)
    on.load(prog)
    on.pmu.program(0, [Signal.TOT_INS])
    on.pmu.start(0)
    on.run_to_completion()
    value = on.pmu.read(0)
    assert on.engine_stats().fast_instructions > 0

    off.load(prog)
    off.pmu.program(0, [Signal.TOT_INS])
    off.pmu.start(0)
    off.run_to_completion()
    assert value == off.pmu.read(0)


# ----------------------------------------------------------------------
# pinned engine decisions
# ----------------------------------------------------------------------
#
# Bit-exactness alone cannot catch an engine that declines too often: an
# over-cautious worst-case delta keeps every count exact while blocks
# stop compiling and regions stop entering or run short of fuel.  These
# runs pin every EngineStats field.


def steady_self_loop(n=3000):
    """A self-loop block whose body spans three L1I lines: a one-member
    region once hot."""
    asm = Assembler(name="steady")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    for r in range(3, 21):
        asm.addi(f"r{r}", f"r{r}", r)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


def call_loop(n=2000):
    """One static path through a CALL/RET pair: a region.

    The leaf sits below ``main``, so its RET is a forward transfer and
    the loop's closing branch is the only back edge.
    """
    asm = Assembler(name="calls")
    asm.func("leaf")
    asm.addi("r3", "r3", 5)
    asm.muli("r4", "r5", 3)
    asm.ret()
    asm.endfunc()
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.call("leaf")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


def probed_loop(n=1500):
    """A loop headed by a probe with a registered handler: a region."""
    asm = Assembler(name="probed")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.probe(1)
    asm.addi("r3", "r3", 7)
    asm.muli("r4", "r1", 3)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


def pinned_run(scenario, tier):
    """Run one pinned scenario at *tier*; returns the machine."""
    pmu = PMUConfig(has_profileme=scenario == "profileme")
    m = Machine(MachineConfig(engine=tier, pmu=pmu))
    if scenario == "self_loop":
        m.load(steady_self_loop())
    elif scenario == "call_trace":
        m.load(call_loop())
    elif scenario == "region":
        m.load(random_branches(400).program)
    elif scenario == "probed":
        m.load(probed_loop())
        m.register_probe(1, lambda pid, cpu: None)
    elif scenario == "profileme":
        m.load(dot(400).program)
        m.pmu.enable_profileme(53)
    else:
        # an overflow watch: its headroom caps block and region steps by
        # their worst-case deltas.
        m.load(
            steady_self_loop() if scenario == "watch_loop"
            else random_branches(400).program
        )
        m.pmu.program(0, [Signal.TOT_CYC])
        m.pmu.set_overflow(0, 4000, lambda rec: None)
        m.pmu.start(0)
    m.run_to_completion()
    return m


#: every EngineStats field per run, in field order: blocks_executed,
#: fast_instructions, blocks_compiled, regions_compiled, region_entries,
#: region_instructions.  A change that moves any of them changes what
#: the engine decides, and must say why.
PINNED_STATS = {
    ("self_loop", "trace"): (17, 60002, 2, 1, 1, 59660),
    ("call_trace", "trace"): (48, 12002, 4, 1, 1, 11904),
    ("region", "trace"): (48, 2602, 5, 1, 1, 2494),
    ("probed", "trace"): (17, 7486, 2, 1, 1, 7420),
    ("profileme", "trace"): (91, 2851, 3, 1, 60, 2593),
    ("watch_loop", "trace"): (17, 56702, 2, 1, 577, 56360),
    ("watch_region", "trace"): (109, 2571, 5, 1, 97, 2331),
}


@pytest.mark.parametrize("scenario,tier", sorted(PINNED_STATS))
def test_engine_decisions_pinned(scenario, tier):
    m = pinned_run(scenario, tier)
    assert m.engine_stats() == EngineStats(*PINNED_STATS[scenario, tier])


# ----------------------------------------------------------------------
# the warm-fetch check inside compiled blocks
# ----------------------------------------------------------------------
#
# A compiled fetch binds the ways list of its line's L1I set and takes a
# shortcut when the line is already the MRU way; anything else must go
# through ``inst_fetch``, which reorders or evicts.  Code lines that
# share a set and run alternately move the MRU way between executions
# of one block.

_L1I = default_hierarchy().l1i
#: instructions per L1I line, and between two lines sharing one set.
LINE_INS = _L1I.line_bytes // INS_BYTES
SET_STRIDE = _L1I.size_bytes // _L1I.assoc // INS_BYTES
#: first leaf pc: line-aligned and clear of main's lines.
LEAF_BASE = 4 * LINE_INS


def aliasing_calls(order, n=200):
    """A loop calling leaf *k* for each slot *k* in *order*, per pass.

    Leaf *k* sits *k* set strides past LEAF_BASE and spans two lines, so
    its entry fetch and its mid-block fetch land in sets it shares with
    every other leaf.
    """
    slots = sorted(set(order))
    asm = Assembler(name="alias")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    for k in order:
        asm.call(f"leaf{k}")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    pc = len(order) + 5
    for k in slots:
        start = LEAF_BASE + k * SET_STRIDE
        for _ in range(start - pc):
            asm.nop()
        asm.func(f"leaf{k}")
        for _ in range(LINE_INS + 2):
            asm.addi("r3", "r3", k + 1)
        asm.ret()
        asm.endfunc()
        pc = start + LINE_INS + 3
    return asm.build()


def l1i_state(m):
    return (
        [list(c.counts) for c in m.cpus],
        m.hierarchy.stats_snapshot(),
        m.hierarchy.l1i.contents(),
    )


@pytest.mark.parametrize("order", [(0, 1), (0, 1, 0, 2), (0, 1, 2)])
def test_block_warm_fetch_follows_mru_changes(order):
    # (0, 1): hits whose MRU way alternates.  (0, 1, 0, 2): a non-MRU
    # hit on leaf 0 must reorder the set, or leaf 2 evicts leaf 0
    # instead of leaf 1.  (0, 1, 2): a thrashing 2-way set, every
    # entry a miss.
    prog = aliasing_calls(order)
    states = {}
    for tier in ENGINE_TIERS:
        m = Machine(MachineConfig(engine=tier))
        m.load(prog)
        m.run_to_completion()
        states[tier] = l1i_state(m)
    assert m.engine_stats().blocks_executed > 0
    assert states["trace"] == states["off"]


def test_block_warm_fetch_sees_other_cpu_fetches():
    # the CPUs share leaf 0's lines and each has a leaf of its own in
    # the same sets; short alternating slices reorder the shared L1I
    # between executions of each CPU's blocks.
    progs = (aliasing_calls((0, 1)), aliasing_calls((0, 2)))
    states = {}
    for tier in ENGINE_TIERS:
        m = Machine(MachineConfig(engine=tier, ncpus=2))
        for cpu, prog in zip(m.cpus, progs):
            cpu.load(prog)
        while not all(cpu.halted for cpu in m.cpus):
            for cpu, budget in zip(m.cpus, (37, 41)):
                cpu.run(max_instructions=budget)
        states[tier] = l1i_state(m)
    assert all(cpu.engine.stats.blocks_executed > 0 for cpu in m.cpus)
    assert states["trace"] == states["off"]


# ----------------------------------------------------------------------
# the engine tier knob
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tier", ["turbo", None])
def test_unknown_tier_rejected_alike_everywhere(tier):
    errors = set()
    for build in (
        lambda: MachineConfig(engine=tier),
        lambda: CPU(engine=tier),
        lambda: create("simX86", engine=tier),
    ):
        with pytest.raises(ValueError) as err:
            build()
        errors.add(str(err.value))
    assert errors == {
        f"unknown engine tier {tier!r}; expected one of {ENGINE_TIERS}"
    }


# ----------------------------------------------------------------------
# scheduler integration: context switches preserve bit-exactness
# ----------------------------------------------------------------------


def test_scheduler_slices_equivalent_and_counted():
    from repro.simos.scheduler import OS

    results = {}
    for label, m in zip(("off", "on"), machine_pair()):
        os_ = OS(m, quantum_cycles=2500)
        os_.spawn(counting_loop(4000))
        os_.spawn(counting_loop(3000, stride=2))
        stats = os_.run()
        results[label] = (
            full_state(m), stats.slices, stats.context_switches,
            [t.user_cycles for t in os_.threads],
        )
        if label == "on":
            assert m.engine_stats().fast_instructions > 0
        else:
            assert m.engine_stats() is None
    assert results["on"] == results["off"]


# ----------------------------------------------------------------------
# the process-wide compiled-code cache
# ----------------------------------------------------------------------


def const_program(op, value):
    """One block whose only difference between programs is a literal."""
    asm = Assembler(name="const")
    asm.label("main")
    asm.raw(Instruction(op, 1, d=value))
    asm.fli("f2", 3.0)
    asm.fmul("f3", "f1", "f2")
    asm.fmov("f4", "f1")
    asm.addi("r2", "r1", 1)
    asm.halt()
    return asm.build()


def typed_state(m):
    """Register files with each value's type and sign kept visible
    (``0.0 == -0.0`` and ``1 == 1.0 == True`` compare equal)."""
    return (
        [repr(x) for x in m.cpu.iregs],
        [repr(x) for x in m.cpu.fregs],
        list(m.counts),
    )


def run_typed(prog, engine):
    m = Machine(MachineConfig(engine=engine))
    m.load(prog)
    m.run_to_completion()
    return m


@pytest.mark.parametrize("op,values", [
    (Op.FLI, (0.0, -0.0, 0.0)),
    (Op.FLI, (1, 1.0, 1)),
    (Op.LI, (1, True, 1.0, 1)),
])
def test_code_cache_keeps_literals_that_compare_equal_apart(op, values):
    for tier in ENGINE_TIERS[1:]:
        for value in values:
            prog = const_program(op, value)
            ref = run_typed(prog, "off")
            got = run_typed(prog, tier)
            assert got.engine_stats().blocks_compiled >= 1
            assert typed_state(got) == typed_state(ref), (tier, value)


def unit_for(key):
    """A stand-in template: code that sets ``_v`` to *key*."""
    return compile(f"_v = {key!r}\n", "<unit>", "exec")


def test_code_cache_is_bounded_lru():
    keys = [("bounded", i) for i in range(MAX_UNITS + 10)]
    for key in keys:
        UNIT_CACHE.get(key, unit_for, key)
    assert len(UNIT_CACHE) == UNIT_CACHE.maxsize == MAX_UNITS
    hits, misses = UNIT_CACHE.hits, UNIT_CACHE.misses
    # the oldest kept entry hits and becomes the newest, so the next
    # miss evicts the entry after it
    assert UNIT_CACHE.get(keys[10], unit_for, keys[10]) == unit_for(keys[10])
    UNIT_CACHE.get(("bounded", "new"), unit_for, ("bounded", "new"))
    assert (UNIT_CACHE.hits, UNIT_CACHE.misses) == (hits + 1, misses + 1)
    UNIT_CACHE.get(keys[10], unit_for, keys[10])
    assert UNIT_CACHE.hits == hits + 2
    UNIT_CACHE.get(keys[11], unit_for, keys[11])  # evicted
    UNIT_CACHE.get(keys[0], unit_for, keys[0])  # evicted by the fill
    assert UNIT_CACHE.misses == misses + 3
    assert len(UNIT_CACHE) == MAX_UNITS


def run_threads(worker, args, timeout=60):
    """Run ``worker(arg)`` on one thread per arg, switching often;
    returns the errors the workers recorded."""
    errors = []

    def guarded(arg):
        try:
            worker(arg, errors)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(repr(exc))

    threads = [threading.Thread(target=guarded, args=(a,)) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_code_cache_concurrent_compiles_and_evictions():
    # two threads keep hitting the same 8 keys while two others build
    # fresh units, each miss evicting the least recently used entry;
    # with more threads than cores and frequent switches, every get must
    # return the unit built for its own key, and no hit or miss is lost.
    hits0, misses0 = UNIT_CACHE.hits, UNIT_CACHE.misses
    gets = [0] * 4
    deadline = time.monotonic() + 1.0

    def worker(tid, errors):
        n = 0
        # the fresh-key threads make at least MAX_UNITS misses each
        while time.monotonic() < deadline or (tid >= 2 and n < MAX_UNITS):
            n += 1
            key = ("hit", n % 8) if tid < 2 else (tid, n)
            ns = {}
            exec(UNIT_CACHE.get(key, unit_for, key), ns)
            if ns["_v"] != key:
                errors.append((key, ns["_v"]))
        gets[tid] = n

    assert run_threads(worker, range(4)) == []
    assert len(UNIT_CACHE) == MAX_UNITS
    hits, misses = UNIT_CACHE.hits - hits0, UNIT_CACHE.misses - misses0
    assert hits + misses == sum(gets)
    assert hits > 0 and misses >= 2 * MAX_UNITS


def test_machines_on_threads_each_run_their_own_code():
    # one machine per thread, as papid's inline transport dispatches
    # each shard on its own thread; programs differ in one literal.
    # (a list, not a dict: 0.0/-0.0 and 1/1.0 are equal keys)
    values = [0.0, -0.0, 1, 1.0, 2.5, -2.5]
    expected = [
        typed_state(run_typed(const_program(Op.FLI, v), "off"))
        for v in values
    ]

    def worker(i, errors):
        for _ in range(20):
            got = run_typed(const_program(Op.FLI, values[i]), "trace")
            if typed_state(got) != expected[i]:
                errors.append(values[i])

    assert run_threads(worker, range(len(values))) == []


def run_probed(log):
    """probed_loop with a handler that logs each firing's pc."""
    m = Machine(MachineConfig())
    m.load(probed_loop())
    m.register_probe(1, lambda pid, cpu: log.append(cpu.pc))
    m.run_to_completion()
    return m


def test_equal_programs_bind_their_own_code_and_handlers():
    # two Programs of equal content (distinct code lists) on machines
    # with different handlers share one region template; each binding
    # holds its own machine's code list and handler.
    UNIT_CACHE.clear()
    solo_log = []
    solo = dataclasses.astuple(run_probed(solo_log).engine_stats())
    assert solo[4] == 1  # one region
    UNIT_CACHE.clear()
    logs = ([], [])
    a = run_probed(logs[0])
    hits = UNIT_CACHE.hits
    b = run_probed(logs[1])
    assert UNIT_CACHE.hits > hits
    assert a.cpu.code == b.cpu.code and a.cpu.code is not b.cpu.code
    for m, log in zip((a, b), logs):
        table = m.cpu.engine._tables[id(m.cpu.code)]
        (region,) = table.regions.values()
        g = region.fn.__globals__
        assert g["_code"] is m.cpu.code
        assert g["_eng"] is m.cpu.engine
        assert [g[k] for k in g if k.startswith("_h")] == [m._probes[1]]
        assert dataclasses.astuple(m.engine_stats()) == solo
        assert log == solo_log


# ----------------------------------------------------------------------
# the unit cache's key is complete
# ----------------------------------------------------------------------


def p1_programs():
    """The P1 benchmark's workloads, at test sizes."""
    bench_dir = str(Path(__file__).resolve().parents[2] / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    p1 = importlib.import_module("bench_p1_interp_throughput")
    return [build(300) for _name, build in p1.WORKLOADS]


def workload_programs():
    """Every kernel of ``repro.workloads``, at test sizes."""
    w = workloads
    return [wl.program for wl in (
        w.predictable_branches(200), w.random_branches(200),
        w.dot(100), w.axpy(100), w.triad(100), w.matmul(4),
        w.matmul(4, blocked=True, block=2), w.mixed_precision_sum(100),
        w.pointer_chase(32, 200), w.strided_scan(256, 4),
        w.working_set_sweep(256, 2), w.tlb_walker(24, passes=2),
        w.phased([("fp", 50), ("mem", 50), ("br", 50)], repeats=2),
        w.demo_app(40), w.conformance_mix(100), w.skid_probe(100),
        w.decoy_spin(100),
    )]


def run_units(config, prog, probe):
    m = Machine(config)
    m.load(prog)
    if probe:
        m.register_probe(1, lambda pid, cpu: None)
    m.run_to_completion()
    return m


def test_warm_templates_equal_fresh_emission():
    # every unit of the P1 programs and the workloads, on every shipped
    # platform (gshare, two-bit and static-taken predictors), with the
    # probe handled and unhandled: warm the cache with all of them, then
    # each unit a fresh machine binds from a template made on another
    # machine must equal the unit a fresh emission gives that machine.
    configs = [create(name).machine.config for name in PLATFORM_NAMES]
    assert {c.cpu.predictor for c in configs} == {
        "gshare", "two-bit", "static-taken"}
    runs = [(p, False) for p in p1_programs() + workload_programs()]
    runs.append((runs[2][0], True))  # P1 probed, with a handler
    UNIT_CACHE.clear()
    for config in configs:
        for prog, probe in runs:
            run_units(config, prog, probe)
    assert len(UNIT_CACHE) < MAX_UNITS  # nothing was evicted
    misses = UNIT_CACHE.misses
    blocks = regions = 0
    for config in configs:
        for prog, probe in runs:
            nb, nr = assert_units_fresh(run_units(config, prog, probe))
            blocks += nb
            regions += nr
    assert UNIT_CACHE.misses == misses  # every unit came from a template
    assert blocks > 400 and regions > 100

