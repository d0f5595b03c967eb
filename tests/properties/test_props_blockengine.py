"""Property-based tests: the block engine is bit-exact with the interpreter.

Random structured programs (nested-loop-free but loop-heavy, branchy,
with memory traffic, calls and probes), random PMU instrumentation (up
to two overflow watches, ProfileMe sampling, cycle timers) and random
instruction and cycle budgets: every observable -- the counts array,
architectural state, cache statistics, overflow records, sample streams
-- must be *identical* at every engine tier.  Each budget, sample tick,
threshold and timer tick is a deadline no fast step may cross, so the
draws include watches on HW_INT (which the PMU advances after
its overflow check, leaving the watch due) and on BR_MSP (rare in a warm
loop, yet counted at its worst case in every fuel bound).  A share of
the loops runs 100-300 iterations, so a self-loop block runs as a
one-member region for many fuel-bounded entries.  A separate property
holds the one deadline rule, ``steps_before_deadline``, to a brute-force
scan, and another proves the unit cache's key complete: a machine that
differs from the last one in a single emitter input still runs exactly
its own code.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.sampling import sample_signature
from repro.hw import Assembler, Machine, MachineConfig, Signal
from repro.hw.blockcache import UNIT_CACHE, steps_before_deadline
from repro.hw.branch import make_predictor
from repro.hw.cache import CacheConfig, TLBConfig
from repro.hw.cpu import ENGINE_TIERS
from repro.hw.isa import Op
from repro.hw.pmu import PMUConfig
from tests.engine_units import assert_units_fresh
from tests.property_examples import examples

# -- program generator -------------------------------------------------

_ALU = ("alu_addi", "alu_add", "alu_mul", "fp_fma", "fp_add", "mem_load",
        "mem_store", "nop")

body_ops = st.lists(st.sampled_from(_ALU), min_size=0, max_size=6)
segments = st.lists(
    st.tuples(
        st.one_of(                                # loop iterations
            st.integers(min_value=1, max_value=25),
            st.integers(min_value=100, max_value=300),
        ),
        st.integers(min_value=1, max_value=3),    # counter stride
        body_ops,
        st.booleans(),                            # insert a probe?
    ),
    min_size=1,
    max_size=5,
)


def build_program(segs) -> "object":
    """A halting program: a chain of independent counted loops."""
    asm = Assembler(name="prop")
    base = asm.reserve_data(128)
    asm.func("main")
    asm.li("r9", base)
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)
    for i, (iters, stride, body, probed) in enumerate(segs):
        counter, scratch = "r1", "r2"
        asm.li(counter, 0)
        asm.li("r3", iters * stride)
        asm.label(f"loop{i}")
        if probed:
            asm.probe(i + 1)
        for j, op in enumerate(body):
            if op == "alu_addi":
                asm.addi(scratch, scratch, j + 1)
            elif op == "alu_add":
                asm.add("r4", "r4", scratch)
            elif op == "alu_mul":
                asm.muli("r5", scratch, 3)
            elif op == "fp_fma":
                asm.fma("f3", "f1", "f2", "f3")
            elif op == "fp_add":
                asm.fadd("f4", "f4", "f1")
            elif op == "mem_load":
                asm.load("r6", "r9", j % 8)
            elif op == "mem_store":
                asm.store("r4", "r9", 8 + j % 8)
            else:
                asm.nop()
        asm.addi(counter, counter, stride)
        asm.blt(counter, "r3", f"loop{i}")
    asm.halt()
    asm.endfunc()
    return asm.build()


#: signals an overflow watch may count.
WATCH_SIGNALS = [
    Signal.TOT_INS, Signal.TOT_CYC, Signal.FP_FMA, Signal.L1D_ACC,
    Signal.HW_INT, Signal.BR_MSP,
]

instrumentation = st.fixed_dictionaries({
    #: (signal, threshold) per watch; watch i runs on counter i.  Small
    #: thresholds let rare signals (HW_INT, BR_MSP, FP_FMA) overflow.
    "watches": st.lists(
        st.tuples(
            st.sampled_from(WATCH_SIGNALS),
            st.one_of(
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=9, max_value=1000),
            ),
        ),
        max_size=2,
    ),
    "skid_max": st.integers(min_value=0, max_value=6),
    "sample_period": st.one_of(
        st.none(), st.integers(min_value=8, max_value=200)
    ),
    "timer_period": st.one_of(
        st.none(), st.integers(min_value=50, max_value=2000)
    ),
    "max_instructions": st.one_of(
        st.none(), st.integers(min_value=1, max_value=2000)
    ),
    "max_cycles": st.one_of(
        st.none(), st.integers(min_value=1, max_value=20000)
    ),
    "seed": st.integers(min_value=1, max_value=2**31),
})


class Setup(NamedTuple):
    """A machine beyond the instrumentation draw: its config, a
    predictor ``(kind, kwargs)`` to install in place of the config's,
    and whether the probe handlers are registered."""

    config: MachineConfig = MachineConfig()
    predictor: Optional[Tuple[str, dict]] = None
    probes: bool = True


def run_one(prog, inst, engine: str, setup: Setup = Setup(), check=None):
    """Every observable of one run; engine runs add their EngineStats.

    *check*, if given, is called with the machine after the run."""
    config = dataclasses.replace(
        setup.config,
        seed=inst["seed"],
        pmu=PMUConfig(
            skid_max=inst["skid_max"],
            has_profileme=inst["sample_period"] is not None,
        ),
        engine=engine,
    )
    m = Machine(config)
    if setup.predictor is not None:
        kind, kwargs = setup.predictor
        m.cpu.predictor = make_predictor(kind, **kwargs)
    m.load(prog)
    probe_log = []
    for pid in range(1, 8 if setup.probes else 1):
        m.register_probe(
            pid, lambda p, cpu, log=probe_log: log.append((p, cpu.pc))
        )
    overflows = []
    for i, (signal, threshold) in enumerate(inst["watches"]):
        m.pmu.program(i, [signal])
        m.pmu.set_overflow(
            i, threshold,
            lambda rec: overflows.append(dataclasses.astuple(rec)),
        )
        m.pmu.start(i)
    sampler = None
    if inst["sample_period"] is not None:
        sampler = m.pmu.enable_profileme(inst["sample_period"])
    ticks = []
    if inst["timer_period"] is not None:
        m.pmu.set_cycle_timer(
            inst["timer_period"], lambda cycle: ticks.append(cycle)
        )
    result = m.run(
        max_instructions=inst["max_instructions"],
        max_cycles=inst["max_cycles"],
    )
    out = {
        "counts": list(m.counts),
        "real_cycles": m.real_cycles,
        "iregs": list(m.cpu.iregs),
        "fregs": list(m.cpu.fregs),
        "memory": list(m.cpu.memory),
        "pc": m.cpu.pc,
        "halted": (result.halted, m.cpu.halted),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "touched_pages": set(m.cpu.touched_pages),
        "cache_stats": m.hierarchy.stats_snapshot(),
        "probes": probe_log,
        "overflows": overflows,
        "samples": sample_signature(sampler.samples) if sampler else (),
        "ticks": ticks,
        "counters": [m.pmu.read(i) for i in range(len(inst["watches"]))],
    }
    if m.engine_stats() is not None:
        out["engine_stats"] = dataclasses.astuple(m.engine_stats())
    if check is not None:
        check(m)
    return out


class TestEngineEquivalence:
    @given(segments, instrumentation)
    @settings(max_examples=examples(40), deadline=None)
    def test_engine_on_off_identical(self, segs, inst):
        prog = build_program(segs)
        off = run_one(prog, inst, "off")
        for tier in ENGINE_TIERS[1:]:
            on = run_one(prog, inst, tier)
            for key in off:
                assert off[key] == on[key], (tier, key)


# -- the unit cache's key is complete ----------------------------------

BASE = MachineConfig()
_HIER = BASE.hierarchy
_CPU = BASE.cpu


def _hier(**changes) -> Setup:
    return Setup(dataclasses.replace(
        BASE, hierarchy=dataclasses.replace(_HIER, **changes)))


def _cpu(**changes) -> Setup:
    return Setup(dataclasses.replace(
        BASE, cpu=dataclasses.replace(_CPU, **changes)))


def _latency(op: int, extra: int) -> Setup:
    lat = list(_CPU.latencies)
    lat[op] += extra
    return _cpu(latencies=tuple(lat))


_L1I = _HIER.l1i
_GSHARE = ("gshare", {})


def _from_base(b: Setup):
    return (Setup(), b)


def _from_gshare(**kwargs):
    return (Setup(predictor=_GSHARE), Setup(predictor=("gshare", kwargs)))


#: one strategy per emitter input, each drawing an ``(A, B)`` pair of
#: machines that differ in that input alone (the base config has a
#: 32-byte-line 2-way L1I of 64 sets, 4 KB pages and a two-bit
#: predictor of 1,024 entries).
_ONE_INPUT = [
    st.sampled_from([16, 64, 128]).map(lambda line: _hier(l1i=CacheConfig(
        "L1I", _L1I.assoc * 64 * line, line, _L1I.assoc))),
    st.sampled_from([1024, 2048, 16384]).map(lambda size: _hier(
        l1i=CacheConfig("L1I", size, _L1I.line_bytes, _L1I.assoc))),
    st.sampled_from([256, 1024, 8192]).map(
        lambda page: _hier(tlb=TLBConfig(_HIER.tlb.entries, page))),
    st.builds(
        _latency,
        st.sampled_from([Op.ADDI, Op.FMA, Op.FADD, Op.MULI, Op.LOAD,
                         Op.STORE, Op.BLT, Op.NOP, Op.LI]),
        st.integers(min_value=1, max_value=5),
    ),
    st.sampled_from([0, 1, 9]).map(lambda bp: _cpu(branch_penalty=bp)),
    st.sampled_from([0, 3, 20]).map(lambda v: _hier(l2_latency=v)),
    st.sampled_from([1, 30, 200]).map(lambda v: _hier(mem_latency=v)),
    st.sampled_from([0, 5, 90]).map(lambda v: _hier(tlb_walk_latency=v)),
    st.sampled_from(["static-taken", "gshare"]).map(
        lambda kind: _cpu(predictor=kind)),
    st.sampled_from([64, 256, 16384]).map(
        lambda n: Setup(predictor=("two-bit", {"table_size": n}))),
]
differing_pairs = st.sampled_from(
    [s.map(_from_base) for s in _ONE_INPUT] + [
        st.sampled_from([64, 1024]).map(
            lambda n: _from_gshare(table_size=n)),
        st.sampled_from([1, 4, 12]).map(
            lambda bits: _from_gshare(history_bits=bits)),
        st.booleans().map(lambda a_has: (
            Setup(probes=a_has), Setup(probes=not a_has))),
    ]
).flatmap(lambda one_input: one_input).flatmap(
    lambda pair: st.sampled_from([pair, pair[::-1]]))


class TestUnitCacheKey:
    @given(segments, instrumentation, differing_pairs)
    @settings(max_examples=examples(25), deadline=None)
    def test_second_machine_runs_its_own_code(self, segs, inst, pair):
        # A then B in one process: B binds A's templates wherever the
        # key says their inputs agree, and must run exactly as B alone,
        # which engine stats compare, and as B's interpreter.  Each unit
        # B bound must also equal a fresh emission for B: predictable
        # loops hide some wrong bindings from every count.
        a, b = pair
        prog = build_program(segs)
        UNIT_CACHE.clear()
        alone = run_one(prog, inst, "trace", b)
        UNIT_CACHE.clear()
        run_one(prog, inst, "trace", a)
        after_a = run_one(prog, inst, "trace", b, check=assert_units_fresh)
        off = run_one(prog, inst, "off", b)
        for key in off:
            assert after_a[key] == off[key], key
        assert after_a["engine_stats"] == alone["engine_stats"]


# -- the deadline rule alone -------------------------------------------

#: (headroom, cost per step) pairs; half the headrooms are already due
#: (<= 0) and half the costs are zero.
deadlines = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=-5, max_value=0),
            st.integers(min_value=1, max_value=300),
        ),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=40)),
    ),
    max_size=5,
)


class TestDeadlineRule:
    @given(
        st.integers(min_value=0, max_value=200),
        st.one_of(st.just(-1), st.integers(min_value=0, max_value=500)),
        st.integers(min_value=1, max_value=30),
        deadlines,
    )
    def test_rule_matches_bruteforce_scan(self, limit, rem_ins, n_ins, dls):
        def fits(j):
            return (rem_ins < 0 or j * n_ins <= rem_ins) and all(
                j * cost < headroom for headroom, cost in dls
            )

        k = 0
        while k < limit and fits(k + 1):
            k += 1
        assert steps_before_deadline(limit, rem_ins, n_ins, dls) == k
