"""Property-based tests: the trace tier is bit-exact on branchy code.

The block-engine property suite covers straight counted loops; this one
attacks multi-block compiled regions specifically: random *multi-block*
programs whose loops contain data-dependent diamonds (if/else arms
joining before the back edge -- the shape tail duplication compiles
into regions), optional calls to a shared leaf and optional probes.
Every program must produce identical counts, architectural state and
cache statistics at every engine tier (``ENGINE_TIERS``), single-CPU
and through the SMP scheduler at ncpus=4, with a seeded fault injector
perturbing the counter substrate, under the block-engine suite's drawn
PMU instrumentation and budgets (so region fuel meets every kind of
deadline), and run in fixed-size steps that reload the program whenever
it halts (the papid session pattern, which keeps the code table across
reloads).  The single-CPU property also draws the branch predictor, so
regions open-code each of the static, two-bit and gshare predictors.
One more draws a probe handler that perturbs the machine at one firing
-- it enables ProfileMe, arms an overflow watch or the cycle timer, sets
``stop_flag`` or reloads the Program -- so a compiled region side-exits
at that probe and the CPU finishes the probe's retirement.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PapiError
from repro.core.library import Papi
from repro.core.sampling import sample_signature
from repro.hw import Assembler, Machine, MachineConfig, Signal
from repro.hw.blockcache import REGION_HOT
from repro.hw.cpu import ENGINE_TIERS as TIERS, CPUConfig
from repro.hw.pmu import PMUConfig
from repro.platforms import create
from repro.simos.scheduler import OS
from test_props_blockengine import instrumentation, run_one
from tests.property_examples import examples

PREDICTORS = ["static-taken", "two-bit", "gshare"]

_OPS = ("addi", "add", "muli", "fma", "fadd", "nop")

arm_ops = st.lists(st.sampled_from(_OPS), min_size=0, max_size=4)

segments = st.lists(
    st.fixed_dictionaries({
        "iters": st.integers(min_value=1, max_value=40),
        # parity branch (alternates every iteration) vs threshold branch
        # (flips once): both arms of the diamond get exercised either way.
        "parity": st.booleans(),
        "then_ops": arm_ops,
        "else_ops": arm_ops,
        "join_ops": st.lists(st.sampled_from(_OPS), min_size=0, max_size=3),
        "call": st.booleans(),
        "probed": st.booleans(),
    }),
    min_size=1,
    max_size=4,
)


#: the first loop is probed and hot enough to run as a region.
probed_segments = segments.map(lambda segs: [
    dict(segs[0], probed=True, iters=max(segs[0]["iters"], 2 * REGION_HOT)),
    *segs[1:],
])

#: what a probe handler does, once, to perturb the machine.
PERTURBATIONS = ("profileme", "watch", "timer", "stop", "reload")

perturbations = st.fixed_dictionaries({
    #: the firing, counted over every probe, at which the handler acts:
    #: about half the draws act inside the first loop's region.
    "firing": st.integers(min_value=1, max_value=2 * REGION_HOT + 8),
    #: sample period, overflow threshold or timer period.
    "period": st.integers(min_value=2, max_value=300),
    "signal": st.sampled_from(
        [Signal.TOT_INS, Signal.TOT_CYC, Signal.FP_FMA, Signal.HW_INT]
    ),
    "skid_max": st.integers(min_value=0, max_value=6),
    "seed": st.integers(min_value=1, max_value=2**31),
})


@pytest.fixture(autouse=True)
def _no_ambient_fault_profile(monkeypatch):
    """The fault leg seeds its own injector; the CI chaos knob must not
    stack a second environment-driven one onto the same substrate."""
    monkeypatch.delenv("REPRO_FAULT_PROFILE", raising=False)


def _emit_ops(asm, ops, salt):
    for j, op in enumerate(ops):
        if op == "addi":
            asm.addi("r4", "r4", salt + j + 1)
        elif op == "add":
            asm.add("r6", "r6", "r4")
        elif op == "muli":
            asm.muli("r7", "r4", 3)
        elif op == "fma":
            asm.fma("f3", "f1", "f2", "f3")
        elif op == "fadd":
            asm.fadd("f4", "f4", "f1")
        else:
            asm.nop()


def build_program(segs):
    """A halting chain of diamond loops (the compiled-region shape)."""
    asm = Assembler(name="branchy-prop")
    asm.func("main")
    asm.li("r5", 2)
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)
    for i, seg in enumerate(segs):
        asm.li("r1", 0)
        asm.li("r2", seg["iters"])
        asm.label(f"loop{i}")
        if seg["probed"]:
            asm.probe(i + 1)
        if seg["parity"]:
            # r3 = r1 % 2 via div/mul/sub: alternates every iteration
            asm.div("r3", "r1", "r5")
            asm.muli("r3", "r3", 2)
            asm.sub("r3", "r1", "r3")
            asm.beq("r3", "r0", f"else{i}")
        else:
            asm.blt("r1", "r5", f"else{i}")
        _emit_ops(asm, seg["then_ops"], i)
        if seg["call"]:
            asm.call("leaf")
        asm.jmp(f"join{i}")
        asm.label(f"else{i}")
        _emit_ops(asm, seg["else_ops"], i + 7)
        asm.label(f"join{i}")
        _emit_ops(asm, seg["join_ops"], i + 13)
        asm.addi("r1", "r1", 1)
        asm.blt("r1", "r2", f"loop{i}")
    asm.halt()
    asm.endfunc()
    asm.func("leaf")
    asm.fma("f5", "f1", "f2", "f2")
    asm.addi("r8", "r8", 1)
    asm.ret()
    asm.endfunc()
    return asm.build()


def run_single(prog, engine, predictor):
    m = Machine(MachineConfig(engine=engine, cpu=CPUConfig(predictor=predictor)))
    m.load(prog)
    probes = []
    for pid in range(1, 6):
        m.register_probe(pid, lambda p, cpu, log=probes: log.append((p, cpu.pc)))
    result = m.run_to_completion()
    return {
        "halted": (result.halted, m.cpu.halted),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "counts": list(m.counts),
        "real_cycles": m.real_cycles,
        "iregs": list(m.cpu.iregs),
        "fregs": list(m.cpu.fregs),
        "pc": m.cpu.pc,
        "cache_stats": m.hierarchy.stats_snapshot(),
        "probes": probes,
        "predictor": (
            list(getattr(m.cpu.predictor, "_table", ())),
            getattr(m.cpu.predictor, "_history", None),
        ),
    }, m


def run_smp(prog, engine, nthreads=3, quantum=400):
    """The same program on three threads, through the SMP scheduler."""
    machine = Machine(MachineConfig(ncpus=4, engine=engine))
    os_ = OS(machine, quantum_cycles=quantum)
    threads = [os_.spawn(prog) for _ in range(nthreads)]
    probes = []
    for pid in range(1, 6):
        machine.register_probe(pid, lambda p, cpu, log=probes: log.append(p))
    stats = os_.run()
    return {
        "per_cpu_counts": [list(c.counts) for c in machine.cpus],
        "thread_cycles": [t.user_cycles for t in threads],
        "thread_last_cpu": [t.last_cpu for t in threads],
        "migrations": stats.migrations,
        "cpu_slices": list(stats.cpu_slices),
        "system_cycles": machine.system_cycles,
        "probes": probes,
    }


def run_faulted(prog, engine, seed):
    """Counter-substrate ops under a seeded transient fault schedule.

    The injector gates the PAPI-level start/read/stop ops; engine tiers
    change neither the op sequence nor the counts they observe, so the
    whole faulted outcome -- including identical *failures* -- must be
    tier-invariant.
    """
    sub = create("simPOWER", engine=engine, inject=f"{seed}:transient")
    papi = Papi(sub)
    es = papi.create_eventset()
    for name in ("PAPI_TOT_INS", "PAPI_TOT_CYC"):
        es.add_event(papi.event_name_to_code(name))
    sub.machine.load(prog)
    outcome = {"reads": [], "errors": []}
    try:
        es.start()
        sub.machine.run_to_completion()
        outcome["reads"].append(es.read())
        outcome["reads"].append(es.stop())
    except PapiError as exc:
        outcome["errors"].append(type(exc).__name__)
    outcome["counts"] = list(sub.machine.counts)
    outcome["health"] = (es.health.retries, es.health.backoff_cycles)
    return outcome


def run_stepped(prog, engine, step, nsteps, inject=None):
    """The papid session pattern: fixed-size steps, reload on halt.

    Each step runs *step* instructions, reloading the program whenever
    it halts (the reload keeps the program's code table), then reads
    the EventSet, as ``WorkerSession.read`` does.
    """
    sub = create("simPOWER", engine=engine, inject=inject)
    machine = sub.machine
    probes = []
    for pid in range(1, 6):
        machine.register_probe(pid, lambda p, cpu, log=probes: log.append(p))
    papi = Papi(sub)
    es = papi.create_eventset()
    for name in ("PAPI_TOT_INS", "PAPI_TOT_CYC"):
        es.add_event(papi.event_name_to_code(name))
    machine.load(prog)
    outcome = {"steps": [], "errors": []}
    try:
        es.start()
        for _ in range(nsteps):
            budget, reloads = step, 0
            while budget > 0:
                result = machine.run(max_instructions=budget)
                budget -= result.instructions
                if result.halted:
                    machine.load(prog)
                    reloads += 1
            outcome["steps"].append((reloads, machine.cpu.pc, es.read()))
    except PapiError as exc:
        outcome["errors"].append(type(exc).__name__)
    outcome["counts"] = list(machine.counts)
    outcome["cache_stats"] = machine.hierarchy.stats_snapshot()
    outcome["probes"] = probes
    return outcome


def run_perturbed(prog, engine, action, pert, exits=None):
    """One run whose probe handler does *action* at a drawn firing.

    A ``stop`` run is resumed until it halts.  *exits*, if given, gets
    the pc of every probe a compiled region side-exited at.
    """
    m = Machine(MachineConfig(
        engine=engine, seed=pert["seed"],
        pmu=PMUConfig(skid_max=pert["skid_max"], has_profileme=True),
    ))
    m.load(prog)
    probes, overflows, ticks, samplers = [], [], [], []
    period = pert["period"]

    def handler(pid, cpu):
        probes.append((pid, cpu.pc))
        if len(probes) != pert["firing"]:
            return
        pmu = cpu.pmu
        if action == "profileme":
            samplers.append(pmu.enable_profileme(period))
        elif action == "watch":
            pmu.program(0, [pert["signal"]])
            pmu.start(0)
            pmu.set_overflow(
                0, period,
                lambda rec: overflows.append(dataclasses.astuple(rec)),
            )
        elif action == "timer":
            pmu.set_cycle_timer(period, ticks.append)
        elif action == "stop":
            cpu.stop_flag = True
        else:
            cpu.load(prog)

    for pid in range(1, 6):
        m.register_probe(pid, handler)
    if exits is not None and m.cpu.engine is not None:
        engine_ = m.cpu.engine
        execute = engine_.execute

        def spy(*args):
            res = execute(*args)
            if engine_.probe_exit_pc >= 0:
                exits.append(engine_.probe_exit_pc)
            return res

        engine_.execute = spy
    reasons = []
    while True:
        result = m.run(max_instructions=100_000)
        reasons.append(result.reason)
        if result.reason != "stop":
            break
        m.cpu.stop_flag = False
    return {
        "reasons": reasons,
        "counts": list(m.counts),
        "iregs": list(m.cpu.iregs),
        "fregs": list(m.cpu.fregs),
        "pc": m.cpu.pc,
        "cache_stats": m.hierarchy.stats_snapshot(),
        "probes": probes,
        "overflows": overflows,
        "samples": sample_signature(samplers[0].samples) if samplers else (),
        "ticks": ticks,
    }


class TestTraceTierEquivalence:
    @given(segments, st.sampled_from(PREDICTORS))
    @settings(max_examples=examples(40), deadline=None)
    def test_all_tiers_identical_single_cpu(self, segs, predictor):
        prog = build_program(segs)
        ref, _ = run_single(prog, "off", predictor)
        assert ref["halted"] == (True, True)
        for tier in TIERS[1:]:
            got, m = run_single(prog, tier, predictor)
            for key in ref:
                assert got[key] == ref[key], (tier, key)
        if predictor == "gshare" and max(s["iters"] for s in segs) > REGION_HOT:
            # a loop that takes more than REGION_HOT back edges gets hot
            # and compiles: the gshare draws run open-coded regions.
            assert m.engine_stats().regions_compiled > 0

    @given(segments, instrumentation)
    @settings(max_examples=examples(40), deadline=None)
    def test_all_tiers_identical_under_deadlines(self, segs, inst):
        prog = build_program(segs)
        ref = run_one(prog, inst, "off")
        for tier in TIERS[1:]:
            got = run_one(prog, inst, tier)
            for key in ref:
                assert got[key] == ref[key], (tier, key)

    @given(segments)
    @settings(max_examples=examples(10), deadline=None)
    def test_all_tiers_identical_smp(self, segs):
        prog = build_program(segs)
        ref = run_smp(prog, "off")
        for tier in TIERS[1:]:
            got = run_smp(prog, tier)
            for key in ref:
                assert got[key] == ref[key], (tier, key)

    @given(segments, st.integers(min_value=1, max_value=2**16))
    @settings(max_examples=examples(15), deadline=None)
    def test_all_tiers_identical_under_faults(self, segs, seed):
        prog = build_program(segs)
        ref = run_faulted(prog, "off", seed)
        for tier in TIERS[1:]:
            got = run_faulted(prog, tier, seed)
            assert got == ref, tier

    @given(
        segments,
        st.integers(min_value=7, max_value=400),
        st.integers(min_value=1, max_value=2**16),
    )
    @settings(max_examples=examples(15), deadline=None)
    def test_all_tiers_identical_stepped_with_reload(self, segs, step, seed):
        prog = build_program(segs)
        for inject in (None, f"{seed}:transient"):
            ref = run_stepped(prog, "off", step, 12, inject)
            if inject is None:
                assert ref["errors"] == [] and len(ref["steps"]) == 12
            for tier in TIERS[1:]:
                got = run_stepped(prog, tier, step, 12, inject)
                assert got == ref, (tier, inject)


    @pytest.mark.parametrize("action", PERTURBATIONS)
    @given(segs=probed_segments, pert=perturbations)
    @settings(max_examples=examples(8), deadline=None)
    def test_all_tiers_identical_after_perturbing_probe(self, action, segs,
                                                        pert):
        prog = build_program(segs)
        ref = run_perturbed(prog, "off", action, pert)
        assert ref["reasons"][-1] == "halt"
        for tier in TIERS[1:]:
            got = run_perturbed(prog, tier, action, pert)
            for key in ref:
                assert got[key] == ref[key], (tier, key)


class TestTraceTierCoverage:
    """The property programs genuinely reach the new machinery: a hot
    diamond loop must compile into a region (not silently fall back to
    block dispatch, which would make the equivalence tests vacuous)."""

    def test_hot_diamond_compiles_region(self):
        seg = {
            "iters": 40, "parity": True,
            "then_ops": ["addi", "fma"], "else_ops": ["add"],
            "join_ops": ["muli"], "call": True, "probed": False,
        }
        prog = build_program([seg])
        m = Machine(MachineConfig(engine="trace"))
        m.load(prog)
        m.run_to_completion()
        stats = m.cpu.engine.stats
        assert stats.regions_compiled > 0
        assert stats.region_instructions > 0

    def test_hot_probed_diamond_compiles_region(self):
        seg = {
            "iters": 40, "parity": True,
            "then_ops": ["addi"], "else_ops": ["fadd"],
            "join_ops": [], "call": False, "probed": True,
        }
        prog = build_program([seg])
        m = Machine(MachineConfig(engine="trace"))
        m.load(prog)
        m.register_probe(1, lambda p, cpu: None)
        m.run_to_completion()
        assert m.cpu.engine.stats.regions_compiled > 0

    def test_hot_diamond_open_codes_gshare(self):
        seg = {
            "iters": 40, "parity": True,
            "then_ops": ["addi"], "else_ops": ["add"],
            "join_ops": [], "call": False, "probed": False,
        }
        m = Machine(MachineConfig(engine="trace",
                                  cpu=CPUConfig(predictor="gshare")))
        m.load(build_program([seg]))
        m.run_to_completion()
        regions = list(m.cpu.engine._table.regions.values())
        assert regions and all(r.predictor is m.cpu.predictor for r in regions)
        assert m.cpu.engine.stats.region_instructions > 0

    @pytest.mark.parametrize("action", PERTURBATIONS)
    def test_perturbing_probe_exits_its_region(self, action):
        """Each perturbation, made inside a running region, takes the
        region's probe exit (the property above would otherwise only
        compare interpreted probes)."""
        seg = {
            "iters": 40, "parity": True,
            "then_ops": ["addi", "fma"], "else_ops": ["fadd"],
            "join_ops": [], "call": False, "probed": True,
        }
        prog = build_program([seg])
        pert = {"firing": 30, "period": 40, "signal": Signal.TOT_INS,
                "skid_max": 3, "seed": 7}
        exits = []
        got = run_perturbed(prog, "trace", action, pert, exits)
        assert exits, "the perturbation never exited a compiled region"
        assert got == run_perturbed(prog, "off", action, pert)
