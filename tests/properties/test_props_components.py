"""Property-based tests: mixed CPU/component EventSets keep every contract.

Random mixed EventSets (CPU presets plus uncore/energy members) crossed
with every substrate, engine tier and 1/4-CPU machines:

- **oracle derivation**: every component read equals the value derived
  from architecturally determined signals -- uncore bandwidth from
  oracle store counts and the machine's line-fill tally, energy from
  its documented closed form -- exactly, never approximately (the banks
  are free-running);
- **virtualized conservation**: a CPU member attached to one thread on
  a 4-CPU machine still equals the oracle count of that thread's
  program alone, however often the scheduler migrates it, while the
  socket-scoped component members see the whole machine;
- **placement invariance**: component values are identical on 1- and
  4-CPU machines running the same program (uncore and energy counters
  live on the socket, not on any CPU).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.library import Papi
from repro.hw.cpu import ENGINE_TIERS as TIERS
from repro.hw.events import Signal
from repro.platforms import DIRECT_PLATFORMS, PLATFORM_NAMES, create
from repro.validate.oracle import expected_signal_counts
from repro.workloads import conformance_mix, decoy_spin

#: never more than two uncore picks: two is the narrowest uncore bank
#: in the fleet, so every drawn set adds cleanly on every platform.
UNCORE_EVENTS = (
    "uncore:::MEM_BW_RD",
    "uncore:::MEM_BW_WR",
    "uncore:::UNC_L2_LINES_IN",
    "uncore:::UNC_TLB_WALKS",
)
ENERGY_EVENTS = (
    "energy:::PKG_ENERGY",
    "energy:::CORE_ENERGY",
    "energy:::DRAM_ENERGY",
)

component_sets = st.tuples(
    st.lists(st.sampled_from(UNCORE_EVENTS), unique=True, max_size=2),
    st.lists(st.sampled_from(ENERGY_EVENTS), unique=True, max_size=3),
).map(lambda t: tuple(t[0]) + tuple(t[1])).filter(bool)

cpu_sets = st.sampled_from(
    (("PAPI_TOT_INS",), ("PAPI_TOT_INS", "PAPI_TOT_CYC"))
)


def _expected_component_value(name, machine, oracle_counts):
    """The validate-oracle derivation of one component event."""
    lines_in = machine.signal_total(Signal.L2_MISS)
    core = (3 * machine.signal_total(Signal.TOT_CYC)
            + 2 * machine.signal_total(Signal.TOT_INS))
    dram = 5 * lines_in
    return {
        "uncore:::MEM_BW_RD": lines_in * machine.hierarchy.l2_line_bytes,
        "uncore:::MEM_BW_WR": 8 * oracle_counts[Signal.SR_INS],
        "uncore:::UNC_L2_LINES_IN": lines_in,
        "uncore:::UNC_TLB_WALKS": machine.signal_total(Signal.TLB_DM),
        "energy:::CORE_ENERGY": core,
        "energy:::DRAM_ENERGY": dram,
        "energy:::PKG_ENERGY": core + dram,
    }[name]


def _run_mixed(platform, tier, ncpus, cpu_events, cmp_events, n):
    substrate = create(platform, engine=tier, ncpus=ncpus)
    papi = Papi(substrate)
    if substrate.supports_sampling_counts():
        papi.sampling_period = 64
    papi.component("uncore")
    papi.component("energy")
    es = papi.create_eventset()
    es.add_named(*cpu_events)
    es.add_named(*cmp_events)
    workload = conformance_mix(n, use_fma=substrate.HAS_FMA)
    substrate.machine.load(workload.program)
    es.start()
    substrate.machine.run_to_completion()
    values = dict(zip(es.event_names, es.stop()))
    papi.destroy_eventset(es)
    return substrate, values, expected_signal_counts(workload.program)


@settings(max_examples=40)
@given(
    platform=st.sampled_from(PLATFORM_NAMES),
    tier=st.sampled_from(TIERS),
    ncpus=st.sampled_from((1, 4)),
    cpu_events=cpu_sets,
    cmp_events=component_sets,
    n=st.integers(min_value=30, max_value=100),
)
def test_component_reads_match_oracle_derivation(
    platform, tier, ncpus, cpu_events, cmp_events, n
):
    substrate, values, oracle_counts = _run_mixed(
        platform, tier, ncpus, cpu_events, cmp_events, n
    )
    machine = substrate.machine
    for name in cmp_events:
        assert values[name] == _expected_component_value(
            name, machine, oracle_counts
        ), f"{name} diverged from its oracle derivation on {platform}"
    if not substrate.supports_sampling_counts():
        assert values["PAPI_TOT_INS"] == oracle_counts[Signal.TOT_INS]


@settings(max_examples=25)
@given(
    platform=st.sampled_from(DIRECT_PLATFORMS),
    tier=st.sampled_from(TIERS),
    cmp_events=component_sets,
    n=st.integers(min_value=30, max_value=80),
)
def test_virtualized_cpu_conserved_uncore_socket_scoped(
    platform, tier, cmp_events, n
):
    substrate = create(platform, engine=tier, ncpus=4)
    papi = Papi(substrate)
    papi.component("uncore")
    papi.component("energy")
    workload = conformance_mix(n, use_fma=substrate.HAS_FMA)
    expected_ins = expected_signal_counts(workload.program)[Signal.TOT_INS]
    worker = substrate.os.spawn(workload.program, name="work")
    substrate.os.spawn(decoy_spin(20 * n).program, name="decoy")
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.add_named(*cmp_events)
    es.attach(worker)
    es.start()
    substrate.os.run()
    values = dict(zip(es.event_names, es.stop()))
    papi.destroy_eventset(es)
    # the virtualized CPU member saw exactly its thread, decoy and
    # migrations notwithstanding ...
    assert values["PAPI_TOT_INS"] == expected_ins
    # ... while socket-scoped members saw the whole machine: the
    # closed forms below are totals over every CPU and both threads
    machine = substrate.machine
    lines_in = machine.signal_total(Signal.L2_MISS)
    core = (3 * machine.signal_total(Signal.TOT_CYC)
            + 2 * machine.signal_total(Signal.TOT_INS))
    socket = {
        "uncore:::MEM_BW_RD": lines_in * machine.hierarchy.l2_line_bytes,
        "uncore:::MEM_BW_WR": 8 * machine.signal_total(Signal.SR_INS),
        "uncore:::UNC_L2_LINES_IN": lines_in,
        "uncore:::UNC_TLB_WALKS": machine.signal_total(Signal.TLB_DM),
        "energy:::CORE_ENERGY": core,
        "energy:::DRAM_ENERGY": 5 * lines_in,
        "energy:::PKG_ENERGY": core + 5 * lines_in,
    }
    for name in cmp_events:
        assert values[name] == socket[name]


@settings(max_examples=25)
@given(
    platform=st.sampled_from(PLATFORM_NAMES),
    tier=st.sampled_from(TIERS),
    cmp_events=component_sets,
    n=st.integers(min_value=30, max_value=80),
)
def test_component_counts_placement_invariant(
    platform, tier, cmp_events, n
):
    """The same program yields identical component values at any ncpus."""
    runs = {}
    for ncpus in (1, 4):
        _sub, values, _counts = _run_mixed(
            platform, tier, ncpus, ("PAPI_TOT_INS",), cmp_events, n
        )
        runs[ncpus] = {name: values[name] for name in cmp_events}
    assert runs[1] == runs[4], (
        f"component counts moved with CPU count on {platform}/{tier}"
    )
