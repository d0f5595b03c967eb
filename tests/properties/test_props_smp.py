"""Property-based tests: SMP counter virtualization conserves every count.

Random worker pools, CPU counts, quanta and forced-placement schedules
(which create real cross-CPU migrations, not just affinity dispatch):

- **conservation**: at every quiescent point (no thread on a CPU), the
  sum of per-thread virtual counts equals the sum of the per-CPU PMUs'
  real signal totals -- no slice is ever double-counted or lost;
- **ground truth**: each thread's final virtual FMA count equals the
  count implied by its instruction stream alone, independent of
  placement history, mid-run stop/restart, or how often it migrated;
- **engine equivalence**: the whole SMP schedule is bit-identical with
  the block engine on and off.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hw import Assembler, Signal
from repro.hw.machine import Machine, MachineConfig
from repro.hw.pmu import PMUConfig
from repro.simos.scheduler import OS
from repro.simos.thread import ThreadState

MAX_THREADS = 4

workers = st.lists(
    st.tuples(
        st.integers(min_value=5, max_value=60),   # loop iterations
        st.integers(min_value=1, max_value=3),    # FMAs per iteration
        st.booleans(),                            # add memory traffic?
    ),
    min_size=2,
    max_size=MAX_THREADS,
)

schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MAX_THREADS - 1),  # thread pick
        st.integers(min_value=0, max_value=7),                # cpu pick
        st.booleans(),                            # stop/restart counter?
    ),
    min_size=0,
    max_size=10,
)

setups = st.fixed_dictionaries({
    "ncpus": st.integers(min_value=1, max_value=3),
    "quantum": st.integers(min_value=200, max_value=1500),
})


def build_worker(index, iters, fmas, mem):
    asm = Assembler(name=f"w{index}")
    base = asm.reserve_data(32)
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", iters)
    asm.li("r9", base)
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)
    asm.label("loop")
    for _ in range(fmas):
        asm.fma("f3", "f1", "f2", "f3")
    if mem:
        asm.load("r6", "r9", 2)
        asm.store("r4", "r9", 5)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


def run_schedule(specs, setup, schedule, engine):
    """Run one random SMP schedule; return every observable + checks."""
    machine = Machine(MachineConfig(
        ncpus=setup["ncpus"],
        pmu=PMUConfig(n_counters=MAX_THREADS),
        engine=engine,
    ))
    os_ = OS(machine, quantum_cycles=setup["quantum"])
    threads = [
        os_.spawn(build_worker(i, *spec)) for i, spec in enumerate(specs)
    ]
    truths = [iters * fmas for (iters, fmas, _mem) in specs]
    for i, t in enumerate(threads):
        machine.cpus[0].pmu.program(i, [Signal.FP_FMA])
        os_.bind_counter(t, i)
        os_.counter_start(t, i)

    def conservation_ok():
        virtual = sum(
            os_.counter_value(t, i) for i, t in enumerate(threads)
        )
        real = sum(cpu.counts[Signal.FP_FMA] for cpu in machine.cpus)
        return virtual == real

    checkpoints = []
    stopped = set()
    for tpick, cpick, toggle in schedule:
        ready = [t for t in threads if t.state is ThreadState.READY]
        if not ready:
            break
        t = ready[tpick % len(ready)]
        i = threads.index(t)
        os_.run_slice(t, cpu=cpick % setup["ncpus"])
        # stopping an EventSet mid-migration must neither double-count
        # nor lose the running slice: stop, observe, restart.
        if toggle and t.state is ThreadState.READY and i not in stopped:
            mid = os_.counter_stop(t, i)
            assert 0 <= mid <= truths[i]
            os_.counter_start(t, i)
        checkpoints.append(conservation_ok())
    stats = os_.run()
    checkpoints.append(conservation_ok())
    finals = [os_.counter_stop(t, i) for i, t in enumerate(threads)]
    assert all(checkpoints), "conservation violated at a quiescent point"
    assert finals == truths, (
        f"virtual counts {finals} != instruction-stream truth {truths} "
        f"(migrations={stats.migrations})"
    )
    return {
        "finals": finals,
        "per_cpu_fma": [c.counts[Signal.FP_FMA] for c in machine.cpus],
        "per_cpu_cyc": [c.counts[Signal.TOT_CYC] for c in machine.cpus],
        "thread_cycles": [t.user_cycles for t in threads],
        "thread_last_cpu": [t.last_cpu for t in threads],
        "migrations": stats.migrations,
        "counter_migrations": stats.counter_migrations,
        "cpu_slices": list(stats.cpu_slices),
        "cpu_busy": list(stats.cpu_busy_cycles),
        "system_cycles": machine.system_cycles,
    }


class TestSMPConservation:
    @given(workers, setups, schedules)
    @settings(deadline=None)
    def test_conservation_and_ground_truth(self, specs, setup, schedule):
        run_schedule(specs, setup, schedule, engine="trace")

    @given(workers, setups, schedules)
    @settings(deadline=None)
    def test_engine_on_off_identical(self, specs, setup, schedule):
        on = run_schedule(specs, setup, schedule, engine="trace")
        off = run_schedule(specs, setup, schedule, engine="off")
        for key in on:
            assert on[key] == off[key], key

    @given(workers, st.integers(min_value=200, max_value=1500))
    @settings(deadline=None)
    def test_cycle_conservation(self, specs, quantum):
        """Scheduled thread time sums to the CPUs' executed cycles."""
        machine = Machine(MachineConfig(
            ncpus=2, pmu=PMUConfig(n_counters=MAX_THREADS)
        ))
        os_ = OS(machine, quantum_cycles=quantum)
        threads = [
            os_.spawn(build_worker(i, *spec))
            for i, spec in enumerate(specs)
        ]
        os_.run()
        assert sum(t.user_cycles for t in threads) == sum(
            c.counts[Signal.TOT_CYC] for c in machine.cpus
        )
