"""Unit tests for the SMP layer: per-CPU PMUs and migration-safe counters."""

from __future__ import annotations

import pytest

from repro.hw import Assembler, Machine, MachineConfig, Signal
from repro.hw.events import fresh_counts
from repro.hw.pmu import PMU, PMUConfig
from repro.simos.scheduler import OS, OSError_


def fma_worker(iters, name="w"):
    asm = Assembler(name=name)
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", iters)
    asm.fli("f1", 1.25)
    asm.fli("f2", 0.5)
    asm.label("loop")
    asm.fma("f3", "f1", "f2", "f3")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


class TestMachineSMP:
    def test_ncpus_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(ncpus=0)

    def test_per_cpu_isolation(self):
        m = Machine(MachineConfig(ncpus=3))
        assert m.ncpus == 3
        assert len({id(c.counts) for c in m.cpus}) == 3
        assert len({id(c.pmu) for c in m.cpus}) == 3
        assert all(c.hierarchy is m.hierarchy for c in m.cpus)
        # compatibility aliases point at CPU 0
        assert m.cpu is m.cpus[0]
        assert m.pmu is m.cpus[0].pmu
        assert m.counts is m.cpus[0].counts
        assert [c.cpu_index for c in m.cpus] == [0, 1, 2]

    def test_totals_sum_over_cpus(self):
        m = Machine(MachineConfig(ncpus=2))
        m.cpus[0].counts[Signal.TOT_CYC] += 100
        m.cpus[1].counts[Signal.TOT_CYC] += 40
        m.cpus[1].counts[Signal.FP_FMA] += 7
        assert m.user_cycles == 140
        assert m.signal_total(Signal.FP_FMA) == 7
        m.charge(60, cpu=1)
        assert m.real_cycles == 200
        assert m.cpus[1].counts[Signal.SYS_CYC] == 60
        assert m.cpus[0].counts[Signal.SYS_CYC] == 0

    def test_reset_clears_every_cpu(self):
        m = Machine(MachineConfig(ncpus=2))
        for c in m.cpus:
            c.counts[Signal.TOT_INS] += 5
            c.pmu.program(0, [Signal.TOT_INS])
        m.reset()
        assert all(c.counts[Signal.TOT_INS] == 0 for c in m.cpus)
        assert all(not c.pmu.counters[0].signals for c in m.cpus)


class TestCounterMigration:
    def test_export_import_preserves_value(self):
        counts_a, counts_b = fresh_counts(), fresh_counts()
        a = PMU(PMUConfig(), counts_a)
        b = PMU(PMUConfig(), counts_b)
        a.program(2, [Signal.FP_FMA])
        a.start(2)
        counts_a[Signal.FP_FMA] += 123
        snap = a.export_counter(2)
        assert snap.value == 123
        # the source register is freed
        assert not a.counters[2].signals
        b.import_counter(2, snap)
        assert b.read(2) == 123
        b.start(2)
        counts_b[Signal.FP_FMA] += 10
        assert b.read(2) == 133

    def test_export_import_preserves_overflow_headroom(self):
        counts_a, counts_b = fresh_counts(), fresh_counts()
        a = PMU(PMUConfig(), counts_a)
        b = PMU(PMUConfig(), counts_b)
        fired = []
        a.program(0, [Signal.TOT_INS])
        a.start(0)
        a.set_overflow(0, 100, fired.append)
        counts_a[Signal.TOT_INS] += 70         # 30 below the trigger
        snap = a.export_counter(0)
        b.import_counter(0, snap)
        b.start(0)
        counts_b[Signal.TOT_INS] += 29         # 1 below: no interrupt yet
        assert b.check_overflow(pc=0, cycle=0) == 0
        counts_b[Signal.TOT_INS] += 1          # crosses exactly at 100
        assert b.check_overflow(pc=0, cycle=0) == 1
        assert len(fired) == 1

    def test_import_into_running_counter_rejected(self):
        counts = fresh_counts()
        a = PMU(PMUConfig(), counts)
        a.program(0, [Signal.TOT_INS])
        snap = a.export_counter(0)
        b = PMU(PMUConfig(), fresh_counts())
        b.program(0, [Signal.TOT_CYC])
        b.start(0)
        with pytest.raises(Exception):
            b.import_counter(0, snap)


class TestSMPScheduling:
    def test_forced_migration_exact_counts(self):
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m, quantum_cycles=500)
        t = os_.spawn(fma_worker(400))
        m.cpus[0].pmu.program(0, [Signal.FP_FMA])
        os_.bind_counter(t, 0)
        os_.counter_start(t, 0)
        cpu = 0
        while t.state.value == "ready":
            os_.run_slice(t, cpu=cpu)
            cpu = 1 - cpu          # bounce between CPUs every slice
        assert t.migrations > 0
        assert os_.counter_stop(t, 0) == 400
        # conservation across both PMUs
        assert sum(c.counts[Signal.FP_FMA] for c in m.cpus) == 400

    def test_stop_while_descheduled_on_remote_home(self):
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m, quantum_cycles=800)
        t = os_.spawn(fma_worker(2000))
        m.cpus[0].pmu.program(0, [Signal.FP_FMA])
        os_.bind_counter(t, 0)
        os_.counter_start(t, 0)
        os_.run_slice(t, cpu=1)      # counter migrates home to CPU 1
        assert t.counter_home[0] == 1
        mid = os_.counter_stop(t, 0)  # read routes to the remote home
        assert 0 < mid < 2000
        assert mid == m.cpus[1].counts[Signal.FP_FMA]

    def test_affinity_keeps_threads_on_their_cpu(self):
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m, quantum_cycles=600)
        threads = [os_.spawn(fma_worker(3000, f"w{i}")) for i in range(2)]
        stats = os_.run()
        assert all(t.finished for t in threads)
        # one thread per CPU: after the first dispatch nobody migrates
        assert stats.migrations == 0
        assert stats.cpu_slices[0] > 0 and stats.cpu_slices[1] > 0
        assert {t.last_cpu for t in threads} == {0, 1}

    def test_migration_rather_than_idle(self):
        """3 threads on 2 CPUs: the odd thread migrates to fill gaps."""
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m, quantum_cycles=600)
        threads = [os_.spawn(fma_worker(2500, f"w{i}")) for i in range(3)]
        stats = os_.run()
        assert all(t.finished for t in threads)
        assert stats.migrations > 0
        assert stats.makespan_cycles == max(stats.cpu_busy_cycles)
        assert sum(t.user_cycles for t in threads) == sum(
            c.counts[Signal.TOT_CYC] for c in m.cpus
        )

    def test_overflow_survives_migration(self):
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m, quantum_cycles=300)
        t = os_.spawn(fma_worker(1000))
        m.cpus[0].pmu.program(0, [Signal.FP_FMA])
        os_.bind_counter(t, 0)
        os_.counter_start(t, 0)
        fired = []
        m.cpus[0].pmu.set_overflow(0, 300, fired.append)
        cpu = 0
        while not t.finished:
            os_.run_slice(t, cpu=cpu)
            cpu = 1 - cpu
        assert os_.counter_stop(t, 0) == 1000
        # 1000 FMAs / threshold 300 = 3 interrupts, wherever they fired
        assert len(fired) == 3

    def test_bad_cpu_arguments_rejected(self):
        m = Machine(MachineConfig(ncpus=2))
        os_ = OS(m)
        t = os_.spawn(fma_worker(10))
        with pytest.raises(OSError_):
            os_.bind_counter(t, 0, cpu=2)
        with pytest.raises(OSError_):
            os_.run_slice(t, cpu=5)


class TestEventSetCPUBinding:
    def test_bind_cpu_counts_only_that_cpu(self):
        from repro.core.library import Papi
        from repro.platforms import create

        sub = create("simPOWER", ncpus=2)
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS")
        es.bind_cpu(1)
        assert es.cpu == 1
        es.start()
        # drive work onto CPU 1 only via pinned slices
        t = sub.os.spawn(fma_worker(500))
        while not t.finished:
            sub.os.run_slice(t, cpu=1)
        on_cpu1 = es.read()[0]
        assert on_cpu1 == 2 * 500        # FMA = 2 FP ops, all on CPU 1
        es.stop()

    def test_bind_cpu_validation(self):
        from repro.core.errors import InvalidArgumentError, IsRunningError
        from repro.core.library import Papi
        from repro.platforms import create

        sub = create("simT3E", ncpus=2)
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_CYC")
        with pytest.raises(InvalidArgumentError):
            es.bind_cpu(2)
        es.start()
        with pytest.raises(IsRunningError):
            es.bind_cpu(1)
        es.stop()

    def test_attached_counts_follow_migrating_thread(self):
        from repro.core.library import Papi
        from repro.platforms import create

        sub = create("simPOWER", ncpus=2)
        papi = Papi(sub)
        t = sub.os.spawn(fma_worker(800))
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS")
        es.attach(t)
        es.start()
        cpu = 0
        while not t.finished:
            sub.os.run_slice(t, max_cycles=500, cpu=cpu)
            cpu = 1 - cpu
        values = es.stop()
        assert values[0] == 2 * 800      # FMA = 2 FP ops, placement-blind
        assert t.migrations > 0

    @pytest.mark.parametrize("ncpus", [1, 2, 4])
    def test_attached_reset_zeroes_the_home_counter(self, ncpus):
        """reset() zeroes an attached counter on the PMU the scheduler
        last homed it to.  At 4 CPUs the first seven slices re-home it;
        zeroing the bound CPU's register instead read 16,839 after the
        reset and 24,007 at stop."""
        from repro.core.library import Papi
        from repro.platforms import create
        from repro.workloads import decoy_spin, dot

        sub = create("simT3E", ncpus=ncpus)
        papi = Papi(sub)
        worker = sub.os.spawn(dot(3000).program, name="work")
        sub.os.spawn(decoy_spin(60000).program, name="decoy")
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        es.attach(worker)
        es.start()
        sub.os.run(max_slices=7)
        assert (sub.os.stats.counter_migrations > 0) == (ncpus == 4)
        es.reset()
        assert es.read() == [0]
        sub.os.run()
        assert es.stop() == [7_168]
