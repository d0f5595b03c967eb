"""The self-healing runtime: loss recovery, degradation, emergency stop.

These tests drive the recovery ladder deterministically by stealing
counters by hand (raw PMU clobber + a hold in the injector's theft
table) instead of waiting for a seeded draw, so each rung is exercised
in isolation:

retry -> re-acquire/resume -> software overflow emulation ->
multiplex degradation (opt-in) -> crash-consistent emergency stop.
"""

import pytest

from repro.core.constants import PAPI_DOM_ALL, PAPI_DOM_USER, PAPI_MULTIPLEXING
from repro.core.errors import CountersLostError, SystemError_
from repro.core.library import Papi
from repro.faults import attach_from_spec
from repro.hw.events import Signal
from repro.platforms import create
from repro.workloads import dot


def steal(sub, injector, index, cpu=0, hold=10**6):
    """Another machine user takes *index*: clobber it and hold it."""
    pmu = sub.machine.cpus[cpu].pmu
    if pmu.running(index):
        pmu.stop(index)
    pmu.clear(index)
    injector._stolen[(cpu, index)] = hold


def setup(platform, symbols, n=6000):
    sub = create(platform)
    injector = attach_from_spec(sub, "0:none")
    papi = Papi(sub)
    es = papi.create_eventset()
    es.add_named(*symbols)
    sub.machine.load(dot(n, use_fma=sub.HAS_FMA).program)
    return sub, injector, papi, es


class TestLossRecovery:
    def test_mid_run_loss_reacquires_and_resumes(self):
        """Two events on four free counters: after a theft the set must
        re-allocate around the stolen register and keep counting, with
        totals salvaged at the last good observation."""
        sub, injector, papi, es = setup(
            "simT3E", ["PAPI_TOT_INS", "PAPI_FP_OPS"]
        )
        es.start()
        sub.machine.run(max_instructions=2000)
        first = es.read()
        assert first[0] > 0
        victim = es.assignment["INS_CNT"]
        steal(sub, injector, victim)
        sub.machine.run(max_instructions=2000)
        second = es.read()          # detects ECLOST, recovers in-line
        assert second == first      # salvaged at the last good read
        assert es.running
        assert victim not in es.assignment.values()
        assert len(es.health.lost_intervals) == 1
        interval = es.health.lost_intervals[0]
        assert interval.recovered
        assert interval.start_cycle < interval.end_cycle
        sub.machine.run(max_instructions=2000)
        third = es.read()           # counting genuinely resumed
        assert all(t > s for t, s in zip(third, second))
        sub.machine.run_to_completion()
        final = es.stop()
        assert all(f >= t for f, t in zip(final, third))
        assert not es.running

    def test_totals_stay_monotone_across_two_losses(self):
        sub, injector, papi, es = setup("simT3E", ["PAPI_TOT_INS"])
        es.start()
        reads = []
        for _ in range(2):
            sub.machine.run(max_instructions=1500)
            reads.append(es.read())
            steal(sub, injector, es.assignment["INS_CNT"])
            sub.machine.run(max_instructions=1500)
            reads.append(es.read())
        assert reads == sorted(reads)
        assert len(es.health.lost_intervals) == 2
        assert all(iv.recovered for iv in es.health.lost_intervals)

    def test_infeasible_reallocation_fails_crash_consistently(self):
        """Four natives, four counters, one stolen: re-allocation cannot
        fit and degradation is off, so ECLOST must surface -- with the
        EventSet left fully stopped, not half-dead."""
        sub, injector, papi, es = setup(
            "simT3E",
            ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_LD_INS"],
        )
        es.start()
        sub.machine.run(max_instructions=2000)
        es.read()
        steal(sub, injector, es.assignment["INS_CNT"])
        with pytest.raises(CountersLostError):
            es.read()
        assert not es.running
        assert papi._running_handle is None
        assert not es.health.lost_intervals[-1].recovered
        pmu = sub.machine.cpus[0].pmu
        assert all(not pmu.running(i) for i in range(sub.n_counters))

    @staticmethod
    def _degraded_run(domain):
        sub, injector, papi, es = setup(
            "simT3E",
            ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_LD_INS"],
            n=20000,
        )
        papi.degrade_to_multiplex = True
        es.set_domain(domain)
        es.start()
        sub.machine.run(max_instructions=2000)
        first = es.read()
        steal(sub, injector, es.assignment["INS_CNT"])
        sub.machine.run(max_instructions=2000)
        second = es.read()
        assert es.running
        assert es.multiplexed
        assert es.get_domain() == domain
        assert es.health.degraded_to_multiplex
        assert es.health.lost_intervals[-1].recovered
        assert all(s >= f for s, f in zip(second, first))
        sub.machine.run_to_completion()
        final = es.stop()
        assert all(f >= s for f, s in zip(final, second))
        return second, final

    def test_degrade_to_multiplex_finishes_the_run(self):
        """Same infeasible scenario with the opt-in enabled: the run
        continues time-sliced, in the set's own counting domain, and says
        so in the health record."""
        user_second, user_final = self._degraded_run(PAPI_DOM_USER)
        all_second, all_final = self._degraded_run(PAPI_DOM_ALL)
        # the rotations' interface cycles count in a DOM_ALL set's TOT_CYC
        # after the degradation too, so it grows faster than in the user
        # domain; the other events are the same in both domains
        assert all_final[0] - all_second[0] > user_final[0] - user_second[0]
        assert all_final[1:] == user_final[1:]

    def test_degradation_ends_with_its_run(self):
        """The multiplex fallback belongs to the degraded run, not to the
        set: once the thief lets go, the next start counts directly on
        the counters add_event allocated, and the options a multiplexed
        set refuses are open again."""
        sub, injector, papi, es = setup(
            "simT3E",
            ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_LD_INS"],
        )
        papi.degrade_to_multiplex = True
        allocated = es.assignment
        es.start()
        sub.machine.run(max_instructions=2000)
        es.read()
        steal(sub, injector, es.assignment["INS_CNT"])
        sub.machine.run(max_instructions=2000)
        es.read()
        assert es.multiplexed and es.health.degraded_to_multiplex
        sub.machine.run_to_completion()
        es.stop()
        injector._stolen.clear()                 # the thief lets go
        assert not es.multiplexed
        assert not es.state() & PAPI_MULTIPLEXING
        assert es.assignment == allocated

        sub.machine.load(sub.machine.program)
        ins0 = sub.machine.counts[Signal.TOT_INS]
        es.start()
        assert not es.multiplexed and es.assignment == allocated
        sub.machine.run_to_completion()
        # counted directly, so exact (a multiplexed estimate is not)
        assert es.stop()[1] == sub.machine.counts[Signal.TOT_INS] - ins0
        es.set_domain(PAPI_DOM_ALL)
        es.overflow(papi.event_name_to_code("PAPI_TOT_INS"), 1000,
                    lambda info: None)
        es.attach(sub.os.spawn(sub.machine.program))
        es.detach()


class TestSoftwareOverflowEmulation:
    def _overflow_counts(self, break_arm):
        sub = create("simIA64")
        papi = Papi(sub)
        sub.machine.load(dot(3000, use_fma=sub.HAS_FMA).program)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        infos = []
        es.overflow(
            papi.event_name_to_code("PAPI_TOT_INS"), 500, infos.append
        )
        if break_arm:
            def refuse(index, threshold, handler, cpu=0):
                raise SystemError_("overflow arming refused")
            sub.arm_overflow = refuse
        es.start()
        sub.machine.run_to_completion()
        total = es.stop()[0]
        return infos, total, es

    def test_arm_failure_degrades_to_timer_emulation(self):
        clean_infos, _total, _es = self._overflow_counts(break_arm=False)
        infos, total, es = self._overflow_counts(break_arm=True)
        assert es.health.overflow_emulated
        assert infos, "the emulator must still deliver overflows"
        # the poll notices every crossing up to timer granularity
        assert len(clean_infos) - 4 <= len(infos) <= len(clean_infos)
        assert [i.overflow_count for i in infos] == \
               list(range(1, len(infos) + 1))
        assert total // 500 >= len(infos)

    def test_emulated_attribution_is_coarse_but_honest(self):
        infos, _total, _es = self._overflow_counts(break_arm=True)
        assert all(i.address == i.true_address for i in infos)


class TestCrashConsistency:
    def test_failed_stop_reaches_emergency_teardown(self):
        sub, injector, papi, es = setup("simT3E", ["PAPI_TOT_INS"])
        es.start()
        sub.machine.run(max_instructions=2000)
        # make every substrate call fail from now on
        from repro.faults import FaultInjector, FaultPlan, FaultProfile

        sub.detach_faults()
        sub.attach_faults(FaultInjector(FaultPlan(
            1, FaultProfile("always-esys", esys_rate=1.0)
        )))
        with pytest.raises(SystemError_):
            es.stop()
        assert not es.running
        assert papi._running_handle is None
        assert "stop failed" in es.health.lost_intervals[-1].reason
        pmu = sub.machine.cpus[0].pmu
        assert all(not pmu.running(i) for i in range(sub.n_counters))

    def test_shutdown_is_idempotent(self):
        sub = create("simT3E")
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        sub.machine.load(dot(500, use_fma=sub.HAS_FMA).program)
        es.start()
        papi.shutdown()
        assert not papi.initialized
        assert papi._running_handle is None
        assert not papi._eventsets
        assert not es.running
        papi.shutdown()               # second call: nothing left, no raise
        assert not papi.initialized

    def test_shutdown_survives_a_failing_stop(self):
        sub, injector, papi, es = setup("simT3E", ["PAPI_TOT_INS"])
        es.start()
        from repro.faults import FaultInjector, FaultPlan, FaultProfile

        sub.detach_faults()
        sub.attach_faults(FaultInjector(FaultPlan(
            1, FaultProfile("always-esys", esys_rate=1.0)
        )))
        papi.shutdown()               # falls back to the emergency path
        assert not papi.initialized
        assert not es.running
        pmu = sub.machine.cpus[0].pmu
        assert all(not pmu.running(i) for i in range(sub.n_counters))
        papi.shutdown()
