"""Determinism and per-kind behaviour of the fault-injection plane.

The central contract (ISSUE: "identical seed+plan => identical fault
schedule, counts and health record, with the block engine on and off")
is asserted directly on the injector's append-only event log; the
per-kind tests then pin down what each fault does to a run and what the
self-healing runtime turns it into.
"""

import pytest

from repro.core.errors import SystemError_
from repro.core.library import Papi
from repro.faults import FaultInjector, FaultPlan, FaultProfile, attach_from_spec
from repro.platforms import create
from repro.tools.papirun import papirun
from repro.workloads import dot


def run_one(spec, platform="simPOWER", n=500, engine="trace", **kw):
    """One papirun under *spec*; returns (result, injector-or-None)."""
    sub = create(platform, engine=engine)
    injector = attach_from_spec(sub, spec) if spec else None
    result = papirun(sub, dot(n, use_fma=sub.HAS_FMA), **kw)
    return result, injector


def fingerprint(result, injector):
    """Everything that must be identical between two equal-spec runs."""
    return (
        injector.schedule(),
        injector.summary(),
        result.values,
        result.health,
        result.real_usec,
        result.multiplexed,
    )


class TestDeterminism:
    @pytest.mark.parametrize("spec", ["3:chaos", "31:loss", "16:chaos"])
    def test_same_spec_same_schedule_counts_and_health(self, spec):
        a = fingerprint(*run_one(spec))
        b = fingerprint(*run_one(spec))
        assert a == b

    @pytest.mark.parametrize("spec", ["3:chaos", "31:loss"])
    def test_engine_on_off_identical(self, spec):
        on = fingerprint(*run_one(spec, engine="trace"))
        off = fingerprint(*run_one(spec, engine="off"))
        assert on == off

    def test_different_seeds_diverge(self):
        """The seed is load-bearing: nearby seeds give different schedules."""
        base = fingerprint(*run_one("1:chaos"))
        assert any(
            fingerprint(*run_one(f"{seed}:chaos")) != base
            for seed in range(2, 12)
        )

    def test_schedule_is_append_only_tuples(self):
        _result, injector = run_one("3:chaos")
        sched = injector.schedule()
        assert sched, "seed 3 chaos must inject something"
        assert all(isinstance(entry, tuple) and len(entry) == 5
                   for entry in sched)
        # op indices never decrease: the log records one pass over time
        indices = [entry[0] for entry in sched]
        assert indices == sorted(indices)


class TestCleanPath:
    def test_no_injector_leaves_substrate_clean(self):
        sub = create("simPOWER")
        assert sub.faults is None
        assert all(cpu.pmu.delivery_gate is None for cpu in sub.machine.cpus)
        assert all(cpu.pmu.timer_jitter is None for cpu in sub.machine.cpus)

    def test_none_profile_is_bit_exact_with_clean(self):
        clean, _ = run_one(None)
        inert, injector = run_one("0:none")
        assert injector.events == []
        assert inert.values == clean.values
        assert inert.real_usec == clean.real_usec
        assert inert.virt_usec == clean.virt_usec
        assert inert.health["retries"] == 0
        assert inert.health["lost_intervals"] == []

    def test_inert_profile_installs_no_pmu_hooks(self):
        sub = create("simPOWER", inject="0:none")
        assert sub.faults is not None
        assert all(cpu.pmu.delivery_gate is None for cpu in sub.machine.cpus)
        assert all(cpu.pmu.timer_jitter is None for cpu in sub.machine.cpus)


class TestTransientFaults:
    def test_retry_absorbs_esys_and_counts_stay_exact(self):
        """A transient-only schedule must not change any counter value:
        the retry ladder absorbs it completely, paying only time."""
        clean, _ = run_one(None)
        for seed in range(1, 60):
            result, injector = run_one(f"{seed}:transient")
            summary = injector.summary()
            if summary:
                assert set(summary) == {"esys"}
                assert result.values == clean.values
                assert result.health["retries"] == summary["esys"]
                assert result.health["backoff_cycles"] > 0
                assert result.health["lost_intervals"] == []
                # retries are billed in simulated time
                assert result.real_usec > clean.real_usec
                return
        pytest.fail("no transient fault in 60 seeds; rate is broken")

    def test_exhausted_retries_roll_back_start(self):
        """esys_rate=1.0 defeats every retry: start must fail crash-
        consistently, and the set must work again once faults detach."""
        sub = create("simT3E")
        sub.attach_faults(FaultInjector(FaultPlan(
            1, FaultProfile("always-esys", esys_rate=1.0)
        )))
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        sub.machine.load(dot(200, use_fma=sub.HAS_FMA).program)
        with pytest.raises(SystemError_):
            es.start()
        assert not es.running
        assert papi._running_handle is None
        assert es.health.retries == papi.retry_policy.max_retries
        assert es.health.backoff_cycles > 0
        pmu = sub.machine.cpus[0].pmu
        assert all(not pmu.running(i) for i in range(sub.n_counters))
        sub.detach_faults()
        es.start()
        sub.machine.run_to_completion()
        values = es.stop()
        assert values[0] > 0


class TestLossFaults:
    def test_loss_at_stop_salvages_and_records_interval(self):
        """Seed 31 steals a counter exactly at stop: the whole window
        since the last good observation is honestly reported lost."""
        result, injector = run_one("31:loss")
        assert injector.summary()["loss"] >= 1
        intervals = result.lost_intervals
        assert len(intervals) == 1
        assert intervals[0]["recovered"] is True
        assert intervals[0]["start_cycle"] < intervals[0]["end_cycle"]
        assert "PAPI_ECLOST" in intervals[0]["reason"]
        # nothing was observed after start: the salvage point is zero
        assert all(v == 0 for v in result.values.values())

    def test_stolen_counter_reported_unavailable(self):
        sub = create("simT3E")
        injector = attach_from_spec(sub, "0:none")
        injector._stolen[(0, 2)] = 1000
        assert sub.unavailable_counters(0) == frozenset({2})
        assert sub.unavailable_counters(1) == frozenset()


class TestCorruption:
    def test_wild_wraps_are_clamped_never_surfaced(self):
        """corrupt_rate=1.0 poisons every read; the plausibility check
        must clamp every one to the last-good value -- reads stay
        monotone and physically possible, and the ledger counts them."""
        sub = create("simT3E")
        sub.attach_faults(FaultInjector(FaultPlan(
            5, FaultProfile("corrupt-all", corrupt_rate=1.0)
        )))
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        sub.machine.load(dot(2000, use_fma=sub.HAS_FMA).program)
        es.start()
        previous = [0]
        for _ in range(5):
            sub.machine.run(max_instructions=400)
            values = es.read()
            assert values[0] >= previous[0]
            assert 0 <= values[0] <= 8 * sub.real_cyc() + 4096
            previous = values
        sub.machine.run_to_completion()
        final = es.stop()
        assert final[0] >= previous[0]
        assert es.health.corruptions >= 6  # five reads + the stop

    def test_corruption_does_not_touch_the_register(self):
        """The wrap models a mis-latched read: the hardware register is
        fine, so a clean read after detaching sees the true count."""
        sub = create("simT3E")
        sub.attach_faults(FaultInjector(FaultPlan(
            5, FaultProfile("corrupt-all", corrupt_rate=1.0)
        )))
        papi = Papi(sub)
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS")
        workload = dot(300, use_fma=sub.HAS_FMA)
        sub.machine.load(workload.program)
        es.start()
        sub.machine.run_to_completion()
        assert es.read() == [0]           # clamped to last-good
        sub.detach_faults()
        assert es.stop() == [workload.expect.flops]


class TestIrqFaults:
    def _overflow_run(self, spec, threshold=500):
        sub = create("simIA64")
        injector = attach_from_spec(sub, spec) if spec else None
        papi = Papi(sub)
        sub.machine.load(dot(3000, use_fma=sub.HAS_FMA).program)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        infos = []
        es.overflow(
            papi.event_name_to_code("PAPI_TOT_INS"), threshold, infos.append
        )
        es.start()
        sub.machine.run_to_completion()
        es.stop()
        return infos, injector

    def test_drops_and_delays_account_for_every_missing_delivery(self):
        clean_infos, _ = self._overflow_run(None)
        assert clean_infos
        for seed in range(1, 40):
            infos, injector = self._overflow_run(f"{seed}:irq")
            summary = injector.summary()
            if summary.get("irq_drop"):
                missing = len(clean_infos) - len(infos)
                assert missing > 0
                assert missing <= (
                    summary["irq_drop"] + summary.get("irq_delay", 0)
                )
                return
        pytest.fail("no dropped interrupt in 40 seeds; rate is broken")

    def test_delivery_faults_are_deterministic(self):
        a, inj_a = self._overflow_run("7:irq")
        b, inj_b = self._overflow_run("7:irq")
        assert inj_a.schedule() == inj_b.schedule()
        assert [(i.address, i.overflow_count) for i in a] == \
               [(i.address, i.overflow_count) for i in b]


class TestTimerJitter:
    def _mpx_run(self, spec):
        sub = create("simX86")
        injector = attach_from_spec(sub, spec) if spec else None
        papi = Papi(sub)
        es = papi.create_eventset()
        es.set_multiplex()
        es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS")
        sub.machine.load(dot(20000, use_fma=sub.HAS_FMA).program)
        es.start()
        sub.machine.run_to_completion()
        values = es.stop()
        return values, es, injector

    def test_jittered_rotation_still_estimates(self):
        values, es, _ = self._mpx_run("11:jitter")
        assert all(v >= 0 for v in values)
        assert values[1] > 0       # TOT_INS estimate survived the jitter
        assert es.health.mpx_rotation_faults == 0

    def test_jitter_is_deterministic(self):
        a, _, _ = self._mpx_run("11:jitter")
        b, _, _ = self._mpx_run("11:jitter")
        assert a == b
