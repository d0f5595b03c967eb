"""Unit tests: software multiplexing (partitioning, rotation, estimation)."""

import pytest

from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.core.multiplex import partition_natives
from repro.platforms import create
from repro.workloads import decoy_spin, dot, phased


def mpx_eventset(papi, names):
    es = papi.create_eventset()
    es.set_multiplex()
    es.add_named(*names)
    return es


class TestPartition:
    def test_fits_in_one_subset_when_possible(self, simpower):
        natives = {
            n: simpower.query_native(n)
            for n in ("PM_CYC", "PM_INST_CMPL", "PM_LD_CMPL")
        }
        subsets = partition_natives(simpower, natives)
        assert len(subsets) == 1

    def test_splits_when_overcommitted(self, simx86):
        names = ("CPU_CLK_UNHALTED", "INST_RETIRED", "FLOPS", "DCU_LINES_IN")
        natives = {n: simx86.query_native(n) for n in names}
        subsets = partition_natives(simx86, natives)
        assert len(subsets) >= 2
        placed = {n for s in subsets for n in s}
        assert placed == set(names)

    def test_group_platform_partitions_by_group(self, simpower):
        # memory events and branch events live in different groups
        names = ("PM_LD_MISS_L1", "PM_BR_MPRED")
        natives = {n: simpower.query_native(n) for n in names}
        subsets = partition_natives(simpower, natives)
        assert len(subsets) == 2


class TestMultiplexedCounting:
    def test_rotation_happens(self, simx86):
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 2000
        es = mpx_eventset(
            papi, ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS",
                   "PAPI_L1_DCM"]
        )
        wl = phased([("fp", 3000), ("mem", 3000)], repeats=2, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        assert es._mpx is not None
        simx86.machine.run_to_completion()
        rotations = es._mpx.rotations
        values = es.stop()
        assert rotations > 4
        assert all(v > 0 for v in values[:3])

    def test_estimates_close_on_long_uniform_run(self, simx86):
        """On a long homogeneous run, multiplexed estimates converge."""
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 1500
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS"])
        n = 12000
        wl = dot(n, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        simx86.machine.run_to_completion()
        values = dict(zip(es.event_names, es.stop()))
        assert values["PAPI_FP_OPS"] == pytest.approx(2 * n, rel=0.10)

    def test_single_subset_multiplex_is_exact(self, simpower):
        """If everything fits one subset, multiplexing changes nothing."""
        papi = Papi(simpower)
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS"])
        n = 1000
        wl = dot(n, use_fma=True)
        simpower.machine.load(wl.program)
        es.start()
        simpower.machine.run_to_completion()
        values = dict(zip(es.event_names, es.stop()))
        assert values["PAPI_FP_OPS"] == 2 * n

    def test_short_phased_run_is_inaccurate(self, simx86):
        """The paper's warning (Section 2): short runs mis-extrapolate
        phases.  fp happens only in the first phase; a multiplexed
        FP_OPS estimate over one phase rotation is badly wrong."""
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 12000
        es = mpx_eventset(
            papi,
            ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_L1_DCM"],
        )
        wl = phased([("fp", 1000), ("mem", 4000)], repeats=1, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        simx86.machine.run_to_completion()
        values = dict(zip(es.event_names, es.stop()))
        err = abs(values["PAPI_FP_OPS"] - 2 * 1000) / (2 * 1000)
        assert err > 0.20, f"expected large short-run error, got {err:.1%}"

    def test_read_mid_run(self, simx86):
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 1000
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS",
                                 "PAPI_L1_DCM"])
        wl = dot(8000, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        simx86.machine.run(max_instructions=20000)
        mid = es.read()
        simx86.machine.run_to_completion()
        final = es.stop()
        assert 0 < mid[0] < final[0]

    def test_reset_mid_run(self, simx86):
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 1000
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS",
                                 "PAPI_L1_DCM"])
        wl = dot(8000, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        simx86.machine.run(max_instructions=20000)
        es.reset()
        post = es.read()
        assert post[0] < 5000  # only counts since reset
        es.stop()

    def test_multiplex_pays_interface_overhead(self, simx86):
        """Every rotation goes through real program/start/stop calls."""
        papi = Papi(simx86)
        papi.mpx_quantum_cycles = 1000
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS",
                                 "PAPI_L1_DCM"])
        wl = dot(6000, use_fma=False)
        simx86.machine.load(wl.program)
        before = simx86.machine.system_cycles
        es.start()
        simx86.machine.run_to_completion()
        es.stop()
        overhead = simx86.machine.system_cycles - before
        # at least one syscall-priced operation per rotation
        assert overhead > es._mpx.rotations if es._mpx else True
        assert overhead > 10000

    def test_timer_busy_rejected(self, simx86, fma_loop_program):
        papi = Papi(simx86)
        es = mpx_eventset(papi, ["PAPI_TOT_INS", "PAPI_FP_OPS",
                                 "PAPI_L1_DCM"])
        simx86.machine.load(fma_loop_program)
        simx86.machine.pmu.set_cycle_timer(1000, lambda c: None)
        from repro.core.errors import SubstrateFeatureError
        with pytest.raises(SubstrateFeatureError):
            es.start()


class TestAttachedSets:
    """The rotation runs on the CPU's cycle clock, not the thread's, so an
    attached set cannot be multiplexed.  Accepted, the set counted the
    whole CPU: 384,012 instructions of worker and decoy, against the
    worker's own 24,007."""

    @pytest.mark.parametrize("attach_first", [True, False])
    def test_attach_and_multiplex_refused_in_either_order(self, attach_first):
        sub = create("simT3E")
        papi = Papi(sub)
        worker = sub.os.spawn(dot(3000).program, name="work")
        sub.os.spawn(decoy_spin(60000).program, name="decoy")
        es = papi.create_eventset()
        if attach_first:
            es.attach(worker)
            with pytest.raises(InvalidArgumentError):
                es.set_multiplex()
            assert not es.multiplexed
        else:
            es.set_multiplex()
            with pytest.raises(InvalidArgumentError):
                es.attach(worker)
            assert es.attached is None
        es.add_named("PAPI_TOT_INS")
        es.start()  # papi-lint: disable=PL102 -- multiplexed on purpose
        sub.os.run()
        assert es.stop() == [24_007 if attach_first else 384_012]
