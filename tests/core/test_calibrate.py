"""Unit tests: the calibrate utility and sampling estimation helpers."""

import math

import pytest

from repro.core.calibrate import (
    SAMPLING_TOLERANCE,
    calibrate,
    calibrate_all,
    calibrate_convergence,
    within_sampling_tolerance,
)
from repro.core.sampling import (
    ConvergenceStudy,
    Estimate,
    estimate_count,
    relative_error,
)
from repro.platforms import create


class TestCalibrate:
    def test_exact_on_direct_platform(self, direct_platform):
        result = calibrate(direct_platform, "dot", n=800)
        assert result.measured_fp_ops == result.expected_flops
        assert result.fp_ops_error == 0.0
        assert result.cycles > 0 and result.real_usec > 0

    def test_all_kernels_on_t3e(self, simt3e):
        results = calibrate_all(simt3e, n=300)
        assert len(results) == 5
        for r in results:
            assert r.fp_ops_error == 0.0, f"{r.kernel} mismatch"

    def test_power_fp_ins_discrepancy_surfaced(self, simpower):
        """The mixsum kernel shows the convert discrepancy in FP_INS."""
        result = calibrate(simpower, "mixsum", n=300)
        assert result.measured_fp_ops == result.expected_flops
        assert result.measured_fp_ins == 2 * result.expected_fp_ins

    def test_sampling_platform_approximate(self, simalpha):
        result = calibrate(simalpha, "dot", n=20000, sampling_period=256)
        assert result.fp_ops_error < 0.20

    def test_unknown_kernel_rejected(self, simt3e):
        with pytest.raises(ValueError):
            calibrate(simt3e, "fibonacci")

    def test_convergence_study_on_sampling(self):
        sub = create("simALPHA")
        study = calibrate_convergence(sub, sizes=[500, 5000, 50000])
        assert len(study.points) == 3
        assert study.is_converging()
        assert study.final_error() < 0.15

    def test_convergence_trivial_on_direct(self, simt3e):
        study = calibrate_convergence(simt3e, sizes=[200, 2000])
        assert study.final_error() == 0.0


class TestSamplingHelpers:
    def test_estimate_count(self):
        from repro.hw.pmu import SampleRecord

        def s(is_fp):
            return SampleRecord(
                pc=0, opcode=0, cycle=0, is_load=False, is_store=False,
                is_fp=is_fp, is_branch=False, br_mispred=False,
                l1d_miss=False, l2_miss=False, tlb_miss=False, latency=1,
            )

        samples = [s(True)] * 30 + [s(False)] * 70
        est = estimate_count(samples, 100, lambda x: x.is_fp)
        assert est.value == 3000
        assert est.n_matches == 30
        assert 0 < est.relative_stderr < 1

    def test_estimate_zero_matches_infinite_error(self):
        est = Estimate(value=0, n_samples=10, n_matches=0, period=100)
        assert est.relative_stderr == math.inf

    def test_estimate_bad_period(self):
        with pytest.raises(ValueError):
            estimate_count([], 0, lambda s: True)

    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(5, 0) == math.inf

    def test_convergence_study_api(self):
        study = ConvergenceStudy("x")
        assert not study.is_converging()
        study.add(100, 10, estimate=50, expected=100)
        study.add(1000, 100, estimate=95, expected=100)
        assert study.errors() == [0.5, 0.05]
        assert study.is_converging()


class TestSamplingVerdict:
    def test_boundary_is_exact(self):
        # 48/240 and 0.20 are both the double nearest 1/5: the verdict
        # at the bound must not depend on that
        assert f"{SAMPLING_TOLERANCE:.0%}" == "20%"
        for actual in (192, 200, 240, 288):
            assert within_sampling_tolerance(actual, 240)
        for actual in (191, 289, 0):
            assert not within_sampling_tolerance(actual, 240)

    def test_zero_expected_passes_only_zero(self):
        assert within_sampling_tolerance(0, 0)
        assert not within_sampling_tolerance(1, 0)
        assert not within_sampling_tolerance(-1, 0)
