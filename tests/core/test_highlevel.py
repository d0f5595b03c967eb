"""Unit tests: the high-level interface and rate calls."""

import pytest

from repro.core.errors import IsRunningError, NotRunningError
from repro.core.highlevel import HighLevel
from repro.core.library import Papi
from repro.workloads import dot, mixed_precision_sum


@pytest.fixture
def hl_power(simpower):
    return simpower, HighLevel(Papi(simpower))


def load(substrate, wl):
    substrate.machine.load(wl.program)
    return wl


class TestStartStopRead:
    def test_basic_counting(self, hl_power):
        sub, hl = hl_power
        wl = load(sub, dot(500, use_fma=True))
        hl.start_counters(["PAPI_FP_OPS", "PAPI_TOT_INS"])
        sub.machine.run_to_completion()
        values = hl.stop_counters()
        assert values[0] == wl.expect.flops

    def test_read_resets(self, hl_power):
        """PAPI_read_counters resets -- the documented C semantics."""
        sub, hl = hl_power
        load(sub, dot(2000, use_fma=True))
        hl.start_counters(["PAPI_TOT_INS"])
        sub.machine.run(max_instructions=1000)
        first = hl.read_counters()
        second = hl.read_counters()
        assert first[0] >= 1000
        assert second[0] < 100
        hl.stop_counters()

    def test_accum_counters(self, hl_power):
        sub, hl = hl_power
        load(sub, dot(2000, use_fma=True))
        hl.start_counters(["PAPI_TOT_INS"])
        acc = [0]
        sub.machine.run(max_instructions=500)
        acc = hl.accum_counters(acc)
        sub.machine.run(max_instructions=500)
        acc = hl.accum_counters(acc)
        assert acc[0] >= 1000
        hl.stop_counters()

    def test_double_start_rejected(self, hl_power):
        sub, hl = hl_power
        load(sub, dot(100, use_fma=True))
        hl.start_counters(["PAPI_TOT_INS"])
        with pytest.raises(IsRunningError):
            hl.start_counters(["PAPI_TOT_CYC"])
        hl.stop_counters()

    def test_read_without_start_rejected(self, hl_power):
        _, hl = hl_power
        with pytest.raises(NotRunningError):
            hl.read_counters()
        with pytest.raises(NotRunningError):
            hl.stop_counters()

    def test_codes_and_names_mixed(self, hl_power):
        sub, hl = hl_power
        load(sub, dot(100, use_fma=True))
        code = hl.papi.event_name_to_code("PAPI_TOT_CYC")
        hl.start_counters([code, "PAPI_TOT_INS"])
        sub.machine.run_to_completion()
        values = hl.stop_counters()
        assert len(values) == 2

    def test_failed_start_cleans_up(self, hl_power):
        _, hl = hl_power
        with pytest.raises(Exception):
            hl.start_counters(["PAPI_NOT_A_THING"])
        assert hl._es is None

    def test_num_counters(self, hl_power):
        sub, hl = hl_power
        assert hl.num_counters() == sub.n_counters


class TestFlopsCall:
    def test_flops_two_call_protocol(self, hl_power):
        sub, hl = hl_power
        n = 1000
        wl = load(sub, dot(n, use_fma=True))
        first = hl.flops()
        assert first.count == 0 and first.real_time == 0.0
        sub.machine.run_to_completion()
        report = hl.flops()
        assert report.count == wl.expect.flops
        assert report.real_time > 0
        assert report.rate > 0
        assert report.mrate == pytest.approx(report.rate / 1e6)
        hl.stop_rates()

    def test_flops_uses_normalized_mapping(self, hl_power):
        """The high level normalizes; flips reports raw instructions.

        On simPOWER the convert-heavy kernel makes FP_INS read 2n (the
        POWER3 discrepancy) while flops() reports the corrected n.
        """
        sub, hl = hl_power
        n = 400
        load(sub, mixed_precision_sum(n))
        hl.flops()
        sub.machine.run_to_completion()
        flops_report = hl.flops()
        hl.stop_rates()
        assert flops_report.count == n

    def test_flips_reports_raw_instructions(self, hl_power):
        sub, hl = hl_power
        n = 400
        load(sub, mixed_precision_sum(n))
        hl.flips()
        sub.machine.run_to_completion()
        flips_report = hl.flips()
        hl.stop_rates()
        assert flips_report.count == 2 * n  # converts included: raw

    def test_ipc_call(self, hl_power):
        sub, hl = hl_power
        load(sub, dot(500, use_fma=True))
        hl.ipc()
        sub.machine.run_to_completion()
        report = hl.ipc()
        hl.stop_rates()
        from repro.hw.events import Signal

        assert report.count == sub.machine.counts[Signal.TOT_INS]

    def test_stop_rates_idempotent(self, hl_power):
        _, hl = hl_power
        hl.stop_rates()
        hl.stop_rates()

    def test_rates_work_on_sampling_platform(self, simalpha):
        hl = HighLevel(Papi(simalpha))
        wl = dot(4000, use_fma=False)
        simalpha.machine.load(wl.program)
        hl.flops()
        simalpha.machine.run_to_completion()
        report = hl.flops()
        hl.stop_rates()
        # sampled estimate: right order of magnitude
        assert report.count == pytest.approx(wl.expect.flops, rel=0.5)
