"""Unit tests: PAPI_overflow dispatch and PAPI_profil histograms."""

import pytest

from repro.core import constants as C
from repro.core.errors import (
    InvalidArgumentError,
    NoSuchEventError,
    SubstrateFeatureError,
)
from repro.core.library import Papi
from repro.core.profile import (
    Profil,
    ProfileBuffer,
    profile_from_ears,
    profile_from_samples,
)
from repro.hw.isa import INS_BYTES
from repro.workloads import dot, matmul


class TestOverflow:
    def _setup(self, substrate, n=2000):
        papi = Papi(substrate)
        wl = dot(n, use_fma=substrate.HAS_FMA)
        substrate.machine.load(wl.program)
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS", "PAPI_TOT_INS")
        return papi, es, wl

    def test_overflow_fires_and_reports(self, simia64):
        papi, es, wl = self._setup(simia64)
        infos = []
        code = papi.event_name_to_code("PAPI_TOT_INS")
        es.overflow(code, 1000, infos.append)
        es.start()
        simia64.machine.run_to_completion()
        total = es.stop()[1]
        assert len(infos) == total // 1000
        assert all(i.symbol == "PAPI_TOT_INS" for i in infos)
        assert all(i.threshold == 1000 for i in infos)

    def test_overflow_address_is_bytes(self, simia64):
        papi, es, wl = self._setup(simia64)
        infos = []
        code = papi.event_name_to_code("PAPI_TOT_INS")
        es.overflow(code, 500, infos.append)
        es.start()
        simia64.machine.run_to_completion()
        es.stop()
        n_ins = len(wl.program)
        for i in infos:
            assert 0 <= i.address <= (n_ins + 1) * INS_BYTES

    def test_overflow_requires_member_event(self, simia64):
        papi, es, _ = self._setup(simia64)
        code = papi.event_name_to_code("PAPI_L1_DCM")
        with pytest.raises(NoSuchEventError):
            es.overflow(code, 100, lambda i: None)

    def test_overflow_rejects_derived_event(self, simia64):
        papi = Papi(simia64)
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS")  # derived on simIA64 (2 natives)
        code = papi.event_name_to_code("PAPI_FP_OPS")
        with pytest.raises(InvalidArgumentError):
            es.overflow(code, 100, lambda i: None)

    def test_overflow_threshold_minimum(self, simia64):
        papi, es, _ = self._setup(simia64)
        code = papi.event_name_to_code("PAPI_TOT_INS")
        with pytest.raises(InvalidArgumentError):
            es.overflow(code, C.PAPI_MIN_OVERFLOW - 1, lambda i: None)

    def test_overflow_unavailable_on_sampling_substrate(self, simalpha):
        papi = Papi(simalpha)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        code = papi.event_name_to_code("PAPI_TOT_INS")
        with pytest.raises(SubstrateFeatureError):
            es.overflow(code, 1000, lambda i: None)

    def test_overflow_incompatible_with_multiplex(self, simia64):
        papi = Papi(simia64)
        es = papi.create_eventset()
        es.set_multiplex()
        es.add_named("PAPI_TOT_INS")
        code = papi.event_name_to_code("PAPI_TOT_INS")
        with pytest.raises(InvalidArgumentError):
            es.overflow(code, 1000, lambda i: None)

    def test_clear_overflow_stops_callbacks(self, simia64):
        papi, es, _ = self._setup(simia64, n=4000)
        infos = []
        code = papi.event_name_to_code("PAPI_TOT_INS")
        es.overflow(code, 500, infos.append)
        es.start()
        simia64.machine.run(max_instructions=5000)
        n = len(infos)
        assert n > 0
        es.clear_overflow(code)
        simia64.machine.run_to_completion()
        es.stop()
        assert len(infos) == n

    def _overflow_removed(self, substrate):
        papi = Papi(substrate)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_CYC")
        code = papi.event_name_to_code("PAPI_TOT_CYC")
        es.overflow(code, 1000, lambda i: None)
        es.remove_event(code)
        return es

    def test_remove_event_drops_its_overflow(self, simx86):
        """C PAPI_remove_event turns the event's overflow off first, so
        the next start() arms no overflow on a counter it no longer has."""
        es = self._overflow_removed(simx86)
        assert not es.state() & C.PAPI_OVERFLOWING
        es.add_named("PAPI_TOT_INS")
        es.start()
        es.stop()

    def test_multiplex_allowed_once_the_overflow_event_is_removed(
        self, simx86
    ):
        es = self._overflow_removed(simx86)
        es.set_multiplex()
        assert es.multiplexed

    def test_state_reports_overflowing(self, simia64):
        papi, es, _ = self._setup(simia64)
        code = papi.event_name_to_code("PAPI_TOT_INS")
        es.overflow(code, 1000, lambda i: None)
        assert es.state() & C.PAPI_OVERFLOWING

    def test_skid_makes_reported_differ_from_true(self, simx86):
        """simX86 is deeply out of order: reported != true addresses."""
        papi = Papi(simx86)
        wl = dot(3000, use_fma=False)
        simx86.machine.load(wl.program)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        infos = []
        es.overflow(papi.event_name_to_code("PAPI_TOT_INS"), 200,
                    infos.append)
        es.start()
        simx86.machine.run_to_completion()
        es.stop()
        assert any(i.address != i.true_address for i in infos)


class TestProfileBuffer:
    def test_scale_one_maps_two_bytes_per_bucket(self):
        buf = ProfileBuffer(16, offset=0, scale=C.PAPI_PROFIL_SCALE_ONE)
        buf.hit(0)
        buf.hit(2)
        buf.hit(3)
        assert buf.buckets[0] == 1
        assert buf.buckets[1] == 2

    def test_scale_for_roundtrip(self):
        scale = ProfileBuffer.scale_for(INS_BYTES)
        buf = ProfileBuffer(8, offset=0, scale=scale)
        for pc in range(8):
            buf.hit(pc * INS_BYTES)
        assert buf.buckets == [1] * 8

    def test_offset_applied(self):
        buf = ProfileBuffer.covering(offset=100, length_bytes=40)
        buf.hit(100)
        buf.hit(96)     # below range
        buf.hit(148)    # beyond range
        assert buf.hits == 1
        assert buf.out_of_range == 2

    def test_hottest_and_concentration(self):
        buf = ProfileBuffer.covering(offset=0, length_bytes=40)
        for _ in range(9):
            buf.hit(8)
        buf.hit(0)
        assert buf.hottest() == buf.bucket_index(8)
        assert buf.concentration(buf.hottest()) == pytest.approx(0.9)

    def test_bucket_address_inverse(self):
        buf = ProfileBuffer.covering(offset=64, length_bytes=64)
        for addr in range(64, 128, INS_BYTES):
            idx = buf.bucket_index(addr)
            assert buf.bucket_address(idx) <= addr

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ProfileBuffer(0, 0, 65536)
        with pytest.raises(InvalidArgumentError):
            ProfileBuffer(4, 0, 0)
        with pytest.raises(InvalidArgumentError):
            ProfileBuffer.scale_for(1)


class TestProfil:
    def test_overflow_profil_finds_hot_loop(self, simia64):
        """PAPI_profil on a dot kernel: hits concentrate in the loop."""
        papi = Papi(simia64)
        n = 4000
        wl = dot(n, use_fma=True)
        simia64.machine.load(wl.program)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        buf = ProfileBuffer.covering(
            offset=0, length_bytes=len(wl.program) * INS_BYTES
        )
        prof = Profil(es, buf, papi.event_name_to_code("PAPI_TOT_INS"), 200)
        prof.install()
        es.start()
        simia64.machine.run_to_completion()
        es.stop()
        prof.collect()
        assert buf.hits > 10
        # the loop body spans instructions ~5..12 of the program; with
        # simIA64's tiny skid, >=90% of hits land inside the function
        loop_buckets = set(
            buf.bucket_index(pc * INS_BYTES) for pc in range(len(wl.program))
        )
        assert sum(buf.buckets[b] for b in loop_buckets if b is not None) \
            >= 0.9 * buf.hits

    def test_sampling_profil_precise(self, simalpha):
        """On simALPHA, profil post-processes ProfileMe samples."""
        papi = Papi(simalpha)
        papi.sampling_period = 64
        n = 3000
        wl = dot(n, use_fma=False)
        simalpha.machine.load(wl.program)
        es = papi.create_eventset()
        es.add_named("PAPI_FP_OPS")
        es.start()
        buf = ProfileBuffer.covering(
            offset=0, length_bytes=len(wl.program) * INS_BYTES
        )
        prof = Profil(es, buf, papi.event_name_to_code("PAPI_FP_OPS"), 64)
        prof.install()
        simalpha.machine.run_to_completion()
        prof.collect()
        es.stop()
        assert buf.hits > 5
        # every fp hit must be at one of the two fp instructions
        fp_pcs = [
            pc for pc, ins in enumerate(wl.program.instructions)
            if ins.mnemonic() in ("FMUL", "FADD")
        ]
        allowed = {buf.bucket_index(pc * INS_BYTES) for pc in fp_pcs}
        assert set(buf.nonzero()) <= allowed

    def test_sampling_profil_requires_running(self, simalpha):
        papi = Papi(simalpha)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        buf = ProfileBuffer.covering(0, 64)
        prof = Profil(es, buf, papi.event_name_to_code("PAPI_TOT_INS"), 64)
        from repro.core.errors import NotRunningError
        with pytest.raises(NotRunningError):
            prof.install()

    def test_uninstall_is_idempotent(self, simia64):
        papi = Papi(simia64)
        wl = dot(100, use_fma=True)
        simia64.machine.load(wl.program)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        buf = ProfileBuffer.covering(0, 1024)
        prof = Profil(es, buf, papi.event_name_to_code("PAPI_TOT_INS"), 100)
        prof.install()
        prof.uninstall()
        prof.uninstall()


class TestHelperProfiles:
    def test_profile_from_samples(self, simalpha):
        wl = matmul(10, use_fma=False)
        session = simalpha.sampling_session(
            [simalpha.query_native("RET_INS")], period=64
        )
        simalpha.machine.load(wl.program)
        session.start()
        simalpha.machine.run_to_completion()
        session.stop()
        buf = ProfileBuffer.covering(0, len(wl.program) * INS_BYTES)
        profile_from_samples(buf, session.samples())
        assert buf.hits == session.n_samples

    def test_profile_from_samples_weighted(self, simalpha):
        wl = matmul(8, use_fma=False)
        session = simalpha.sampling_session(
            [simalpha.query_native("RET_INS")], period=64
        )
        simalpha.machine.load(wl.program)
        session.start()
        simalpha.machine.run_to_completion()
        session.stop()
        buf = ProfileBuffer.covering(0, len(wl.program) * INS_BYTES)
        profile_from_samples(buf, session.samples(), weighted=True)
        assert buf.hits >= session.n_samples  # latencies weigh >= 1

    def test_profile_from_ears(self, simia64):
        from repro.workloads import strided_scan

        line_words = simia64.machine.hierarchy.config.l1d.line_bytes // 8
        wl = strided_scan(4096, line_words)
        ear = simia64.add_ear(2, "l1d_miss")
        simia64.machine.load(wl.program)
        simia64.machine.run_to_completion()
        buf = ProfileBuffer.covering(0, len(wl.program) * INS_BYTES)
        profile_from_ears(buf, ear.records)
        assert buf.hits == ear.n_records > 0
        # all records come from the single load instruction
        assert len(buf.nonzero()) == 1
