"""Unit tests: counting domains (PAPI_set_domain)."""

import pytest

from repro.core import constants as C
from repro.core.errors import (
    InvalidArgumentError,
    IsRunningError,
    SubstrateFeatureError,
)
from repro.core.library import Papi
from repro.core.lowlevel import LowLevelAPI
from repro.workloads import dot


def run_with_domain(substrate, domain, interface_work=20_000):
    papi = Papi(substrate)
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC", "PAPI_TOT_INS")
    es.set_domain(domain)
    wl = dot(500, use_fma=substrate.HAS_FMA)
    substrate.machine.load(wl.program)
    es.start()
    substrate.machine.run(max_instructions=2000)
    substrate.machine.charge(interface_work)  # kernel/interface activity
    substrate.machine.run_to_completion()
    return dict(zip(es.event_names, es.stop()))


class TestDomains:
    def test_default_is_user(self, simpower):
        papi = Papi(simpower)
        es = papi.create_eventset()
        assert es.get_domain() == C.PAPI_DOM_USER

    def test_user_domain_excludes_interface_work(self, simpower):
        values = run_with_domain(simpower, C.PAPI_DOM_USER)
        assert values["PAPI_TOT_CYC"] == simpower.machine.user_cycles

    def test_all_domain_includes_interface_work(self, simpower):
        charged = 20_000
        values = run_with_domain(simpower, C.PAPI_DOM_ALL,
                                 interface_work=charged)
        user_values = run_with_domain(type(simpower)(), C.PAPI_DOM_USER,
                                      interface_work=charged)
        delta = values["PAPI_TOT_CYC"] - user_values["PAPI_TOT_CYC"]
        # the ALL-domain counter saw the charged cycles plus the counter
        # interface's own start/read costs while running
        assert delta >= charged
        # instruction counts are unaffected by the domain
        assert values["PAPI_TOT_INS"] == user_values["PAPI_TOT_INS"]

    def test_all_domain_sees_own_interface_cost(self, simx86):
        """With DOM_ALL, each read's syscall cost shows up in TOT_CYC --
        measurement perturbing the measurement, made visible."""
        papi = Papi(simx86)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_CYC")
        es.set_domain(C.PAPI_DOM_ALL)
        wl = dot(4000, use_fma=False)
        simx86.machine.load(wl.program)
        es.start()
        reads = []
        while not simx86.machine.cpu.halted:
            simx86.machine.run(max_instructions=2000)
            reads.append(es.read()[0])
        es.stop()
        # each successive read includes the previous reads' costs
        deltas = [b - a for a, b in zip(reads, reads[1:])]
        assert all(d > 0 for d in deltas)
        assert reads[-1] > simx86.machine.user_cycles

    def test_invalid_domain_rejected(self, simpower):
        papi = Papi(simpower)
        es = papi.create_eventset()
        with pytest.raises(InvalidArgumentError):
            es.set_domain(0x1234)
        with pytest.raises(InvalidArgumentError):
            es.set_domain(C.PAPI_DOM_KERNEL)  # kernel-only unsupported

    def test_domain_change_while_running_rejected(self, simpower):
        papi = Papi(simpower)
        es = papi.create_eventset()
        es.add_named("PAPI_TOT_INS")
        wl = dot(100, use_fma=True)
        simpower.machine.load(wl.program)
        es.start()
        with pytest.raises(IsRunningError):
            es.set_domain(C.PAPI_DOM_ALL)
        es.stop()

    def test_sampling_platform_user_only(self, simalpha):
        papi = Papi(simalpha)
        es = papi.create_eventset()
        with pytest.raises(SubstrateFeatureError):
            es.set_domain(C.PAPI_DOM_ALL)
        es.set_domain(C.PAPI_DOM_USER)  # the default is always fine

    def test_multiplex_excludes_dom_all(self, simx86):
        papi = Papi(simx86)
        es = papi.create_eventset()
        es.set_multiplex()
        with pytest.raises(InvalidArgumentError):
            es.set_domain(C.PAPI_DOM_ALL)

    def test_dom_all_excludes_multiplex(self, simx86):
        """The same rule in the other order.  Accepted, the set would
        report DOM_ALL and count TOT_CYC over dot(2000) as 100,427, the
        user-only count (a direct DOM_ALL set counts 103,227)."""
        papi = Papi(simx86)
        es = papi.create_eventset()
        es.set_domain(C.PAPI_DOM_ALL)
        with pytest.raises(InvalidArgumentError):
            es.set_multiplex()
        assert not es.multiplexed
        es.add_named("PAPI_TOT_CYC")
        simx86.machine.load(dot(2000).program)
        es.start()
        simx86.machine.run_to_completion()
        assert es.stop() == [103_227]

    def test_lowlevel_facade(self, simpower):
        api = LowLevelAPI(simpower)
        api.library_init()
        es = api.create_eventset()
        api.set_domain(es, C.PAPI_DOM_ALL)
        assert api.get_domain(es) == C.PAPI_DOM_ALL
