"""Interprocedural summaries: lifecycle effects across helper calls."""

from repro.lint import lint_source


def flow_codes(src):
    diags = lint_source(src, "t.py", flow=True)
    return [(d.code, d.line) for d in diags]


def just_codes(src):
    return [c for c, _line in flow_codes(src)]


class TestSummaryEffects:
    def test_helper_start_propagates_to_caller(self):
        # arm() leaves the set running, so the read is legal: the
        # summary carries the running state into the caller, and
        # neither PL301 nor its every-path twin PL001 is reported.
        src = """\
def arm(es):
    es.start()

def main(papi):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    arm(es)
    counts = es.read()
    es.stop()
"""
        codes = just_codes(src)
        assert "PL301" not in codes
        assert "PL302" not in codes

    def test_conditional_double_arm_reports_pl302(self):
        # second arm() sees {created, running}: a may-violation the AST
        # pass cannot observe (start happens inside the callee).
        src = """\
def arm(es):
    es.start()

def main(papi, warmup):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    if warmup():
        arm(es)
    arm(es)
    es.stop()
"""
        assert ("PL302", 9) in flow_codes(src)


class TestFactoryReturn:
    def test_factory_returning_running_set(self):
        # the summary records returns_states={running}; attaching to
        # the returned set must fire PL302 at the attach site.
        src = """\
from repro import Papi, create
substrate = create("simPOWER", ncpus=2)
papi = Papi(substrate)

def make_running_set():
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    return es

thread = substrate.os.spawn(prog)
es = make_running_set()
es.attach(thread)
"""
        assert ("PL302", 13) in flow_codes(src)


class TestUnknownCallee:
    def test_unknown_callee_havocs_and_silences(self):
        # mystery(es) may have started or stopped the set; with the
        # state fully unknown the flow pass must stay silent on the
        # following read rather than guess.
        src = """\
def main(papi, mystery):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    mystery(es)
    counts = es.read()
"""
        assert "PL301" not in just_codes(src)
