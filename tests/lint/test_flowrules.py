"""Flow-sensitive rules PL3xx/PL4xx: each fires, each clean twin stays
silent, and misuse on every path is reported under its PL0xx code
instead."""

import textwrap

from repro.lint import lint_source


def flow_codes(src):
    """(code, line) pairs from a full flow-mode lint of *src*."""
    diags = lint_source(textwrap.dedent(src), "t.py", flow=True)
    return [(d.code, d.line) for d in diags]


def just_codes(src):
    return [c for c, _line in flow_codes(src)]


PRELUDE = """\
from repro import Papi, create
substrate = create("simPOWER")
papi = Papi(substrate)
es = papi.create_eventset()
es.add_named("PAPI_TOT_INS")
"""

SMP_PRELUDE = """\
from repro import Papi, create
substrate = create("simPOWER", ncpus=2)
papi = Papi(substrate)
t1 = substrate.os.spawn(prog1)
t2 = substrate.os.spawn(prog2)
es = papi.create_eventset()
es.add_named("PAPI_TOT_INS")
"""


class TestPL301ReadBeforeStartOnSomePath:
    def test_conditional_start_then_read(self):
        src = PRELUDE + (
            "if values_ready():\n"
            "    es.start()\n"
            "counts = es.read()\n"
            "es.stop()\n"
        )
        assert ("PL301", 8) in flow_codes(src)

    def test_unconditional_start_is_clean(self):
        src = PRELUDE + (
            "es.start()\n"
            "counts = es.read()\n"
            "es.stop()\n"
        )
        assert just_codes(src) == []

    def test_direct_misuse_is_shadowed_by_ast_rule(self):
        # flat read-without-start holds on every path of a set created
        # in the scope: it is PL001, never also PL301.
        src = PRELUDE + "counts = es.read()\n"
        codes = just_codes(src)
        assert "PL001" in codes
        assert "PL301" not in codes


class TestPL302DoubleStart:
    def test_loop_carried_double_start(self):
        # start() inside a loop re-enters on the back edge while the
        # set is still running -- on some paths only, so PL302
        src = PRELUDE + (
            "for attempt in range(2):\n"
            "    es.start()\n"
            "es.stop()\n"
        )
        assert ("PL302", 7) in flow_codes(src)

    def test_loop_with_paired_stop_is_clean(self):
        src = PRELUDE + (
            "for attempt in range(2):\n"
            "    es.start()\n"
            "    es.stop()\n"
        )
        assert just_codes(src) == []


class TestPL303SwallowedExceptionLeak:
    def test_handler_early_return_leaks_running_set(self):
        src = """\
def measure(papi, work):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    try:
        work()
    except ValueError:
        return None
    counts = es.stop()
    return counts
"""
        # anchored at the start() line
        assert ("PL303", 4) in flow_codes(src)


class TestPL304FinallyMissesStop:
    def test_finally_without_stop(self):
        src = """\
def measure(papi, work, log):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    try:
        work()
    finally:
        log()
    return es.stop()
"""
        assert ("PL304", 4) in flow_codes(src)

    def test_guarded_stop_in_finally_is_clean(self):
        src = """\
def measure(papi, work, log):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    try:
        work()
    finally:
        if es.running:
            es.stop()
    return None
"""
        assert just_codes(src) == []


class TestPL305BlindFatalRetry:
    def test_retry_loop_around_fatal_error(self):
        src = PRELUDE + (
            "while True:\n"
            "    try:\n"
            "        es.add_named(\"PAPI_TOT_INS\")\n"
            "        break\n"
            "    except NoSuchEventError:\n"
            "        pass\n"
        )
        assert "PL305" in just_codes(src)

    def test_transient_error_retry_is_legitimate(self):
        src = PRELUDE + (
            "while True:\n"
            "    try:\n"
            "        es.add_named(\"PAPI_TOT_INS\")\n"
            "        break\n"
            "    except SystemError_:\n"
            "        pass\n"
        )
        assert "PL305" not in just_codes(src)


class TestPL401SharedAcrossThreads:
    def test_conditional_detach_leaves_other_owner(self):
        # attached to t1 on the path that skips the detach() only: the
        # re-attach is PL401, not the every-path PL015.
        src = SMP_PRELUDE + (
            "es.attach(t1)\n"
            "es.start()\n"
            "es.stop()\n"
            "if recycle():\n"
            "    es.detach()\n"
            "es.attach(t2)\n"
        )
        assert ("PL401", 13) in flow_codes(src)

    def test_unconditional_detach_is_clean(self):
        src = SMP_PRELUDE + (
            "es.attach(t1)\n"
            "es.start()\n"
            "es.stop()\n"
            "es.detach()\n"
            "es.attach(t2)\n"
        )
        assert "PL401" not in just_codes(src)

    def test_counter_maybe_bound_to_other_thread(self):
        src = """\
from repro import create
substrate = create("simPOWER", ncpus=2)
t1 = substrate.os.spawn(prog1)
t2 = substrate.os.spawn(prog2)
substrate.os.bind_counter(t1, 2)
if done():
    substrate.os.unbind_counter(t1, 2)
substrate.os.bind_counter(t2, 2)
"""
        assert ("PL401", 8) in flow_codes(src)

    def test_oserror_guard_suppresses_maybe_bound_counter(self):
        # bind_counter raises OSError_ at runtime: a handler for it
        # guards PL401 as it guards the every-path PL016
        src = """\
from repro import create
from repro.simos import OSError_
substrate = create("simPOWER", ncpus=2)
t1 = substrate.os.spawn(prog1)
t2 = substrate.os.spawn(prog2)
if ready():
    substrate.os.bind_counter(t1, 0)
try:
    substrate.os.bind_counter(t2, 0)
except OSError_:
    pass
"""
        assert just_codes(src) == []


class TestPL402OffCpuRead:
    def test_direct_pmu_read_of_bound_counter(self):
        src = """\
from repro import create
substrate = create("simPOWER", ncpus=2)
t = substrate.os.spawn(prog)
substrate.os.bind_counter(t, 2)
value = substrate.machine.cpus[0].pmu.read(2)
"""
        assert ("PL402", 5) in flow_codes(src)


class TestPL403CounterOpWithoutBind:
    def test_bind_on_some_path_only(self):
        src = """\
from repro import create
substrate = create("simPOWER", ncpus=2)
t = substrate.os.spawn(prog)
if fast_path():
    substrate.os.bind_counter(t, 2)
value = substrate.os.counter_value(t, 2)
"""
        assert ("PL403", 6) in flow_codes(src)

    def test_dominating_bind_is_clean(self):
        src = """\
from repro import create
substrate = create("simPOWER", ncpus=2)
t = substrate.os.spawn(prog)
substrate.os.bind_counter(t, 2)
value = substrate.os.counter_value(t, 2)
substrate.os.unbind_counter(t, 2)
"""
        assert just_codes(src) == []
