"""One abstract interpreter: cases where the AST walk and the typestate
pass used to disagree, and the contract between the two lint modes.

Each case lists every ``(code, line)`` a flow-mode lint reports.
Misuse on every path of a set or ``HighLevel`` created in the scope is
PL0xx; misuse on some paths only, or seen through a helper's summary,
is PL3xx/PL4xx.  Overlapping sets (PL013) and unclosed papid clients
(PL018) are reported when they may happen on some path.  Without
``--flow`` a lint reports exactly the flow-mode findings minus the
PL3xx/PL4xx ones, on every case here and on every example.

The cases of ``RUNTIME_CASES`` (membership, configuration, libraries,
``try`` blocks) also run: ``main(c)`` under ``c = False`` and
``c = True``, each on a fresh library, and the ``(line, error)`` each
run raises stands beside the lint verdict.
"""

import pathlib

import pytest

from repro.core.errors import PapiError
from repro.core.highlevel import HighLevel
from repro.core.library import Papi
from repro.lint import lint_source
from repro.platforms import create
from repro.workloads.linalg import dot

REPO = pathlib.Path(__file__).resolve().parents[2]

DOUBLE_ARM = """\
def arm(es):
    es.start()

def main(papi):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    arm(es)
    arm(es)
    es.stop()
"""

START_ON_BOTH_BRANCHES = """\
def main(papi, c):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    if c:
        es.start()
    else:
        es.start()
    counts = es.read()
    es.stop()
    return counts
"""

HELPER_STOPS = """\
def finish(es):
    es.stop()

def main(papi):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    finish(es)
    return es.read()
"""

TWO_UNKNOWN_NAMES = """\
from repro import Papi, create
papi = Papi(create("simPOWER"))
es = papi.create_eventset()
es.add_named("PAPI_NO_SUCH", "PAPI_ALSO_NOT")
"""

STOP_ON_SOME_PATH = """\
def main(papi, c):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    if c:
        es.stop()
"""

THREE_STATES = """\
def main(papi, c0, c1):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    if c0:
        es.start()
    if c1:
        es.stop()
    es.start()
"""

PARAMETER_THREADS = """\
def pin(os_, t1, t2):
    os_.bind_counter(t1, 0)
    os_.bind_counter(t2, 0)
"""

HELPER_HANDS_OFF = """\
def wrapper(es):
    mystery(es)

def main(papi):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    wrapper(es)
    es.read()
"""

PARAMETER_THREAD_ON_SOME_PATH = """\
def pin(os_, t1, t2, c):
    if c:
        os_.bind_counter(t1, 0)
    os_.bind_counter(t2, 0)
"""

LOOP_START = """\
def main(papi):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    for _ in range(2):
        es.start()
"""

# the alias set of ``es`` grows from nothing to the created set between
# iterations, so the ``.running`` refinement flips with it; the solver
# must still converge (the function form used to raise, the module form
# used to drop every finding of its scope)
LOOP_UNTIL_RUNNING = """\
def f(papi):
    es = None
    while not es.running:
        es = papi.create_eventset()
        es.start()
"""

MODULE_LOOP_UNTIL_RUNNING = """\
bad = papi.create_eventset()
bad.read()
es = None
while not es.running:
    es = papi.create_eventset()
    es.start()
"""

# a name bound to something untracked keeps that on the path it came
# from: joined with a tracked set, it stops the ``.running`` refinement
# from pruning the branch the untracked value takes
UNTRACKED_LOOP_DOUBLE_START = """\
def f(papi, make):
    es = make()
    while not es.running:
        es = papi.create_eventset()
        es.start()
        es.start()
"""

MODULE_UNTRACKED_LOOP_DOUBLE_START = """\
es = make()
while not es.running:
    es = papi.create_eventset()
    es.start()
    es.start()
"""

UNTRACKED_ALIAS_DOUBLE_START = """\
def f(papi, make, c):
    es = papi.create_eventset()
    es.start()
    if c:
        x = make()
    else:
        x = es
    if not x.running:
        es.start()
"""

UNTRACKED_FOR_TARGET_DOUBLE_START = """\
def f(papi, things, c):
    es = papi.create_eventset()
    es.start()
    for x in things:
        pass
    if c:
        x = es
    if not x.running:
        es.start()
"""

UNTRACKED_WITH_TARGET_DOUBLE_START = """\
def f(papi, ctx, c):
    es = papi.create_eventset()
    es.start()
    with ctx() as x:
        pass
    if c:
        x = es
    if not x.running:
        es.start()
"""

# the runtime raises on no path: each run starts the counters once
HIGHLEVEL_START_ON_BOTH_BRANCHES = """\
def main(papi, c):
    hl = HighLevel(papi)
    if c:
        hl.start_counters(["PAPI_TOT_CYC"])
    else:
        hl.start_counters(["PAPI_TOT_INS"])
    hl.stop_counters()
"""

# two iterations raise IsRunningError, none raises NotRunningError
HIGHLEVEL_START_IN_LOOP = """\
def main(papi, n):
    hl = HighLevel(papi)
    for _ in range(n):
        hl.start_counters(["PAPI_TOT_CYC"])
    hl.stop_counters()
"""

HIGHLEVEL_STOP_ON_SOME_PATH = """\
def main(papi, c):
    hl = HighLevel(papi)
    hl.start_counters(["PAPI_TOT_CYC"])
    if c:
        hl.stop_counters()
"""

# b.start() raises IsRunningError when c is false
OVERLAP_ON_SOME_PATH = """\
def main(c):
    papi = Papi(create("simPOWER"))
    a = papi.create_eventset()
    b = papi.create_eventset()
    a.add_named("PAPI_TOT_CYC")
    b.add_named("PAPI_TOT_INS")
    a.start()
    if c:
        a.stop()
    b.start()
    b.stop()
"""

OVERLAP_IN_LOOP = """\
def main(n):
    papi = Papi(create("simPOWER"))
    a = papi.create_eventset()
    b = papi.create_eventset()
    a.add_named("PAPI_TOT_CYC")
    b.add_named("PAPI_TOT_INS")
    for _ in range(n):
        a.start()
        b.start()
        a.stop()
        b.stop()
"""

CLIENT_CLOSED_ON_SOME_PATH = """\
def main(server, c):
    client = PapidClient(server)
    if c:
        client.close()
"""

# the probe reads when the machine runs, after start()
LAMBDA_READ = """\
def main(papi, machine):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    machine.register_probe(1, lambda pid, cpu: es.read())
    es.start()
    machine.run()
    es.stop()
"""

# -- cases with the runtime's verdict --------------------------------------

# neither run raises: each adds the event once
SAME_ADD_ON_BOTH_ARMS = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    if c:
        es.add_named("PAPI_TOT_CYC")
    else:
        es.add_named("PAPI_TOT_CYC")
    es.start()
    es.stop()
"""

# neither run combines overflow with multiplexing
MULTIPLEX_OR_OVERFLOW = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    if c:
        es.set_multiplex()
        es.add_named("PAPI_TOT_CYC")
    else:
        es.add_named("PAPI_TOT_CYC")
        es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)
"""

# cleanup() drops the overflow registration with the events
OVERFLOW_CLEANUP_MULTIPLEX = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC")
    es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)
    es.cleanup()
    es.set_multiplex()
    es.add_named("PAPI_TOT_CYC")
"""

# one library under two names: the second start() raises
ALIASED_LIBRARY_OVERLAP = """\
def main(c):
    papi = Papi(create("simPOWER"))
    p2 = papi
    a = papi.create_eventset()
    b = p2.create_eventset()
    a.add_named("PAPI_TOT_CYC")
    b.add_named("PAPI_TOT_INS")
    a.start()
    b.start()
    a.stop()
    b.stop()
"""

# a started HighLevel holds its library's one running set: the set's
# start() raises, and so does a start_counters() after the set started
HIGHLEVEL_THEN_EVENTSET = """\
def main(c):
    papi = Papi(create("simPOWER"))
    hl = HighLevel(papi)
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    hl.start_counters(["PAPI_TOT_CYC"])
    es.start()
    es.stop()
    hl.stop_counters()
"""

EVENTSET_THEN_HIGHLEVEL = """\
def main(c):
    papi = Papi(create("simPOWER"))
    hl = HighLevel(papi)
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    hl.start_counters(["PAPI_TOT_CYC"])
    hl.stop_counters()
    es.stop()
"""

# the short run counts directly; the set is multiplexed only later
SHORT_RUN_BEFORE_MULTIPLEX = """\
def main(c):
    substrate = create("simPOWER")
    substrate.machine.load(dot(200).program)
    papi = Papi(substrate)
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    substrate.machine.run(max_instructions=1000)
    es.stop()
    es.cleanup()
    es.set_multiplex()
"""

# every run raises on the second iteration; a lint that does not count
# iterations sees a set that holds the event on some paths only
ADD_IN_LOOP = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    for _ in range(2):
        es.add_named("PAPI_TOT_CYC")
"""

# only the run with c raises
ADD_AFTER_ADD_ON_SOME_PATH = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    if c:
        es.add_named("PAPI_TOT_CYC")
    es.add_named("PAPI_TOT_CYC")
"""

# cpu::: names the platform's native table, as the bare name does
CPU_NATIVE_ON_SET_PLATFORM = """\
def main(c):
    papi = Papi(create("simX86"))
    es = papi.create_eventset()
    if c:
        es.add_named("cpu:::NO_SUCH_NATIVE")
    else:
        es.add_named("NO_SUCH_NATIVE")
"""

# the else block runs after the body succeeded: the handler never sees
# its calls, so it neither swallows their errors nor leaks the set
START_IN_TRY_ELSE = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    try:
        str(c)
    except PapiError:
        pass
    else:
        es.start()
        es.stop()
"""

# the handler's return runs the finally, which stops the set; only the
# read after the finally raises
RETURN_FROM_HANDLER_RUNS_FINALLY = """\
def main(c):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()
    try:
        if c:
            raise ValueError(c)
    except ValueError:
        return None
    finally:
        es.stop()
    return es.read()
"""

RUNTIME_CASES = [
    pytest.param(
        SAME_ADD_ON_BOTH_ARMS, [], (None, None),
        id="same-add-on-both-arms",
    ),
    pytest.param(
        MULTIPLEX_OR_OVERFLOW, [], (None, None),
        id="multiplex-or-overflow",
    ),
    pytest.param(
        OVERFLOW_CLEANUP_MULTIPLEX, [], (None, None),
        id="overflow-cleanup-multiplex",
    ),
    pytest.param(
        ALIASED_LIBRARY_OVERLAP, [("PL013", 9)],
        ((9, "IsRunningError"), (9, "IsRunningError")),
        id="aliased-library-overlap",
    ),
    pytest.param(
        HIGHLEVEL_THEN_EVENTSET, [("PL006", 7), ("PL013", 7)],
        ((7, "IsRunningError"), (7, "IsRunningError")),
        id="highlevel-then-eventset",
    ),
    pytest.param(
        EVENTSET_THEN_HIGHLEVEL, [("PL006", 7), ("PL013", 7)],
        ((7, "IsRunningError"), (7, "IsRunningError")),
        id="eventset-then-highlevel",
    ),
    pytest.param(
        SHORT_RUN_BEFORE_MULTIPLEX, [], (None, None),
        id="short-run-before-multiplex",
    ),
    pytest.param(
        ADD_IN_LOOP, [("PL306", 5)],
        ((5, "InvalidArgumentError"), (5, "InvalidArgumentError")),
        id="add-in-loop",
    ),
    pytest.param(
        ADD_AFTER_ADD_ON_SOME_PATH, [("PL306", 6)],
        (None, (6, "InvalidArgumentError")),
        id="add-after-add-on-some-path",
    ),
    pytest.param(
        CPU_NATIVE_ON_SET_PLATFORM, [("PL010", 5), ("PL010", 7)],
        ((7, "NoSuchEventError"), (5, "NoSuchEventError")),
        id="cpu-native-on-set-platform",
    ),
    pytest.param(START_IN_TRY_ELSE, [], (None, None), id="start-in-try-else"),
    pytest.param(
        RETURN_FROM_HANDLER_RUNS_FINALLY, [("PL001", 13)],
        ((13, "NotRunningError"), None),
        id="return-from-handler-runs-finally",
    ),
]


def runtime_outcomes(source):
    """What ``main(False)`` and ``main(True)`` raise: ``(line, error)``
    at the case's line that raised it, or None for a clean run."""
    namespace = {
        "HighLevel": HighLevel,
        "Papi": Papi,
        "PapiError": PapiError,
        "dot": dot,
        # a pinned clean injector: REPRO_FAULT_PROFILE must not change
        # which error a run raises
        "create": lambda name: create(name, inject="0:none"),
    }
    exec(compile(source, "<case>", "exec"), namespace)
    outcomes = []
    for c in (False, True):
        try:
            namespace["main"](c)
        except PapiError as exc:
            tb, line = exc.__traceback__, None
            while tb is not None:
                if tb.tb_frame.f_code.co_filename == "<case>":
                    line = tb.tb_lineno
                tb = tb.tb_next
            outcomes.append((line, type(exc).__name__))
        else:
            outcomes.append(None)
    return tuple(outcomes)


@pytest.mark.parametrize("source, expected, runtime", RUNTIME_CASES)
def test_findings_beside_the_runtime(source, expected, runtime):
    assert runtime_outcomes(source) == runtime
    diags = lint_source(source, "t.py", flow=True)
    assert [(d.code, d.line) for d in diags] == expected


CASES = [
    # a definite double start through a helper: a summary finding
    pytest.param(DOUBLE_ARM, [("PL302", 8)], id="double-arm"),
    pytest.param(START_ON_BOTH_BRANCHES, [], id="start-on-both-branches"),
    pytest.param(HELPER_STOPS, [("PL001", 9)], id="helper-stops"),
    pytest.param(
        TWO_UNKNOWN_NAMES, [("PL010", 4), ("PL010", 4)],
        id="two-unknown-names",
    ),
    pytest.param(STOP_ON_SOME_PATH, [("PL008", 4)], id="stop-on-some-path"),
    # created, running and stopped reach the last start(): the set's
    # state is fully known, and running on one of the paths
    pytest.param(
        THREE_STATES, [("PL301", 7), ("PL008", 8), ("PL302", 8)],
        id="three-states",
    ),
    # a helper that hands the set to an unknown callee leaves it
    # unknown in the caller: nothing to report
    pytest.param(HELPER_HANDS_OFF, [], id="helper-hands-off"),
    pytest.param(
        PARAMETER_THREAD_ON_SOME_PATH, [("PL401", 4)],
        id="parameter-thread-on-some-path",
    ),
    # the two cases below held before the AST walk's copy of the
    # lifecycle rules went; they pin that nothing was lost with it
    pytest.param(PARAMETER_THREADS, [("PL016", 3)], id="parameter-threads"),
    pytest.param(
        LOOP_START, [("PL008", 5), ("PL302", 5)], id="loop-start",
    ),
    pytest.param(
        LOOP_UNTIL_RUNNING, [("PL008", 5)], id="loop-until-running",
    ),
    pytest.param(
        MODULE_LOOP_UNTIL_RUNNING, [("PL001", 2), ("PL008", 6)],
        id="module-loop-until-running",
    ),
    pytest.param(
        UNTRACKED_LOOP_DOUBLE_START, [("PL002", 6)],
        id="untracked-loop-double-start",
    ),
    pytest.param(
        MODULE_UNTRACKED_LOOP_DOUBLE_START, [("PL002", 5)],
        id="module-untracked-loop-double-start",
    ),
    pytest.param(
        UNTRACKED_ALIAS_DOUBLE_START, [("PL008", 9), ("PL002", 9)],
        id="untracked-alias-double-start",
    ),
    pytest.param(
        UNTRACKED_FOR_TARGET_DOUBLE_START, [("PL008", 9), ("PL002", 9)],
        id="untracked-for-target-double-start",
    ),
    pytest.param(
        UNTRACKED_WITH_TARGET_DOUBLE_START, [("PL008", 9), ("PL002", 9)],
        id="untracked-with-target-double-start",
    ),
    # the run-state rules the AST walk used to check in source order
    pytest.param(
        HIGHLEVEL_START_ON_BOTH_BRANCHES, [],
        id="highlevel-start-on-both-branches",
    ),
    pytest.param(
        HIGHLEVEL_START_IN_LOOP, [("PL302", 4), ("PL301", 5)],
        id="highlevel-start-in-loop",
    ),
    pytest.param(
        HIGHLEVEL_STOP_ON_SOME_PATH, [("PL008", 3)],
        id="highlevel-stop-on-some-path",
    ),
    pytest.param(
        OVERLAP_ON_SOME_PATH, [("PL008", 7), ("PL013", 10)],
        id="overlap-on-some-path",
    ),
    pytest.param(OVERLAP_IN_LOOP, [("PL013", 9)], id="overlap-in-loop"),
    pytest.param(
        CLIENT_CLOSED_ON_SOME_PATH, [("PL018", 2)],
        id="client-closed-on-some-path",
    ),
    pytest.param(LAMBDA_READ, [], id="lambda-read"),
]


@pytest.mark.parametrize("source, expected", CASES)
def test_flow_findings(source, expected):
    diags = lint_source(source, "t.py", flow=True)
    assert [(d.code, d.line) for d in diags] == expected


def _mode_inputs():
    for param in CASES + RUNTIME_CASES:
        yield pytest.param(param.values[0], id=param.id)
    for path in sorted((REPO / "examples").glob("*.py")):
        yield pytest.param(path.read_text(), id=path.name)


@pytest.mark.parametrize("source", _mode_inputs())
def test_plain_mode_is_flow_mode_without_pl3xx_pl4xx(source):
    flow = lint_source(source, "t.py", flow=True)
    assert lint_source(source, "t.py") == [
        d for d in flow if d.code[2] not in "34"
    ]
