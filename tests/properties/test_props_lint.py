"""Property tests: lint verdicts agree with the runtime.

papi-lint's whole value rests on one claim: the verdict computed
*without executing* is the verdict the runtime would reach.  Two
halves of the linter are pinned to the runtime here, and the summaries
to a slower reference:

- **feasibility** (``repro.lint.check_events``): ``EventSet.add_event``
  calls in sequence either all succeed (set allocatable) or raise
  ``ConflictError`` at some prefix (set not allocatable).  Hypothesis
  drives random event subsets on every platform and pins the agreement
  in both directions, including the multiplexed variant;
- **lifecycle and membership** (the typestate pass): random EventSet
  and HighLevel programs with branches and bounded loops are run under
  every assignment of their conditions and loop counts.  A line where
  every execution raises ``IsRunningError`` or ``NotRunningError`` must
  get PL001/PL002/PL005/PL007 in both modes, and one where only some
  do PL301/PL302 with ``flow=True``.  A line where every execution
  raises the error a membership rule models (a duplicate add, overflow
  with multiplexing) must get PL009/PL010/PL012 in both modes, and one
  where only some do PL306 with ``flow=True``;
- **summaries** (``compute_summaries``): one solve per helper, with
  each parameter in every entry state at once, must equal a reference
  built from one solve per parameter and entry state.
"""

import ast
import itertools
import re
import sys
from collections import Counter
from unittest import mock

from hypothesis import event, example, given, settings, strategies as st

from repro.core.constants import PAPI_DOM_USER
from repro.core.errors import (
    ConflictError,
    InvalidArgumentError,
    IsRunningError,
    NoSuchEventError,
    NotPresetError,
    NotRunningError,
    PapiError,
)
from repro.core.eventset import EventSet
from repro.core.highlevel import HighLevel
from repro.core.library import Papi
from repro.core.presets import PLATFORM_PRESET_TABLES
from repro.lint import check_events, lint_source, summaries
from repro.lint.cfg import build_cfg
from repro.lint.dataflow import solve
from repro.lint.typestate import (
    ALL_STATES,
    FunctionSummary,
    ParamEffect,
    TypestateAnalysis,
    eval_expr_values,
    param_id,
)
from repro.platforms import PLATFORM_NAMES, create
from tests.property_examples import examples

#: per-platform pool of preset symbols that resolve (availability is
#: not what this test is about -- allocation is).
_POOLS = {
    platform: sorted(PLATFORM_PRESET_TABLES[platform])
    for platform in PLATFORM_NAMES
}


@st.composite
def platform_and_events(draw):
    platform = draw(st.sampled_from(PLATFORM_NAMES))
    pool = _POOLS[platform]
    events = draw(
        st.lists(
            st.sampled_from(pool), min_size=1, max_size=6, unique=True
        )
    )
    return platform, tuple(events)


def runtime_adds_succeed(platform, events, multiplex=False):
    """Ground truth: drive the real library, return whether adds fit."""
    papi = Papi(create(platform))
    es = papi.create_eventset()
    if multiplex:
        es.set_multiplex()
    try:
        for symbol in events:
            es.add_event(papi.event_name_to_code(symbol))
    except ConflictError:
        return False
    except PapiError:  # pragma: no cover - pool excludes these
        raise
    return True


@given(platform_and_events())
@settings(max_examples=examples(150), deadline=None)
def test_static_verdict_matches_runtime(case):
    platform, events = case
    report = check_events(events, platform)
    assert report.ok == runtime_adds_succeed(platform, events), (
        f"static says ok={report.ok} but the runtime disagrees for "
        f"{events} on {platform}"
    )


@given(platform_and_events())
@settings(max_examples=examples(60), deadline=None)
def test_static_mpx_verdict_matches_runtime(case):
    platform, events = case
    report = check_events(events, platform)
    if report.sampling:
        return  # set_multiplex is rejected on the sampling substrate
    runtime_ok = runtime_adds_succeed(platform, events, multiplex=True)
    assert report.feasible_multiplexed == runtime_ok, (
        f"static says mpx={report.feasible_multiplexed} but the runtime "
        f"disagrees for {events} on {platform}"
    )


@given(platform_and_events())
@settings(max_examples=examples(60), deadline=None)
def test_conflict_witness_is_infeasible_and_minimal(case):
    platform, events = case
    report = check_events(events, platform)
    if report.feasible_direct or report.sampling:
        return
    witness = report.conflict_witness
    assert witness, "infeasible report must carry a conflict witness"
    assert set(witness) <= set(events)
    assert not check_events(witness, platform).feasible_direct
    for name in witness:
        rest = tuple(n for n in witness if n != name)
        if rest:
            assert check_events(rest, platform).feasible_direct, (
                f"witness {witness} is not minimal: still infeasible "
                f"without {name}"
            )


# -- lifecycle and membership verdicts versus the runtime ----------------

#: registers overflow on the event the prelude adds
OVERFLOW_OP = (
    'es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)'
)

#: the operations a drawn program is made of, one per line, after the
#: lines that make its object
LIFECYCLE_OPS = {
    "eventset": (
        [
            "    es = papi.create_eventset()",
            '    es.add_named("PAPI_TOT_CYC")',
        ],
        (
            "es.start()",
            "es.stop()",
            "es.read()",
            "es.reset()",
            'es.add_named("PAPI_TOT_CYC")',
            'es.remove_event(papi.event_name_to_code("PAPI_TOT_CYC"))',
            "es.set_domain(PAPI_DOM_USER)",
            "es.cleanup()",
            "es.set_multiplex()",
            OVERFLOW_OP,
        ),
    ),
    "highlevel": (
        ["    hl = HighLevel(papi)"],
        (
            'hl.start_counters(["PAPI_TOT_CYC"])',
            "hl.read_counters()",
            "hl.accum_counters([0])",
            "hl.stop_counters()",
        ),
    ),
}

MAX_ITEMS = 6
#: conditions and loops together; each loop counts 0, 1 or 2 times
MAX_BRANCHES = 4
MAX_LOOPS = 2
LOOP_COUNTS = (0, 1, 2)

EVERY_PATH_CODES = {"PL001", "PL002", "PL005", "PL007"}
SOME_PATH_CODES = {"PL301", "PL302"}
MEMBERSHIP_EVERY_PATH_CODES = {"PL009", "PL010", "PL012"}
MEMBERSHIP_SOME_PATH_CODES = {"PL306"}

#: the errors a membership or configuration rule models, by the method
#: that raises them; any other non-lifecycle error discards the draw
MEMBERSHIP_ERRORS = {
    "add_named": (InvalidArgumentError, NotPresetError, NoSuchEventError),
    "set_multiplex": (InvalidArgumentError,),
    "overflow": (InvalidArgumentError,),
}

_RUNTIME_OVERFLOW = EventSet.overflow


def c_papi_overflow(es, *args):
    """``PAPI_overflow`` as C PAPI has it: on a running EventSet it
    returns PAPI_EISRUN.  This runtime arms the overflow anyway, which
    is why the lint reports it (PL005); the oracle holds the runtime to
    the C library's rule."""
    if es.running:
        raise IsRunningError("PAPI_overflow requires a stopped EventSet")
    return _RUNTIME_OVERFLOW(es, *args)


#: starting HighLevel counters on both arms of an ``if`` raises nothing
HIGHLEVEL_START_ON_BOTH_ARMS = ("""\
def program(papi, c, k, hit):
    hl = HighLevel(papi)
    if c[0]:
        hit(); hl.start_counters(["PAPI_TOT_CYC"])
    else:
        hit(); hl.start_counters(["PAPI_TOT_CYC"])
    hit(); hl.stop_counters()
""", 1, 0)

#: adding one event on both arms of an ``if`` raises nothing either
ADD_ON_BOTH_ARMS = ("""\
def program(papi, c, k, hit):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC")
    hit(); es.remove_event(papi.event_name_to_code("PAPI_TOT_CYC"))
    if c[0]:
        hit(); es.add_named("PAPI_TOT_CYC")
    else:
        hit(); es.add_named("PAPI_TOT_CYC")
""", 1, 0)


#: multiplexing a set with overflow registered raises on every run
MULTIPLEX_AFTER_OVERFLOW = ("""\
def program(papi, c, k, hit):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC")
    hit(); es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)
    hit(); es.set_multiplex()
""", 0, 0)

#: removing the overflow's event drops the registration with it
MULTIPLEX_AFTER_REMOVING_OVERFLOW = ("""\
def program(papi, c, k, hit):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC")
    hit(); es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)
    hit(); es.remove_event(papi.event_name_to_code("PAPI_TOT_CYC"))
    hit(); es.set_multiplex()
""", 0, 0)


#: cleanup() drops the events and the overflow, not the multiplexing
OVERFLOW_AFTER_CLEANUP_OF_A_MULTIPLEXED_SET = ("""\
def program(papi, c, k, hit):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC")
    hit(); es.set_multiplex()
    hit(); es.cleanup()
    hit(); es.add_named("PAPI_TOT_CYC")
    hit(); es.overflow(papi.event_name_to_code("PAPI_TOT_CYC"), 100000, print)
""", 0, 0)


@st.composite
def lifecycle_programs(draw):
    """``(source, conditions, loops)``: a function ``program(papi, c, k,
    hit)`` that makes one EventSet or one HighLevel and whose items are
    ``op``, ``if c[i]: op``, ``if c[i]: op else: op`` or ``for _ in
    range(k[j]):`` over one or two ops, each on a fresh condition or
    loop count.  Every op line starts with ``hit()`` so a run records
    the lines it reaches."""
    prelude, ops = LIFECYCLE_OPS[draw(st.sampled_from(sorted(LIFECYCLE_OPS)))]
    op = st.sampled_from(ops)
    lines = ["def program(papi, c, k, hit):"] + prelude
    conditions = loops = 0
    for _ in range(draw(st.integers(1, MAX_ITEMS))):
        kinds = ["op"]
        if conditions + loops < MAX_BRANCHES:
            kinds += ["if", "if-else"]
            if loops < MAX_LOOPS:
                kinds.append("loop")
        kind = draw(st.sampled_from(kinds))
        if kind == "op":
            lines.append(f"    hit(); {draw(op)}")
        elif kind == "loop":
            lines.append(f"    for _ in range(k[{loops}]):")
            for _ in range(draw(st.integers(1, 2))):
                lines.append(f"        hit(); {draw(op)}")
            loops += 1
        else:
            lines.append(f"    if c[{conditions}]:")
            lines.append(f"        hit(); {draw(op)}")
            if kind == "if-else":
                lines.append("    else:")
                lines.append(f"        hit(); {draw(op)}")
            conditions += 1
    return "\n".join(lines) + "\n", conditions, loops


def _op_methods(source):
    """Line number -> the method its ``hit(); recv.method(...)`` op calls."""
    return {
        number: re.search(r"hit\(\); \w+\.(\w+)\(", line).group(1)
        for number, line in enumerate(source.splitlines(), 1)
        if "hit(); " in line
    }


def _failure_kind(exc, method):
    """``lifecycle``, ``membership``, or None for an error no rule models."""
    if isinstance(exc, (IsRunningError, NotRunningError)):
        return "lifecycle"
    if isinstance(exc, MEMBERSHIP_ERRORS.get(method, ())):
        return "membership"
    return None


def runtime_failures(source, conditions, loops):
    """``(lifecycle, membership)``, each the ``(must, may)`` lines of its
    errors over every assignment of the conditions and loop counts: a
    line is in *must* when every execution of it fails, in *may* when
    only some do.  None when some run first raises an error no rule
    models."""
    namespace = {"PAPI_DOM_USER": PAPI_DOM_USER, "HighLevel": HighLevel}
    exec(compile(source, "<program>", "exec"), namespace)
    methods = _op_methods(source)
    reached = Counter()
    failed = {"lifecycle": Counter(), "membership": Counter()}
    runs = itertools.product(
        itertools.product((False, True), repeat=conditions),
        itertools.product(LOOP_COUNTS, repeat=loops),
    )
    with mock.patch.object(EventSet, "overflow", c_papi_overflow):
        for c, k in runs:
            hits = []

            def hit():
                hits.append(sys._getframe(1).f_lineno)

            # a pinned clean injector: the chaos job's REPRO_FAULT_PROFILE
            # must not change which error a run raises
            papi = Papi(create("simPOWER", inject="0:none"))
            try:
                namespace["program"](papi, c, k, hit)
            except PapiError as exc:
                kind = _failure_kind(exc, methods[hits[-1]])
                if kind is None:
                    return None
                failed[kind][hits[-1]] += 1
            reached.update(hits)

    def split(counts):
        must = {line for line, n in counts.items() if n == reached[line]}
        return must, set(counts) - must

    return split(failed["lifecycle"]), split(failed["membership"])


def _lines(diagnostics, codes):
    return {d.line for d in diagnostics if d.code in codes}


def check_verdicts(source, conditions, loops):
    outcome = runtime_failures(source, conditions, loops)
    event("draw", "discarded" if outcome is None else "compared")
    if outcome is None:
        return  # the draw trips an error no rule models first
    (must, may_only), (member_must, member_may_only) = outcome
    plain = lint_source(source, "program.py")
    flow = lint_source(source, "program.py", flow=True)
    for found in (plain, flow):
        assert _lines(found, EVERY_PATH_CODES) == must, (source, found)
        assert _lines(found, MEMBERSHIP_EVERY_PATH_CODES) == member_must, (
            source, found,
        )
    assert _lines(flow, SOME_PATH_CODES) == may_only, (source, flow)
    assert _lines(flow, MEMBERSHIP_SOME_PATH_CODES) == member_may_only, (
        source, flow,
    )


@given(lifecycle_programs())
@example(HIGHLEVEL_START_ON_BOTH_ARMS)
@example(ADD_ON_BOTH_ARMS)
@example(MULTIPLEX_AFTER_OVERFLOW)
@example(MULTIPLEX_AFTER_REMOVING_OVERFLOW)
@example(OVERFLOW_AFTER_CLEANUP_OF_A_MULTIPLEXED_SET)
@settings(max_examples=examples(200), deadline=None)
def test_lifecycle_verdicts_match_runtime(case):
    check_verdicts(*case)


# -- summaries versus one seeded solve per entry state --------------------

#: a summarized helper every drawn function may call
SUMMARY_PRELUDE = "def arm(es):\n    es.start()\n\n\n"

SUMMARY_PARAMS = ("a", "b", "c")
SUMMARY_ALIASES = ("x", "y")
SUMMARY_OPS = ("start()", "stop()", "read()", "attach(t)", "cleanup()")

#: ``x`` aliases ``a`` only on the branch where ``a`` is running; a
#: solve that shares one environment among ``a``'s entry states would
#: see ``x.stop()`` stop ``a`` when it entered created or stopped
ALIAS_THROUGH_RUNNING_TEST = SUMMARY_PRELUDE + """\
def helper(a, b):
    x = b
    if a.running:
        x = a
    x.stop()
"""


def _indent(lines):
    return ["    " + line for line in lines]


def _summary_block(draw, params, created, depth):
    """One statement list of a drawn helper's body."""
    names = params + SUMMARY_ALIASES + (("s",) if created else ())
    receiver = st.sampled_from(names)
    kinds = ["op", "op", "alias", "either", "arm", "unknown"]
    if created:
        kinds.append("return")
    if depth < 2:
        kinds += ["if", "while", "try"]
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "op":
            lines.append(f"{draw(receiver)}.{draw(st.sampled_from(SUMMARY_OPS))}")
        elif kind == "alias":
            alias = draw(st.sampled_from(SUMMARY_ALIASES))
            lines.append(f"{alias} = {draw(st.sampled_from(params))}")
        elif kind == "either":
            alias = draw(st.sampled_from(SUMMARY_ALIASES))
            one, other = draw(st.sampled_from(names)), draw(receiver)
            lines.append(f"{alias} = {one} if flag else {other}")
        elif kind == "arm":
            lines.append(f"arm({draw(receiver)})")
        elif kind == "unknown":
            lines.append(f"mystery({draw(receiver)})")
        elif kind == "return":
            lines.append("return s")
        elif kind == "try":
            lines.append("try:")
            lines += _indent(_summary_block(draw, params, created, depth + 1))
            lines.append("except PapiError:")
            lines += _indent(_summary_block(draw, params, created, depth + 1))
        else:
            name = draw(receiver)
            test = draw(st.sampled_from(
                ("flag", f"{name}.running", f"not {name}.running")
            ))
            lines.append(f"{kind} {test}:")
            lines += _indent(_summary_block(draw, params, created, depth + 1))
            if kind == "if" and draw(st.booleans()):
                lines.append("else:")
                lines += _indent(
                    _summary_block(draw, params, created, depth + 1)
                )
    return lines


@st.composite
def summary_helpers(draw):
    """A module: ``arm`` plus one drawn ``helper`` of 1-3 parameters."""
    params = SUMMARY_PARAMS[:draw(st.integers(1, 3))]
    created = draw(st.booleans())
    body = ["s = papi.create_eventset()"] if created else []
    body += _summary_block(draw, params, created, 0)
    if created and draw(st.booleans()):
        body.append("return s")
    header = f"def helper({', '.join(params)}):"
    return SUMMARY_PRELUDE + "\n".join([header] + _indent(body)) + "\n"


def _seeded_effect(cfg, done, params, index, state):
    """The reference: one solve with parameter *index* seeded."""
    oid = param_id(index)
    analysis = TypestateAnalysis(done, params, seed_param=(index, state))
    ins, _outs = solve(cfg, analysis)
    violations = []

    def sink(rule, node, objid, message, hint, method):
        if objid == oid and (rule, method) not in violations:
            violations.append((rule, method))

    analysis.sink = sink
    for node in cfg.stmt_nodes():
        analysis.transfer(node, ins[node.id])
    exit_fact = ins[cfg.exit].objs_dict().get(oid)
    return ParamEffect(
        exit_states=exit_fact.state_names if exit_fact else frozenset(),
        violations=tuple(violations),
        exit_unknown=exit_fact is not None and exit_fact.unknown,
    )


def _returned_states(cfg, done, params):
    """The reference: one solve with every parameter unknown."""
    analysis = TypestateAnalysis(done, params)
    ins, _outs = solve(cfg, analysis)
    states = set()
    for node in cfg.stmt_nodes():
        if not isinstance(node.stmt, ast.Return) or node.stmt.value is None:
            continue
        vals, objs = eval_expr_values(analysis, ins[node.id], node.stmt.value)
        for val in vals:
            if val.startswith(("es@", "ret@")) and val in objs:
                if objs[val].unknown:
                    return None
                states |= objs[val].state_names
    return frozenset(states) if states else None


def seeded_summaries(functions):
    """Summaries from 1 + 3 x params solves per function, callees first
    (a drawn module defines every callee before its caller)."""
    done = {}
    for name, fn in functions.items():
        params = [arg.arg for arg in fn.args.args]
        cfg = build_cfg(fn.body)
        summary = FunctionSummary(
            name=name, params=params,
            returns_states=_returned_states(cfg, done, params),
        )
        for i in range(len(params)):
            effects = {
                state: _seeded_effect(cfg, done, params, i, state)
                for state in sorted(ALL_STATES)
            }
            if any(e.violations or e.exit_states != {s}
                   for s, e in effects.items()):
                summary.effects[i] = effects
        if summary.effects or summary.returns_states is not None:
            done[name] = summary
    return done


@given(summary_helpers())
@example(ALIAS_THROUGH_RUNNING_TEST)
@settings(max_examples=examples(150), deadline=None)
def test_summaries_match_seeded_solves(source):
    functions = summaries.collect_functions(ast.parse(source))
    with mock.patch.object(
        summaries, "_seeded_effect", wraps=summaries._seeded_effect
    ) as guarded:
        got = summaries.compute_summaries(functions)
    nparams = len(functions["helper"].args.args)
    event("guarded parameters", f"{guarded.call_count // 3} of {nparams}")
    assert got == seeded_summaries(functions), source
