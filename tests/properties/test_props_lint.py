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
- **lifecycle** (the typestate pass): random branching EventSet and
  HighLevel programs are run under every assignment of their
  conditions.  A line where every run that reaches it raises
  ``IsRunningError`` or ``NotRunningError`` must get PL001/PL002/PL007
  in both modes; a line where only some do must get PL301/PL302 with
  ``flow=True``;
- **summaries** (``compute_summaries``): one solve per helper, with
  each parameter in every entry state at once, must equal a reference
  built from one solve per parameter and entry state.
"""

import ast
import itertools
import sys
from unittest import mock

from hypothesis import event, example, given, settings, strategies as st

from repro.core.constants import PAPI_DOM_USER
from repro.core.errors import (
    ConflictError,
    IsRunningError,
    NotRunningError,
    PapiError,
)
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


# -- lifecycle verdicts versus the runtime ------------------------------

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
MAX_CONDITIONS = 4

EVERY_PATH_CODES = {"PL001", "PL002", "PL007"}
SOME_PATH_CODES = {"PL301", "PL302"}


#: starting HighLevel counters on both arms of an ``if`` raises nothing
HIGHLEVEL_START_ON_BOTH_ARMS = ("""\
def program(papi, c, hit):
    hl = HighLevel(papi)
    if c[0]:
        hit(); hl.start_counters(["PAPI_TOT_CYC"])
    else:
        hit(); hl.start_counters(["PAPI_TOT_CYC"])
    hit(); hl.stop_counters()
""", 1)


@st.composite
def lifecycle_programs(draw):
    """``(source, conditions)``: a function ``program(papi, c, hit)``
    that makes one EventSet or one HighLevel and whose items are ``op``,
    ``if c[i]: op`` or ``if c[i]: op else: op``, each ``if`` on a fresh
    condition.  Every op line starts with ``hit()`` so a run records the
    lines it reaches."""
    prelude, ops = LIFECYCLE_OPS[draw(st.sampled_from(sorted(LIFECYCLE_OPS)))]
    op = st.sampled_from(ops)
    lines = ["def program(papi, c, hit):"] + prelude
    conditions = 0
    for _ in range(draw(st.integers(1, MAX_ITEMS))):
        kinds = ["op"]
        if conditions < MAX_CONDITIONS:
            kinds += ["if", "if-else"]
        kind = draw(st.sampled_from(kinds))
        if kind == "op":
            lines.append(f"    hit(); {draw(op)}")
            continue
        lines.append(f"    if c[{conditions}]:")
        lines.append(f"        hit(); {draw(op)}")
        if kind == "if-else":
            lines.append("    else:")
            lines.append(f"        hit(); {draw(op)}")
        conditions += 1
    return "\n".join(lines) + "\n", conditions


def runtime_failures(source, conditions):
    """``(must, may)`` lines of run-state errors over every assignment
    of the conditions, or None when some run first raises another
    PapiError."""
    namespace = {"PAPI_DOM_USER": PAPI_DOM_USER, "HighLevel": HighLevel}
    exec(compile(source, "<program>", "exec"), namespace)
    reached, failed = {}, {}
    for c in itertools.product((False, True), repeat=conditions):
        hits = []

        def hit():
            hits.append(sys._getframe(1).f_lineno)

        # a pinned clean injector: the chaos job's REPRO_FAULT_PROFILE
        # must not change which error a run raises
        papi = Papi(create("simPOWER", inject="0:none"))
        try:
            namespace["program"](papi, c, hit)
        except (IsRunningError, NotRunningError):
            failed[hits[-1]] = failed.get(hits[-1], 0) + 1
        except PapiError:
            return None
        for line in hits:
            reached[line] = reached.get(line, 0) + 1
    must = {line for line, n in failed.items() if n == reached[line]}
    return must, set(failed) - must


def _lines(diagnostics, codes):
    return {d.line for d in diagnostics if d.code in codes}


def check_lifecycle_verdicts(source, conditions):
    outcome = runtime_failures(source, conditions)
    if outcome is None:
        return  # the draw trips a non-lifecycle error first
    must, may_only = outcome
    plain = lint_source(source, "program.py")
    flow = lint_source(source, "program.py", flow=True)
    assert _lines(plain, EVERY_PATH_CODES) == must, (source, plain)
    assert _lines(flow, EVERY_PATH_CODES) == must, (source, flow)
    assert _lines(flow, SOME_PATH_CODES) == may_only, (source, flow)


@given(lifecycle_programs())
@example(HIGHLEVEL_START_ON_BOTH_ARMS)
@settings(max_examples=examples(200), deadline=None)
def test_lifecycle_verdicts_match_runtime(case):
    check_lifecycle_verdicts(*case)


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
