"""Property tests: lint verdicts agree with the runtime.

papi-lint's whole value rests on one claim: the verdict computed
*without executing* is the verdict the runtime would reach.  Two
halves of the linter are pinned here:

- **feasibility** (``repro.lint.check_events``): ``EventSet.add_event``
  calls in sequence either all succeed (set allocatable) or raise
  ``ConflictError`` at some prefix (set not allocatable).  Hypothesis
  drives random event subsets on every platform and pins the agreement
  in both directions, including the multiplexed variant;
- **lifecycle** (the typestate pass): random branching EventSet
  programs are run under every assignment of their conditions.  A line
  where every run that reaches it raises ``IsRunningError`` or
  ``NotRunningError`` must get PL001/PL002/PL007 in both modes; a line
  where only some do must get PL301/PL302 with ``flow=True``.
"""

import itertools
import sys

from hypothesis import given, settings, strategies as st

from repro.core.constants import PAPI_DOM_USER
from repro.core.errors import (
    ConflictError,
    IsRunningError,
    NotRunningError,
    PapiError,
)
from repro.core.library import Papi
from repro.core.presets import PLATFORM_PRESET_TABLES
from repro.lint import check_events, lint_source
from repro.platforms import PLATFORM_NAMES, create

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
@settings(max_examples=150, deadline=None)
def test_static_verdict_matches_runtime(case):
    platform, events = case
    report = check_events(events, platform)
    assert report.ok == runtime_adds_succeed(platform, events), (
        f"static says ok={report.ok} but the runtime disagrees for "
        f"{events} on {platform}"
    )


@given(platform_and_events())
@settings(max_examples=60, deadline=None)
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
@settings(max_examples=60, deadline=None)
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

#: the operations a drawn program is made of, one per line
LIFECYCLE_OPS = (
    "es.start()",
    "es.stop()",
    "es.read()",
    "es.reset()",
    'es.add_named("PAPI_TOT_CYC")',
    'es.remove_event(papi.event_name_to_code("PAPI_TOT_CYC"))',
    "es.set_domain(PAPI_DOM_USER)",
    "es.cleanup()",
)

MAX_ITEMS = 6
MAX_CONDITIONS = 4

EVERY_PATH_CODES = {"PL001", "PL002", "PL007"}
SOME_PATH_CODES = {"PL301", "PL302"}


@st.composite
def lifecycle_programs(draw):
    """``(source, conditions)``: a function ``program(papi, c, hit)``
    whose items are ``op``, ``if c[i]: op`` or ``if c[i]: op else: op``,
    each ``if`` on a fresh condition.  Every op line starts with
    ``hit()`` so a run records the lines it reaches."""
    op = st.sampled_from(LIFECYCLE_OPS)
    lines = [
        "def program(papi, c, hit):",
        "    es = papi.create_eventset()",
        '    es.add_named("PAPI_TOT_CYC")',
    ]
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
    namespace = {"PAPI_DOM_USER": PAPI_DOM_USER}
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
@settings(max_examples=200, deadline=None)
def test_lifecycle_verdicts_match_runtime(case):
    check_lifecycle_verdicts(*case)
