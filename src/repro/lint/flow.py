"""The flow-sensitive lint pass: every rule about PAPI objects (run
state, membership and configuration, event names, feasibility,
swallowed errors, PL3xx/PL4xx).  Per scope (the module body and every
function body, nested included):

1. build the CFG (:mod:`repro.lint.cfg`);
2. run the typestate analysis to fixpoint (:mod:`repro.lint.dataflow` /
   :mod:`repro.lint.typestate`) with interprocedural summaries
   (:mod:`repro.lint.summaries`) for module-level helpers;
3. replay every node's transfer against its final IN fact with a
   diagnostic sink attached (the rules fire inside transfers, the
   every-path ones under the codes of
   :data:`repro.lint.typestate.MUST_CODES`; only this replay consults
   the platform tables);
4. inspect the scope's exit facts for leaks: a set or ``HighLevel``
   created in the scope still running at a normal exit (PL008), a
   ``PapidClient`` created in it still open there (PL018); for any other
   set, one still running at exit on an exception-tainted path (PL303),
   or still running after an exception-path ``finally`` ran (PL304);
5. PL017: a ``try`` whose body the replay saw call a method of a PAPI
   object, with a broad handler that only passes.

Plus one syntactic rule, PL305: a loop whose ``except`` catches only
*fatal* PAPI error classes (from :mod:`repro.core.errors`) and whose
handler neither re-raises, breaks, returns nor adapts the request is a
blind retry of a request that can never succeed -- the recovery ladder
(:mod:`repro.core.resilience`) exists precisely so scripts do not do
this by hand.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import FATAL_ERROR_NAMES
from repro.lint.cfg import build_cfg, handler_names
from repro.lint.dataflow import solve
from repro.lint.diagnostics import Diagnostic
from repro.lint.summaries import collect_functions, compute_summaries
from repro.lint.typestate import (
    EVENT_RULES,
    OPEN,
    RUNNING,
    TypestateAnalysis,
    is_client,
    is_eventset,
    is_local_eventset,
    module_constants,
    site_line,
)

class _Findings:
    """The module's diagnostics, each reported once: per rule and
    position, and per message for :data:`EVENT_RULES` (one call can
    name several events)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.diagnostics: List[Diagnostic] = []
        self._seen: Set[Tuple[str, int, int, str]] = set()

    def add(self, rule: str, line: int, col: int, message: str,
            hint: str = "") -> None:
        key = (rule, line, col, message if rule in EVENT_RULES else "")
        if key not in self._seen:
            self._seen.add(key)
            self.diagnostics.append(Diagnostic(
                rule, self.path, line, col, message, hint=hint,
            ))


def lint_flow(
    tree: ast.Module, path: str, default_platform: Optional[str] = None
) -> List[Diagnostic]:
    """Run the flow-sensitive pass over one parsed module.

    *default_platform* is the platform of a set whose library pins none
    (the CLI's ``--platform``).
    """
    functions = collect_functions(tree)
    summaries = compute_summaries(functions)
    constants = module_constants(tree)

    scopes: List[Tuple[Sequence[ast.stmt], List[str]]] = [(tree.body, [])]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.body, [a.arg for a in node.args.args]))

    out = _Findings(path)
    for body, params in scopes:
        _analyze_scope(body, TypestateAnalysis(
            summaries, params, constants=constants,
            default_platform=default_platform,
        ), out)
    _check_recovery_ladder(tree, out)
    return out.diagnostics


# ---------------------------------------------------------------------------
# one scope
# ---------------------------------------------------------------------------


def _analyze_scope(
    body: Sequence[ast.stmt], analysis: TypestateAnalysis, out: _Findings
) -> None:
    cfg = build_cfg(body)
    ins, outs = solve(cfg, analysis)

    def sink(rule, node, objid, message, hint, method):
        out.add(rule, node.line, node.col, message, hint)

    # replay transfers against the fixpoint IN facts to collect reports
    analysis.sink, analysis.checks = sink, True
    for node in cfg.stmt_nodes():
        analysis.transfer(node, ins[node.id])
    analysis.sink, analysis.checks = None, False

    _leak_checks(cfg, ins, outs, out)
    _swallowed_errors(analysis.papi_tries, out)


def _leak_checks(
    cfg, ins: Dict[int, object], outs: Dict[int, object], out: _Findings
) -> None:
    """PL008 (never stopped) and PL018 (never closed), else PL303
    (swallowed-exception leak) and PL304 (finally misses stop)."""

    def emit(rule: str, line: int, message: str, hint: str) -> None:
        out.add(rule, line, 0, message, hint)

    never_stopped: Set[str] = set()
    exit_fact = ins[cfg.exit]
    if exit_fact.objs:
        for oid, fact in exit_fact.objs_dict().items():
            if is_client(oid) and fact.holds(OPEN, False):
                emit(
                    "PL018", site_line(oid),
                    "PapidClient is constructed here but neither used as "
                    "a context manager nor close()d on every path of "
                    "this scope",
                    "a departing client must close() so its owned daemon "
                    "sessions are stopped and destroyed",
                )
            if not is_eventset(oid) or not fact.started_lines:
                continue
            if fact.unknown:
                continue  # nothing known: stay silent
            if is_local_eventset(oid) and fact.holds(RUNNING, False):
                never_stopped.add(oid)
                emit(
                    "PL008", max(fact.started_lines),
                    "EventSet is started here but never stopped in this "
                    "scope",
                    "stop() releases the hardware counters",
                )
            elif fact.holds(RUNNING, True):
                emit(
                    "PL303", min(fact.started_lines),
                    "EventSet started here may still be running when "
                    "the scope exits: an exception handler on the way "
                    "swallows the error and never stops the set",
                    "stop() in the handler or in a finally; counters "
                    "stay acquired until stop()",
                )

    preds = cfg.preds()
    for src, _kind in preds[cfg.raise_exit]:
        node = cfg.nodes[src]
        if node.kind != "finally_exc":
            continue
        after = outs[src]
        if not after.objs:
            continue
        for oid, fact in after.objs_dict().items():
            if not is_eventset(oid) or not fact.started_lines:
                continue
            if fact.unknown or oid in never_stopped:
                continue
            if RUNNING in fact.state_names:
                emit(
                    "PL304", min(fact.started_lines),
                    "an exception escaping the enclosing try leaves "
                    "the EventSet started here running; the finally "
                    "block does not stop it",
                    "add stop() (guarded by is_running) to the "
                    "finally block",
                )


# ---------------------------------------------------------------------------
# PL017: a broad handler that swallows the errors of PAPI calls
# ---------------------------------------------------------------------------

#: handler types broad enough to hide *which* PAPI error occurred.
#: Catching a specific subclass (ConflictError, NoSuchEventError...)
#: names the expected failure and is the guard idiom the other rules
#: honour; catching the base class or wider hides the error code.
_BROAD_CATCHES = frozenset({"PapiError", "Exception", "BaseException"})


def _swallowed_errors(papi_tries: Set[ast.Try], out: _Findings) -> None:
    """PL017: a broad handler with a pass-only body around PAPI calls.

    ``except PapiError: pass`` (or a bare ``except``) around counter
    calls discards the error code, and with it the difference between
    "event unavailable here" and "your counts are wrong" (PAPI_ECLOST).
    A handler that does *anything* with the exception -- logs it,
    inspects ``exc.code``, re-raises -- shows intent and is left alone.
    *papi_tries* are the ``try`` statements whose body the report pass
    saw call a method of a ``Papi``, EventSet, ``HighLevel`` or papid
    client.
    """
    for stmt in papi_tries:
        for handler in stmt.handlers:
            names = handler_names(handler)
            if not names & _BROAD_CATCHES or not all(
                isinstance(s, ast.Pass)
                or (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant))
                for s in handler.body
            ):
                continue
            caught = (
                "bare except" if handler.type is None
                else "except " + ", ".join(sorted(names))
            )
            out.add(
                "PL017", handler.lineno, handler.col_offset,
                f"{caught}: pass swallows PAPI errors from the calls above "
                f"without inspecting the error code",
                "catch the specific PapiError subclass you expect, or "
                "check exc.code -- PAPI_ECLOST here means the counts are "
                "silently wrong",
            )


# ---------------------------------------------------------------------------
# PL305: blind retry of fatal error classes
# ---------------------------------------------------------------------------


def _handler_is_blind(handler: ast.ExceptHandler) -> bool:
    """No re-raise/break/return and no call: nothing can change the
    outcome of the retried request."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Break, ast.Return,
                                 ast.Call)):
                return False
    return True


def _check_recovery_ladder(tree: ast.Module, out: _Findings) -> None:
    """PL305 on the handlers of every ``try`` inside a loop.

    One pass over the module: the search outside loops stops at each
    outermost loop, whose subtree is then walked once, so each handler
    is checked once however deeply its loops nest.
    """
    loops, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.While, ast.For)):
            loops.append(node)
        else:
            todo.extend(ast.iter_child_nodes(node))
    for node in (n for loop in loops for n in ast.walk(loop)):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            names = handler_names(handler)
            if not names or not names <= FATAL_ERROR_NAMES:
                continue
            if not _handler_is_blind(handler):
                continue
            caught = "/".join(sorted(names))
            out.add(
                "PL305", handler.lineno, handler.col_offset,
                f"loop retries after catching {caught}, a fatal "
                f"PAPI error class that cannot clear on its own",
                "fatal errors need the request changed (or "
                "surfaced); only transient errors "
                "(SystemError_, CountersLostError) belong in "
                "a retry loop -- see repro.core.resilience",
            )
