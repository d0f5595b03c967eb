"""The flow-sensitive lint pass: every run-state rule (PL001/002/004/
005/007/008/013/014/015/016/018, PL3xx, PL4xx).

Per scope (the module body and every function body, nested included):

1. build the CFG (:mod:`repro.lint.cfg`);
2. run the typestate analysis to fixpoint (:mod:`repro.lint.dataflow` /
   :mod:`repro.lint.typestate`) with interprocedural summaries
   (:mod:`repro.lint.summaries`) for module-level helpers;
3. replay every node's transfer against its final IN fact with a
   diagnostic sink attached (the run-state, overlap, multiplexed-run,
   attach and binding rules fire inside transfers, the lifecycle ones
   under the codes of :data:`repro.lint.typestate.MUST_CODES`);
4. inspect the scope's exit facts for leaks: a set or ``HighLevel``
   created in the scope still running at a normal exit (PL008), a
   ``PapidClient`` created in it still open there (PL018); for any other
   set, one still running at exit on an exception-tainted path (PL303),
   or still running after an exception-path ``finally`` ran (PL304).

Plus one syntactic rule, PL305: a loop whose ``except`` catches only
*fatal* PAPI error classes (from :mod:`repro.core.errors`) and whose
handler neither re-raises, breaks, returns nor adapts the request is a
blind retry of a request that can never succeed -- the recovery ladder
(:mod:`repro.core.resilience`) exists precisely so scripts do not do
this by hand.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.errors import FATAL_ERROR_NAMES
from repro.lint.cfg import build_cfg, handler_names
from repro.lint.dataflow import solve
from repro.lint.diagnostics import Diagnostic
from repro.lint.summaries import collect_functions, compute_summaries
from repro.lint.typestate import (
    OPEN,
    RUNNING,
    TypestateAnalysis,
    is_client,
    is_eventset,
    is_local_eventset,
    site_line,
)

_SeenKey = Tuple[str, int, int]


def lint_flow(tree: ast.Module, path: str) -> List[Diagnostic]:
    """Run the flow-sensitive pass over one parsed module."""
    functions = collect_functions(tree)
    summaries = compute_summaries(functions)

    scopes: List[Tuple[Sequence[ast.stmt], List[str]]] = [(tree.body, [])]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.body, [a.arg for a in node.args.args]))

    diagnostics: List[Diagnostic] = []
    seen: Set[_SeenKey] = set()
    for body, params in scopes:
        diagnostics.extend(
            _analyze_scope(body, params, summaries, path, seen)
        )
    diagnostics.extend(_check_recovery_ladder(tree, path, seen))
    return diagnostics


# ---------------------------------------------------------------------------
# one scope
# ---------------------------------------------------------------------------


def _analyze_scope(
    body: Sequence[ast.stmt],
    params: List[str],
    summaries,
    path: str,
    seen: Set[_SeenKey],
) -> List[Diagnostic]:
    cfg = build_cfg(body)
    analysis = TypestateAnalysis(summaries, params)
    ins, outs = solve(cfg, analysis)

    found: List[Diagnostic] = []

    def sink(rule, node, objid, message, hint, method):
        key = (rule, node.line, node.col)
        if key in seen:
            return
        seen.add(key)
        found.append(Diagnostic(
            rule, path, node.line, node.col, message, hint=hint,
        ))

    # replay transfers against the fixpoint IN facts to collect reports
    analysis.sink = sink
    for node in cfg.stmt_nodes():
        analysis.transfer(node, ins[node.id])
    analysis.sink = None

    found.extend(_leak_checks(cfg, ins, outs, path, seen))
    return found


def _leak_checks(
    cfg, ins: Dict[int, object], outs: Dict[int, object], path: str,
    seen: Set[_SeenKey],
) -> List[Diagnostic]:
    """PL008 (never stopped) and PL018 (never closed), else PL303
    (swallowed-exception leak) and PL304 (finally misses stop)."""
    found: List[Diagnostic] = []

    def emit(rule: str, line: int, message: str, hint: str) -> None:
        key = (rule, line, 0)
        if key in seen:
            return
        seen.add(key)
        found.append(Diagnostic(rule, path, line, 0, message, hint=hint))

    never_stopped: Set[str] = set()
    exit_fact = ins[cfg.exit]
    if exit_fact.objs:
        for oid, fact in exit_fact.objs_dict().items():
            if is_client(oid) and (OPEN, False) in fact.states:
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
            if is_local_eventset(oid) and (RUNNING, False) in fact.states:
                never_stopped.add(oid)
                emit(
                    "PL008", max(fact.started_lines),
                    "EventSet is started here but never stopped in this "
                    "scope",
                    "stop() releases the hardware counters",
                )
            elif (RUNNING, True) in fact.states:
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
    return found


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


def _check_recovery_ladder(
    tree: ast.Module, path: str, seen: Set[_SeenKey]
) -> List[Diagnostic]:
    found: List[Diagnostic] = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                names = handler_names(handler)
                if not names or not names <= FATAL_ERROR_NAMES:
                    continue
                if not _handler_is_blind(handler):
                    continue
                key = ("PL305", handler.lineno, handler.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                caught = "/".join(sorted(names))
                found.append(Diagnostic(
                    "PL305", path, handler.lineno, handler.col_offset,
                    f"loop retries after catching {caught}, a fatal "
                    f"PAPI error class that cannot clear on its own",
                    hint="fatal errors need the request changed (or "
                         "surfaced); only transient errors "
                         "(SystemError_, CountersLostError) belong in "
                         "a retry loop -- see repro.core.resilience",
                ))
    return found
