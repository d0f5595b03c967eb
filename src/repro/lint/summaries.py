"""Interprocedural function summaries for the flow-sensitive linter.

Instrumentation scripts routinely wrap counter control in helpers::

    def start_counters(es):
        es.start()

    def report(es):
        print(es.read())
        es.stop()

An intraprocedural analysis sees nothing wrong with either the helpers
(the parameter's state is unknown) or the call sites (the calls are
opaque).  This module closes the gap with per-function **summaries**:
for every module-level function, every parameter and every concrete
lifecycle state it may enter in, a summary records

- which misuse rules fire for that entry state, and
- the set of lifecycle states the parameter can be in on exit,

plus the lifecycle states of any EventSet the function returns, so
factory helpers (``def make(): es = papi.create_eventset(); ... ;
return es``) hand the caller a tracked object (a ``ret@`` id) instead
of an untyped value.

All of it comes from one typestate solve and one replay per function,
after IFDS (Reps, Horwitz and Sagiv, POPL 1995): every parameter's name
is bound to its unknown self (``param:i``) and to one *world* per entry
state (``param:i#created``, ``#running``, ``#stopped``).  A world is the
parameter as a solve seeded to that state sees it, because strong
updates and ``.running`` refinements count base objects, not worlds.
The worlds of one parameter share the environment, though: a refinement
that empties a world drops only the world, where the seeded solve drops
the whole path, and that path's assignments can then alias into the
other worlds at a join (``x = other; if es.running: x = es; x.stop()``
would report a stop() on the created world).  So a parameter that the
receiver of a ``.running`` test may be, at any test the replay meets --
refined or not, since a seeded solve can lack the paths that alias the
receiver to a second object -- takes its three effects from solves
seeded to each entry state instead (the guard).

The caller-side transfer (:mod:`repro.lint.typestate`) then plays a
call as a table lookup: violations become diagnostics at the call site
when at least one of the argument's possible states triggers them
(under their flow codes, even when every state does), and the
argument's state set is rewritten through the exit-state map.
Functions whose summary cannot be computed (recursion, too many
parameters) degrade soundly: calls to them set the argument's
``unknown`` bit, which silences downstream reports instead of
inventing them.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import CFG, build_cfg
from repro.lint.dataflow import solve
from repro.lint.typestate import (
    ALL_STATES,
    FlowFact,
    FunctionSummary,
    ParamEffect,
    TypestateAnalysis,
    eval_expr_values,
    param_id,
    world_id,
)

#: summaries are skipped above this arity.  It bounds the objects of a
#: summary's solve (four per parameter: its unknown self and three
#: worlds); raising it changes which helpers get summaries.
MAX_SUMMARY_PARAMS = 6


def collect_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Module-level plain functions, by name (latest definition wins)."""
    out: Dict[str, ast.FunctionDef] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            out[stmt.name] = stmt
    return out


def _called_names(fn: ast.FunctionDef) -> Set[str]:
    """Names of module-level functions *fn* may call (by bare name)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


def _topo_order(
    functions: Dict[str, ast.FunctionDef]
) -> Tuple[List[str], Set[str]]:
    """Callee-first ordering; members of call cycles are flagged.

    A function on a cycle gets no summary (calls to it havoc the
    arguments), which is the sound fallback for recursion.
    """
    callees = {
        name: _called_names(fn) & set(functions)
        for name, fn in functions.items()
    }
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = in progress, 2 = done
    cyclic: Set[str] = set()

    def visit(name: str) -> None:
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            cyclic.add(name)
            return
        state[name] = 1
        for callee in sorted(callees[name]):
            visit(callee)
        state[name] = 2
        order.append(name)

    for name in sorted(functions):
        visit(name)
    return order, cyclic


def _param_names(fn: ast.FunctionDef) -> List[str]:
    return [a.arg for a in fn.args.args]


def _replay(
    cfg: CFG, analysis: TypestateAnalysis, ins: Dict[int, FlowFact]
) -> Dict[str, List[Tuple[str, str]]]:
    """Re-run every node's transfer against its fixpoint IN fact; returns
    the ``(rule, method)`` violations reported, per object id."""
    found: Dict[str, List[Tuple[str, str]]] = {}

    def sink(rule, node, objid, message, hint, method):
        seen = found.setdefault(objid, [])
        if (rule, method) not in seen:
            seen.append((rule, method))

    analysis.sink = sink
    for node in cfg.stmt_nodes():
        analysis.transfer(node, ins[node.id])
    analysis.sink = None
    return found


def _effect(
    exit_in: FlowFact, oid: str, violations: List[Tuple[str, str]]
) -> ParamEffect:
    """One entry state's effect, from the object *oid* at the exit."""
    exit_fact = exit_in.objs_dict().get(oid)
    if exit_fact is not None and exit_fact.states:
        exit_states = exit_fact.state_names
    else:
        # no normal exit keeps the object for this entry state (the
        # function raises or loops on it): the caller's continuation
        # never sees it, so there is nothing to propagate.
        exit_states = frozenset()
    return ParamEffect(
        exit_states=exit_states,
        violations=tuple(violations),
        exit_unknown=exit_fact is not None and exit_fact.unknown,
    )


def _seeded_effect(
    cfg: CFG,
    summaries: Dict[str, FunctionSummary],
    params: List[str],
    index: int,
    entry_state: str,
) -> ParamEffect:
    """Solve with one parameter seeded to *entry_state* (the guard)."""
    oid = param_id(index)
    analysis = TypestateAnalysis(
        summaries, params, seed_param=(index, entry_state)
    )
    ins, _outs = solve(cfg, analysis)
    violations = _replay(cfg, analysis, ins).get(oid, [])
    return _effect(ins[cfg.exit], oid, violations)


def _returned_states(
    cfg: CFG, analysis: TypestateAnalysis, ins: Dict[int, FlowFact]
) -> Optional[FrozenSet[str]]:
    """Lifecycle states of an EventSet the function creates, or gets
    from a helper, and returns."""
    states: Set[str] = set()
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        vals, objs = eval_expr_values(analysis, ins[node.id], stmt.value)
        for val in vals:
            if not val.startswith(("es@", "ret@")) or val not in objs:
                continue
            if objs[val].unknown:
                return None  # nothing known: the caller gets no object
            states |= objs[val].state_names
    return frozenset(states) if states else None


def _summarize(
    name: str,
    cfg: CFG,
    summaries: Dict[str, FunctionSummary],
    params: List[str],
) -> FunctionSummary:
    """One solve with every parameter in every entry state at once."""
    analysis = TypestateAnalysis(summaries, params, worlds=True)
    ins, _outs = solve(cfg, analysis)
    analysis.world_tests.clear()
    violations = _replay(cfg, analysis, ins)
    summary = FunctionSummary(
        name=name, params=params,
        returns_states=_returned_states(cfg, analysis, ins),
    )
    for i in range(len(params)):
        if param_id(i) in analysis.world_tests:
            effects = {
                state: _seeded_effect(cfg, summaries, params, i, state)
                for state in sorted(ALL_STATES)
            }
        else:
            effects = {
                state: _effect(
                    ins[cfg.exit], world_id(i, state),
                    violations.get(world_id(i, state), []),
                )
                for state in sorted(ALL_STATES)
            }
        # only keep effects that actually constrain the caller:
        # identity transfers with no violations are noise.
        if any(
            e.violations or e.exit_states != frozenset({s})
            for s, e in effects.items()
        ):
            summary.effects[i] = effects
    return summary


def compute_summaries(
    functions: Dict[str, ast.FunctionDef]
) -> Dict[str, FunctionSummary]:
    """Summaries for every summarizable module-level function."""
    order, cyclic = _topo_order(functions)
    summaries: Dict[str, FunctionSummary] = {}
    for name in order:
        if name in cyclic:
            continue
        fn = functions[name]
        params = _param_names(fn)
        if len(params) > MAX_SUMMARY_PARAMS:
            continue
        try:
            cfg = build_cfg(fn.body)
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        summary = _summarize(name, cfg, summaries, params)
        if summary.effects or summary.returns_states is not None:
            summaries[name] = summary
    return summaries
