"""Typestate lattice and transfer functions for the flow-sensitive linter.

This is papi-lint's one abstract interpreter of PAPI objects: `Papi`
libraries, EventSet and ``HighLevel`` lifecycles, what each set holds
and how it counts, overlapping sets, multiplexed runs, papid clients
and thread/counter binding.  Per control-flow point it tracks:

- an **environment** mapping variable names to sets of abstract values
  (creation sites, parameters, ``create("...")`` substrates, PMU
  references, and the strings or string lists an assignment binds,
  which name events);
- per object an :class:`ObjFact`: one element per distinct path state
  -- lifecycle state, whether an exception edge reached it, and for a
  set created in the scope its :class:`~repro.lint.membership.Config`
  -- an ``unknown`` bit, the library it was made from, and thread
  attachment, ``bind_cpu`` and counter-binding facts;
- per ``Papi(...)`` object a :class:`LibFact`: its platform, the
  components checked on every path, and where each interface was used.

A ``HighLevel(...)`` is tracked like a set created in the scope
(``hl@line:col``): ``start_counters``/``read_counters``/
``accum_counters``/``stop_counters`` take the ``start``/``read``/
``accum``/``stop`` transfers (:data:`HIGHLEVEL_METHODS`); those names
on any other receiver take none.  A ``PapidClient(...)`` is open until
it is closed, entered in a ``with``, or escapes (returned, stored on an
attribute or item, or passed to a call).  A set's library follows
aliases (``p2 = papi``); an untracked receiver is named by its source
text, the way threads are.

Everything is a finite powerset, and joins are elementwise unions
(except ``must_attached``, ``must_bound`` and a library's checked
components, which intersect, and ``unknown``, which ors).  An element
carries a whole path's config, so a rule sees the paths on which a set
is stopped *and* holds an event.  The transfers are not monotone in a
name's alias set: a strong update and a ``.running`` refinement apply
only while the name may denote one object; the solver's loop-head rule
(:mod:`repro.lint.dataflow`) makes the worklist terminate.

A summary's solve (:mod:`repro.lint.summaries`) also binds every
parameter's name to one *world* per entry state, ``param:i#<state>``:
the parameter as a solve seeded to that state sees it.  Strong updates
and refinements count base objects (a parameter and its worlds are one),
and a refinement that empties a world drops it instead of the path.

Rule logic lives here too: after the fixpoint, a report pass re-runs
every node's transfer against its final IN fact with a diagnostic sink
attached.  Which code a violation gets is one table,
:data:`MUST_CODES`: a violation that holds on every path of a set
created in the scope takes its PL0xx code; one that holds on some paths
only, or on a parameter or a helper-returned set, keeps its PL3xx/PL4xx
code.  The runtime's membership errors split the same way: a duplicate
add (PL012) or overflow with multiplexing (PL009) on every path, else
PL306.  A path on which a call raises ends there.  The platform-table
checks (event names, feasibility) run in a scope's report pass only
(:attr:`TypestateAnalysis.checks`).  Objects whose ``unknown`` bit is
set (parameters and arguments of an unknown callee, until an operation
on them succeeds) are never reported.  A lambda's body runs when
something calls it: the objects it names are handed off like an
unknown callee's arguments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import Node
from repro.lint.dataflow import Analysis
from repro.lint.membership import (
    ADD_METHODS,
    CONFIG_METHODS,
    NEW_SET,
    Config,
    Finding,
    add_conflict,
    added_names,
    component_overflow,
    event_name,
    highlevel_conflict,
    highlevel_names,
    name_findings,
    start_findings,
)
from repro.lint.rules import guarded

# -- lifecycle states ---------------------------------------------------

CREATED = "created"
RUNNING = "running"
STOPPED = "stopped"

ALL_STATES = frozenset({CREATED, RUNNING, STOPPED})

#: a PapidClient's states
OPEN = "open"
CLOSED = "closed"

#: (state, via_exception, config) elements of a fully unknown object
UNKNOWN_ELEMENTS = frozenset((s, False, None) for s in ALL_STATES)

#: EventSet methods that require the set to be running.
REQUIRES_RUNNING = frozenset({"read", "stop", "reset", "accum"})

#: EventSet methods that require the set NOT to be running (the runtime
#: raises IsRunningError for each, ``bind_cpu`` included).
REQUIRES_STOPPED = frozenset({
    "start", "add_event", "add_events", "add_named", "remove_event",
    "cleanup", "set_multiplex", "set_domain", "attach", "detach",
    "overflow", "bind_cpu",
})

#: HighLevel method -> the EventSet method whose transfer it takes
HIGHLEVEL_METHODS = {
    "start_counters": "start",
    "read_counters": "read",
    "accum_counters": "accum",
    "stop_counters": "stop",
}

#: HighLevel methods that count through the high-level interface (PL006)
HIGHLEVEL_USES = frozenset({"start_counters", "flops", "flips", "ipc"})

#: below this many instructions, a multiplexed run has too few timer
#: rotations for the time-slice extrapolation to converge (the E3
#: regime where estimates are badly wrong).  Default quantum is 5000
#: cycles; tens of rotations are needed to average over phases.
MIN_MPX_RUN_INSTRUCTIONS = 50_000

#: OS-level virtualized-counter operations requiring a prior bind.
OS_COUNTER_OPS = frozenset({
    "counter_start", "counter_stop", "counter_value", "unbind_counter",
})

#: The code rule: flow rule -> method -> the PL0xx code a violation is
#: reported under when it holds on every path of a set created in the
#: scope (for ``bind_counter``: when the other thread holds the index on
#: every path).  Every other violation keeps its flow code, and so does
#: every violation on a parameter, on a helper-returned set, or seen
#: only through a helper's summary.  ``bind_cpu`` has no PL0xx twin.
MUST_CODES: Dict[str, Dict[str, str]] = {
    "PL301": dict.fromkeys(REQUIRES_RUNNING, "PL001"),
    "PL302": {
        **dict.fromkeys(REQUIRES_STOPPED - {"bind_cpu"}, "PL007"),
        "start": "PL002",
        "overflow": "PL005",
        "attach": "PL014",
        "detach": "PL014",
    },
    "PL401": {"attach": "PL015", "bind_counter": "PL016"},
    "PL306": {
        **dict.fromkeys(ADD_METHODS, "PL012"),
        "set_multiplex": "PL009",
        "overflow": "PL009",
    },
}

#: PL0xx code -> (message template, hint) of its every-path findings
MUST_WORDING: Dict[str, Tuple[str, str]] = {
    "PL001": ("{call}() on an EventSet that {state}",
              "call start() first"),
    "PL002": ("{call}() on an EventSet that is already running",
              "stop() it first"),
    "PL005": ("overflow registered while the EventSet is running",
              "register before start() for portable behaviour"),
    "PL007": ("{call} on a running EventSet", "stop() it first"),
    "PL014": ("{call} on a running EventSet",
              "stop() it first; per-thread counters cannot be re-homed "
              "mid-run"),
    "PL015": ("EventSet is re-attached to a different thread without "
              "detach",
              "detach() first; re-attaching discards the first thread's "
              "virtual counts"),
    "PL016": ("counter {index} is bound here but was already bound to "
              "another thread",
              "unbind_counter() first, or use a different index (a "
              "counter register is exclusive machine-wide)"),
    "PL009": ("{call}() combines overflow and multiplexing on one EventSet",
              "overflow interrupts and time-slicing are exclusive"),
    "PL012": ("event {event} is already in this EventSet", ""),
}

#: configuration method -> what the set holds on a path PL306 names
PL306_HOLDS = {
    **dict.fromkeys(ADD_METHODS, "{event}"),
    "set_multiplex": "an overflow registration",
    "overflow": "multiplexing",
}

#: rules whose finding names one event: one call can make several
EVENT_RULES = frozenset({"PL010", "PL011", "PL012", "PL019", "PL306"})


# -- abstract values ----------------------------------------------------

PMU_VALUE = "pmu"

#: what a name assigned an untracked value holds, so that a join with a
#: tracked set remembers the path where the name is something else.
UNTRACKED = frozenset({"untracked"})

#: a ``create("...")`` result: ``sub:<platform>`` (empty when the
#: platform is not a literal)
SUBSTRATE = "sub:"
#: a string or a list of strings an assignment binds: ``lit:<repr>``
LITERAL = "lit:"

#: values whose method calls are PAPI calls (PL017)
PAPI_OBJECTS = ("lib@", "es@", "hl@", "client@")


def string_literal(node: ast.expr) -> Optional[object]:
    """A string, or a tuple of the strings a list or tuple literal holds."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, (ast.List, ast.Tuple)) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str)
        for e in node.elts
    ):
        return tuple(e.value for e in node.elts)  # type: ignore[union-attr]
    return None


def module_constants(tree: ast.Module) -> Dict[str, object]:
    """Module-level names bound to event names or lists of them; every
    scope resolves a name it has not bound through these."""
    return {
        stmt.targets[0].id: string_literal(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and string_literal(stmt.value) is not None
    }


def site_id(kind: str, node: ast.AST) -> str:
    """The object made at *node*: ``es@line:col`` (``create_eventset``),
    ``hl@`` (``HighLevel``), ``lib@`` (``Papi``), ``client@``
    (``PapidClient``), ``thread@`` (``spawn``) or ``ret@`` (a set a
    helper's summary hands back)."""
    return f"{kind}@{node.lineno}:{node.col_offset}"


def site_line(val: str) -> int:
    """The source line of a creation site's id (0 for a parameter)."""
    return int(val.partition("@")[2].partition(":")[0] or 0)


def param_id(index: int) -> str:
    return f"param:{index}"


def world_id(index: int, state: str) -> str:
    """Parameter *index* as it is when it entered in *state*."""
    return f"param:{index}#{state}"


def base_object(val: str) -> str:
    """The object a world stands for; any other value is its own."""
    return val.partition("#")[0]


def is_eventset(val: str) -> bool:
    return val.startswith(("es@", "hl@", "ret@", "param:"))


def is_local_eventset(val: str) -> bool:
    """Created by ``create_eventset`` or ``HighLevel`` in the scope
    under analysis."""
    return val.startswith(("es@", "hl@"))


def is_client(val: str) -> bool:
    return val.startswith("client@")


def is_library(val: str) -> bool:
    """A tracked ``Papi(...)`` object."""
    return val.startswith("lib@")


#: calls that make a tracked object (bare or attribute form): the kind
#: of its id and the state it starts in
CONSTRUCTORS = {
    "create_eventset": ("es", CREATED),
    "HighLevel": ("hl", CREATED),
    "PapidClient": ("client", OPEN),
}


def is_thread(val: str) -> bool:
    """A tracked ``spawn()`` result, or a thread named by source text."""
    return val.startswith(("thread@", "thread:"))


# -- facts --------------------------------------------------------------


@dataclass(frozen=True)
class ObjFact:
    """May-facts about one abstract object (creation site or parameter)."""

    #: one element per distinct path state: (lifecycle state, reached
    #: via an exception edge, :class:`Config`).  The config is what a
    #: set created in the scope holds on that path; None elsewhere.
    states: FrozenSet[Tuple[str, bool, Optional[Config]]] = frozenset()
    #: nothing is known about the lifecycle (a parameter, or an argument
    #: of an unknown callee) until an operation on it succeeds; rules
    #: stay silent on such an object
    unknown: bool = False
    #: what a set or ``HighLevel`` was made from: ``lib@`` objects,
    #: parameters, or an untracked receiver's source text (``text:``)
    library: FrozenSet[str] = frozenset()
    #: thread identities this EventSet may currently be attached to
    attached: FrozenSet[str] = frozenset()
    #: thread identities it is attached to on EVERY path
    must_attached: FrozenSet[str] = frozenset()
    #: bind_cpu() was called on some path (suppresses sharing hazards)
    bound_cpu: bool = False
    #: source lines where start() was observed (for report anchoring)
    started_lines: FrozenSet[int] = frozenset()
    #: counter indices that MAY be os.bind_counter-bound to this thread
    may_bound: FrozenSet[int] = frozenset()
    #: counter indices bound on EVERY path reaching this point
    must_bound: FrozenSet[int] = frozenset()

    def join(self, other: "ObjFact") -> "ObjFact":
        if self == other:
            return self  # most joins: both paths agree
        return ObjFact(
            states=self.states | other.states,
            unknown=self.unknown or other.unknown,
            library=self.library | other.library,
            attached=self.attached | other.attached,
            must_attached=self.must_attached & other.must_attached,
            bound_cpu=self.bound_cpu or other.bound_cpu,
            started_lines=self.started_lines | other.started_lines,
            may_bound=self.may_bound | other.may_bound,
            must_bound=self.must_bound & other.must_bound,
        )

    def mark_exceptional(self) -> "ObjFact":
        return replace(self, states=frozenset(
            (s, True, cfg) for s, _via, cfg in self.states
        ))

    @property
    def state_names(self) -> FrozenSet[str]:
        return frozenset(e[0] for e in self.states)

    def holds(self, state: str, via: bool) -> bool:
        """Some path reaches here in *state*, through an exception edge
        or not as *via* says."""
        return any(e[0] == state and e[1] == via for e in self.states)


@dataclass(frozen=True)
class LibFact:
    """Facts about one ``Papi(...)`` library object."""

    #: from the ``create("...")`` literal it was made over
    platform: Optional[str] = None
    #: components whose registration was checked on every path
    checked: FrozenSet[str] = frozenset()
    #: the component registry was enumerated on every path
    all_checked: bool = False
    #: lines of high-level uses and of low-level starts on some path
    high: FrozenSet[int] = frozenset()
    low: FrozenSet[int] = frozenset()

    def join(self, other: "LibFact") -> "LibFact":
        if self == other:
            return self
        return LibFact(
            platform=self.platform if self.platform == other.platform
            else None,
            checked=self.checked & other.checked,
            all_checked=self.all_checked and other.all_checked,
            high=self.high | other.high,
            low=self.low | other.low,
        )

    def mark_exceptional(self) -> "LibFact":
        return self


@dataclass(frozen=True)
class FlowFact:
    """One program point's abstract state (immutable; value-compared)."""

    env: Tuple[Tuple[str, FrozenSet[str]], ...] = ()
    #: ``lib@`` ids map to a :class:`LibFact`, every other id to an
    #: :class:`ObjFact`
    objs: Tuple[Tuple[str, ObjFact], ...] = ()
    #: the join identity ("this point not reached yet") -- distinct
    #: from an empty-but-reachable fact, which tracks nothing yet but
    #: must still flow through transfers.
    is_bottom: bool = False

    @staticmethod
    def make(
        env: Dict[str, FrozenSet[str]], objs: Dict[str, ObjFact]
    ) -> "FlowFact":
        return FlowFact(
            env=tuple(sorted(env.items())),
            objs=tuple(sorted(objs.items())),
        )

    def env_dict(self) -> Dict[str, FrozenSet[str]]:
        return dict(self.env)

    def objs_dict(self) -> Dict[str, ObjFact]:
        return dict(self.objs)


BOTTOM = FlowFact(is_bottom=True)


def join_facts(a: FlowFact, b: FlowFact) -> FlowFact:
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    env_a, env_b = a.env_dict(), b.env_dict()
    env = {
        name: env_a.get(name, frozenset()) | env_b.get(name, frozenset())
        for name in set(env_a) | set(env_b)
    }
    objs_a, objs_b = a.objs_dict(), b.objs_dict()
    objs: Dict[str, ObjFact] = {}
    for oid in set(objs_a) | set(objs_b):
        if oid in objs_a and oid in objs_b:
            objs[oid] = objs_a[oid].join(objs_b[oid])
        elif oid.startswith("thread:"):
            # a thread named by source text exists on every path; where
            # it has no fact yet, nothing is bound to it
            objs[oid] = (objs_a.get(oid) or objs_b[oid]).join(ObjFact())
        else:
            objs[oid] = objs_a.get(oid) or objs_b[oid]
    return FlowFact.make(env, objs)


def uniform_config(elems) -> Optional[Config]:
    """The config a set has on every path, when its members and
    multiplexing agree and every member is known; else None."""
    views = {cfg[:3] if cfg is not None else None for _s, _v, cfg in elems}
    if len(views) != 1 or None in views:
        return None
    cfg = next(iter(elems))[2]
    return None if cfg.opaque or not cfg.members else cfg


# -- interprocedural summaries -----------------------------------------


@dataclass(frozen=True)
class ParamEffect:
    """Effect of calling a function on one parameter, per entry state."""

    exit_states: FrozenSet[str]
    #: (rule code, method name) misuses triggered for this entry state
    violations: Tuple[Tuple[str, str], ...] = ()
    #: the function hands the parameter to an unknown callee
    exit_unknown: bool = False


@dataclass
class FunctionSummary:
    """Net typestate effect of one module-level function."""

    name: str
    params: List[str]
    #: param index -> entry state -> effect
    effects: Dict[int, Dict[str, ParamEffect]] = field(default_factory=dict)
    #: lifecycle states of a locally created EventSet this fn returns
    returns_states: Optional[FrozenSet[str]] = None


# -- the analysis -------------------------------------------------------

#: a sink receives (rule, node, objid, message, hint, method)
Sink = Callable[[str, Node, str, str, str, str], None]


class TypestateAnalysis(Analysis[FlowFact]):
    """Forward may-analysis of PAPI object lifecycles over one scope."""

    def __init__(
        self,
        summaries: Optional[Dict[str, FunctionSummary]] = None,
        param_names: Optional[List[str]] = None,
        seed_param: Optional[Tuple[int, str]] = None,
        worlds: bool = False,
        constants: Optional[Dict[str, object]] = None,
        default_platform: Optional[str] = None,
    ) -> None:
        self.summaries = summaries or {}
        self.param_names = param_names or []
        self.seed_param = seed_param
        self.worlds = worlds
        #: module-level event names (:func:`module_constants`)
        self.constants = constants or {}
        #: the platform of a set whose library pins none (``--platform``)
        self.default_platform = default_platform
        #: parameters (``param:i``) whose worlds the receiver of a
        #: ``.running`` test may be (the summaries' guard)
        self.world_tests: Set[str] = set()
        self.sink: Optional[Sink] = None
        #: set for a scope's report pass: the rules that read the
        #: platform tables (event names, feasibility) and PL017's call
        #: record run only then, not in a summary's replay
        self.checks = False
        #: the ``try`` statements whose body calls a method of a PAPI
        #: object (PL017)
        self.papi_tries: Set[ast.Try] = set()
        #: the CFG node whose transfer runs; reports are anchored at it
        self.node: Optional[Node] = None

    # -- lattice hooks -------------------------------------------------

    def initial(self) -> FlowFact:
        env: Dict[str, FrozenSet[str]] = {}
        objs: Dict[str, ObjFact] = {}
        for i, name in enumerate(self.param_names):
            oid = param_id(i)
            env[name] = frozenset({oid})
            if self.seed_param is not None and self.seed_param[0] == i:
                objs[oid] = ObjFact(
                    states=frozenset({(self.seed_param[1], False, None)})
                )
            else:
                objs[oid] = ObjFact(states=UNKNOWN_ELEMENTS, unknown=True)
            if self.worlds:
                for state in ALL_STATES:
                    wid = world_id(i, state)
                    env[name] |= {wid}
                    objs[wid] = ObjFact(
                        states=frozenset({(state, False, None)})
                    )
        return FlowFact.make(env, objs)

    def bottom(self) -> FlowFact:
        return BOTTOM

    def join(self, a: FlowFact, b: FlowFact) -> FlowFact:
        return join_facts(a, b)

    def exc_adapt(self, fact: FlowFact) -> FlowFact:
        """Facts crossing an exception edge get their via-exc bit set."""
        if fact.is_bottom:
            return fact
        objs = {
            oid: f.mark_exceptional() for oid, f in fact.objs_dict().items()
        }
        return FlowFact.make(fact.env_dict(), objs)

    # -- transfer ------------------------------------------------------

    def transfer(self, node: Node, fact: FlowFact) -> FlowFact:
        if node.stmt is None or fact.is_bottom:
            return fact
        self.node = node
        if node.kind in ("assume_true", "assume_false"):
            return self._refine(node, fact)
        interp = _StmtInterpreter(self, fact)
        interp.run(node.stmt)
        return interp.result()

    def _refine(self, node: Node, fact: FlowFact) -> FlowFact:
        """Path-sensitive narrowing from ``if es.running:`` style tests.

        Only the ``<expr>.running`` idiom (optionally negated) refines;
        any other condition leaves the fact unchanged.  A refinement
        that empties an object's state set proves the branch infeasible
        and returns bottom, so the join ignores it; one that empties a
        world only drops that world.
        """
        test = node.stmt.test  # type: ignore[union-attr]
        truth = node.kind == "assume_true"
        while isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            test, truth = test.operand, not truth
        if not (isinstance(test, ast.Attribute) and test.attr == "running"):
            return fact
        interp = _StmtInterpreter(self, fact)
        values = interp.eval(test.value)
        self.world_tests.update(
            base_object(v) for v in values if v != base_object(v)
        )
        receivers = [
            v for v in values if is_eventset(v) and v in interp.objs
        ]
        bases = {base_object(v) for v in receivers}
        if len(bases) != 1 or not all(is_eventset(v) for v in values):
            return fact  # aliased or untracked: refinement unsound
        for oid in receivers:
            old = interp.objs[oid]
            kept = frozenset(
                e for e in old.states if (e[0] == RUNNING) == truth
            )
            if kept:
                interp.objs[oid] = replace(old, states=kept, unknown=False)
            elif oid in bases:
                return BOTTOM  # contradiction: this branch cannot be taken
            else:
                del interp.objs[oid]  # this entry state cannot take it
        return interp.result()

    # -- reporting -----------------------------------------------------

    def report(
        self,
        rule: str,
        objid: str,
        message: str,
        hint: str = "",
        method: str = "",
    ) -> None:
        if self.sink is None or self.node is None:
            return
        if guarded(rule, self.node.guards):
            return  # the script statically expects this failure
        self.sink(rule, self.node, objid, message, hint, method)



class _StmtInterpreter:
    """Interprets one statement's expressions over a working copy."""

    def __init__(self, analysis: TypestateAnalysis, fact: FlowFact) -> None:
        self.analysis = analysis
        self.env = fact.env_dict()
        self.objs = fact.objs_dict()

    def result(self) -> FlowFact:
        return FlowFact.make(self.env, self.objs)

    # -- statement dispatch --------------------------------------------

    def run(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            vals = self.eval(stmt.value) or self._bound_names(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, vals)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            vals = self.eval(stmt.value) or self._bound_names(stmt.value)
            self._assign_target(stmt.target, vals)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._hand_off(self.eval(stmt.value), havoc=False)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            self._assign_target(stmt.target, frozenset())
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                vals = self.eval(item.context_expr)
                self._hand_off(vals, havoc=False)  # __exit__ closes it
                if isinstance(item.optional_vars, ast.Name):
                    self._assign_target(item.optional_vars, vals)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        # Try nodes appear as handler-entry markers only; FunctionDef /
        # ClassDef bodies are separate scopes.

    def _assign_target(self, target: ast.expr, vals: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            # strong, path-local update
            self.env[target.id] = vals or UNTRACKED
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, frozenset())
        else:
            # stored on an attribute or item: its owner closes a client
            self._hand_off(vals, havoc=False)

    def _hand_off(self, vals: FrozenSet[str], havoc: bool = True) -> None:
        """Objects handed to code this scope does not see: a client is
        its new owner's to close, and with *havoc* a set may come back in
        any state (its ``unknown`` bit silences the rules)."""
        for oid in vals:
            fact = self.objs.get(oid)
            if fact is None:
                continue
            if is_client(oid):
                self.objs[oid] = replace(fact, states=frozenset(
                    (CLOSED, e[1], None) for e in fact.states
                ))
            elif havoc and is_eventset(oid):
                self.objs[oid] = replace(
                    fact, states=UNKNOWN_ELEMENTS, unknown=True
                )

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.expr) -> FrozenSet[str]:
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            if node.attr == "pmu":
                return frozenset({PMU_VALUE})
            return frozenset()
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Lambda):
            # the body runs later, when something calls it
            for name in ast.walk(node.body):
                if isinstance(name, ast.Name):
                    self._hand_off(self.env.get(name.id, frozenset()))
            return frozenset()
        out: FrozenSet[str] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_vals = self.eval(child)
                if isinstance(node, (ast.IfExp,)):
                    out |= child_vals
        return out

    def _eval_call(self, node: ast.Call) -> FrozenSet[str]:
        argvals = [
            self.eval(a.value if isinstance(a, ast.Starred) else a)
            for a in node.args
        ]
        for vals in argvals + [self.eval(kw.value) for kw in node.keywords]:
            self._hand_off(vals, havoc=False)  # the callee owns a client

        func = node.func
        if isinstance(func, ast.Attribute):
            return self._method_call(func, node, argvals)
        if isinstance(func, ast.Name):
            return self._function_call(func.id, node, argvals)
        self.eval(func)
        return frozenset()

    # -- helper lookups -------------------------------------------------

    def _literal_int(self, node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        return None

    def _lookup(self, name: str) -> Optional[object]:
        """The string or list of strings *name* is bound to here."""
        vals = self.env.get(name)
        if vals is None:
            return self.analysis.constants.get(name)
        (val,) = vals if len(vals) == 1 else ("",)
        if not val.startswith(LITERAL):
            return None
        return ast.literal_eval(val[len(LITERAL):])

    def _bound_names(self, node: ast.expr) -> FrozenSet[str]:
        """An event name (a string, or a code looked up from one) or a
        list of strings that an assignment binds."""
        value = event_name(node, self._lookup) or string_literal(node)
        return frozenset() if value is None else \
            frozenset({LITERAL + repr(value)})

    def _library_of(
        self, vals: FrozenSet[str], expr: Optional[ast.expr]
    ) -> FrozenSet[str]:
        """The library a receiver or argument names: the ``Papi`` objects
        or parameters it may hold, else its source text."""
        libs = frozenset(
            base_object(v) for v in vals if v.startswith(("lib@", "param:"))
        )
        if libs or expr is None:
            return libs
        return frozenset({"text:" + ast.unparse(expr)})

    def _thread_identities(self, node: ast.expr) -> FrozenSet[str]:
        """Resolve a thread-valued argument to stable identities: the
        tracked ``spawn()`` results it may hold, else its source text."""
        vals = frozenset(v for v in self.eval(node) if is_thread(v))
        if vals:
            return vals
        try:
            return frozenset({"thread:" + ast.unparse(node)})
        except Exception:  # pragma: no cover - malformed expression
            return frozenset()

    # -- reporting --------------------------------------------------------

    def _violation(
        self,
        rule: str,
        objid: str,
        method: str,
        every_path: bool,
        message: str,
        hint: str,
        **fields: object,
    ) -> None:
        """Report *rule*, or its PL0xx twin from :data:`MUST_CODES` (in
        the PL0xx wording) when *every_path* holds."""
        code = MUST_CODES[rule].get(method, rule) if every_path else rule
        if code != rule:
            template, hint = MUST_WORDING[code]
            message = template.format(**fields)
        self.analysis.report(code, objid, message, hint=hint, method=method)

    def _report_all(self, findings: List[Finding]) -> None:
        for code, message, hint in findings:
            self.analysis.report(code, "", message, hint=hint)

    # -- method dispatch ------------------------------------------------

    def _method_call(
        self, func: ast.Attribute, node: ast.Call, argvals
    ) -> FrozenSet[str]:
        basevals = self.eval(func.value)
        method = func.attr
        if self.analysis.checks and any(
            v.startswith(PAPI_OBJECTS) for v in basevals
        ):
            self.analysis.papi_tries.update(self.analysis.node.tries)

        if method in CONSTRUCTORS:
            return self._construct(method, node, argvals, (basevals, func.value))
        libs = [v for v in basevals if is_library(v) and v in self.objs]
        if libs:
            self._library_method(libs, method, node)
            return frozenset()
        if method == "spawn":
            tid = site_id("thread", node)
            self.objs.setdefault(tid, ObjFact())
            return frozenset({tid})

        if method == "bind_counter":
            self._os_bind_counter(node)
            return frozenset()
        if method in OS_COUNTER_OPS:
            self._os_counter_op(method, node)
            return frozenset()

        if method == "run":
            self._short_multiplexed_run(node)
        if method in ("close", "__exit__"):
            self._hand_off(basevals, havoc=False)
        es_ids = [v for v in basevals if is_eventset(v) and v in self.objs]
        if es_ids:
            transfers = {
                oid: HIGHLEVEL_METHODS.get(method, "")
                if oid.startswith("hl@") else method
                for oid in es_ids
            }
            starting = [oid for oid in es_ids if transfers[oid] == "start"]
            if starting:
                self._overlapping_start(starting)
            if self.analysis.checks:
                self._check_call(es_ids, method, node)
            self._mixed_interfaces(es_ids, method, node)
            strong = len({base_object(v) for v in es_ids}) == 1
            for oid in es_ids:
                transfer = transfers[oid]
                old = self.objs[oid]
                new = self._apply_eventset_method(oid, old, transfer, node)
                if transfer in CONFIG_METHODS:
                    new = self._configure(oid, old, new, transfer, node)
                self.objs[oid] = new if strong else old.join(new)
            return frozenset()  # counter values, not tracked objects
        if PMU_VALUE in basevals and method in ("read", "stop"):
            self._pmu_direct_access(method, node)
        return frozenset()

    def _construct(
        self, name: str, node: ast.Call, argvals,
        receiver: Optional[Tuple[FrozenSet[str], ast.expr]] = None,
    ) -> FrozenSet[str]:
        """A new object; a set's library is the receiver of the
        ``create_eventset`` call, a HighLevel's its argument."""
        kind, state = CONSTRUCTORS[name]
        library: FrozenSet[str] = frozenset()
        if kind == "es" and receiver is not None:
            library = self._library_of(*receiver)
        elif kind == "hl" and node.args:
            library = self._library_of(argvals[0], node.args[0])
        oid = site_id(kind, node)
        config = NEW_SET if kind == "es" else None
        self.objs[oid] = ObjFact(
            states=frozenset({(state, False, config)}), library=library
        )
        return frozenset({oid})

    # -- libraries: component checks and the two interfaces --------------

    def _library_method(
        self, libs: List[str], method: str, node: ast.Call
    ) -> None:
        """Component-registry checks (PL019's guard) on a ``Papi``: a
        component named by its name or index, or, when the argument
        does not resolve or the registry is enumerated, every one."""
        from repro.components import STANDARD_COMPONENTS

        if method not in ("component", "component_by_id", "query_named",
                          "num_components", "component_names"):
            return
        try:
            arg = ast.literal_eval(node.args[0]) if node.args else None
        except (ValueError, SyntaxError):
            arg = None
        if method == "query_named":
            if not (isinstance(arg, str) and ":::" in arg):
                return
            arg = arg.partition(":::")[0]
        elif isinstance(arg, int) and 0 <= arg < len(STANDARD_COMPONENTS):
            arg = STANDARD_COMPONENTS[arg]
        checked = arg if isinstance(arg, str) and method not in (
            "num_components", "component_names") else None
        for lib in libs:
            old = self.objs[lib]
            new = (
                replace(old, all_checked=True) if checked is None
                else replace(old, checked=old.checked | {checked})
            )
            self.objs[lib] = new if len(libs) == 1 else old.join(new)

    def _libraries(self, oids) -> List[str]:
        """The ``Papi`` objects the sets or HighLevels *oids* came from."""
        return sorted({
            lib for oid in oids for lib in self.objs[oid].library
            if is_library(lib) and lib in self.objs
        })

    def _lib_facts(self, oid: str) -> List[LibFact]:
        return [self.objs[lib] for lib in self._libraries([oid])]

    def _mixed_interfaces(
        self, es_ids: List[str], method: str, node: ast.Call
    ) -> None:
        """PL006: a high-level use on a library one of whose sets may
        have started, or a set's start on a library used high-level."""
        if method == "start":
            high, prefix = False, "es@"
        elif method in HIGHLEVEL_USES:
            high, prefix = True, "hl@"
        else:
            return
        line = node.lineno
        for lib in self._libraries(v for v in es_ids if v.startswith(prefix)):
            fact = self.objs[lib]
            if fact.low if high else fact.high:
                highs = fact.high | {line} if high else fact.high
                lows = fact.low if high else fact.low | {line}
                self.analysis.report(
                    "PL006", lib,
                    f"high-level (line {min(highs)}) and low-level (line "
                    f"{min(lows)}) counting mixed on one library",
                    hint="use one interface per measurement region",
                )
            self.objs[lib] = (
                replace(fact, high=fact.high | {line}) if high
                else replace(fact, low=fact.low | {line})
            )

    # -- membership and configuration ------------------------------------

    def _configure(
        self, oid: str, before: ObjFact, fact: ObjFact, method: str,
        node: ast.Call,
    ) -> ObjFact:
        """The config change of one ``add_*``, ``remove_event``,
        ``cleanup``, ``set_multiplex`` or ``overflow`` call, on the paths
        past its lifecycle check (*fact*).  Paths where the runtime
        rejects it (a duplicate add, overflow with multiplexing) end
        there: PL012/PL009 when that is every path reaching the call
        (*before*), PL306 when it is only some."""
        call = node.func.attr  # type: ignore[union-attr]
        if method in ADD_METHODS:
            names = added_names(method, node, self._lookup)
        elif method in ("remove_event", "overflow") and node.args:
            names = [event_name(node.args[0], self._lookup)]
        else:
            names = [None]
        if method == "set_multiplex":
            self._multiplex_after_adds(before)
        reach, elems = before.states, fact.states
        for name in names:
            rejected = frozenset(
                e for e in elems
                if e[2] is not None and e[2].rejects(method, name)
            )
            if rejected and not before.unknown:
                held = PL306_HOLDS[method].format(event=name)
                self._violation(
                    "PL306", oid, method,
                    rejected == reach and is_local_eventset(oid),
                    f"{call}() on an EventSet that holds {held} along "
                    f"some path", "the runtime raises PAPI_EINVAL there",
                    call=call, event=name,
                )
            elems = frozenset(
                (s, via, cfg if cfg is None else cfg.after(method, name))
                for s, via, cfg in elems - rejected
            )
            reach = elems
            if method in ADD_METHODS and self.analysis.checks:
                self._feasibility(oid, elems, add_conflict)
        return replace(fact, states=elems)

    def _multiplex_after_adds(self, fact: ObjFact) -> None:
        """PL003: ``set_multiplex()`` on a set that may hold events."""
        held = max((
            len(cfg.members) + cfg.opaque
            for _s, _via, cfg in fact.states if cfg is not None
        ), default=0)
        if held:
            self.analysis.report(
                "PL003", "", f"set_multiplex after {held} event(s) were "
                             f"already added",
                hint="enable multiplexing first so conflicts surface as "
                     "capacity, not ECNFLCT",
            )

    # -- the checks the platform tables answer (report pass only) --------

    def _platform(self, oid: str) -> Optional[str]:
        """The platform a set's library pins, else ``--platform``."""
        platforms = {
            self.objs[lib].platform
            if is_library(lib) and lib in self.objs else None
            for lib in self.objs[oid].library
        }
        (platform,) = platforms if len(platforms) == 1 else (None,)
        return platform or self.analysis.default_platform

    def _check_call(
        self, es_ids: List[str], method: str, node: ast.Call
    ) -> None:
        """Event names (PL010/PL011/PL019) and feasibility at start."""
        sets = [v for v in es_ids if v.startswith("es@")]
        if method in ADD_METHODS:
            names = added_names(method, node, self._lookup)
            for oid in sets:
                platform, libs = self._platform(oid), self._lib_facts(oid)
                for name in names:
                    if name is not None:
                        self._report_all(name_findings(name, platform, libs))
        elif method == "overflow" and sets and node.args:
            self._report_all(component_overflow(
                event_name(node.args[0], self._lookup)
            ))
        elif method == "start":
            for oid in sets:
                self._feasibility(oid, self.objs[oid].states, start_findings)
        elif method == "start_counters":
            for oid in es_ids:
                if oid.startswith("hl@"):
                    self._highlevel_events(oid, node)

    def _feasibility(self, oid: str, elems, verdict) -> None:
        """Hand a set that holds the same events on every path, on a
        known platform, to *verdict* (PL101 at an add, PL102/PL103 at
        ``start()``)."""
        cfg, platform = uniform_config(elems), self._platform(oid)
        if cfg is not None and platform is not None:
            self._report_all(verdict(cfg.members, cfg.multiplexed, platform))

    def _highlevel_events(self, oid: str, node: ast.Call) -> None:
        """PL010/PL011/PL019 and PL101 for a ``start_counters`` list."""
        names = highlevel_names(node, self._lookup)
        if names is None:
            return
        platform, libs = self._platform(oid), self._lib_facts(oid)
        for name in names:
            if name is not None:
                self._report_all(name_findings(name, platform, libs))
        if platform is not None and None not in names:
            self._report_all(highlevel_conflict(tuple(names), platform))  # type: ignore[arg-type]

    # -- one library, one running set; long multiplexed runs --------------

    def _may_run(self, oids, multiplexed: bool = False) -> bool:
        """Some object of *oids* may be running here (with its
        multiplexing bit set, on that path, when *multiplexed*)."""
        return any(
            not fact.unknown and any(
                s == RUNNING and (not multiplexed or cfg and cfg.multiplexed)
                for s, _via, cfg in fact.states
            )
            for oid, fact in self.objs.items() if oid in oids
        )

    def _overlapping_start(self, receivers: List[str]) -> None:
        """PL013: a start while another set of its library may run; a
        started ``HighLevel`` holds its library's running set too."""
        mine: Set[str] = set()
        for oid in receivers:
            if is_local_eventset(oid):
                mine |= self.objs[oid].library
        others = {
            oid for oid, fact in self.objs.items()
            if is_local_eventset(oid) and oid not in receivers
            and not fact.library.isdisjoint(mine)
        }
        if self._may_run(others):
            self.analysis.report(
                "PL013", "",
                "start() while another EventSet of the same library may "
                "still be running",
                hint="stop the other set first (one running EventSet per "
                     "library)",
            )

    def _short_multiplexed_run(self, node: ast.Call) -> None:
        """PL004: ``run(max_instructions=N)`` too short for a
        multiplexed set that may be running."""
        for kw in node.keywords:
            bound = self._literal_int(kw.value)
            if (
                kw.arg == "max_instructions"
                and bound is not None
                and bound < MIN_MPX_RUN_INSTRUCTIONS
                and self._may_run(
                    {v for v in self.objs if v.startswith("es@")},
                    multiplexed=True,
                )
            ):
                self.analysis.report(
                    "PL004", "",
                    f"a multiplexed EventSet may be running over a run "
                    f"bounded to {bound} instructions; time-slice "
                    f"estimates will not converge",
                    hint=f"run at least ~{MIN_MPX_RUN_INSTRUCTIONS} "
                         f"instructions or count directly (E3)",
                )

    # -- EventSet lifecycle ---------------------------------------------

    def _apply_eventset_method(
        self, oid: str, fact: ObjFact, method: str, node: ast.Call
    ) -> ObjFact:
        names = fact.state_names
        local = is_local_eventset(oid)
        call = node.func.attr  # type: ignore[union-attr]
        if method in REQUIRES_RUNNING:
            bad = names - {RUNNING}
            if bad and not fact.unknown:
                every_path = RUNNING not in names
                where = "on every path" if every_path else "along some path"
                self._violation(
                    "PL301", oid, method, every_path and local,
                    f"{call}() executes on an EventSet that is "
                    f"{'/'.join(sorted(bad))} {where}",
                    "every path reaching this call must have start()ed "
                    "the set (PAPI_ENOTRUN otherwise)",
                    call=call,
                    state="is already stopped" if STOPPED in names
                    else f"was never started (created at line "
                         f"{site_line(oid)})",
                )
            # the operation succeeded => the set was running; a stop
            # leaves it stopped, everything else leaves it running.
            post = STOPPED if method == "stop" else RUNNING
            return replace(
                fact,
                states=frozenset(
                    (post, via, cfg) for s, via, cfg in fact.states
                    if s == RUNNING
                ),
                unknown=False,
            )

        if method not in REQUIRES_STOPPED:
            return fact
        if RUNNING in names and not fact.unknown:
            every_path = names == {RUNNING}
            where = "on every path" if every_path else "along some path"
            self._violation(
                "PL302", oid, method, every_path and local,
                f"{call}() executes on an EventSet that is still "
                f"running {where}",
                "stop() the set on every path first (PAPI_EISRUN "
                "otherwise)",
                call=call,
            )
        kept = frozenset(e for e in fact.states if e[0] != RUNNING)
        fact = replace(fact, states=kept, unknown=False)
        if method == "start":
            return replace(
                fact,
                states=frozenset((RUNNING, via, cfg) for _s, via, cfg in kept),
                started_lines=fact.started_lines | {node.lineno},
            )
        if method == "attach":
            return self._attach(oid, fact, node)
        if method == "detach":
            return replace(
                fact, attached=frozenset(), must_attached=frozenset()
            )
        if method == "bind_cpu":
            return replace(fact, bound_cpu=True)
        return fact

    def _attach(self, oid: str, fact: ObjFact, node: ast.Call) -> ObjFact:
        identities = (
            self._thread_identities(node.args[0]) if node.args
            else frozenset()
        )
        foreign = fact.attached - identities
        if foreign and identities and not fact.bound_cpu:
            self._violation(
                "PL401", "", "attach",
                bool(fact.must_attached - identities)
                and is_local_eventset(oid),
                "this EventSet may still be owned by a different "
                "spawned thread here (attached on another path without "
                "an intervening detach)",
                "detach() on every path first, or bind_cpu() to pin the "
                "counters to one CPU",
            )
        return replace(
            fact,
            attached=identities,
            must_attached=identities if len(identities) == 1
            else frozenset(),
        )

    # -- OS-level counter virtualization ---------------------------------

    def _os_bind_counter(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        index = self._literal_int(node.args[1])
        if index is None:
            return
        threads = self._thread_identities(node.args[0])
        for tid, fact in self.objs.items():
            if not is_thread(tid) or tid in threads:
                continue
            if index in fact.may_bound:
                self._violation(
                    "PL401", tid, "bind_counter", index in fact.must_bound,
                    f"counter {index} may still be bound to another "
                    f"thread on some path reaching this bind_counter",
                    "unbind_counter() on every path first (a counter "
                    "register is exclusive machine-wide)",
                    index=index,
                )
        for tid in threads:
            fact = self.objs.get(tid, ObjFact())
            self.objs[tid] = replace(
                fact,
                may_bound=fact.may_bound | {index},
                must_bound=fact.must_bound | {index},
            )

    def _os_counter_op(self, method: str, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        index = self._literal_int(node.args[1])
        if index is None:
            return
        # only threads this scope spawned or bound are checked
        threads = [
            v for v in self._thread_identities(node.args[0])
            if v in self.objs
        ]
        if method == "unbind_counter":
            for tid in threads:
                fact = self.objs[tid]
                self.objs[tid] = replace(
                    fact,
                    may_bound=fact.may_bound - {index},
                    must_bound=fact.must_bound - {index},
                )
            return
        for tid in threads:
            fact = self.objs[tid]
            if index not in fact.must_bound:
                qualifier = (
                    "on some path" if index in fact.may_bound
                    else "on any path"
                )
                self.analysis.report(
                    "PL403", tid,
                    f"{method}(thread, {index}): counter {index} is not "
                    f"bound to this thread {qualifier} reaching this call",
                    hint="os.bind_counter(thread, index) must dominate "
                         "every virtualized counter operation",
                )

    def _pmu_direct_access(self, method: str, node: ast.Call) -> None:
        index = self._literal_int(node.args[0]) if node.args else None
        if index is None:
            return
        owners = [
            tid for tid, fact in self.objs.items()
            if is_thread(tid) and index in fact.may_bound
        ]
        if owners:
            self.analysis.report(
                "PL402", owners[0],
                f"direct PMU {method}({index}) of a counter that is "
                f"bound to a thread; migration may have re-homed it to "
                f"another CPU's PMU",
                hint="route through os.counter_value(thread, index) "
                     "(or counter_stop), which follows counter_home",
            )

    # -- calls to module-level functions ---------------------------------

    def _function_call(
        self, name: str, node: ast.Call, argvals
    ) -> FrozenSet[str]:
        if name in CONSTRUCTORS:
            return self._construct(name, node, argvals)
        if name == "create" and node.args:
            arg = node.args[0]
            literal = isinstance(arg, ast.Constant) and \
                isinstance(arg.value, str)
            return frozenset({SUBSTRATE + (arg.value if literal else "")})
        if name == "Papi":
            subs = [
                v for v in (argvals[0] if argvals else ())
                if v.startswith(SUBSTRATE)
            ]
            oid = site_id("lib", node)
            self.objs[oid] = LibFact(
                platform=subs[0][len(SUBSTRATE):] or None
                if len(subs) == 1 else None
            )
            return frozenset({oid})
        summary = self.analysis.summaries.get(name)
        if summary is None:
            # unknown callee: anything it got may end up in any state
            for vals in argvals:
                self._hand_off(vals)
            return frozenset()

        for pos, vals in enumerate(argvals):
            effects = summary.effects.get(pos)
            if effects is None:
                continue
            for oid in vals:
                if not (is_eventset(oid) and oid in self.objs):
                    continue
                self._apply_summary_effect(name, oid, effects)

        if summary.returns_states is not None:
            oid = site_id("ret", node)
            self.objs[oid] = ObjFact(states=frozenset(
                (s, False, None) for s in summary.returns_states
            ))
            return frozenset({oid})
        return frozenset()

    def _apply_summary_effect(
        self, fname: str, oid: str, effects: Dict[str, ParamEffect]
    ) -> None:
        """Play a call as the summary's table lookup.  Its violations
        keep their flow codes, even when every entry state has one.  The
        helper's membership changes are not summarized: the set's
        config is unknown after the call."""
        fact = self.objs[oid]
        if fact.unknown:
            # havoc through the call, stay silent
            self.objs[oid] = replace(fact, states=UNKNOWN_ELEMENTS)
            return
        new_states: Set[Tuple[str, bool, Optional[Config]]] = set()
        reported: Set[Tuple[str, str]] = set()
        unknown = False
        for s, via, _cfg in fact.states:
            effect = effects[s]
            unknown = unknown or effect.exit_unknown
            for rule, method in effect.violations:
                if (rule, method) in reported:
                    continue
                reported.add((rule, method))
                self.analysis.report(
                    rule, oid,
                    f"call to {fname}() performs {method}() on an "
                    f"EventSet that may be {s} here",
                    hint=f"{fname}() requires a different lifecycle "
                         f"state; normalize the set's state on "
                         f"every path before the call",
                    method=method,
                )
            for exit_state in effect.exit_states:
                new_states.add((exit_state, via, None))
        self.objs[oid] = replace(
            fact, states=frozenset(new_states), unknown=unknown
        )


def eval_expr_values(
    analysis: TypestateAnalysis, fact: FlowFact, expr: ast.expr
) -> Tuple[FrozenSet[str], Dict[str, ObjFact]]:
    """Evaluate *expr* against *fact* without committing side effects.

    Used by the summary computation to resolve what a ``return``
    statement hands back to the caller.
    """
    interp = _StmtInterpreter(analysis, fact)
    vals = interp.eval(expr)
    return vals, interp.objs
