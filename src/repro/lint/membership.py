"""What an EventSet holds on one path, and the platform tables' verdicts.

The typestate pass (:mod:`repro.lint.typestate`) keeps a :class:`Config`
per path for every set created in the scope and reports what the
functions here find: event names (PL010/PL011/PL019) and the
feasibility hand-off (PL101-PL103, :mod:`repro.lint.feasibility`).
Nothing here keeps state.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.presets import PLATFORM_PRESET_TABLES, PRESET_BY_SYMBOL
from repro.lint.feasibility import _substrate, check_events, portability_matrix

#: (code, message, hint)
Finding = Tuple[str, str, str]
#: a name -> the string or tuple of strings it is bound to, or None
Lookup = Callable[[str], Optional[object]]

ADD_METHODS = frozenset({"add_event", "add_events", "add_named"})
#: EventSet methods that change what a set holds or how it counts
CONFIG_METHODS = ADD_METHODS | {
    "remove_event", "cleanup", "set_multiplex", "overflow",
}


class Config(NamedTuple):
    """One EventSet's membership and configuration on one path."""

    #: resolved event names, in add order
    members: Tuple[str, ...] = ()
    #: an event whose name does not resolve was added (or removed)
    opaque: bool = False
    multiplexed: bool = False
    #: the events overflow is registered on (None: unresolved)
    overflows: FrozenSet[Optional[str]] = frozenset()

    def rejects(self, method: str, name: Optional[str]) -> bool:
        """The runtime raises PAPI_EINVAL for *method* on this set:
        a duplicate add, or overflow combined with multiplexing."""
        if method == "set_multiplex":
            return bool(self.overflows)
        if method == "overflow":
            return self.multiplexed
        return method in ADD_METHODS and name in self.members

    def after(self, method: str, name: Optional[str]) -> "Config":
        """The set once *method* (on event *name*) succeeded."""
        if method in ADD_METHODS:
            if name is None:
                return self._replace(opaque=True)
            return self._replace(members=self.members + (name,))
        if method == "remove_event" and name is not None:
            # C PAPI_remove_event turns the event's overflow off first
            return self._replace(
                members=tuple(m for m in self.members if m != name),
                overflows=self.overflows - {name},
            )
        if method in ("remove_event", "cleanup"):
            # an unresolved removal may drop any member and its
            # overflow; multiplexing survives PAPI_cleanup_eventset
            return self._replace(members=(), opaque=method != "cleanup",
                                 overflows=frozenset())
        if method == "set_multiplex":
            return self._replace(multiplexed=True)
        if method == "overflow":
            return self._replace(overflows=self.overflows | {name})
        return self


NEW_SET = Config()


# -- event names --------------------------------------------------------


def _called_name(func: ast.expr) -> Optional[str]:
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def event_name(node: ast.expr, lookup: Lookup) -> Optional[str]:
    """Statically resolve one event-spec expression to a name: a string,
    a name bound to one, ``event_name_to_code(...)`` or
    ``preset_from_symbol(...).code``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        value = lookup(node.id)
        return value if isinstance(value, str) else None
    if isinstance(node, ast.Call) and node.args and \
            _called_name(node.func) == "event_name_to_code":
        return event_name(node.args[0], lookup)
    if isinstance(node, ast.Attribute) and node.attr == "code" and \
            isinstance(node.value, ast.Call) and node.value.args and \
            _called_name(node.value.func) in (
                "preset_from_symbol", "preset_from_code"):
        return event_name(node.value.args[0], lookup)
    return None


def name_sequence(node: ast.expr, lookup: Lookup) -> Optional[List[str]]:
    """A list of event names: a literal, or a name bound to one."""
    if isinstance(node, ast.Name):
        value = lookup(node.id)
    else:
        try:
            value = ast.literal_eval(node)
        except (ValueError, SyntaxError):
            return None
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value
    ):
        return list(value)
    return None


def added_names(
    method: str, node: ast.Call, lookup: Lookup
) -> List[Optional[str]]:
    """Event names one ``add_*`` call adds, in order (None: unresolved)."""
    if method == "add_event":
        return [event_name(a, lookup) for a in node.args[:1]]
    if method == "add_events":
        if node.args and isinstance(node.args[0], (ast.List, ast.Tuple)):
            return [event_name(e, lookup) for e in node.args[0].elts]
        return [None]
    names: List[Optional[str]] = []
    for arg in node.args:
        if isinstance(arg, ast.Starred):
            seq = name_sequence(arg.value, lookup)
            names.extend(seq if seq is not None else [None])
        else:
            names.append(event_name(arg, lookup))
    return names


def highlevel_names(
    node: ast.Call, lookup: Lookup
) -> Optional[List[Optional[str]]]:
    """The event list of a ``start_counters`` call, if it resolves."""
    if not node.args:
        return None
    if isinstance(node.args[0], (ast.List, ast.Tuple)):
        return [event_name(e, lookup) for e in node.args[0].elts]
    return name_sequence(node.args[0], lookup)


# -- event-name rules ---------------------------------------------------


def name_findings(
    name: str, platform: Optional[str], libraries: List
) -> List[Finding]:
    """PL010/PL011/PL019 for one event name on *platform*, added to a set
    of *libraries* (their ``LibFact``: PL019 unless each checked the
    component; none tracked, none to check)."""
    comp, sep, short = name.partition(":::")
    if comp == "cpu" or not sep and not name.startswith("PAPI_"):
        # cpu::: aliases the native table, as the bare name does
        native = short if sep else name
        if platform is None or native in _substrate(platform).native_events:
            return []
        if sep:
            return [("PL010", f"{short!r} is not a native event of "
                              f"{platform} (the cpu::: namespace aliases "
                              f"the native table)", "")]
        return [("PL010", f"{name!r} is neither a preset symbol nor a "
                          f"native event of {platform}", "")]
    if not sep:
        if name not in PRESET_BY_SYMBOL:
            return [("PL010", f"{name} is not a preset in the catalogue",
                     "see `papi-lint` docs or papi_avail for symbols")]
        if platform is None or name in PLATFORM_PRESET_TABLES.get(platform, {}):
            return []
        return [("PL011", f"{name} is not available on {platform}",
                 f"check `cli avail {platform}`; guard with query_event() "
                 f"for portable code")]
    from repro.components import COMPONENT_EVENT_SHORTS

    shorts = COMPONENT_EVENT_SHORTS.get(comp)
    if shorts is None:
        return [("PL010", f"{comp!r} is not a registered component "
                          f"(PAPI_ENOCMP at runtime)",
                 "see `cli component-avail <platform>` for the component "
                 "registry")]
    if short not in shorts:
        return [("PL010", f"{short!r} is not an event of component "
                          f"{comp!r} (have {', '.join(shorts)})", "")]
    if all(lib.all_checked or comp in lib.checked for lib in libraries):
        return []
    return [("PL019", f"component event {name} used without checking the "
                      f"{comp!r} component is registered",
             f"call papi.component({comp!r}) or num_components() first; "
             f"component sets differ across substrates (PAPI_ENOCMP)")]


def component_overflow(name: Optional[str]) -> List[Finding]:
    """PL019: overflow on a free-running component event."""
    if name is None or ":::" not in name or name.startswith("cpu:::"):
        return []
    return [("PL019", f"overflow registered on component event {name}",
             "component counters are free-running snapshots; PAPI_overflow "
             "needs a programmed PMU counter (the runtime raises "
             "PAPI_EINVAL)")]


# -- feasibility hand-off -----------------------------------------------


def _conflict(
    names: Tuple[str, ...], multiplexed: bool, platform: str
) -> Optional[Finding]:
    """PL101 when *names* cannot be allocated, as ``add_event`` finds."""
    report = check_events(names, platform)
    if report.unknown or report.unavailable or report.sampling:
        return None
    if multiplexed:  # every event only needs to be placeable alone
        if report.feasible_multiplexed:
            return None
        return ("PL101", f"{report.conflict_witness or list(names)} cannot "
                         f"be counted on {platform} even with multiplexing",
                "")
    if report.feasible_direct:
        return None
    hint = "enable set_multiplex() before adding, or split the " \
           "measurement into multiple runs"
    if report.hall_witness is not None:
        natives, counters = report.hall_witness
        hint += f"; Hall violation: natives {list(natives)} share only " \
                f"counters {list(counters)}"
    witness = ", ".join(report.conflict_witness)
    return ("PL101", f"adding this event makes the set unallocatable on "
                     f"{platform}: minimal conflicting subset {{{witness}}}",
            hint)


def add_conflict(
    names: Tuple[str, ...], multiplexed: bool, platform: str
) -> List[Finding]:
    """PL101 at the add that makes the set unallocatable (without its
    last event the set still fit, or an earlier add reported)."""
    if len(names) > 1 and _conflict(names[:-1], multiplexed, platform):
        return []
    found = _conflict(names, multiplexed, platform)
    return [found] if found else []


def start_findings(
    names: Tuple[str, ...], multiplexed: bool, platform: str
) -> List[Finding]:
    """PL102 (needless multiplexing) and PL103 (not portable) at start."""
    report = check_events(names, platform)
    if report.unknown or report.unavailable:
        return []
    found: List[Finding] = []
    if multiplexed and not report.sampling and report.feasible_direct:
        natives = {n for res in report.resolutions for n in res.natives}
        found.append(("PL102", f"multiplexing is enabled but {len(natives)} "
                               f"native event(s) fit {platform}'s counters "
                               f"directly",
                      "drop set_multiplex() to count exactly instead of "
                      "estimating"))
    if report.status in ("ok", "mpx", "sampling"):
        # a set that already multiplexes is fine where it needs to
        acceptable = ("ok", "sampling") + (("mpx",) if multiplexed else ())
        broken = sorted(
            (other, rep.status)
            for other, rep in portability_matrix(names).items()
            if other != platform and rep.status not in acceptable
        )
        if broken:
            detail = ", ".join(f"{other} ({status})" for other, status in broken)
            found.append(("PL103", f"this EventSet is not portable as-is: "
                                   f"{detail}",
                          "see `cli check-events ... --matrix` for the full "
                          "portability matrix (E8)"))
    return found


def highlevel_conflict(
    names: Tuple[str, ...], platform: str
) -> List[Finding]:
    """PL101 for a ``start_counters`` list: HighLevel never multiplexes."""
    report = check_events(names, platform)
    if report.unknown or report.unavailable or report.sampling or \
            report.feasible_direct:
        return []
    witness = ", ".join(report.conflict_witness)
    return [("PL101", f"start_counters set is unallocatable on {platform}: "
                      f"minimal conflicting subset {{{witness}}}",
             "the high-level interface never multiplexes (Section 2); use "
             "fewer events or the low-level API with set_multiplex")]
