"""The papi-lint rule registry.

Every diagnostic papi-lint can emit is declared here with a stable code,
a default severity, and the paper section whose lesson it mechanizes.
Rule codes are grouped by analyzer:

- ``PL0xx`` -- API-misuse rules, all from the typestate pass
  (:mod:`repro.lint.typestate`, :mod:`repro.lint.flow`): misuse on
  every path of an EventSet or ``HighLevel`` created in the scope
  (PL001/002/005/007/008/014/015/016), membership and configuration
  the runtime rejects on every path (PL009/PL012), event names
  (PL010/PL011/PL019), set-up hazards (PL003/PL004/PL006), overlapping
  sets (PL013), swallowed errors (PL017) and unclosed papid clients
  (PL018);
- ``PL1xx`` -- static EventSet feasibility rules
  (:mod:`repro.lint.feasibility`), handed a set by the typestate pass;
- ``PL2xx`` -- preset-table cross-validation rules
  (:mod:`repro.lint.presetlint`), from the AST walk
  (:mod:`repro.lint.apilint`);
- ``PL3xx`` / ``PL4xx`` -- typestate findings that hold on some paths
  only, or on a parameter or helper-returned set, or that need a
  helper's summary to see (:mod:`repro.lint.flow`); reported with
  ``--flow``;
- ``PL9xx`` -- engine-level problems (unparseable input).

Severities: an ``error`` is a call sequence or configuration that the
runtime would reject (or that yields numbers known to be wrong); a
``warning`` is legal but hazardous -- the "silently produces wrong
counts" class the paper's Section 2-3 lessons are about; ``info``
surfaces portability/semantics facts worth knowing without failing a
build.  Only errors affect the lint exit status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so max() picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, severity, summary, paper anchor."""

    code: str
    severity: Severity
    summary: str
    #: which part of the paper the rule reproduces ("Section 2", "E3", ...)
    paper: str
    #: names of PAPI exception types whose except-handler statically
    #: guards this rule (a try/except around the call shows intent, so
    #: the diagnostic is suppressed).
    guards: Tuple[str, ...] = ()


_PAPI_GUARD = ("PapiError",)

RULES: Dict[str, Rule] = {
    r.code: r
    for r in [
        # -- API misuse (every-path typestate findings) -----------------
        Rule("PL001", Severity.ERROR,
             "read/stop/reset/accum on an EventSet that is not running",
             "Section 5 (EventSet run control)",
             guards=("NotRunningError",) + _PAPI_GUARD),
        Rule("PL002", Severity.ERROR,
             "start on an EventSet (or high-level set) that is already "
             "running",
             "Section 5 (EventSet run control)",
             guards=("IsRunningError",) + _PAPI_GUARD),
        Rule("PL003", Severity.WARNING,
             "set_multiplex called after events were already added",
             "Section 2 (multiplexing is an explicit low-level opt-in)"),
        Rule("PL004", Severity.WARNING,
             "multiplexed measurement over a run too short for the "
             "time-slice estimates to converge",
             "Section 3, experiment E3 (multiplexing error on short runs)"),
        Rule("PL005", Severity.WARNING,
             "overflow registered on a running EventSet (not portable; "
             "the C library requires a stopped EventSet)",
             "Section 2 (overflow dispatch)"),
        Rule("PL006", Severity.WARNING,
             "high-level and low-level counting mixed on one library "
             "instance",
             "Section 2 (the two interfaces must not be interleaved)"),
        Rule("PL007", Severity.ERROR,
             "membership or configuration change on a running EventSet",
             "Section 5 (EventSet run control)",
             guards=("IsRunningError",) + _PAPI_GUARD),
        Rule("PL008", Severity.WARNING,
             "EventSet started but never stopped in its scope (counters "
             "stay acquired)",
             "Section 5 (one running EventSet at a time)"),
        Rule("PL009", Severity.ERROR,
             "overflow and multiplexing combined on one EventSet",
             "Section 2 (features documented as mutually exclusive)",
             guards=("InvalidArgumentError",) + _PAPI_GUARD),
        Rule("PL010", Severity.ERROR,
             "unknown event name",
             "Section 4 (preset/native event namespace)",
             guards=("NoSuchEventError", "NotPresetError",
                     "NoSuchComponentError") + _PAPI_GUARD),
        Rule("PL011", Severity.WARNING,
             "event is not available on the bound platform",
             "Section 4 / experiment E8 (the portability matrix)",
             guards=("NoSuchEventError",) + _PAPI_GUARD),
        Rule("PL012", Severity.ERROR,
             "event added twice to the same EventSet",
             "Section 5 (EventSet membership)",
             guards=("InvalidArgumentError",) + _PAPI_GUARD),
        Rule("PL013", Severity.WARNING,
             "two EventSets started concurrently on one library "
             "(overlapping EventSets are unsupported)",
             "Section 5 (PAPI 3 removes overlapping EventSets)",
             guards=("IsRunningError",) + _PAPI_GUARD),
        Rule("PL014", Severity.ERROR,
             "attach or detach on a running EventSet (per-thread "
             "counters cannot be re-homed mid-run)",
             "Section 2 (thread-level counting; DADD attach semantics)",
             guards=("IsRunningError",) + _PAPI_GUARD),
        Rule("PL015", Severity.WARNING,
             "EventSet re-attached to a different thread without an "
             "intervening detach (the first thread's counts are "
             "silently discarded)",
             "Section 2 (thread-level counting)"),
        Rule("PL016", Severity.ERROR,
             "PMU counter index bound to two different threads (a "
             "counter register is exclusive machine-wide)",
             "Section 5 (counter allocation); SMP counter virtualization",
             guards=("OSError_", "OSError") + _PAPI_GUARD),
        Rule("PL017", Severity.WARNING,
             "PAPI error swallowed: a broad except around counter calls "
             "with a pass-only body discards the error code",
             "Section 4 (uniform error codes across every platform)"),
        Rule("PL018", Severity.WARNING,
             "PapidClient constructed without a context manager or a "
             "close() call (client-owned daemon sessions leak)",
             "DESIGN.md (fleet daemon: clients own their sessions)"),
        Rule("PL019", Severity.WARNING,
             "component event used without checking the component is "
             "registered (component sets differ across substrates)",
             "DESIGN.md (component architecture: PAPI_ENOCMP contract)",
             guards=("NoSuchComponentError", "NoSuchEventError",
                     "SubstrateFeatureError") + _PAPI_GUARD),
        # -- flow-sensitive typestate (CFG dataflow engine) --------------
        Rule("PL301", Severity.ERROR,
             "an operation requiring a running EventSet is reachable "
             "along a path on which the set is not running",
             "Section 5 (EventSet run control); CFG dataflow",
             guards=("NotRunningError",) + _PAPI_GUARD),
        Rule("PL302", Severity.ERROR,
             "an operation requiring a stopped EventSet (start, "
             "membership or configuration change, attach/detach) is "
             "reachable along a path on which the set is running",
             "Section 5 (EventSet run control); CFG dataflow",
             guards=("IsRunningError",) + _PAPI_GUARD),
        Rule("PL303", Severity.WARNING,
             "EventSet leaked on an exception path: a handler swallows "
             "the exception and the scope exits with the set running",
             "Section 5 (counters stay acquired until stop)"),
        Rule("PL304", Severity.WARNING,
             "an exception escaping this try leaves the EventSet "
             "running; the finally block does not stop it",
             "Section 5 (counters stay acquired until stop)"),
        Rule("PL305", Severity.WARNING,
             "recovery-ladder misuse: a fatal (non-transient) PAPI "
             "error class is blindly retried in a loop",
             "Fault model & recovery (core/resilience.py ladder)"),
        Rule("PL306", Severity.ERROR,
             "a change the runtime rejects (an event added twice, overflow "
             "combined with multiplexing) is reachable along a path on "
             "which the set already holds the event or the other option",
             "Section 2 and 5 (EventSet membership; exclusive features); "
             "CFG dataflow",
             guards=("InvalidArgumentError",) + _PAPI_GUARD),
        # -- flow-sensitive SMP/thread rules -----------------------------
        Rule("PL401", Severity.ERROR,
             "one EventSet is shared between two spawned threads "
             "without bind_cpu (virtual counts follow a single owner)",
             "SMP counter virtualization (PR 3); Section 2 threads",
             guards=("IsRunningError", "OSError_", "OSError")
             + _PAPI_GUARD),
        Rule("PL402", Severity.WARNING,
             "off-CPU counter read bypasses counter-home routing: a "
             "thread-bound counter is read directly from one PMU "
             "although migration may have re-homed it",
             "SMP counter virtualization (migration-safe reads)"),
        Rule("PL403", Severity.ERROR,
             "OS-level counter operation on an index that may not be "
             "bound to the thread on some path",
             "SMP counter virtualization (bind_counter lifecycle)",
             guards=("OSError_", "OSError") + _PAPI_GUARD),
        # -- static EventSet feasibility --------------------------------
        Rule("PL101", Severity.ERROR,
             "EventSet cannot be mapped onto the platform's physical "
             "counters (allocation conflict)",
             "Section 5 (counter allocation as bipartite matching)",
             guards=("ConflictError",) + _PAPI_GUARD),
        Rule("PL102", Severity.WARNING,
             "multiplexing enabled although the events fit the physical "
             "counters directly (exact counts traded for estimates)",
             "Section 2-3 (multiplexed counts are estimates)"),
        Rule("PL103", Severity.INFO,
             "EventSet is feasible here but not on every platform",
             "Section 4 / experiment E8 (the portability matrix)"),
        # -- preset table cross-validation ------------------------------
        Rule("PL201", Severity.ERROR,
             "preset mapping references a native event the platform does "
             "not define",
             "Section 4 (per-platform preset translation tables)"),
        Rule("PL202", Severity.ERROR,
             "malformed preset mapping (unknown symbol, duplicate or "
             "zero-coefficient term)",
             "Section 4 (per-platform preset translation tables)"),
        Rule("PL203", Severity.ERROR,
             "missing FMA normalization: PAPI_FP_OPS on an FMA-capable "
             "platform must count a fused multiply-add as two operations",
             "Section 4 / experiment E6 (FP_OPS normalization)"),
        Rule("PL204", Severity.INFO,
             "platform semantics deviate from the preset's reference "
             "vector (per-platform semantic drift)",
             "Section 4 (the POWER3 rounding-instruction discrepancy)"),
        # -- engine ------------------------------------------------------
        Rule("PL900", Severity.ERROR,
             "file cannot be parsed as Python",
             "-"),
    ]
}


def rule(code: str) -> Rule:
    """Look up a rule by code; raises KeyError for unknown codes."""
    return RULES[code]


def guarded(code: str, caught) -> bool:
    """Whether an enclosing ``except`` catching the exception names
    *caught* statically guards *code*: the script expects that failure.
    ``except Exception`` (or a bare ``except``) guards every rule that
    declares guards at all."""
    declared = RULES[code].guards
    return bool(declared) and not set(caught).isdisjoint(
        declared + ("Exception", "BaseException")
    )
