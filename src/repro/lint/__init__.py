"""papi-lint: static analysis for PAPI counter programs.

Four analyzers behind one diagnostic engine (see DESIGN.md):

- **flow-sensitive typestate** (:mod:`repro.lint.flow` over
  :mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow` /
  :mod:`repro.lint.typestate` / :mod:`repro.lint.summaries` /
  :mod:`repro.lint.membership`): the one CFG-based, path-sensitive,
  interprocedural interpreter of PAPI objects -- Papi libraries,
  EventSet and HighLevel lifecycles, what each set holds, multiplexing
  and overflow configuration, event names, mixed interfaces, papid
  clients, swallowed errors and thread/counter binding.  Misuse on
  every path of a set created in the scope, and the PL0xx rules that
  have no some-path twin, are reported under PL0xx codes in every
  mode; misuse on some paths only, or seen through a helper, under
  PL3xx/PL4xx codes, which ``--flow`` adds;
- **static feasibility** (:mod:`repro.lint.feasibility`, PL1xx):
  decides counter allocability without executing, reusing the runtime
  allocator's bipartite matching over the platform tables; the
  typestate pass hands it every set that holds the same events on
  every path;
- **preset-table validation** (:mod:`repro.lint.presetlint`, PL2xx):
  dangling natives, malformed mappings, FMA normalization, semantic
  drift versus the catalogue's reference vectors; an AST walk
  (:mod:`repro.lint.apilint`) hands it a script's table edits;
- **static counter oracle** (:mod:`repro.lint.staticoracle`): affine
  bounds on every architecturally-determined signal of a machine
  program, derived without executing it, bracketing the exact oracle.

CLI: ``python -m repro.tools.cli lint | check-events | check-presets``
or simply ``python -m repro.lint <files>``.
"""

from repro.lint.diagnostics import (
    JSON_SCHEMA,
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
    render_json,
    render_text,
    sort_diagnostics,
    worst_severity,
)
from repro.lint.engine import lint_file, lint_source
from repro.lint.feasibility import (
    EventResolution,
    FeasibilityReport,
    check_events,
    portability_matrix,
    resolve_event,
)
from repro.lint.presetlint import (
    lint_mapping,
    lint_platform_table,
    lint_preset_tables,
)
from repro.lint.rules import RULES, Rule, Severity, rule
from repro.lint.sarif import render_sarif, to_sarif
from repro.lint.staticoracle import (
    Interval,
    SignalBounds,
    StaticOracleError,
    static_signal_bounds,
)

__all__ = [
    "Diagnostic",
    "EventResolution",
    "FeasibilityReport",
    "Interval",
    "JSON_SCHEMA",
    "RULES",
    "Rule",
    "Severity",
    "SignalBounds",
    "StaticOracleError",
    "apply_suppressions",
    "check_events",
    "lint_file",
    "lint_mapping",
    "lint_platform_table",
    "lint_preset_tables",
    "lint_source",
    "parse_suppressions",
    "portability_matrix",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_event",
    "rule",
    "sort_diagnostics",
    "static_signal_bounds",
    "to_sarif",
    "worst_severity",
]
