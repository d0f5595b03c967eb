"""The papi-lint engine: parse, analyze, suppress, sort.

One entry point per input kind:

- :func:`lint_source` / :func:`lint_file` run the AST walk's
  preset-table rule (:mod:`repro.lint.apilint`, PL2xx) and the
  CFG-based typestate pass (:mod:`repro.lint.flow`, every rule about
  PAPI objects) over a Python instrumentation script, and merge their
  findings;
- the feasibility and preset-table analyzers are also usable directly
  via :mod:`repro.lint.feasibility` and :mod:`repro.lint.presetlint`
  for the ``check-events`` / ``check-presets`` CLI verbs.

The two passes do not overlap.  ``flow=True`` only adds the typestate
pass's PL3xx/PL4xx findings (misuse on some paths only, or seen
through a helper); without it they are dropped.  Only exact duplicates
are collapsed.

A file that does not parse yields exactly one PL900 diagnostic at the
syntax error's position rather than raising -- linters report, they do
not crash.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.apilint import ApiLinter
from repro.lint.diagnostics import (
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
    sort_diagnostics,
)


def lint_source(
    source: str,
    path: str = "<string>",
    default_platform: Optional[str] = None,
    flow: bool = False,
) -> List[Diagnostic]:
    """Lint Python *source*; returns sorted, suppression-filtered findings.

    *default_platform* supplies a platform for the event-name and
    feasibility checks of a set whose library does not pin one
    statically (the CLI's ``--platform`` flag).  *flow* additionally
    reports the typestate pass's PL3xx/PL4xx findings; both modes run
    the same analysis.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            "PL900", path, exc.lineno or 0, (exc.offset or 1) - 1,
            f"cannot parse: {exc.msg}",
        )]
    from repro.lint.flow import lint_flow

    linter = ApiLinter(path, default_platform=default_platform)
    diagnostics = linter.lint(tree)
    found = lint_flow(tree, path, default_platform)
    if not flow:
        found = [d for d in found if d.code[2] not in "34"]
    diagnostics = list(dict.fromkeys(diagnostics + found))
    diagnostics = apply_suppressions(
        diagnostics, parse_suppressions(source)
    )
    return sort_diagnostics(diagnostics)


def lint_file(
    path: str,
    default_platform: Optional[str] = None,
    flow: bool = False,
) -> List[Diagnostic]:
    """Lint one file on disk (unreadable files become PL900)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return [Diagnostic(
            "PL900", path, 0, 0, f"cannot read file: {exc.strerror}",
        )]
    return lint_source(
        source, path, default_platform=default_platform, flow=flow
    )
