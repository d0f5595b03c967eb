"""The AST rule of papi-lint: preset-table edits in a script (PL2xx).

An assignment ``PLATFORM_PRESET_TABLES["plat"]["SYM"] = [...]`` with
literal keys and terms is handed to the preset lint
(:func:`repro.lint.presetlint.lint_mapping`), anchored at the
assignment and its terms.  The rule needs no object model, so it walks
the module's statements once.

Every rule about PAPI objects -- event names, membership, multiplexing
and overflow configuration, feasibility, mixed interfaces, swallowed
errors and run state -- comes from the typestate pass
(:mod:`repro.lint.typestate`, :mod:`repro.lint.flow`), which interprets
each scope over its control-flow graph.  The linted script is never
imported or run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.lint.diagnostics import Diagnostic
from repro.platforms import PLATFORM_NAMES


def _literal(node: ast.AST) -> Optional[object]:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


class ApiLinter:
    """Lints one module's AST; collect results from :attr:`diagnostics`.

    *default_platform* is accepted for the entry point's signature; the
    preset-table rule names its platform in the assignment.
    """

    def __init__(
        self, path: str, default_platform: Optional[str] = None
    ) -> None:
        self.path = path
        self.default_platform = default_platform
        self.diagnostics: List[Diagnostic] = []

    def lint(self, tree: ast.Module) -> List[Diagnostic]:
        stack: List[ast.AST] = list(tree.body)
        while stack:  # statements only: an assignment is one
            stmt = stack.pop()
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                self._preset_table_assign(stmt)
            for block in ("body", "orelse", "finalbody", "handlers", "cases"):
                stack.extend(getattr(stmt, block, ()))
        return self.diagnostics

    def _preset_table_assign(self, stmt: ast.Assign) -> None:
        """``PLATFORM_PRESET_TABLES["plat"]["SYM"] = [...]`` in a script."""
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Subscript)
        ):
            return
        base = target.value.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute)
            else None
        )
        if base_name != "PLATFORM_PRESET_TABLES":
            return
        platform = _literal(target.value.slice)
        symbol = _literal(target.slice)
        terms = _literal(stmt.value)
        if not (
            isinstance(platform, str)
            and platform in PLATFORM_NAMES
            and isinstance(symbol, str)
            and isinstance(terms, (list, tuple))
        ):
            return
        from repro.lint.presetlint import lint_mapping

        term_lines: Dict[int, int] = {}
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for i, elt in enumerate(stmt.value.elts):
                term_lines[i] = elt.lineno
        try:
            normalized = tuple((str(n), int(c)) for n, c in terms)
        except (TypeError, ValueError):
            self.diagnostics.append(Diagnostic(
                "PL202", self.path, stmt.lineno, stmt.col_offset,
                f"{platform}: {symbol} terms are not (name, coeff) pairs",
            ))
            return
        self.diagnostics.extend(lint_mapping(
            platform, symbol, normalized,
            path=self.path, line=stmt.lineno, term_lines=term_lines,
        ))
