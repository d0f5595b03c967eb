"""The conformance matrix: aggregation and rendering of validate results.

Every plane runner returns a list of :class:`MatrixCell`; a
:class:`ConformanceMatrix` collects them, knows whether the whole run
passed (no cell failed), and renders itself as JSON (machine-readable,
the CI artifact) or text (via :mod:`repro.analysis.report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import Table

#: canonical plane order for reports.
PLANES = ("oracle", "virtual", "components", "cost", "convergence",
          "skid", "refute")

#: cell verdicts.  ``skip`` records *why* a cell is unscored (preset not
#: mapped / touches micro-architectural signals / feature unsupported)
#: -- an honest matrix shows its holes instead of silently omitting them.
STATUSES = ("pass", "fail", "skip")


@dataclass
class MatrixCell:
    """One scored (or deliberately unscored) check."""

    plane: str
    platform: str
    name: str               # preset symbol, op name, event, or metric
    status: str             # pass | fail | skip
    expected: Optional[float] = None
    actual: Optional[float] = None
    #: relative error (oracle/convergence) or score (skid: fraction of
    #: samples attributed to the true code) where the plane defines one.
    error: Optional[float] = None
    #: platform semantics legitimately differ from the reference
    #: catalogue on this workload (the POWER3 hazard, surfaced).
    drift: bool = False
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"bad cell status {self.status!r}")

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "plane": self.plane,
            "platform": self.platform,
            "name": self.name,
            "status": self.status,
        }
        for key in ("expected", "actual", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.drift:
            out["drift"] = True
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ConformanceMatrix:
    """All cells from one validate run, plus run metadata."""

    cells: List[MatrixCell] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def extend(self, cells: Sequence[MatrixCell]) -> None:
        self.cells.extend(cells)

    @property
    def passed(self) -> bool:
        return not any(c.status == "fail" for c in self.cells)

    def failures(self) -> List[MatrixCell]:
        return [c for c in self.cells if c.status == "fail"]

    def plane_cells(self, plane: str) -> List[MatrixCell]:
        return [c for c in self.cells if c.plane == plane]

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-plane tallies: ``{plane: {pass: n, fail: n, skip: n}}``."""
        out: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            tally = out.setdefault(
                cell.plane, {status: 0 for status in STATUSES}
            )
            tally[cell.status] += 1
        return out

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro.validate/1",
            "passed": self.passed,
            "meta": dict(self.meta),
            "summary": self.summary(),
            "cells": [c.to_json() for c in self.cells],
        }

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        chunks: List[str] = []
        summary = self.summary()
        head = Table(["plane", "pass", "fail", "skip"],
                     title="conformance summary")
        for plane in PLANES:
            if plane not in summary:
                continue
            tally = summary[plane]
            head.add_row(plane, tally["pass"], tally["fail"], tally["skip"])
        chunks.append(head.render())
        for plane in PLANES:
            cells = self.plane_cells(plane)
            if not cells:
                continue
            table = Table(
                ["platform", "name", "status", "expected", "actual",
                 "error", "note"],
                title=f"plane: {plane}",
            )
            for c in cells:
                note = c.detail
                if c.drift:
                    note = f"[drift] {note}".strip()
                table.add_row(c.platform, c.name, c.status, c.expected,
                              c.actual, c.error, note or None)
            chunks.append(table.render())
        verdict = "PASS" if self.passed else "FAIL"
        fails = len(self.failures())
        chunks.append(
            f"conformance: {verdict} "
            f"({len(self.cells)} cells, {fails} failures)"
        )
        return "\n\n".join(chunks)

    def to_markdown(self) -> str:
        """Summary as a GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
        lines = ["| plane | pass | fail | skip |", "| --- | --- | --- | --- |"]
        summary = self.summary()
        for plane in PLANES:
            if plane not in summary:
                continue
            tally = summary[plane]
            lines.append(
                f"| {plane} | {tally['pass']} | {tally['fail']} "
                f"| {tally['skip']} |"
            )
        return "\n".join(lines)


def run_all(
    platforms: Optional[Sequence[str]] = None,
    planes: Optional[Sequence[str]] = None,
    thorough: bool = False,
    seed: int = 12345,
) -> ConformanceMatrix:
    """Run the requested planes and aggregate one conformance matrix.

    *platforms* defaults to all six; *planes* to every plane in
    :data:`PLANES` (plus the attach/SMP virtualization rung of the
    oracle plane).  *thorough* scales work up (longer convergence
    sweeps, denser sampling, the full refutation combo cross) for the
    nightly CI job; the default is sized for a PR-scoped quick matrix.

    *seed* is the run's single master seed.  The planes that make
    stochastic choices beyond machine construction -- the refutation
    program generator, the convergence sweeps, and the cost plane's
    transient-fault profile -- each receive an independent stream via
    :func:`repro.validate.seeds.derive_seed` (labels ``plane:refute``,
    ``plane:convergence``, ``fault:transient``), so one documented
    integer pins them all without any two sharing a stream.  The other
    planes (oracle, virtual, cost's clean rung, skid) take the master
    seed directly.  Their direct-substrate verdicts are exact
    equalities; the oracle plane's simALPHA cells are sample-derived
    estimates under a fixed 20 % tolerance, and at the quick size they
    pass at seed 12345 only (ROADMAP, "Verdicts that hold at every
    seed").
    """
    # plane imports are deferred so `repro.validate.matrix` stays
    # importable from the plane modules without a cycle.
    from repro.refute.engine import run_refute_plane
    from repro.validate.components import run_components_plane
    from repro.validate.conformance import (
        run_oracle_plane,
        run_virtualization_plane,
    )
    from repro.validate.convergence import run_convergence_plane
    from repro.validate.cost import run_cost_plane
    from repro.validate.seeds import derive_seed
    from repro.validate.skid import run_skid_plane

    from repro.platforms import PLATFORM_NAMES

    names = list(platforms) if platforms else list(PLATFORM_NAMES)
    unknown = [n for n in names if n not in PLATFORM_NAMES]
    if unknown:
        raise ValueError(f"unknown platforms: {unknown}")
    wanted = list(planes) if planes else list(PLANES)
    bad = [p for p in wanted if p not in PLANES]
    if bad:
        raise ValueError(f"unknown planes: {bad}; known: {list(PLANES)}")

    matrix = ConformanceMatrix(meta={
        "platforms": names,
        "planes": wanted,
        "thorough": thorough,
        "seed": seed,
    })
    if "oracle" in wanted:
        matrix.extend(run_oracle_plane(names, thorough=thorough, seed=seed))
    if "virtual" in wanted:
        matrix.extend(
            run_virtualization_plane(names, thorough=thorough, seed=seed)
        )
    if "components" in wanted:
        matrix.extend(
            run_components_plane(names, thorough=thorough, seed=seed)
        )
    if "cost" in wanted:
        matrix.extend(run_cost_plane(names, seed=seed))
    if "convergence" in wanted:
        matrix.extend(run_convergence_plane(
            thorough=thorough,
            seed=derive_seed(seed, "plane:convergence"),
        ))
    if "skid" in wanted:
        matrix.extend(run_skid_plane(names, thorough=thorough, seed=seed))
    if "refute" in wanted:
        matrix.extend(run_refute_plane(
            names, thorough=thorough,
            seed=derive_seed(seed, "plane:refute"),
        ))
    return matrix
