"""The refutation engine: model vs measurement, cell by cell.

Runs every generated program across substrates x execution-engine tiers
x CPU counts and compares what the documented model
(:class:`~repro.refute.predictor.SubstrateModel`) predicts against what
the full PAPI stack measures.  Every comparison lands in exactly one of
three buckets:

- ``confirmed``: model and measurement agree (exactly on direct
  substrates, within the sampling tolerance on simALPHA);
- ``refuted``: they disagree -- the cell carries a genome-level
  **minimal reproducer** (see :mod:`repro.refute.shrink`);
- ``undecidable``: the model makes no claim here (preset unmapped,
  micro-architectural signals, sampling substrate without attach,
  too few expected samples) -- recorded, never silently dropped.

Measurements go through the same helpers the calibrate utility and the
validate planes use (:mod:`repro.core.calibrate`): presets through
:func:`~repro.core.calibrate.run_measured`, virtualized counts through
:func:`~repro.core.calibrate.run_attached` under a decoy thread,
interface costs through
:func:`~repro.core.calibrate.measure_access_costs`; fetch geometry and
tier invariance read raw machine signal totals.  Each per-program check
is one *judge* of one program on one platform, and a refutation is
shrunk by re-running that same judge on each candidate program, pinned
to the preset or tier that disagreed.  The ``models`` override hook
lets the sensitivity gate substitute a deliberately wrong model for a
faithful machine; nothing on the CLI path exposes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.calibrate import (
    ATTACH_NCPUS,
    COST_OPS,
    PROBE_SYMBOL,
    SAMPLING_PERIOD,
    SAMPLING_TOLERANCE,
    measure_access_costs,
    run_attached,
    run_measured,
    within_sampling_tolerance,
)
from repro.core.errors import PapiError
from repro.core.library import Papi
from repro.core.sampling import relative_error
from repro.hw.events import Signal
from repro.platforms import PLATFORM_NAMES, create
from repro.refute.generator import (
    GeneratedProgram,
    Genome,
    assumptions_of,
    build_program,
    dynamic_bound,
    generate,
    genome_to_json,
)
from repro.refute.predictor import Prediction, SubstrateModel, predict
from repro.refute.shrink import shrink_genome
from repro.validate.matrix import MatrixCell
from repro.validate.oracle import ORACLE_SIGNALS
from repro.validate.seeds import derive_seed
from repro.workloads import decoy_spin

__all__ = [
    "REFUTE_SCHEMA",
    "RefuteCell",
    "RefuteConfig",
    "RefuteReport",
    "RefutationEngine",
    "run_refute",
    "run_refute_plane",
]

REFUTE_SCHEMA = "repro.refute/1"

#: cell verdicts (mirrors the matrix's pass/fail/skip, renamed to say
#: what a refutation harness actually concludes).
CELL_STATUSES = ("confirmed", "refuted", "undecidable")

#: raw signals compared for tier invariance and fetch geometry.
_RAW_SIGNALS: Tuple[int, ...] = tuple(sorted(ORACLE_SIGNALS)) + (
    Signal.L1I_ACC,
)

#: engine tiers exercised; the first is the canonical combo's tier.
TIERS: Tuple[str, ...] = ("trace", "off")

#: a sampling-substrate preset is only decidable when the model expects
#: at least this many interrupt matches (estimate noise
#: ~1/sqrt(matches); 32 keeps it inside the tolerance).
SAMPLING_MIN_MATCHES = 32

#: candidate programs one shrink may judge.
MAX_SHRINK_CHECKS = 120


@dataclass(frozen=True)
class RefuteConfig:
    """One refutation run, fully pinned by its fields.

    The committed quick/thorough shapes are classmethods so CI, tests
    and EXPERIMENTS.md all cite the same seed/budget pair.
    """

    seed: int = 12345
    #: programs generated per run.
    count: int = 4
    #: dynamic-instruction budget per generated program.
    budget: int = 3_000
    platforms: Tuple[str, ...] = tuple(PLATFORM_NAMES)
    #: run every (tier, ncpus) combo for every program (nightly); the
    #: quick default round-robins the alternates across programs.
    full_cross: bool = False

    @classmethod
    def quick(cls, seed: int = 12345,
              platforms: Optional[Sequence[str]] = None) -> "RefuteConfig":
        """The PR-scoped smoke shape (also the committed-corpus shape)."""
        return cls(seed=seed,
                   platforms=tuple(platforms) if platforms
                   else tuple(PLATFORM_NAMES))

    @classmethod
    def thorough(cls, seed: int = 12345,
                 platforms: Optional[Sequence[str]] = None) -> "RefuteConfig":
        """The nightly shape: more/bigger programs, full combo cross."""
        return cls(seed=seed, count=8, budget=12_000, full_cross=True,
                   platforms=tuple(platforms) if platforms
                   else tuple(PLATFORM_NAMES))


@dataclass
class RefuteCell:
    """One model-vs-measurement comparison."""

    platform: str
    program: str            # generated program name, or "-" for
    check: str              # program-independent checks
    assumption: str         # model assumption tag the check exercises
    status: str             # confirmed | refuted | undecidable
    expected: Optional[float] = None
    actual: Optional[float] = None
    detail: str = ""
    #: shrunk genome (JSON form) reproducing the refutation.
    reproducer: Optional[Dict[str, object]] = None
    #: static instruction count of the shrunk reproducer program.
    reproducer_len: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in CELL_STATUSES:
            raise ValueError(f"bad refute cell status {self.status!r}")

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "platform": self.platform,
            "program": self.program,
            "check": self.check,
            "assumption": self.assumption,
            "status": self.status,
        }
        for key in ("expected", "actual"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.detail:
            out["detail"] = self.detail
        if self.reproducer is not None:
            out["reproducer"] = self.reproducer
            out["reproducer_len"] = self.reproducer_len
        return out


@dataclass
class RefuteReport:
    """All cells of one refutation run plus the generated corpus."""

    config: RefuteConfig
    cells: List[RefuteCell] = field(default_factory=list)
    programs: List[Dict[str, object]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(c.status == "refuted" for c in self.cells)

    def refutations(self) -> List[RefuteCell]:
        return [c for c in self.cells if c.status == "refuted"]

    def summary(self) -> Dict[str, int]:
        tally = {status: 0 for status in CELL_STATUSES}
        for cell in self.cells:
            tally[cell.status] += 1
        return tally

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": REFUTE_SCHEMA,
            "passed": self.passed,
            "meta": {
                "seed": self.config.seed,
                "count": self.config.count,
                "budget": self.config.budget,
                "platforms": list(self.config.platforms),
                "tiers": list(TIERS),
                "ncpus": list(ATTACH_NCPUS),
                "full_cross": self.config.full_cross,
            },
            "summary": self.summary(),
            "programs": self.programs,
            "cells": [c.to_json() for c in self.cells],
        }

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def to_markdown(self) -> str:
        """Per-platform verdict table plus refutation details."""
        tallies: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            t = tallies.setdefault(
                cell.platform, {s: 0 for s in CELL_STATUSES}
            )
            t[cell.status] += 1
        lines = [
            "| platform | confirmed | refuted | undecidable |",
            "| --- | --- | --- | --- |",
        ]
        for platform in sorted(tallies):
            t = tallies[platform]
            lines.append(
                f"| {platform} | {t['confirmed']} | {t['refuted']} "
                f"| {t['undecidable']} |"
            )
        for cell in self.refutations():
            lines.append("")
            lines.append(
                f"**REFUTED** `{cell.platform}/{cell.program}/{cell.check}` "
                f"({cell.assumption}): expected {cell.expected}, "
                f"measured {cell.actual} -- {cell.detail} "
                f"(reproducer: {cell.reproducer_len} instructions)"
            )
        return "\n".join(lines)


def _rebuild(genome: Genome) -> GeneratedProgram:
    return GeneratedProgram(
        name="shrunk",
        genome=genome,
        program=build_program(genome),
        assumptions=assumptions_of(genome),
        dynamic_bound=dynamic_bound(genome),
    )


class _Trial:
    """One program on one platform, as the judges see it.

    The model's prediction is derived once and each tier's raw signal
    vector is measured once, however many judges read them.
    """

    def __init__(self, engine: "RefutationEngine", platform: str,
                 gp: GeneratedProgram) -> None:
        self.engine = engine
        self.platform = platform
        self.gp = gp
        self._raw: Dict[str, Dict[int, int]] = {}

    @cached_property
    def pred(self) -> Prediction:
        return predict(self.gp, self.engine.model(self.platform))

    def raw(self, tier: str) -> Dict[int, int]:
        if tier not in self._raw:
            self._raw[tier] = self.engine._raw_vector(
                self.platform, tier, self.gp.program
            )
        return self._raw[tier]


#: what a judge returns: its cell, and the subject that disagreed (the
#: preset symbol or engine tier a shrink pins; None when the check has a
#: single subject or nothing disagreed).
Verdict = Tuple[RefuteCell, Optional[str]]


class RefutationEngine:
    """Runs one :class:`RefuteConfig`; see the module docstring.

    *models* (test-only) maps platform name to a substitute
    :class:`SubstrateModel`; platforms not in the map use their real
    documented model.  The machines measured against are never mutated.
    """

    def __init__(self, config: RefuteConfig,
                 models: Optional[Dict[str, SubstrateModel]] = None) -> None:
        self.config = config
        self._model_overrides = dict(models or {})
        self._models: Dict[str, SubstrateModel] = {}
        self._subs: Dict[Tuple[str, str], object] = {}
        self._run_budget = max(100_000, 20 * config.budget)

    # -- shared resources --------------------------------------------------

    def model(self, platform: str) -> SubstrateModel:
        if platform not in self._models:
            self._models[platform] = self._model_overrides.get(
                platform
            ) or SubstrateModel.of(platform, seed=self.config.seed)
        return self._models[platform]

    def _substrate(self, platform: str, tier: str):
        """A cached ncpus=1 substrate at *tier* (clean path, no faults)."""
        key = (platform, tier)
        if key not in self._subs:
            self._subs[key] = create(
                platform,
                seed=derive_seed(self.config.seed, f"sub:{platform}:{tier}"),
                engine=tier,
                inject="",
            )
        return self._subs[key]

    def _papi(self, substrate) -> Papi:
        """A library instance on *substrate* at the shared ProfileMe
        period (which only the sampling substrate reads)."""
        papi = Papi(substrate)
        papi.sampling_period = SAMPLING_PERIOD
        return papi

    # -- raw measurement ---------------------------------------------------

    def _raw_vector(self, platform: str, tier: str,
                    program) -> Dict[int, int]:
        """Per-signal deltas of one fresh load+run (machine-lifetime
        totals are never reset, so deltas are the only honest read)."""
        machine = self._substrate(platform, tier).machine
        before = {s: machine.signal_total(s) for s in _RAW_SIGNALS}
        machine.load(program)
        machine.run_to_completion(budget_instructions=self._run_budget)
        return {
            s: machine.signal_total(s) - before[s] for s in _RAW_SIGNALS
        }

    def _measure(self, tier: str, trial: _Trial,
                 symbols: Sequence[str]) -> Dict[str, int]:
        """*symbols* counted over one run of the trial's program."""
        papi = self._papi(self._substrate(trial.platform, tier))
        return run_measured(papi, trial.gp.program, symbols,
                            budget=self._run_budget)

    # -- judges --------------------------------------------------------------

    def _judge_static(self, trial: _Trial,
                      pin: Optional[str] = None) -> Verdict:
        """Static-oracle bounds must bracket the reference interpreter."""
        pred = trial.pred
        refuted = bool(pred.static_violations)
        return RefuteCell(
            platform="reference", program=trial.gp.name,
            check="static-bracket", assumption="static-bracket",
            status="refuted" if refuted else "confirmed",
            detail=(
                "; ".join(pred.static_violations) if refuted else
                ("closed form exact" if pred.static_exact
                 else "interval bracket only (data-dependent branches)")
            ),
        ), None

    def _judge_presets(self, tier: str, trial: _Trial,
                       pin: Optional[str] = None) -> Verdict:
        """Every checkable preset (or only *pin*), measured through the
        EventSet path.

        Aggregated to one cell per (program, platform, tier): the first
        disagreeing preset refutes, and is the subject a shrink pins.
        """
        cell = partial(RefuteCell, platform=trial.platform,
                       program=trial.gp.name, check=f"presets@{tier}",
                       assumption="preset-mapping")
        checkable = {
            s: e for s, e in trial.pred.checkable_presets().items()
            if pin is None or s == pin
        }
        if not checkable:
            return cell(
                status="undecidable",
                detail="no analytically checkable presets mapped here",
            ), None
        if self.model(trial.platform).counting == "sampling":
            return self._judge_sampled_presets(tier, trial, checkable, cell)
        measured: Dict[str, int] = {}
        uncountable: List[str] = []
        for symbol in sorted(checkable):
            try:
                measured.update(self._measure(tier, trial, [symbol]))
            except PapiError:
                uncountable.append(symbol)
        if not measured:
            return cell(
                status="undecidable",
                detail=f"no preset countable: {', '.join(uncountable)}",
            ), None
        for symbol in sorted(measured):
            expected = checkable[symbol].expected
            actual = measured[symbol]
            if actual != expected:
                return cell(
                    status="refuted", expected=expected, actual=actual,
                    detail=f"{symbol} disagrees with the documented "
                           f"mapping",
                ), symbol
        note = f"{len(measured)} presets exact"
        if uncountable:
            note += f"; uncountable: {', '.join(uncountable)}"
        return cell(status="confirmed", detail=note), None

    def _judge_sampled_presets(self, tier: str, trial: _Trial, checkable,
                               cell) -> Verdict:
        """simALPHA: one ProfileMe run, all decidable presets at once."""
        floor = SAMPLING_MIN_MATCHES * SAMPLING_PERIOD
        symbols = [
            s for s in sorted(checkable)
            if (checkable[s].expected or 0) >= floor
        ]
        if not symbols:
            return cell(
                status="undecidable",
                detail=f"no preset expects >= {floor} events "
                       f"({SAMPLING_MIN_MATCHES} interrupt matches); "
                       f"estimates would be noise",
            ), None
        try:
            values = self._measure(tier, trial, symbols)
        except PapiError as exc:
            return cell(
                status="undecidable",
                detail=f"sampling session failed: {exc}",
            ), None
        for symbol in symbols:
            expected = checkable[symbol].expected
            actual = values[symbol]
            if not within_sampling_tolerance(actual, expected):
                err = relative_error(actual, expected)
                return cell(
                    status="refuted", expected=expected, actual=actual,
                    detail=f"{symbol} estimate off by {err:.0%} "
                           f"(tolerance {SAMPLING_TOLERANCE:.0%})",
                ), symbol
        return cell(
            status="confirmed",
            detail=f"{len(symbols)} estimates within "
                   f"{SAMPLING_TOLERANCE:.0%}",
        ), None

    def _judge_fetch(self, tier: str, trial: _Trial,
                     pin: Optional[str] = None) -> Verdict:
        """L1I accesses vs the model's documented fetch-line width.

        Only meaningful at ncpus=1: a migration re-colds the fetch line
        mid-stream, which the documented model does not (and should not)
        predict.
        """
        expected = trial.pred.l1i_accesses
        actual = trial.raw(tier)[Signal.L1I_ACC]
        line = self.model(trial.platform).l1i_line_bytes
        return RefuteCell(
            platform=trial.platform, program=trial.gp.name,
            check=f"fetch-geometry@{tier}", assumption="fetch-geometry",
            status="confirmed" if actual == expected else "refuted",
            expected=expected, actual=actual,
            detail=f"documented L1I line = {line}B",
        ), None

    def _judge_tiers(self, trial: _Trial,
                     pin: Optional[str] = None) -> Verdict:
        """Every engine tier (or only *pin*) must match the first one
        bit for bit on raw signals."""
        cell = partial(RefuteCell, platform=trial.platform,
                       program=trial.gp.name, check="tier-invariance",
                       assumption="tier-invariance")
        base = TIERS[0]
        for tier in TIERS[1:]:
            if pin is not None and tier != pin:
                continue
            want, got = trial.raw(base), trial.raw(tier)
            diff = [s for s in _RAW_SIGNALS if got[s] != want[s]]
            if diff:
                sig = diff[0]
                return cell(
                    status="refuted", expected=want[sig], actual=got[sig],
                    detail=f"signal {sig} differs between engine tiers "
                           f"{base!r} and {tier!r}",
                ), tier
        return cell(
            status="confirmed",
            detail=f"{len(TIERS)} tiers bit-identical on "
                   f"{len(_RAW_SIGNALS)} signals",
        ), None

    def _judge_attach(self, tier: str, ncpus: int, trial: _Trial,
                      pin: Optional[str] = None) -> Verdict:
        """Virtualized counts across CPUs must see exactly one thread:
        :data:`PROBE_SYMBOL` attached to the program's thread while a
        decoy competes for *ncpus* CPUs (fresh machine per run)."""
        platform = trial.platform
        cell = partial(RefuteCell, platform=platform, program=trial.gp.name,
                       check=f"attach@{tier}/ncpus={ncpus}",
                       assumption="counter-virtualization")
        if self.model(platform).counting == "sampling":
            return cell(
                status="undecidable",
                detail="sampling substrate has no per-thread attach",
            ), None
        exp = trial.pred.presets.get(PROBE_SYMBOL)
        if exp is None or not exp.checkable:
            return cell(
                status="undecidable",
                detail=f"{PROBE_SYMBOL} not checkable here",
            ), None
        substrate = create(
            platform,
            seed=derive_seed(self.config.seed,
                             f"sub:{platform}:{tier}:n{ncpus}"),
            engine=tier,
            ncpus=ncpus,
            inject="",
        )
        try:
            actual = run_attached(self._papi(substrate), trial.gp.program,
                                  decoy_spin(self.config.budget).program)
        except PapiError as exc:
            return cell(
                status="undecidable",
                detail=f"attach not countable: {exc}",
            ), None
        return cell(
            status="confirmed" if actual == exp.expected else "refuted",
            expected=exp.expected, actual=actual,
            detail="attached thread vs decoy under round-robin",
        ), None

    def _judge(self, check: str) -> Callable[..., Verdict]:
        """The judge of the cells named *check* (the names the sweep
        emits: ``static-bracket``, ``tier-invariance``,
        ``fetch-geometry@<tier>``, ``presets@<tier>``,
        ``attach@<tier>/ncpus=<n>``)."""
        kind, _, where = check.partition("@")
        if check == "static-bracket":
            return self._judge_static
        if check == "tier-invariance":
            return self._judge_tiers
        if kind == "fetch-geometry" and where:
            return partial(self._judge_fetch, where)
        if kind == "presets" and where:
            return partial(self._judge_presets, where)
        if kind == "attach" and "/ncpus=" in where:
            tier, _, n = where.partition("/ncpus=")
            return partial(self._judge_attach, tier, int(n))
        raise ValueError(f"unknown refute check {check!r}")

    def _judged(self, check: str, trial: _Trial) -> RefuteCell:
        """Judge *trial*; a refutation is shrunk to a minimal reproducer.

        The shrink re-runs the same judge on each candidate program,
        pinned to the subject that disagreed, so the reproducer refutes
        the same preset or tier as the program it came from.
        """
        judge = self._judge(check)
        cell, subject = judge(trial)
        if cell.status == "refuted":

            def refutes(genome: Genome) -> bool:
                candidate = _Trial(self, trial.platform, _rebuild(genome))
                return judge(candidate, subject)[0].status == "refuted"

            genome = shrink_genome(trial.gp.genome, refutes,
                                   max_checks=MAX_SHRINK_CHECKS)
            cell.reproducer = genome_to_json(genome)
            cell.reproducer_len = len(build_program(genome).resolve())
        return cell

    def _cost_cell(self, platform: str) -> RefuteCell:
        """Interface wall-cycle deltas vs the model's AccessCosts."""
        model = self.model(platform)
        cell = partial(RefuteCell, platform=platform, program="-",
                       check="access-costs", assumption="cost-model")
        if model.counting == "sampling":
            return cell(
                status="undecidable",
                detail="sampling interface amortizes into interrupt "
                       "delivery; no per-op cost model to refute",
            )
        measured, n = measure_access_costs(
            self._papi(self._substrate(platform, TIERS[0]))
        )
        expected = model.costs.per_op(n)
        for op in COST_OPS:
            if measured[op] != expected[op]:
                return cell(
                    status="refuted",
                    expected=expected[op], actual=measured[op],
                    detail=f"documented {op} cost disagrees with the "
                           f"measured wall-cycle delta "
                           f"(no program reproducer: cost cells are "
                           f"program-independent)",
                )
        return cell(
            status="confirmed",
            detail=f"start/read/reset/stop deltas match AccessCosts "
                   f"({n} counter(s))",
        )

    # -- replay ------------------------------------------------------------

    def replay(self, platform: str, genome: Genome,
               check: str) -> RefuteCell:
        """Re-evaluate one named check for one genome, without shrinking.

        This is the corpus-regression entry point: a committed minimal
        reproducer is replayed against the current tree -- confirmed
        under the real model (no drift reintroduced), refuted under the
        catalogued mutant (the harness still has teeth).  *check* uses
        the names the sweep emits (see :meth:`_judge`, plus
        ``access-costs``).
        """
        if check == "access-costs":
            return self._cost_cell(platform)
        judge = self._judge(check)
        if platform == "reference":
            platform = self.config.platforms[0]
        return judge(_Trial(self, platform, _rebuild(genome)))[0]

    # -- orchestration -----------------------------------------------------

    def _checks(self, index: int) -> List[str]:
        """Per-(program, platform) checks for program *index*.

        Quick runs measure every program at the canonical (tier, ncpus)
        combo and round-robin the alternates across programs; thorough
        runs take the full cross so every program hits every combo.
        """
        canonical = (TIERS[0], 1)
        alternates = [
            (tier, n)
            for n in ATTACH_NCPUS
            for tier in TIERS
            if (tier, n) != canonical
        ]
        if self.config.full_cross:
            combos = [canonical] + alternates
        else:
            combos = [canonical, alternates[index % len(alternates)]]
        return ["tier-invariance", f"fetch-geometry@{TIERS[0]}"] + [
            f"presets@{tier}" if n == 1 else f"attach@{tier}/ncpus={n}"
            for tier, n in combos
        ]

    def run(self) -> RefuteReport:
        cfg = self.config
        report = RefuteReport(config=cfg)
        programs = generate(
            derive_seed(cfg.seed, "refute:generate"),
            count=cfg.count,
            budget=cfg.budget,
        )
        for gp in programs:
            report.programs.append({
                "name": gp.name,
                "assumptions": sorted(gp.assumptions),
                "dynamic_bound": gp.dynamic_bound,
                "static_len": len(gp.program.resolve()),
                "genome": genome_to_json(gp.genome),
            })
        # program-independent cells first: interface costs per platform.
        for platform in cfg.platforms:
            report.cells.append(self._cost_cell(platform))
        # per-program cells: the static cross-check once (on the first
        # platform's prediction), then every check on every platform.
        for index, gp in enumerate(programs):
            for platform in cfg.platforms:
                trial = _Trial(self, platform, gp)
                checks = self._checks(index)
                if platform == cfg.platforms[0]:
                    checks.insert(0, "static-bracket")
                for check in checks:
                    report.cells.append(self._judged(check, trial))
        return report


def run_refute(
    config: Optional[RefuteConfig] = None,
    models: Optional[Dict[str, SubstrateModel]] = None,
) -> RefuteReport:
    """Run one refutation sweep and return its report.

    *models* is the test-only documented-model override hook (see
    :mod:`repro.refute.mutations`); production callers leave it None.
    """
    return RefutationEngine(config or RefuteConfig.quick(),
                            models=models).run()


_STATUS_TO_MATRIX = {
    "confirmed": "pass",
    "refuted": "fail",
    "undecidable": "skip",
}


def run_refute_plane(
    platforms: Sequence[str],
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    """The refutation sweep as a validate plane (``--planes refute``)."""
    config = (RefuteConfig.thorough(seed=seed, platforms=platforms)
              if thorough else
              RefuteConfig.quick(seed=seed, platforms=platforms))
    report = run_refute(config)
    cells: List[MatrixCell] = []
    for cell in report.cells:
        detail = cell.detail
        if cell.status == "refuted" and cell.reproducer_len is not None:
            detail = (
                f"{detail} [reproducer: {cell.reproducer_len} ins]"
            ).strip()
        cells.append(MatrixCell(
            plane="refute",
            platform=cell.platform,
            name=f"{cell.program}/{cell.check}",
            status=_STATUS_TO_MATRIX[cell.status],
            expected=cell.expected,
            actual=cell.actual,
            detail=detail,
        ))
    return cells
