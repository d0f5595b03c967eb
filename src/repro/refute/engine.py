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

Measurements go through the same public surfaces users hold: presets
through EventSets, virtualized counts through ``attach`` under a decoy
thread, interface costs through wall-cycle deltas, fetch geometry and
tier invariance through raw machine signal totals.  The ``models``
override hook lets the sensitivity gate substitute a deliberately wrong
model for a faithful machine; nothing on the CLI path exposes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: preset exercised on the SMP/attach rung (single-native everywhere,
#: so it allocates even on simSPARC's two pinned PICs).
_ATTACH_SYMBOL = "PAPI_TOT_INS"


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
    #: engine tiers exercised; the first is the canonical combo's tier.
    tiers: Tuple[str, ...] = ("trace", "off")
    ncpus_list: Tuple[int, ...] = (1, 4)
    #: run every (tier, ncpus) combo for every program (nightly); the
    #: quick default round-robins the alternates across programs.
    full_cross: bool = False
    shrink: bool = True
    sampling_tolerance: float = 0.20
    sampling_period: int = 64
    #: a sampling-substrate preset is only decidable when the model
    #: expects at least this many interrupt matches (estimate noise
    #: ~1/sqrt(matches); 32 keeps it inside the tolerance).
    sampling_min_matches: int = 32
    max_shrink_checks: int = 120

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
                "tiers": list(self.config.tiers),
                "ncpus": list(self.config.ncpus_list),
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


def _static_len(genome: Genome) -> int:
    return len(build_program(genome).resolve())


def _rebuild(genome: Genome) -> GeneratedProgram:
    return GeneratedProgram(
        name="shrunk",
        genome=genome,
        program=build_program(genome),
        assumptions=assumptions_of(genome),
        dynamic_bound=dynamic_bound(genome),
    )


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

    def _measure_preset(self, platform: str, tier: str, program,
                        symbol: str) -> int:
        substrate = self._substrate(platform, tier)
        papi = Papi(substrate)
        machine = substrate.machine
        es = papi.create_eventset()
        try:
            es.add_event(papi.event_name_to_code(symbol))
            machine.load(program)
            es.start()
            machine.run_to_completion(budget_instructions=self._run_budget)
            return es.stop()[0]
        finally:
            if es.running:
                es.stop()
            papi.destroy_eventset(es)

    def _measure_sampling(self, platform: str, tier: str, program,
                          symbols: Sequence[str]) -> List[int]:
        substrate = self._substrate(platform, tier)
        papi = Papi(substrate)
        papi.sampling_period = self.config.sampling_period
        machine = substrate.machine
        es = papi.create_eventset()
        try:
            for symbol in symbols:
                es.add_event(papi.event_name_to_code(symbol))
            machine.load(program)
            es.start()
            machine.run_to_completion(budget_instructions=self._run_budget)
            return list(es.stop())
        finally:
            if es.running:
                es.stop()
            papi.destroy_eventset(es)

    def _measure_attached(self, platform: str, tier: str, ncpus: int,
                          program) -> int:
        """PAPI_TOT_INS attached to the program's thread while a decoy
        competes for *ncpus* CPUs (fresh machine per measurement)."""
        from repro.workloads import decoy_spin

        substrate = create(
            platform,
            seed=derive_seed(self.config.seed,
                             f"sub:{platform}:{tier}:n{ncpus}"),
            engine=tier,
            ncpus=ncpus,
            inject="",
        )
        papi = Papi(substrate)
        worker = substrate.os.spawn(program, name="refute-work")
        substrate.os.spawn(decoy_spin(self.config.budget).program,
                           name="refute-decoy")
        es = papi.create_eventset()
        try:
            es.add_event(papi.event_name_to_code(_ATTACH_SYMBOL))
            es.attach(worker)
            es.start()
            substrate.os.run()
            return es.stop()[0]
        finally:
            if es.running:
                es.stop()
            papi.destroy_eventset(es)

    # -- shrink plumbing ---------------------------------------------------

    def _shrunk(self, genome: Genome,
                still_refutes: Callable[[Genome], bool]) -> Tuple[
                    Dict[str, object], int]:
        if self.config.shrink:
            genome = shrink_genome(
                genome, still_refutes,
                max_checks=self.config.max_shrink_checks,
            )
        return genome_to_json(genome), _static_len(genome)

    # -- cells -------------------------------------------------------------

    def _static_cell(self, gp: GeneratedProgram,
                     pred: Prediction) -> RefuteCell:
        """Static-oracle bounds must bracket the reference interpreter."""
        refuted = bool(pred.static_violations)
        cell = RefuteCell(
            platform="reference", program=gp.name, check="static-bracket",
            assumption="static-bracket",
            status="refuted" if refuted else "confirmed",
            detail=(
                "; ".join(pred.static_violations) if refuted else
                ("closed form exact" if pred.static_exact
                 else "interval bracket only (data-dependent branches)")
            ),
        )
        if refuted:
            model = self.model(self.config.platforms[0])

            def still_refutes(genome: Genome) -> bool:
                return bool(
                    predict(_rebuild(genome), model).static_violations
                )

            cell.reproducer, cell.reproducer_len = self._shrunk(
                gp.genome, still_refutes
            )
        return cell

    def _preset_cell(self, platform: str, tier: str, gp: GeneratedProgram,
                     pred: Prediction) -> RefuteCell:
        """Every checkable preset, measured through the EventSet path.

        Aggregated to one cell per (program, platform, tier): the first
        disagreeing preset refutes, and the shrink predicate re-checks
        that same preset so the reproducer pins one concrete claim.
        """
        model = self.model(platform)
        check = f"presets@{tier}"
        checkable = pred.checkable_presets()
        if not checkable:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="preset-mapping", status="undecidable",
                detail="no analytically checkable presets mapped here",
            )
        if model.counting == "sampling":
            return self._preset_cell_sampling(
                platform, tier, gp, pred, checkable
            )
        measured: Dict[str, int] = {}
        uncountable: List[str] = []
        for symbol in sorted(checkable):
            try:
                measured[symbol] = self._measure_preset(
                    platform, tier, gp.program, symbol
                )
            except PapiError:
                uncountable.append(symbol)
        if not measured:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="preset-mapping", status="undecidable",
                detail=f"no preset countable: {', '.join(uncountable)}",
            )
        for symbol in sorted(measured):
            expected = checkable[symbol].expected
            actual = measured[symbol]
            if actual != expected:
                cell = RefuteCell(
                    platform=platform, program=gp.name, check=check,
                    assumption="preset-mapping", status="refuted",
                    expected=expected, actual=actual,
                    detail=f"{symbol} disagrees with the documented "
                           f"mapping",
                )

                def still_refutes(genome: Genome,
                                  symbol: str = symbol) -> bool:
                    gp2 = _rebuild(genome)
                    exp = predict(gp2, model).presets.get(symbol)
                    if exp is None or not exp.checkable:
                        return False
                    try:
                        got = self._measure_preset(
                            platform, tier, gp2.program, symbol
                        )
                    except PapiError:
                        return False
                    return got != exp.expected

                cell.reproducer, cell.reproducer_len = self._shrunk(
                    gp.genome, still_refutes
                )
                return cell
        note = f"{len(measured)} presets exact"
        if uncountable:
            note += f"; uncountable: {', '.join(uncountable)}"
        return RefuteCell(
            platform=platform, program=gp.name, check=check,
            assumption="preset-mapping", status="confirmed",
            detail=note,
        )

    def _preset_cell_sampling(self, platform: str, tier: str,
                              gp: GeneratedProgram, pred: Prediction,
                              checkable) -> RefuteCell:
        """simALPHA: one ProfileMe run, all decidable presets at once."""
        cfg = self.config
        check = f"presets@{tier}"
        floor = cfg.sampling_min_matches * cfg.sampling_period
        symbols = [
            s for s in sorted(checkable)
            if (checkable[s].expected or 0) >= floor
        ]
        if not symbols:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="preset-mapping", status="undecidable",
                detail=f"no preset expects >= {floor} events "
                       f"({cfg.sampling_min_matches} interrupt matches); "
                       f"estimates would be noise",
            )
        try:
            values = self._measure_sampling(
                platform, tier, gp.program, symbols
            )
        except PapiError as exc:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="preset-mapping", status="undecidable",
                detail=f"sampling session failed: {exc}",
            )
        for symbol, actual in zip(symbols, values):
            expected = checkable[symbol].expected
            err = relative_error(actual, expected)
            if err > cfg.sampling_tolerance:
                cell = RefuteCell(
                    platform=platform, program=gp.name, check=check,
                    assumption="preset-mapping", status="refuted",
                    expected=expected, actual=actual,
                    detail=f"{symbol} estimate off by {err:.0%} "
                           f"(tolerance {cfg.sampling_tolerance:.0%})",
                )

                def still_refutes(genome: Genome,
                                  symbol: str = symbol) -> bool:
                    gp2 = _rebuild(genome)
                    exp = predict(gp2, model=self.model(platform)).presets.get(
                        symbol
                    )
                    if exp is None or not exp.checkable:
                        return False
                    if (exp.expected or 0) < floor:
                        return False
                    try:
                        got = self._measure_sampling(
                            platform, tier, gp2.program, [symbol]
                        )[0]
                    except PapiError:
                        return False
                    return relative_error(
                        got, exp.expected
                    ) > cfg.sampling_tolerance

                cell.reproducer, cell.reproducer_len = self._shrunk(
                    gp.genome, still_refutes
                )
                return cell
        return RefuteCell(
            platform=platform, program=gp.name, check=check,
            assumption="preset-mapping", status="confirmed",
            detail=f"{len(symbols)} estimates within "
                   f"{cfg.sampling_tolerance:.0%}",
        )

    def _fetch_cell(self, platform: str, tier: str, gp: GeneratedProgram,
                    pred: Prediction,
                    raw: Dict[int, int]) -> RefuteCell:
        """L1I accesses vs the model's documented fetch-line width.

        Only meaningful at ncpus=1: a migration re-colds the fetch line
        mid-stream, which the documented model does not (and should not)
        predict.
        """
        model = self.model(platform)
        expected = pred.l1i_accesses
        actual = raw[Signal.L1I_ACC]
        cell = RefuteCell(
            platform=platform, program=gp.name,
            check=f"fetch-geometry@{tier}", assumption="fetch-geometry",
            status="confirmed" if actual == expected else "refuted",
            expected=expected, actual=actual,
            detail=f"documented L1I line = {model.l1i_line_bytes}B",
        )
        if cell.status == "refuted":

            def still_refutes(genome: Genome) -> bool:
                gp2 = _rebuild(genome)
                pred2 = predict(gp2, model)
                got = self._raw_vector(platform, tier, gp2.program)
                return got[Signal.L1I_ACC] != pred2.l1i_accesses

            cell.reproducer, cell.reproducer_len = self._shrunk(
                gp.genome, still_refutes
            )
        return cell

    def _tier_cell(self, platform: str, gp: GeneratedProgram,
                   vectors: Dict[str, Dict[int, int]]) -> RefuteCell:
        """All engine tiers must be bit-identical on raw signals."""
        tiers = list(vectors)
        base = tiers[0]
        for tier in tiers[1:]:
            diff = [
                s for s in _RAW_SIGNALS
                if vectors[tier][s] != vectors[base][s]
            ]
            if diff:
                sig = diff[0]
                cell = RefuteCell(
                    platform=platform, program=gp.name,
                    check="tier-invariance", assumption="tier-invariance",
                    status="refuted",
                    expected=vectors[base][sig], actual=vectors[tier][sig],
                    detail=f"signal {sig} differs between engine tiers "
                           f"{base!r} and {tier!r}",
                )

                def still_refutes(genome: Genome, tier: str = tier) -> bool:
                    program = build_program(genome)
                    a = self._raw_vector(platform, base, program)
                    b = self._raw_vector(platform, tier, program)
                    return any(a[s] != b[s] for s in _RAW_SIGNALS)

                cell.reproducer, cell.reproducer_len = self._shrunk(
                    gp.genome, still_refutes
                )
                return cell
        return RefuteCell(
            platform=platform, program=gp.name, check="tier-invariance",
            assumption="tier-invariance", status="confirmed",
            detail=f"{len(tiers)} tiers bit-identical on "
                   f"{len(_RAW_SIGNALS)} signals",
        )

    def _attach_cell(self, platform: str, tier: str, ncpus: int,
                     gp: GeneratedProgram,
                     pred: Prediction) -> RefuteCell:
        """Virtualized counts across CPUs must see exactly one thread."""
        model = self.model(platform)
        check = f"attach@{tier}/ncpus={ncpus}"
        if model.counting == "sampling":
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="counter-virtualization", status="undecidable",
                detail="sampling substrate has no per-thread attach",
            )
        exp = pred.presets.get(_ATTACH_SYMBOL)
        if exp is None or not exp.checkable:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="counter-virtualization", status="undecidable",
                detail=f"{_ATTACH_SYMBOL} not checkable here",
            )
        try:
            actual = self._measure_attached(
                platform, tier, ncpus, gp.program
            )
        except PapiError as exc:
            return RefuteCell(
                platform=platform, program=gp.name, check=check,
                assumption="counter-virtualization", status="undecidable",
                detail=f"attach not countable: {exc}",
            )
        cell = RefuteCell(
            platform=platform, program=gp.name, check=check,
            assumption="counter-virtualization",
            status="confirmed" if actual == exp.expected else "refuted",
            expected=exp.expected, actual=actual,
            detail="attached thread vs decoy under round-robin",
        )
        if cell.status == "refuted":

            def still_refutes(genome: Genome) -> bool:
                gp2 = _rebuild(genome)
                exp2 = predict(gp2, model).presets.get(_ATTACH_SYMBOL)
                if exp2 is None or not exp2.checkable:
                    return False
                try:
                    got = self._measure_attached(
                        platform, tier, ncpus, gp2.program
                    )
                except PapiError:
                    return False
                return got != exp2.expected

            cell.reproducer, cell.reproducer_len = self._shrunk(
                gp.genome, still_refutes
            )
        return cell

    def _cost_cell(self, platform: str) -> RefuteCell:
        """Interface wall-cycle deltas vs the model's AccessCosts."""
        model = self.model(platform)
        if model.counting == "sampling":
            return RefuteCell(
                platform=platform, program="-", check="access-costs",
                assumption="cost-model", status="undecidable",
                detail="sampling interface amortizes into interrupt "
                       "delivery; no per-op cost model to refute",
            )
        substrate = self._substrate(platform, self.config.tiers[0])
        papi = Papi(substrate)
        es = papi.create_eventset()
        try:
            es.add_event(papi.event_name_to_code(_ATTACH_SYMBOL))
            c0 = substrate.real_cyc()
            es.start()
            c1 = substrate.real_cyc()
            es.read()
            c2 = substrate.real_cyc()
            es.reset()
            c3 = substrate.real_cyc()
            es.stop()
            c4 = substrate.real_cyc()
            n = max(len(es.assignment), 1)
        finally:
            if es.running:
                es.stop()
            papi.destroy_eventset(es)
        costs = model.costs
        expected = {
            "start": costs.program * n + costs.start,
            "read": costs.read + costs.read_per_counter * n,
            "reset": costs.reset,
            "stop": costs.stop,
        }
        measured = {"start": c1 - c0, "read": c2 - c1,
                    "reset": c3 - c2, "stop": c4 - c3}
        for op in ("start", "read", "reset", "stop"):
            if measured[op] != expected[op]:
                return RefuteCell(
                    platform=platform, program="-", check="access-costs",
                    assumption="cost-model", status="refuted",
                    expected=expected[op], actual=measured[op],
                    detail=f"documented {op} cost disagrees with the "
                           f"measured wall-cycle delta "
                           f"(no program reproducer: cost cells are "
                           f"program-independent)",
                )
        return RefuteCell(
            platform=platform, program="-", check="access-costs",
            assumption="cost-model", status="confirmed",
            detail=f"start/read/reset/stop deltas match AccessCosts "
                   f"({n} counter(s))",
        )

    # -- replay ------------------------------------------------------------

    def replay(self, platform: str, genome: Genome,
               check: str) -> RefuteCell:
        """Re-evaluate one named check for one genome.

        This is the corpus-regression entry point: a committed minimal
        reproducer is replayed against the current tree -- confirmed
        under the real model (no drift reintroduced), refuted under the
        catalogued mutant (the harness still has teeth).  *check* uses
        the same names the sweep emits (``presets@<tier>``,
        ``fetch-geometry@<tier>``, ``tier-invariance``,
        ``attach@<tier>/ncpus=<n>``, ``access-costs``,
        ``static-bracket``).
        """
        gp = _rebuild(genome)
        model_platform = (self.config.platforms[0]
                          if platform == "reference" else platform)
        pred = predict(gp, self.model(model_platform))
        if check == "static-bracket":
            return self._static_cell(gp, pred)
        if check == "access-costs":
            return self._cost_cell(platform)
        if check == "tier-invariance":
            vectors = {
                tier: self._raw_vector(platform, tier, gp.program)
                for tier in self.config.tiers
            }
            return self._tier_cell(platform, gp, vectors)
        if check.startswith("fetch-geometry@"):
            tier = check.split("@", 1)[1]
            return self._fetch_cell(
                platform, tier, gp, pred,
                self._raw_vector(platform, tier, gp.program),
            )
        if check.startswith("presets@"):
            return self._preset_cell(platform, check.split("@", 1)[1],
                                     gp, pred)
        if check.startswith("attach@"):
            tier, _, n = check.split("@", 1)[1].partition("/ncpus=")
            return self._attach_cell(platform, tier, int(n), gp, pred)
        raise ValueError(f"unknown refute check {check!r}")

    # -- orchestration -----------------------------------------------------

    def _combos(self, index: int) -> List[Tuple[str, int]]:
        """(tier, ncpus) combos for program *index*.

        Quick runs measure every program at the canonical combo and
        round-robin the alternates across programs; thorough runs take
        the full cross so every program hits every combo.
        """
        cfg = self.config
        canonical = (cfg.tiers[0], 1)
        alternates = [
            (tier, n)
            for n in cfg.ncpus_list
            for tier in cfg.tiers
            if (tier, n) != canonical
        ]
        if cfg.full_cross or not alternates:
            return [canonical] + alternates
        return [canonical, alternates[index % len(alternates)]]

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
        # per-program cells: predictor cross-check once, then the
        # measurement fan across platforms and combos.
        for index, gp in enumerate(programs):
            first_pred: Optional[Prediction] = None
            for platform in cfg.platforms:
                model = self.model(platform)
                pred = predict(gp, model)
                if first_pred is None:
                    first_pred = pred
                    report.cells.append(self._static_cell(gp, pred))
                vectors = {
                    tier: self._raw_vector(platform, tier, gp.program)
                    for tier in cfg.tiers
                }
                report.cells.append(self._tier_cell(platform, gp, vectors))
                report.cells.append(self._fetch_cell(
                    platform, cfg.tiers[0], gp, pred,
                    vectors[cfg.tiers[0]],
                ))
                for tier, ncpus in self._combos(index):
                    if ncpus == 1:
                        report.cells.append(self._preset_cell(
                            platform, tier, gp, pred
                        ))
                    else:
                        report.cells.append(self._attach_cell(
                            platform, tier, ncpus, gp, pred
                        ))
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
