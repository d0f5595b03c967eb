"""Documented-model predictor: what each substrate *must* report.

The refutation engine needs, for every generated program and every
substrate, the value the platform's **documented model** says each
preset will read.  That model has four published pieces, all reused here
rather than re-derived:

- the architectural ISA semantics, executed by the independent reference
  interpreter (:func:`repro.validate.oracle.expected_signal_counts`);
- the platform's native-event signal table (``NativeEvent.signals``)
  and preset mapping (:mod:`repro.core.presets`), combined by
  :func:`repro.validate.oracle.expected_preset_values`;
- the L1-instruction-cache fetch geometry (``l1i.line_bits``), which
  fully determines ``Signal.L1I_ACC`` on a single CPU;
- the static counter oracle's affine bounds
  (:mod:`repro.lint.staticoracle`), a closed-form *second* derivation of
  the same counts that must bracket -- and, for branch-free-exact
  programs, equal -- the interpreter's answer.

:class:`SubstrateModel` is a frozen snapshot of those documented
parameters, detached from the live machine.  That detachment is the
point: the sensitivity gate (``tests/refute/test_sensitivity.py``)
perturbs a *model* constant while the machine stays faithful, and every
such mutant must be refuted -- proving the harness actually compares
model against measurement instead of measurement against itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.lint.staticoracle import static_signal_bounds
from repro.refute.generator import GeneratedProgram
from repro.validate.oracle import (
    ORACLE_SIGNALS,
    PresetExpectation,
    expected_preset_values,
    expected_signal_counts,
)

__all__ = [
    "Prediction",
    "SubstrateModel",
    "predict",
]


@dataclass(frozen=True)
class SubstrateModel:
    """The documented counter model of one platform, as data.

    Everything the predictor consumes comes through this record, never
    from a live :class:`~repro.platforms.base.Substrate` -- so a test can
    hand the engine a deliberately wrong model (via ``replace``) and
    demand a refutation.
    """

    platform: str
    #: ``direct`` or ``sampling`` (drives measurement strategy, not
    #: prediction -- the documented counts are the same either way).
    counting: str
    #: native event name -> tuple of hardware signal indices it sums.
    native_signals: Dict[str, Tuple[int, ...]]
    #: documented per-operation interface costs (AccessCosts).
    costs: object
    #: documented L1I line width; fetch-line transitions per the dynamic
    #: pc stream at this width = predicted ``Signal.L1I_ACC`` (ncpus=1).
    l1i_line_bytes: int
    has_fma: bool

    @property
    def l1i_line_bits(self) -> int:
        return self.l1i_line_bytes.bit_length() - 1

    @staticmethod
    def of(platform: str, seed: int = 12345) -> "SubstrateModel":
        """Build the model from a platform's published tables.

        Instantiates a throwaway substrate purely to read its class-level
        documentation (event table, costs, cache geometry); the instance
        is discarded and never measured against.
        """
        from repro.platforms import create

        sub = create(platform, seed=seed)
        return SubstrateModel.from_substrate(sub)

    @staticmethod
    def from_substrate(substrate) -> "SubstrateModel":
        return SubstrateModel(
            platform=substrate.NAME,
            counting=substrate.COUNTING,
            native_signals={
                name: tuple(ev.signals)
                for name, ev in substrate.native_events.items()
            },
            costs=substrate.COSTS,
            l1i_line_bytes=substrate.machine.hierarchy.config.l1i.line_bytes,
            has_fma=substrate.HAS_FMA,
        )

    def with_costs(self, **changes) -> "SubstrateModel":
        """A copy with perturbed access costs (mutation hook)."""
        return replace(self, costs=replace(self.costs, **changes))

    def with_line_bytes(self, line_bytes: int) -> "SubstrateModel":
        """A copy with a perturbed L1I line width (mutation hook)."""
        return replace(self, l1i_line_bytes=int(line_bytes))

    def with_native_signals(
        self, name: str, signals: Tuple[int, ...]
    ) -> "SubstrateModel":
        """A copy with one native event's signal vector replaced."""
        if name not in self.native_signals:
            raise KeyError(f"{self.platform}: no native event {name!r}")
        table = dict(self.native_signals)
        table[name] = tuple(signals)
        return replace(self, native_signals=table)


@dataclass(frozen=True)
class Prediction:
    """Everything the documented model pins down for one program."""

    platform: str
    program: str
    #: exact architectural signal counts (reference interpreter),
    #: including ``L1I_ACC`` at the model's documented line width.
    signal_counts: List[int]
    #: predicted fetch-line transitions (== signal_counts[L1I_ACC]).
    l1i_accesses: int
    #: preset symbol -> expectation under the model's native table.
    presets: Dict[str, PresetExpectation]
    #: static-oracle closed form agreed exactly with the interpreter
    #: (None when the program is not statically exact -- bounds only).
    static_exact: Optional[bool]
    #: human-readable bracket violations from the static oracle (must be
    #: empty; a non-empty tuple refutes the static-bracket assumption).
    static_violations: Tuple[str, ...]

    def checkable_presets(self) -> Dict[str, PresetExpectation]:
        return {s: e for s, e in self.presets.items() if e.checkable}


def predict(
    generated: GeneratedProgram,
    model: SubstrateModel,
    max_instructions: int = 5_000_000,
) -> Prediction:
    """Derive the documented-model expectation for one generated program.

    Runs the reference interpreter once (with the model's fetch
    geometry), applies the model's preset mappings, and cross-checks the
    static oracle's affine bounds against the interpreted counts.
    Raises :class:`~repro.validate.oracle.OracleError` if the program
    faults -- the generator must never emit such a program, and the
    property suite holds it to that.
    """
    program = generated.program
    counts = expected_signal_counts(
        program,
        max_instructions=max_instructions,
        iline_shift=model.l1i_line_bits,
    )
    presets = expected_preset_values(
        model.platform, counts, model.native_signals
    )

    bounds = static_signal_bounds(program)
    violations = tuple(sorted(bounds.mismatches(counts)))
    static_exact: Optional[bool] = None
    if bounds.is_exact():
        static_exact = all(
            bounds.lo[sig] == counts[sig] for sig in ORACLE_SIGNALS
        )

    from repro.hw.events import Signal

    return Prediction(
        platform=model.platform,
        program=generated.name,
        signal_counts=counts,
        l1i_accesses=counts[Signal.L1I_ACC],
        presets=presets,
        static_exact=static_exact,
        static_violations=violations,
    )
