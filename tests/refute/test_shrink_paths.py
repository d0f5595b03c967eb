"""Shrink paths that no catalogued mutant reaches.

The mutants refute presets, fetch geometry and access costs, one preset
at a time.  None refutes tier invariance, the attach rung or the static
bracket, and none makes two presets disagree at once, which is the only
case where pinning a shrink to the disagreeing preset matters.  These
tests patch the engine's measurement (or prediction) so that a
hand-built program refutes each of those checks, then require the
refuted cell to carry a reproducer of at most 30 instructions that,
replayed under the same patch, refutes the same check for the same
preset or tier.
"""

from __future__ import annotations

import pytest

import repro.refute.engine as engine_mod
from repro.hw.events import Signal
from repro.hw.isa import Op
from repro.refute.engine import RefutationEngine, RefuteConfig, run_refute
from repro.refute.generator import (
    GeneratedProgram,
    Genome,
    Segment,
    assumptions_of,
    build_program,
    dynamic_bound,
    genome_from_json,
)

#: acceptance ceiling for shrunk reproducers (static instructions).
REPRODUCER_CEILING = 30

PLATFORM = "simT3E"

#: an FP-divide loop, then a store loop, then a call tree: each check
#: below is made to disagree on one or two of these features.
GENOME = Genome(
    seed=7,
    segments=(
        Segment("loop", 40, ("fp_div", "alu_add", "nop")),
        Segment("loop", 40, ("mem_store", "alu_sub", "fp_mul")),
        Segment("calls", 10, ("alu_addi",)),
    ),
    leaves=(("alu_add", "fp_add"),),
)


def _has(program, *ops) -> bool:
    return any(ins.op in ops for ins in program.instructions)


@pytest.fixture(autouse=True)
def one_program(monkeypatch):
    """Every sweep in this module generates exactly GENOME."""
    gp = GeneratedProgram(
        name="g0", genome=GENOME, program=build_program(GENOME),
        assumptions=assumptions_of(GENOME),
        dynamic_bound=dynamic_bound(GENOME),
    )
    monkeypatch.setattr(engine_mod, "generate",
                        lambda seed, count, budget: [gp])


def _refuted(config: RefuteConfig, check: str):
    report = run_refute(config)
    cells = [c for c in report.refutations() if c.check == check]
    assert cells, f"the patch did not refute {check}"
    return cells[0]


def _assert_reproduces(cell, config: RefuteConfig) -> None:
    assert cell.reproducer is not None
    assert cell.reproducer_len <= REPRODUCER_CEILING
    again = RefutationEngine(config).replay(
        cell.platform, genome_from_json(cell.reproducer), cell.check
    )
    assert again.status == "refuted"
    # the detail names the disagreeing preset, tier or violation
    assert again.detail == cell.detail


def test_two_disagreeing_presets_shrink_to_the_first(monkeypatch):
    """PAPI_FP_INS reads one too many when the program divides, and
    PAPI_SR_INS when it stores.  The sweep reports PAPI_FP_INS (the
    first in sorted order), so its reproducer must keep the divide: a
    shrink that accepts any refutation drops the divide loop first and
    ends with a program only PAPI_SR_INS refutes."""
    measured = engine_mod.run_measured

    def skewed(papi, program, symbols, budget=None):
        values = measured(papi, program, symbols, budget)
        if "PAPI_FP_INS" in values and _has(program, Op.FDIV):
            values["PAPI_FP_INS"] += 1
        if "PAPI_SR_INS" in values and _has(program, Op.STORE):
            values["PAPI_SR_INS"] += 1
        return values

    monkeypatch.setattr(engine_mod, "run_measured", skewed)
    config = RefuteConfig.quick(platforms=[PLATFORM])
    cell = _refuted(config, "presets@trace")
    assert cell.detail.startswith("PAPI_FP_INS ")
    _assert_reproduces(cell, config)


def test_tier_invariance_shrinks_and_replays(monkeypatch):
    """One extra L1I access at the ``off`` tier whenever the program
    stores."""
    raw_vector = RefutationEngine._raw_vector

    def skewed(self, platform, tier, program):
        raw = raw_vector(self, platform, tier, program)
        if tier == "off" and _has(program, Op.STORE):
            raw[Signal.L1I_ACC] += 1
        return raw

    monkeypatch.setattr(RefutationEngine, "_raw_vector", skewed)
    config = RefuteConfig.quick(platforms=[PLATFORM])
    cell = _refuted(config, "tier-invariance")
    assert "'off'" in cell.detail
    _assert_reproduces(cell, config)


def test_attach_shrinks_and_replays(monkeypatch):
    """The attached count reads one too many when the program calls."""
    attached = engine_mod.run_attached

    def skewed(papi, program, decoy):
        value = attached(papi, program, decoy)
        return value + 1 if _has(program, Op.CALL) else value

    monkeypatch.setattr(engine_mod, "run_attached", skewed)
    config = RefuteConfig.thorough(platforms=[PLATFORM])
    cell = _refuted(config, "attach@trace/ncpus=4")
    _assert_reproduces(cell, config)


def test_static_bracket_shrinks_and_replays(monkeypatch):
    """The static oracle is made to report a violation for any program
    with a floating-point divide."""
    predict = engine_mod.predict

    def skewed(gp, model):
        pred = predict(gp, model)
        if _has(gp.program, Op.FDIV):
            violations = pred.static_violations + ("patched: fdiv",)
            pred = type(pred)(**{**pred.__dict__,
                                 "static_violations": violations})
        return pred

    monkeypatch.setattr(engine_mod, "predict", skewed)
    config = RefuteConfig.quick(platforms=[PLATFORM])
    cell = _refuted(config, "static-bracket")
    assert cell.platform == "reference"
    _assert_reproduces(cell, config)
