"""Generator invariants: determinism, budgets, assumptions, round-trips."""

from __future__ import annotations

import pytest

from repro.hw.events import Signal
from repro.refute.generator import (
    SEGMENT_KINDS,
    Genome,
    Segment,
    build_program,
    dynamic_bound,
    generate,
    genome_from_json,
    genome_to_json,
)
from repro.validate.oracle import expected_signal_counts
from repro.validate.seeds import derive_seed

SEED = derive_seed(12345, "refute:generate")


def test_generate_is_deterministic():
    a = generate(SEED, count=4, budget=3000)
    b = generate(SEED, count=4, budget=3000)
    assert [p.genome for p in a] == [p.genome for p in b]
    assert [p.program.resolve() for p in a] == [p.program.resolve() for p in b]


def test_different_seeds_differ():
    a = generate(SEED, count=4, budget=3000)
    b = generate(derive_seed(12345, "other"), count=4, budget=3000)
    assert [p.genome for p in a] != [p.genome for p in b]


@pytest.mark.parametrize("seed", [SEED, 1, 999_999])
@pytest.mark.parametrize("budget", [300, 3000])
def test_programs_halt_within_declared_bound(seed, budget):
    for gp in generate(seed, count=4, budget=budget):
        assert gp.dynamic_bound <= budget
        counts = expected_signal_counts(
            gp.program, max_instructions=gp.dynamic_bound
        )
        assert 0 < counts[Signal.TOT_INS] <= gp.dynamic_bound


def test_assumptions_cover_structure():
    for gp in generate(SEED, count=8, budget=3000):
        assert "preset-mapping" in gp.assumptions
        assert "tier-invariance" in gp.assumptions
        kinds = {seg.kind for seg in gp.genome.segments}
        if "calls" in kinds and gp.genome.leaves:
            assert "call-ret-pairing" in gp.assumptions
        if "probed" in kinds:
            assert "probe-accounting" in gp.assumptions
        ops = {op for seg in gp.genome.segments for op in seg.ops}
        if "fp_fma" in ops:
            assert "fma-normalization" in gp.assumptions


def test_genome_json_round_trip():
    for gp in generate(SEED, count=6, budget=3000):
        data = genome_to_json(gp.genome)
        assert genome_from_json(data) == gp.genome
        # the lowered program is a pure function of the genome
        rebuilt = build_program(genome_from_json(data))
        assert rebuilt.resolve() == gp.program.resolve()


def test_segment_validation_rejects_garbage():
    with pytest.raises(ValueError):
        Segment(kind="spaghetti", trips=1, ops=())
    with pytest.raises(ValueError):
        Segment(kind="loop", trips=0, ops=())
    with pytest.raises(ValueError):
        Segment(kind="loop", trips=1, ops=("warp_drive",))


def test_minimal_genome_is_a_tiny_program():
    """The shrinker's floor: one trip, one op lowers to a handful of
    instructions -- this is what keeps reproducers under the ceiling."""
    genome = Genome(seed=0, segments=(
        Segment(kind="loop", trips=1, ops=("alu_addi",)),
    ))
    program = build_program(genome)
    assert len(program.resolve()) <= 30
    counts = expected_signal_counts(program)
    assert counts[Signal.TOT_INS] <= dynamic_bound(genome)


def test_all_segment_kinds_lower_and_halt():
    leaves = (("alu_addi", "fp_add"),)
    for kind in SEGMENT_KINDS:
        genome = Genome(seed=0, segments=(
            Segment(kind=kind, trips=5,
                    ops=("alu_addi", "mem_load", "fp_mul")),
        ), leaves=leaves)
        counts = expected_signal_counts(build_program(genome))
        assert counts[Signal.TOT_INS] > 0
        if kind == "calls":
            assert counts[Signal.CALL_INS] == 5
            assert counts[Signal.RET_INS] == 5
        if kind == "probed":
            assert counts[Signal.PRB_INS] == 5


def test_unused_leaves_not_emitted():
    without_calls = Genome(seed=0, segments=(
        Segment(kind="loop", trips=2, ops=("alu_addi",)),
    ), leaves=(("alu_addi",), ("fp_add",)))
    with_calls = Genome(seed=0, segments=(
        Segment(kind="calls", trips=2, ops=("alu_addi",)),
    ), leaves=(("alu_addi",), ("fp_add",)))
    lean = Genome(seed=0, segments=without_calls.segments)
    assert (len(build_program(without_calls).resolve())
            == len(build_program(lean).resolve()))
    assert (len(build_program(with_calls).resolve())
            > len(build_program(without_calls).resolve()))
