"""Property-based tests for the refutation harness.

Three guarantees the engine leans on, checked over random seeds (the
``REPRO_PROPERTY_EXAMPLES`` knob and ``HYPOTHESIS_PROFILE`` scale the
example count exactly as for the other property suites):

- **generation is a pure function of the seed**: same seed, same
  genomes, byte-identical lowered programs;
- **every generated program is valid and budgeted**: oracle-executable
  (no faults), halting, and inside its declared dynamic bound;
- **execution is bit-identical across engine tiers and CPU counts**:
  the raw architectural signal deltas of a generated program equal the
  reference interpreter's counts at every engine tier on a 1-CPU
  machine and at the trace tier on a 4-CPU one -- the invariance the
  refutation matrix assumes when it attributes a disagreement to the
  *model*.

Shrinking gets its own property: shrunk genomes stay valid programs and
never grow.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.hw.cpu import ENGINE_TIERS
from repro.hw.events import Signal
from repro.platforms import create
from repro.refute.generator import build_program, generate
from repro.refute.shrink import shrink_genome
from repro.validate.oracle import ORACLE_SIGNALS, expected_signal_counts

seeds = st.integers(min_value=0, max_value=2**48 - 1)

_SIGS = tuple(sorted(ORACLE_SIGNALS))

#: (engine tier, ncpus) configurations every program must agree across.
_CONFIGS = tuple((tier, 1) for tier in ENGINE_TIERS) + (("trace", 4),)


@given(seed=seeds)
def test_generation_is_a_pure_function_of_the_seed(seed):
    a = generate(seed, count=2, budget=500)
    b = generate(seed, count=2, budget=500)
    assert [p.genome for p in a] == [p.genome for p in b]
    assert [p.program.resolve() for p in a] == [
        p.program.resolve() for p in b
    ]


@given(seed=seeds, budget=st.sampled_from([128, 500, 2000]))
def test_programs_are_valid_and_budgeted(seed, budget):
    for gp in generate(seed, count=2, budget=budget):
        assert gp.dynamic_bound <= budget
        # oracle execution raises OracleError on any fault or runaway
        counts = expected_signal_counts(
            gp.program, max_instructions=gp.dynamic_bound
        )
        assert 0 < counts[Signal.TOT_INS] <= gp.dynamic_bound


@given(seed=seeds)
def test_bit_identical_across_tiers_and_ncpus(seed):
    gp = generate(seed, count=1, budget=300)[0]
    expected = expected_signal_counts(gp.program)
    for tier, ncpus in _CONFIGS:
        substrate = create("simT3E", seed=7, engine=tier, ncpus=ncpus,
                           inject="")
        machine = substrate.machine
        before = [machine.signal_total(s) for s in _SIGS]
        if ncpus == 1:
            machine.load(gp.program)
            machine.run_to_completion()
        else:
            substrate.os.spawn(gp.program, name="prop")
            substrate.os.run()
        for i, sig in enumerate(_SIGS):
            got = machine.signal_total(sig) - before[i]
            assert got == expected[sig], (
                f"signal {sig} drifts at tier={tier} ncpus={ncpus}: "
                f"{got} != {expected[sig]}"
            )


@given(seed=seeds)
def test_shrink_preserves_validity_and_never_grows(seed):
    genome = generate(seed, count=1, budget=500)[0].genome
    shrunk = shrink_genome(genome, lambda g: True, max_checks=40)
    assert shrunk.segments
    program = build_program(shrunk)
    expected_signal_counts(program)  # still fault-free and halting
    assert (len(program.resolve())
            <= len(build_program(genome).resolve()))
