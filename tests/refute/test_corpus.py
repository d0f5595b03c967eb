"""Replay the committed refutation-regression corpus (tier-1).

Each corpus file is a minimal program that once refuted a catalogued
model mutant.  Replaying it is a two-sided regression:

- against the **clean** model the cell must NOT refute -- a refutation
  here means real model/measurement drift crept into the tree, caught
  by a reproducer small enough to debug by eye;
- against the **catalogued mutant** it must STILL refute -- if not, the
  corpus (or the harness) went stale and needs regeneration.

Regeneration policy: see :mod:`tests.refute.regen_corpus`.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.refute.engine import RefutationEngine, RefuteConfig
from repro.refute.generator import genome_from_json
from repro.refute.mutations import MUTANTS
from repro.refute.predictor import SubstrateModel
from tests.refute.regen_corpus import (
    COMMITTED_SEED,
    CORPUS_DIR,
    CORPUS_SCHEMA,
    build_corpus,
)

_MUTANTS = {m.name: m for m in MUTANTS}


def _entries():
    files = sorted(
        name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
    )
    out = []
    for name in files:
        with open(os.path.join(CORPUS_DIR, name)) as fh:
            out.append(json.load(fh))
    return out


ENTRIES = _entries()


def _engine(platform, model=None):
    config = RefuteConfig.quick(seed=COMMITTED_SEED, platforms=[platform])
    models = {platform: model} if model is not None else None
    return RefutationEngine(config, models=models)


def test_corpus_is_present_and_well_formed():
    assert ENTRIES, (
        "empty corpus -- run `python -m tests.refute.regen_corpus`"
    )
    for entry in ENTRIES:
        assert entry["schema"] == CORPUS_SCHEMA
        assert entry["mutant"] in _MUTANTS
        assert entry["reproducer_len"] <= 30
        genome = genome_from_json(entry["genome"])
        assert genome.segments


def test_every_program_reproducible_mutant_has_an_entry():
    names = {entry["mutant"] for entry in ENTRIES}
    expected = {m.name for m in MUTANTS if m.assumption != "cost-model"}
    assert names == expected, (
        "corpus out of sync with the mutant catalogue -- "
        "run `python -m tests.refute.regen_corpus`"
    )


def test_corpus_equals_a_fresh_regeneration():
    """Every reproducer is pinned: the committed sweep, shrunk again
    today, must give back each committed entry unchanged."""
    fresh = {entry["mutant"]: entry for entry in build_corpus()}
    committed = {entry["mutant"]: entry for entry in ENTRIES}
    assert sorted(fresh) == sorted(committed)
    for name in sorted(committed):
        assert fresh[name] == committed[name], (
            f"regenerated reproducer for {name} differs from the "
            f"committed one"
        )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda e: e["mutant"] if ENTRIES else None
)
def test_clean_model_confirms(entry):
    engine = _engine(entry["platform"])
    cell = engine.replay(
        entry["platform"], genome_from_json(entry["genome"]), entry["check"]
    )
    assert cell.status == "confirmed", (
        f"corpus reproducer for {entry['mutant']} now disagrees with the "
        f"CLEAN model: real drift introduced ({cell.detail})"
    )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda e: e["mutant"] if ENTRIES else None
)
def test_mutant_model_still_refuted(entry):
    mutant = _MUTANTS[entry["mutant"]]
    model = mutant.mutate(SubstrateModel.of(entry["platform"]))
    engine = _engine(entry["platform"], model)
    cell = engine.replay(
        entry["platform"], genome_from_json(entry["genome"]), entry["check"]
    )
    assert cell.status == "refuted", (
        f"stale corpus: {entry['mutant']}'s reproducer no longer refutes "
        f"its mutant -- regenerate (see regen_corpus policy)"
    )
