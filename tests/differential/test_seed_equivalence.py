"""Differential lockdown: the SMP scheduler at ``ncpus=1`` is the seed.

Every experiment table (E1--E10, A1--A4) is re-derived on the current
tree -- which routes *all* scheduling, counter virtualization and
multiplexing through the SMP code paths -- and compared bit-exactly
against ``goldens_seed.json``, captured from the single-CPU seed tree
before the SMP layer existed.  Both engine tiers are locked down: "off"
compares against the seed's interpreter capture, "trace" against the
seed's engine capture (the tiers are bit-exact by contract, and the
two captures are equal).

A mismatch here means the refactor changed observable behaviour of the
classic single-CPU configuration; fix the regression, do not recapture
the goldens.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.hw.cpu import ENGINE_TIERS

sys.path.insert(0, str(Path(__file__).parent))

from tables import EXPERIMENTS, GOLDENS_PATH, build_table  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    assert GOLDENS_PATH.exists(), (
        "goldens_seed.json missing; run capture_goldens.py on the seed tree"
    )
    return json.loads(GOLDENS_PATH.read_text())


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_FAULT_PROFILE")),
    reason="goldens were captured fault-free; under REPRO_FAULT_PROFILE the "
           "contract is determinism, not golden equality",
)
@pytest.mark.parametrize("key", EXPERIMENTS)
@pytest.mark.parametrize("mode", [f"engine_{tier}" for tier in ENGINE_TIERS])
def test_table_matches_seed(goldens, key, mode):
    tier = mode.split("_", 1)[1]
    golden_key = "engine_off" if tier == "off" else "engine_on"
    got = json.loads(json.dumps(build_table(key, tier)))
    assert got == goldens[key][golden_key], (
        f"experiment {key} ({mode}) diverged from the seed capture"
    )


@pytest.mark.parametrize("mode", ENGINE_TIERS)
def test_tables_deterministic_under_faults(monkeypatch, mode):
    """Under a fixed fault profile an experiment table is still a pure
    function of its inputs: two derivations must agree bit-exactly,
    faults and recoveries included."""
    monkeypatch.setenv("REPRO_FAULT_PROFILE", "97:transient")
    first = json.loads(json.dumps(build_table("e7", mode)))
    second = json.loads(json.dumps(build_table("e7", mode)))
    assert first == second
