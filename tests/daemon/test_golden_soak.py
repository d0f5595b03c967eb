"""papid's observable output, pinned to the chaos-soak golden.

The CI chaos soak on the inline transport must write the same journal,
byte for byte, and reach the same fleet digest and absorbed-fault
counts as ``golden_chaos_soak.json``.  Regeneration policy:
:mod:`tests.daemon.golden_soak`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tests.daemon.golden_soak import (
    GOLDEN_PATH,
    PINNED,
    check_summary,
    run_soak,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_soak_matches_golden(golden, tmp_path, monkeypatch):
    # the soak seeds its own worker sabotage; a suite-wide substrate
    # fault knob would change every session's counts
    monkeypatch.delenv("REPRO_FAULT_PROFILE", raising=False)
    path = tmp_path / "papid.journal"
    summary = run_soak(str(path))
    assert summary["exit_code"] == 0
    assert summary["consistency_problems"] == []
    blob = path.read_bytes()
    assert (len(blob), blob.count(b"\n")) == (golden["journal_bytes"],
                                              golden["journal_lines"])
    assert hashlib.sha256(blob).hexdigest() == golden["journal_sha256"], (
        "the soak's journal moved from its golden (recapture only under "
        "the policy in tests.daemon.golden_soak)"
    )
    assert {k: summary[k] for k in PINNED} == {k: golden[k] for k in PINNED}


def test_golden_is_a_chaotic_lossless_soak(golden):
    assert golden["transport"] == "inline"
    assert golden["crashes_detected"] + golden["wedges_detected"] >= 3
    assert golden["sessions_recovered"] > 0
    assert golden["sessions_unrecovered"] == 0


def test_check_summary_compares_the_fleet_digest(golden, tmp_path):
    path = tmp_path / "soak.json"
    path.write_text(json.dumps({"fleet_digest": golden["fleet_digest"]}))
    assert check_summary(str(path)) == 0
    path.write_text(json.dumps({"fleet_digest": "0" * 64}))
    assert check_summary(str(path)) == 1
