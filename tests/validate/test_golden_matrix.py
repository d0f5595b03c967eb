"""The quick conformance matrix, pinned cell by cell to its golden.

"292 cells, 0 failures" counts verdicts; a change that moves a measured
count while the cell still passes (a sampled estimate drifting inside
its tolerance, a skid score shifting, a refute cell changing its
expected value) would keep that count.  This test holds every cell's
expected, actual, error and detail to ``golden_quick_matrix.json``.
Regeneration policy: :mod:`tests.validate.capture_golden`.
"""

from __future__ import annotations

import json

import pytest

from tests.validate.capture_golden import GOLDEN_PATH, capture


def _key(cell) -> str:
    return f"{cell['plane']}/{cell['platform']}/{cell['name']}"


def first_difference(golden: dict, fresh: dict):
    """A message naming the first cell (in run order) that differs, or
    None when the two documents are equal."""
    for index, (want, got) in enumerate(zip(golden["cells"],
                                            fresh["cells"])):
        if want != got:
            keys = sorted(k for k in set(want) | set(got)
                          if want.get(k) != got.get(k))
            changes = ", ".join(
                f"{k}: {want.get(k)!r} -> {got.get(k)!r}" for k in keys
            )
            return f"cell {index} ({_key(want)}) differs: {changes}"
    if len(golden["cells"]) != len(fresh["cells"]):
        return (f"cell count {len(golden['cells'])} -> "
                f"{len(fresh['cells'])}")
    for part in ("schema", "passed", "meta", "summary"):
        if golden[part] != fresh[part]:
            return f"{part}: {golden[part]!r} -> {fresh[part]!r}"
    return None


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_quick_matrix_matches_golden(golden):
    diff = first_difference(golden, capture())
    assert diff is None, (
        f"quick matrix moved from its golden: {diff} "
        f"(recapture only under the policy in tests.validate.capture_golden)"
    )


def test_golden_is_the_passing_quick_matrix(golden):
    assert golden["passed"] is True
    assert len(golden["cells"]) == 292
    assert golden["meta"]["seed"] == 12345
    assert golden["meta"]["thorough"] is False


def test_first_difference_names_the_cell(golden):
    fresh = json.loads(json.dumps(golden))
    cell = fresh["cells"][5]
    cell["actual"] = (cell.get("actual") or 0) + 1
    diff = first_difference(golden, fresh)
    assert diff is not None and diff.startswith("cell 5 (")
    assert _key(golden["cells"][5]) in diff
    assert first_difference(golden, golden) is None
