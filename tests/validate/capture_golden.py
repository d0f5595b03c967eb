"""Capture the quick conformance matrix golden.

Run from the repo root::

    PYTHONPATH=src python -m tests.validate.capture_golden

(it takes no arguments: any invocation rewrites the golden).

Writes ``golden_quick_matrix.json``: ``run_all(seed=12345).to_json()``,
every cell of the quick matrix with its expected, actual, error and
detail.  ``test_golden_matrix.py`` compares a fresh run with it cell by
cell, so the contract "292 cells, 0 failures" also pins each cell's
values, not only how many cells passed.

**Regeneration policy.**  The golden is a frozen reference, like the
differential goldens (DESIGN.md, "Regenerating the differential
goldens").  A simplification must leave it byte-identical; never
recapture to make one pass.  Recapture -- and commit the diff with its
cause -- only when a change deliberately moves a cell: a new or
re-sized plane, a new preset mapping, a platform model change, or a
change to the refutation generator or its mutant-free configuration.
On an unchanged tree the rewrite is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.validate.matrix import run_all

GOLDEN_PATH = Path(__file__).with_name("golden_quick_matrix.json")

#: the seed the quick matrix's thresholds were tuned at (see
#: ``run_all``): the simALPHA sampling cells pass at this seed only.
GOLDEN_SEED = 12345


def capture() -> dict:
    """The quick matrix at the golden seed, as its JSON document."""
    return json.loads(run_all(seed=GOLDEN_SEED).to_json_str())


def main() -> int:
    GOLDEN_PATH.write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
