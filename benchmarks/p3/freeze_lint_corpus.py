"""Re-freeze ``lint_corpus/expected.json`` from the current linter.

Run from the repository root::

    python3 benchmarks/p3/freeze_lint_corpus.py

Only for a deliberate change of the corpus or of a rule's verdicts; the
lint workload fails on any difference from the frozen findings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# package p3 from benchmarks/, not this directory (p3/trace.py would
# shadow the standard library's ``trace``), and repro from src/.
sys.path[0] = str(ROOT / "benchmarks")
sys.path.insert(1, str(ROOT / "src"))

from p3.workloads import (  # noqa: E402
    LINT_CORPUS,
    LINT_EXPECTED,
    corpus_files,
    lint_findings,
)


def main() -> int:
    expected = {
        p.relative_to(LINT_CORPUS).as_posix(): lint_findings(p)
        for p in corpus_files()
    }
    LINT_EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    flagged = sum(1 for v in expected.values() if v)
    print(f"{LINT_EXPECTED}: {len(expected)} files, {flagged} with findings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
