"""Capture and check the papid chaos-soak golden.

Run from the repo root::

    PYTHONPATH=src python -m tests.daemon.golden_soak
    PYTHONPATH=src python -m tests.daemon.golden_soak --check SOAK.json

The first form rewrites ``golden_chaos_soak.json``: the CI chaos soak
(:data:`SOAK_ARGS`, the ``papid-load-smoke`` job's command) run on the
inline transport with ``--journal``, recorded as the journal's SHA-256
and size, the ``fleet_digest`` and the absorbed-fault counts.
``test_golden_soak.py`` reruns the soak and compares.  The second form
checks the JSON summary of a soak run on any transport (the CI step
passes the process transport's) against the golden's ``fleet_digest``
and exits 1 when they differ: the digest covers only client-visible
fleet state, which does not depend on the transport.

**Regeneration policy.**  The golden is a frozen reference, like the
differential goldens (DESIGN.md, "Regenerating the differential
goldens").  A change to papid's internals -- how ops, results and
images cross the worker pipe, how the journal folds its records --
must leave it byte-identical; never recapture to make one pass.
Recapture, and commit the diff with its cause, only when a change
deliberately moves what the soak observes: the journal's record
format, the saboteur's schedule, the session workload or the platform
model.  On an unchanged tree the rewrite is byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

from repro.tools.cli import main as cli_main

GOLDEN_PATH = Path(__file__).with_name("golden_chaos_soak.json")

#: the CI chaos soak, less ``--transport`` and ``--journal``.
SOAK_ARGS = [
    "papid", "--sessions", "120", "--shards", "3", "--rounds", "4",
    "--inject", "42:daemon-chaos", "--batch-timeout", "2",
    "--heartbeat", "0.1", "--wedge-timeout", "1", "--format", "json",
]

#: summary fields pinned next to the journal hash.
PINNED = ("fleet_digest", "crashes_detected", "wedges_detected",
          "sessions_recovered", "sessions_unrecovered", "journal_records")


def run_soak(journal_path: str, transport: str = "inline") -> dict:
    """Run the soak through the CLI; its summary plus ``exit_code``.

    The CLI installs a SIGTERM handler for its server; the caller's
    handler is put back afterwards.
    """
    out = io.StringIO()
    previous = signal.getsignal(signal.SIGTERM)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(SOAK_ARGS + ["--transport", transport,
                                         "--journal", journal_path])
    finally:
        signal.signal(signal.SIGTERM, previous)
    summary = json.loads(out.getvalue())
    summary["exit_code"] = code
    return summary


def capture() -> dict:
    """The soak on the inline transport, as the golden's document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "papid.journal")
        summary = run_soak(path)
        blob = Path(path).read_bytes()
    if summary["exit_code"] != 0:
        raise RuntimeError(f"the soak failed: {summary}")
    doc = {
        "transport": "inline",
        "journal_sha256": hashlib.sha256(blob).hexdigest(),
        "journal_bytes": len(blob),
        "journal_lines": blob.count(b"\n"),
    }
    doc.update((key, summary[key]) for key in PINNED)
    return doc


def check_summary(summary_path: str) -> int:
    """0 when a soak summary's fleet digest equals the golden's."""
    golden = json.loads(GOLDEN_PATH.read_text())
    got = json.loads(Path(summary_path).read_text())["fleet_digest"]
    if got != golden["fleet_digest"]:
        print(f"fleet_digest {got} != golden {golden['fleet_digest']}")
        return 1
    print(f"fleet_digest {got} equals the golden")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--check"] and len(argv) == 2:
        return check_summary(argv[1])
    if argv:
        print(__doc__)
        return 2
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
