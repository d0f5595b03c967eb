"""Append a P3 baseline entry and derive the end-to-end bounds from it.

Run from the repository root::

    python3 benchmarks/p3/pin.py --commit <sha> --reason "<why>"

Every run uses ``run.py``'s defaults, so the run length is
BENCHMARK.json's ``run_seconds``.  The entry records every value of:

- two *rounds*: each workload at seeds 1-10, the whole round twice;
- two *sets*: each workload 5 times at seed 12345, the whole set twice;
- one ``--trace 1`` run per workload at seed 12345 (the per-layer table).

Per metric and workload it stores the median, quartiles and spread of
each round and set and the gap between their medians, and from those a
bound per workload and one per metric (the largest over workloads,
which is what BENCHMARK.json holds).  With six workloads this takes
about an hour.  The entry is appended to ``BENCH_p3_end_to_end.json``;
existing entries are never rewritten (README.md, "Re-pin policy").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BASELINE = HERE / "BENCH_p3_end_to_end.json"
SEED = 12345
RUNS_PER_SET = 5
ROUND_SEEDS = tuple(range(1, 11))
#: a bound covers this many times the noise it was derived from.
NOISE_MARGIN = 3
#: bounds are kept within [BOUND_FLOOR, BOUND_CAP]: below the floor a
#: bound would reject allocator- or import-level jitter the rounds did
#: not happen to show; the cap is the widest bound BENCHMARK.json allows.
BOUND_FLOOR, BOUND_CAP = 0.05, 0.25

sys.path[0] = str(ROOT / "benchmarks")
from p3 import stats  # noqa: E402
from p3.workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json",
                                     dir=ROOT / ".bench_build") as fh:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace),
               "--json-out", fh.name]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return json.loads(Path(fh.name).read_text())


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / med


def summary(groups) -> dict:
    """Median, quartiles and spread of each of two groups of values, and
    the gap between the two medians as a share of the first."""
    out = {"values": groups, "groups": []}
    for values in groups:
        q1, med, q3 = stats.quartiles(values)
        out["groups"].append({"median": med, "q1": q1, "q3": q3,
                              "spread": spread(values)})
    a, b = (g["median"] for g in out["groups"])
    out["gap"] = abs(b - a) / a
    return out


def derive_bound(metric: str, rounds: dict, sets: dict) -> dict:
    """``NOISE_MARGIN`` x the largest noise seen, as a share of the median.

    The noise is each round's spread (the rounds vary the seed, as
    comparisons do) and the gaps between the two rounds' and the two
    sets' medians.  ``setup_s`` is compared by median only, so its
    spread does not count.
    """
    noise = [rounds["gap"], sets["gap"]]
    if metric != "setup_s":
        noise += [g["spread"] for g in rounds["groups"]]
    want = NOISE_MARGIN * max(noise)
    bound = min(BOUND_CAP, max(BOUND_FLOOR, math.ceil(want * 100) / 100))
    return {"noise": max(noise), "wanted": want, "bound": bound,
            "capped": want > BOUND_CAP}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--reason", required=True)
    args = parser.parse_args()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    host_refs: list = []

    def collect(plan):
        """``plan`` yields (group, seed); returns workload -> metric ->
        two groups of values, run workload by workload within a seed so
        drift of the host hits every workload alike."""
        got = {w: {} for w in WORKLOADS}
        for group, seed in plan:
            for w in WORKLOADS:
                out = run(w, seed, 0)["workloads"][0]
                host_refs.append(out["detail"]["host_ref_s"])
                for metric, m in out["metrics"].items():
                    got[w].setdefault(metric, [[], []])[group].append(
                        m["value"])
                print(w, group, seed, {k: round(v["value"], 4)
                                       for k, v in out["metrics"].items()},
                      flush=True)
        return got

    rounds = collect((g, s) for g in (0, 1) for s in ROUND_SEEDS)
    sets = collect((g, SEED) for g in (0, 1) for _ in range(RUNS_PER_SET))

    workloads, bounds = {}, {}
    for w in WORKLOADS:
        workloads[w] = {}
        for metric in rounds[w]:
            r, s = summary(rounds[w][metric]), summary(sets[w][metric])
            b = derive_bound(metric, r, s)
            workloads[w][metric] = {"rounds": r, "sets": s, **b}
            bounds[metric] = max(bounds.get(metric, 0.0), b["bound"])
    # set-up time gets the largest bound of all metrics, so work moved
    # into set-up is judged no more strictly than the work it left.
    bounds["setup_s"] = max(bounds.values())
    traced = {w: {k: v["value"] for k, v in
                  run(w, SEED, 1)["workloads"][0]["metrics"].items()}
              for w in WORKLOADS}

    doc = (json.loads(BASELINE.read_text()) if BASELINE.exists()
           else {"schema": "repro.bench.p3/1", "trajectory": []})
    doc["trajectory"].append({
        "commit": args.commit,
        "reason": args.reason,
        "date": time.strftime("%Y-%m-%d"),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine(),
                 "host_ref_s": stats.median(host_refs)},
        "seed": SEED, "round_seeds": list(ROUND_SEEDS),
        "runs_per_set": RUNS_PER_SET,
        "run_seconds": json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"],
        "bounds": bounds,
        "workloads": workloads,
        "traced": traced,
    })
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended entry {len(doc['trajectory'])} to {BASELINE}")
    print("bounds for BENCHMARK.json:", json.dumps(bounds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
