"""P3: end-to-end benchmark of the reproduction, with a traced per-layer split.

Run from the repository root::

    python3 benchmarks/p3/run.py                          # all workloads
    python3 benchmarks/p3/run.py --workload papid_steady --seed 7
    python3 benchmarks/p3/run.py --workload validate --trace 1

Each workload runs in fresh interpreters: a few that only set up (the
median set-up time is ``setup_s``), then one that runs the workload as a
closed loop for ``--seconds`` (default: ``run_seconds`` in
BENCHMARK.json, which is also what that file's harness passes) and
checks every output.  ``--trace 1``
instead runs an untraced and a traced process for half the budget each
and reports the per-layer split.  Every metric is printed with its unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output was wrong and 2 when the benchmark could not run at all.

Timings are reported in host-reference units (``*_ref``, see
``hostref.py``) so a slower or busier host moves them less than it moves
raw seconds; raw seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# import the harness as package ``p3`` -- with this script's directory on
# the path, p3/trace.py would shadow the standard library's ``trace`` --
# and the program under test from src/.
_HERE = os.path.realpath(os.path.dirname(__file__))
sys.path[:] = [p for p in sys.path if os.path.realpath(p or ".") != _HERE]
for _path in (ROOT / "src", ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from p3 import stats  # noqa: E402
from p3.harness import child_main  # noqa: E402
from p3.hostref import NOMINAL_UNIT_S, op_refs, probe  # noqa: E402
from p3.layers import LAYERS  # noqa: E402
from p3.workloads import (  # noqa: E402
    PLANE_CELLS,
    WORKLOADS,
    PapidChurn,
    PapidWorkload,
)

#: set-up measurements per run (one of them is the measuring process).
SETUP_SAMPLES = 3
#: wall-clock budget of one invocation; children are killed beyond it.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """The ``--trace 1`` metrics and their units.

    Layer times are shares of the pass's traced wall time, not seconds:
    a layer a workload never enters reads 0 on every run, which is a
    measurement for a share but would read as a frozen clock for a time.
    """
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_frac"] = "frac"
    units.update({
        "hw.sim_ins": "count",
        "hw.exec.ns_per_ins": "ns",
        "hw.engine.fast_frac": "frac",
        "hw.engine.replay_frac": "frac",
        "hw.engine.blocks_compiled": "count",
        "hw.engine.regions_compiled": "count",
        "hw.engine.traces_compiled": "count",
        **{f"validate.{p}_frac": "frac" for p in PLANE_CELLS},
        "validate.cells": "count",
        "lint.files": "count",
        "daemon.client.retries": "count",
        "daemon.journal.bytes": "B",
        "daemon.journal.replay_rate": "1/s",
        "daemon.shed_reads": "count",
        "daemon.stale_reads": "count",
        "daemon.transient_returns": "count",
        "unattributed_frac": "frac",
        "trace_overhead": "x",
    })
    return units


class BenchError(Exception):
    """The benchmark could not run (as opposed to: ran and found errors)."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def _spawn(role: str, workload: str, seed: int, seconds: float,
           workdir: Path, deadline: float) -> dict:
    """Run one harness process in its own session; return its result."""
    sub = Path(tempfile.mkdtemp(prefix=f"{role}-", dir=workdir))
    out = sub / "result.json"
    env = dict(os.environ, TMPDIR=str(sub), PYTHONHASHSEED="0")
    before = probe()
    spawn_t = time.monotonic()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawn-t", repr(spawn_t),
        "--workdir", str(sub), "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} {role} process exceeded the deadline")
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0 or not out.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-15:]
        raise BenchError(f"{workload} {role} process failed "
                         f"(exit {proc.returncode}):\n" + "\n".join(tail))
    res = json.loads(out.read_text())
    # host speed around the set-up: probes just before and just after it
    res["setup_nominal_s"] = (res["setup_s"] * NOMINAL_UNIT_S
                              / stats.median(before + res["setup_probe"]))
    return res


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a child's session and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def op_times(res: dict) -> dict:
    """Kind -> ``[(seconds, ref units), ...]`` for one measured run."""
    records = res["records"]
    timed = op_refs(res["host_samples"], res["host_intervals"],
                    [(r["t0"], r["t1"]) for r in records])
    out: dict = {}
    for r, t in zip(records, timed):
        out.setdefault(r["kind"], []).append(t)
    return out


def summarize(res: dict) -> dict:
    """Host reference, pass time and detail metrics of one measured run.

    One pass is the sum over op kinds of (ops of the kind per pass) x
    (median op time of the kind), in seconds (``pass_s``) and in
    host-reference units (``pass_ref``); ``ops_s`` is the time of every
    op the run made.
    """
    ops = op_times(res)
    sec = {k: [t[0] for t in v] for k, v in ops.items()}
    ref = {k: [t[1] for t in v] for k, v in ops.items()}
    weights = res["weights"]
    out = {
        "host_ref_s": stats.median(res["host_samples"]),
        "pass_s": sum(w * stats.median(sec[k]) for k, w in weights.items()),
        "pass_ref": sum(w * stats.median(ref[k])
                        for k, w in weights.items()),
        "ops_s": sum(sum(v) for v in sec.values()),
    }
    if "read" in ref:  # papid_steady
        reads = ref["read"]
        out["read_p50_ref"] = stats.median(reads)
        p, v = stats.tail(reads) or (50.0, stats.median(reads))
        out[f"read_p{p:g}_ref"] = v
        out["reads_per_ref"] = PapidWorkload.NSHARDS * len(reads) / sum(reads)
    if "cohort" in ref:  # papid_churn
        cohorts = ref["cohort"]
        out["churn_sessions_per_ref"] = (PapidChurn.COHORT * len(cohorts)
                                         / sum(cohorts))
        p, v = stats.tail(cohorts) or (50.0, stats.median(cohorts))
        out[f"churn_p{p:g}_ref"] = v
    return out


def failures(res: dict) -> list:
    errs = [r["err"] for r in res["records"] if r["err"]]
    return errs + list(res["problems"])


def _sim_by_kind(res: dict) -> dict:
    out = {}
    for r in res["records"]:
        out.setdefault(r["kind"], set()).add(r["sim"]["sim_ins"])
    return out


def witness_problems(untraced: dict, traced: dict) -> list:
    """Tracing must change no simulated result."""
    problems = []
    a, b = _sim_by_kind(untraced), _sim_by_kind(traced)
    for kind in sorted(set(a) | set(b)):
        seen = a.get(kind, set()) | b.get(kind, set())
        if len(seen) > 1:
            problems.append(f"{kind}: simulated instructions differ "
                            f"between runs: {sorted(seen)}")
    da = untraced["facts"].get("fleet_digest")
    db = traced["facts"].get("fleet_digest")
    if da != db:
        problems.append(f"fleet_digest differs with tracing: {da} != {db}")
    return problems


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """The ``--trace 1`` metrics, per pass: from the traced run, except
    the validate plane split, which is a timing of the untraced one."""
    facts, sim, layers = traced["facts"], traced["sim"], traced["layers"]
    timing = summarize(traced)
    pass_s = timing["pass_s"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = layers[f"{layer}.calls"]
        m[f"{layer}.self_frac"] = layers[f"{layer}.self_s"] / pass_s
    m["unattributed_frac"] = layers["unattributed_s"] / pass_s
    ins = sim["sim_ins"]
    m["hw.sim_ins"] = ins
    m["hw.exec.ns_per_ins"] = layers["hw.exec.self_s"] * 1e9 / ins if ins else 0.0
    m["hw.engine.fast_frac"] = sim["fast_ins"] / ins if ins else 0.0
    m["hw.engine.replay_frac"] = sim["replayed_ins"] / ins if ins else 0.0
    for key in ("blocks", "regions", "traces"):
        m[f"hw.engine.{key}_compiled"] = sim[f"{key}_compiled"]
    ops = op_times(untraced)
    untraced_pass_s = summarize(untraced)["pass_s"]
    for p in PLANE_CELLS:
        v = [t[0] for t in ops.get(f"validate:{p}", ())]
        m[f"validate.{p}_frac"] = (stats.median(v) / untraced_pass_s
                                   if v else 0.0)
    m["validate.cells"] = facts.get("validate_cells", 0)
    m["lint.files"] = facts.get("lint_files", 0)
    # daemon facts are totals over the timed ops: scale them to one pass.
    scale = pass_s / timing["ops_s"]
    for metric, fact in (("daemon.client.retries", "client_retries"),
                         ("daemon.journal.bytes", "journal_bytes"),
                         ("daemon.shed_reads", "shed_reads"),
                         ("daemon.stale_reads", "stale_reads"),
                         ("daemon.transient_returns", "transient_returns")):
        m[metric] = facts.get(fact, 0) * scale
    replay_s = facts.get("journal_replay_s")
    m["daemon.journal.replay_rate"] = (
        facts["journal_records"] / replay_s if replay_s else 0.0)
    m["trace_overhead"] = timing["pass_ref"] / summarize(untraced)["pass_ref"]
    return m


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    build = ROOT / ".bench_build" / "p3"
    build.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=build))
    try:
        if trace:
            untraced = _spawn("counted", workload, seed, seconds / 2,
                              workdir, deadline)
            traced = _spawn("traced", workload, seed, seconds / 2,
                            workdir, deadline)
            errs = (failures(untraced) + failures(traced)
                    + witness_problems(untraced, traced))
            units = per_layer_units()
            values = layer_metrics(untraced, traced)
            attempted = len(untraced["records"]) + len(traced["records"]) + 3
            detail = {"untraced": summarize(untraced),
                      "traced": summarize(traced)}
            runs = {"untraced": untraced, "traced": traced}
        else:
            setups = [
                _spawn("setup", workload, seed, 0.0, workdir, deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = _spawn("measure", workload, seed, seconds, workdir,
                         deadline)
            errs = failures(res)
            detail = summarize(res)
            units = END_TO_END
            values = {
                "setup_s": stats.median(
                    [s["setup_nominal_s"] for s in setups + [res]]),
                "pass_ref": detail["pass_ref"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            attempted = len(res["records"]) + 1
            runs = {"measure": res}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload, "errors": errs, "attempted": attempted,
        "failed": len(errs),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
        "detail": detail, "runs": runs,
    }


def render(out: dict) -> str:
    lines = [f"== {out['workload']}"]
    for name, m in out["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    detail = out["detail"]
    for label, d in (detail.items() if "traced" in detail
                     else [("measured", detail)]):
        lines.append(f"  -- {label}: host_ref_s={d['host_ref_s']:.4f} s, "
                     f"one pass {d['pass_s']:.3f} s = "
                     f"{d['pass_ref']:.2f} ref")
        for name, value in d.items():
            if name.endswith("_ref") and name != "pass_ref":
                unit = "per ref" if "per_ref" in name else "ref"
                lines.append(f"     {name:31s} {value:14.6g} {unit}")
    traced = out["runs"].get("traced")
    if traced is not None:
        busy = sorted(((v, k[:-7]) for k, v in traced["layers"].items()
                       if k.endswith(".self_s") and v > 0), reverse=True)
        lines.append("  -- traced self seconds per pass: " + ", ".join(
            f"{layer} {v:.4g}" for v, layer in busy))
    for label, res in out["runs"].items():
        kinds = op_times(res)
        lines.append(f"  -- {label} ops ({len(res['records'])}):")
        for kind in sorted(kinds):
            v = [t[0] for t in kinds[kind]]
            t = stats.tail(v)
            tail = f"p{t[0]:g} {t[1] * 1e3:10.2f} ms" if t else ""
            lines.append(f"     {kind:31s} n={len(v):<4d} "
                         f"p50 {stats.median(v) * 1e3:10.2f} ms  {tail}")
    for err in out["errors"]:
        lines.append(f"  FAILED: {err}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run_seconds() -> float:
    """BENCHMARK.json's ``run_seconds``: the one run length baselines
    are measured at."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no run_seconds in BENCHMARK.json: {exc}")


def _preflight() -> None:
    needed = (ROOT / "src" / "repro" / "__init__.py",
              ROOT / "tests" / "differential" / "tables.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError(
            "not a checkout of the reproduction (missing "
            + ", ".join(missing) + "); run from the repository root")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer split instead of end-to-end")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write every measurement as JSON")
    for hidden in ("--role", "--spawn-t", "--workdir", "--out"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role:
        return child_main(args.role, args.workload, args.seed, args.seconds,
                          float(args.spawn_t), ROOT, args.workdir, args.out)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    try:
        _preflight()
        seconds = args.seconds if args.seconds is not None else run_seconds()
        outs = []
        for name in names:
            out = run_workload(name, args.seed, seconds,
                               bool(args.trace), deadline)
            print(render(out), flush=True)
            outs.append(out)
    except BenchError as exc:
        print(f"p3: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds,
             "trace": args.trace, "workloads": outs}, indent=1) + "\n")
    single = len(outs) == 1
    print(json.dumps({
        "correct": not any(o["errors"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": {
            (k if single else f"{o['workload']}.{k}"): v
            for o in outs for k, v in o["metrics"].items()
        },
    }))
    return 1 if any(o["errors"] for o in outs) else 0


if __name__ == "__main__":
    raise SystemExit(main())
