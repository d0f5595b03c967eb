"""P2: papid fleet load -- sessions/sec, batched reads/sec, p99 latency.

Not a paper experiment: this guards the fleet-scale monitoring daemon
(ROADMAP "heavy traffic" direction).  Four phases:

- **create**  -- fleet bring-up throughput (sessions/sec) for a
  1000-session fleet batched through ``PapidClient.create_fleet``;
- **read**    -- steady-state batched read sweeps (reads/sec and the
  p99 per-read latency across sub-batches);
- **chaos**   -- the same fleet under ``seed:daemon-chaos`` (worker
  kills and wedges mid-run): throughput with recovery in the loop,
  plus the acceptance contract — every session recovered or reported
  with an explicit lost-interval ledger, zero unrecovered;
- **overload**-- a deliberately tiny high-water mark: admission control
  must shed/degrade (shed + stale counts > 0) instead of stalling.

Absolute rates are machine-dependent, so the committed baseline in
``BENCH_p2_papid_load.json`` stores metrics in *host-reference units*:
the unit of ``benchmarks/p3/hostref.py``, a fixed pure-Python integer
loop that imports nothing from ``repro``, so no change to the program
can move it.  The loop is sampled two processes wide before every read
batch, and each batch is converted at the rate sampled around it, so a
host that switches speed mid-run does not read as a regression.  The
gated metrics are ``reads_per_ref`` (batched reads per reference unit)
and ``read_p99_ref`` (p99 per-read latency in reference units);
``--check`` fails on a >20% regression of either at the matching scale.
``read_efficiency`` -- daemon reads/sec over the single-session
substrate step + read + reload rate, how much of the raw substrate rate
survives batching, IPC and supervision -- is printed but not gated: the
engine speeds that raw loop up as much as the daemon, so the fraction
cannot tell a daemon regression from an engine gain.  ``--smoke`` is
the reduced-scale variant CI runs.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import time
from pathlib import Path

from _shared import emit, run_once
from p3.hostref import HostClock, op_refs
from repro.analysis import Table
from repro.daemon import (
    DaemonConfig,
    PapidClient,
    PapidServer,
    SessionSpec,
)
from repro.platforms import create as create_substrate

BASELINE_PATH = Path(__file__).parent / "BENCH_p2_papid_load.json"

#: a normalized regression worse than this factor vs baseline fails --check.
REGRESSION_TOLERANCE = 0.20

#: the gated metrics (host-reference units) and which direction is better.
GATED = {"reads_per_ref": "higher", "read_p99_ref": "lower"}

SCALES = {
    # sessions, read sweeps, read sub-batch, chaos sessions, chaos sweeps
    "full": dict(sessions=1000, sweeps=8, batch=100,
                 chaos_sessions=1000, chaos_sweeps=4),
    "smoke": dict(sessions=200, sweeps=5, batch=50,
                  chaos_sessions=120, chaos_sweeps=4),
}

SEED = 12345
NSHARDS = 4


def _specs(n, prefix="p2", seed=SEED):
    return [
        SessionSpec(sid=f"{prefix}-{i:05d}", platform="simX86",
                    seed=seed + i, priority=i % 3)
        for i in range(n)
    ]


def reference_read_rate(duration=0.25) -> float:
    """Raw single-session substrate rate: step+read ops/sec, no daemon.

    The denominator of the ungated ``read_efficiency`` fraction.
    """
    spec = SessionSpec(sid="ref", platform="simX86", seed=SEED)
    sub = create_substrate(spec.platform, seed=spec.seed)
    from repro.core.library import Papi
    from repro.workloads import CALIBRATION_KERNELS

    papi = Papi(sub)
    workload = CALIBRATION_KERNELS[spec.workload](
        spec.n, use_fma=sub.HAS_FMA
    )
    sub.machine.load(workload.program)
    es = papi.create_eventset()
    es.add_named(*spec.events)
    es.start()
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < duration:
        result = sub.machine.run(max_instructions=spec.step_instructions)
        if result.reason == "halt":
            sub.machine.load(workload.program)
        es.read()
        n += 1
    elapsed = time.perf_counter() - t0
    es.stop()
    papi.shutdown()
    return n / elapsed


def _percentile(samples, q) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _read_sweeps(client, clock, sids, sweeps, batch, check):
    """Batched read sweeps with a host-reference sample before each batch.

    Returns ``(reads, seconds, refs)`` per batch: the batch's session
    count, its wall seconds and the same time in reference units.
    """
    sizes, spans = [], []
    for _sweep in range(sweeps):
        for lo in range(0, len(sids), batch):
            chunk = sids[lo:lo + batch]
            clock.take()
            t0 = time.perf_counter_ns()
            results = client.read_many(chunk)
            spans.append((t0, time.perf_counter_ns()))
            sizes.append(len(chunk))
            check(results)
    clock.take()
    timed = op_refs(clock.samples, clock.intervals, spans)
    return [(n, sec, ref) for n, (sec, ref) in zip(sizes, timed)]


def _rates(batches) -> dict:
    n_reads = sum(n for n, _, _ in batches)
    return {
        "reads": n_reads,
        "reads_per_sec": n_reads / sum(sec for _, sec, _ in batches),
        "reads_per_ref": n_reads / sum(ref for _, _, ref in batches),
    }


def run_load_phase(scale: dict, clock: HostClock) -> dict:
    """Create + steady-state read phases on a clean daemon."""
    specs = _specs(scale["sessions"])
    sids = [s.sid for s in specs]

    def check(results):
        assert all(r.ok for r in results)

    with PapidServer(DaemonConfig(nshards=NSHARDS)) as server:
        with PapidClient(server, seed=SEED) as client:
            t0 = time.perf_counter()
            created = client.create_fleet(specs)
            create_seconds = time.perf_counter() - t0
            assert all(r.ok for r in created), "fleet create failed"
            client.start_many(sids)
            batches = _read_sweeps(client, clock, sids, scale["sweeps"],
                                   scale["batch"], check)
            health = server.health()
    per_read_s = [sec / n for n, sec, _ in batches]
    per_read_ref = [ref / n for n, _, ref in batches]
    return {
        "sessions": scale["sessions"],
        "sessions_per_sec": scale["sessions"] / create_seconds,
        **_rates(batches),
        "p50_read_ms": _percentile(per_read_s, 0.50) * 1e3,
        "p99_read_ms": _percentile(per_read_s, 0.99) * 1e3,
        "read_p99_ref": _percentile(per_read_ref, 0.99),
        "shed_reads": health.shed_reads,
        "stale_reads": health.stale_reads,
    }


def run_chaos_phase(scale: dict, clock: HostClock, seed=42) -> dict:
    """The same fleet with the saboteur killing/wedging workers."""
    specs = _specs(scale["chaos_sessions"], prefix="p2c")
    sids = [s.sid for s in specs]
    config = DaemonConfig(
        nshards=NSHARDS, inject=f"{seed}:daemon-chaos",
        heartbeat_interval=0.1, wedge_timeout=1.0, batch_timeout=2.0,
    )
    prev: dict = {}
    monotone = True

    def check(results):
        nonlocal monotone
        for res in results:
            assert res.ok, res.err
            old = prev.get(res.sid, {})
            if any(res.values[k] < old.get(k, 0) for k in res.values):
                monotone = False
            prev[res.sid] = res.values

    with PapidServer(config) as server:
        with PapidClient(server, seed=seed) as client:
            # Bring the fleet up in small chunks so creates are acked
            # incrementally: the saboteur then fires with live sessions
            # on the shard, exercising adopt-based recovery rather than
            # just a no-op respawn of an empty worker.
            for lo in range(0, len(specs), 10):
                created = client.create_fleet(specs[lo:lo + 10])
                assert all(r.ok for r in created), "chaos create failed"
            client.start_many(sids)
            batches = _read_sweeps(client, clock, sids,
                                   scale["chaos_sweeps"], scale["batch"],
                                   check)
            health = server.health()
            problems = server.check_consistency()
            digest = server.fleet_digest()
    crashes = health.crashes_detected + health.wedges_detected
    return {
        "sessions": scale["chaos_sessions"],
        **_rates(batches),
        "workers_killed": crashes,
        "sessions_recovered": health.sessions_recovered,
        "sessions_unrecovered": health.sessions_unrecovered,
        "monotone": monotone,
        "consistent": not problems,
        "fleet_digest": digest,
    }


def run_overload_phase() -> dict:
    """Tiny high-water mark: shedding/degradation must engage."""
    specs = _specs(96, prefix="p2o")
    sids = [s.sid for s in specs]
    config = DaemonConfig(nshards=2, high_water=8, staleness_ops=5000)
    with PapidServer(config) as server:
        with PapidClient(server, seed=SEED) as client:
            created = client.create_fleet(specs)
            assert all(r.ok for r in created)
            client.start_many(sids)
            served = shed = stale = 0
            for _sweep in range(4):
                for res in server.submit(
                    [_read_op(client, sid) for sid in sids]
                ):
                    if res.ok and res.stale:
                        stale += 1
                    elif res.ok:
                        served += 1
                    else:
                        shed += 1
            health = server.health()
    return {
        "served_reads": served,
        "stale_reads": health.stale_reads,
        "shed_reads": health.shed_reads,
    }


def _read_op(client, sid):
    from repro.daemon import Op

    return Op(kind="read", sid=sid, seq=client._next_seq(sid))


def run_experiment(scale_name: str) -> dict:
    scale = SCALES[scale_name]
    ref_rate = reference_read_rate()
    # two processes wide: a batch waits for the slower of the vCPUs the
    # shard workers run on (see hostref.HostClock).
    with HostClock(width=2) as clock:
        load = run_load_phase(scale, clock)
        chaos = run_chaos_phase(scale, clock)
    overload = run_overload_phase()
    norm = {
        "reads_per_ref": load["reads_per_ref"],
        "read_p99_ref": load["read_p99_ref"],
        "chaos_reads_per_ref": chaos["reads_per_ref"],
    }
    return {
        "scale": scale_name,
        "host_ref_s": round(statistics.median(clock.samples), 5),
        "reference_reads_per_sec": ref_rate,
        "read_efficiency": round(load["reads_per_sec"] / ref_rate, 4),
        "load": load,
        "chaos": chaos,
        "overload": overload,
        "normalized": {k: float(f"{v:.5g}") for k, v in norm.items()},
    }


def render(result: dict) -> str:
    load, chaos, over = (result["load"], result["chaos"],
                         result["overload"])
    table = Table(
        ["metric", "value"],
        title=f"P2: papid fleet load ({result['scale']} scale, "
              f"{NSHARDS} shards)",
    )
    norm = result["normalized"]
    table.add_row("host reference unit",
                  f"{result['host_ref_s'] * 1e3:.1f} ms")
    table.add_row("fleet create sessions/s",
                  f"{load['sessions_per_sec']:,.0f}")
    table.add_row("batched reads/s", f"{load['reads_per_sec']:,.0f}")
    table.add_row("batched reads per ref [gated]",
                  f"{norm['reads_per_ref']:.4g}")
    table.add_row("p50 read latency", f"{load['p50_read_ms']:.3f} ms")
    table.add_row("p99 read latency", f"{load['p99_read_ms']:.3f} ms")
    table.add_row("p99 read latency in ref [gated]",
                  f"{norm['read_p99_ref']:.4g}")
    table.add_row("substrate step+read rate (no daemon)",
                  f"{result['reference_reads_per_sec']:,.0f}/s")
    table.add_row("read efficiency (vs substrate rate)",
                  f"{result['read_efficiency']:.2f}")
    table.add_row("chaos reads/s", f"{chaos['reads_per_sec']:,.0f}")
    table.add_row("chaos reads per ref", f"{norm['chaos_reads_per_ref']:.4g}")
    table.add_row("chaos workers killed", chaos["workers_killed"])
    table.add_row("chaos sessions recovered",
                  chaos["sessions_recovered"])
    table.add_row("chaos sessions unrecovered",
                  chaos["sessions_unrecovered"])
    table.add_row("chaos monotone/consistent",
                  f"{chaos['monotone']}/{chaos['consistent']}")
    table.add_row("overload shed/stale reads",
                  f"{over['shed_reads']}/{over['stale_reads']}")
    return table.render()


def assert_contract(result: dict) -> None:
    """The robustness acceptance contract, independent of speed."""
    chaos = result["chaos"]
    assert chaos["workers_killed"] >= 3, (
        f"saboteur fired only {chaos['workers_killed']} times (< 3)"
    )
    assert chaos["sessions_unrecovered"] == 0, chaos
    # A shard that dies mid-create only re-homes what existed at crash
    # time (the rest are created fresh on the next generation), so the
    # recovered count is >0 but not necessarily the full fleet.
    assert chaos["sessions_recovered"] > 0, chaos
    assert chaos["monotone"], "counts regressed across recovery"
    assert chaos["consistent"], "journal/registry inconsistency"
    over = result["overload"]
    assert over["shed_reads"] + over["stale_reads"] > 0, (
        "overload phase never engaged admission control"
    )


def load_baseline():
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def check_against_baseline(result: dict, baseline: dict) -> list:
    """Regression messages ([] = pass) at the matching scale."""
    expected = (baseline or {}).get(result["scale"])
    if not expected:
        return [f"no committed baseline for scale {result['scale']!r}"]
    problems = []
    norm = result["normalized"]
    for key, better in GATED.items():
        base, got = expected[key], norm[key]
        if better == "higher" and got < base * (1 - REGRESSION_TOLERANCE):
            problems.append(f"{key} {got:.4g} below {base:.4g} - 20%")
        elif better == "lower" and got > base * (1 + REGRESSION_TOLERANCE):
            problems.append(f"{key} {got:.4g} above {base:.4g} + 20%")
    return problems


def update_baseline(result: dict, commit: str, reason: str) -> None:
    """Re-pin this scale's baseline; the trajectory is append-only."""
    baseline = load_baseline() or {}
    provenance = {
        "commit": commit,
        "reason": reason,
        "date": datetime.date.today().isoformat(),
        "host_ref_s": result["host_ref_s"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    baseline[result["scale"]] = {**result["normalized"], **provenance}
    baseline.setdefault("trajectory", []).append({
        "scale": result["scale"],
        **result["normalized"],
        **provenance,
        "read_efficiency": result["read_efficiency"],
        "chaos_workers_killed": result["chaos"]["workers_killed"],
        "shed_reads": result["overload"]["shed_reads"],
        "stale_reads": result["overload"]["stale_reads"],
    })
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")


def bench_p2_papid_load(benchmark, capsys):
    result = run_once(benchmark, lambda: run_experiment("smoke"))
    emit(capsys, render(result))
    assert_contract(result)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale (the CI variant)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >20%% normalized regression vs "
                             "the committed baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="re-pin this scale's committed baseline "
                             "(needs --commit and --reason)")
    parser.add_argument("--commit", help="commit whose src/ was measured")
    parser.add_argument("--reason", help="why the baseline is re-pinned")
    parser.add_argument("--json-out", metavar="PATH",
                        help="dump this run's measurements (+ baseline) "
                             "as JSON, e.g. for a CI artifact")
    args = parser.parse_args(argv)
    if args.update_baseline and not (args.commit and args.reason):
        parser.error("--update-baseline needs --commit and --reason")

    result = run_experiment("smoke" if args.smoke else "full")
    print(render(result))
    assert_contract(result)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({
            "result": result,
            "baseline": load_baseline(),
        }, indent=2) + "\n")
    if args.update_baseline:
        update_baseline(result, args.commit, args.reason)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    if args.check:
        problems = check_against_baseline(result, load_baseline())
        for p in problems:
            print("FAIL:", p)
        if problems:
            return 1
        print("ok: host-normalized load metrics within 20% of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
