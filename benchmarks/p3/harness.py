"""One measured process: set up a workload, time its ops, attribute them.

``run.py`` starts this in a fresh interpreter per role:

- ``setup``   -- set up, report the set-up time, tear down;
- ``measure`` -- set up, run the timed closed loop, report op timings;
- ``counted`` -- like ``measure`` but with the machine registry installed
  (exact simulated-instruction counts per op, no spans): the untraced
  half of a ``--trace 1`` run;
- ``traced``  -- like ``counted`` with every layer boundary wrapped; also
  reports the per-layer split.
"""

from __future__ import annotations

import bisect
import ctypes
import gc
import glob
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from p3.hostref import HostClock, probe
from p3.layers import (
    LAYERS,
    SIM_KEYS,
    SimRegistry,
    delta,
    install,
    install_registry,
)
from p3.trace import Tracer, load_dump, self_times, union_length
from p3.workloads import WORKLOADS, Workload

#: host-reference sampling period (hostref.py).
SAMPLE_EVERY_S = 0.2


def run_loop(wl: Workload, seconds: float,
             registry: Optional[SimRegistry] = None,
             before_op: Optional[Callable[[], None]] = None
             ) -> Tuple[List[dict], float]:
    """Closed loop over the workload's batches for about *seconds*.

    Returns the op records and the peak RSS of the first batch.  The
    first batch always runs in full, so every op kind is timed at least
    once.  After it, an op is started only if its kind's last duration
    still fits before the deadline, so the run ends close to the budget
    instead of overrunning by a long op.
    """
    records = []
    last_s: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    first, first_peak_mb = True, 0.0
    for batch in wl.batches():
        ran = 0
        for kind, op in batch:
            if not first and (time.perf_counter() + last_s.get(kind, 0.0)
                              > deadline):
                continue
            if not wl.short_ops:
                gc.collect()
            if first:
                reset_peak_rss()
            if before_op is not None:
                before_op()
            before = registry.totals() if registry is not None else None
            t0 = time.perf_counter_ns()
            try:
                result, err = op(), None
            except Exception as exc:  # recorded as a failed op
                traceback.print_exc(file=sys.stderr)
                result, err = None, f"{kind}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if first:
                first_peak_mb = max(first_peak_mb, peak_rss_mb())
            if err is None:
                err = wl.check(kind, result)
            rec = {"kind": kind, "t0": t0, "t1": t1, "err": err}
            if registry is not None:
                rec["sim"] = delta(registry.totals(), before)
            records.append(rec)
            last_s[kind] = (t1 - t0) / 1e9
            ran += 1
        if first:
            wl.after_first_batch()
            first = False
        if ran == 0 or time.perf_counter() >= deadline:
            break
    return records, first_peak_mb


def every(clock: HostClock, period_s: float) -> Callable[[], None]:
    """A ``before_op`` hook sampling *clock* at most every *period_s*."""
    last = [float("-inf")]

    def tick() -> None:
        if time.perf_counter() - last[0] >= period_s:
            clock.take()
            last[0] = time.perf_counter()

    return tick


def per_pass(per_op: Dict[str, List[float]],
             weights: Dict[str, int]) -> float:
    """Weighted sum over kinds of the mean per-op value."""
    return sum(
        w * (sum(per_op[k]) / len(per_op[k]))
        for k, w in weights.items() if per_op.get(k)
    )


# ----------------------------------------------------------------------
# per-layer attribution
# ----------------------------------------------------------------------


def _globalize(spans: List[dict], pid: int) -> List[dict]:
    for s in spans:
        s["id"] = (pid, s["id"])
        s["parent"] = (pid, s["parent"]) if s["parent"] != -1 else -1
        s["pid"] = pid
    return spans


def _stitch_workers(spans: List[dict], main_pid: int) -> None:
    """Parent each worker ``handle`` root under the wire span that waited
    for it: same shard tag, interval containing the handle call."""
    wires: Dict[object, List[dict]] = {}
    for s in spans:
        if s["pid"] == main_pid and s["layer"] == "daemon.wire":
            wires.setdefault(s["tag"], []).append(s)
    starts: Dict[object, List[int]] = {}
    for tag, group in wires.items():
        group.sort(key=lambda s: s["start_ns"])
        starts[tag] = [w["start_ns"] for w in group]
    for s in spans:
        if s["pid"] == main_pid or s["parent"] != -1:
            continue
        group = wires.get(s["tag"], [])
        i = bisect.bisect_right(starts.get(s["tag"], []), s["start_ns"]) - 1
        if i >= 0 and group[i]["end_ns"] >= s["end_ns"]:
            s["parent"] = group[i]["id"]


def attribute(spans: List[dict], records: List[dict],
              weights: Dict[str, int], main_tid: int
              ) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]],
                         List[Dict[str, int]]]:
    """Per-layer calls and self seconds, and the unattributed rest.

    Returns the per-pass totals; per op kind, the mean per op (with the
    op's mean wall time as ``wall_s``); and per op, the simulated work
    of the papid worker calls made inside it (span ``counts``).
    """
    main_pid = os.getpid()
    _stitch_workers(spans, main_pid)
    self_ns = self_times(spans)
    starts = [r["t0"] for r in records]
    per_op = [dict(calls={}, self={}, roots=[]) for _ in records]
    worker_sim = [dict.fromkeys(SIM_KEYS, 0) for _ in records]
    for s in spans:
        i = bisect.bisect_right(starts, s["start_ns"]) - 1
        if i < 0 or s["start_ns"] >= records[i]["t1"]:
            continue  # set-up / teardown work, outside every op
        acc = per_op[i]
        layer = s["layer"]
        acc["calls"][layer] = acc["calls"].get(layer, 0) + 1
        acc["self"][layer] = acc["self"].get(layer, 0) + self_ns[s["id"]]
        if s["counts"] is not None:
            for key in SIM_KEYS:
                worker_sim[i][key] += s["counts"][key]
        if s["parent"] == -1 and s["pid"] == main_pid \
                and s["tid"] == main_tid:
            acc["roots"].append((s["start_ns"], min(s["end_ns"],
                                                    records[i]["t1"])))
    by_kind: Dict[str, Dict[str, List[float]]] = {}
    for rec, acc in zip(records, per_op):
        wall_ns = rec["t1"] - rec["t0"]
        values = {"wall_s": wall_ns / 1e9,
                  "unattributed_s":
                      (wall_ns - union_length(acc["roots"])) / 1e9}
        for layer in LAYERS:
            values[f"{layer}.calls"] = acc["calls"].get(layer, 0)
            values[f"{layer}.self_s"] = acc["self"].get(layer, 0) / 1e9
        kind = by_kind.setdefault(rec["kind"], {})
        for name, v in values.items():
            kind.setdefault(name, []).append(v)
    means = {k: {name: sum(v) / len(v) for name, v in vals.items()}
             for k, vals in by_kind.items()}
    names = [n for n in next(iter(means.values())) if n != "wall_s"]
    out = {n: sum(w * means[k][n] for k, w in weights.items())
           for n in names}
    return out, means, worker_sim


def sim_counts(records: List[dict], weights: Dict[str, int],
               worker_sim: List[Dict[str, int]]) -> dict:
    """Per-pass simulated work: each op's exact work in this process
    plus that of the papid worker calls made inside it."""
    per_op: Dict[str, Dict[str, List[float]]] = {key: {} for key in SIM_KEYS}
    for r, w in zip(records, worker_sim):
        for key in SIM_KEYS:
            per_op[key].setdefault(r["kind"], []).append(
                r["sim"][key] + w[key])
    return {key: per_pass(per_op[key], weights) for key in SIM_KEYS}


def _processes() -> List[str]:
    import multiprocessing

    return ["self"] + [str(c.pid) for c in multiprocessing.active_children()]


def reset_peak_rss() -> None:
    """Start a fresh peak-RSS window for this process and its workers.

    Freed heap is handed back to the OS first (``malloc_trim``), so an
    op's peak does not depend on what earlier ops left allocated.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)
    except (OSError, AttributeError):  # not glibc
        pass
    for proc in _processes():
        try:
            with open(f"/proc/{proc}/clear_refs", "w") as fh:
                fh.write("5")  # reset VmHWM to the current RSS
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Peak RSS in MB since :func:`reset_peak_rss`, over this process
    and its live workers; ``ru_maxrss`` where ``/proc`` is unavailable."""
    kb = []
    for proc in _processes():
        try:
            with open(f"/proc/{proc}/status", encoding="ascii") as fh:
                kb += [int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:")]
        except OSError:
            pass
    if not kb:
        kb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    return max(kb) / 1024.0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def child_main(role: str, workload: str, seed: int, seconds: float,
               spawn_t: float, root: Path, workdir: str, out: str) -> int:
    tracer = registry = None
    if role in ("counted", "traced"):
        tracer, registry = Tracer(), SimRegistry()
        if role == "traced":
            install(tracer, registry, span_dir=workdir)
        else:
            install_registry(tracer, registry)
    wl = WORKLOADS[workload](root, seed, workdir)
    wl.setup()
    setup_s = time.monotonic() - spawn_t
    result: dict = {"role": role, "setup_s": setup_s,
                    "setup_probe": probe()}
    if role == "setup":
        wl.finish()
        _write(out, result)
        return 0
    with HostClock(width=wl.host_width) as clock:
        clock.take()
        if role == "measure" and not wl.short_ops:
            clock.start(SAMPLE_EVERY_S)
            try:
                records, first_peak_mb = run_loop(wl, seconds, registry)
            finally:
                clock.stop()
        else:  # short ops, or spans that must not include sampler time
            records, first_peak_mb = run_loop(
                wl, seconds, registry,
                before_op=every(clock, SAMPLE_EVERY_S))
        clock.take()
    facts, problems = wl.finish()
    result.update(
        records=records, weights=wl.weights, facts=facts,
        problems=problems, host_samples=clock.samples,
        host_intervals=clock.intervals,
        peak_rss_mb=first_peak_mb,
    )
    if role == "traced":
        spans = _globalize(tracer.records(), os.getpid())
        for path in sorted(glob.glob(os.path.join(workdir, "spans-*.jsonl"))):
            head, wspans = load_dump(path)
            spans += _globalize(wspans, head["pid"])
        tracer.restore()
        result["layers"], result["layers_by_kind"], worker_sim = attribute(
            spans, records, wl.weights, threading.main_thread().ident
        )
        result["sim"] = sim_counts(records, wl.weights, worker_sim)
    elif tracer is not None:
        tracer.restore()
    _write(out, result)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
