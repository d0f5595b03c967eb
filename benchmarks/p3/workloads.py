"""The six P3 workloads: fixed passes of checked operations.

A workload is one closed-loop client.  ``setup()`` builds everything
that precedes the first timed operation; ``batches()`` yields batches,
each a seed-ordered list of ``(kind, op)`` pairs; ``check(kind, result)``
returns None or a failure message; ``finish()`` tears down and returns
``(facts, problems)``.  ``weights`` says how many ops of each kind make
one pass: the benchmark's ``pass_ref`` is the weighted sum of per-kind
median op times, so a run cut short by its time budget still estimates
a whole pass.  A batch is one pass, except on papid, whose passes are
hundreds of short ops of one kind: there a batch is a tenth of a pass.

Each workload exercises one path, so a gain on one path cannot hide a
loss on another inside a shared pass time: the validate matrix and the
linter, and papid's read RPCs and its session churn, are separate
workloads.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Op = Tuple[str, Callable[[], Any]]

COUNTING_TABLES = ("e1", "e3", "e4", "e6", "e7", "e8", "e9", "e10",
                   "a1", "a3")
SAMPLING_TABLES = ("e2", "a2", "a4", "e5")

#: the validate matrix is pinned to the seed its thresholds were tuned
#: at: at other seeds the oracle plane's simALPHA sampling cells fail
#: their 20% tolerance (e.g. 5 of 292 cells at seed 1), so a varying
#: seed would make the workload fail for reasons no change controls.
VALIDATE_SEED = 12345

#: cells per validate plane in the quick matrix; any change is a failure.
PLANE_CELLS = {
    "oracle": 99, "virtual": 12, "components": 30, "cost": 26,
    "convergence": 12, "skid": 7, "refute": 106,
}

LINT_CORPUS = Path(__file__).resolve().parent / "lint_corpus"
LINT_EXPECTED = LINT_CORPUS / "expected.json"


class Workload:
    name = ""
    why = ""
    weights: Dict[str, int] = {}
    #: ops of tens of milliseconds, hundreds per run.  Long ops (False)
    #: get a full, untimed garbage collection before each, so every op
    #: starts from the same collector state and a collection triggered
    #: by an earlier op's garbage is not billed to a later op; and the
    #: host reference is sampled on a timer *inside* them.  Short ops
    #: skip both: a collection costs as much as the op, and their median
    #: over hundreds absorbs collector noise; host samples are taken
    #: between them instead (which also keeps the sampler from competing
    #: with worker processes that run while the client waits).
    short_ops = False
    #: processes an op keeps busy at once; host samples run this wide.
    host_width = 1

    def __init__(self, root: Path, seed: int, workdir: str) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        pass

    def batches(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def check(self, kind: str, result: Any) -> Optional[str]:
        return None

    def after_first_batch(self) -> None:
        pass

    def finish(self) -> Tuple[dict, List[str]]:
        return {}, []


class ShuffledKinds(Workload):
    """Batches of one op of every kind in ``weights`` (one pass), in
    seeded order."""

    def batches(self) -> Iterator[List[Op]]:
        while True:
            order = list(self.weights)
            self.rng.shuffle(order)
            yield [(kind, self._op(kind)) for kind in order]

    def _op(self, kind: str) -> Callable[[], Any]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# experiment tables
# ----------------------------------------------------------------------


class TablesWorkload(ShuffledKinds):
    """Build paper tables at ncpus=1 on the default engine tier and
    compare each with its committed seed golden."""

    keys: Tuple[str, ...] = ()

    def setup(self) -> None:
        diff_dir = str(self.root / "tests" / "differential")
        if diff_dir not in sys.path:
            sys.path.insert(0, diff_dir)
        import tables

        self.tables = tables
        self.goldens = json.loads(tables.GOLDENS_PATH.read_text())
        for key in self.keys:
            tables._load_bench(key)  # import cost belongs to set-up
        self.weights = {key: 1 for key in self.keys}

    def _op(self, key: str) -> Callable[[], Any]:
        return lambda: self.tables.build_table(key, "trace")

    def check(self, kind: str, result: Any) -> Optional[str]:
        got = json.loads(json.dumps(result))
        if got != self.goldens[kind]["engine_on"]:
            return f"table {kind} differs from its golden"
        return None


class TablesCounting(TablesWorkload):
    name = "tables_counting"
    why = ("counting-mode paper tables: compiled engine code, "
           "multiplexing, allocation and read cost; no sampling deadlines")
    keys = COUNTING_TABLES


class TablesSampling(TablesWorkload):
    name = "tables_sampling"
    why = ("sampling- and overflow-driven paper tables: deadline-heavy "
           "execution, where the engine gains least end to end")
    keys = SAMPLING_TABLES


# ----------------------------------------------------------------------
# conformance: validate matrix, and flow lint over a frozen corpus
# ----------------------------------------------------------------------


class Validate(ShuffledKinds):
    """``repro.validate.matrix.run_all`` one plane per op: the quick
    matrix, 292 cells including the refute plane."""

    name = "validate"
    why = ("validate quick matrix: the only path through ncpus=4 SMP, "
           "the fault injector, the off/block tiers and the refute plane")

    def setup(self) -> None:
        import repro.refute.engine  # noqa: F401  (imported lazily by planes)
        import repro.validate.components  # noqa: F401
        import repro.validate.conformance  # noqa: F401
        import repro.validate.convergence  # noqa: F401
        import repro.validate.cost  # noqa: F401
        import repro.validate.skid  # noqa: F401
        from repro.validate.matrix import run_all

        self.run_all = run_all
        self.weights = {f"validate:{p}": 1 for p in PLANE_CELLS}

    def _op(self, kind: str) -> Callable[[], Any]:
        plane = kind.split(":", 1)[1]
        return lambda: self.run_all(planes=[plane], seed=VALIDATE_SEED)

    def check(self, kind: str, result: Any) -> Optional[str]:
        plane = kind.split(":", 1)[1]
        if len(result.cells) != PLANE_CELLS[plane]:
            return (f"{plane}: {len(result.cells)} cells, expected "
                    f"{PLANE_CELLS[plane]}")
        if result.failures():
            return f"{plane}: {len(result.failures())} failed cells"
        return None

    def finish(self) -> Tuple[dict, List[str]]:
        # per pass; check() has verified every plane's cell count
        return {"validate_cells": sum(PLANE_CELLS.values())}, []


def lint_findings(path: Path) -> List[List[Any]]:
    """``[code, line]`` pairs of a flow-mode lint, in report order."""
    from repro.lint.engine import lint_file

    return [[d.code, d.line] for d in lint_file(str(path), flow=True)]


def corpus_files() -> List[Path]:
    return sorted(LINT_CORPUS.rglob("*.py"))


class Lint(Workload):
    """A flow-mode ``lint_file`` (AST rules, then the CFG typestate
    pass) of every file of the frozen corpus: one op lints the corpus,
    in seeded file order, as a user lints a tree."""

    name = "lint"
    why = ("both lint engines, AST rules and flow typestate, over a "
           "frozen corpus of examples, repro sources and misuse probes")
    weights = {"lint": 1}

    def setup(self) -> None:
        import repro.lint.flow  # noqa: F401  (imported lazily by lint)

        self.expected = json.loads(LINT_EXPECTED.read_text())
        self.files = {p.relative_to(LINT_CORPUS).as_posix(): p
                      for p in corpus_files()}
        missing = set(self.expected) ^ set(self.files)
        if missing:
            raise RuntimeError(
                f"lint corpus and {LINT_EXPECTED.name} disagree: "
                f"{sorted(missing)}"
            )

    def batches(self) -> Iterator[List[Op]]:
        while True:
            order = list(self.files)
            self.rng.shuffle(order)
            yield [("lint", lambda order=order: {
                name: lint_findings(self.files[name]) for name in order})]

    def check(self, kind: str, result: Any) -> Optional[str]:
        for name, want in self.expected.items():
            if result[name] != want:
                return f"{name}: findings {result[name]} != expected {want}"
        return None

    def finish(self) -> Tuple[dict, List[str]]:
        return {"lint_files": len(self.files)}, []


# ----------------------------------------------------------------------
# papid: steady reads, and session churn, on the process transport
# ----------------------------------------------------------------------


class PapidWorkload(Workload):
    """One client against ``PapidServer(nshards=2)`` on the process
    transport, journaling to a file, with 200 simX86 sessions running."""

    NSHARDS = 2
    SESSIONS = 200
    short_ops = True
    host_width = NSHARDS

    def setup(self) -> None:
        from repro.daemon import (
            DaemonConfig,
            Op,
            PapidClient,
            PapidServer,
            SessionSpec,
            shard_of,
        )

        self.Op, self.SessionSpec, self.shard_of = Op, SessionSpec, shard_of
        self.journal_path = os.path.join(
            self.workdir, f"journal-{os.getpid()}.jsonl"
        )
        self.server = PapidServer(DaemonConfig(
            nshards=self.NSHARDS, journal_path=self.journal_path,
        ))
        self.client = PapidClient(self.server, seed=self.seed)
        specs = [
            SessionSpec(sid=f"s{i:03d}", seed=self.rng.randrange(1 << 30))
            for i in range(self.SESSIONS)
        ]
        sids = [s.sid for s in specs]
        results = self.client.create_fleet(specs)
        results += self.client.start_many(sids)
        bad = [r for r in results if not r.ok]
        if bad:
            raise RuntimeError(f"fleet bring-up failed: {bad[0].err}")
        self.step = specs[0].step_instructions
        self.by_shard = [
            [sid for sid in sids if shard_of(sid, self.NSHARDS) == k]
            for k in range(self.NSHARDS)
        ]
        self.last: Dict[str, Tuple[Dict[str, int], int]] = {
            r.sid: (dict(r.values), r.advanced) for r in results
        }
        self.digest: Optional[str] = None
        # daemon facts count the timed ops only: set-up is subtracted.
        self.at_setup = self._daemon_counts()

    def _daemon_counts(self) -> Dict[str, int]:
        health = self.server.health()
        return {
            "journal_bytes": os.path.getsize(self.journal_path),
            "client_retries": len(self.client.backoff_log),
            "shed_reads": health.shed_reads,
            "stale_reads": health.stale_reads,
            "transient_returns": health.transient_returns,
        }

    def _advance(self, res, last) -> Optional[str]:
        """A read must be ok, fresh, monotone and advance one step."""
        if not res.ok or res.stale:
            return f"{res.kind} {res.sid}: status {res.status} {res.err}"
        values, advanced = last
        if any(res.values[k] < v for k, v in values.items()):
            return f"{res.sid}: counts went backwards"
        if res.kind == "read" and res.advanced != advanced + self.step:
            return (f"{res.sid}: advanced {res.advanced}, expected "
                    f"{advanced + self.step}")
        return None

    def after_first_batch(self) -> None:
        self.digest = self.server.fleet_digest()

    def finish(self) -> Tuple[dict, List[str]]:
        from repro.daemon.journal import Journal, recover_sessions

        problems = self.server.check_consistency()
        end = self._daemon_counts()
        health = self.server.drain()
        if health.crashes_detected or health.wedges_detected:
            problems.append(
                f"{health.crashes_detected} crashes and "
                f"{health.wedges_detected} wedges on a clean run"
            )
        if health.sessions_unrecovered:
            problems.append(f"{health.sessions_unrecovered} unrecovered")
        t0 = time.perf_counter()
        records = Journal.load(self.journal_path)
        images = recover_sessions(records)
        replay_s = time.perf_counter() - t0
        if len(images) != self.SESSIONS:
            problems.append(
                f"journal replays {len(images)} sessions, expected "
                f"{self.SESSIONS}"
            )
        facts = {k: end[k] - self.at_setup[k] for k in end}
        facts.update(fleet_digest=self.digest, journal_replay_s=replay_s,
                     journal_records=len(records))
        return facts, problems


class PapidSteady(PapidWorkload):
    """Read RPCs of two running sessions, one per shard: each read runs
    the session's next step in its worker and journals one ack."""

    name = "papid_steady"
    why = ("papid read RPCs over a 200-session fleet: client, server "
           "routing, wire, worker substrate reads and journal acks")
    weights = {"read": 500}

    def batches(self) -> Iterator[List[Op]]:
        while True:
            yield [
                ("read", self._read_op([self.rng.choice(s)
                                        for s in self.by_shard]))
                for _ in range(self.weights["read"] // 10)
            ]

    def _read_op(self, sids: List[str]) -> Callable[[], Any]:
        return lambda: self.client.read_many(sids)

    def check(self, kind: str, result: Any) -> Optional[str]:
        for res in result:
            err = self._advance(res, self.last[res.sid])
            if err:
                return err
            self.last[res.sid] = (dict(res.values), res.advanced)
        return None


class PapidChurn(PapidWorkload):
    """Cohorts of ``COHORT`` new sessions, each cohort going
    create -> start -> read x2 -> stop -> destroy, one batched RPC per
    step.

    A cohort puts the same number of sessions on each shard, so every
    step keeps both workers equally busy, as a steady read does.  With
    sessions placed by their id's hash alone, most cohorts loaded one
    worker more than the other; then the time depended on which vCPU
    the busier worker ran on, while the two-process host sample always
    measures the slower one.
    """

    name = "papid_churn"
    why = ("papid session churn: spec, ack and destroy journal records "
           "plus substrate build and teardown per session")
    COHORT = 10
    weights = {"cohort": 100}

    def setup(self) -> None:
        super().setup()
        self.cohorts = 0

    def batches(self) -> Iterator[List[Op]]:
        while True:
            yield [("cohort", self._cohort_op())
                   for _ in range(self.weights["cohort"] // 10)]

    def _cohort_sids(self) -> List[str]:
        per_shard = self.COHORT // self.NSHARDS
        taken = [0] * self.NSHARDS
        sids: List[str] = []
        i = 0
        while len(sids) < self.COHORT:
            sid = f"c{self.cohorts:05d}-{i}"
            shard = self.shard_of(sid, self.NSHARDS)
            if taken[shard] < per_shard:
                taken[shard] += 1
                sids.append(sid)
            i += 1
        return sids

    def _cohort_op(self) -> Callable[[], Any]:
        self.cohorts += 1
        specs = [self.SessionSpec(sid=sid, seed=self.rng.randrange(1 << 30))
                 for sid in self._cohort_sids()]

        def op():
            sids = [s.sid for s in specs]
            client = self.client
            return [client.create_fleet(specs), client.start_many(sids),
                    client.read_many(sids), client.read_many(sids),
                    client.stop_many(sids),
                    client.call([self.Op(kind="destroy", sid=sid)
                                 for sid in sids])]

        return op

    def check(self, kind: str, result: Any) -> Optional[str]:
        last: Dict[str, Tuple[Dict[str, int], int]] = {}
        for step in result:
            for res in step:
                if res.kind in ("create", "destroy"):
                    if not res.ok:
                        return f"{res.kind} {res.sid}: {res.err}"
                    last[res.sid] = (dict(res.values), res.advanced)
                    continue
                err = self._advance(res, last[res.sid])
                if err:
                    return err
                last[res.sid] = (dict(res.values), res.advanced)
        return None


WORKLOADS = {
    w.name: w for w in (TablesCounting, TablesSampling, Validate, Lint,
                        PapidSteady, PapidChurn)
}
