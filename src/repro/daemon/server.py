"""PapidServer: the supervised, sharded fleet-monitoring daemon core.

One :class:`PapidServer` owns a registry of monitoring sessions sharded
across a worker pool (``shard_of(sid)`` is deterministic, so a session
lives on the same shard across restarts), an append-only journal
(:mod:`repro.daemon.journal`), a supervisor thread, and the
:class:`~repro.daemon.health.DaemonHealth` counters.  Clients talk to it
only through :meth:`submit` — batched ops with a deadline — and the
lifecycle pair :meth:`drain`/context-manager exit.

:meth:`submit` serves every shard of a batch from the calling thread:
it takes the shard locks in ascending id (then ``_lock``, never the
other way round), sends each shard its part, and awaits the answers in
shard order under one cap.  The workers run their parts concurrently;
the server starts no thread per RPC, and the journal's record order is
a function of the op stream.  All pipe traffic goes through
:meth:`Shard.send` and :meth:`Shard.reply`.

Robustness invariants (proved by ``tests/daemon`` and the chaos soak):

- **Monotonicity.**  The journal records a snapshot only after a worker
  acked it; recovery restores exactly the last-acked snapshot; adopted
  workers serve ``base + fresh``.  A client can therefore never observe
  a count decrease, crash or no crash.
- **Exactly-once.**  Ops carry per-session sequence numbers; workers
  dedupe replays.  At-least-once delivery (retries after EAGAIN) never
  double-advances a session.
- **No silent loss.**  A crash appends an explicit lost-interval entry
  (PR 4's :class:`~repro.core.resilience.LostInterval` shape) to every
  re-homed session — zero-length when no op sent to the dead worker
  went unanswered — and sessions that cannot be re-homed are reported
  ``unrecovered``, never dropped.
- **Bounded admission.**  Beyond ``high_water`` ops in flight per
  shard, reads are shed lowest-priority-first or served from the
  registry snapshot cache within ``staleness_ops`` ticks, instead of
  queueing without bound; shed/stale counts are itemized in health.
- **Idempotent drain.**  ``drain()`` quiesces admissions, stops every
  session crash-consistently, flushes+fsyncs the journal, and is safe
  to call any number of times from any thread (and from SIGTERM).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.daemon.crash import CrashPlan
from repro.daemon.health import DaemonHealth
from repro.daemon.journal import Journal, SessionImage, recover_sessions
from repro.daemon.protocol import (
    PAPID_EAGAIN,
    PAPID_EDRAIN,
    PAPID_EFATAL,
    PAPID_ESHED,
    PAPID_OK,
    Op,
    OpResult,
    shard_of,
)
from repro.daemon.shards import Shard, make_transport
from repro.daemon.supervisor import Supervisor


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables for one papid instance."""

    nshards: int = 4
    transport: str = "process"
    #: admission-control high-water mark: ops in flight per shard.
    high_water: int = 256
    #: max snapshot age (in server op ticks) a degraded read may serve.
    staleness_ops: int = 64
    #: supervisor heartbeat period (seconds).
    heartbeat_interval: float = 0.25
    #: no pong within this window => the worker is wedged (seconds).
    wedge_timeout: float = 2.0
    #: server-side cap on waiting for the shards of one RPC (seconds);
    #: a shard that blows it is treated as wedged and recycled, so this
    #: bounds how long a wedge can hold shard locks hostage.
    batch_timeout: float = 10.0
    #: worker sabotage + per-session fault spec ("seed:profile").
    inject: Optional[str] = None
    journal_path: Optional[str] = None


@dataclass(kw_only=True)
class SessionRecord(SessionImage):
    """Registry entry: authoritative last-acked state of one session."""

    shard_id: int
    #: server op tick of the last acked snapshot (staleness age).
    tick: int = 0
    #: True when recovery failed: the session's last-acked state and
    #: ledger remain readable here, but no worker hosts it any more.
    orphaned: bool = False


class PapidServer:
    """The daemon: registry + shards + supervisor + journal + health."""

    def __init__(self, config: DaemonConfig = DaemonConfig()) -> None:
        self.config = config
        self.crash_plan = CrashPlan.from_spec(config.inject)
        self._transport = make_transport(config.transport)
        self.journal = Journal(config.journal_path)
        self.registry: Dict[str, SessionRecord] = {}
        self.health_counters = DaemonHealth(
            nshards=config.nshards, transport=config.transport
        )
        self._lock = threading.RLock()
        self._tick = 0
        self._pending_loss: Dict[str, int] = {}
        self._draining = False
        self._drained = False
        self._drain_done = threading.Event()
        self.shards: List[Shard] = [
            self._transport.spawn(i, 0, self.crash_plan)
            for i in range(config.nshards)
        ]
        self.supervisor = Supervisor(
            self,
            interval=config.heartbeat_interval,
            wedge_timeout=config.wedge_timeout,
        )
        self.supervisor.start()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------

    def submit(self, ops: List[Op],
               timeout: Optional[float] = None) -> List[OpResult]:
        """Run a batch of ops; returns results aligned with *ops*.

        *timeout* is the RPC deadline in seconds (None = the server's
        ``batch_timeout``).  Transient results (EAGAIN/ESHED) mean the
        op did not run and may be retried; fatal results are final.
        """
        deadline_at = time.monotonic() + (
            timeout if timeout is not None else self.config.batch_timeout
        )
        results: Dict[int, OpResult] = {}
        by_shard: Dict[int, List[Tuple[int, Op]]] = {}
        with self._lock:
            if self._draining or self._drained:
                return [
                    OpResult(sid=op.sid, kind=op.kind, seq=op.seq,
                             status=PAPID_EDRAIN)
                    for op in ops
                ]
            for idx, op in enumerate(ops):
                routed = self._route(idx, op, results)
                if routed is not None:
                    by_shard.setdefault(routed, []).append((idx, op))
            admitted = []
            for shard_id, idx_ops in sorted(by_shard.items()):
                idx_ops = self._admit(shard_id, idx_ops, results)
                if idx_ops:
                    admitted.append((self.shards[shard_id], idx_ops))
        with ExitStack() as held:
            for shard, _ in admitted:  # ascending id: the lock order
                held.enter_context(shard.lock)
            sent = []
            for shard, idx_ops in admitted:
                if not shard.alive:
                    self._fail(shard, idx_ops, results, "shard is down")
                    continue
                try:
                    msg_id = shard.send(
                        "batch", [op.to_wire() for _, op in idx_ops])
                except OSError:
                    shard.note_fault("crash")
                    self._fail(shard, idx_ops, results,
                               "worker died before send")
                    continue
                sent.append((shard, idx_ops, msg_id))
            # one cap for the whole RPC, whatever the client deadline: a
            # wedged worker must not hold shard locks hostage past the
            # point supervision could act.
            until = min(deadline_at,
                        time.monotonic() + self.config.batch_timeout)
            self._count_inflight(sent, +1)
            try:
                for shard, idx_ops, msg_id in sent:
                    self._dispatch(shard.id, idx_ops, msg_id, until,
                                   results)
            finally:
                self._count_inflight(sent, -1)
        out = [results[idx] for idx in range(len(ops))]
        with self._lock:
            for res in out:
                if res.transient:
                    self.health_counters.transient_returns += 1
        return out

    def health(self) -> DaemonHealth:
        """A consistent snapshot of the health counters and fleet state."""
        with self._lock:
            h = self.health_counters
            snap = DaemonHealth(**{
                k: (list(v) if isinstance(v, list) else v)
                for k, v in vars(h).items()
            })
            snap.sessions = len(self.registry)
            snap.running = sum(
                1 for r in self.registry.values() if r.state == "running"
            )
            snap.stopped = sum(
                1 for r in self.registry.values() if r.state == "stopped"
            )
            snap.journal_records = self.journal.n_records
            snap.draining = self._draining
            snap.drained = self._drained
            snap.per_shard = [
                {
                    "id": s.id,
                    "generation": s.generation,
                    "sessions": len(s.sessions),
                    "inflight": s.inflight,
                    "alive": s.alive,
                }
                for s in self.shards
            ]
            return snap

    def fleet_digest(self) -> str:
        """Deterministic digest of client-visible fleet state.

        Covers final counts, session cycle/advanced clocks, recovery
        flags and the lost-interval ledgers, plus the absorbed crash and
        recovery counts — everything the chaos-soak acceptance check
        asserts bit-identical across runs of the same seed.  Excludes
        wall-clock-dependent counters (deadline expiries, transient
        returns, shed/stale split).
        """
        with self._lock:
            state = {
                sid: {
                    "values": dict(sorted(rec.values.items())),
                    "cycle": rec.cycle,
                    "advanced": rec.advanced,
                    "state": rec.state,
                    "recovered": rec.recovered,
                    "orphaned": rec.orphaned,
                    "lost": [
                        {k: iv[k] for k in
                         ("start_cycle", "end_cycle", "natives",
                          "reason", "recovered")}
                        for iv in rec.lost
                    ],
                }
                for sid, rec in sorted(self.registry.items())
            }
            state["__health__"] = {
                "crashes": self.health_counters.crashes_detected
                + self.health_counters.wedges_detected,
                "recoveries": self.health_counters.recoveries,
                "sessions_recovered":
                    self.health_counters.sessions_recovered,
                "sessions_unrecovered":
                    self.health_counters.sessions_unrecovered,
            }
        blob = json.dumps(state, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def check_consistency(self) -> List[str]:
        """Journal/registry cross-check; an empty list means consistent."""
        problems = []
        with self._lock:
            images = recover_sessions(self.journal.records())
            for sid, rec in self.registry.items():
                img = images.get(sid)
                if img is None:
                    problems.append(f"{sid}: in registry, not in journal")
                    continue
                if img.values != rec.values:
                    problems.append(
                        f"{sid}: journal values {img.values} != "
                        f"registry {rec.values}"
                    )
                if (img.cycle, img.advanced) != (rec.cycle, rec.advanced):
                    problems.append(
                        f"{sid}: journal clock "
                        f"({img.cycle},{img.advanced}) != registry "
                        f"({rec.cycle},{rec.advanced})"
                    )
                if img.state != rec.state:
                    problems.append(
                        f"{sid}: journal state {img.state!r} != "
                        f"registry {rec.state!r}"
                    )
                if len(img.lost) != len(rec.lost):
                    problems.append(
                        f"{sid}: journal ledger has {len(img.lost)} "
                        f"entries, registry {len(rec.lost)}"
                    )
            for sid in images:
                if sid not in self.registry:
                    problems.append(f"{sid}: in journal, not in registry")
        return problems

    # ------------------------------------------------------------------
    # routing and admission control
    # ------------------------------------------------------------------

    def _route(self, idx: int, op: Op,
               results: Dict[int, OpResult]) -> Optional[int]:
        """Resolve *op* to a shard id, or fill a result and return None."""
        if op.kind == "create":
            if op.sid in self.registry:
                results[idx] = OpResult(
                    sid=op.sid, kind=op.kind, seq=op.seq,
                    status=PAPID_EFATAL,
                    err=f"session {op.sid!r} already exists",
                )
                return None
            return shard_of(op.sid, self.config.nshards)
        rec = self.registry.get(op.sid)
        if rec is None:
            results[idx] = OpResult(
                sid=op.sid, kind=op.kind, seq=op.seq, status=PAPID_EFATAL,
                err=f"no such session {op.sid!r}",
            )
            return None
        if rec.orphaned:
            results[idx] = OpResult(
                sid=op.sid, kind=op.kind, seq=op.seq, status=PAPID_EFATAL,
                err=f"session {op.sid!r} was lost in a worker crash and "
                    f"could not be re-homed (see its lost-interval ledger)",
            )
            return None
        return rec.shard_id

    def _admit(self, shard_id: int, idx_ops: List[Tuple[int, Op]],
               results: Dict[int, OpResult]) -> List[Tuple[int, Op]]:
        """Bounded admission: shed/degrade overflow reads, keep the rest.

        Control-plane ops (create/start/stop/destroy) are always
        admitted — shedding them would leak sessions.  Reads beyond the
        per-shard budget are served stale from the registry snapshot if
        it is fresh enough, else shed lowest-priority-first.
        """
        shard = self.shards[shard_id]
        available = self.config.high_water - shard.inflight
        reads = [(i, op) for i, op in idx_ops if op.kind == "read"]
        others = [(i, op) for i, op in idx_ops if op.kind != "read"]
        budget = max(0, available - len(others))
        if len(reads) <= budget:
            return idx_ops
        ranked = sorted(
            reads,
            key=lambda pair: (-self._priority_of(pair[1]), pair[0]),
        )
        admitted = ranked[:budget]
        for idx, op in ranked[budget:]:
            rec = self.registry[op.sid]
            age = self._tick - rec.tick
            if rec.state == "running" and age <= self.config.staleness_ops:
                self.health_counters.stale_reads += 1
                results[idx] = OpResult(
                    sid=op.sid, kind="read", seq=op.seq, status=PAPID_OK,
                    values=dict(rec.values), cycle=rec.cycle,
                    advanced=rec.advanced, recovered=rec.recovered,
                    lost=[dict(iv) for iv in rec.lost], stale=True,
                )
            else:
                self.health_counters.shed_reads += 1
                results[idx] = OpResult(
                    sid=op.sid, kind="read", seq=op.seq, status=PAPID_ESHED,
                    err=f"shed beyond high-water mark "
                        f"(priority {self._priority_of(op)})",
                )
        kept = {i for i, _ in admitted}
        return sorted(
            others + [(i, op) for i, op in reads if i in kept],
            key=lambda pair: pair[0],
        )

    def _priority_of(self, op: Op) -> int:
        rec = self.registry.get(op.sid)
        if rec is not None:
            return rec.spec.priority
        return op.priority

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, shard_id: int, idx_ops: List[Tuple[int, Op]],
                  msg_id: int, until: float,
                  results: Dict[int, OpResult]) -> None:
        """Await shard *shard_id*'s answer to batch *msg_id*; record it.

        The caller holds the shard's lock, so ``self.shards[shard_id]``
        is still the shard the batch went to.
        """
        shard = self.shards[shard_id]
        try:
            wires = shard.reply("results", msg_id, until)
        except (EOFError, OSError):
            shard.note_fault("crash")
            self._fail(shard, idx_ops, results, "worker died mid-batch",
                       sent=True)
            return
        if wires is None:
            with self._lock:
                self.health_counters.deadline_expiries += len(idx_ops)
            shard.note_fault("wedge")
            self._fail(shard, idx_ops, results, "RPC deadline expired",
                       sent=True)
            return
        self._record_results(shard, idx_ops, wires, results)

    def _count_inflight(self, sent: List[Tuple[Shard, list, int]],
                        sign: int) -> None:
        with self._lock:
            for shard, idx_ops, _ in sent:
                shard.inflight += sign * len(idx_ops)

    def _record_results(self, shard: Shard, idx_ops: List[Tuple[int, Op]],
                        wires: List[dict],
                        results: Dict[int, OpResult]) -> None:
        with self._lock:
            for (idx, op), wire in zip(idx_ops, wires):
                res = OpResult.from_wire(wire)
                results[idx] = res
                self._tick += 1
                if not res.ok:
                    continue
                if op.kind == "create":
                    rec = SessionRecord(
                        spec=op.spec, shard_id=shard.id,
                        values=dict(res.values), cycle=res.cycle,
                        advanced=res.advanced, tick=self._tick,
                    )
                    self.registry[op.sid] = rec
                    shard.sessions.add(op.sid)
                    self.journal.append({
                        "t": "create", "sid": op.sid,
                        "spec": op.spec.to_wire(),
                    })
                    self._ack(rec, op.sid)
                elif op.kind == "destroy":
                    self.registry.pop(op.sid, None)
                    shard.sessions.discard(op.sid)
                    self.journal.append({"t": "destroy", "sid": op.sid})
                elif op.kind in ("start", "read", "stop"):
                    rec = self.registry.get(op.sid)
                    if rec is None:
                        continue
                    rec.values = dict(res.values)
                    rec.cycle = res.cycle
                    rec.advanced = res.advanced
                    rec.tick = self._tick
                    if op.kind == "start":
                        rec.state = "running"
                    elif op.kind == "stop":
                        rec.state = "stopped"
                    res.recovered = rec.recovered
                    res.lost = [dict(iv) for iv in rec.lost]
                    self._ack(rec, op.sid)

    def _ack(self, rec: SessionRecord, sid: str) -> None:
        self.journal.append({
            "t": "ack", "sid": sid, "values": dict(rec.values),
            "cycle": rec.cycle, "advanced": rec.advanced,
            "state": rec.state,
        })

    def _fail(self, shard: Shard, idx_ops: List[Tuple[int, Op]],
              results: Dict[int, OpResult], why: str,
              sent: bool = False) -> None:
        """EAGAIN a shard's part of an RPC and wake the supervisor.

        Only a *sent* batch can have been run, in part, by a worker that
        then died: its state-bearing ops lengthen the lost interval of
        the recovery that follows.  Ops no worker received lose nothing.
        The caller has noted the shard's fault, or found it down.
        """
        with self._lock:
            for idx, op in idx_ops:
                results[idx] = OpResult(sid=op.sid, kind=op.kind,
                                        seq=op.seq, status=PAPID_EAGAIN,
                                        err=why)
                if sent and op.kind in ("start", "read", "stop"):
                    self._pending_loss[op.sid] = (
                        self._pending_loss.get(op.sid, 0) + 1
                    )
        self.supervisor.request_check()

    # ------------------------------------------------------------------
    # supervision & recovery (called from the supervisor thread)
    # ------------------------------------------------------------------

    def check_shards(self) -> None:
        for shard in list(self.shards):
            if self._draining or self._drained:
                return
            if not shard.alive:
                self.recover_shard(shard)

    def ping_shard(self, shard: Shard, timeout: float) -> bool:
        """Heartbeat one shard; False means it is down (a crash when the
        pipe broke, a wedge when no pong came in time)."""
        if not shard.lock.acquire(blocking=False):
            return True  # busy with a batch: traffic is its own heartbeat
        try:
            if not shard.alive:
                return False
            ping_id = shard.send("ping")
            if shard.reply("pong", ping_id,
                           time.monotonic() + timeout) is None:
                shard.note_fault("wedge")
                return False
            return True
        except (EOFError, OSError):
            shard.note_fault("crash")
            return False
        finally:
            shard.lock.release()

    def recover_shard(self, shard: Shard) -> None:
        """Respawn a dead/wedged shard and re-home its sessions."""
        with shard.lock:
            if self.shards[shard.id] is not shard:
                return  # somebody else already recovered this slot
            # what the pipe showed, not whether the process is reaped
            # yet: a worker that exits closes its pipe before it is
            # reaped.  No sighting means the process was found dead.
            was_wedge = shard.fault == "wedge" or (
                shard.proc is None
                and getattr(shard.conn, "crash_mode", None) == "wedge")
            shard.terminate()
            sids = sorted(shard.sessions)
            with self._lock:
                if was_wedge:
                    self.health_counters.wedges_detected += 1
                else:
                    self.health_counters.crashes_detected += 1
                ops = self._build_adopt_ops(shard, sids)
            fresh = self._transport.spawn(
                shard.id, shard.generation + 1, self.crash_plan
            )
            self._adopt_into(fresh, sids, ops)
            self.shards[shard.id] = fresh
            with self._lock:
                self.health_counters.recoveries += 1

    def _build_adopt_ops(self, shard: Shard, sids: List[str]) -> List[Op]:
        """Append crash ledger entries and build the adopt batch."""
        ops = []
        for sid in sids:
            rec = self.registry.get(sid)
            if rec is None:
                continue
            pending = self._pending_loss.pop(sid, 0)
            entry = {
                "start_cycle": rec.cycle,
                "end_cycle": rec.cycle
                + pending * rec.spec.step_instructions,
                "natives": list(rec.spec.events),
                "reason": (
                    f"worker {shard.id} (generation {shard.generation}) "
                    f"crash: {pending} in-flight op(s) rolled back to the "
                    f"last-acked snapshot"
                ),
                "recovered": True,
            }
            rec.lost.append(entry)
            rec.recovered = True
            self.journal.append({"t": "recover", "sid": sid, "lost": entry})
            ops.append(Op(kind="adopt", sid=sid, spec=rec.spec,
                          restore=rec.restore_wire()))
        return ops

    def _adopt_into(self, fresh: Shard, sids: List[str],
                    ops: List[Op]) -> None:
        if not ops:
            return
        wires = None
        with fresh.lock:
            try:
                msg_id = fresh.send("batch", [op.to_wire() for op in ops])
                wires = fresh.reply(
                    "results", msg_id,
                    time.monotonic() + self.config.batch_timeout)
            except (EOFError, OSError):
                pass
        ok_sids = {op.sid for op, wire in zip(ops, wires or ())
                   if OpResult.from_wire(wire).ok}
        with self._lock:
            for sid in sids:
                rec = self.registry.get(sid)
                if rec is None:
                    continue
                if sid in ok_sids:
                    fresh.sessions.add(sid)
                    self.health_counters.sessions_recovered += 1
                else:
                    rec.orphaned = True
                    self.health_counters.sessions_unrecovered += 1

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> DaemonHealth:
        """Graceful, idempotent shutdown; returns the final health."""
        with self._lock:
            already = self._draining or self._drained
            self._draining = True
        if already:
            self._drain_done.wait(timeout)
            return self.health()
        self.supervisor.stop()
        for shard in self.shards:
            self._drain_shard(shard, timeout)
        with self._lock:
            self.journal.append({"t": "drain"})
            self.journal.sync()
            self.journal.close()
            self._drained = True
        self._drain_done.set()
        return self.health()

    def _drain_shard(self, shard: Shard, timeout: float) -> None:
        with shard.lock:
            if shard.alive:
                try:
                    msg_id = shard.send("drain")
                    acks = shard.reply("drained", msg_id,
                                       time.monotonic() + timeout)
                    if acks is not None:
                        self._record_drain_acks(acks)
                except (EOFError, OSError):
                    pass  # died during drain: last acked state stands
            shard.terminate()

    def _record_drain_acks(self, acks: List[dict]) -> None:
        with self._lock:
            for ack in acks:
                rec = self.registry.get(ack["sid"])
                if rec is None:
                    continue
                rec.values = dict(ack["values"])
                rec.cycle = ack["cycle"]
                rec.advanced = ack["advanced"]
                rec.state = ack["state"]
                self._ack(rec, ack["sid"])

    # ------------------------------------------------------------------

    def __enter__(self) -> "PapidServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PapidServer {self.config.nshards} shards "
            f"({self.config.transport}), {len(self.registry)} sessions>"
        )
