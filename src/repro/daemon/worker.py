"""papid worker: owns one shard's monitoring sessions in-process.

Each worker holds a dict of :class:`WorkerSession` objects — one full
vertical slice per session: a platform substrate (with its own seeded
machine and optional fault injector), a :class:`~repro.core.library.Papi`
library, one EventSet, and a looping calibration workload.  A ``read``
op advances the session's machine by ``step_instructions`` and returns
cumulative counts; the workload program is reloaded when it halts
(counters survive a reload), so sessions can be read forever.

The same :class:`WorkerState` drives both transports: the process
entry point :func:`worker_main` wraps it in a pipe loop, and the inline
transport calls :meth:`WorkerState.handle` directly.  All session state
lives below ``handle``; everything above it is delivery.

Exactly-once semantics: state-bearing ops carry a client sequence
number, and each session keeps its last ``(seq, result)``.  A replayed
seq returns the cached result without touching the machine — so
at-least-once delivery from retries never double-advances a session,
and the saboteur countdown (fresh executions only) stays deterministic.

Adoption (crash recovery): an ``adopt`` op carries the journal image of
a session that died with its previous worker.  The worker rebuilds the
substrate from the image's spec, copies the acked base counts/cycle, and —
because a respawned worker may reuse a process whose library was shut
down — leans on the ``Papi.shutdown()``/cold-restart fix for a genuinely
fresh library.  Reads after adoption serve ``base + fresh``, which is
what keeps client-visible counts monotone across crashes.  The
``recovered`` flag and the lost-interval ledger stay in the server's
registry, which sets both on every start/read/stop result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import NotRunningError, PapiError, is_transient
from repro.core.library import Papi
from repro.daemon.crash import CrashPlan, Saboteur
from repro.daemon.journal import SessionImage
from repro.daemon.protocol import (
    PAPID_EAGAIN,
    PAPID_EFATAL,
    Op,
    OpResult,
    SessionSpec,
)
from repro.platforms import create as create_substrate
from repro.workloads import CALIBRATION_KERNELS


def _build_workload(spec: SessionSpec, substrate) -> Any:
    try:
        factory = CALIBRATION_KERNELS[spec.workload]
    except KeyError:
        raise ValueError(
            f"unknown workload kernel {spec.workload!r}; "
            f"known: {sorted(CALIBRATION_KERNELS)}"
        ) from None
    return factory(spec.n, use_fma=substrate.HAS_FMA)


class WorkerSession:
    """One monitoring session: substrate + library + EventSet + workload."""

    def __init__(self, spec: SessionSpec,
                 image: Optional[SessionImage] = None) -> None:
        self.spec = spec
        self.substrate = create_substrate(
            spec.platform, seed=spec.seed, inject=spec.inject
        )
        self.papi = Papi(self.substrate)
        self.workload = _build_workload(spec, self.substrate)
        self.substrate.machine.load(self.workload.program)
        self.es = self.papi.create_eventset()
        self.es.add_named(*spec.events)
        # monotone bases restored from the last-acked journal snapshot.
        self.base_values: Dict[str, int] = {ev: 0 for ev in spec.events}
        self.base_cycle = 0
        self.base_advanced = 0
        self.advanced = 0
        self.state = "created"
        self.last_seq: Optional[int] = None
        self.last_result: Optional[OpResult] = None
        if image is not None:
            # the image may be the server's own record (inline
            # transport): copy what is kept, mutate nothing.
            self.base_values = {
                ev: image.values.get(ev, 0) for ev in spec.events
            }
            self.base_cycle = image.cycle
            self.base_advanced = image.advanced
            self.state = image.state
            if self.state == "running":
                self.es.start()

    # -- op bodies ---------------------------------------------------------

    def start(self) -> Dict[str, Any]:
        self.es.start()
        self.state = "running"
        return self._snapshot()

    def read(self) -> Dict[str, Any]:
        if self.state != "running":
            raise NotRunningError(f"session {self.spec.sid!r} is {self.state}")
        budget = self.spec.step_instructions
        machine = self.substrate.machine
        while budget > 0:
            result = machine.run(max_instructions=budget)
            budget -= result.instructions
            self.advanced += result.instructions
            if result.reason == "halt":
                machine.load(self.workload.program)  # loop the workload
                if result.instructions == 0:
                    break  # defensive: a zero-length program cannot advance
        return self._snapshot()

    def stop(self) -> Dict[str, Any]:
        values = self.es.stop()
        self.state = "stopped"
        return self._snapshot(values)

    def destroy(self) -> None:
        self.papi.shutdown()

    def _snapshot(self, values: Optional[List[int]] = None) -> Dict[str, Any]:
        if values is None:
            values = self.es.read() if self.state == "running" else None
        totals = dict(self.base_values)
        if values is not None:
            for ev, v in zip(self.spec.events, values):
                totals[ev] = self.base_values[ev] + int(v)
        return {
            "values": totals,
            "cycle": self.base_cycle + self.substrate.real_cyc(),
            "advanced": self.base_advanced + self.advanced,
        }


class WorkerState:
    """Transport-independent worker: messages in, replies out."""

    def __init__(self, worker_id: int, generation: int,
                 saboteur: Optional[Saboteur] = None) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.saboteur = saboteur
        self.sessions: Dict[str, WorkerSession] = {}
        self.finished = False

    # -- message dispatch --------------------------------------------------

    def handle(self, msg: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
        kind = msg[0]
        if kind == "ping":
            return [("pong", msg[1], len(self.sessions))]
        if kind == "batch":
            batch_id, ops = msg[1], msg[2]
            return [("results", batch_id,
                     [self._handle_op(op) for op in ops])]
        if kind == "drain":
            acks = self._drain_all()
            self.finished = True
            return [("drained", msg[1], acks)]
        raise ValueError(f"unknown worker message {kind!r}")

    def _handle_op(self, op: Op) -> OpResult:
        fresh = True
        session = self.sessions.get(op.sid)
        if (
            session is not None
            and op.kind in ("start", "read", "stop")
            and session.last_seq == op.seq
            and session.last_result is not None
        ):
            fresh = False  # at-least-once replay: serve the cached result
        if fresh and self.saboteur is not None:
            self.saboteur.tick()  # may never return (die/wedge)
        if not fresh:
            return session.last_result
        try:
            res = self._execute(op, session)
        except PapiError as exc:
            status = PAPID_EAGAIN if is_transient(exc) else PAPID_EFATAL
            res = OpResult(sid=op.sid, kind=op.kind, status=status,
                           seq=op.seq, err_code=exc.code, err=str(exc))
        except (ValueError, KeyError) as exc:
            res = OpResult(sid=op.sid, kind=op.kind, status=PAPID_EFATAL,
                           seq=op.seq, err=f"{type(exc).__name__}: {exc}")
        if (
            res.ok
            and op.kind in ("start", "read", "stop")
            and op.sid in self.sessions
        ):
            ses = self.sessions[op.sid]
            ses.last_seq = op.seq
            ses.last_result = res
        return res

    def _execute(self, op: Op, session: Optional[WorkerSession]) -> OpResult:
        if op.kind == "create":
            if session is not None:
                raise ValueError(f"session {op.sid!r} already exists")
            ses = WorkerSession(op.spec)
            self.sessions[op.sid] = ses
            return OpResult(sid=op.sid, kind="create", seq=op.seq,
                            **ses._snapshot())
        if op.kind == "adopt":
            ses = WorkerSession(op.image.spec, image=op.image)
            self.sessions[op.sid] = ses
            return OpResult(sid=op.sid, kind="adopt", seq=op.seq,
                            **ses._snapshot())
        if session is None:
            raise ValueError(f"no such session {op.sid!r}")
        if op.kind == "start":
            return OpResult(sid=op.sid, kind="start", seq=op.seq,
                            **session.start())
        if op.kind == "read":
            return OpResult(sid=op.sid, kind="read", seq=op.seq,
                            **session.read())
        if op.kind == "stop":
            return OpResult(sid=op.sid, kind="stop", seq=op.seq,
                            **session.stop())
        if op.kind == "destroy":
            session.destroy()
            del self.sessions[op.sid]
            return OpResult(sid=op.sid, kind="destroy", seq=op.seq)
        raise ValueError(f"unhandled op kind {op.kind!r}")

    def _drain_all(self) -> List[Dict[str, Any]]:
        """Stop every session crash-consistently; return final acks."""
        acks = []
        for sid in sorted(self.sessions):
            ses = self.sessions[sid]
            if ses.state == "running":
                try:
                    snap = ses.stop()
                except PapiError:
                    ses.es._emergency_stop()
                    ses.state = "stopped"
                    snap = ses._snapshot()
            else:
                snap = ses._snapshot()
            acks.append({"sid": sid, "state": ses.state, **snap})
            ses.papi.shutdown()
        self.sessions.clear()
        return acks


def worker_main(conn, worker_id: int, generation: int,
                crash_plan: Optional[CrashPlan] = None) -> None:
    """Process entry point: serve one pipe until drain or EOF."""
    saboteur = (crash_plan.saboteur(worker_id, generation)
                if crash_plan else None)
    state = WorkerState(worker_id, generation, saboteur=saboteur)
    while not state.finished:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        for reply in state.handle(msg):
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # parent went away
                return
    conn.close()
