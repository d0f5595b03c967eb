"""Shard handles and transports for the papid worker pool.

A :class:`Shard` is the server-side handle for one worker: its pipe,
its liveness surface, a lock serializing pipe access between the
submit path and the supervisor, and bookkeeping (generation, sessions
homed here, ops in flight).  It is also the only code that talks over
a worker pipe: :meth:`Shard.send` numbers and sends one message and
:meth:`Shard.reply` awaits the answer to it, dropping late answers to
earlier messages whose wait already gave up.

Two transports expose the same surface:

- :class:`ProcessTransport` — real ``multiprocessing`` workers, one
  process per shard (fork where available).  This is what the CLI,
  the load benchmark, and the chaos soak run.
- :class:`InlineTransport` — the worker's :class:`WorkerState` driven
  synchronously in-process behind a pipe-shaped shim.  Crashes are
  simulated faithfully (the saboteur's :class:`WorkerCrashed` makes the
  shim answer like a dead pipe: sends raise ``BrokenPipeError``, recvs
  raise ``EOFError``).  Property tests and the hypothesis stateful
  machine run thousands of daemon lifecycles; process spawning at that
  rate would drown the suite, and the protocol surface is identical.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.daemon.crash import CrashPlan, WorkerCrashed
from repro.daemon.worker import WorkerState, worker_main


def _mp_context():
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return mp.get_context("spawn")


class InlineConn:
    """Pipe-shaped shim over a synchronous :class:`WorkerState`."""

    def __init__(self, state: WorkerState) -> None:
        self.state = state
        self._replies: List[Tuple[Any, ...]] = []
        self.dead = False
        self.crash_mode: Optional[str] = None

    def send(self, msg: Tuple[Any, ...]) -> None:
        if self.dead:
            raise BrokenPipeError("inline worker has crashed")
        try:
            self._replies.extend(self.state.handle(msg))
        except WorkerCrashed as exc:
            # the worker died mid-batch: no reply for this message, and
            # the conn behaves like a closed pipe from now on.
            self.dead = True
            self.crash_mode = exc.mode
        except Exception:
            self.dead = True
            raise

    def poll(self, timeout: Optional[float] = None) -> bool:
        return bool(self._replies) or self.dead

    def recv(self) -> Tuple[Any, ...]:
        if self._replies:
            return self._replies.pop(0)
        raise EOFError("inline worker has no reply")

    def close(self) -> None:
        self.dead = True


class Shard:
    """Server-side handle for one worker (any transport).

    Callers hold :attr:`lock` around a :meth:`send` and its
    :meth:`reply`, so each message is answered, or given up on, before
    the next is sent.
    """

    def __init__(self, shard_id: int, conn, proc=None, generation: int = 0
                 ) -> None:
        self.id = shard_id
        self.conn = conn
        self.proc = proc
        self.generation = generation
        self.lock = threading.Lock()
        self.sessions: Set[str] = set()
        #: ops currently admitted but not yet answered (backpressure).
        self.inflight = 0
        #: what the server saw go wrong on the pipe, first sighting
        #: wins: ``"crash"`` (EOF or a broken pipe) or ``"wedge"`` (no
        #: answer by the RPC cap, or no pong); None while healthy.
        self.fault: Optional[str] = None
        self._last_id = 0

    def note_fault(self, fault: str) -> None:
        """Record a ``"crash"`` or ``"wedge"`` unless one is recorded."""
        if self.fault is None:
            self.fault = fault

    @property
    def alive(self) -> bool:
        if self.fault is not None:
            return False
        if self.proc is not None:
            return self.proc.is_alive()
        return not self.conn.dead

    def send(self, kind: str, *payload: Any) -> int:
        """Send ``(kind, id, *payload)`` to the worker; returns the id.

        Raises ``OSError`` (``BrokenPipeError``) when the worker is gone.
        """
        self._last_id += 1
        self.conn.send((kind, self._last_id, *payload))
        return self._last_id

    def reply(self, kind: str, msg_id: int, until: float) -> Any:
        """The payload of the worker's *kind* answer to message *msg_id*.

        Answers to earlier messages are dropped: their wait gave up.
        Returns None when no answer came by *until* (a ``time.monotonic``
        instant), but an answer already on the pipe then is still taken,
        so a caller that spent the time waiting on another shard does
        not lose this one's.  Raises ``EOFError`` or ``OSError`` when the
        worker dies.
        """
        while True:
            wait = until - time.monotonic()
            if self.conn.poll(max(wait, 0.0)):
                msg = self.conn.recv()
                if msg[0] == kind and msg[1] == msg_id:
                    return msg[2]
            elif wait <= 0:
                return None

    def terminate(self) -> None:
        """Hard-kill the worker (wedge recovery / final cleanup)."""
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=5.0)


class ProcessTransport:
    """One real worker process per shard."""

    name = "process"

    def __init__(self) -> None:
        self._ctx = _mp_context()

    def spawn(self, shard_id: int, generation: int,
              crash_plan: Optional[CrashPlan]) -> Shard:
        parent, child = self._ctx.Pipe()
        wire = crash_plan.to_wire() if crash_plan is not None else None
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, shard_id, generation, wire),
            name=f"papid-worker-{shard_id}.{generation}",
            daemon=True,
        )
        proc.start()
        child.close()
        return Shard(shard_id, parent, proc=proc, generation=generation)


class InlineTransport:
    """Synchronous in-process workers behind pipe-shaped shims."""

    name = "inline"

    def spawn(self, shard_id: int, generation: int,
              crash_plan: Optional[CrashPlan]) -> Shard:
        saboteur = None
        if crash_plan is not None:
            saboteur = crash_plan.saboteur(shard_id, generation, inline=True)
        state = WorkerState(shard_id, generation, saboteur=saboteur)
        return Shard(shard_id, InlineConn(state), proc=None,
                     generation=generation)


TRANSPORTS: Dict[str, Any] = {
    "process": ProcessTransport,
    "inline": InlineTransport,
}


def make_transport(name: str):
    try:
        return TRANSPORTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown papid transport {name!r}; known: {sorted(TRANSPORTS)}"
        ) from None
