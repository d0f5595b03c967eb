"""PapidClient: the in-process client for the papid daemon.

The client owns three things the server deliberately does not:

- **retry with jittered backoff** — transient results (``PAPID_EAGAIN``
  / ``PAPID_ESHED``) are retried under a
  :class:`~repro.core.resilience.RetryPolicy` whose jitter is drawn
  from a per-client seeded RNG; every wait is appended to
  ``backoff_log``, the determinism witness (two clients with the same
  seed and the same fate produce the same log, the same way
  ``faults/`` logs its injected schedule);
- **deadlines** — every RPC carries one; when the overall per-call
  deadline expires with ops still transient, the client raises the
  taxonomy's canonical transient (:class:`~repro.core.errors.SystemError_`)
  rather than spinning;
- **sequence numbers** — the per-session idempotency tokens that make
  retried deliveries exactly-once on the worker (protocol docstring).

Sessions created through a client are *owned* by it: ``close()`` (or
the context manager, which papi-lint rule PL018 checks for) stops and
destroys any still-live owned sessions so a departing client never
leaks daemon-side state.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.errors import SystemError_
from repro.core.resilience import LostInterval, RetryPolicy
from repro.daemon.protocol import (
    Op,
    OpResult,
    SessionSpec,
    raise_for_result,
)
from repro.validate.seeds import derive_seed

#: the daemon-side ladder: more patient than the EventSet default (a
#: crashed shard takes a respawn round-trip to come back), with jitter
#: so a thousand retrying clients do not stampede in lockstep.
DAEMON_RETRY_POLICY = RetryPolicy(
    max_retries=12, backoff_cycles=2000, backoff_multiplier=2,
    jitter_frac=0.25,
)

#: seconds per billed backoff cycle when converting waits to sleeps.
CYCLE_SECONDS = 1e-6


@dataclass
class ReadResult:
    """One session's counts as returned to client code."""

    sid: str
    values: Dict[str, int]
    cycle: int
    advanced: int
    stale: bool = False
    recovered: bool = False
    lost: List[LostInterval] = field(default_factory=list)

    @classmethod
    def from_op_result(cls, res: OpResult) -> "ReadResult":
        return cls(
            sid=res.sid,
            values=dict(res.values),
            cycle=res.cycle,
            advanced=res.advanced,
            stale=res.stale,
            recovered=res.recovered,
            lost=[
                LostInterval(
                    start_cycle=iv["start_cycle"],
                    end_cycle=iv["end_cycle"],
                    natives=tuple(iv["natives"]),
                    reason=iv["reason"],
                    recovered=iv.get("recovered", False),
                )
                for iv in res.lost
            ],
        )


class PapidClient:
    """Retrying, deadline-carrying, session-owning daemon client."""

    def __init__(self, server, seed: int = 0,
                 policy: RetryPolicy = DAEMON_RETRY_POLICY,
                 deadline: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.server = server
        self.policy = policy
        self.deadline = deadline
        self._sleep = sleep
        self._rng = random.Random(derive_seed(seed, "papid:client"))
        #: determinism witness: every backoff wait, in billed cycles.
        self.backoff_log: List[int] = []
        self._seq: Dict[str, int] = {}
        self._owned: Dict[str, str] = {}  # sid -> created|running|stopped
        self._closed = False

    # ------------------------------------------------------------------
    # batched core
    # ------------------------------------------------------------------

    def call(self, ops: Sequence[Op],
             deadline: Optional[float] = None) -> List[OpResult]:
        """Submit *ops*, retrying transient results until the deadline.

        Returns results aligned with *ops*; fatal results are returned,
        not raised (single-op helpers raise).  Raises ``SystemError_``
        when the deadline expires or the retry budget is exhausted with
        ops still transient.
        """
        if self._closed:
            raise SystemError_("PapidClient is closed")
        budget = deadline if deadline is not None else self.deadline
        deadline_at = time.monotonic() + budget
        results: List[Optional[OpResult]] = [None] * len(ops)
        pending = list(enumerate(ops))
        attempt = 0
        while True:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise SystemError_(
                    f"papid RPC deadline ({budget:.3f}s) expired with "
                    f"{len(pending)} op(s) still transient"
                )
            batch = self.server.submit(
                [op for _, op in pending], timeout=remaining
            )
            still = []
            for (idx, op), res in zip(pending, batch):
                if res.transient:
                    still.append((idx, op))
                else:
                    results[idx] = res
            if not still:
                # pending is empty, so every slot has been filled.
                return [r for r in results if r is not None]
            if attempt >= self.policy.max_retries:
                raise SystemError_(
                    f"papid retry budget exhausted after {attempt} "
                    f"attempts with {len(still)} op(s) still transient "
                    f"({still[0][1].kind} {still[0][1].sid!r}: "
                    f"{batch[0].err})"
                )
            wait = self.policy.backoff(attempt, rng=self._rng)
            self.backoff_log.append(wait)
            self._sleep(min(wait * CYCLE_SECONDS, max(0.0, remaining)))
            attempt += 1
            pending = still

    def _next_seq(self, sid: str) -> int:
        nxt = self._seq.get(sid, 0) + 1
        self._seq[sid] = nxt
        return nxt

    def _one(self, op: Op, deadline: Optional[float] = None) -> OpResult:
        res = self.call([op], deadline=deadline)[0]
        raise_for_result(res)
        return res

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------

    def create(self, spec: SessionSpec,
               deadline: Optional[float] = None) -> str:
        self._one(Op(kind="create", sid=spec.sid, spec=spec,
                     priority=spec.priority), deadline)
        self._owned[spec.sid] = "created"
        return spec.sid

    def create_fleet(self, specs: Sequence[SessionSpec],
                     deadline: Optional[float] = None) -> List[OpResult]:
        """Batched create; per-spec results (fatal embedded, not raised)."""
        results = self.call(
            [Op(kind="create", sid=s.sid, spec=s, priority=s.priority)
             for s in specs],
            deadline=deadline,
        )
        for spec, res in zip(specs, results):
            if res.ok:
                self._owned[spec.sid] = "created"
        return results

    def start(self, sid: str, deadline: Optional[float] = None) -> None:
        self._one(Op(kind="start", sid=sid, seq=self._next_seq(sid)),
                  deadline)
        if sid in self._owned:
            self._owned[sid] = "running"

    def start_many(self, sids: Sequence[str],
                   deadline: Optional[float] = None) -> List[OpResult]:
        results = self.call(
            [Op(kind="start", sid=sid, seq=self._next_seq(sid))
             for sid in sids],
            deadline=deadline,
        )
        for sid, res in zip(sids, results):
            if res.ok and sid in self._owned:
                self._owned[sid] = "running"
        return results

    def read(self, sid: str,
             deadline: Optional[float] = None) -> ReadResult:
        res = self._one(Op(kind="read", sid=sid, seq=self._next_seq(sid)),
                        deadline)
        return ReadResult.from_op_result(res)

    def read_many(self, sids: Sequence[str],
                  deadline: Optional[float] = None) -> List[OpResult]:
        """Batched read; transient retries inside, fatals embedded."""
        return self.call(
            [Op(kind="read", sid=sid, seq=self._next_seq(sid))
             for sid in sids],
            deadline=deadline,
        )

    def stop(self, sid: str,
             deadline: Optional[float] = None) -> ReadResult:
        res = self._one(Op(kind="stop", sid=sid, seq=self._next_seq(sid)),
                        deadline)
        if sid in self._owned:
            self._owned[sid] = "stopped"
        return ReadResult.from_op_result(res)

    def stop_many(self, sids: Sequence[str],
                  deadline: Optional[float] = None) -> List[OpResult]:
        results = self.call(
            [Op(kind="stop", sid=sid, seq=self._next_seq(sid))
             for sid in sids],
            deadline=deadline,
        )
        for sid, res in zip(sids, results):
            if res.ok and sid in self._owned:
                self._owned[sid] = "stopped"
        return results

    def destroy(self, sid: str, deadline: Optional[float] = None) -> None:
        self._one(Op(kind="destroy", sid=sid), deadline)
        self._owned.pop(sid, None)
        self._seq.pop(sid, None)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop and destroy every still-owned session; idempotent.

        Best-effort: a draining or crashed daemon cannot leak what it
        no longer runs, so errors here are absorbed — the point is that
        a *healthy* daemon is left with nothing owned by this client.
        """
        if self._closed:
            return
        self._closed = False  # keep call() usable for the teardown ops
        try:
            running = [s for s, st in self._owned.items() if st == "running"]
            if running:
                try:
                    self.stop_many(running)
                except Exception:
                    pass
            for sid in list(self._owned):
                try:
                    self.destroy(sid)
                except Exception:
                    pass
        finally:
            self._owned.clear()
            self._closed = True

    def __enter__(self) -> "PapidClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PapidClient {len(self._owned)} owned sessions, "
            f"{len(self.backoff_log)} backoffs>"
        )
