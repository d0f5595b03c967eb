"""papid wire protocol: session specs, ops, results, status codes.

The daemon (:mod:`repro.daemon.server`) and its workers exchange these
objects themselves: an ``Op`` list goes to a worker, an ``OpResult``
list comes back, and an ``adopt`` op carries the session's
:class:`~repro.daemon.journal.SessionImage`.  On the process transport
``multiprocessing`` pickles them across the pipe; the inline
(in-process) transport hands them over by reference, so tests and the
hypothesis stateful machine exercise the same objects the real service
sends.  Across that shim both sides hold the same object: the server
never assigns to a result (the worker keeps it in its dedupe cache)
but annotates it with :func:`dataclasses.replace`, and a worker copies
what it keeps of an adopt image (the server's registry record, which
the server goes on updating).
:meth:`SessionSpec.to_wire` is the journal's JSON form of a spec, not a
pipe format.

Status codes extend — without colliding with — the PAPI error space in
:mod:`repro.core.constants`.  Only two distinctions matter to clients:

- **transient** (``PAPID_EAGAIN``, ``PAPID_ESHED``): the op did not run
  (a shard is being recovered, or admission control shed it); re-issuing
  the same op later can succeed.  :func:`raise_for_result` maps these
  onto :class:`~repro.core.errors.SystemError_`, the taxonomy's
  canonical transient, so existing retry machinery applies unchanged.
- **fatal** (``PAPID_EDRAIN``, or a PAPI error code forwarded from the
  worker): retrying is pointless; the mapped exception from
  :func:`~repro.core.errors.error_for_code` is raised instead.

Every state-bearing op (``start``/``read``/``stop``) carries a
client-assigned per-session sequence number.  Delivery to a worker is
at-least-once (crashes and deadline expiries force re-sends); workers
dedupe on ``(sid, seq)`` and replay the cached result, which makes
execution exactly-once per worker generation — the keystone of both the
monotonicity and the bit-identical-replay guarantees (DESIGN.md, "Fleet
daemon & supervision").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core import constants as C
from repro.core.errors import NotRunningError, SystemError_, error_for_code

if TYPE_CHECKING:
    from repro.daemon.journal import SessionImage

# ---------------------------------------------------------------------------
# status codes (disjoint from the PAPI_E* space, which is > -100)
# ---------------------------------------------------------------------------

PAPID_OK = 0
#: transient: shard crashed/wedged/recovering, or the RPC deadline
#: expired before the shard answered.  Retry with backoff.
PAPID_EAGAIN = -100
#: transient: admission control shed this op (lowest-priority first)
#: beyond the high-water mark.  Retry with backoff.
PAPID_ESHED = -101
#: fatal: the daemon is draining or drained; no new work is admitted.
PAPID_EDRAIN = -102
#: fatal: the worker raised; ``err_code`` carries the PAPI error code.
PAPID_EFATAL = -103

TRANSIENT_STATUSES = frozenset({PAPID_EAGAIN, PAPID_ESHED})

STATUS_NAMES = {
    PAPID_OK: "PAPID_OK",
    PAPID_EAGAIN: "PAPID_EAGAIN",
    PAPID_ESHED: "PAPID_ESHED",
    PAPID_EDRAIN: "PAPID_EDRAIN",
    PAPID_EFATAL: "PAPID_EFATAL",
}

#: op kinds a client may submit; ``adopt`` is supervisor-internal.
OP_KINDS = ("create", "start", "read", "stop", "destroy", "adopt")


# ---------------------------------------------------------------------------
# session specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionSpec:
    """Everything a worker needs to (re)build one monitoring session."""

    sid: str
    platform: str = "simX86"
    events: Tuple[str, ...] = ("PAPI_TOT_INS", "PAPI_TOT_CYC")
    workload: str = "axpy"
    n: int = 16
    #: instructions the session's machine advances per ``read`` op; the
    #: workload program is reloaded (counters keep accumulating) when it
    #: halts, so a session can be read indefinitely.
    step_instructions: int = 400
    seed: int = 12345
    #: per-session substrate fault spec (``"seed:profile"``), or None.
    inject: Optional[str] = None
    #: admission-control priority: higher survives shedding longer.
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.sid:
            raise ValueError("SessionSpec.sid must be non-empty")
        object.__setattr__(self, "events", tuple(self.events))

    def to_wire(self) -> Dict[str, Any]:
        """The spec as JSON: the ``spec`` of a journal ``create`` record."""
        return {
            "sid": self.sid,
            "platform": self.platform,
            "events": list(self.events),
            "workload": self.workload,
            "n": self.n,
            "step_instructions": self.step_instructions,
            "seed": self.seed,
            "inject": self.inject,
            "priority": self.priority,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "SessionSpec":
        return cls(
            sid=wire["sid"],
            platform=wire["platform"],
            events=tuple(wire["events"]),
            workload=wire["workload"],
            n=wire["n"],
            step_instructions=wire["step_instructions"],
            seed=wire["seed"],
            inject=wire.get("inject"),
            priority=wire.get("priority", 0),
        )


def shard_of(sid: str, nshards: int) -> int:
    """Deterministic session→shard assignment (stable across restarts)."""
    return zlib.crc32(sid.encode("utf-8")) % nshards


# ---------------------------------------------------------------------------
# ops and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One batched RPC element.

    ``seq`` is the client-assigned per-session idempotency token for
    state-bearing kinds; ``spec`` rides on ``create``, ``image`` (the
    session's journal image) on supervisor ``adopt`` ops.
    """

    kind: str
    sid: str
    seq: int = 0
    spec: Optional[SessionSpec] = None
    image: Optional[SessionImage] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "create" and self.spec is None:
            raise ValueError("create op requires a spec")
        if self.kind == "adopt" and self.image is None:
            raise ValueError("adopt op requires an image")


@dataclass
class OpResult:
    """Outcome of one op, as seen by the client."""

    sid: str
    kind: str
    status: int = PAPID_OK
    seq: int = 0
    #: event name -> monotone cumulative count (read/stop/adopt).
    values: Dict[str, int] = field(default_factory=dict)
    #: monotone per-session cycle clock (survives worker respawn).
    cycle: int = 0
    #: total instructions this session has executed (monotone).
    advanced: int = 0
    #: True once the session has been re-homed after a worker crash.
    recovered: bool = False
    #: lost-interval ledger entries (dicts shaped like
    #: ``EventSetHealth.summary()["lost_intervals"]`` items).
    lost: list = field(default_factory=list)
    #: True when this read was served from the server-side snapshot
    #: cache under load instead of touching the worker.
    stale: bool = False
    err_code: Optional[int] = None
    err: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PAPID_OK

    @property
    def transient(self) -> bool:
        return self.status in TRANSIENT_STATUSES


def raise_for_result(res: OpResult) -> None:
    """Map a non-OK result onto the :mod:`repro.core.errors` taxonomy."""
    if res.status == PAPID_OK:
        return
    name = STATUS_NAMES.get(res.status, str(res.status))
    detail = f"{name} for {res.kind} {res.sid!r}"
    if res.err:
        detail = f"{detail}: {res.err}"
    if res.status in TRANSIENT_STATUSES:
        raise SystemError_(detail)
    if res.status == PAPID_EDRAIN:
        raise NotRunningError(f"papid is draining ({detail})")
    code = res.err_code if res.err_code is not None else C.PAPI_EMISC
    raise error_for_code(code, detail)
