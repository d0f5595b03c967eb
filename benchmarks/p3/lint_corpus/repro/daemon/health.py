"""DaemonHealth: the papid service's self-reported vital signs.

Everything the robustness layer does silently on a client's behalf —
crashes absorbed, sessions re-homed, reads shed or served stale,
deadlines expired — is counted here and exposed through
``PapidServer.health()`` and the ``papid`` CLI verb.  The convention
matches :class:`~repro.core.resilience.EventSetHealth`: degradation is
never hidden, it is itemized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DaemonHealth:
    """Snapshot of fleet state and absorbed-fault counters."""

    nshards: int = 0
    transport: str = "process"
    sessions: int = 0
    running: int = 0
    stopped: int = 0
    destroyed: int = 0
    #: dead worker processes detected by the supervisor or submit path.
    crashes_detected: int = 0
    #: unresponsive-but-alive workers the supervisor had to kill.
    wedges_detected: int = 0
    #: shard respawn+re-home rounds completed.
    recoveries: int = 0
    #: sessions successfully adopted by a respawned worker.
    sessions_recovered: int = 0
    #: sessions that could not be re-homed (their images stay in the
    #: registry with their lost-interval ledger; never silently dropped).
    sessions_unrecovered: int = 0
    #: reads rejected by admission control (lowest priority first).
    shed_reads: int = 0
    #: reads served from the snapshot cache instead of a worker.
    stale_reads: int = 0
    #: RPCs whose deadline expired before their shard answered.
    deadline_expiries: int = 0
    #: transient (EAGAIN/ESHED) results handed to clients.
    transient_returns: int = 0
    journal_records: int = 0
    draining: bool = False
    drained: bool = False
    per_shard: List[Dict[str, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no fault of any kind was absorbed or surfaced."""
        return (
            self.crashes_detected == 0
            and self.wedges_detected == 0
            and self.sessions_unrecovered == 0
            and self.shed_reads == 0
            and self.stale_reads == 0
            and self.deadline_expiries == 0
            and self.transient_returns == 0
        )

    def summary(self) -> dict:
        """JSON-friendly snapshot (CLI output, bench artifacts, tests)."""
        return {
            "nshards": self.nshards,
            "transport": self.transport,
            "sessions": self.sessions,
            "running": self.running,
            "stopped": self.stopped,
            "destroyed": self.destroyed,
            "crashes_detected": self.crashes_detected,
            "wedges_detected": self.wedges_detected,
            "recoveries": self.recoveries,
            "sessions_recovered": self.sessions_recovered,
            "sessions_unrecovered": self.sessions_unrecovered,
            "shed_reads": self.shed_reads,
            "stale_reads": self.stale_reads,
            "deadline_expiries": self.deadline_expiries,
            "transient_returns": self.transient_returns,
            "journal_records": self.journal_records,
            "draining": self.draining,
            "drained": self.drained,
            "per_shard": list(self.per_shard),
        }
