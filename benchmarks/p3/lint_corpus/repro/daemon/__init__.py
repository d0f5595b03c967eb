"""papid: the supervised fleet-scale monitoring daemon.

The paper's substrate catalogue already contains a daemon-mediated
path — on Alpha/Tru64 the PAPI substrate talks to DCPI's ``dcpid``
rather than programming counters itself — and LIKWID's access daemon
(PAPERS.md) generalizes the shape: one long-running privileged process
mediates counter access for many short-lived clients.  ``papid`` is
that shape grown to fleet scale over the simulated substrates: a
registry of thousands of monitoring sessions sharded across a
supervised ``multiprocessing`` worker pool, with batched
create/start/read/stop/destroy RPCs, crash recovery from an
append-only journal, deadlines + jittered retry, admission control
with load shedding and stale-read degradation, and idempotent graceful
drain.  See DESIGN.md, "Fleet daemon & supervision".

Entry points:

- :class:`PapidServer` / :class:`DaemonConfig` — the daemon core;
- :class:`PapidClient` — the retrying in-process client (use it as a
  context manager, or papi-lint PL018 will have words with you);
- :class:`SessionSpec` — one session's full description;
- ``python -m repro.tools.cli papid`` — the CLI verb.
"""

from repro.daemon.client import DAEMON_RETRY_POLICY, PapidClient, ReadResult
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
    SessionSpec,
    raise_for_result,
    shard_of,
)
from repro.daemon.server import DaemonConfig, PapidServer, SessionRecord

__all__ = [
    "DAEMON_RETRY_POLICY",
    "DaemonConfig",
    "DaemonHealth",
    "Journal",
    "Op",
    "OpResult",
    "PAPID_EAGAIN",
    "PAPID_EDRAIN",
    "PAPID_EFATAL",
    "PAPID_ESHED",
    "PAPID_OK",
    "PapidClient",
    "PapidServer",
    "ReadResult",
    "SessionImage",
    "SessionRecord",
    "SessionSpec",
    "raise_for_result",
    "recover_sessions",
    "shard_of",
]
