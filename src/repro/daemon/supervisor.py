"""papid supervisor: heartbeats, crash detection, recovery driver.

A single daemon thread owns fault *detection*; the *repair* logic lives
in :meth:`PapidServer.recover_shard` so tests can drive it directly.
Detection has two signals:

- **death** — the worker process exited (or the inline conn is marked
  dead).  Visible immediately through ``Shard.alive``; the submit path
  and the ping also trip it on the pipe (EOF, or a broken pipe on
  send), and the submit path wakes the supervisor with
  :meth:`request_check` rather than waiting for the next period.
- **wedge** — the process is alive but stopped answering.  Between
  batches the supervisor sends a ping and allows ``wedge_timeout`` for
  the pong; a shard busy with a batch is skipped (traffic is its own
  heartbeat, and a *wedged* batch is caught by its RPC's cap, one
  ``min(deadline, now + batch_timeout)`` shared by every shard of the
  RPC — also a wake-up).

Recovery counts a fault by what the pipe showed (``Shard.fault``), not
by whether the process is still alive: a worker that exits closes its
pipe before it can be reaped.

Worst-case detection latency is therefore ``interval + wedge_timeout``
for an idle wedge and one ``batch_timeout`` for a mid-batch one; the
unit tests in ``tests/daemon`` pin both bounds with shrunken timeouts.
Pings and RPCs use the same :meth:`Shard.send`/:meth:`Shard.reply`
pair under the shard lock, so neither can take the other's answer.
"""

from __future__ import annotations

import threading


class Supervisor(threading.Thread):
    """Periodic shard health scan with on-demand wake-up."""

    def __init__(self, server, interval: float = 0.25,
                 wedge_timeout: float = 2.0) -> None:
        super().__init__(name="papid-supervisor", daemon=True)
        self.server = server
        self.interval = interval
        self.wedge_timeout = wedge_timeout
        self._wake = threading.Event()
        self._stopped = threading.Event()
        #: scan rounds completed (tests wait on this to bound latency).
        self.scans = 0

    def request_check(self) -> None:
        """Wake the supervisor now (a pipe just died mid-batch)."""
        self._wake.set()

    def stop(self) -> None:
        self._stopped.set()
        self._wake.set()
        if self.is_alive():
            self.join(timeout=10.0)

    def run(self) -> None:
        while not self._stopped.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            if self._stopped.is_set():
                return
            self.scan_once()

    def scan_once(self) -> None:
        """One detection round: dead shards first, then wedge pings."""
        server = self.server
        for shard in list(server.shards):
            if self._stopped.is_set():
                return
            if not shard.alive:
                server.recover_shard(shard)
                continue
            if shard.fault is not None or not server.ping_shard(
                shard, self.wedge_timeout
            ):
                server.recover_shard(shard)
        self.scans += 1
