"""Integration tests: one RPC, several shards, one thread.

``PapidServer.submit`` serves every shard an RPC touches from the
calling thread: it locks the shards in ascending id, sends each its
batch, then awaits the answers in shard order under one shared cap.
These tests pin what that design promises on the process transport --
a stopped worker costs its siblings nothing but the wait, the call is
bounded by one ``batch_timeout``, concurrent callers cannot deadlock,
and the journal's record order is a function of the op stream -- and,
on both transports, that no thread is started per RPC.
"""

import itertools
import os
import signal
import sys
import threading
import time

import pytest

from repro.daemon import (
    PAPID_EAGAIN,
    DaemonConfig,
    Op,
    PapidClient,
    PapidServer,
    SessionSpec,
    shard_of,
)

NSHARDS = 2
BATCH_TIMEOUT = 1.0
#: a serial wait per shard would take 2 * BATCH_TIMEOUT with both stopped.
SLACK = 0.5


def sids_on(shard_id, n, prefix):
    """The first *n* session ids ``prefix-<i>`` that live on *shard_id*."""
    names = (f"{prefix}-{i}" for i in itertools.count())
    return list(itertools.islice(
        (sid for sid in names if shard_of(sid, NSHARDS) == shard_id), n))


def two_shard_fleet(server, prefix="x", per_shard=1):
    """Create and start sessions on both shards; returns (shard0, shard1)."""
    homes = [sids_on(k, per_shard, prefix) for k in range(NSHARDS)]
    specs = [SessionSpec(sid=sid, seed=i)
             for i, sid in enumerate(homes[0] + homes[1])]
    created = server.submit([Op(kind="create", sid=s.sid, spec=s)
                             for s in specs])
    started = server.submit([Op(kind="start", sid=s.sid, seq=1)
                             for s in specs])
    assert all(r.ok for r in created + started)
    return homes


def process_server(**kw):
    kw.setdefault("heartbeat_interval", 3600.0)
    return PapidServer(DaemonConfig(
        nshards=NSHARDS, transport="process", batch_timeout=BATCH_TIMEOUT,
        **kw))


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_submit_starts_no_thread(transport, monkeypatch):
    config = DaemonConfig(nshards=NSHARDS, transport=transport,
                          heartbeat_interval=3600.0)
    with PapidServer(config) as server:
        (a,), (b,) = two_shard_fleet(server)

        def no_threads(self):
            raise AssertionError(f"submit started thread {self.name!r}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        results = server.submit([Op(kind="read", sid=a, seq=2),
                                 Op(kind="read", sid=b, seq=2)])
        assert [r.ok for r in results] == [True, True]
        assert all(r.advanced > 0 for r in results)


class TestStoppedWorker:
    def _read_both(self, server, homes):
        ops = [Op(kind="read", sid=homes[k][0], seq=2)
               for k in range(NSHARDS)]
        t0 = time.monotonic()
        results = server.submit(ops, timeout=30.0)
        return results, time.monotonic() - t0

    def _stopped(self, server, shard_ids):
        pids = [server.shards[k].proc.pid for k in shard_ids]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        return pids

    def _resume(self, pids):
        for pid in pids:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass  # already recycled by the supervisor

    def test_stopped_lowest_shard_expires_alone(self):
        with process_server() as server:
            homes = two_shard_fleet(server)
            # shard 0 is awaited first: its wait uses up the whole cap,
            # and shard 1's answer, on the pipe by then, must survive it.
            pids = self._stopped(server, [0])
            try:
                (stopped, other), elapsed = self._read_both(server, homes)
            finally:
                self._resume(pids)
            assert other.ok and other.advanced > 0
            assert stopped.status == PAPID_EAGAIN
            assert stopped.err == "RPC deadline expired"
            assert elapsed < BATCH_TIMEOUT + SLACK
            assert server.health().deadline_expiries == 1

    def test_both_stopped_cost_one_batch_timeout(self):
        with process_server() as server:
            homes = two_shard_fleet(server)
            pids = self._stopped(server, [0, 1])
            try:
                results, elapsed = self._read_both(server, homes)
            finally:
                self._resume(pids)
            assert [r.err for r in results] == ["RPC deadline expired"] * 2
            assert BATCH_TIMEOUT <= elapsed < BATCH_TIMEOUT + SLACK


@pytest.mark.timeout(120)  # a deadlock also blocks the drain at exit
def test_concurrent_two_shard_rpcs_finish():
    """Callers and a 10 ms heartbeat contend for the shard locks."""
    nthreads, rpcs = 4, 25
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with process_server(heartbeat_interval=0.01) as server:
            homes = two_shard_fleet(server, per_shard=nthreads)
            failures = []

            def caller(t):
                # half the callers name shard 1 first: a lock order
                # taken from the op order would deadlock them.
                pair = [homes[t % 2][t], homes[1 - t % 2][t]]
                for seq in range(2, rpcs + 2):
                    results = server.submit(
                        [Op(kind="read", sid=sid, seq=seq) for sid in pair])
                    failures.extend(r for r in results if not r.ok)

            threads = [threading.Thread(target=caller, args=(t,),
                                        daemon=True)
                       for t in range(nthreads)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60.0
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), "RPC deadlock"
            assert failures == []
            assert [s.inflight for s in server.shards] == [0, 0]
            step = server.registry[homes[0][0]].spec.step_instructions
            assert {rec.advanced for rec in server.registry.values()} == {
                rpcs * step}
            assert server.health().wedges_detected == 0
    finally:
        sys.setswitchinterval(switch)


def test_seeded_script_writes_identical_journals(tmp_path):
    def run(path):
        config = DaemonConfig(nshards=NSHARDS, transport="process",
                              journal_path=str(path))
        with PapidServer(config) as server:
            with PapidClient(server, seed=7) as client:
                specs = [SessionSpec(sid=f"j-{i}", seed=i) for i in range(6)]
                sids = [s.sid for s in specs]
                client.create_fleet(specs)
                client.start_many(sids)
                for _ in range(5):
                    client.read_many(sids)
                client.stop_many(sids[:3])
        return path.read_bytes()

    first = run(tmp_path / "first.jsonl")
    assert {shard_of(f"j-{i}", NSHARDS) for i in range(6)} == {0, 1}
    assert first == run(tmp_path / "second.jsonl")
