"""Integration tests: supervision over the real process transport.

These spawn genuine worker processes and kill or freeze them, so they
are the slowest tests in the daemon layer (a few seconds each); the
heartbeat/wedge timeouts are shrunk to keep detection latency small.
"""

import os
import signal
import time

import pytest

from repro.daemon import (
    DaemonConfig,
    PapidClient,
    PapidServer,
    SessionSpec,
    shard_of,
)


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def server():
    config = DaemonConfig(
        nshards=2, transport="process",
        heartbeat_interval=0.05, wedge_timeout=0.5, batch_timeout=2.0,
    )
    with PapidServer(config) as srv:
        yield srv


class TestSupervision:
    def test_killed_worker_is_detected_and_respawned(self, server):
        with PapidClient(server, seed=0) as client:
            specs = [SessionSpec(sid=f"sup-{i}", seed=i) for i in range(6)]
            client.create_fleet(specs)
            client.start_many([s.sid for s in specs])
            before = {
                r.sid: r.values
                for r in client.read_many([s.sid for s in specs])
            }
            victim = server.shards[0]
            victims = sorted(victim.sessions)
            os.kill(victim.proc.pid, signal.SIGKILL)
            # the heartbeat (50ms) must notice without any traffic
            assert wait_until(
                lambda: server.health().crashes_detected >= 1
            ), "supervisor never detected the SIGKILLed worker"
            assert wait_until(
                lambda: server.health().sessions_recovered >= len(victims)
            )
            assert server.shards[0].generation == 1
            after = client.read_many([s.sid for s in specs])
            for res in after:
                assert res.ok
                assert all(
                    res.values[k] >= before[res.sid][k]
                    for k in res.values
                )
                if res.sid in victims:
                    assert res.recovered and res.lost
            assert server.health().sessions_unrecovered == 0
            assert server.check_consistency() == []

    def test_wedged_worker_is_detected_by_heartbeat_timeout(self, server):
        with PapidClient(server, seed=0) as client:
            specs = [SessionSpec(sid=f"wdg-{i}", seed=i) for i in range(4)]
            client.create_fleet(specs)
            client.start_many([s.sid for s in specs])
            victim = server.shards[1]
            # SIGSTOP freezes the worker without killing it: exactly the
            # signature of a wedge (alive but unresponsive)
            os.kill(victim.proc.pid, signal.SIGSTOP)
            try:
                assert wait_until(
                    lambda: server.health().wedges_detected >= 1,
                    timeout=15.0,
                ), "supervisor never classified the frozen worker as wedged"
            finally:
                try:
                    os.kill(victim.proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert wait_until(lambda: server.shards[1].generation == 1)
            results = client.read_many([s.sid for s in specs])
            assert all(r.ok for r in results)
            assert server.health().sessions_unrecovered == 0

    def test_saboteur_death_mid_batch_counts_as_a_crash(self):
        # seed 0 draws "die" after 42 fresh ops for worker 0: it exits
        # mid-batch, and its pipe closes before the process is reaped
        config = DaemonConfig(
            nshards=1, transport="process", inject="0:daemon-chaos",
            heartbeat_interval=0.05, wedge_timeout=0.5, batch_timeout=2.0,
        )
        with PapidServer(config) as server:
            with PapidClient(server, seed=0) as client:
                sids = [f"die-{i}" for i in range(4)]
                client.create_fleet(
                    [SessionSpec(sid=sid, seed=i) for i, sid in enumerate(sids)]
                )
                client.start_many(sids)
                for _ in range(15):
                    client.read_many(sids)
            assert wait_until(lambda: server.health().recoveries >= 1)
            health = server.health()
            assert health.crashes_detected == 1
            assert health.wedges_detected == 0

    def test_mid_batch_kill_rolls_back_to_last_ack(self, server):
        with PapidClient(server, seed=0) as client:
            spec = SessionSpec(sid="roll-0")
            client.create(spec)
            client.start(spec.sid)
            acked = client.read(spec.sid)
            shard = server.shards[shard_of(spec.sid, 2)]
            os.kill(shard.proc.pid, signal.SIGKILL)
            # the next read races the kill: either it lands after
            # recovery (fresh worker) or gets retried; both must be
            # monotone vs the last acked snapshot
            res = client.read(spec.sid)
            assert all(
                res.values[k] >= acked.values[k] for k in res.values
            )
            assert wait_until(
                lambda: server.registry[spec.sid].recovered
            )
            (entry,) = server.registry[spec.sid].lost
            assert entry["start_cycle"] >= acked.cycle


class TestSupervisorMechanics:
    def test_request_check_wakes_promptly(self):
        config = DaemonConfig(
            nshards=1, transport="inline", heartbeat_interval=3600.0,
        )
        with PapidServer(config) as srv:
            scans = srv.supervisor.scans
            srv.supervisor.request_check()
            assert wait_until(
                lambda: srv.supervisor.scans > scans, timeout=5.0
            ), "wake event did not trigger a scan ahead of the interval"

    def test_supervisor_stops_with_drain(self):
        config = DaemonConfig(nshards=1, transport="inline")
        server = PapidServer(config)
        thread = server.supervisor
        server.drain()
        assert not thread.is_alive()
