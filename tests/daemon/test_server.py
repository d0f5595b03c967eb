"""Unit tests: the papid server core on the inline transport.

The inline transport runs the real :class:`WorkerState` synchronously
behind a pipe-shaped shim, so every server-side mechanism — routing,
admission control, dedupe, journaling, recovery, drain — is exercised
deterministically without process scheduling in the way.
"""

import itertools
from dataclasses import replace

import pytest

from repro.daemon import (
    PAPID_EAGAIN,
    PAPID_EDRAIN,
    PAPID_ESHED,
    PAPID_OK,
    DaemonConfig,
    Op,
    PapidServer,
    SessionSpec,
    shard_of,
)


def inline_config(**kw):
    kw.setdefault("transport", "inline")
    kw.setdefault("nshards", 2)
    # the unit layer drives recovery explicitly via check_shards(); a
    # long heartbeat keeps the supervisor thread out of the timing
    kw.setdefault("heartbeat_interval", 60.0)
    return DaemonConfig(**kw)


class _Seq:
    """Per-sid sequence numbers, like PapidClient issues."""

    def __init__(self):
        self._counters = {}

    def __call__(self, sid):
        nxt = self._counters.get(sid, 0) + 1
        self._counters[sid] = nxt
        return nxt


@pytest.fixture
def seq():
    return _Seq()


def make_fleet(server, n, seq, prefix="s", **spec_kw):
    specs = [
        SessionSpec(sid=f"{prefix}-{i}", seed=100 + i, **spec_kw)
        for i in range(n)
    ]
    created = server.submit(
        [Op(kind="create", sid=s.sid, spec=s) for s in specs]
    )
    assert all(r.ok for r in created)
    started = server.submit(
        [Op(kind="start", sid=s.sid, seq=seq(s.sid)) for s in specs]
    )
    assert all(r.ok for r in started)
    return [s.sid for s in specs]


class TestLifecycle:
    def test_create_start_read_stop_destroy(self, seq):
        with PapidServer(inline_config()) as server:
            (sid,) = make_fleet(server, 1, seq)
            first = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            second = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            assert first.ok and second.ok
            assert all(
                second.values[k] >= first.values[k] for k in first.values
            )
            assert second.cycle >= first.cycle > 0
            stopped = server.submit([Op(kind="stop", sid=sid, seq=seq(sid))])[0]
            assert stopped.ok
            assert server.registry[sid].state == "stopped"
            gone = server.submit([Op(kind="destroy", sid=sid)])[0]
            assert gone.ok
            assert sid not in server.registry
            assert server.check_consistency() == []

    def test_duplicate_create_is_fatal(self, seq):
        with PapidServer(inline_config()) as server:
            (sid,) = make_fleet(server, 1, seq)
            spec = server.registry[sid].spec
            res = server.submit([Op(kind="create", sid=sid, spec=spec)])[0]
            assert not res.ok and not res.transient

    def test_unknown_sid_is_fatal(self):
        with PapidServer(inline_config()) as server:
            res = server.submit([Op(kind="read", sid="nope", seq=1)])[0]
            assert not res.ok and not res.transient

    def test_sessions_spread_across_shards(self, seq):
        with PapidServer(inline_config(nshards=2)) as server:
            sids = make_fleet(server, 8, seq)
            homes = {shard_of(sid, 2) for sid in sids}
            assert homes == {0, 1}
            for sid in sids:
                shard = server.shards[shard_of(sid, 2)]
                assert sid in shard.sessions


class TestSeqDedupe:
    def test_replayed_read_returns_cached_result(self, seq):
        with PapidServer(inline_config(nshards=1)) as server:
            (sid,) = make_fleet(server, 1, seq)
            n = seq(sid)
            first = server.submit([Op(kind="read", sid=sid, seq=n)])[0]
            replay = server.submit([Op(kind="read", sid=sid, seq=n)])[0]
            # at-least-once delivery, exactly-once effect: the replay is
            # served from the worker's dedupe cache without advancing
            assert replay.values == first.values
            assert replay.cycle == first.cycle
            fresh = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            assert fresh.advanced > first.advanced


class TestBackpressure:
    def test_overflow_reads_served_stale(self, seq):
        config = inline_config(nshards=1, high_water=2, staleness_ops=10_000)
        with PapidServer(config) as server:
            sids = make_fleet(server, 6, seq)
            results = server.submit(
                [Op(kind="read", sid=sid, seq=seq(sid)) for sid in sids]
            )
            assert all(r.ok for r in results)
            stale = [r for r in results if r.stale]
            assert len(stale) == 4
            health = server.health()
            assert health.stale_reads == 4
            assert health.shed_reads == 0

    def test_stale_reads_serve_last_acked_values(self, seq):
        config = inline_config(nshards=1, high_water=1, staleness_ops=10_000)
        with PapidServer(config) as server:
            (sid, other) = make_fleet(server, 2, seq)
            fresh = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            # both reads contend for a budget of 1; the loser is served
            # from the registry snapshot, i.e. exactly the last ack
            results = server.submit([
                Op(kind="read", sid=sid, seq=seq(sid)),
                Op(kind="read", sid=other, seq=seq(other)),
            ])
            stale = [r for r in results if r.stale]
            assert len(stale) == 1
            if stale[0].sid == sid:
                assert stale[0].values == fresh.values

    def test_shed_lowest_priority_first(self):
        config = inline_config(nshards=1, high_water=2, staleness_ops=-1)
        with PapidServer(config) as server:
            counter = itertools.count(1)
            specs = [
                SessionSpec(sid=f"p{pri}", seed=pri, priority=pri)
                for pri in (0, 1, 2, 3)
            ]
            server.submit(
                [Op(kind="create", sid=s.sid, spec=s) for s in specs]
            )
            server.submit(
                [Op(kind="start", sid=s.sid, seq=next(counter))
                 for s in specs]
            )
            results = server.submit(
                [Op(kind="read", sid=s.sid, seq=next(counter))
                 for s in specs]
            )
            by_sid = {r.sid: r for r in results}
            # budget 2: the two highest priorities run, the two lowest
            # are shed (staleness -1 disables the stale-serve fallback)
            assert by_sid["p3"].status == PAPID_OK
            assert by_sid["p2"].status == PAPID_OK
            assert by_sid["p1"].status == PAPID_ESHED
            assert by_sid["p0"].status == PAPID_ESHED
            assert server.health().shed_reads == 2


class TestCrashRecovery:
    def _kill_shard(self, server, shard_id):
        shard = server.shards[shard_id]
        shard.conn.dead = True
        shard.conn.crash_mode = "die"
        return shard

    def test_killed_shard_is_rehomed_with_ledger(self, seq):
        with PapidServer(inline_config(nshards=2)) as server:
            sids = make_fleet(server, 6, seq)
            before = {
                sid: server.submit(
                    [Op(kind="read", sid=sid, seq=seq(sid))]
                )[0]
                for sid in sids
            }
            victim = self._kill_shard(server, 0)
            victims = sorted(victim.sessions)
            assert victims, "shard 0 should own some sessions"
            server.check_shards()
            health = server.health()
            assert health.crashes_detected == 1
            assert health.recoveries == 1
            assert health.sessions_recovered == len(victims)
            assert health.sessions_unrecovered == 0
            assert server.shards[0].generation == 1
            for sid in sids:
                res = server.submit(
                    [Op(kind="read", sid=sid, seq=seq(sid))]
                )[0]
                assert res.ok
                assert all(
                    res.values[k] >= before[sid].values[k]
                    for k in res.values
                ), "counts must stay monotone across recovery"
                if sid in victims:
                    assert res.recovered
                    assert len(res.lost) == 1
                    assert res.lost[0]["recovered"] is True
                else:
                    assert not res.recovered
            assert server.check_consistency() == []

    def test_recovery_without_inflight_ops_loses_nothing(self, seq):
        with PapidServer(inline_config(nshards=1)) as server:
            (sid,) = make_fleet(server, 1, seq)
            acked = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            self._kill_shard(server, 0)
            server.check_shards()
            rec = server.registry[sid]
            # nothing was in flight at crash time: the lost interval is
            # zero-length and the restored base equals the last ack
            (entry,) = rec.lost
            assert entry["start_cycle"] == entry["end_cycle"] == acked.cycle
            res = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            assert all(res.values[k] >= acked.values[k] for k in res.values)

    def test_retries_refused_before_recovery_lose_nothing(self, seq):
        with PapidServer(inline_config(nshards=1)) as server:
            server.supervisor.stop()  # recover only at check_shards()
            (sid,) = make_fleet(server, 1, seq)
            acked = server.submit([Op(kind="read", sid=sid, seq=seq(sid))])[0]
            self._kill_shard(server, 0)
            retry = Op(kind="read", sid=sid, seq=seq(sid))
            for _ in range(2):
                res = server.submit([retry])[0]
                assert res.status == PAPID_EAGAIN
                assert res.err == "shard is down"
            server.check_shards()
            # no worker received the retries: the crash lost nothing
            (entry,) = server.registry[sid].lost
            assert entry["start_cycle"] == entry["end_cycle"] == acked.cycle
            assert "crash: 0 in-flight op(s)" in entry["reason"]
            res = server.submit([retry])[0]
            assert res.ok and res.advanced == acked.advanced + 400

    def test_stopped_session_survives_crash_stopped(self, seq):
        with PapidServer(inline_config(nshards=1)) as server:
            (sid,) = make_fleet(server, 1, seq)
            stopped = server.submit([Op(kind="stop", sid=sid, seq=seq(sid))])[0]
            self._kill_shard(server, 0)
            server.check_shards()
            assert server.registry[sid].state == "stopped"
            final = server.submit([Op(kind="stop", sid=sid, seq=seq(sid))])
            # a second stop on a stopped session is fatal on the worker,
            # but the registry still holds the exact pre-crash totals
            assert server.registry[sid].values == stopped.values


class TestDrain:
    def test_drain_is_idempotent_and_final(self, seq):
        with PapidServer(inline_config()) as server:
            sids = make_fleet(server, 4, seq)
            first = server.drain()
            second = server.drain()
            assert first.drained and second.drained
            for sid in sids:
                assert server.registry[sid].state == "stopped"
            res = server.submit([Op(kind="read", sid=sids[0], seq=99)])[0]
            assert res.status == PAPID_EDRAIN

    def test_drain_journals_final_states(self, seq, tmp_path):
        path = str(tmp_path / "papid.journal")
        from repro.daemon import Journal, recover_sessions

        with PapidServer(inline_config(journal_path=path)) as server:
            sids = make_fleet(server, 3, seq)
            server.drain()
        records = Journal.load(path)
        assert records[-1]["t"] == "drain"
        images = recover_sessions(records)
        assert sorted(images) == sorted(sids)
        assert all(img.state == "stopped" for img in images.values())


def _bump_value(server, sid):
    server.registry[sid].values["PAPI_TOT_INS"] += 1


def _bump_cycle(server, sid):
    server.registry[sid].cycle += 1


def _stop_state(server, sid):
    server.registry[sid].state = "stopped"


def _clear_recovered(server, sid):
    server.registry[sid].recovered = False


def _stretch_ledger(server, sid):
    server.registry[sid].lost[0]["end_cycle"] += 1


def _reseed_spec(server, sid):
    rec = server.registry[sid]
    rec.spec = replace(rec.spec, seed=rec.spec.seed + 1)


def _drop_from_registry(server, sid):
    del server.registry[sid]


def _drop_from_journal(server, sid):
    del server.journal.images[sid]


class TestConsistencyCheck:
    """Each disagreement between the registry and the journal's live
    fold is reported once, naming the session.  The corruptions mutate
    registry objects in place, so a fold that shared them with the
    registry would report nothing."""

    @pytest.mark.parametrize("corrupt, says", [
        (_bump_value, "journal values"),
        (_bump_cycle, "journal cycle"),
        (_stop_state, "journal state"),
        (_clear_recovered, "journal recovered"),
        (_stretch_ledger, "journal lost"),
        (_reseed_spec, "journal spec"),
        (_drop_from_registry, "in journal, not in registry"),
        (_drop_from_journal, "in registry, not in journal"),
    ])
    def test_one_corruption_one_problem(self, seq, corrupt, says):
        with PapidServer(inline_config(nshards=1)) as server:
            sids = make_fleet(server, 3, seq)
            for sid in sids:
                server.submit([Op(kind="read", sid=sid, seq=seq(sid))])
            server.shards[0].conn.dead = True
            server.shards[0].conn.crash_mode = "die"
            server.check_shards()  # every session recovered, one entry
            assert server.check_consistency() == []
            corrupt(server, sids[1])
            problems = server.check_consistency()
            assert len(problems) == 1, problems
            assert problems[0].startswith(f"{sids[1]}: {says}")
