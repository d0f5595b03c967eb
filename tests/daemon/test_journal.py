"""Unit tests: the papid append-only journal and recovery fold."""

import itertools
import json
import tracemalloc
from dataclasses import fields

import pytest

from repro.daemon import (
    PAPID_EAGAIN,
    DaemonConfig,
    Journal,
    Op,
    PapidServer,
    SessionImage,
    SessionSpec,
    recover_sessions,
)


def _spec(sid="s-1"):
    return SessionSpec(sid=sid)


def _create(sid="s-1"):
    return {"t": "create", "sid": sid, "spec": _spec(sid).to_wire()}


def _ack(sid="s-1", ins=100, cycle=50, state="running"):
    return {"t": "ack", "sid": sid, "values": {"PAPI_TOT_INS": ins},
            "cycle": cycle, "advanced": ins, "state": state}


class TestJournal:
    def test_in_memory_append_and_records(self):
        j = Journal()
        j.append(_create())
        j.append(_ack())
        assert j.n_records == 2
        img = j.images["s-1"]
        assert (img.state, img.values) == ("running", {"PAPI_TOT_INS": 100})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "papid.journal"
        j = Journal(str(path))
        j.append(_create())
        j.append(_ack())
        j.sync()
        j.close()
        assert [r["t"] for r in Journal.load(str(path))] == ["create", "ack"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "papid.journal"
        j = Journal(str(path))
        j.append(_create())
        j.append(_ack())
        j.close()
        # a crash mid-write leaves a torn final line: recovery must keep
        # every complete record and drop only the torn one
        with open(path, "a") as fh:
            fh.write(json.dumps(_ack(ins=999))[: 10])
        records = Journal.load(str(path))
        assert [r["t"] for r in records] == ["create", "ack"]
        assert records[-1]["values"]["PAPI_TOT_INS"] == 100


class TestRecoverSessions:
    def test_create_then_acks_last_wins(self):
        images = recover_sessions([
            _create(), _ack(ins=10, cycle=5), _ack(ins=30, cycle=15),
        ])
        img = images["s-1"]
        assert img.values == {"PAPI_TOT_INS": 30}
        assert img.cycle == 15
        assert img.state == "running"

    def test_destroy_removes_session(self):
        images = recover_sessions([
            _create(), _ack(), {"t": "destroy", "sid": "s-1"},
        ])
        assert "s-1" not in images

    def test_recover_record_marks_session(self):
        images = recover_sessions([
            _create(), _ack(),
            {"t": "recover", "sid": "s-1", "lost": {
                "start_cycle": 50, "end_cycle": 50,
                "natives": ["PAPI_TOT_INS"], "reason": "crash",
                "recovered": True,
            }},
        ])
        img = images["s-1"]
        assert img.recovered
        assert len(img.lost) == 1


def _chaos_script(path):
    """A seeded inline fleet: a saboteur crash with adoption, stale and
    shed reads, a destroy and a drain.  Returns the drained server."""
    server = PapidServer(DaemonConfig(
        transport="inline", nshards=2, inject="42:daemon-chaos",
        journal_path=path, high_water=3, staleness_ops=8,
        heartbeat_interval=60.0,
    ))
    server.supervisor.stop()  # recover only at check_shards()
    seqs = itertools.count(1)

    def run(ops):
        for _ in range(5):
            results = server.submit(ops)
            ops = [op for op, res in zip(ops, results)
                   if res.status == PAPID_EAGAIN]
            if not ops:
                return
            server.check_shards()  # recover, then resend the EAGAIN ops
        raise AssertionError(f"{len(ops)} ops still EAGAIN")

    specs = [SessionSpec(sid=f"s-{i}", seed=i, priority=i % 3)
             for i in range(12)]
    run([Op(kind="create", sid=s.sid, spec=s) for s in specs])
    run([Op(kind="start", sid=s.sid, seq=next(seqs)) for s in specs])
    for _ in range(8):
        run([Op(kind="read", sid=s.sid, seq=next(seqs)) for s in specs])
    run([Op(kind="destroy", sid=specs[0].sid)])
    assert server.check_consistency() == []
    server.drain()
    return server


class TestLiveFold:
    def test_live_fold_equals_restart_fold(self, tmp_path):
        path = tmp_path / "papid.journal"
        server = _chaos_script(str(path))
        health = server.health()
        assert health.crashes_detected + health.wedges_detected >= 1
        assert health.sessions_recovered > 0
        assert health.stale_reads > 0 and health.shed_reads > 0
        assert server.check_consistency() == []
        live = server.journal.images
        restart = recover_sessions(Journal.load(str(path)))
        assert sorted(live) == sorted(restart) == sorted(server.registry)
        assert "s-0" not in live
        for sid, img in restart.items():
            for f in fields(SessionImage):
                assert getattr(live[sid], f.name) == getattr(img, f.name), (
                    sid, f.name)
        assert any(img.lost for img in live.values())
        lines = path.read_text().splitlines()
        assert server.journal.n_records == len(lines)
        assert json.loads(lines[-1]) == {"t": "drain"}

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_retained_memory_does_not_grow_with_records(self, on_disk,
                                                        tmp_path):
        journal = Journal(str(tmp_path / "j") if on_disk else None)
        for sid in ("s-1", "s-2"):
            journal.append(_create(sid))

        def append_acks(start, stop):
            for i in range(start, stop):
                journal.append(_ack(sid=f"s-{1 + i % 2}", ins=10_000 + i,
                                    cycle=50_000 + i))

        tracemalloc.start()
        try:
            append_acks(0, 1_000)
            at_1k = tracemalloc.get_traced_memory()[0]
            append_acks(1_000, 10_000)
            at_10k = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            journal.close()
        # a journal that kept each record would hold ~9,000 more dicts
        # (megabytes); the live fold keeps two sessions' images
        assert at_10k - at_1k < 16 * 1024
        assert journal.n_records == 10_002
        assert journal.images["s-2"].values == {"PAPI_TOT_INS": 19_999}
