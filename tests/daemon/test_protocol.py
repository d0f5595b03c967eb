"""Unit tests: papid wire protocol (specs, ops, results, status codes)."""

from dataclasses import fields
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.core.errors import NotRunningError, PapiError, SystemError_
from repro.daemon import (
    PAPID_EAGAIN,
    PAPID_EDRAIN,
    PAPID_ESHED,
    PAPID_OK,
    OpResult,
    SessionRecord,
    SessionSpec,
    raise_for_result,
    shard_of,
)
from repro.daemon.protocol import Op


class TestSessionSpec:
    def test_wire_round_trip(self):
        spec = SessionSpec(sid="s-1", platform="simMIPS", seed=7,
                           events=("PAPI_TOT_INS",), priority=2)
        assert SessionSpec.from_wire(spec.to_wire()) == spec

    def test_defaults_are_complete(self):
        spec = SessionSpec(sid="s-1")
        assert spec.platform == "simX86"
        assert spec.events
        assert spec.workload == "axpy"

    def test_empty_sid_rejected(self):
        with pytest.raises(ValueError):
            SessionSpec(sid="")

    def test_events_coerced_to_tuple(self):
        spec = SessionSpec(sid="s-1", events=["PAPI_TOT_CYC"])
        assert spec.events == ("PAPI_TOT_CYC",)


class TestShardOf:
    def test_stable_and_in_range(self):
        for nshards in (1, 2, 4, 7):
            for i in range(50):
                sid = f"sess-{i}"
                assert 0 <= shard_of(sid, nshards) < nshards
                assert shard_of(sid, nshards) == shard_of(sid, nshards)

    def test_spreads_sessions(self):
        assigned = {shard_of(f"sess-{i}", 4) for i in range(64)}
        assert assigned == {0, 1, 2, 3}


class TestOpResult:
    def test_transient_statuses(self):
        for status in (PAPID_EAGAIN, PAPID_ESHED):
            res = OpResult(sid="s", kind="read", status=status)
            assert res.transient and not res.ok


def _same_fields(back, sent):
    assert type(back) is type(sent)
    for f in fields(sent):
        assert getattr(back, f.name) == getattr(sent, f.name), f.name


class TestPipeObjects:
    def test_ops_and_results_survive_pickle(self):
        # most suites run the inline transport, which passes these by
        # reference: only this test holds them to the process pipe
        spec = SessionSpec(sid="s-1", platform="simMIPS", seed=7,
                           events=("PAPI_TOT_INS",), priority=2,
                           inject="3:transient")
        image = SessionRecord(
            spec=spec, shard_id=1, state="running",
            values={"PAPI_TOT_INS": 10}, cycle=20, advanced=5,
            recovered=True, tick=9,
            lost=[{"start_cycle": 20, "end_cycle": 420,
                   "natives": ["PAPI_TOT_INS"], "reason": "crash",
                   "recovered": True}],
        )
        res = OpResult(sid="s-1", kind="read", status=PAPID_OK, seq=3,
                       values={"PAPI_TOT_INS": 10}, cycle=20, advanced=5,
                       recovered=True, lost=list(image.lost), stale=True,
                       err_code=-7, err="detail")
        for sent in (Op(kind="create", sid="s-1", spec=spec, priority=2),
                     Op(kind="adopt", sid="s-1", seq=4, image=image),
                     res):
            back = ForkingPickler.loads(ForkingPickler.dumps(sent))
            _same_fields(back, sent)

    def test_adopt_requires_an_image(self):
        with pytest.raises(ValueError):
            Op(kind="adopt", sid="s-1")


class TestRaiseForResult:
    def test_ok_passes(self):
        raise_for_result(OpResult(sid="s", kind="read", status=PAPID_OK))

    def test_transient_raises_system_error(self):
        with pytest.raises(SystemError_):
            raise_for_result(
                OpResult(sid="s", kind="read", status=PAPID_EAGAIN)
            )

    def test_drain_raises_not_running(self):
        with pytest.raises(NotRunningError):
            raise_for_result(
                OpResult(sid="s", kind="read", status=PAPID_EDRAIN)
            )

    def test_fatal_maps_error_code(self):
        from repro.core import constants as C

        res = OpResult(sid="s", kind="read", status=-103,
                       err_code=C.PAPI_ENOEVNT, err="no such event")
        with pytest.raises(PapiError) as exc_info:
            raise_for_result(res)
        assert exc_info.value.code == C.PAPI_ENOEVNT
