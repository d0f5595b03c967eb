"""Stateful property test: the papid daemon under random drives + crashes.

Hypothesis interleaves client operations (create/start/read/stop/
destroy, one session per RPC or one RPC over the whole pool, which
spans both shards), forced worker crashes, and recovery scans over a
small session pool on the inline transport, with substrate-level chaos
injected into every worker.  After every step the daemon must uphold
its two core promises:

- **monotonicity** — for any session, the counts in any OK read/stop
  are >= the last OK counts the client saw, crashes included (the
  journal's write-behind-of-acks discipline);
- **consistency** — the registry and a pure fold of the journal agree
  exactly (``check_consistency() == []``), so a restart from the
  journal reproduces what clients were shown.

Transient results (EAGAIN from a dead shard, worker-side fault churn)
are allowed anywhere; they promise nothing and are simply skipped.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import hypothesis.strategies as st

from repro.daemon import DaemonConfig, Op, PapidServer, SessionSpec
from tests.property_examples import examples

#: prop-d lives on shard 0, the others on shard 1.
SIDS = ["prop-a", "prop-b", "prop-c", "prop-d"]


class PapidMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = PapidServer(DaemonConfig(
            nshards=2, transport="inline",
            # recovery is driven explicitly by the recover rule; the
            # supervisor thread stays parked unless a dispatch wakes it
            heartbeat_interval=3600.0,
            inject="11:daemon-chaos",
        ))
        self.seq = {}
        self.last_values = {}    # sid -> last OK values shown
        self.state = {}          # sid -> created | running | stopped

    def _next_seq(self, sid):
        nxt = self.seq.get(sid, 0) + 1
        self.seq[sid] = nxt
        return nxt

    def _submit(self, op):
        res = self.server.submit([op])[0]
        self._apply(op, res)
        return res

    def _apply(self, op, res):
        """Check a start/read/stop result and track the session state."""
        if not res.ok or op.kind not in ("start", "read", "stop"):
            return
        assert self.state.get(op.sid) is not None
        if op.kind != "start":
            self._check_monotone(op.sid, res)
        if op.kind != "read":
            self.state[op.sid] = "running" if op.kind == "start" else "stopped"

    # -- client operations ---------------------------------------------

    @rule(sid=st.sampled_from(SIDS), seed=st.integers(0, 5))
    def create(self, sid, seed):
        res = self._submit(Op(
            kind="create", sid=sid,
            spec=SessionSpec(sid=sid, seed=100 + seed),
        ))
        if sid in self.state:
            assert not res.ok, "duplicate create must not succeed"
        if res.ok:
            self.state[sid] = "created"
            self.last_values.setdefault(sid, {})

    @rule(sid=st.sampled_from(SIDS))
    def start(self, sid):
        self._submit(Op(kind="start", sid=sid, seq=self._next_seq(sid)))

    @rule(sid=st.sampled_from(SIDS))
    def read(self, sid):
        self._submit(Op(kind="read", sid=sid, seq=self._next_seq(sid)))

    @rule(sid=st.sampled_from(SIDS))
    def stop(self, sid):
        self._submit(Op(kind="stop", sid=sid, seq=self._next_seq(sid)))

    @rule(kinds=st.lists(st.sampled_from(["start", "read", "stop"]),
                         min_size=len(SIDS), max_size=len(SIDS)))
    def batch_all(self, kinds):
        """One RPC with an op for every session id: it spans both shards."""
        ops = [Op(kind=kind, sid=sid, seq=self._next_seq(sid))
               for sid, kind in zip(SIDS, kinds)]
        for op, res in zip(ops, self.server.submit(ops)):
            self._apply(op, res)

    @rule(sid=st.sampled_from(SIDS))
    def destroy(self, sid):
        res = self._submit(Op(kind="destroy", sid=sid))
        if res.ok:
            self.state.pop(sid, None)
            self.last_values.pop(sid, None)
            self.seq.pop(sid, None)

    def _check_monotone(self, sid, res):
        last = self.last_values.get(sid, {})
        for name, count in res.values.items():
            assert count >= last.get(name, 0), (
                f"{sid}.{name} regressed: {count} < {last.get(name)}"
            )
        self.last_values[sid] = dict(res.values)

    # -- sabotage ------------------------------------------------------

    @rule(shard_id=st.sampled_from([0, 1]))
    def crash_worker(self, shard_id):
        conn = self.server.shards[shard_id].conn
        if not conn.dead:
            conn.dead = True
            conn.crash_mode = "die"

    @rule()
    def recover(self):
        self.server.check_shards()

    # -- invariants ----------------------------------------------------

    @invariant()
    def journal_matches_registry(self):
        assert self.server.check_consistency() == []

    @invariant()
    def no_session_is_lost(self):
        health = self.server.health()
        assert health.sessions_unrecovered == 0
        for sid in self.state:
            assert sid in self.server.registry

    def teardown(self):
        try:
            health = self.server.drain(timeout=10.0)
            assert health.drained
            assert self.server.check_consistency() == []
        finally:
            for shard in self.server.shards:
                shard.terminate()


TestPapidMachine = PapidMachine.TestCase
TestPapidMachine.settings = settings(
    max_examples=examples(20), stateful_step_count=25, deadline=None
)
