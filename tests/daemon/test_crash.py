"""Unit tests: the deterministic saboteur (test-only worker crasher)."""

from repro.daemon.crash import CrashPlan, WorkerCrashed
from repro.faults.plan import PROFILES


def plan(seed=42, crash_ops=40, wedge_frac=0.25):
    return CrashPlan(seed=seed, crash_ops=crash_ops, wedge_frac=wedge_frac)


class TestCrashPlan:
    def test_from_spec_uses_profile_knobs(self):
        cp = CrashPlan.from_spec("42:daemon-chaos")
        profile = PROFILES["daemon-chaos"]
        assert cp is not None
        assert cp.crash_ops == profile.worker_crash_ops
        assert cp.wedge_frac == profile.worker_wedge_frac

    def test_from_spec_none_without_crash_knob(self):
        assert CrashPlan.from_spec(None) is None
        assert CrashPlan.from_spec("42:transient") is None

    def test_draw_is_deterministic_per_worker(self):
        cp = plan()
        assert cp.draw(worker_id=0, generation=0) == cp.draw(
            worker_id=0, generation=0
        )

    def test_workers_draw_independent_fates(self):
        cp = plan()
        fates = {cp.draw(w, 0) for w in range(8)}
        assert len(fates) > 1

    def test_countdown_bounds(self):
        cp = plan(crash_ops=40)
        for w in range(16):
            _mode, countdown = cp.draw(w, 0)
            assert 20 <= countdown <= 60

    def test_generation_one_is_immortal(self):
        cp = plan()
        assert cp.draw(worker_id=0, generation=1) is None
        assert cp.draw(worker_id=3, generation=2) is None

    def test_inline_saboteur_raises_once(self):
        cp = plan(seed=1, crash_ops=3, wedge_frac=0.0)
        saboteur = cp.saboteur(worker_id=0, generation=0, inline=True)
        fired = 0
        for _ in range(20):
            try:
                saboteur.tick()
            except WorkerCrashed as exc:
                assert exc.mode == "die"
                fired += 1
        assert fired == 1

    def test_wedge_frac_one_always_wedges(self):
        cp = plan(wedge_frac=1.0)
        for w in range(8):
            mode, _countdown = cp.draw(w, 0)
            assert mode == "wedge"
