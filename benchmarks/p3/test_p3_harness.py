"""Tests of the P3 harness itself: run with ``pytest benchmarks/p3``."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from p3 import stats  # noqa: E402
from p3.hostref import HostClock, op_refs  # noqa: E402
from p3.layers import (  # noqa: E402
    LAYERS,
    SimRegistry,
    delta,
    install,
    install_registry,
)
from p3.trace import Tracer, self_times, union_length  # noqa: E402


def span(sid, parent, lo, hi, layer="x"):
    return {"id": sid, "parent": parent, "start_ns": lo, "end_ns": hi,
            "layer": layer, "name": layer, "tid": 0, "tag": None}


class TestSelfTime:
    def test_self_is_span_minus_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60),
                 span(3, 1, 12, 18)]
        st = self_times(spans)
        assert st == {0: 70, 1: 14, 2: 10, 3: 6}

    def test_concurrent_children_are_merged_not_summed(self):
        # two dispatch threads waiting at once under one submit call
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 20, 80)]
        assert self_times(spans)[0] == 100 - 70

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 10, 50), span(1, 0, 0, 20), span(2, 0, 40, 90)]
        assert self_times(spans)[0] == 40 - 10 - 10

    def test_union_length(self):
        assert union_length([]) == 0
        assert union_length([(0, 5), (3, 8), (10, 12)]) == 10
        assert union_length([(0, 10), (2, 3)]) == 10

    def test_recorded_spans_nest_by_thread(self):
        tracer = Tracer()

        inner_t = tracer.traced(lambda: 1, "b")
        outer_t = tracer.traced(lambda: inner_t() + 1, "a")
        assert outer_t() == 2
        recs = {r["layer"]: r for r in tracer.records()}
        assert recs["b"]["parent"] == recs["a"]["id"]
        assert recs["a"]["parent"] == -1
        st = self_times(tracer.records())
        a, b = recs["a"], recs["b"]
        assert st[a["id"]] == (a["end_ns"] - a["start_ns"]) - (
            b["end_ns"] - b["start_ns"])

    def test_counts_record_growth_during_the_call(self):
        tracer = Tracer()
        total = {"n": 5}

        def work():
            total["n"] += 3

        tracer.traced(work, "w", counts=lambda: dict(total))()
        tracer.traced(lambda: None, "x")()
        recs = {r["layer"]: r for r in tracer.records()}
        assert recs["w"]["counts"] == {"n": 3}
        assert recs["x"]["counts"] is None

    def test_inherit_parents_a_fresh_thread_under_the_open_span(self):
        tracer = Tracer()
        work = tracer.traced(lambda: None, "wire", inherit="server")

        def submit():
            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=5)
            assert not t.is_alive()

        tracer.traced(submit, "server")()
        recs = {r["layer"]: r for r in tracer.records()}
        assert recs["wire"]["parent"] == recs["server"]["id"]
        assert recs["wire"]["tid"] != recs["server"]["tid"]


class TestPercentileRule:
    @pytest.mark.parametrize("n, p", [
        (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
        (499, 95.0), (500, 98.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, p):
        assert stats.tail_percentile(n) == p

    def test_tail_value_has_ten_samples_beyond_it(self):
        values = list(range(1, 501))
        p, v = stats.tail(values)
        assert (p, v) == (98.0, 490)
        assert sum(1 for x in values if x > v) == 10

    def test_too_few_samples_report_no_tail(self):
        assert stats.tail(list(range(10))) is None

    def test_quartiles_match_statistics_module(self):
        import statistics

        vals = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        assert stats.quartiles(vals) == tuple(statistics.quantiles(vals, n=4))


class TestHostRef:
    def test_op_uses_samples_inside_it_minus_sampler_time(self):
        # a fast (0.05 s/unit) and a slow (0.1 s/unit) sample inside
        samples, intervals = [0.05, 0.1], [[100, 110], [200, 220]]
        ((sec, ref),) = op_refs(samples, intervals, [(90, 300)])
        assert sec == (210 - 30) / 1e9
        assert ref == pytest.approx(sec * (1 / 0.05 + 1 / 0.1) / 2)

    def test_short_op_uses_the_neighbouring_samples(self):
        samples, intervals = [0.05, 0.1, 0.2], [[0, 10], [100, 110],
                                                [500, 510]]
        ((sec, ref),) = op_refs(samples, intervals, [(120, 180)])
        assert sec == 60 / 1e9
        assert ref == pytest.approx(sec * (1 / 0.1 + 1 / 0.2) / 2)

    def test_wide_clock_samples_and_reaps_its_helper(self):
        with HostClock(width=2) as clock:
            clock.take()
            helpers = [proc for proc, _conn in clock._helpers]
        assert len(clock.samples) == 1 and clock.samples[0] > 0
        assert helpers and not any(p.is_alive() for p in helpers)


class TestRestore:
    def test_toy_class_restored_identically(self):
        class Base:
            def f(self):
                return 1

        class Sub(Base):
            pass

        original = vars(Base)["f"]
        tracer = Tracer()
        tracer.wrap(Base, "f", "x")
        tracer.patch(Sub, "f", lambda self: 2)  # absent on Sub before
        assert Sub().f() == 2 and "f" in vars(Sub)
        tracer.restore()
        assert vars(Base)["f"] is original
        assert "f" not in vars(Sub)
        assert Sub().f() == 1

    def test_every_layer_wrap_is_undone(self, tmp_path):
        import repro.core.eventset as eventset_mod
        import repro.daemon.shards as shards_mod
        import repro.lint.flow as flow_mod
        from repro.hw.machine import Machine

        tracer = Tracer()
        before = {}
        real_patch = tracer.patch

        def spy(owner, attr, new):
            before.setdefault((id(owner), attr),
                              (owner, attr, vars(owner).get(attr, None)))
            real_patch(owner, attr, new)

        tracer.patch = spy
        install(tracer, SimRegistry(), span_dir=str(tmp_path))
        owners = {owner for owner, _a, _o in before.values()}
        assert {eventset_mod, shards_mod, flow_mod, Machine} <= owners
        assert len(before) > 40
        tracer.restore()
        for owner, attr, original in before.values():
            assert vars(owner).get(attr) is original, (owner, attr)


class TestSimRegistry:
    class Machine:
        def __init__(self, tot_ins):
            from repro.hw.events import Signal

            counts = {Signal.TOT_INS: tot_ins}
            self.cpus = [type("CPU", (), {"counts": counts,
                                          "engine": None})()]

    def test_gone_machines_keep_counting_in_the_totals(self):
        import gc

        registry = SimRegistry()
        a, b = self.Machine(7), self.Machine(5)
        registry.register(a)
        registry.register(b)
        before = registry.totals()
        assert before["sim_ins"] == 12
        del a
        gc.collect()
        b.cpus[0].counts[registry.tot_ins] += 4
        after = registry.totals()
        assert after["sim_ins"] == 16 and len(registry.live) == 1
        assert delta(after, before)["sim_ins"] == 4


def test_layer_names_match_benchmark_json():
    from p3 import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    for layer in LAYERS:
        assert f"{layer}.self_frac" in run.per_layer_units()


def test_benchmark_json_matches_the_newest_pin():
    from p3.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin = json.loads((Path(__file__).parent / "BENCH_p3_end_to_end.json")
                     .read_text())["trajectory"][-1]
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == \
        pin["bounds"]
    assert spec["run_seconds"] == pin["run_seconds"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(pin["workloads"]) == list(WORKLOADS)


@pytest.fixture(scope="module")
def tables_workload(tmp_path_factory):
    from p3.workloads import TablesCounting

    wl = TablesCounting(ROOT, 12345, str(tmp_path_factory.mktemp("p3")))
    wl.setup()
    return wl


def _build(wl, key, tracer_setup):
    tracer, registry = Tracer(), SimRegistry()
    tracer_setup(tracer, registry)
    try:
        before = registry.totals()
        table = wl.tables.build_table(key, "trace")
        totals = delta(registry.totals(), before)
    finally:
        tracer.restore()
    return table, totals, tracer


def test_traced_table_equals_golden_with_identical_sim_ins(tables_workload):
    wl = tables_workload
    key = "e9"
    plain, plain_totals, _ = _build(wl, key, install_registry)
    traced, traced_totals, tracer = _build(
        wl, key, lambda t, r: install(t, r))
    assert wl.check(key, plain) is None
    assert wl.check(key, traced) is None
    assert plain_totals["sim_ins"] > 0
    assert traced_totals == plain_totals
    layers = {r["layer"] for r in tracer.records()}
    assert {"core.api", "hw.exec", "hw.pmu"} <= layers

