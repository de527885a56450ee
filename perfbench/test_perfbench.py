"""Tests of the benchmark's own helpers: self time, the tail-percentile rule,
per-slot normalisation, wrapper restore, and BENCHMARK.json against the
metric tables."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import metrics
from layers import slots_by_phase
from spantrace import Patches, Tracer, per_call, rate, self_time, tail_percentile, union_length


def ticking_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]

    return clock


def test_self_time_is_span_minus_union_of_children():
    # children overlap, touch and stick out of the span
    starts, ends = [1.0, 2.0, 7.0, 9.0, -3.0], [3.0, 5.0, 8.0, 12.0, -1.0]
    assert union_length(starts, ends, 0.0, 10.0) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, starts, ends) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, [], []) == 10.0
    assert self_time(0.0, 10.0, [0.0, 4.0], [4.0, 10.0]) == 0.0


def test_self_times_of_recorded_spans():
    tracer = Tracer(clock=ticking_clock())
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: leaf(), "mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "top")
    top()
    sp = tracer.spans()
    # ticks: top 1..8, mid 2..5, leaf 3..4, leaf 6..7
    assert sp.duration[sp.of("top")].tolist() == [7.0]
    assert sp.self_times(sp.of("top")).tolist() == [3.0]
    assert sp.self_times(sp.of("mid")).tolist() == [2.0]
    assert sp.self_times(sp.of("leaf")).tolist() == [1.0, 1.0]
    assert sp.with_parent(sp.of("leaf"), "mid").tolist() == [2]


@pytest.mark.parametrize(
    "n, pct",
    [(0, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    assert tail_percentile(n) == pct
    if pct > 50.0:
        assert n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9


def test_per_call_reports_median_tail_and_count():
    p50, tail, pct, n = per_call(np.arange(1.0, 101.0))
    assert (p50, pct, n) == (50.5, 90.0, 100)
    assert tail == pytest.approx(np.percentile(np.arange(1.0, 101.0), 90.0))
    assert per_call([]) == (0.0, 0.0, 50.0, 0)


def test_per_slot_normalisation():
    tracer = Tracer(clock=ticking_clock())
    step = tracer.wrap(lambda: None, "mac.step_slot")
    episode = tracer.wrap(lambda slots: [step() for _ in range(slots)], "madrl.run_episode")
    rollout = tracer.wrap(lambda: episode(3), "madrl.rollout")
    evaluate = tracer.wrap(lambda: [episode(2) for _ in range(2)], "madrl.evaluate")
    rollout()
    evaluate()
    rollout()
    sp = tracer.spans()
    assert slots_by_phase(sp) == (6, 4)
    train_episodes = sp.with_parent(sp.of("madrl.run_episode"), "madrl.rollout")
    # an episode of 3 slots lasts 2 * 3 + 1 ticks
    assert rate(sp.duration[train_episodes].sum(), 6) == pytest.approx(14.0 / 6)
    assert rate(5.0, 0) == 0.0


def test_wrappers_are_restored_everywhere_callers_look():
    lib = types.ModuleType("lib")
    exec("def f(x):\n    return x + 1\n", vars(lib))
    user = types.ModuleType("user")  # imported f by name
    user.f = lib.f
    original = lib.f

    class Queue:
        def size(self):
            return 3

    size = vars(Queue)["size"]
    tracer = Tracer()
    tracer.trace_function(lib.f, [lib, user], "lib.f")
    tracer.trace_method(Queue, "size", "queue.size", count_only=True)
    assert lib.f is not original and user.f is lib.f
    assert user.f(1) == 2 and Queue().size() == 3
    assert tracer.spans().names == ["lib.f"] and tracer.counts == {"queue.size": 1}

    assert tracer.patches.restore() == []
    assert lib.f is original and user.f is original and vars(Queue)["size"] is size


def test_restore_reports_attributes_left_changed():
    class Sticky(types.ModuleType):
        """Keeps the first replacement of `f` whatever is set later."""

        def __setattr__(self, name, value):
            if vars(self).get(name) is not abs:
                super().__setattr__(name, value)

    sticky = Sticky("sticky")
    sticky.f = len
    patches = Patches()
    patches.replace(sticky, "f", abs)
    assert patches.restore() == ["sticky.f"]


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [v[0] for v in metrics.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.per_layer()
    ]
