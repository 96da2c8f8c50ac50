"""Unit tests of the span arithmetic.  Run: python3 -m pytest perfbench/test_tracing.py"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (  # noqa: E402
    Tracer, layer_metrics, loop_accounting, percentile, self_times, summarize)

# root [0, 10] -> a [1, 4] -> a.child [2, 3]
#              -> b [5, 9] -> kernels x2 [5, 6], [7, 8.5]
SPANS = [
    ["engine.run", 0.0, 10.0, -1],
    ["engine.a", 1.0, 4.0, 0],
    ["mirrors.a_child", 2.0, 3.0, 1],
    ["engine.b", 5.0, 9.0, 0],
    ["kernels.gram", 5.0, 6.0, 3],
    ["kernels.gram", 7.0, 8.5, 3],
]


def test_self_time_is_duration_minus_direct_children():
    assert self_times(SPANS) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_times_add_up_to_the_root_duration():
    assert sum(self_times(SPANS)) == pytest.approx(10.0)


def test_window_clips_every_span_and_still_adds_up():
    window = (2.5, 7.5)
    selfs = self_times(SPANS, window)
    # of its own time inside the window, engine.run keeps [4, 5], engine.a
    # keeps [3, 4] and engine.b keeps [6, 7]
    assert selfs == pytest.approx([1.0, 1.0, 0.5, 1.0, 1.0, 0.5])
    assert sum(selfs) == pytest.approx(window[1] - window[0])
    assert loop_accounting(SPANS, window) == pytest.approx(
        {"engine": 3.0, "kernels": 1.5, "mirrors": 0.5})


def test_summarize_counts_recursive_names_once_in_the_inclusive_time():
    spans = [
        ["kernels.gram", 0.0, 4.0, -1],
        ["kernels.gram", 1.0, 3.0, 0],
    ]
    entry = summarize(spans)["kernels.gram"]
    assert entry["calls"] == 2
    assert entry["self_s"] == pytest.approx(4.0)
    assert entry["total_s"] == pytest.approx(4.0)


def test_tracer_records_nesting_and_outermost_layer_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: [x], "kernels.gram",
                        work=lambda args, result: {"kernels.pair_evals": args[0]})
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "kernels.rescaled",
                        work=lambda args, result: {"kernels.pair_evals": args[0]})
    step = tracer.wrap(lambda: outer(3), "engine.step")
    assert step() == [3, 3]
    assert [s[0] for s in tracer.spans] == [
        "engine.step", "kernels.rescaled", "kernels.gram", "kernels.gram"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    # the two inner calls run inside the same layer and are not counted again
    assert tracer.counts["kernels.calls"] == 1
    assert tracer.counts["kernels.pair_evals"] == 3
    assert tracer.counts["engine.calls"] == 1


def test_tracer_closes_the_span_and_counts_the_error_when_a_call_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "engine.msvgd_step")()
    assert tracer.spans[0][2] is not None
    assert tracer.counts["engine.msvgd_step.errors"] == 1
    assert tracer._open == []


def test_loop_accounting_reports_uncovered_time():
    spans = [
        ["config.build_runtime", 100.0, 101.0, -1],
        ["engine.msvgd_step", 102.0, 104.0, -1],
        ["engine.update_field", 102.5, 103.5, 1],
        ["engine.msvgd_step", 105.0, 106.0, -1],
    ]
    metrics = layer_metrics(spans, {}, setup_s=2.0, wall_s=7.0, spawned=100.0)
    assert metrics["trace.loop_covered_s"] == pytest.approx(3.0)
    assert metrics["trace.loop_uncovered_s"] == pytest.approx(2.0)
    assert metrics["engine.update_field.self_s"] == pytest.approx(1.0)
    assert metrics["engine.msvgd_step.p50_ms"] == pytest.approx(1500.0)
    assert metrics["config.build_runtime.s"] == pytest.approx(1.0)


def test_percentile_interpolates_like_numpy_linear():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 99) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)
