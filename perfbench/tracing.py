"""Span recording and the arithmetic that turns spans into per-layer metrics.

A span is a list ``[name, start, end, parent]``: the span name, two
``time.monotonic`` readings and the index of the enclosing span (-1 at the
top).  The program runs every layer on one Python thread (numpy's BLAS
threads sit below any span), so spans nest strictly: the children of a span
are disjoint and lie inside it.  The self-time arithmetic relies on that.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


def family(name: str) -> str:
    """The layer a span belongs to: the part of its name before the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """Keeps spans and counts in memory while the traced program runs."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name: str, work=None):
        """Return ``fn`` recording one span per call.

        A call whose enclosing span belongs to another layer (or to none) is
        the outermost call of its layer: it adds one to ``<layer>.calls`` and,
        when ``work`` is given, adds the counts ``work(args, result)`` returns.
        Nested calls within one layer (a rescaled kernel calling its inner
        kernel) are therefore counted once.
        """
        layer = family(name)
        spans, counts, open_spans, clock = self.spans, self.counts, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            outermost = parent < 0 or family(spans[parent][0]) != layer
            span = [name, clock(), None, parent]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                open_spans.pop()
            if outermost:
                counts[layer + ".calls"] += 1
                if work is not None:
                    counts.update(work(args, result))
            return result

        return traced


def self_times(spans, window=None) -> list[float]:
    """Self time of every span: its time inside ``window`` minus the part of
    that time its direct children cover.  ``window`` is ``(lo, hi)`` or None
    for the whole run."""
    lo, hi = window if window is not None else (float("-inf"), float("inf"))

    def clipped(span) -> float:
        return max(0.0, min(span[2], hi) - max(span[1], lo))

    out = [clipped(span) for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= clipped(span)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, self seconds, and inclusive seconds.

    The inclusive time counts only spans with no ancestor of the same name,
    so a recursive call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            entry["total_s"] += span[2] - span[1]
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), interpolating linearly; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def loop_accounting(spans, window) -> dict:
    """Self time inside ``window`` per layer, largest first."""
    totals: Counter = Counter()
    for span, seconds in zip(spans, self_times(spans, window)):
        totals[family(span[0])] += seconds
    return dict(totals.most_common())


def layer_total(spans, layer: str) -> float:
    """Seconds spent inside a layer: the durations of its outermost spans."""
    return sum(span[2] - span[1] for span in spans
               if family(span[0]) == layer
               and (span[3] < 0 or family(spans[span[3]][0]) != layer))


FIELD_EVAL_SPANS = ("gridflow.FieldOnGrid.call", "gridflow.FieldOnGrid.jacobian")
# counts that must repeat exactly between traced runs of one input
EXACT_COUNTS = ("kernels.pair_evals", "gridflow.g_field.calls",
                "gridflow.flow_builds", "gridflow.field_evals")


def layer_metrics(spans, counts, setup_s: float, wall_s: float, spawned: float) -> dict:
    """Per-layer metrics of one traced run.

    ``spawned`` is the monotonic time the child was started, ``setup_s`` and
    ``wall_s`` its first main-loop step and its exit relative to that.  The
    ``trace.loop_*`` values account for ``wall_s - setup_s``: the self time
    of every span inside the main-loop window, and the remainder that no
    span covers.
    """
    by_name = summarize(spans)

    def get(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0)

    steps = [1000.0 * (span[2] - span[1]) for span in spans if span[0] == "engine.msvgd_step"]
    pushforwards = get("gridflow.pushforward_step", "calls")
    loop = (spawned + setup_s, spawned + wall_s)
    loop_covered = sum(self_times(spans, loop))
    metrics = {
        "kernels.gram.self_s": get("kernels.gram", "self_s"),
        "kernels.grad1_gram.self_s": get("kernels.grad1_gram", "self_s"),
        "kernels.grad12_gram.self_s": get("kernels.grad12_gram", "self_s"),
        "kernels.calls": counts.get("kernels.calls", 0),
        "kernels.pair_evals": counts.get("kernels.pair_evals", 0),
        "kernels.bytes_out": counts.get("kernels.bytes_out", 0),
        "engine.update_field.self_s": get("engine.update_field", "self_s"),
        "engine.update_field.calls": get("engine.update_field", "calls"),
        "engine.msvgd_step.p50_ms": percentile(steps, 50),
        "engine.msvgd_step.p99_ms": percentile(steps, 99),
        "engine.aborts": counts.get("engine.msvgd_step.errors", 0),
        "theory.stein_fisher_particles.self_s": get("theory.stein_fisher_particles", "self_s"),
        "theory.stein_fisher_particles.calls": get("theory.stein_fisher_particles", "calls"),
        "theory.a_n.self_s": get("theory.a_n", "self_s"),
        "theory.c_pi_p.s": get("theory.c_pi_p", "total_s"),
        "theory.kl0_upper_bound.s": get("theory.kl0_upper_bound", "total_s"),
        "mirrors.grad_psi_star.self_s": get("mirrors.grad_psi_star", "self_s"),
        "mirrors.hess_psi_inv.self_s": get("mirrors.hess_psi_inv", "self_s"),
        "mirrors.div_hess_psi_inv.self_s": get("mirrors.div_hess_psi_inv", "self_s"),
        "mirrors.calls": counts.get("mirrors.calls", 0),
        "targets.grad_log_density.self_s": get("targets.grad_log_density", "self_s"),
        "targets.potential.self_s": get("targets.potential", "self_s"),
        "targets.grad_potential.self_s": get("targets.grad_potential", "self_s"),
        "targets.calls": counts.get("targets.calls", 0),
        "gridflow.flow_builds": get("gridflow.MirroredFlow.init", "calls"),
        "gridflow.MirroredFlow.init.s": get("gridflow.MirroredFlow.init", "total_s"),
        "gridflow.g_field.calls": get("gridflow.g_field", "calls"),
        "gridflow.g_field.self_s": get("gridflow.g_field", "self_s"),
        "gridflow.g_field_per_step": (get("gridflow.g_field", "calls") / pushforwards
                                      if pushforwards else 0.0),
        "gridflow.pushforward_step.self_s": get("gridflow.pushforward_step", "self_s"),
        "gridflow.field_evals": sum(get(name, "calls") for name in FIELD_EVAL_SPANS),
        "gridflow.descent_check.s": get("gridflow.descent_check", "total_s"),
        "gridflow.kl.self_s": get("gridflow.kl", "self_s"),
        "gridflow.stein_fisher.self_s": get("gridflow.stein_fisher", "self_s"),
        "config.build_runtime.s": get("config.build_runtime", "total_s"),
        "io.write_s": layer_total(spans, "io"),
        "trace.wall_s": wall_s,
        "trace.setup_s": setup_s,
        "trace.loop_covered_s": loop_covered,
        "trace.loop_uncovered_s": (wall_s - setup_s) - loop_covered,
    }
    return metrics
