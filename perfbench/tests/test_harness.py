"""Tests of the benchmark harness itself: the percentile rule, self-time
subtraction on nested spans, restoring every wrapped name, and the
calibrated clock.

    python3 -m pytest perfbench/tests -q
"""

import math
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from octainscribe import angles, inscriber, polytope  # noqa: E402


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (39, None), (40, 0.75), (99, 0.75), (100, 0.9), (999, 0.9), (1000, 0.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = run.tail_percentile(n)
    assert q == expected
    if q is not None:
        beyond = sum(1 for rank in range(1, n + 1) if rank > math.ceil(q * n))
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([3.0], 0.9) == 3.0


# -- self time -----------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children_once():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("c", 5.0, 7.0, 0),
        _span("e", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    # Self times of a tree add up to its root's duration.
    assert sum(tracing.self_times(spans)[:4]) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 6.0, 0), _span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_aggregate_counts_recursion_once_in_total():
    spans = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 3.0, 0), _span("g", 5.0, 6.0, -1)]
    by_name, pairs = tracing.aggregate(spans)
    assert by_name["f"]["calls"] == 2
    assert by_name["f"]["total_s"] == pytest.approx(4.0)
    assert by_name["f"]["self_s"] == pytest.approx(4.0)
    assert pairs[("f", "f")] == [1, 1]


def test_tracer_records_nested_calls_in_start_order():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * ns.inner(x)
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer", note=lambda r: r)
    assert ns.outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    assert ns.outer(2) == 9
    tracer.restore()
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.NOTE]) for s in tracer.spans]
    assert names == [("outer", -1, 9), ("inner", 0, None), ("inner", 0, None)]
    selfs = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[tracing.END] - root[tracing.START])


# -- restoring wrapped names ---------------------------------------------------


def test_restore_puts_back_every_original_even_after_an_error():
    names = workloads.traced_names()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in names]
    before = (inscriber.multistart, polytope.SmoothedBody.__init__, angles.placement_test)
    tracer = tracing.Tracer()
    for owner, attr, name, note in names:
        tracer.wrap(owner, attr, name, note)
    assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
    tracer.enabled = True
    try:
        angle = angles.SolidAngle((0, 0, 0), [[1, 0, 0.2], [0, 1, 0.2], [0.1, 0.1, 1]])
        angles.classify_trihedral(angle)
        with pytest.raises(polytope.Degenerate):
            polytope.SmoothedBody(polytope.cube(), 5.0)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert (inscriber.multistart, polytope.SmoothedBody.__init__, angles.placement_test) == before
    recorded = {s[tracing.NAME] for s in tracer.spans}
    assert {"angles.SolidAngle", "angles.classify_trihedral", "polytope.SmoothedBody"} <= recorded
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_wrapped_calls_give_identical_outputs():
    wl = workloads.WORKLOADS["classify"]
    inputs = wl.make_inputs(3)[:40]
    plain = [wl.digest(inp, wl.op(inp)) for inp in inputs]
    tracer = tracing.Tracer()
    for owner, attr, name, note in workloads.traced_names():
        tracer.wrap(owner, attr, name, note)
    tracer.enabled = True
    try:
        traced = [wl.digest(inp, wl.op(inp)) for inp in inputs]
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.spans


def test_inputs_repeat_for_a_seed():
    wl = workloads.WORKLOADS["inscribe_facets"]
    first, again, other = wl.make_inputs(5), wl.make_inputs(5), wl.make_inputs(6)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(first) != workloads.inputs_digest(other)
    assert [len(n) for n, _ in first] == list(workloads.FACET_COUNTS)
    assert all(np.allclose(np.linalg.norm(n, axis=1), 1.0) for n, _ in first)


# -- calibrated clock ----------------------------------------------------------


def test_clock_probes_during_the_region_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    clock = calibration.Clock()
    with pytest.raises(ZeroDivisionError):
        with clock.measure() as timing:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            1 / 0
    assert len(clock._samples) >= 2
    assert timing["wall_s"] >= 0.2
    assert timing["calibrated_s"] > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
