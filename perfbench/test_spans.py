"""Span bookkeeping: self time, outermost totals, and wrapping by lookup name."""

import sys
import types

import pytest

import spans


def test_self_time_on_hand_built_tree():
    tree = [
        ["A", 0.0, 10.0, None],
        ["B", 1.0, 4.0, 0],
        ["C", 2.0, 3.0, 1],
        ["B", 5.0, 7.0, 0],
        ["A", 8.0, 9.0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])
    totals = spans.layer_totals(tree)
    assert totals["A.s"] == pytest.approx(10.0)  # the nested A is inside the outer one
    assert totals["A.self_s"] == pytest.approx(5.0)
    assert totals["B.s"] == pytest.approx(5.0)
    assert totals["B.self_s"] == pytest.approx(4.0)
    assert totals["C.s"] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    tree = [["P", 0.0, 10.0, None], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_tracer_wraps_lookup_names_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(items):
        return list(items)

    def outer(items):
        return mod.inner(items) + mod.inner(items)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.install(
        {
            "layer.outer": (("fake_layer:outer",), None),
            "layer.inner": (("fake_layer:inner", "fake_layer:missing"), lambda r: {"records_out": len(r)}),
        }
    )
    assert mod.outer([1, 2]) == [1, 2, 1, 2]
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    metrics = spans.layer_metrics(tracer)
    assert metrics["layer.inner.calls"] == 2
    assert metrics["layer.inner.records_out"] == 4
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert metrics["layer.outer.self_s"] == pytest.approx(3.0)
    assert metrics["layer.inner.s"] == pytest.approx(2.0)


def test_known_metric():
    assert spans.known_metric("retrieval.top_k.calls")
    assert spans.known_metric("trace.overhead_frac")
    assert not spans.known_metric("retrieval.top_kk.calls")
