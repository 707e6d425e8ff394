"""Fusion's helper thread: every bit as on one thread, and no thread outlives a call."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sei import fusion
from sei.errors import ValidationError
from sei.fusion import FeatureSet, decoder_layer, fuse, fuse_backward, fusion_objective, init_params
from sei.pipeline import load_config, run_pipeline

from conftest import write_pipeline_fixture

# Which optional inputs each branch has: (shc, indication).
BRANCH_INPUTS = {
    "full": (True, True), "no_indication": (True, False), "no_shc": (False, True), "image_only": (False, False)
}


class BusyHelper(fusion.Helper):
    """A threaded helper held on a blocker task for its whole life, so the caller takes every task back."""

    made: list["BusyHelper"] = []

    def __init__(self, threaded: bool):
        assert threaded, "the test forces a threaded helper"
        super().__init__(threaded)
        self.submitted = 0
        BusyHelper.made.append(self)

    def __enter__(self):
        super().__enter__()
        self._release = threading.Event()
        started = threading.Event()

        def hold():
            started.set()
            self._release.wait(timeout=60)

        super().submit(hold)
        assert started.wait(timeout=60)
        return self

    def __exit__(self, *exc_info):
        self._release.set()
        super().__exit__(*exc_info)

    def submit(self, fn, *args):
        self.submitted += 1
        return super().submit(fn, *args)


def force(monkeypatch, mode: str) -> None:
    """Run fusion calls inline, on a helper thread, or on a helper thread held busy."""
    if mode == "inline":
        monkeypatch.setattr(fusion, "usable_cpus", lambda: 1)
        return
    monkeypatch.setattr(fusion, "usable_cpus", lambda: 2)
    monkeypatch.setattr(fusion, "_HELPER_MIN_WORK", 0)
    if mode == "busy":
        monkeypatch.setattr(fusion, "Helper", BusyHelper)


def fusion_bytes(features, params, upstream) -> list[bytes]:
    """The fused output and every gradient of one ``fuse`` and one ``fuse_backward``, as bytes."""
    out = fuse(features, params)
    grads = fuse_backward(features, params, upstream)
    arrays = [out.fused, grads.image, grads.shc, grads.indication]
    arrays += [a for layer in grads.layers().values() for a in layer.arrays().values()]
    return [out.branch_taken.encode()] + [b"None" if a is None else a.tobytes() for a in arrays]


@settings(max_examples=40, deadline=None)
@given(
    branch=st.sampled_from(sorted(BRANCH_INPUTS)),
    heads=st.integers(1, 3),
    head_width=st.integers(1, 4),
    rows=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    seed=st.integers(0, 2**16),
)
def test_helper_inline_and_take_back_are_bit_identical(branch, heads, head_width, rows, seed):
    """With the helper, inline and with every task taken back, the output and all gradients are the same bytes."""
    d = heads * head_width
    rng = np.random.default_rng(seed)
    with_shc, with_indication = BRANCH_INPUTS[branch]
    features = FeatureSet(
        image=rng.standard_normal((rows[0], d)),
        shc=rng.standard_normal((rows[1], d)) if with_shc else None,
        indication=rng.standard_normal((rows[2], d)) if with_indication else None,
    )
    params = init_params(d, heads, seed)
    upstream = rng.standard_normal((rows[0], d))
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race on a shared array would show
    try:
        for mode in ("inline", "helper", "busy"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                force(monkeypatch, mode)
                BusyHelper.made.clear()
                results[mode] = fusion_bytes(features, params, upstream)
                if mode == "busy":
                    assert len(BusyHelper.made) == 2
                    assert all(h.taken_back == h.submitted > 0 for h in BusyHelper.made)
    finally:
        sys.setswitchinterval(interval)
    assert results["inline"][0] == branch.encode()
    assert results["helper"] == results["inline"]
    assert results["busy"] == results["inline"]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 9),
    width=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 4.0, 30.0]),
    split=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_gelu_tanh_in_place_matches_the_expression_at_any_row_split(rows, width, scale, split, seed):
    x = scale * np.random.default_rng(seed).standard_normal((rows, width))
    want = np.tanh(fusion._GELU_A * (x + fusion._GELU_B * x**3))
    got = np.empty_like(x)
    split = min(split, rows)
    fusion._gelu_tanh(x[:split], got[:split])
    fusion._gelu_tanh(x[split:], got[split:])
    assert got.tobytes() == want.tobytes()


def features_and_params(d=16, heads=4, seed=5):
    rng = np.random.default_rng(seed)
    features = FeatureSet(
        image=rng.standard_normal((6, d)), shc=rng.standard_normal((9, d)), indication=rng.standard_normal((4, d))
    )
    return features, init_params(d, heads, seed), rng.standard_normal((6, d))


def test_helper_error_reaches_the_caller_unchanged():
    boom = FloatingPointError("overflow in a helper task")
    started = threading.Event()

    def fail():
        started.set()
        raise boom

    with fusion.Helper(threaded=True) as helper:
        task = helper.submit(fail)
        assert started.wait(timeout=60)  # the helper, not the caller, runs it
    # Leaving the block joins the helper, so the task has finished before its result is asked for.
    with pytest.raises(FloatingPointError) as excinfo:
        helper.result(task)
    assert excinfo.value is boom
    assert str(excinfo.value) == "overflow in a helper task"
    assert helper.taken_back == 0


def test_no_fusion_call_leaves_a_thread_and_sei_run_still_forks(monkeypatch, tmp_path):
    force(monkeypatch, "helper")
    features, params, upstream = features_and_params()
    before = threading.active_count()

    fuse(features, params)
    fuse_backward(features, params, upstream)
    fusion_objective(features, params, upstream)
    decoder_layer(features.image, features.shc, params.img_enrich, params.n_heads)
    wrong = upstream[:, :-1]
    message = f"upstream gradient shape {wrong.shape} does not match output {upstream.shape}"
    with pytest.raises(ValidationError) as excinfo:
        fuse_backward(features, params, wrong)
    assert str(excinfo.value) == message
    with pytest.raises(ValidationError) as excinfo:
        fusion_objective(features, params, wrong)
    assert str(excinfo.value) == message
    bad = init_params(params.d, params.n_heads, params.seed)
    bad.integrate.ff1[1, 2] = np.nan
    for call in (lambda: fuse(features, bad), lambda: fuse_backward(features, bad, upstream)):
        with pytest.raises(ValidationError, match="layer weight ff1"):
            call()
    boom = FloatingPointError("overflow in a weight product")

    def failing_matmuls(products):
        raise boom

    with monkeypatch.context() as inner:
        inner.setattr(fusion, "_matmuls", failing_matmuls)
        with pytest.raises(FloatingPointError) as excinfo:
            fuse_backward(features, params, upstream)
    assert excinfo.value is boom and str(excinfo.value) == "overflow in a weight product"
    assert threading.active_count() == before

    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    paths = write_pipeline_fixture(tmp_path, n=20, d=16)
    monkeypatch.setattr(os, "fork", counting_fork)
    run_pipeline(replace(load_config(paths["config"]), k=2))
    assert len(forks) == 2  # the embeddings parse and the scoring


def test_a_thread_that_cannot_start_leaves_the_call_inline(monkeypatch):
    features, params, upstream = features_and_params()
    with pytest.MonkeyPatch.context() as inline:
        force(inline, "inline")
        want = fusion_bytes(features, params, upstream)
    force(monkeypatch, "helper")

    def cannot_start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    assert fusion_bytes(features, params, upstream) == want


@pytest.mark.parametrize(
    "d, rows, cpus, threaded",
    [
        (32, 16 + 20 + 8, 2, False),
        (8, 4 + 6 + 3, 2, False),
        (64, 49 + 100 + 20, 2, False),
        (256, 49 + 100 + 20, 2, True),
        (256, 49 + 100, 2, True),
        (256, 49 + 100 + 20, 1, False),
    ],
    ids=["pipeline-10k-fuse-demo", "default-fuse-demo", "d64", "train-step-full", "train-step-no-indication", "one-cpu"],
)
def test_crossover(monkeypatch, d, rows, cpus, threaded):
    """Small networks, and any network on a process that may use one CPU, run inline."""
    monkeypatch.setattr(fusion, "usable_cpus", lambda: cpus)
    assert fusion._helper(d, np.empty((rows, d))).threaded is threaded
