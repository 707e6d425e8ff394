"""Fusion network: layer math against a scalar oracle, branches, gradients."""

import math

import numpy as np
import pytest

from sei.errors import ValidationError
from sei.fusion import (
    FeatureSet,
    FusionParams,
    LayerParams,
    decoder_layer,
    fuse,
    fuse_backward,
    fusion_objective,
    init_params,
)

from conftest import central_diff, rel_err


def scalar_decoder_trace(queries, memory, weights, d):
    """Independent step-by-step scalar computation of one decoder layer.

    Pure Python floats and explicit loops; single head.  ``weights`` is a
    dict of nested lists mirroring LayerParams.
    """

    def layer_norm(rows, gain, bias):
        out = []
        for row in rows:
            mu = sum(row) / d
            var = sum((v - mu) ** 2 for v in row) / d
            inv = 1.0 / math.sqrt(var + 1e-5)
            out.append([gain[j] * (row[j] - mu) * inv + bias[j] for j in range(d)])
        return out

    def matmul(rows, w):
        cols = len(w[0])
        return [
            [sum(row[i] * w[i][j] for i in range(len(row))) for j in range(cols)] for row in rows
        ]

    def attention(xq, mem, wq, wk, wv, wo):
        q = matmul(xq, wq)
        k = matmul(mem, wk)
        v = matmul(mem, wv)
        scale = 1.0 / math.sqrt(d)  # one head: head width equals d
        ctx_rows = []
        for q_row in q:
            scores = [sum(q_row[t] * k_row[t] for t in range(d)) * scale for k_row in k]
            peak = max(scores)
            exps = [math.exp(s - peak) for s in scores]
            total = sum(exps)
            probs = [e / total for e in exps]
            ctx_rows.append(
                [sum(probs[s] * v[s][t] for s in range(len(v))) for t in range(d)]
            )
        return matmul(ctx_rows, wo)

    def gelu(value):
        a = math.sqrt(2.0 / math.pi)
        inner = a * (value + 0.044715 * value**3)
        return 0.5 * value * (1.0 + math.tanh(inner))

    def add(a, b):
        return [[a[i][j] + b[i][j] for j in range(len(a[0]))] for i in range(len(a))]

    n1 = layer_norm(queries, weights["ln1_gain"], weights["ln1_bias"])
    sa = attention(n1, n1, weights["self_q"], weights["self_k"], weights["self_v"], weights["self_o"])
    x1 = add(queries, sa)
    n2 = layer_norm(x1, weights["ln2_gain"], weights["ln2_bias"])
    ca = attention(
        n2, memory, weights["cross_q"], weights["cross_k"], weights["cross_v"], weights["cross_o"]
    )
    x2 = add(x1, ca)
    n3 = layer_norm(x2, weights["ln3_gain"], weights["ln3_bias"])
    pre = matmul(n3, weights["ff1"])
    act = [[gelu(v) for v in row] for row in pre]
    return add(x2, matmul(act, weights["ff2"]))


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(8, 2, 7)
        b = init_params(8, 2, 7)
        for name, layer in a.layers().items():
            for key, arr in layer.arrays().items():
                assert np.array_equal(arr, b.layers()[name].arrays()[key])

    def test_shapes(self):
        params = init_params(8, 2, 0)
        for layer in params.layers().values():
            arrays = layer.arrays()
            for key in ("self_q", "self_k", "self_v", "self_o", "cross_q", "cross_k", "cross_v", "cross_o"):
                assert arrays[key].shape == (8, 8)
            assert arrays["ff1"].shape == (8, 32)
            assert arrays["ff2"].shape == (32, 8)
            for key in ("ln1_gain", "ln2_gain", "ln3_gain"):
                assert np.array_equal(arrays[key], np.ones(8))
            for key in ("ln1_bias", "ln2_bias", "ln3_bias"):
                assert np.array_equal(arrays[key], np.zeros(8))

    def test_different_seeds_differ(self):
        a = init_params(4, 1, 1)
        b = init_params(4, 1, 2)
        assert not np.array_equal(a.integrate.self_q, b.integrate.self_q)

    def test_heads_must_divide(self):
        with pytest.raises(ValidationError, match="divide"):
            init_params(8, 3, 0)


class TestDecoderLayer:
    def test_single_key_softmax(self, rng):
        params = init_params(4, 1, 5)
        x = rng.standard_normal((1, 4))
        out, probs = decoder_layer(x, x, params.integrate, 1, return_probs=True)
        assert probs["self"].shape == (1, 1, 1)
        assert probs["self"][0, 0, 0] == pytest.approx(1.0)
        assert probs["cross"][0, 0, 0] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))

    def test_matches_scalar_trace(self, rng):
        d = 2
        weights = {
            "self_q": [[0.3, -0.1], [0.2, 0.4]],
            "self_k": [[0.1, 0.2], [-0.3, 0.5]],
            "self_v": [[0.4, 0.1], [0.0, -0.2]],
            "self_o": [[0.2, 0.3], [0.1, -0.4]],
            "cross_q": [[-0.2, 0.1], [0.3, 0.2]],
            "cross_k": [[0.5, -0.1], [0.2, 0.1]],
            "cross_v": [[0.1, 0.4], [-0.2, 0.3]],
            "cross_o": [[0.3, 0.0], [0.2, 0.1]],
            "ff1": [[0.1, -0.2, 0.3, 0.05, -0.1, 0.2, 0.15, -0.05],
                    [0.2, 0.1, -0.3, 0.25, 0.05, -0.15, 0.1, 0.3]],
            "ff2": [[0.1, -0.1], [0.2, 0.05], [-0.15, 0.3], [0.05, 0.1],
                    [0.3, -0.2], [0.1, 0.1], [-0.05, 0.2], [0.2, -0.1]],
            "ln1_gain": [1.1, 0.9],
            "ln1_bias": [0.05, -0.05],
            "ln2_gain": [0.95, 1.05],
            "ln2_bias": [0.0, 0.1],
            "ln3_gain": [1.0, 1.0],
            "ln3_bias": [-0.1, 0.0],
        }
        layer = LayerParams(**{k: np.asarray(v, dtype=np.float64) for k, v in weights.items()})
        queries = [[0.5, -0.3], [0.1, 0.8]]
        memory = [[-0.4, 0.2], [0.6, 0.1]]
        got = decoder_layer(np.asarray(queries), np.asarray(memory), layer, 1)
        want = scalar_decoder_trace(queries, memory, weights, d)
        assert np.allclose(got, np.asarray(want), atol=1e-6)

    def test_attention_rows_sum_to_one(self, rng):
        for _ in range(20):
            d = int(rng.choice([4, 8]))
            heads = int(rng.choice([1, 2, 4]))
            params = init_params(d, heads, int(rng.integers(0, 1000)))
            q = rng.standard_normal((int(rng.integers(1, 6)), d))
            m = rng.standard_normal((int(rng.integers(1, 6)), d))
            _, probs = decoder_layer(q, m, params.img_enrich, heads, return_probs=True)
            for tensor in probs.values():
                assert np.allclose(tensor.sum(axis=-1), 1.0, atol=1e-6)

    def test_shape_mismatch(self, rng):
        params = init_params(4, 1, 0)
        with pytest.raises(ValidationError, match="width"):
            decoder_layer(rng.standard_normal((2, 4)), rng.standard_normal((2, 6)), params.integrate, 1)

    def test_non_finite_rejected(self, rng):
        params = init_params(4, 1, 0)
        bad = rng.standard_normal((2, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            decoder_layer(bad, rng.standard_normal((2, 4)), params.integrate, 1)


class TestFuseBranches:
    def _features(self, rng, d=8, shc=True, indication=True):
        return FeatureSet(
            image=rng.standard_normal((4, d)),
            shc=rng.standard_normal((6, d)) if shc else None,
            indication=rng.standard_normal((3, d)) if indication else None,
        )

    def test_branch_table(self, rng):
        params = init_params(8, 2, 3)
        cases = {
            (True, True): "full",
            (True, False): "no_indication",
            (False, True): "no_shc",
            (False, False): "image_only",
        }
        for (with_shc, with_ind), branch in cases.items():
            out = fuse(self._features(rng, shc=with_shc, indication=with_ind), params)
            assert out.branch_taken == branch
            assert out.fused.shape == (4, 8)
            assert np.all(np.isfinite(out.fused))

    @pytest.mark.parametrize("branch", ["full", "no_indication", "no_shc", "image_only"])
    def test_no_indication_equals_substitution(self, rng, branch):
        """Each branch equals the module docstring's diagram, written as explicit layer calls."""
        params = init_params(8, 2, 11)
        features = self._features(
            rng, shc=branch in ("full", "no_indication"), indication=branch in ("full", "no_shc")
        )
        out = fuse(features, params)

        def layer(name, queries, memory):
            return decoder_layer(queries, memory, getattr(params, name), 2)

        image, shc, ind = features.image, features.shc, features.indication
        if branch == "full":
            expected = layer("integrate", layer("img_enrich", image, shc), layer("ind_enrich", ind, shc))
        elif branch == "no_indication":
            enriched = layer("img_enrich", image, shc)
            expected = layer("integrate", enriched, enriched)
        elif branch == "no_shc":
            expected = layer("integrate", image, ind)
        else:
            expected = layer("integrate", image, image)
        assert out.branch_taken == branch
        assert np.array_equal(out.fused, expected)

    def test_shc_permutation_invariance(self, rng):
        params = init_params(8, 2, 9)
        features = self._features(rng)
        base = fuse(features, params).fused
        for _ in range(5):
            perm = rng.permutation(features.shc.shape[0])
            shuffled = FeatureSet(
                image=features.image, shc=features.shc[perm], indication=features.indication
            )
            assert np.allclose(fuse(shuffled, params).fused, base, atol=1e-10)

    def test_image_required(self):
        with pytest.raises(ValidationError):
            FeatureSet(image=None)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValidationError, match="width"):
            FeatureSet(image=rng.standard_normal((2, 4)), shc=rng.standard_normal((2, 6)))


class TestFuseBackward:
    def _check_instance(self, rng, with_shc, with_ind):
        d = int(rng.choice([2, 4, 8]))
        heads = int(rng.choice([1, 2]))
        if d % heads:
            heads = 1
        params = init_params(d, heads, int(rng.integers(0, 10_000)))
        features = FeatureSet(
            image=rng.standard_normal((int(rng.integers(1, 5)), d)),
            shc=rng.standard_normal((int(rng.integers(1, 5)), d)) if with_shc else None,
            indication=rng.standard_normal((int(rng.integers(1, 5)), d)) if with_ind else None,
        )
        out = fuse(features, params)
        upstream = rng.standard_normal(out.fused.shape)
        grads = fuse_backward(features, params, upstream)
        worst = 0.0
        # eps=1e-5 keeps finite-difference truncation error small even where
        # tiny layer-norm variances (possible at d=2) blow up the curvature
        eps = 1e-5
        for layer_name, layer in params.layers().items():
            grad_layer = grads.layers()[layer_name]
            for array_name, array in layer.arrays().items():
                count = min(3, array.size)
                picks = rng.choice(array.size, size=count, replace=False)
                for flat in picks:
                    numeric = central_diff(
                        lambda: fusion_objective(features, params, upstream), array, int(flat), eps=eps
                    )
                    analytic = float(grad_layer.arrays()[array_name].reshape(-1)[int(flat)])
                    worst = max(worst, rel_err(analytic, numeric))
        for name in ("image", "shc", "indication"):
            feat = getattr(features, name)
            grad = getattr(grads, name)
            if feat is None:
                assert grad is None
                continue
            for flat in range(feat.size):
                numeric = central_diff(
                    lambda: fusion_objective(features, params, upstream), feat, flat, eps=eps
                )
                worst = max(worst, rel_err(float(grad.reshape(-1)[flat]), numeric))
        return worst

    def test_gradients_match_finite_differences(self, rng):
        combos = [(True, True), (True, False), (False, True), (False, False)]
        for i in range(12):
            worst = self._check_instance(rng, *combos[i % 4])
            assert worst < 1e-4

    def test_zero_upstream_zero_gradients(self, rng):
        params = init_params(4, 2, 1)
        features = FeatureSet(
            image=rng.standard_normal((3, 4)),
            shc=rng.standard_normal((2, 4)),
            indication=rng.standard_normal((2, 4)),
        )
        grads = fuse_backward(features, params, np.zeros((3, 4)))
        for layer in grads.layers().values():
            for arr in layer.arrays().values():
                assert np.all(arr == 0.0)
        assert np.all(grads.image == 0.0)
        assert np.all(grads.shc == 0.0)
        assert np.all(grads.indication == 0.0)

    def test_unused_layer_gradients_exactly_zero(self, rng):
        params = init_params(4, 2, 2)
        features = FeatureSet(image=rng.standard_normal((3, 4)), shc=rng.standard_normal((2, 4)))
        grads = fuse_backward(features, params, rng.standard_normal((3, 4)))
        for arr in grads.ind_enrich.arrays().values():
            assert np.all(arr == 0.0)
        # image-only run touches only the integration layer
        features2 = FeatureSet(image=rng.standard_normal((2, 4)))
        grads2 = fuse_backward(features2, params, rng.standard_normal((2, 4)))
        for layer_name in ("img_enrich", "ind_enrich"):
            for arr in grads2.layers()[layer_name].arrays().values():
                assert np.all(arr == 0.0)

    def test_upstream_shape_checked(self, rng):
        params = init_params(4, 2, 3)
        features = FeatureSet(image=rng.standard_normal((3, 4)))
        with pytest.raises(ValidationError, match="upstream"):
            fuse_backward(features, params, np.zeros((2, 4)))
