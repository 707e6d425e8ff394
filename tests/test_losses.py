"""Alignment losses and NLL: analytic values, oracles, gradient checks."""

import math

import numpy as np
import pytest

from sei.errors import ValidationError
from sei.losses import (
    AlignmentBatch,
    TokenPrediction,
    global_alignment_loss,
    global_alignment_loss_grad,
    local_alignment_loss,
    local_alignment_loss_grad,
    mean_pool,
    nll_loss,
    nll_loss_grad,
    total_alignment_loss,
    total_alignment_loss_grad,
)

from conftest import central_diff, rel_err


def naive_local_loss(batch):
    """Oracle: explicit double loop over studies and tokens, plain math."""
    img = batch.image_locals
    txt = batch.text_locals
    b, s_t, d = txt.shape
    tau = batch.temperature
    total = 0.0
    for i in range(b):
        for t in range(s_t):
            query = txt[i, t]
            logits = []
            for j in range(b):
                attn_scores = [float(img[j, s] @ query) / math.sqrt(d) for s in range(img.shape[1])]
                peak = max(attn_scores)
                exps = [math.exp(v - peak) for v in attn_scores]
                denom = sum(exps)
                weights = [e / denom for e in exps]
                context = sum(w * img[j, s] for s, w in enumerate(weights))
                cos = float(context @ query) / (
                    float(np.linalg.norm(context)) * float(np.linalg.norm(query))
                )
                logits.append(cos / tau)
            peak = max(logits)
            lse = peak + math.log(sum(math.exp(v - peak) for v in logits))
            total += lse - logits[i]
    return total / (b * s_t)


def random_batch(rng, b=3, d=6, s_i=4, s_t=3, tau=0.07):
    return AlignmentBatch(
        image_feats=rng.standard_normal((b, d)),
        text_feats=rng.standard_normal((b, d)),
        image_locals=rng.standard_normal((b, s_i, d)),
        text_locals=rng.standard_normal((b, s_t, d)),
        temperature=tau,
    )


class TestAnalyticValues:
    def test_batch_of_one_all_zero(self, rng):
        batch = random_batch(rng, b=1)
        assert global_alignment_loss(batch, "image_to_text") == 0.0
        assert global_alignment_loss(batch, "text_to_image") == 0.0
        assert local_alignment_loss(batch) == 0.0
        assert total_alignment_loss(batch) == 0.0

    def test_orthonormal_pair_closed_form(self):
        # 2x2 similarity matrix is the identity at tau=1, so each row's
        # softmax puts e/(e+1) on the diagonal
        feats = np.eye(2, 6)
        batch = AlignmentBatch(image_feats=feats, text_feats=feats.copy(), temperature=1.0)
        want = -math.log(math.e / (math.e + 1.0))
        assert global_alignment_loss(batch, "image_to_text") == pytest.approx(want, abs=1e-9)
        assert global_alignment_loss(batch, "text_to_image") == pytest.approx(want, abs=1e-9)

    def test_identical_locals_give_log2(self, rng):
        locals_ = rng.standard_normal((1, 4, 6))
        batch = AlignmentBatch(
            image_feats=rng.standard_normal((2, 6)),
            text_feats=rng.standard_normal((2, 6)),
            image_locals=np.concatenate([locals_, locals_]),
            text_locals=rng.standard_normal((2, 3, 6)),
        )
        assert local_alignment_loss(batch) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_total_is_sum_of_terms(self, rng):
        batch = random_batch(rng)
        parts = (
            global_alignment_loss(batch, "image_to_text")
            + global_alignment_loss(batch, "text_to_image")
            + local_alignment_loss(batch)
        )
        assert abs(total_alignment_loss(batch) - parts) < 1e-12


class TestOracleAndProperties:
    def test_local_matches_naive_double_loop(self, rng):
        for _ in range(25):
            batch = random_batch(
                rng,
                b=int(rng.integers(1, 5)),
                d=int(rng.integers(2, 8)),
                s_i=int(rng.integers(1, 5)),
                s_t=int(rng.integers(1, 5)),
                tau=float(rng.uniform(0.05, 1.0)),
            )
            assert local_alignment_loss(batch) == pytest.approx(naive_local_loss(batch), abs=1e-10)

    def test_joint_permutation_invariance(self, rng):
        for _ in range(10):
            batch = random_batch(rng, b=4)
            perm = rng.permutation(4)
            permuted = AlignmentBatch(
                image_feats=batch.image_feats[perm],
                text_feats=batch.text_feats[perm],
                image_locals=batch.image_locals[perm],
                text_locals=batch.text_locals[perm],
                temperature=batch.temperature,
            )
            for direction in ("image_to_text", "text_to_image"):
                assert abs(
                    global_alignment_loss(batch, direction)
                    - global_alignment_loss(permuted, direction)
                ) < 1e-10
            assert abs(local_alignment_loss(batch) - local_alignment_loss(permuted)) < 1e-10

    def test_scale_invariance_of_globals(self, rng):
        batch = random_batch(rng)
        for scale in (3.7, 0.004, 256.0):
            scaled = AlignmentBatch(
                image_feats=batch.image_feats * scale,
                text_feats=batch.text_feats,
                temperature=batch.temperature,
            )
            for direction in ("image_to_text", "text_to_image"):
                base = global_alignment_loss(
                    AlignmentBatch(
                        image_feats=batch.image_feats,
                        text_feats=batch.text_feats,
                        temperature=batch.temperature,
                    ),
                    direction,
                )
                assert global_alignment_loss(scaled, direction) == pytest.approx(base, rel=1e-12)

    def test_losses_nonnegative_finite(self, rng):
        for _ in range(30):
            batch = random_batch(rng, b=int(rng.integers(1, 5)))
            for value in (
                global_alignment_loss(batch, "image_to_text"),
                global_alignment_loss(batch, "text_to_image"),
                local_alignment_loss(batch),
                total_alignment_loss(batch),
            ):
                assert value >= 0.0
                assert math.isfinite(value)

    def test_zero_norm_row_named(self, rng):
        feats = rng.standard_normal((3, 4))
        feats[1] = 0.0
        with pytest.raises(ValidationError, match="row 1"):
            global_alignment_loss(
                AlignmentBatch(image_feats=feats, text_feats=rng.standard_normal((3, 4))),
                "image_to_text",
            )

    def test_bad_direction(self, rng):
        with pytest.raises(ValidationError, match="direction"):
            global_alignment_loss(random_batch(rng), "sideways")

    def test_locals_required(self, rng):
        batch = AlignmentBatch(
            image_feats=rng.standard_normal((2, 4)), text_feats=rng.standard_normal((2, 4))
        )
        with pytest.raises(ValidationError, match="locals"):
            local_alignment_loss(batch)

    def test_mean_pool(self, rng):
        locals_ = rng.standard_normal((3, 5, 4))
        assert np.allclose(mean_pool(locals_), locals_.mean(axis=1))


class TestGradients:
    def _fd_check(self, rng, batch, loss_fn, grads):
        worst = 0.0
        for name, grad in grads.items():
            array = getattr(batch, name)
            count = min(6, array.size)
            picks = rng.choice(array.size, size=count, replace=False)
            for flat in picks:
                # Richardson step on two central differences: one step of 1e-4 alone
                # is off by about 1e-3 relative where the loss curves sharply.
                wide, narrow = (central_diff(loss_fn, array, int(flat), h) for h in (1e-4, 5e-5))
                numeric = (4.0 * narrow - wide) / 3.0
                worst = max(worst, rel_err(float(grad.reshape(-1)[int(flat)]), numeric))
        return worst

    def test_global_gradients(self, rng):
        for direction in ("image_to_text", "text_to_image"):
            for _ in range(8):
                batch = random_batch(rng, b=int(rng.integers(2, 5)), d=int(rng.integers(2, 8)))
                _, grads = global_alignment_loss_grad(batch, direction)
                worst = self._fd_check(
                    rng, batch, lambda: global_alignment_loss(batch, direction), grads
                )
                assert worst < 1e-4

    def test_local_gradients(self, rng):
        for _ in range(8):
            batch = random_batch(rng, b=int(rng.integers(1, 4)), d=int(rng.integers(2, 8)))
            _, grads = local_alignment_loss_grad(batch)
            worst = self._fd_check(rng, batch, lambda: local_alignment_loss(batch), grads)
            assert worst < 1e-4

    def test_total_gradients(self, rng):
        for _ in range(6):
            batch = random_batch(rng, b=int(rng.integers(2, 5)))
            _, grads = total_alignment_loss_grad(batch)
            worst = self._fd_check(rng, batch, lambda: total_alignment_loss(batch), grads)
            assert worst < 1e-4


class TestNll:
    def test_perfect_prediction_zero_loss(self):
        probs = np.zeros((3, 5))
        refs = (1, 0, 4)
        for t, r in enumerate(refs):
            probs[t, r] = 1.0
        assert nll_loss([TokenPrediction(probs=probs, reference=refs)]) == 0.0

    def test_uniform_closed_form(self):
        probs = np.full((3, 4), 0.25)
        loss = nll_loss([TokenPrediction(probs=probs, reference=(0, 1, 2))])
        assert loss == pytest.approx(3 * math.log(4), abs=1e-12)

    def test_duplicating_batch_keeps_loss(self, rng):
        probs = rng.random((4, 6)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        pred = TokenPrediction(probs=probs, reference=(0, 2, 5, 1))
        single = nll_loss([pred])
        assert nll_loss([pred, pred]) == pytest.approx(single, abs=1e-12)

    def test_monotonic_in_reference_probability(self):
        low = np.array([[0.2, 0.8]])
        high = np.array([[0.6, 0.4]])
        loss_low = nll_loss([TokenPrediction(probs=low, reference=(0,))])
        loss_high = nll_loss([TokenPrediction(probs=high, reference=(0,))])
        assert loss_high < loss_low

    def test_row_not_stochastic(self):
        probs = np.array([[0.5, 0.6]])
        with pytest.raises(ValidationError, match="sums"):
            nll_loss([TokenPrediction(probs=probs, reference=(0,))])

    def test_reference_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            TokenPrediction(probs=np.full((1, 2), 0.5), reference=(2,))

    def test_clamp_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0]])
        loss = nll_loss([TokenPrediction(probs=probs, reference=(1,))])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_gradient_matches_fd(self, rng):
        for _ in range(8):
            m = int(rng.integers(1, 5))
            v = int(rng.integers(2, 7))
            probs = rng.random((m, v)) + 0.1
            probs /= probs.sum(axis=1, keepdims=True)
            refs = tuple(int(r) for r in rng.integers(0, v, size=m))
            pred = TokenPrediction(probs=probs, reference=refs)
            _, grads = nll_loss_grad([pred], validate=False)
            worst = 0.0
            for flat in range(probs.size):
                numeric = central_diff(lambda: nll_loss([pred], validate=False), pred.probs, flat)
                worst = max(worst, rel_err(float(grads[0].reshape(-1)[flat]), numeric))
            assert worst < 1e-4
