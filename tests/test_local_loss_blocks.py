"""The local alignment loss runs over blocks of tokens: block edges, a partial
last block, the zero-norm errors' token order, and the memory bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sei.errors import ValidationError
from sei.losses import AlignmentBatch, local_alignment_loss, local_alignment_loss_grad

from conftest import central_diff, rel_err
from test_losses import naive_local_loss

# (B, S_t) with B * S_t at 1, 63, 64, 65 and 130: one token, one short block,
# one full block, a full block plus one token, and two full blocks plus two.
TOKEN_SHAPES = [(1, 1), (3, 21), (1, 63), (2, 32), (4, 16), (5, 13), (1, 65), (2, 65), (10, 13)]
BLOCK_EDGE_TOKENS = (0, 62, 63, 64, 65, 127, 128, 129)


def make_batch(rng, b, s_t, s_i=3, d=5, tau=0.07):
    return AlignmentBatch(
        image_feats=rng.standard_normal((b, d)),
        text_feats=rng.standard_normal((b, d)),
        image_locals=rng.standard_normal((b, s_i, d)),
        text_locals=rng.standard_normal((b, s_t, d)),
        temperature=tau,
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(TOKEN_SHAPES),
    s_i=st.integers(1, 4),
    d=st.integers(2, 6),
    tau=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_loss_matches_oracle_and_central_differences(shape, s_i, d, tau, seed):
    rng = np.random.default_rng(seed)
    b, s_t = shape
    batch = make_batch(rng, b, s_t, s_i=s_i, d=d, tau=tau)
    loss, grads = local_alignment_loss_grad(batch)
    assert loss == pytest.approx(naive_local_loss(batch), abs=1e-10)
    assert local_alignment_loss(batch) == loss
    objective = lambda: local_alignment_loss(batch)  # noqa: E731
    # every token on a block edge, plus random image entries
    picks = {"text_locals": [], "image_locals": list(rng.choice(batch.image_locals.size, size=4))}
    for token in BLOCK_EDGE_TOKENS + (b * s_t - 1,):
        if token < b * s_t:
            picks["text_locals"].append(token * d + int(rng.integers(d)))
    for name, flats in picks.items():
        array = getattr(batch, name)
        for flat in flats:
            # Richardson step on two central differences: the loss can curve
            # sharply at d=2, where one step of 1e-4 leaves a 1e-3 relative error.
            wide, narrow = (central_diff(objective, array, int(flat), h) for h in (1e-4, 5e-5))
            numeric = (4.0 * narrow - wide) / 3.0
            assert rel_err(float(grads[name].reshape(-1)[int(flat)]), numeric) < 1e-4, (name, flat)


def batch_with_zeros(rng, b, s_t, zero_context_at=None, zero_token_at=None, d=5):
    """Study 1's patches are e_0 and -e_0, so its attention context is exactly
    zero for any token whose first entry is 0; every other token sees a nonzero one."""
    batch = make_batch(rng, b, s_t, s_i=2, d=d)
    img, txt = batch.image_locals, batch.text_locals
    img[1] = 0.0
    img[1, 0, 0], img[1, 1, 0] = 1.0, -1.0
    if zero_context_at is not None:
        txt[zero_context_at][0] = 0.0
    if zero_token_at is not None:
        txt[zero_token_at] = 0.0
    return batch


ZERO_CASES = [
    # (zero context at, zero token at, expected message); B=2, S_t=40 gives
    # flat tokens 0..63 in the first block and 64..79 in the second.
    pytest.param((0, 5), None, "attention context for study 1 has zero norm (token (0, 5))", id="context"),
    pytest.param((1, 30), None, "attention context for study 1 has zero norm (token (1, 30))",
                 id="context-second-block"),
    pytest.param(None, (0, 7), "text_locals token (0, 7) has zero norm", id="token"),
    pytest.param(None, (1, 39), "text_locals token (1, 39) has zero norm", id="token-last"),
    # a zero token also zeroes its context: the token check fires first
    pytest.param((1, 30), (1, 30), "text_locals token (1, 30) has zero norm", id="same-token"),
    pytest.param((0, 5), (0, 20), "attention context for study 1 has zero norm (token (0, 5))",
                 id="context-before-token-same-block"),
    pytest.param((0, 5), (1, 30), "attention context for study 1 has zero norm (token (0, 5))",
                 id="context-before-token-later-block"),
    pytest.param((1, 26), (1, 30), "attention context for study 1 has zero norm (token (1, 26))",
                 id="context-before-token-second-block"),
    pytest.param((1, 30), (0, 5), "text_locals token (0, 5) has zero norm", id="token-before-context"),
]


@pytest.mark.parametrize("zero_context_at, zero_token_at, message", ZERO_CASES)
@pytest.mark.parametrize("fn", [local_alignment_loss, local_alignment_loss_grad], ids=["loss", "grad"])
def test_first_zero_norm_in_row_major_order_is_named(rng, fn, zero_context_at, zero_token_at, message):
    batch = batch_with_zeros(rng, 2, 40, zero_context_at, zero_token_at)
    with pytest.raises(ValidationError) as err:
        fn(batch)
    assert str(err.value) == message


def test_gradient_peak_memory_is_bounded(rng):
    # An unblocked (B*S_t, B, d) context tensor alone would take about 420 MB here.
    batch = make_batch(rng, 32, 100, s_i=49, d=512)
    tracemalloc.start()
    try:
        local_alignment_loss_grad(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
