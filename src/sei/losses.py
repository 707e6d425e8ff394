"""Contrastive alignment objectives and the generation NLL, with gradients.

Global terms: temperature-scaled softmax contrastive losses over the cosine
similarity matrix between pooled image and text features, one per direction.
Local term: each text token attends over its study's image patches to build
a context vector per candidate study; the token must identify its own study
among the batch by cosine similarity of token and context (a GLoRIA-style
token-to-region contrast).  Tokens are taken in row-major (study, position)
order in blocks of a fixed number of tokens; each block's attention logits
(B, block, S_i) and contexts (B, block, d) come from batched matmuls against
every study's patches, so peak memory depends on the block, not on B * S_t.
The zero-norm errors name the first offending token in row-major order.

Every operation has an analytic-gradient twin so the whole module can be
checked against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_finite_array

__all__ = [
    "AlignmentBatch",
    "TokenPrediction",
    "DIRECTIONS",
    "global_alignment_loss",
    "global_alignment_loss_grad",
    "local_alignment_loss",
    "local_alignment_loss_grad",
    "total_alignment_loss",
    "total_alignment_loss_grad",
    "nll_loss",
    "nll_loss_grad",
]

DIRECTIONS = ("image_to_text", "text_to_image")
PROB_FLOOR = 1e-12
# Tokens per block of the local loss: bounds its (B, block, S_i) and (B, block, d)
# temporaries, so memory does not grow with B * S_t.
_TOKEN_BLOCK = 64


@dataclass(frozen=True)
class AlignmentBatch:
    """One alignment batch: pooled features, optional locals, temperature."""

    image_feats: np.ndarray  # (B, d)
    text_feats: np.ndarray  # (B, d)
    image_locals: np.ndarray | None = None  # (B, S_i, d)
    text_locals: np.ndarray | None = None  # (B, S_t, d)
    temperature: float = 0.07

    def __post_init__(self):
        img = as_finite_array(self.image_feats, "image_feats", 2)
        txt = as_finite_array(self.text_feats, "text_feats", 2)
        if img.shape != txt.shape:
            raise ValidationError(
                f"image_feats shape {img.shape} does not match text_feats shape {txt.shape}"
            )
        if img.shape[0] < 1:
            raise ValidationError("batch must contain at least one study")
        object.__setattr__(self, "image_feats", img)
        object.__setattr__(self, "text_feats", txt)
        d = img.shape[1]
        for name in ("image_locals", "text_locals"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = as_finite_array(value, name, 3)
            if arr.shape[0] != img.shape[0] or arr.shape[2] != d:
                raise ValidationError(
                    f"{name} shape {arr.shape} does not match batch size {img.shape[0]} "
                    f"and width {d}"
                )
            object.__setattr__(self, name, arr)
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValidationError(f"temperature must be finite and positive, got {self.temperature}")

    @property
    def size(self) -> int:
        return self.image_feats.shape[0]


def _normalize_rows(x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValidationError(f"{name} row {int(zero[0])} has zero norm")
    return x / norms[:, None], norms


def _normalize_grad(g_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # d/dx of x/|x| applied to an upstream gradient on the unit vector.
    inner = (g_unit * unit).sum(axis=1, keepdims=True)
    return (g_unit - inner * unit) / norms[:, None]


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(x - m).sum(axis=axis))


def _global_core(batch: AlignmentBatch, direction: str):
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    u, u_norms = _normalize_rows(batch.image_feats, "image_feats")
    v, v_norms = _normalize_rows(batch.text_feats, "text_feats")
    sims = (u @ v.T) / batch.temperature  # rows: images, cols: texts
    # One row per anchor (an image, or a text), its matching candidate on the diagonal.
    rows = sims if direction == "image_to_text" else sims.T
    b = batch.size
    diag = np.arange(b)
    lse = _logsumexp(rows, axis=1)
    loss = float(np.mean(lse - rows[diag, diag]))
    drows = np.exp(rows - lse[:, None])
    drows[diag, diag] -= 1.0
    drows /= b
    return loss, u, v, u_norms, v_norms, drows if rows is sims else drows.T


def global_alignment_loss(batch: AlignmentBatch, direction: str) -> float:
    """Mean -log softmax of the matching pair along the chosen direction.

    Rows are L2-normalized before the similarity matrix is formed, so the
    value is invariant to rescaling either feature set.
    """
    return _global_core(batch, direction)[0]


def global_alignment_loss_grad(batch: AlignmentBatch, direction: str):
    """Loss plus gradients w.r.t. image_feats and text_feats."""
    loss, u, v, u_norms, v_norms, dsims = _global_core(batch, direction)
    du = (dsims @ v) / batch.temperature
    dv = (dsims.T @ u) / batch.temperature
    return loss, {
        "image_feats": _normalize_grad(du, u, u_norms),
        "text_feats": _normalize_grad(dv, v, v_norms),
    }


def _local_core(batch: AlignmentBatch, with_grad: bool):
    if batch.image_locals is None or batch.text_locals is None:
        raise ValidationError("local alignment requires image_locals and text_locals")
    img = batch.image_locals  # (B, S_i, d)
    txt = batch.text_locals  # (B, S_t, d)
    b, s_t, d = txt.shape
    tokens = txt.reshape(b * s_t, d)  # row-major: flat token n is (n // S_t, n % S_t)
    tau = batch.temperature
    sqrt_d = math.sqrt(d)
    weight = 1.0 / (b * s_t)
    loss = 0.0
    d_img = np.zeros_like(img) if with_grad else None
    d_txt = np.zeros_like(tokens) if with_grad else None
    for lo in range(0, b * s_t, _TOKEN_BLOCK):
        query = tokens[lo : lo + _TOKEN_BLOCK]  # (n, d)
        n = query.shape[0]
        q_norms = np.linalg.norm(query, axis=1)  # (n,)
        attn_logits = np.matmul(query, img.transpose(0, 2, 1)) / sqrt_d  # (B, n, S_i)
        attn = np.exp(attn_logits - attn_logits.max(axis=2, keepdims=True))
        attn /= attn.sum(axis=2, keepdims=True)
        contexts = np.matmul(attn, img)  # (B, n, d)
        ctx_norms = np.linalg.norm(contexts, axis=2)  # (B, n)
        _check_local_norms(q_norms, ctx_norms, lo, s_t)
        dots = (contexts * query).sum(axis=2)
        sims = dots / (q_norms * ctx_norms)  # (B, n): study j against token k
        logits = sims / tau
        lse = _logsumexp(logits, axis=0)
        own = np.arange(lo, lo + n) // s_t
        cols = np.arange(n)
        loss += weight * float((lse - logits[own, cols]).sum())
        if not with_grad:
            continue
        dlogits = weight * np.exp(logits - lse)
        dlogits[own, cols] -= weight
        dsims = dlogits / tau
        # cosine backward: sim_jk = (c_jk . q_k) / (|q_k| |c_jk|)
        scale = dsims / (q_norms * ctx_norms)
        dq = (scale[:, :, None] * contexts).sum(axis=0)
        dq -= ((dsims * sims).sum(axis=0) / (q_norms * q_norms))[:, None] * query
        d_ctx = scale[:, :, None] * query
        d_ctx -= (dsims * sims / (ctx_norms * ctx_norms))[:, :, None] * contexts
        # context backward: c_jk = attn_jk @ img_j with attn_jk = softmax(img_j q_k / sqrt(d))
        g_attn = np.matmul(d_ctx, img.transpose(0, 2, 1))  # (B, n, S_i)
        g_logits = attn * (g_attn - (attn * g_attn).sum(axis=2, keepdims=True))
        d_img += np.matmul(attn.transpose(0, 2, 1), d_ctx)
        d_img += np.matmul(g_logits.transpose(0, 2, 1), query) / sqrt_d
        dq += np.matmul(g_logits, img).sum(axis=0) / sqrt_d
        d_txt[lo : lo + n] = dq
    return loss, d_img, None if d_txt is None else d_txt.reshape(txt.shape)


def _check_local_norms(q_norms: np.ndarray, ctx_norms: np.ndarray, lo: int, s_t: int) -> None:
    """Name the first token, in row-major order, with a zero norm or a zero context.

    Within one token the token's own norm is checked before its contexts.
    """
    bad = (q_norms == 0.0) | (ctx_norms == 0.0).any(axis=0)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    i, t = divmod(lo + k, s_t)
    if q_norms[k] == 0.0:
        raise ValidationError(f"text_locals token ({i}, {t}) has zero norm")
    j = int(np.argmax(ctx_norms[:, k] == 0.0))
    raise ValidationError(f"attention context for study {j} has zero norm (token ({i}, {t}))")


def local_alignment_loss(batch: AlignmentBatch) -> float:
    """Token-level contrastive loss over attention-pooled image contexts."""
    return _local_core(batch, with_grad=False)[0]


def local_alignment_loss_grad(batch: AlignmentBatch):
    """Loss plus gradients w.r.t. image_locals and text_locals."""
    loss, d_img, d_txt = _local_core(batch, with_grad=True)
    return loss, {"image_locals": d_img, "text_locals": d_txt}


def total_alignment_loss(batch: AlignmentBatch) -> float:
    """Sum of both global directions and the local term."""
    return (
        global_alignment_loss(batch, "image_to_text")
        + global_alignment_loss(batch, "text_to_image")
        + local_alignment_loss(batch)
    )


def total_alignment_loss_grad(batch: AlignmentBatch):
    """Total loss plus gradients for all four feature inputs."""
    loss_i2t, g_i2t = global_alignment_loss_grad(batch, "image_to_text")
    loss_t2i, g_t2i = global_alignment_loss_grad(batch, "text_to_image")
    loss_local, g_local = local_alignment_loss_grad(batch)
    grads = {name: g_i2t[name] + g_t2i[name] for name in g_i2t} | g_local
    return loss_i2t + loss_t2i + loss_local, grads


@dataclass(frozen=True)
class TokenPrediction:
    """Decoder output distributions (M, V) and the reference token ids."""

    probs: np.ndarray
    reference: tuple[int, ...]

    def __post_init__(self):
        arr = as_finite_array(self.probs, "probs", 2)
        object.__setattr__(self, "probs", arr)
        ref = tuple(int(t) for t in self.reference)
        if len(ref) != arr.shape[0]:
            raise ValidationError(
                f"reference has {len(ref)} tokens but probs has {arr.shape[0]} rows"
            )
        if any(t < 0 or t >= arr.shape[1] for t in ref):
            raise ValidationError(f"reference token id out of range for vocabulary {arr.shape[1]}")
        object.__setattr__(self, "reference", ref)


def _check_stochastic(pred: TokenPrediction, index: int) -> None:
    sums = pred.probs.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-6)[0]
    if bad.size:
        raise ValidationError(
            f"prediction {index} row {int(bad[0])} sums to {sums[int(bad[0])]:.8f}, not 1"
        )
    if np.any(pred.probs < 0):
        raise ValidationError(f"prediction {index} contains negative probabilities")


def nll_loss(preds: list[TokenPrediction], validate: bool = True) -> float:
    """Mean over the batch of summed negative log-likelihood of the references.

    Probabilities are clamped at 1e-12 before the log.  ``validate`` checks
    each row sums to 1 within 1e-6 (disable only to probe perturbed inputs).
    """
    if not preds:
        raise ValidationError("nll_loss requires at least one prediction")
    total = 0.0
    for index, pred in enumerate(preds):
        if validate:
            _check_stochastic(pred, index)
        picked = pred.probs[np.arange(len(pred.reference)), list(pred.reference)]
        total += float(-np.log(np.maximum(picked, PROB_FLOOR)).sum())
    return total / len(preds)


def nll_loss_grad(preds: list[TokenPrediction], validate: bool = True):
    """Loss plus the gradient w.r.t. each probs matrix (zero where clamped)."""
    loss = nll_loss(preds, validate=validate)
    grads = []
    inv_b = 1.0 / len(preds)
    for pred in preds:
        rows, cols = np.arange(len(pred.reference)), np.asarray(pred.reference, dtype=np.intp)
        picked = pred.probs[rows, cols]
        live = picked > PROB_FLOOR
        g = np.zeros_like(pred.probs)
        g[rows[live], cols[live]] = -inv_b / picked[live]
        grads.append(g)
    return loss, grads
