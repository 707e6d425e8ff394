"""Cross-modal fusion network: numpy forward and exact reverse-mode backward.

Three pre-norm attention-decoder layers run in float64.  Two enrichment
layers read similar-historical-case (SHC) evidence into the image and
indication features, and an integration layer combines whatever is present.
Absent inputs route through deterministic fallback branches:

    shc + indication   -> full:          L3(L1(image, shc), L2(indication, shc))
    shc only           -> no_indication: L3(E, E) with E = L1(image, shc)
    indication only    -> no_shc:        L3(image, indication)
    neither            -> image_only:    L3(image, image)

``ROUTES`` is the single statement of this diagram: the forward pass walks a
branch's route, the backward pass walks it in reverse, and the fuse-demo
gradient probe reads the layers a branch uses from it.

Each layer applies, with residual connections around every sublayer,

    x += SelfAttn(norm(x));  x += CrossAttn(norm(x), memory);  x += FFN(norm(x))

using multi-head scaled dot-product attention (scale 1/sqrt(d/heads)) and a
GELU feed-forward block.  No positional encodings are applied to memory, so
the output is invariant to memory row order.  ``fuse_backward`` returns
analytic gradients of sum(fused * upstream) for every parameter and input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, as_finite_array, check_at_least

__all__ = [
    "LAYER_NAMES",
    "LAYER_SHAPES",
    "ROUTES",
    "LayerParams",
    "FusionParams",
    "FeatureSet",
    "FusionOutput",
    "FusionGradients",
    "init_params",
    "decoder_layer",
    "fuse",
    "fuse_backward",
    "fusion_objective",
]

LAYER_NAMES = ("img_enrich", "ind_enrich", "integrate")
# Each branch's decoder layers in forward order as (layer, queries, memory).
# A source is an input ("image", "shc", "indication") or an earlier layer's
# output.  fuse takes the first branch whose inputs are all present.
ROUTES = {
    "full": (
        ("img_enrich", "image", "shc"),
        ("ind_enrich", "indication", "shc"),
        ("integrate", "img_enrich", "ind_enrich"),
    ),
    "no_indication": (("img_enrich", "image", "shc"), ("integrate", "img_enrich", "img_enrich")),
    "no_shc": (("integrate", "image", "indication"),),
    "image_only": (("integrate", "image", "image"),),
}

_LN_EPS = 1e-5
_GELU_A = math.sqrt(2.0 / math.pi)
_GELU_B = 0.044715


def _weight(*units: int):
    """A LayerParams field whose array has shape ``units`` times the feature width d."""
    return field(metadata={"units": units})


@dataclass
class LayerParams:
    """Weights of one decoder layer.

    Each field states its array's shape in units of the feature width d.
    """

    self_q: np.ndarray = _weight(1, 1)
    self_k: np.ndarray = _weight(1, 1)
    self_v: np.ndarray = _weight(1, 1)
    self_o: np.ndarray = _weight(1, 1)
    cross_q: np.ndarray = _weight(1, 1)
    cross_k: np.ndarray = _weight(1, 1)
    cross_v: np.ndarray = _weight(1, 1)
    cross_o: np.ndarray = _weight(1, 1)
    ff1: np.ndarray = _weight(1, 4)
    ff2: np.ndarray = _weight(4, 1)
    ln1_gain: np.ndarray = _weight(1)
    ln1_bias: np.ndarray = _weight(1)
    ln2_gain: np.ndarray = _weight(1)
    ln2_bias: np.ndarray = _weight(1)
    ln3_gain: np.ndarray = _weight(1)
    ln3_bias: np.ndarray = _weight(1)

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self, d: int) -> None:
        for name, arr in self.arrays().items():
            shape = _shape(name, d)
            if as_finite_array(arr, f"layer weight {name}", len(shape)).shape != shape:
                raise ValidationError(f"layer weight {name} has shape {arr.shape}, expected {shape}")

    @classmethod
    def zeros(cls, d: int) -> "LayerParams":
        return cls(**{name: np.zeros(_shape(name, d)) for name in LAYER_SHAPES})


# Each LayerParams weight's shape in units of d, in field order: init_params draws in this order.
LAYER_SHAPES = {f.name: f.metadata["units"] for f in fields(LayerParams)}


def _shape(name: str, d: int) -> tuple[int, ...]:
    return tuple(units * d for units in LAYER_SHAPES[name])


@dataclass
class FusionParams:
    """All weights of the three-layer network plus head count and seed."""

    d: int
    n_heads: int
    seed: int
    img_enrich: LayerParams
    ind_enrich: LayerParams
    integrate: LayerParams

    def layers(self) -> dict[str, LayerParams]:
        return {name: getattr(self, name) for name in LAYER_NAMES}

    def validate(self) -> None:
        _check_heads(self.d, self.n_heads)
        for layer in self.layers().values():
            layer.validate(self.d)


def init_params(d: int, n_heads: int, seed: int) -> FusionParams:
    """Deterministic seeded initialization.

    Projections draw uniform with scale 1/sqrt(fan_in), in LAYER_SHAPES
    order; norm gains start at 1 and biases at 0.  The same seed always
    yields bit-identical weights.
    """
    check_at_least(1, d=d)
    _check_heads(d, n_heads)
    rng = np.random.default_rng(seed)

    def init(name: str) -> np.ndarray:
        shape = _shape(name, d)
        if len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[0])
            return rng.uniform(-bound, bound, size=shape)
        return np.ones(shape) if name.endswith("_gain") else np.zeros(shape)

    layers = {layer: LayerParams(**{name: init(name) for name in LAYER_SHAPES}) for layer in LAYER_NAMES}
    return FusionParams(d=d, n_heads=n_heads, seed=seed, **layers)


def _check_heads(d: int, n_heads: int) -> None:
    if n_heads < 1 or d % n_heads != 0:
        raise ValidationError(f"n_heads {n_heads} does not divide feature width {d}")


def _as_feature_matrix(value, name: str) -> np.ndarray:
    arr = as_finite_array(value, name, 2)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """Image features plus optional SHC and indication features (shared width)."""

    image: np.ndarray
    shc: np.ndarray | None = None
    indication: np.ndarray | None = None

    def __post_init__(self):
        if self.image is None:
            raise ValidationError("image features are required")
        object.__setattr__(self, "image", _as_feature_matrix(self.image, "image"))
        d = self.image.shape[1]
        for name in ("shc", "indication"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = _as_feature_matrix(value, name)
            if arr.shape[1] != d:
                raise ValidationError(
                    f"{name} has width {arr.shape[1]} but image has width {d}"
                )
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FusionOutput:
    fused: np.ndarray  # (S_image, d)
    branch_taken: str


@dataclass
class FusionGradients:
    """Gradients of sum(fused * upstream) for every weight and input."""

    img_enrich: LayerParams
    ind_enrich: LayerParams
    integrate: LayerParams
    image: np.ndarray
    shc: np.ndarray | None
    indication: np.ndarray | None

    layers = FusionParams.layers


# ---------------------------------------------------------------------------
# Sublayer forward/backward primitives
# ---------------------------------------------------------------------------


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh form) and its tanh term, which the backward pass reuses."""
    t = np.tanh(_GELU_A * (x + _GELU_B * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    d_inner = _GELU_A * (1.0 + 3.0 * _GELU_B * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner


class _LnTape(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray
    gain: np.ndarray


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv_std
    return xhat * gain + bias, _LnTape(xhat, inv_std, gain)


def _layer_norm_backward(dy: np.ndarray, tape: _LnTape):
    xhat, inv_std, gain = tape
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    s, d = x.shape
    return x.reshape(s, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, s, dh = x.shape
    return x.transpose(1, 0, 2).reshape(s, h * dh)


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _AttnTape(NamedTuple):
    x_q: np.ndarray
    memory: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    qh: np.ndarray
    kh: np.ndarray
    vh: np.ndarray
    probs: np.ndarray
    merged_ctx: np.ndarray
    scale: float
    n_heads: int


def _attention_forward(x_q, memory, wq, wk, wv, wo, n_heads):
    """Multi-head attention of ``x_q`` over ``memory``."""
    q = x_q @ wq
    qh = _split_heads(q, n_heads)
    kh = _split_heads(memory @ wk, n_heads)
    vh = _split_heads(memory @ wv, n_heads)
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    probs = _softmax_last(scores)  # (heads, S_q, S_m), rows sum to 1
    merged_ctx = _merge_heads(np.matmul(probs, vh))
    out = merged_ctx @ wo
    return out, _AttnTape(x_q, memory, wq, wk, wv, wo, qh, kh, vh, probs, merged_ctx, scale, n_heads)


def _attention_backward(dout: np.ndarray, tape: _AttnTape):
    """Gradients of x_q and memory, and of (wq, wk, wv, wo)."""
    dctx = _split_heads(dout @ tape.wo.T, tape.n_heads)
    dprobs = np.matmul(dctx, tape.vh.transpose(0, 2, 1))
    dvh = np.matmul(tape.probs.transpose(0, 2, 1), dctx)
    inner = (dprobs * tape.probs).sum(axis=-1, keepdims=True)
    dscores = tape.probs * (dprobs - inner)
    dqh = np.matmul(dscores, tape.kh) * tape.scale
    dkh = np.matmul(dscores.transpose(0, 2, 1), tape.qh) * tape.scale
    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    weights = (tape.x_q.T @ dq, tape.memory.T @ dk, tape.memory.T @ dv, tape.merged_ctx.T @ dout)
    dx_q = dq @ tape.wq.T
    dmemory = dk @ tape.wk.T + dv @ tape.wv.T
    return dx_q, dmemory, weights


class _DecoderTape(NamedTuple):
    ln1: _LnTape
    self_attn: _AttnTape
    ln2: _LnTape
    cross_attn: _AttnTape
    ln3: _LnTape
    n3: np.ndarray
    ff_pre: np.ndarray
    ff_tanh: np.ndarray
    ff_act: np.ndarray


def _decoder_forward(queries, memory, layer: LayerParams, n_heads: int):
    n1, t_ln1 = _layer_norm_forward(queries, layer.ln1_gain, layer.ln1_bias)
    sa, t_sa = _attention_forward(n1, n1, layer.self_q, layer.self_k, layer.self_v, layer.self_o, n_heads)
    x1 = queries + sa
    n2, t_ln2 = _layer_norm_forward(x1, layer.ln2_gain, layer.ln2_bias)
    ca, t_ca = _attention_forward(n2, memory, layer.cross_q, layer.cross_k, layer.cross_v, layer.cross_o, n_heads)
    x2 = x1 + ca
    n3, t_ln3 = _layer_norm_forward(x2, layer.ln3_gain, layer.ln3_bias)
    ff_pre = n3 @ layer.ff1
    ff_act, ff_tanh = _gelu(ff_pre)
    out = x2 + ff_act @ layer.ff2
    return out, _DecoderTape(t_ln1, t_sa, t_ln2, t_ca, t_ln3, n3, ff_pre, ff_tanh, ff_act)


def _decoder_backward(dout: np.ndarray, tape: _DecoderTape, layer: LayerParams):
    """Gradients of the layer's queries and memory, and its weight gradients."""
    # feed-forward sublayer
    dpre = (dout @ layer.ff2.T) * _gelu_grad(tape.ff_pre, tape.ff_tanh)
    dff1, dff2 = tape.n3.T @ dpre, tape.ff_act.T @ dout
    dx2_ln, *dln3 = _layer_norm_backward(dpre @ layer.ff1.T, tape.ln3)
    dx2 = dout + dx2_ln
    # cross-attention sublayer
    dn2, dmemory, dcross = _attention_backward(dx2, tape.cross_attn)
    dx1_ln, *dln2 = _layer_norm_backward(dn2, tape.ln2)
    dx1 = dx2 + dx1_ln
    # self-attention sublayer: queries and memory are the same normed input
    dn1_q, dn1_m, dself = _attention_backward(dx1, tape.self_attn)
    dx0_ln, *dln1 = _layer_norm_backward(dn1_q + dn1_m, tape.ln1)
    # LayerParams field order: self q/k/v/o, cross q/k/v/o, ff1, ff2, ln1..ln3 gain/bias
    grads = LayerParams(*dself, *dcross, dff1, dff2, *dln1, *dln2, *dln3)
    return dx1 + dx0_ln, dmemory, grads


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def decoder_layer(
    queries,
    memory,
    layer: LayerParams,
    n_heads: int,
    return_probs: bool = False,
):
    """One decoder layer forward pass.

    With ``return_probs`` the self- and cross-attention probability tensors
    (heads, S_q, S_*) come back alongside the output.
    """
    q = _as_feature_matrix(queries, "queries")
    m = _as_feature_matrix(memory, "memory")
    d = q.shape[1]
    if m.shape[1] != d:
        raise ValidationError(f"memory width {m.shape[1]} does not match query width {d}")
    _check_heads(d, n_heads)
    layer.validate(d)
    out, tape = _decoder_forward(q, m, layer, n_heads)
    if return_probs:
        return out, {"self": tape.self_attn.probs, "cross": tape.cross_attn.probs}
    return out


def _fuse_forward(features: FeatureSet, params: FusionParams):
    params.validate()
    image = features.image
    if image.shape[1] != params.d:
        raise ValidationError(
            f"image width {image.shape[1]} does not match parameter width {params.d}"
        )
    # Inputs by name; the walk adds each layer's output under the layer's name.
    values = {"image": image, "shc": features.shc, "indication": features.indication}
    branch, route = next(
        (name, route)
        for name, route in ROUTES.items()
        if all(values[src] is not None for _, *sources in route for src in sources if src in values)
    )
    tapes: dict[str, _DecoderTape] = {}
    for layer, queries, memory in route:
        values[layer], tapes[layer] = _decoder_forward(
            values[queries], values[memory], getattr(params, layer), params.n_heads
        )
    return FusionOutput(fused=values[route[-1][0]], branch_taken=branch), tapes


def fuse(features: FeatureSet, params: FusionParams) -> FusionOutput:
    """Fusion forward pass; the branch taken depends on which inputs exist."""
    output, _ = _fuse_forward(features, params)
    return output


def _upstream(upstream, fused: np.ndarray) -> np.ndarray:
    up = as_finite_array(upstream, "upstream gradient", fused.ndim)
    if up.shape != fused.shape:
        raise ValidationError(f"upstream gradient shape {up.shape} does not match output {fused.shape}")
    return up


def fuse_backward(features: FeatureSet, params: FusionParams, upstream) -> FusionGradients:
    """Exact gradients of sum(fused * upstream) for all weights and inputs.

    Weights of layers the taken branch never touches get exact zeros; absent
    inputs get None.
    """
    output, tapes = _fuse_forward(features, params)
    up = _upstream(upstream, output.fused)
    route = ROUTES[output.branch_taken]
    # Gradient by source, created on its first write and summed after that.
    # At most two ever meet, so the sum's order does not change its bits;
    # starting from zeros would, since 0.0 + -0.0 is 0.0.
    grads = {route[-1][0]: up}
    layer_grads: dict[str, LayerParams] = {}
    for layer, queries, memory in reversed(route):
        dq, dm, layer_grads[layer] = _decoder_backward(grads.pop(layer), tapes[layer], getattr(params, layer))
        for src, grad in ((queries, dq), (memory, dm)):
            grads[src] = grads[src] + grad if src in grads else grad
    for name in LAYER_NAMES:
        if name not in layer_grads:
            layer_grads[name] = LayerParams.zeros(params.d)
    return FusionGradients(
        **layer_grads,
        image=grads["image"],
        shc=grads.get("shc"),
        indication=grads.get("indication"),
    )


def fusion_objective(features: FeatureSet, params: FusionParams, upstream) -> float:
    """Scalar probe sum(fused * upstream); the quantity fuse_backward differentiates."""
    output = fuse(features, params)
    return float(np.sum(output.fused * _upstream(upstream, output.fused)))
