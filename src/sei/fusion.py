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

Threads: ``fuse``, ``fuse_backward``, ``fusion_objective`` and
``decoder_layer`` each open one ``Helper``, a one-worker thread pool that
cancels its unstarted tasks and joins its thread as the call returns, so no
thread outlives a call (and ``sei run`` may still fork).  In each layer's
forward pass the helper runs the cross-attention K/V projections and the
tanh term of the top half of the GELU rows; in the backward pass it runs
each sublayer's weight-gradient matmuls as one task (the FFN pair, the four
cross-attention ones, the four self-attention ones), off the chain of input
gradients.  No bit can move: the helper makes the same numpy calls on the
same operands as the calling thread would, and GELU is element-wise, so a
row split changes nothing.  Three rules keep it a gain:

1. The caller allocates every array the helper writes (``out=``): arrays the
   helper allocated would come from a second malloc arena and raise the
   peak RSS.
2. ``Helper.result`` takes back a task the helper has not started and runs
   it on the caller, the work-first rule of work stealing (Blumofe and
   Leiserson, JACM 1999), so a late or descheduled helper never stalls a call.
3. Small networks run inline, through the same code: below
   ``_HELPER_MIN_WORK`` of d * d * rows (rows: all input rows of a call), or
   when ``usable_cpus`` is 1, the helper has no thread and takes back every
   task, as it does once its thread cannot start.  The crossover, ``fuse``
   then ``fuse_backward`` of one ``full``-branch study with 49 + 100 + 20
   rows unless given (best of 3 x 15, 2-CPU Xeon, BLAS on one thread):

   ====  =====  ============  =========  =========
   d     rows   d * d * rows  inline ms  helper ms
   ====  =====  ============  =========  =========
   8     13     832           3.1        3.8
   32    169    0.17 M        10.5       11.2
   128   35     0.57 M        12.6       12.1
   64    169    0.69 M        16.4       16.4
   256   13     0.85 M        44.9       41.5
   96    169    1.56 M        23.3       21.2
   128   169    2.77 M        42.0       33.8
   256   169    11.1 M        120.5      80.6
   ====  =====  ============  =========  =========
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

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
# Below this d * d * rows (rows: all input rows of a call) a call runs its
# helper tasks on the calling thread; see "Threads" in the module docstring.
_HELPER_MIN_WORK = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class Helper:
    """One worker thread that runs submitted tasks in order, for the length of a ``with`` block."""

    def __init__(self, threaded: bool):
        self._pool = None
        if threaded:
            from concurrent.futures import ThreadPoolExecutor  # here, so importing fusion does not pay for it

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="sei-helper")
        self.taken_back = 0  # tasks run by the caller because the helper had not started them

    @property
    def threaded(self) -> bool:
        """Whether tasks may run on the helper's thread."""
        return self._pool is not None

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def submit(self, fn: Callable, *args) -> list:
        """Queue ``fn(*args)``; the task is ``[future, fn, args]``, its future None if no thread will run it."""
        task = [None, fn, args]
        if self._pool is not None:
            try:
                task[0] = self._pool.submit(_run, task)
            except RuntimeError:  # no thread to be had: this task and every later one is taken back
                self._pool = None
        return task

    def result(self, task: list):
        """What ``task`` returned, or raise what it raised: run here if the helper has not started it."""
        if task[0] is None or task[0].cancel():
            self.taken_back += 1
            return _run(task)
        return task[0].result()


def _run(task: list):
    """Call the task's ``fn(*args)``, dropping both first, so its operands are freed once it returns."""
    fn, args = task[1], task[2]
    task[1] = task[2] = None
    return fn(*args)


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


def _gelu_tanh(x: np.ndarray, t: np.ndarray) -> None:
    """The tanh term of GELU (tanh form) of ``x``, written into ``t`` with no temporary.

    Each step is the same ufunc on the same operands as
    ``tanh(A * (x + B * x**3))``, so the bits are equal; a product's operand
    order does not change its bits.
    """
    np.power(x, 3, out=t)
    t *= _GELU_B
    t += x
    t *= _GELU_A
    np.tanh(t, out=t)


def _gelu(x: np.ndarray, helper: Helper) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh form) and its tanh term, which the backward pass reuses.

    The helper writes the tanh term of the top half of the rows, this thread
    the rest; GELU is element-wise, so the split moves no bit.
    """
    t = np.empty_like(x)
    top = x.shape[0] // 2
    task = helper.submit(_gelu_tanh, x[:top], t[:top])
    _gelu_tanh(x[top:], t[top:])
    helper.result(task)
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


def _matmuls(products) -> None:
    """``np.matmul(a, b, out=out)`` for each ``(a, b, out)``: the same product as ``a @ b``.

    Every ``out`` comes from the caller, so a helper running this allocates
    nothing: arrays it allocated would come from its own malloc arena and
    raise the peak RSS.
    """
    for a, b, out in products:
        np.matmul(a, b, out=out)


def _submit_products(helper: Helper, pairs) -> tuple[list, list[np.ndarray]]:
    """Submit ``a @ b`` for each ``(a, b)`` as one helper task into arrays allocated here."""
    outs = [np.empty((a.shape[0], b.shape[1])) for a, b in pairs]
    return helper.submit(_matmuls, [(a, b, out) for (a, b), out in zip(pairs, outs)]), outs


def _attention_forward(x_q, memory, k, v, wq, wk, wv, wo, n_heads):
    """Multi-head attention of ``x_q`` over ``memory``; ``k`` and ``v`` are ``memory @ wk`` and ``memory @ wv``."""
    q = x_q @ wq
    qh = _split_heads(q, n_heads)
    kh = _split_heads(k, n_heads)
    vh = _split_heads(v, n_heads)
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    probs = _softmax_last(scores)  # (heads, S_q, S_m), rows sum to 1
    merged_ctx = _merge_heads(np.matmul(probs, vh))
    out = merged_ctx @ wo
    return out, _AttnTape(x_q, memory, wq, wk, wv, wo, qh, kh, vh, probs, merged_ctx, scale, n_heads)


def _attention_backward(dout: np.ndarray, tape: _AttnTape, helper: Helper):
    """Input gradients, plus one helper task and the arrays it fills: the grads of wq, wk, wv, wo."""
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
    weights = _submit_products(
        helper,
        ((tape.x_q.T, dq), (tape.memory.T, dk), (tape.memory.T, dv), (tape.merged_ctx.T, dout)),
    )
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


def _decoder_forward(queries, memory, layer: LayerParams, n_heads: int, helper: Helper):
    kv_task, kv = _submit_products(helper, ((memory, layer.cross_k), (memory, layer.cross_v)))
    n1, t_ln1 = _layer_norm_forward(queries, layer.ln1_gain, layer.ln1_bias)
    sa, t_sa = _attention_forward(
        n1, n1, n1 @ layer.self_k, n1 @ layer.self_v,
        layer.self_q, layer.self_k, layer.self_v, layer.self_o, n_heads,
    )
    x1 = queries + sa
    n2, t_ln2 = _layer_norm_forward(x1, layer.ln2_gain, layer.ln2_bias)
    helper.result(kv_task)
    ca, t_ca = _attention_forward(
        n2, memory, *kv, layer.cross_q, layer.cross_k, layer.cross_v, layer.cross_o, n_heads
    )
    x2 = x1 + ca
    n3, t_ln3 = _layer_norm_forward(x2, layer.ln3_gain, layer.ln3_bias)
    ff_pre = n3 @ layer.ff1
    ff_act, ff_tanh = _gelu(ff_pre, helper)
    out = x2 + ff_act @ layer.ff2
    return out, _DecoderTape(t_ln1, t_sa, t_ln2, t_ca, t_ln3, n3, ff_pre, ff_tanh, ff_act)


def _decoder_backward(dout: np.ndarray, tape: _DecoderTape, layer: LayerParams, helper: Helper):
    """Input gradients, the layer's weight gradients, and the helper tasks that fill them.

    Each sublayer's weight-gradient matmuls are one helper task, off the
    chain of input gradients this thread follows (Griewank and Walther,
    *Evaluating Derivatives*, 2008); the weight arrays hold their values
    once every returned task's result is taken.
    """
    # feed-forward sublayer
    dpre = (dout @ layer.ff2.T) * _gelu_grad(tape.ff_pre, tape.ff_tanh)
    ffn_task, (dff1, dff2) = _submit_products(helper, ((tape.n3.T, dpre), (tape.ff_act.T, dout)))
    dx2_ln, *dln3 = _layer_norm_backward(dpre @ layer.ff1.T, tape.ln3)
    dx2 = dout + dx2_ln
    # cross-attention sublayer
    dn2, dmemory, (cross_task, dcross) = _attention_backward(dx2, tape.cross_attn, helper)
    dx1_ln, *dln2 = _layer_norm_backward(dn2, tape.ln2)
    dx1 = dx2 + dx1_ln
    # self-attention sublayer: queries and memory are the same normed input
    dn1_q, dn1_m, (self_task, dself) = _attention_backward(dx1, tape.self_attn, helper)
    dx0_ln, *dln1 = _layer_norm_backward(dn1_q + dn1_m, tape.ln1)
    # LayerParams field order: self q/k/v/o, cross q/k/v/o, ff1, ff2, ln1..ln3 gain/bias
    grads = LayerParams(*dself, *dcross, dff1, dff2, *dln1, *dln2, *dln3)
    return dx1 + dx0_ln, dmemory, grads, (ffn_task, cross_task, self_task)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _helper(d: int, *inputs: np.ndarray | None) -> Helper:
    """A helper with a thread when a second CPU is there and d * d * (rows of ``inputs``) pays for one."""
    rows = sum(x.shape[0] for x in inputs if x is not None)
    return Helper(threaded=d * d * rows >= _HELPER_MIN_WORK and usable_cpus() > 1)


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
    with _helper(d, q, m) as helper:
        out, tape = _decoder_forward(q, m, layer, n_heads, helper)
    if return_probs:
        return out, {"self": tape.self_attn.probs, "cross": tape.cross_attn.probs}
    return out


def _fuse_forward(features: FeatureSet, params: FusionParams, helper: Helper):
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
            values[queries], values[memory], getattr(params, layer), params.n_heads, helper
        )
    return FusionOutput(fused=values[route[-1][0]], branch_taken=branch), tapes


def fuse(features: FeatureSet, params: FusionParams) -> FusionOutput:
    """Fusion forward pass; the branch taken depends on which inputs exist."""
    with _helper(params.d, features.image, features.shc, features.indication) as helper:
        output, _ = _fuse_forward(features, params, helper)
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
    with _helper(params.d, features.image, features.shc, features.indication) as helper:
        output, tapes = _fuse_forward(features, params, helper)
        up = _upstream(upstream, output.fused)
        route = ROUTES[output.branch_taken]
        # Gradient by source, created on its first write and summed after that.
        # At most two ever meet, so the sum's order does not change its bits;
        # starting from zeros would, since 0.0 + -0.0 is 0.0.
        grads = {route[-1][0]: up}
        layer_grads: dict[str, LayerParams] = {}
        weight_tasks = []
        for layer, queries, memory in reversed(route):
            dq, dm, layer_grads[layer], tasks = _decoder_backward(
                grads.pop(layer), tapes[layer], getattr(params, layer), helper
            )
            weight_tasks.extend(tasks)
            for src, grad in ((queries, dq), (memory, dm)):
                grads[src] = grads[src] + grad if src in grads else grad
        # Newest first: the helper works from the oldest end of its queue, so
        # this thread takes back what is left instead of waiting on it.
        for task in reversed(weight_tasks):
            helper.result(task)
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
