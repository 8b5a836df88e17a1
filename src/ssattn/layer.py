"""Sparse-scan self-attention layer (S3A).

One shared qkv projection feeds two chained neighborhood-attention
stages over a [C, H, W] feature map:

  stage 1  local window, dilation 1 — each site aggregates its
           immediate surroundings;
  stage 2  anchor interaction, kernel extent `anchors` with dilation
           equal to the anchor stride — the same q and k are reused,
           while the values are the stage-1 outputs, so information
           gathered locally is exchanged across the whole map.

Keys are pre-scaled by (C / heads) ** -0.5 once, before either stage,
and no normalization sits between the stages. The attention result is
projected by w_out; a parallel local context enhancement (LCE) branch
— a depthwise 5x5 convolution of the un-headed value projection — is
then added to the projected output. The layer carries its own analytic
backward pass through both stages, the q/k reuse, the projections, and
the LCE branch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, EmptyDomainError, ShapeError
from .kernel import (
    KernelSaved,
    NeighborhoodSpec,
    _pair,
    kernel_backward,
    kernel_flops,
    kernel_forward,
)
from .tensor import Rng, ShapeOnly, check_float_dtypes, check_int

LCE_KERNEL = 5
INIT_STD = 0.02


@dataclass(frozen=True)
class S3AConfig:
    """Static shape of one sparse-scan attention layer.

    `window`, `anchors`, and fixed `stride` accept an int (applied to
    both axes) or an (h, w) pair; they are stored as pairs. `stride`
    may instead be the string "auto", resolved per axis from the
    feature-map side at call time.
    """

    channels: int
    heads: int
    window: int | tuple[int, int] = 3
    anchors: int | tuple[int, int] = 7
    stride: int | str | tuple[int, int] = "auto"
    lce: bool = True

    def __post_init__(self):
        object.__setattr__(self, "channels", check_int(self.channels, "channels"))
        object.__setattr__(self, "heads", check_int(self.heads, "heads"))
        if not isinstance(self.lce, bool):
            raise ConfigError(f"lce must be a bool, got {self.lce!r}")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        object.__setattr__(self, "window", _pair(self.window, "window", odd=True))
        object.__setattr__(self, "anchors", _pair(self.anchors, "anchors", odd=True))
        if not isinstance(self.stride, str) or self.stride != "auto":
            object.__setattr__(self, "stride", _pair(self.stride, "stride"))

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def resolved_strides(cfg: S3AConfig, H: int, W: int) -> tuple[int, int]:
    """Per-axis stage-2 strides: "auto" spreads the anchors across each axis."""
    if cfg.stride == "auto":
        return (max(1, H // cfg.anchors[0]), max(1, W // cfg.anchors[1]))
    return cfg.stride


@dataclass
class S3AParams:
    """Learnable tensors of one layer. LCE fields are None when disabled."""

    w_qkv: np.ndarray  # [3C, C]
    b_qkv: np.ndarray  # [3C]
    w_out: np.ndarray  # [C, C]
    b_out: np.ndarray  # [C]
    lce_filt: np.ndarray | None = None  # [C, 5, 5]
    lce_bias: np.ndarray | None = None  # [C]


def s3a_param_shapes(cfg: S3AConfig) -> dict[str, tuple[int, ...] | None]:
    """The shape of every S3AParams field under cfg, in field order; None where absent."""
    C, lce = cfg.channels, cfg.lce
    return {"w_qkv": (3 * C, C), "b_qkv": (3 * C,), "w_out": (C, C), "b_out": (C,),
            "lce_filt": (C, LCE_KERNEL, LCE_KERNEL) if lce else None, "lce_bias": (C,) if lce else None}


def init_s3a_params(cfg: S3AConfig, rng: Rng) -> S3AParams:
    """Weights (two or more axes) ~ normal(0, 0.02), biases zero, drawn in field order."""
    return S3AParams(**{
        k: None if s is None else rng.normal(s, std=INIT_STD) if len(s) > 1 else rng.full(s, 0.0)
        for k, s in s3a_param_shapes(cfg).items()
    })


def _padded(x: np.ndarray, kh: int, kw: int, pad: tuple[int, int], spare_rows: int = 0) -> np.ndarray:
    """x zero-padded by pad, plus spare_rows zero rows below: where every convolution pads."""
    C, H, W = x.shape
    ph, pw = pad
    if H + 2 * ph < kh or W + 2 * pw < kw:
        raise ShapeError(f"kernel {kh}x{kw} does not fit on {H}x{W} with padding {pad}")
    xp = np.zeros((C, H + 2 * ph + spare_rows, W + 2 * pw), dtype=x.dtype)  # not np.pad: ~50 us more per call
    xp[:, ph : ph + H, pw : pw + W] = x
    return xp


def _tap_window(x: np.ndarray, kh: int, kw: int, pad: tuple[int, int], stride: int = 1) -> np.ndarray:
    """[C, oh, ow, kh, kw] taps of x zero-padded by pad: where the dense convolution reads taps."""
    return sliding_window_view(_padded(x, kh, kw, pad), (kh, kw), axis=(1, 2))[:, ::stride, ::stride]


def _check_depthwise(where: str, x: np.ndarray, filt: np.ndarray, **others: np.ndarray) -> None:
    """DTypeError unless x is floating and filt and others share its dtype;
    ShapeError unless x is [C, H, W] and filt [C, kh, kw] with odd kh and kw."""
    check_float_dtypes(where, x=x, filt=filt, **others)
    odd = filt.ndim == 3 and filt.shape[1] % 2 == 1 and filt.shape[2] % 2 == 1
    if x.ndim != 3 or not odd or filt.shape[0] != x.shape[0]:
        raise ShapeError(f"depthwise expects x [C,H,W] and filt [C,odd,odd], got {x.shape}, {filt.shape}")


def _flat_padded(x: np.ndarray, kh: int, kw: int) -> tuple[np.ndarray, int]:
    """x padded for a same-size kh x kw convolution, flattened to [C, (H+kh)*Wp], and Wp.

    Tap (u, v) of all outputs is the contiguous slice [u*Wp + v, u*Wp + v + H*Wp):
    output (h, w) sits at h*Wp + w, and columns w >= W, which read across the
    row end, are dropped. The spare zero row keeps the last tap's slice in bounds.
    """
    xp = _padded(x, kh, kw, (kh // 2, kw // 2), spare_rows=1)
    return xp.reshape(x.shape[0], -1), xp.shape[2]


def _depthwise_taps(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Sum over taps of filt times the shifted map: the depthwise convolution without bias."""
    C, H, W = x.shape
    kh, kw = filt.shape[1:]
    flat, Wp = _flat_padded(x, kh, kw)
    n = H * Wp
    out = np.zeros((C, n), dtype=x.dtype)
    prod = np.empty_like(out)
    for u in range(kh):
        for v in range(kw):
            s = u * Wp + v
            np.multiply(filt[:, u, v, None], flat[:, s : s + n], out=prod)
            out += prod
    return out.reshape(C, H, Wp)[:, :, :W]


def depthwise_forward(x: np.ndarray, filt: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-channel 2D convolution, zero padding, stride 1, output size = input size.

    x is [C, H, W], filt [C, odd, odd], bias [C], all of one dtype; one
    multiply-add per tap over a shifted slice of the flat padded map, so no
    [C, H, W, kh, kw] copy is made.
    """
    _check_depthwise("depthwise_forward", x, filt, bias=bias)
    if bias.shape != (x.shape[0],):
        raise ShapeError(f"depthwise bias must be [{x.shape[0]}], got {bias.shape}")
    return _depthwise_taps(x, filt) + bias[:, None, None]


def depthwise_backward(
    g: np.ndarray, x: np.ndarray, filt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dfilt, dbias) of depthwise_forward for cotangent g.

    dx is the same tap sum applied to g with the filter flipped (exact
    because kh and kw are odd); dfilt[:, u, v] contracts g with the H x W
    window of the padded x that tap (u, v) reads, so the flat layout's
    dropped columns never enter a sum.
    """
    _check_depthwise("depthwise_backward", x, filt, g=g)
    if g.shape != x.shape:
        raise ShapeError(f"depthwise cotangent shape {g.shape} != input shape {x.shape}")
    dx = _depthwise_taps(g, filt[:, ::-1, ::-1])
    H, W = x.shape[1:]
    kh, kw = filt.shape[1:]
    xp = _padded(x, kh, kw, (kh // 2, kw // 2))
    dfilt = np.empty(filt.shape, dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            dfilt[:, u, v] = np.einsum("chw,chw->c", g, xp[:, u : u + H, v : v + W])
    return dx, dfilt, g.sum(axis=(1, 2))


def _split_heads(t: np.ndarray, heads: int, H: int, W: int) -> np.ndarray:
    """[C, H*W] -> [heads, H, W, dh]"""
    C = t.shape[0]
    return t.reshape(heads, C // heads, H, W).transpose(0, 2, 3, 1)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    """[heads, H, W, dh] -> [C, H*W]"""
    heads, H, W, dh = t.shape
    return t.transpose(0, 3, 1, 2).reshape(heads * dh, H * W)


@dataclass
class S3ASaved:
    """Forward activations retained for the analytic backward pass.

    q, the scaled k and v are kept once each, heads-contiguous, in
    saved1 (the local sweep); saved2 shares q and k and holds the local
    sweep's output as its values.
    """

    cfg: S3AConfig
    x: np.ndarray
    attn_out: np.ndarray
    saved1: KernelSaved
    saved2: KernelSaved
    params: S3AParams


def s3a_forward(
    x: np.ndarray, params: S3AParams, cfg: S3AConfig
) -> tuple[np.ndarray, S3ASaved]:
    """Apply the layer to a [C, H, W] map; returns output and saved state."""
    check_float_dtypes("s3a_forward", x=x, **vars(params))
    for name, shape in s3a_param_shapes(cfg).items():
        got = getattr(getattr(params, name), "shape", None)
        if got != shape:
            raise ShapeError(f"s3a_forward: {name} has shape {got}, the layer's cfg needs {shape}")
    if x.ndim != 3:
        raise ShapeError(f"expected [C, H, W] input, got shape {x.shape}")
    C, H, W = x.shape
    if C != cfg.channels:
        raise ShapeError(f"input has {C} channels, layer expects {cfg.channels}")
    heads = cfg.heads

    xf = x.reshape(C, H * W)
    qkv = params.w_qkv @ xf
    qkv += params.b_qkv[:, None]
    q, k, v = qkv[:C], qkv[C : 2 * C], qkv[2 * C :]

    # heads-contiguous once here, so no sweep, forward or backward, copies q, k or v again
    qh = np.ascontiguousarray(_split_heads(q, heads, H, W))
    kh = np.ascontiguousarray(_split_heads(k, heads, H, W))
    kh *= x.dtype.type(cfg.head_dim**-0.5)
    vh = np.ascontiguousarray(_split_heads(v, heads, H, W))
    # the LCE branch reads v last, so the [3C, HW] projection is freed before the sweeps
    lce = depthwise_forward(v.reshape(C, H, W), params.lce_filt, params.lce_bias) if cfg.lce else None
    del qkv, q, k, v

    spec1 = NeighborhoodSpec(cfg.window)
    out1, saved1 = kernel_forward(qh, kh, vh, spec1)

    spec2 = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    out2, saved2 = kernel_forward(qh, kh, out1, spec2)

    attn_out = _merge_heads(out2)
    out = params.w_out @ attn_out
    out += params.b_out[:, None]
    if lce is not None:
        out += lce.reshape(C, H * W)

    saved = S3ASaved(cfg=cfg, x=x, attn_out=attn_out, saved1=saved1, saved2=saved2, params=params)
    return out.reshape(C, H, W), saved


def s3a_backward(grad_out: np.ndarray, saved: S3ASaved) -> dict[str, np.ndarray]:
    """Gradients w.r.t. the input and every parameter tensor.

    The saved state is only read, so repeated calls return equal grads.
    """
    check_float_dtypes("s3a_backward", x=saved.x, grad_out=grad_out)
    cfg, params = saved.cfg, saved.params
    C, H, W = saved.x.shape
    if grad_out.shape != saved.x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input shape {saved.x.shape}")
    heads = cfg.heads
    xf = saved.x.reshape(C, H * W)
    g = grad_out.reshape(C, H * W)

    grads = {
        "grad_w_out": g @ saved.attn_out.T,
        "grad_b_out": g.sum(axis=1),
    }

    # the anchor sweep's cotangent, heads-contiguous once for both of its products
    cot = np.ascontiguousarray(_split_heads(params.w_out.T @ g, heads, H, W))
    b2 = kernel_backward(cot, saved.saved2)
    del cot
    b1 = kernel_backward(b2.pop("grad_v"), saved.saved1)
    # One [3C, HW] gradient of the qkv projection, allocated once both sweeps have
    # run (so it is not live across the local sweep's gathers) and written through
    # head views: each of q and k is the two sweeps' sum, in one pass.
    d_qkv = np.empty((3 * C, H * W), dtype=saved.x.dtype)
    dq, dk, dv = (_split_heads(d_qkv[i * C : (i + 1) * C], heads, H, W) for i in range(3))
    np.add(b2.pop("grad_q"), b1.pop("grad_q"), out=dq)
    np.add(b2.pop("grad_k"), b1.pop("grad_k"), out=dk)
    dk *= saved.x.dtype.type(cfg.head_dim**-0.5)
    dv[...] = b1.pop("grad_v")

    if cfg.lce:
        v = _merge_heads(saved.saved1.v).reshape(C, H, W)
        dx_lce, grads["grad_lce_filt"], grads["grad_lce_bias"] = depthwise_backward(
            g.reshape(C, H, W), v, params.lce_filt
        )
        dv_map = d_qkv[2 * C :].reshape(C, H, W)
        dv_map += dx_lce

    grads["grad_w_qkv"] = d_qkv @ xf.T
    grads["grad_b_qkv"] = d_qkv.sum(axis=1)
    grads["grad_x"] = (params.w_qkv.T @ d_qkv).reshape(C, H, W)
    return grads


def weight_macs(tensors, sites: int) -> int:
    """The MAC rule: each tensor with two or more axes costs its size per output site.

    That is a weight's multiply-accumulates for any dense or depthwise
    convolution or linear map; biases, norms and scales (one axis) and
    None entries (a disabled LCE branch) cost nothing.
    """
    return sites * sum(t.size for t in tensors if t is not None and t.ndim >= 2)


def s3a_flops(cfg: S3AConfig, H: int, W: int) -> int:
    """Multiply-accumulates for one application on an H x W map."""
    H, W = check_int(H, "H", below=EmptyDomainError), check_int(W, "W", below=EmptyDomainError)
    weights = vars(init_s3a_params(cfg, ShapeOnly())).values()
    return weight_macs(weights, H * W) + s3a_attention_flops(cfg, H, W)


def s3a_attention_flops(cfg: S3AConfig, H: int, W: int) -> int:
    """The neighborhood-attention share of s3a_flops (both stages)."""
    heads, dh = cfg.heads, cfg.head_dim
    spec1 = NeighborhoodSpec(cfg.window)
    spec2 = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    return kernel_flops(H, W, heads, dh, spec1) + kernel_flops(H, W, heads, dh, spec2)
