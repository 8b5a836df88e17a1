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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .kernel import (
    KernelSaved,
    NeighborhoodSpec,
    effective_kernel,
    kernel_backward,
    kernel_flops,
    kernel_forward,
)
from .tensor import DEFAULT_DTYPE, Rng, randn

LCE_KERNEL = 5
INIT_STD = 0.02


def _pair(value, name: str, odd: bool = False) -> tuple[int, int]:
    """Normalize an int or 2-sequence into a validated (h, w) pair."""
    if isinstance(value, int):
        value = (value, value)
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an int or a pair, got {value!r}") from None
    for v in (a, b):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"{name} entries must be ints >= 1, got {value!r}")
        if odd and v % 2 == 0:
            raise ConfigError(f"{name} entries must be odd, got {value!r}")
    return (a, b)


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
        if self.channels < 1 or self.heads < 1:
            raise ConfigError(f"channels/heads must be >= 1, got {self.channels}/{self.heads}")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        object.__setattr__(self, "window", _pair(self.window, "window", odd=True))
        object.__setattr__(self, "anchors", _pair(self.anchors, "anchors", odd=True))
        if self.stride != "auto":
            object.__setattr__(self, "stride", _pair(self.stride, "stride"))

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def resolve_stride(policy: int | str, side: int, anchors: int) -> int:
    """Anchor spacing for one axis: `auto` spreads the anchors across it."""
    if policy == "auto":
        return max(1, side // anchors)
    if not isinstance(policy, int) or policy < 1:
        raise ConfigError(f"stride must be 'auto' or an int >= 1, got {policy!r}")
    return policy


def resolved_strides(cfg: S3AConfig, H: int, W: int) -> tuple[int, int]:
    """Per-axis stage-2 strides for a concrete feature-map geometry."""
    if cfg.stride == "auto":
        return (
            resolve_stride("auto", H, cfg.anchors[0]),
            resolve_stride("auto", W, cfg.anchors[1]),
        )
    return (
        resolve_stride(cfg.stride[0], H, cfg.anchors[0]),
        resolve_stride(cfg.stride[1], W, cfg.anchors[1]),
    )


@dataclass
class S3AParams:
    """Learnable tensors of one layer. LCE fields are None when disabled."""

    w_qkv: np.ndarray  # [3C, C]
    b_qkv: np.ndarray  # [3C]
    w_out: np.ndarray  # [C, C]
    b_out: np.ndarray  # [C]
    lce_filt: np.ndarray | None = None  # [C, 5, 5]
    lce_bias: np.ndarray | None = None  # [C]


def init_s3a_params(cfg: S3AConfig, rng: Rng, dtype=DEFAULT_DTYPE) -> S3AParams:
    """Weights ~ normal(0, 0.02), biases zero."""
    C = cfg.channels
    params = S3AParams(
        w_qkv=randn((3 * C, C), rng, std=INIT_STD, dtype=dtype),
        b_qkv=np.zeros(3 * C, dtype=dtype),
        w_out=randn((C, C), rng, std=INIT_STD, dtype=dtype),
        b_out=np.zeros(C, dtype=dtype),
    )
    if cfg.lce:
        params.lce_filt = randn((C, LCE_KERNEL, LCE_KERNEL), rng, std=INIT_STD, dtype=dtype)
        params.lce_bias = np.zeros(C, dtype=dtype)
    return params


def s3a_param_count(cfg: S3AConfig) -> int:
    C = cfg.channels
    n = 3 * C * C + 3 * C + C * C + C
    if cfg.lce:
        n += C * LCE_KERNEL * LCE_KERNEL + C
    return n


def depthwise_forward(x: np.ndarray, filt: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-channel 2D convolution, zero padding, stride 1, output size = input size."""
    C, H, W = x.shape
    kh, kw = filt.shape[1], filt.shape[2]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, ph : ph + H, pw : pw + W] = x
    out = np.zeros_like(x)
    for u in range(kh):
        for v in range(kw):
            out += filt[:, u, v][:, None, None] * xp[:, u : u + H, v : v + W]
    return out + bias[:, None, None]


def depthwise_backward(
    g: np.ndarray, x: np.ndarray, filt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dfilt, dbias) of depthwise_forward."""
    C, H, W = x.shape
    kh, kw = filt.shape[1], filt.shape[2]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((C, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, ph : ph + H, pw : pw + W] = x
    dxp = np.zeros_like(xp)
    dfilt = np.zeros_like(filt)
    for u in range(kh):
        for v in range(kw):
            dxp[:, u : u + H, v : v + W] += filt[:, u, v][:, None, None] * g
            dfilt[:, u, v] = (g * xp[:, u : u + H, v : v + W]).sum(axis=(1, 2))
    dbias = g.sum(axis=(1, 2))
    return dxp[:, ph : ph + H, pw : pw + W], dfilt, dbias


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
    """Forward activations retained for the analytic backward pass."""

    cfg: S3AConfig
    x: np.ndarray
    qkv: np.ndarray
    attn_out: np.ndarray
    saved1: KernelSaved
    saved2: KernelSaved
    params: S3AParams
    scale: float
    consumed: bool = field(default=False)


def s3a_forward(
    x: np.ndarray, params: S3AParams, cfg: S3AConfig
) -> tuple[np.ndarray, S3ASaved]:
    """Apply the layer to a [C, H, W] map; returns output and saved state."""
    if x.ndim != 3:
        raise ShapeError(f"expected [C, H, W] input, got shape {x.shape}")
    C, H, W = x.shape
    if C != cfg.channels:
        raise ShapeError(f"input has {C} channels, layer expects {cfg.channels}")
    heads, dh = cfg.heads, cfg.head_dim
    scale = dh**-0.5

    xf = x.reshape(C, H * W)
    qkv = params.w_qkv @ xf + params.b_qkv[:, None]
    q, k, v = qkv[:C], qkv[C : 2 * C], qkv[2 * C :]
    k_scaled = k * x.dtype.type(scale)

    qh = _split_heads(q, heads, H, W)
    kh = _split_heads(k_scaled, heads, H, W)
    vh = _split_heads(v, heads, H, W)

    spec1 = NeighborhoodSpec(cfg.window)
    out1, saved1 = kernel_forward(qh, kh, vh, spec1, scale=1.0)

    spec2 = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    out2, saved2 = kernel_forward(qh, kh, out1, spec2, scale=1.0)

    attn_out = _merge_heads(out2)
    out = params.w_out @ attn_out + params.b_out[:, None]
    if cfg.lce:
        lce = depthwise_forward(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
        out = out + lce.reshape(C, H * W)

    saved = S3ASaved(
        cfg=cfg, x=x, qkv=qkv, attn_out=attn_out,
        saved1=saved1, saved2=saved2, params=params, scale=scale,
    )
    return out.reshape(C, H, W), saved


def s3a_backward(grad_out: np.ndarray, saved: S3ASaved) -> dict[str, np.ndarray]:
    """Gradients w.r.t. the input and every parameter tensor.

    Saved state is single-use: a second call on the same state raises.
    """
    if saved is None or getattr(saved, "consumed", True):
        raise StateError("backward needs fresh saved state from a forward call")
    saved.consumed = True
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
    d_attn = params.w_out.T @ g

    v = saved.qkv[2 * C :]
    d_v_extra = np.zeros_like(v)
    if cfg.lce:
        dx_lce, dfilt, dbias = depthwise_backward(
            g.reshape(C, H, W), v.reshape(C, H, W), params.lce_filt
        )
        d_v_extra = dx_lce.reshape(C, H * W)
        grads["grad_lce_filt"] = dfilt
        grads["grad_lce_bias"] = dbias

    g2 = _split_heads(d_attn, heads, H, W)
    b2 = kernel_backward(g2, saved.saved2)
    b1 = kernel_backward(b2["grad_v"], saved.saved1)

    dq = _merge_heads(b1["grad_q"] + b2["grad_q"])
    dk = _merge_heads(b1["grad_k"] + b2["grad_k"]) * saved.x.dtype.type(saved.scale)
    dv = _merge_heads(b1["grad_v"]) + d_v_extra

    d_qkv = np.concatenate([dq, dk, dv], axis=0)
    grads["grad_w_qkv"] = d_qkv @ xf.T
    grads["grad_b_qkv"] = d_qkv.sum(axis=1)
    grads["grad_x"] = (params.w_qkv.T @ d_qkv).reshape(C, H, W)
    return grads


def s3a_flops(cfg: S3AConfig, H: int, W: int) -> int:
    """Multiply-accumulates for one application on an H x W map."""
    C = cfg.channels
    hw = H * W
    total = hw * (3 * C * C) + hw * (C * C)  # qkv and output projections
    total += s3a_attention_flops(cfg, H, W)
    if cfg.lce:
        total += hw * C * LCE_KERNEL * LCE_KERNEL
    return total


def s3a_attention_flops(cfg: S3AConfig, H: int, W: int) -> int:
    """The neighborhood-attention share of s3a_flops (both stages)."""
    heads, dh = cfg.heads, cfg.head_dim
    spec1 = NeighborhoodSpec(cfg.window)
    spec2 = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    return kernel_flops(H, W, heads, dh, spec1) + kernel_flops(H, W, heads, dh, spec2)


def effective_anchor_counts(cfg: S3AConfig, H: int, W: int) -> tuple[int, int]:
    """Realized per-axis anchor counts after clamping on an H x W map."""
    sh, sw = resolved_strides(cfg, H, W)
    return (
        effective_kernel(cfg.anchors[0], H, sh),
        effective_kernel(cfg.anchors[1], W, sw),
    )
