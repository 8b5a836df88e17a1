"""Building blocks around the sparse-scan attention layer.

A backbone block applies, in order and each with a residual connection:

  X = x + CPE(x)            conditional positional encoding,
                            depthwise 3x3 convolution
  Y = X + S3A(LN(X))        sparse-scan attention on the normalized map
  Z = Y + FFN(LN(Y))        two linear maps with an exact-erf GELU
                            between them, expansion ratio 3

Normalization is per spatial site over the channel axis. The stem and
the between-stage downsampling layers are plain convolutions; the stem
folds its batch-normalization into per-channel scale/shift pairs, so
inference needs no running statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError
from .layer import (
    INIT_STD,
    S3AConfig,
    S3AParams,
    _tap_window,
    depthwise_forward,
    init_s3a_params,
    s3a_forward,
)
from .tensor import DEFAULT_DTYPE, Rng, check_float_dtypes, randn

LN_EPS = 1e-6
CPE_KERNEL = 3
FFN_RATIO = 3
STEM_STRIDES = (2, 1, 1, 2)  # overall stride 4
_SQRT2 = float(np.sqrt(2.0))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error-linear unit: x * Phi(x) via erf."""
    check_float_dtypes("gelu", x=x)
    return 0.5 * x * (1.0 + erf(x / x.dtype.type(_SQRT2)))


def layernorm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize each spatial site over the channel axis of a [C, H, W] map."""
    check_float_dtypes("layernorm", x=x, scale=scale, shift=shift)
    if x.ndim != 3 or scale.shape != (x.shape[0],) or shift.shape != (x.shape[0],):
        raise ShapeError(f"layernorm shapes: x {x.shape}, scale {scale.shape}, shift {shift.shape}")
    mean = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    y = (x - mean) / np.sqrt(var + x.dtype.type(LN_EPS))
    return y * scale[:, None, None] + shift[:, None, None]


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Dense 2D convolution of a [Cin, H, W] map with [Cout, Cin, kh, kw] filters."""
    check_float_dtypes("conv2d", x=x, w=w, b=b)
    if x.ndim != 3 or w.ndim != 4 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"conv2d expects x [Cin,H,W] and w [Cout,Cin,kh,kw], got {x.shape}, {w.shape}")
    kh, kw = w.shape[2:]
    taps = _tap_window(x, kh, kw, (padding, padding), stride)  # [Cin, oh, ow, kh, kw]
    out = np.tensordot(w, taps, axes=([1, 2, 3], [0, 3, 4]))
    if b is not None:
        out += b[:, None, None]
    return out


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class LnParams:
    scale: np.ndarray
    shift: np.ndarray


@dataclass
class CpeParams:
    filt: np.ndarray  # [C, 3, 3]
    bias: np.ndarray  # [C]


@dataclass
class FfnParams:
    w1: np.ndarray  # [rC, C]
    b1: np.ndarray  # [rC]
    w2: np.ndarray  # [C, rC]
    b2: np.ndarray  # [C]


@dataclass
class BlockParams:
    cpe: CpeParams
    ln1: LnParams
    s3a: S3AParams
    ln2: LnParams
    ffn: FfnParams


@dataclass
class ConvBnParams:
    """Convolution followed by folded batch-norm scale/shift (no conv bias)."""

    w: np.ndarray  # [Cout, Cin, 3, 3]
    bn_scale: np.ndarray  # [Cout]
    bn_shift: np.ndarray  # [Cout]


@dataclass
class StemParams:
    convs: list[ConvBnParams]  # four stages


@dataclass
class DownsampleParams:
    w: np.ndarray  # [Cout, Cin, 3, 3]
    b: np.ndarray  # [Cout]
    ln: LnParams


@dataclass
class HeadParams:
    ln: LnParams
    w: np.ndarray  # [classes, C]
    b: np.ndarray  # [classes]


# ---------------------------------------------------------------------------
# initializers


def init_ln_params(channels: int, rng: Rng, dtype=DEFAULT_DTYPE) -> LnParams:
    return LnParams(scale=rng.full(channels, 1.0, dtype), shift=rng.full(channels, 0.0, dtype))


def init_cpe_params(channels: int, rng: Rng, dtype=DEFAULT_DTYPE) -> CpeParams:
    return CpeParams(
        filt=randn((channels, CPE_KERNEL, CPE_KERNEL), rng, std=INIT_STD, dtype=dtype),
        bias=rng.full(channels, 0.0, dtype),
    )


def init_ffn_params(channels: int, rng: Rng, ratio: int = FFN_RATIO, dtype=DEFAULT_DTYPE) -> FfnParams:
    hidden = ratio * channels
    return FfnParams(
        w1=randn((hidden, channels), rng, std=INIT_STD, dtype=dtype),
        b1=rng.full(hidden, 0.0, dtype),
        w2=randn((channels, hidden), rng, std=INIT_STD, dtype=dtype),
        b2=rng.full(channels, 0.0, dtype),
    )


def init_block_params(cfg: S3AConfig, rng: Rng, ratio: int = FFN_RATIO, dtype=DEFAULT_DTYPE) -> BlockParams:
    C = cfg.channels
    return BlockParams(
        cpe=init_cpe_params(C, rng, dtype=dtype),
        ln1=init_ln_params(C, rng, dtype=dtype),
        s3a=init_s3a_params(cfg, rng, dtype=dtype),
        ln2=init_ln_params(C, rng, dtype=dtype),
        ffn=init_ffn_params(C, rng, ratio=ratio, dtype=dtype),
    )


def init_stem_params(out_channels: int, rng: Rng, in_channels: int = 3, dtype=DEFAULT_DTYPE) -> StemParams:
    if out_channels % 2:
        raise ConfigError(f"stem output channels must be even, got {out_channels}")
    mid = out_channels // 2
    widths = [(in_channels, mid), (mid, mid), (mid, mid), (mid, out_channels)]
    convs = [
        ConvBnParams(
            w=randn((co, ci, 3, 3), rng, std=INIT_STD, dtype=dtype),
            bn_scale=rng.full(co, 1.0, dtype),
            bn_shift=rng.full(co, 0.0, dtype),
        )
        for ci, co in widths
    ]
    return StemParams(convs=convs)


def init_downsample_params(cin: int, cout: int, rng: Rng, dtype=DEFAULT_DTYPE) -> DownsampleParams:
    return DownsampleParams(
        w=randn((cout, cin, 3, 3), rng, std=INIT_STD, dtype=dtype),
        b=rng.full(cout, 0.0, dtype),
        ln=init_ln_params(cout, rng, dtype=dtype),
    )


def init_head_params(channels: int, classes: int, rng: Rng, dtype=DEFAULT_DTYPE) -> HeadParams:
    return HeadParams(
        ln=init_ln_params(channels, rng, dtype=dtype),
        w=randn((classes, channels), rng, std=INIT_STD, dtype=dtype),
        b=rng.full(classes, 0.0, dtype),
    )


# ---------------------------------------------------------------------------
# forward passes


def cpe_forward(x: np.ndarray, p: CpeParams) -> np.ndarray:
    """Residual depthwise 3x3 positional encoding."""
    return x + depthwise_forward(x, p.filt, p.bias)


def ffn_forward(x: np.ndarray, p: FfnParams) -> np.ndarray:
    C, H, W = x.shape
    h = gelu(p.w1 @ x.reshape(C, H * W) + p.b1[:, None])
    return (p.w2 @ h + p.b2[:, None]).reshape(-1, H, W)


def ssvit_block(x: np.ndarray, p: BlockParams, cfg: S3AConfig) -> np.ndarray:
    """One backbone block: CPE, attention, and FFN, each residual."""
    x = cpe_forward(x, p.cpe)
    y = x + s3a_forward(layernorm(x, p.ln1.scale, p.ln1.shift), p.s3a, cfg)[0]
    z = y + ffn_forward(layernorm(y, p.ln2.scale, p.ln2.shift), p.ffn)
    return z


def stem_forward(x: np.ndarray, p: StemParams) -> np.ndarray:
    """Four 3x3 convolutions (STEM_STRIDES), scale/shift + GELU after each."""
    for conv, s in zip(p.convs, STEM_STRIDES):
        x = conv2d(x, conv.w, b=None, stride=s, padding=1)
        x = x * conv.bn_scale[:, None, None] + conv.bn_shift[:, None, None]
        x = gelu(x)
    return x


def downsample_forward(x: np.ndarray, p: DownsampleParams) -> np.ndarray:
    """Dense 3x3 stride-2 convolution followed by channel layer-norm."""
    y = conv2d(x, p.w, b=p.b, stride=2, padding=1)
    return layernorm(y, p.ln.scale, p.ln.shift)
