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

GELU is x * Phi(x) with the exact normal CDF, never the tanh
approximation. float64 evaluates scipy's erf, importing scipy.special
on its first call, so a float32 process never loads it. float32 evaluates a
rational erf in float32, in place over cache-sized chunks; below x = -1
it switches to an erfc form, so the negative tail keeps its relative
accuracy instead of cancelling in 1 + erf. Its written bound, against
an exact reference: at most 8 ulp of |GELU(x)| for x >= -1, and
relative error at most 3e-5 for -12 <= x < -1 (below that the result
nears float32's underflow).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .layer import (
    INIT_STD,
    S3AConfig,
    S3AParams,
    _tap_window,
    depthwise_forward,
    init_s3a_params,
    s3a_forward,
)
from .tensor import F32, Rng, check_float_dtypes, check_int

LN_EPS = 1e-6
CPE_KERNEL = 3
FFN_RATIO = 3
STEM_STRIDES = (2, 1, 1, 2)  # overall stride 4
_SQRT2 = float(np.sqrt(2.0))

# float32 GELU: elements per in-place chunk (five float32 buffers of it
# stay in a 1 MB L2), and the x below which Phi takes the erfc form.
GELU_CHUNK = 1 << 15
GELU_TAIL_X = -1.0

# erf(z) = z P(z^2) / Q(z^2) for |z| <= 4, in float32 exactly +-1 beyond:
# Eigen's generic_fast_erf_float (as used by XLA), highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
# Rewritten in x = sqrt2 z with GELU's 1/2 folded in, so that
# GELU(x) = x * (1/2 + x P'(x^2) / Q'(x^2)) with x clamped to +-4 sqrt2.
_GELU_P = tuple(np.float32(c / (2 * _SQRT2 * 2.0 ** (len(_ERF_P) - 1 - k))) for k, c in enumerate(_ERF_P))
_GELU_Q = tuple(np.float32(c / 2.0 ** (len(_ERF_Q) - 1 - k)) for k, c in enumerate(_ERF_Q))
_GELU_CLAMP = np.float32(4 * _SQRT2)
# erfc(z) = t exp(-z^2 + R(t)), t = 1 / (1 + z/2), z >= 0, with fractional
# error below 1.2e-7 (Numerical Recipes' erfcc), highest power first.
_ERFC_R = tuple(np.float32(c) for c in (
    0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
    -0.18628806, 0.09678418, 0.37409196, 1.00002368, -1.26551223))
# exp(-z^2) is 0 in float32 for x below this, and x * x stays finite
_TAIL_FLOOR = np.float32(-20.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error-linear unit x * Phi(x); never the tanh form.

    float32 runs the chunked rational erf (bound in the module
    docstring); float64 evaluates scipy's erf.
    """
    check_float_dtypes("gelu", x=x)
    if x.dtype == F32:
        return _gelu_f32(x)
    from scipy.special import erf  # only float64 needs it

    return 0.5 * x * (1.0 + erf(x / x.dtype.type(_SQRT2)))


def _horner(coefs: tuple, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = the polynomial with `coefs` (highest power first) at v, in place."""
    np.multiply(v, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= v
        out += c
    return out


def _gelu_f32(x: np.ndarray) -> np.ndarray:
    """GELU of a float32 array, GELU_CHUNK elements at a time, erfc form below GELU_TAIL_X."""
    out = np.empty(x.shape, F32)
    src, dst = x.reshape(-1), out.reshape(-1)  # reshape copies a non-contiguous x
    scratch = np.empty((3, min(src.size, GELU_CHUNK)), F32)
    for lo in range(0, src.size, GELU_CHUNK):
        xs, p = src[lo:lo + GELU_CHUNK], dst[lo:lo + GELU_CHUNK]
        xc, x2, q = scratch[:, :xs.size]
        np.clip(xs, -_GELU_CLAMP, _GELU_CLAMP, out=xc)
        np.multiply(xc, xc, out=x2)
        _horner(_GELU_P, x2, p)
        p *= xc
        p /= _horner(_GELU_Q, x2, q)
        p += np.float32(0.5)
        p *= xs
        tail = np.flatnonzero(xs < GELU_TAIL_X)
        if tail.size:
            xt = xs[tail]
            p[tail] = xt * _phi_tail(xt)
    return out


def _phi_tail(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(z) / 2 with z = -x / sqrt2, for float32 x < 0."""
    x = np.maximum(x, _TAIL_FLOOR)
    t = x * np.float32(-0.5 / _SQRT2)
    t += np.float32(1.0)
    np.reciprocal(t, out=t)
    r = _horner(_ERFC_R, t, np.empty_like(t))
    r -= np.float32(0.5) * (x * x)  # z^2 from x: one rounding, not two
    np.exp(r, out=r)
    r *= t
    r *= np.float32(0.5)
    return r


def layernorm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize each spatial site over the channel axis of a [C, H, W] map.

    One fresh array, x minus its site means, is normalized, scaled and
    shifted in place. A variance that is not finite (in float32, once
    |x| passes about 1.8e19 the squares overflow) raises NumericError
    rather than returning the shift.
    """
    check_float_dtypes("layernorm", x=x, scale=scale, shift=shift)
    if x.ndim != 3 or scale.shape != (x.shape[0],) or shift.shape != (x.shape[0],):
        raise ShapeError(f"layernorm shapes: x {x.shape}, scale {scale.shape}, shift {shift.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        d = x - x.mean(axis=0)
        var = np.einsum("chw,chw->hw", d, d) / x.shape[0]
    if not np.isfinite(var).all():
        raise NumericError("layernorm: the variance over channels is not finite")
    var += x.dtype.type(LN_EPS)
    d /= np.sqrt(var)
    d *= scale[:, None, None]
    d += shift[:, None, None]
    return d


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
    stride, padding = check_int(stride, "stride", 1, ShapeError), check_int(padding, "padding", 0, ShapeError)
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


def init_ln_params(channels: int, rng: Rng) -> LnParams:
    return LnParams(scale=rng.full(channels, 1.0), shift=rng.full(channels, 0.0))


def init_cpe_params(channels: int, rng: Rng) -> CpeParams:
    return CpeParams(
        filt=rng.normal((channels, CPE_KERNEL, CPE_KERNEL), std=INIT_STD),
        bias=rng.full(channels, 0.0),
    )


def init_ffn_params(channels: int, rng: Rng, ratio: int = FFN_RATIO) -> FfnParams:
    hidden = ratio * channels
    return FfnParams(
        w1=rng.normal((hidden, channels), std=INIT_STD),
        b1=rng.full(hidden, 0.0),
        w2=rng.normal((channels, hidden), std=INIT_STD),
        b2=rng.full(channels, 0.0),
    )


def init_block_params(cfg: S3AConfig, rng: Rng, ratio: int = FFN_RATIO) -> BlockParams:
    C = cfg.channels
    return BlockParams(
        cpe=init_cpe_params(C, rng),
        ln1=init_ln_params(C, rng),
        s3a=init_s3a_params(cfg, rng),
        ln2=init_ln_params(C, rng),
        ffn=init_ffn_params(C, rng, ratio=ratio),
    )


def init_stem_params(out_channels: int, rng: Rng, in_channels: int = 3) -> StemParams:
    if out_channels % 2:
        raise ConfigError(f"stem output channels must be even, got {out_channels}")
    mid = out_channels // 2
    widths = [(in_channels, mid), (mid, mid), (mid, mid), (mid, out_channels)]
    convs = [
        ConvBnParams(
            w=rng.normal((co, ci, 3, 3), std=INIT_STD),
            bn_scale=rng.full(co, 1.0),
            bn_shift=rng.full(co, 0.0),
        )
        for ci, co in widths
    ]
    return StemParams(convs=convs)


def init_downsample_params(cin: int, cout: int, rng: Rng) -> DownsampleParams:
    return DownsampleParams(
        w=rng.normal((cout, cin, 3, 3), std=INIT_STD),
        b=rng.full(cout, 0.0),
        ln=init_ln_params(cout, rng),
    )


def init_head_params(channels: int, classes: int, rng: Rng) -> HeadParams:
    return HeadParams(
        ln=init_ln_params(channels, rng),
        w=rng.normal((classes, channels), std=INIT_STD),
        b=rng.full(classes, 0.0),
    )


# ---------------------------------------------------------------------------
# forward passes


def cpe_forward(x: np.ndarray, p: CpeParams) -> np.ndarray:
    """Residual depthwise 3x3 positional encoding."""
    return x + depthwise_forward(x, p.filt, p.bias)


def ffn_forward(x: np.ndarray, p: FfnParams) -> np.ndarray:
    check_float_dtypes("ffn_forward", x=x, **vars(p))
    C, H, W = x.shape
    h = p.w1 @ x.reshape(C, H * W)
    h += p.b1[:, None]
    out = p.w2 @ gelu(h)
    out += p.b2[:, None]
    return out.reshape(-1, H, W)


def ssvit_block(x: np.ndarray, p: BlockParams, cfg: S3AConfig) -> np.ndarray:
    """One backbone block: CPE, attention, and FFN, each residual."""
    x = cpe_forward(x, p.cpe)
    y = x + s3a_forward(layernorm(x, p.ln1.scale, p.ln1.shift), p.s3a, cfg)[0]
    z = y + ffn_forward(layernorm(y, p.ln2.scale, p.ln2.shift), p.ffn)
    return z


def stem_forward(x: np.ndarray, p: StemParams) -> np.ndarray:
    """Four 3x3 convolutions (STEM_STRIDES), scale/shift + GELU after each."""
    check_float_dtypes("stem_forward", x=x, **{
        f"convs[{i}].{name}": getattr(conv, name)
        for i, conv in enumerate(p.convs) for name in ("bn_scale", "bn_shift")})
    for conv, s in zip(p.convs, STEM_STRIDES):
        x = conv2d(x, conv.w, b=None, stride=s, padding=1) * conv.bn_scale[:, None, None]
        x += conv.bn_shift[:, None, None]
        x = gelu(x)
    return x


def downsample_forward(x: np.ndarray, p: DownsampleParams) -> np.ndarray:
    """Dense 3x3 stride-2 convolution followed by channel layer-norm."""
    y = conv2d(x, p.w, b=p.b, stride=2, padding=1)
    return layernorm(y, p.ln.scale, p.ln.shift)
