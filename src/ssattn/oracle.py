"""Brute-force reference implementations.

Everything in this module favors transparency over speed and computes
in float64 regardless of input precision: neighborhoods are built as
explicit point sets by shifting an ideal centered lattice back into
bounds, attention is evaluated query by query with scalar dot products
and per-row softmax, and the depthwise convolution visits every tap in
Python loops. None of it shares index machinery with the fast path, so
agreement between the two is evidence, not tautology.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EmptyDomainError, NumericError


def axis_points(center: int, side: int, k: int, d: int = 1) -> list[int]:
    """Lattice membership on one axis, derived by shrink-then-shift.

    Start from the ideal lattice of k points spaced d apart centered on
    `center`; drop symmetric pairs until the span fits in the axis;
    then translate the whole set just enough to pull it inside [0, side).
    """
    if side < 1:
        raise EmptyDomainError(f"axis of extent {side} has no lattice")
    count = k
    while count > 1 and (count - 1) * d + 1 > side:
        count -= 2
    pts = [center + (j - count // 2) * d for j in range(count)]
    lo, hi = pts[0], pts[-1]
    if lo < 0:
        pts = [p - lo for p in pts]
    elif hi > side - 1:
        pts = [p - (hi - side + 1) for p in pts]
    return pts


def _pair(value) -> tuple[int, int]:
    return (value, value) if isinstance(value, int) else (value[0], value[1])


def oracle_kernel(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kernel: tuple[int, int],
    dilation: tuple[int, int] = (1, 1),
    scale: float | None = None,
) -> np.ndarray:
    """Neighborhood attention evaluated one query at a time, in float64."""
    heads, H, W, dh = q.shape
    q64 = q.astype(np.float64)
    k64 = k.astype(np.float64)
    v64 = v.astype(np.float64)
    if scale is None:
        scale = dh**-0.5
    out = np.zeros((heads, H, W, dh), dtype=np.float64)
    for a in range(heads):
        for i in range(H):
            for j in range(W):
                pts = [
                    (p, r)
                    for p in axis_points(i, H, kernel[0], dilation[0])
                    for r in axis_points(j, W, kernel[1], dilation[1])
                ]
                scores = [scale * float(np.dot(q64[a, i, j], k64[a, p, r])) for p, r in pts]
                m = max(scores)
                weights = [math.exp(s - m) for s in scores]
                z = sum(weights)
                acc = np.zeros(dh, dtype=np.float64)
                for wgt, (p, r) in zip(weights, pts):
                    acc += (wgt / z) * v64[a, p, r]
                out[a, i, j] = acc
    return out


def oracle_lce(x: np.ndarray, filt: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Depthwise convolution with zero padding, every tap visited explicitly."""
    C, H, W = x.shape
    kh, kw = filt.shape[1], filt.shape[2]
    oh, ow = kh // 2, kw // 2
    x64 = x.astype(np.float64)
    out = np.zeros((C, H, W), dtype=np.float64)
    for c in range(C):
        for i in range(H):
            for j in range(W):
                s = 0.0
                for u in range(kh):
                    for w in range(kw):
                        ii, jj = i + u - oh, j + w - ow
                        if 0 <= ii < H and 0 <= jj < W:
                            s += float(filt[c, u, w]) * x64[c, ii, jj]
                out[c, i, j] = s + float(bias[c])
    return out


def oracle_s3a(x: np.ndarray, params, cfg) -> np.ndarray:
    """Full layer reference: projections, both stages, output projection, LCE.

    Mirrors the layer's definition, not its implementation: the score
    scale is applied at score time rather than folded into the keys,
    each stage runs through oracle_kernel on point sets, and the auto
    stride rule is re-derived locally.
    """
    C, H, W = x.shape
    heads = cfg.heads
    dh = C // heads
    xf = x.astype(np.float64).reshape(C, H * W)
    qkv = params.w_qkv.astype(np.float64) @ xf + params.b_qkv.astype(np.float64)[:, None]
    q, k, v = qkv[:C], qkv[C : 2 * C], qkv[2 * C :]

    def heads_of(t):
        return t.reshape(heads, dh, H, W).transpose(0, 2, 3, 1)

    qh, kh, vh = heads_of(q), heads_of(k), heads_of(v)
    scale = dh**-0.5
    out1 = oracle_kernel(qh, kh, vh, _pair(cfg.window), (1, 1), scale=scale)
    ah, aw = _pair(cfg.anchors)
    if cfg.stride == "auto":
        sh, sw = max(1, H // ah), max(1, W // aw)
    else:
        sh, sw = _pair(cfg.stride)
    out2 = oracle_kernel(qh, kh, out1, (ah, aw), (sh, sw), scale=scale)
    merged = out2.transpose(0, 3, 1, 2).reshape(C, H * W)
    w_out = params.w_out.astype(np.float64)
    out = w_out @ merged + params.b_out.astype(np.float64)[:, None]
    lce = oracle_lce(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
    return (out + lce.reshape(C, H * W)).reshape(C, H, W)


def dense_attention(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    scale: float | None = None,
    heads: int = 1,
    bq: np.ndarray | None = None,
    bk: np.ndarray | None = None,
    bv: np.ndarray | None = None,
) -> np.ndarray:
    """Unrestricted attention over the whole map, per head, in float64.

    Projects x with the given matrices (optional biases), attends every
    token to every token, and returns the merged [C, H, W] result
    without any output projection.
    """
    C, H, W = x.shape
    dh = C // heads
    xf = x.astype(np.float64).reshape(C, H * W)

    def project(w, b):
        y = w.astype(np.float64) @ xf
        if b is not None:
            y = y + b.astype(np.float64)[:, None]
        return y.reshape(heads, dh, H * W).transpose(0, 2, 1)  # [heads, HW, dh]

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    if scale is None:
        scale = dh**-0.5
    scores = scale * (q @ k.transpose(0, 2, 1))
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ v  # [heads, HW, dh]
    return out.transpose(0, 2, 1).reshape(C, H, W)


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, element by element."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        fp = f(x)
        flat[idx] = orig - step
        fm = f(x)
        flat[idx] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("non-finite objective during finite differences")
        gflat[idx] = (fp - fm) / (2.0 * step)
    return grad
