"""Clamped, optionally dilated 2D neighborhood attention.

Each query position attends to a fixed-cardinality lattice of key/value
positions: `kernel` points per axis spaced `dilation` apart, centered on
the query and translated (never masked or zero-padded) to stay inside
the feature map near borders. Every row of the attention map therefore
mixes exactly k_eff_h * k_eff_w real positions and stays stochastic.

When the requested kernel cannot fit on an axis, it shrinks to the
largest odd count whose span (k_eff - 1) * dilation + 1 still fits,
with a floor of one. The lattice is enumerated height-major (all
column offsets of the first row, then the next row, ...); the backward
pass and the brute-force oracle both depend on that order, so it is
part of the public contract.

Both stages of the sparse-scan layer are instances of this one kernel:
the local-window stage uses dilation 1, the anchor stage uses
dilation equal to the anchor stride.

Aggregation and the backward apply a sweep as a sparse matrix with n
entries per row (one CSR matrix per call, block-diagonal over heads);
only the scores and the attention gradient gather [heads, HW, n, dh]
blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, EmptyDomainError, NumericError, ShapeError, StateError


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Kernel extent and dilation per axis (height, width)."""

    kernel: tuple[int, int]
    dilation: tuple[int, int] = (1, 1)

    def __post_init__(self):
        kh, kw = self.kernel
        dh, dw = self.dilation
        if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError(f"kernel extents must be positive odd, got {self.kernel}")
        if dh < 1 or dw < 1:
            raise ConfigError(f"dilation steps must be >= 1, got {self.dilation}")


def effective_kernel(k: int, side: int, d: int) -> int:
    """Largest odd count <= k whose span fits on an axis of extent `side`."""
    if side < 1:
        raise EmptyDomainError(f"axis of extent {side} has no lattice")
    fit = (side - 1) // d + 1
    if fit % 2 == 0:
        fit -= 1
    return max(1, min(k, fit))


def clamped_lattice(center: int | np.ndarray, side: int, k: int, d: int = 1) -> np.ndarray:
    """Lattice of k_eff indices spaced `d` apart, translated into [0, side).

    The lattice is centered on `center` whenever the span fits there;
    near borders the whole lattice shifts (step preserved) so that all
    members stay in bounds. An int center gives [k_eff] indices, an
    array of centers gives one lattice per center, [..., k_eff].
    """
    if side < 1:
        raise EmptyDomainError(f"axis of extent {side} has no lattice")
    if k < 1 or k % 2 == 0 or d < 1:
        raise ConfigError(f"need odd k >= 1 and d >= 1, got k={k} d={d}")
    c = np.asarray(center, dtype=np.int64)
    if np.any((c < 0) | (c >= side)):
        raise ShapeError(f"center {center} outside axis of extent {side}")
    k_eff = effective_kernel(k, side, d)
    start = np.clip(c - (k_eff // 2) * d, 0, side - 1 - (k_eff - 1) * d)
    return start[..., None] + d * np.arange(k_eff, dtype=np.int64)


def flat_index_map(H: int, W: int, spec: NeighborhoodSpec) -> np.ndarray:
    """[H, W, n] flattened (row*W + col) key positions per query, height-major."""
    lh = clamped_lattice(np.arange(H), H, spec.kernel[0], spec.dilation[0])
    lw = clamped_lattice(np.arange(W), W, spec.kernel[1], spec.dilation[1])
    flat = lh[:, None, :, None] * W + lw[None, :, None, :]
    return flat.reshape(H, W, -1)


def _sweep_matrix(weights: np.ndarray, idx: np.ndarray) -> sparse.csr_array:
    """[heads*HW, heads*HW] CSR matrix of one sweep, block-diagonal over heads.

    Row a*HW + i holds weights[a, i, :] at columns a*HW + idx[i, :], so
    `_sweep_matrix(attn, idx) @ v` is the aggregation and its transpose
    scatters back onto keys/values (border duplicates summed).
    """
    heads, HW, n = weights.shape
    cols = (idx.reshape(1, HW * n) + HW * np.arange(heads)[:, None]).reshape(-1)
    indptr = np.arange(0, heads * HW * n + 1, n)
    return sparse.csr_array(
        (weights.reshape(-1), cols, indptr), shape=(heads * HW, heads * HW)
    )


def _check_qkhw(t: np.ndarray, name: str) -> tuple[int, int, int, int]:
    if t.ndim != 4:
        raise ShapeError(f"{name} must be [heads, H, W, dh], got shape {t.shape}")
    return t.shape


def neighborhood_scores(
    q: np.ndarray, k: np.ndarray, spec: NeighborhoodSpec, scale: float | None = None
) -> np.ndarray:
    """Per-query dot products with the scaled keys on the clamped lattice.

    scores[a, i, j, n] = <q[a, i, j, :], scale * k[a, p(n), :]> with p
    enumerating the lattice height-major. Default scale is dh ** -0.5.
    """
    heads, H, W, dh = _check_qkhw(q, "q")
    if k.shape != q.shape:
        raise ShapeError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    if scale is None:
        scale = dh**-0.5
    idx = flat_index_map(H, W, spec)
    kg = k.reshape(heads, H * W, dh)[:, idx.reshape(H * W, -1), :]
    if scale != 1.0:
        kg = kg * q.dtype.type(scale)
    # batched matvec: [heads, HW, n, dh] @ [heads, HW, dh, 1]
    scores = np.matmul(kg, q.reshape(heads, H * W, dh)[..., None])[..., 0]
    return scores.reshape(heads, H, W, -1)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    if np.isnan(scores).any():
        raise NumericError("softmax over NaN scores")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def neighborhood_aggregate(
    attn: np.ndarray, v: np.ndarray, spec: NeighborhoodSpec
) -> np.ndarray:
    """Attention-weighted sum of lattice values, same enumeration as scores."""
    heads, H, W, dh = _check_qkhw(v, "v")
    idx = flat_index_map(H, W, spec)
    n = idx.shape[-1]
    if attn.shape != (heads, H, W, n):
        raise ShapeError(
            f"attn shape {attn.shape} does not match values {(heads, H, W, n)}"
        )
    A = _sweep_matrix(attn.reshape(heads, H * W, n), idx.reshape(H * W, n))
    return (A @ v.reshape(heads * H * W, dh)).reshape(heads, H, W, dh)


@dataclass
class KernelSaved:
    """Forward activations needed by kernel_backward."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    spec: NeighborhoodSpec
    scale: float


def kernel_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, spec: NeighborhoodSpec,
    scale: float | None = None,
) -> tuple[np.ndarray, KernelSaved]:
    """scores -> softmax -> aggregate, returning output and saved state."""
    if scale is None:
        scale = q.shape[-1] ** -0.5
    attn = softmax_rows(neighborhood_scores(q, k, spec, scale))
    out = neighborhood_aggregate(attn, v, spec)
    return out, KernelSaved(q=q, k=k, v=v, attn=attn, spec=spec, scale=scale)


def kernel_backward(grads_out: np.ndarray, saved: KernelSaved) -> dict[str, np.ndarray]:
    """Analytic gradients of the scores -> softmax -> aggregate composite."""
    if saved is None:
        raise StateError("kernel_backward called without saved state")
    for field in ("q", "k", "v", "attn", "spec"):
        if getattr(saved, field, None) is None:
            raise StateError(f"saved state is missing '{field}'")
    q, k, v, attn, spec, scale = (
        saved.q, saved.k, saved.v, saved.attn, saved.spec, saved.scale,
    )
    heads, H, W, dh = q.shape
    if grads_out.shape != v.shape:
        raise ShapeError(f"grads_out shape {grads_out.shape} != values {v.shape}")
    HW = H * W
    idx = flat_index_map(H, W, spec).reshape(HW, -1)
    n = idx.shape[-1]

    g = grads_out.reshape(heads, HW, dh)
    af = attn.reshape(heads, HW, n)
    vg = v.reshape(heads, HW, dh)[:, idx, :]  # [heads, HW, n, dh]

    d_attn = np.matmul(vg, g[..., None])[..., 0]  # [heads, HW, n]
    inner = (af * d_attn).sum(axis=-1, keepdims=True)
    d_scores = af * (d_attn - inner)
    if scale != 1.0:
        d_scores *= q.dtype.type(scale)  # scores use the scaled keys

    D = _sweep_matrix(d_scores, idx)
    A = _sweep_matrix(af, idx)
    flat = (heads * HW, dh)
    return {
        "grad_q": (D @ k.reshape(flat)).reshape(q.shape),
        "grad_k": (D.T @ q.reshape(flat)).reshape(q.shape),
        "grad_v": (A.T @ g.reshape(flat)).reshape(q.shape),
    }


def kernel_flops(H: int, W: int, heads: int, dh: int, spec: NeighborhoodSpec) -> int:
    """Multiply-accumulate count: scores plus aggregation, softmax excluded."""
    keh = effective_kernel(spec.kernel[0], H, spec.dilation[0])
    kew = effective_kernel(spec.kernel[1], W, spec.dilation[1])
    return 2 * H * W * heads * dh * keh * kew
