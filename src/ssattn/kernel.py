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

The clamped lattice start is monotone in the query coordinate, so on
each axis the queries that share a whole lattice row form contiguous
runs (at 56 positions, 7 anchors, dilation 8: lengths 25, 1, ..., 1,
25). Every (row run x column run) rectangle of queries shares one key
set. `run_classes` groups the rectangles by run lengths (a, b), and
each product of a query row with its lattice rows runs as one batched
GEMM per class: [heads, G, a*b, .] against the class's G key sets
[heads, G, n, dh]. That covers the scores q . K_set and the attention
gradient g . V_set (sampled dense-dense products) as well as the
aggregation P @ V_set and, in the class form below, the query gradient
D @ K_set. A class's
queries are a strided view of the map and only its G key sets are
gathered: a few large rectangles on the anchor lattice, and one key set
per query of the interior class (1, 1) on the local window.

The two transposed products, grad_k = D.T @ q and grad_v = A.T @ g,
scatter onto keys, and the key sets of neighbouring rectangles may
overlap. The plan picks one form for them and the query gradient D @ K
from structure alone. Where most queries sit in rectangles of at least
n queries (the anchor lattice: at 56 x 56, 2,500 of 3,136 queries in four
25 x 25 rectangles against 49 keys), the query gradient is a class GEMM
as above and each transposed product is one batched GEMM per class,
[n, a*b] @ [a*b, dh] per rectangle, added into the result through a
strided view of the class's key sets; where that view would hit one key
twice, its taps are split into the fewest interleaved slices that do
not. Elsewhere (the local window at sides >= 4, whose rectangles hold at
most four queries against nine keys) all three products use one CSR
matrix per sweep with n entries per row, block-diagonal over heads;
scipy.sparse is imported on the first such backward, so a forward-only
process never loads it.

None of this index work depends on the data, only on (H, W, spec). A
geometry's plan (its index map, run classes with their key sets and,
from the first backward on, either the per-class scatter slices or the
CSR column pattern for one head count) is built once and kept in a
least-recently-used cache of `_PLANS` entries; only the CSR data array
is new per call. `flat_index_map` returns the plan's index map, one
read-only array shared by every caller.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyDomainError, NumericError, ShapeError, SizeError
from .tensor import check_float_dtypes, check_int


def _odd(v, name: str) -> int:
    """v as an int if check_int admits it and it is odd; else ConfigError."""
    if check_int(v, name) % 2 == 0:
        raise ConfigError(f"{name} must be odd, got {v!r}")
    return int(v)


def _pair(value, name: str, odd: bool = False) -> tuple[int, int]:
    """Normalize an int, or a tuple, list or array of two, into a validated (h, w) pair."""
    if isinstance(value, (int, np.integer)):
        value = (value, value)
    elif not isinstance(value, (tuple, list, np.ndarray)):
        raise ConfigError(f"{name} must be an int or a pair, got {value!r}")
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an int or a pair, got {value!r}") from None
    check = _odd if odd else check_int
    return (check(a, name), check(b, name))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Kernel extent (odd) and dilation per axis (height, width); an int means both axes."""

    kernel: tuple[int, int]
    dilation: tuple[int, int] = (1, 1)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _pair(self.kernel, "kernel", odd=True))
        object.__setattr__(self, "dilation", _pair(self.dilation, "dilation"))


def effective_kernel(k: int, side: int, d: int) -> int:
    """Largest odd count <= k whose span fits on an axis of extent `side` (EmptyDomainError if < 1)."""
    fit = (check_int(side, "side", below=EmptyDomainError) - 1) // check_int(d, "d") + 1
    if fit % 2 == 0:
        fit -= 1
    return max(1, min(_odd(k, "k"), fit))


def clamped_lattice(center: int | np.ndarray, side: int, k: int, d: int = 1) -> np.ndarray:
    """Lattice of k_eff indices spaced `d` apart, translated into [0, side).

    The lattice is centered on `center` whenever the span fits there;
    near borders the whole lattice shifts (step preserved) so that all
    members stay in bounds. An int center gives [k_eff] indices, an
    array of centers gives one lattice per center, [..., k_eff]. Centers
    must be integers; side, k and d are checked as in `effective_kernel`,
    and a side past the int64 maximum is a SizeError.
    """
    k_eff = effective_kernel(k, side, d)
    if side > np.iinfo(np.int64).max:
        raise SizeError(f"side must be <= {np.iinfo(np.int64).max}, got {side}")
    side, d = int(side), int(min(d, side))  # a longer step leaves k_eff = 1: the same lattice
    c = np.asarray(center)
    if c.dtype.kind not in "iu":
        raise ConfigError(f"lattice centers must be integers, got {center!r}")
    c = c.astype(np.int64, copy=False)
    if np.any((c < 0) | (c >= side)):
        raise ShapeError(f"center {center} outside axis of extent {side}")
    start = np.clip(c - (k_eff // 2) * d, 0, side - 1 - (k_eff - 1) * d)
    return start[..., None] + d * np.arange(k_eff, dtype=np.int64)


def flat_index_map(H: int, W: int, spec: NeighborhoodSpec) -> np.ndarray:
    """[H, W, n] flattened (row*W + col) key positions per query, height-major.

    The int64 array is the geometry's cached plan's own: shared by every
    caller and read-only.
    """
    return _plan(H, W, spec).idx


class Runs(NamedTuple):
    """`count` runs of `length` positions on one axis, starting at
    `first`, `first + step`, ...; each run shares one lattice row."""

    first: int
    length: int
    step: int
    count: int


def _axis_runs(rows: np.ndarray) -> list[Runs]:
    """Group the runs of equal whole rows of `rows` ([side, n]) by length.

    Clamping makes equal-length runs evenly spaced: they are either the
    two edge runs of length r*d + 1 (r = k_eff // 2) or consecutive
    single positions. So each group is a strided view of the axis with
    the step of its first two starts.
    """
    new = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1
    bounds = [0, *new.tolist(), len(rows)]
    by_length: dict[int, list[int]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        by_length.setdefault(hi - lo, []).append(lo)
    return [
        Runs(starts[0], length, starts[1] - starts[0] if len(starts) > 1 else length, len(starts))
        for length, starts in by_length.items()
    ]


def run_classes(idx: np.ndarray) -> list[tuple[Runs, Runs]]:
    """Rectangles of queries sharing one key set, grouped by run lengths.

    `idx` is a `flat_index_map` ([H, W, n]). It is an outer sum of a
    row lattice and a column lattice, so queries (i, j) and (i + 1, j)
    share keys for every j exactly when they do at j = 0, and likewise
    along a row. Each (row group, column group) pair is one class: its
    rectangles tile the map and every query of a rectangle has the key
    set of the rectangle's first query.
    """
    cols = _axis_runs(idx[0])
    return [(r, c) for r in _axis_runs(idx[:, 0]) for c in cols]


def _firsts(runs: Runs) -> slice:
    """The first position of every run of a group."""
    return slice(runs.first, runs.first + runs.step * (runs.count - 1) + 1, runs.step)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _key_axis(lattice: np.ndarray, runs: Runs) -> tuple[Runs, int, tuple[slice, ...]]:
    """Where one axis's run group scatters onto keys: (runs, tap, slices).

    `lattice` is the axis's [side, k] clamped lattice. The returned Runs
    give run g's lattice row as `length` = k taps starting at
    `first + g * step`, `tap` apart; `slices` split the taps into the
    fewest interleaved sets on which no two (run, tap) pairs share a key.
    """
    start, k = int(lattice[runs.first, 0]), lattice.shape[1]
    step = int(lattice[runs.first + runs.step, 0]) - start if runs.count > 1 else 0
    tap = int(lattice[0, 1] - lattice[0, 0]) if k > 1 else 0
    # one tap per slice (m = k) always qualifies: a group's runs start at distinct keys
    m = next(
        m for m in range(1, k + 1)
        if all(
            len({g * step + t * tap for g in range(runs.count) for t in range(t0, k, m)})
            == runs.count * len(range(t0, k, m))
            for t0 in range(m)
        )
    )
    return Runs(start, k, step, runs.count), tap, tuple(slice(t0, k, m) for t0 in range(m))


class _Plan:
    """The data-independent index work of one geometry, built once.

    `idx` is the [H, W, n] index map. `classes` holds, per run class,
    its row runs, column runs and the [Gr, Gc, n] key sets of its
    rectangles; both are read-only. `on_csr` picks the form of the
    backward's three sweep-matrix products (see `_sweep_products`) from
    structure alone: per run class when most of the map's queries sit in
    rectangles of at least n queries, CSR otherwise (at 56 x 56, f32, 2
    heads, the class form takes the anchor sweep's three products from
    5.6 to 2.2 ms, and the local window's from 1.1 to 11 ms). `csr` is
    (heads, indices, indptr) of the sweep matrices for the head count of
    the latest CSR backward, None before the first, and rewritten when
    the head count changes.
    """

    def __init__(self, lh: np.ndarray, lw: np.ndarray, idx: np.ndarray):
        self.lattices = (lh, lw)
        self.idx = idx
        self.classes = [
            (rows, cols, _frozen(np.ascontiguousarray(idx[_firsts(rows), _firsts(cols)])))
            for rows, cols in run_classes(idx)
        ]
        H, W, n = idx.shape
        shared = sum(r.length * c.length * r.count * c.count
                     for r, c, _ in self.classes if r.length * c.length >= n)
        self.on_csr = 2 * shared <= H * W
        self.csr = None

    @functools.cached_property
    def scatters(self) -> list[tuple[tuple, tuple]]:
        """Per run class, the row and column `_key_axis` of its key sets."""
        lh, lw = self.lattices
        return [(_key_axis(lh, rows), _key_axis(lw, cols)) for rows, cols, _ in self.classes]

    def sweep_pattern(self, heads: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indices, indptr) of a sweep matrix over `heads` heads; see _sweep_matrix."""
        csr = self.csr
        if csr is None or csr[0] != heads:
            n = self.idx.shape[-1]
            HW = self.idx.size // n
            nnz = heads * HW * n
            itype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
            indices = (self.idx.reshape(1, -1) + HW * np.arange(heads)[:, None]).astype(itype)
            indptr = np.arange(0, nnz + 1, n, dtype=itype)
            csr = self.csr = (heads, _frozen(indices).reshape(-1), _frozen(indptr))
        return csr[1], csr[2]


# Plans kept. A model forward asks for two geometries per stage (local
# and anchor sweep), so 32 plans hold every map of four input sizes. An
# unbounded cache grows with every new input size (104 MB after 300
# ssvit-t forwards on sides drawn from 32..160); 32 plans peak at 3.9 MB
# there, 64 at 8.6 MB for a miss ratio only 3 points lower.
_PLANS = 32


# typed: a float or bool side (56.0 == 56) is its own key and fails as uncached
@functools.lru_cache(maxsize=_PLANS, typed=True)
def _plan(H: int, W: int, spec: NeighborhoodSpec) -> _Plan:
    H, W = check_int(H, "H", below=EmptyDomainError), check_int(W, "W", below=EmptyDomainError)
    lh = clamped_lattice(np.arange(H), H, spec.kernel[0], spec.dilation[0])
    lw = clamped_lattice(np.arange(W), W, spec.kernel[1], spec.dilation[1])
    # frozen before the reshape, so the map's writeable flag cannot be set back
    flat = _frozen(lh[:, None, :, None] * W + lw[None, :, None, :])
    return _Plan(_frozen(lh), _frozen(lw), flat.reshape(H, W, -1))


def _geometry_plan(H: int, W: int, spec: NeighborhoodSpec) -> _Plan:
    """The plan of (H, W, spec), asked for through the module-global
    `flat_index_map` first, so that a wrapper around it (a profiler) sees
    every use and times every build."""
    flat_index_map(H, W, spec)
    return _plan(H, W, spec)


def _class_view(t: np.ndarray, rows: Runs, cols: Runs, taps: tuple[int, int] = (1, 1)) -> np.ndarray:
    """[heads, Gr, Gc, a, b, last] view of a C-contiguous [heads, H, W, last] map.

    On each axis it holds `count` runs `step` apart from `first`, of
    `length` positions `taps` apart: a class's queries, or with a
    `_key_axis` pair, its key sets.
    """
    s0, s1, s2, s3 = t.strides
    return np.ndarray(
        (t.shape[0], rows.count, cols.count, rows.length, cols.length, t.shape[3]),
        t.dtype, t, rows.first * s1 + cols.first * s2,
        (s0, rows.step * s1, cols.step * s2, taps[0] * s1, taps[1] * s2, s3),
    )


def _lattice_matmul(
    x: np.ndarray, y: np.ndarray, plan: _Plan, sampled: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Products of each query row of x with its lattice rows of y, one GEMM per run class.

    With idx = plan.idx, sampled: out[a, i, j, t] = <x[a, i, j], y[a, idx[i, j, t]]>,
    x is [heads, H, W, dh]; otherwise out[a, i, j] = sum_t x[a, i, j, t] * y[a, idx[i, j, t]],
    x is [heads, H, W, n]. `out`, if given, is a C-contiguous result to fill.
    """
    heads, H, W, _ = x.shape
    dh = y.shape[-1]
    x = np.ascontiguousarray(x)
    yf = np.ascontiguousarray(y).reshape(heads, H * W, dh)
    if out is None:
        out = np.empty((heads, H, W, plan.idx.shape[-1] if sampled else dh), np.result_type(x, y))
    for rows, cols, keys in plan.classes:
        # [heads, Gr, Gc, n, dh]: the lattice rows of y shared by each rectangle
        ysets = np.take(yf, keys, axis=1)
        xb = _class_view(x, rows, cols)
        prod = np.matmul(
            xb.reshape(*ysets.shape[:3], -1, x.shape[-1]),
            ysets.swapaxes(-1, -2) if sampled else ysets,
        )
        _class_view(out, rows, cols)[...] = prod.reshape(xb.shape[:5] + (-1,))
    return out


def _scatter_matmul(w: np.ndarray, x: np.ndarray, plan: _Plan, out: np.ndarray) -> None:
    """The transposed lattice product, one GEMM per run class, added into out.

    With idx = plan.idx, out[a, p] += w[a, i, j, t] * x[a, i, j] over the
    (i, j, t) with idx[i, j, t] = p; w is [heads, H, W, n], x and out
    [heads, H, W, dh], all C-contiguous. Each rectangle's
    [n, a*b] @ [a*b, dh] product is added onto its key set through a
    strided view of out, one interleaved tap slice at a time, so no add
    hits a key twice.
    """
    heads, _, _, n = w.shape
    dh = x.shape[-1]
    for (rows, cols, _), ((krows, tr, rsl), (kcols, tc, csl)) in zip(plan.classes, plan.scatters):
        G = (heads, rows.count, cols.count, rows.length * cols.length)
        prod = np.matmul(
            _class_view(w, rows, cols).reshape(*G, n).swapaxes(-1, -2),
            _class_view(x, rows, cols).reshape(*G, dh),
        ).reshape(*G[:3], krows.length, kcols.length, dh)
        keys = _class_view(out, krows, kcols, (tr, tc))
        for rs in rsl:
            for cs in csl:
                sub = keys[:, :, :, rs, cs]
                sub += prod[:, :, :, rs, cs]


def _sweep_matrix(weights: np.ndarray, plan: _Plan) -> sparse.csr_array:
    """[heads*HW, heads*HW] CSR matrix of one sweep, block-diagonal over heads.

    Row a*HW + i holds weights[a, i, :] at columns a*HW + idx[i, :]
    (weights [heads, H, W, n], idx = plan.idx [H, W, n]), so its
    transpose scatters onto keys/values, border duplicates summed. Only
    the data array is new; the column pattern is the plan's.
    """
    from scipy import sparse  # only the backward needs it

    indices, indptr = plan.sweep_pattern(weights.shape[0])
    size = len(indptr) - 1
    return sparse.csr_array((weights.reshape(-1), indices, indptr), shape=(size, size))


def _sweep_products(d_scores, attn, q, k, g, plan: _Plan, out=None) -> dict[str, np.ndarray]:
    """grad_q = D @ k, grad_k = D.T @ q and grad_v = A.T @ g, D and A the sweep
    matrices of d_scores and attn.

    With out None they run on CSR. Otherwise out holds the three results,
    [heads, H, W, dh] each, grad_k and grad_v zeroed, and they run per run
    class into it.
    """
    if out is None:
        flat = (g.size // g.shape[-1], g.shape[-1])
        D = _sweep_matrix(d_scores, plan)
        A = _sweep_matrix(attn, plan)
        return {
            "grad_q": (D @ k.reshape(flat)).reshape(g.shape),
            "grad_k": (D.T @ q.reshape(flat)).reshape(g.shape),
            "grad_v": (A.T @ g.reshape(flat)).reshape(g.shape),
        }
    _scatter_matmul(attn, g, plan, out["grad_v"])
    _scatter_matmul(d_scores, np.ascontiguousarray(q), plan, out["grad_k"])
    _lattice_matmul(d_scores, k, plan, sampled=False, out=out["grad_q"])
    return out


def _check_qkhw(t: np.ndarray, name: str) -> tuple[int, int, int, int]:
    if t.ndim != 4 or t.shape[0] < 1 or t.shape[3] < 1:
        raise ShapeError(f"{name} must be [heads, H, W, dh] with heads, dh >= 1, got shape {t.shape}")
    return t.shape


def neighborhood_scores(q: np.ndarray, k: np.ndarray, spec: NeighborhoodSpec) -> np.ndarray:
    """Per-query dot products with the keys on the clamped lattice.

    scores[a, i, j, n] = <q[a, i, j, :], k[a, p(n), :]> with p
    enumerating the lattice height-major. Callers fold any scale into k.
    """
    check_float_dtypes("neighborhood_scores", q=q, k=k)
    _, H, W, _ = _check_qkhw(q, "q")
    if k.shape != q.shape:
        raise ShapeError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    return _lattice_matmul(q, k, _geometry_plan(H, W, spec), sampled=True)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis.

    The row maxima are a running maximum over the last axis's planes:
    exact, and far faster than a reduction over rows of 9 or 49. A row
    holding NaN or +Inf, or only -Inf, has a non-finite sum and raises
    NumericError.
    """
    check_float_dtypes("softmax_rows", scores=scores)
    if scores.ndim == 0 or scores.shape[-1] == 0:
        raise ShapeError(f"softmax_rows needs rows of at least one score, got shape {scores.shape}")
    top = scores[..., 0].copy()
    for t in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., t], out=top)
    with np.errstate(invalid="ignore"):  # inf - inf: caught by the row sums
        e = scores - top[..., None]
    np.exp(e, out=e)
    sums = e.sum(axis=-1, keepdims=True)
    if not np.isfinite(sums).all():
        raise NumericError("softmax over NaN or Inf scores")
    # A fresh result, not e divided in place: returning the buffer allocated
    # while `scores` is alive makes glibc trim and refault about 8 MB more heap
    # per S3A train step (~2000 more page faults, ~5 ms more system time).
    return e / sums


def neighborhood_aggregate(
    attn: np.ndarray, v: np.ndarray, spec: NeighborhoodSpec
) -> np.ndarray:
    """Attention-weighted sum of lattice values, same enumeration as scores."""
    check_float_dtypes("neighborhood_aggregate", v=v, attn=attn)
    heads, H, W, dh = _check_qkhw(v, "v")
    plan = _geometry_plan(H, W, spec)
    n = plan.idx.shape[-1]
    if attn.shape != (heads, H, W, n):
        raise ShapeError(
            f"attn shape {attn.shape} does not match values {(heads, H, W, n)}"
        )
    return _lattice_matmul(attn, v, plan, sampled=False)


@dataclass
class KernelSaved:
    """Forward activations needed by kernel_backward."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    spec: NeighborhoodSpec


def kernel_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, spec: NeighborhoodSpec
) -> tuple[np.ndarray, KernelSaved]:
    """scores (plain q . k) -> softmax -> aggregate, returning output and saved state."""
    check_float_dtypes("kernel_forward", q=q, k=k, v=v)
    attn = softmax_rows(neighborhood_scores(q, k, spec))
    out = neighborhood_aggregate(attn, v, spec)
    return out, KernelSaved(q=q, k=k, v=v, attn=attn, spec=spec)


def kernel_backward(grads_out: np.ndarray, saved: KernelSaved) -> dict[str, np.ndarray]:
    """Analytic gradients of the scores -> softmax -> aggregate composite."""
    q, k, v, attn, spec = saved.q, saved.k, saved.v, saved.attn, saved.spec
    check_float_dtypes("kernel_backward", v=v, grads_out=grads_out)
    _, H, W, _ = q.shape
    if grads_out.shape != v.shape:
        raise ShapeError(f"grads_out shape {grads_out.shape} != values {v.shape}")
    plan = _geometry_plan(H, W, spec)
    grads_out = np.ascontiguousarray(grads_out)  # once: d_attn and grad_v both read it
    # The class form's results come before its transients, so that freeing those
    # leaves no hole under the results the caller keeps.
    shape, dtype = grads_out.shape, grads_out.dtype
    out = None if plan.on_csr else {
        "grad_q": np.empty(shape, dtype), "grad_k": np.zeros(shape, dtype), "grad_v": np.zeros(shape, dtype)
    }

    # d_scores = attn * (d_attn - rowsum(attn * d_attn)), in place on the fresh d_attn
    d_scores = _lattice_matmul(grads_out, v, plan, sampled=True)
    d_scores -= np.einsum("...n,...n->...", attn, d_scores)[..., None]
    d_scores *= attn

    return _sweep_products(d_scores, attn, q, k, grads_out, plan, out)


def kernel_flops(H: int, W: int, heads: int, dh: int, spec: NeighborhoodSpec) -> int:
    """Multiply-accumulate count: scores plus aggregation, softmax excluded."""
    H, W = check_int(H, "H", below=EmptyDomainError), check_int(W, "W", below=EmptyDomainError)
    keh = effective_kernel(spec.kernel[0], H, spec.dilation[0])
    kew = effective_kernel(spec.kernel[1], W, spec.dilation[1])
    return 2 * H * W * check_int(heads, "heads") * check_int(dh, "dh") * keh * kew
