"""Validation suites: every numerical claim the library makes, checked
against an independent route.

Each suite compares the fast implementation to a reference that shares
no index machinery with it — brute-force point-set attention, dense
full attention, straight-line single-stage composition, closed-form
counts, finite differences — and returns a CheckResult with the
measured worst error, the tolerance, and the case count. The CLI
`check` command and the acceptance tests both run these functions.
"""
from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import (
    BlockParams,
    CpeParams,
    FfnParams,
    LnParams,
    ssvit_block,
)
from .errors import (
    ConfigError,
    MagicError,
    ManifestError,
    PayloadSizeError,
    SSAttnError,
    TruncatedPayloadError,
)
from .io import (
    load_checkpoint,
    load_model_checkpoint,
    load_tensor,
    save_model_checkpoint,
    save_tensor,
    tensor_to_bytes,
)
from .kernel import (
    NeighborhoodSpec,
    clamped_lattice,
    effective_kernel,
    kernel_forward,
)
from .layer import (
    S3AConfig,
    S3AParams,
    depthwise_forward,
    resolved_strides,
    s3a_backward,
    s3a_forward,
)
from .model import (
    MODEL_PRESETS,
    ModelConfig,
    build_model,
    config_to_dict,
    count_flops,
    count_params,
    model_forward,
    param_items,
)
from .oracle import axis_points, dense_attention, fd_gradient, oracle_lce, oracle_s3a
from .tensor import Rng

PARAM_TARGETS = {"ssvit-t": 15e6, "ssvit-s": 27e6, "ssvit-b": 57e6, "ssvit-l": 100e6}
FLOP_TARGET_T224 = 2.4e9

# wall-clock budgets (seconds) the acceptance suite holds each check to
BUDGETS = {
    "params": 1.0,
    "flops": 1.0,
    "oracle": 120.0,
    "degeneracy": 30.0,
    "gradients": 180.0,
    "lattice": 60.0,
    "normalization": 60.0,
    "equivariance": 60.0,
    "identity": 30.0,
    "io": 30.0,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    max_err: float | None
    tol: float | None
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "cases": self.cases,
            "max_err": self.max_err,
            "tol": self.tol,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
        }


def _gen(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _random_layer(cfg: S3AConfig, g: np.random.Generator, dtype, spread: float = 0.35) -> S3AParams:
    """Layer parameters with random weights AND biases, for stress tests."""
    C = cfg.channels

    def t(*shape):
        return g.normal(0.0, spread, size=shape).astype(dtype)

    return S3AParams(
        w_qkv=t(3 * C, C),
        b_qkv=t(3 * C),
        w_out=t(C, C),
        b_out=t(C),
        lce_filt=t(C, 5, 5) if cfg.lce else None,
        lce_bias=t(C) if cfg.lce else None,
    )


def _cast_layer(params: S3AParams, dtype) -> S3AParams:
    return S3AParams(
        w_qkv=params.w_qkv.astype(dtype),
        b_qkv=params.b_qkv.astype(dtype),
        w_out=params.w_out.astype(dtype),
        b_out=params.b_out.astype(dtype),
        lce_filt=None if params.lce_filt is None else params.lce_filt.astype(dtype),
        lce_bias=None if params.lce_bias is None else params.lce_bias.astype(dtype),
    )


# ---------------------------------------------------------------------------
# criterion: parameter counts


def check_params(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Analytic parameter totals of the four presets vs their targets."""
    t0 = time.perf_counter()
    tol = 0.10 if tol is None else tol
    detail, worst = {}, 0.0
    for name, target in PARAM_TARGETS.items():
        total = count_params(MODEL_PRESETS[name]).total()
        dev = abs(total - target) / target
        worst = max(worst, dev)
        detail[name] = {"total": int(total), "target": int(target), "rel_dev": round(dev, 4)}
    totals = [detail[n]["total"] for n in ("ssvit-t", "ssvit-s", "ssvit-b", "ssvit-l")]
    monotone = all(a < b for a, b in zip(totals, totals[1:]))
    detail["monotone_t_s_b_l"] = monotone
    return CheckResult(
        "params", worst <= tol and monotone, len(PARAM_TARGETS), worst, tol,
        time.perf_counter() - t0, detail,
    )


# ---------------------------------------------------------------------------
# criterion: FLOP counts


def check_flops(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """MAC total for the smallest preset at 224x224, itemized per stage."""
    t0 = time.perf_counter()
    tol = 0.15 if tol is None else tol
    tree = count_flops(MODEL_PRESETS["ssvit-t"], 224, 224)
    total = tree.total()
    dev = abs(total - FLOP_TARGET_T224) / FLOP_TARGET_T224
    detail = {
        "ssvit-t@224": {
            "total": int(total),
            "target": int(FLOP_TARGET_T224),
            "rel_dev": round(dev, 4),
            "breakdown": {c.name: int(c.total()) for c in tree.children},
        },
        # informational, no bound: stem/head conventions dominate the
        # uncertainty for the wider variants
        "ssvit-b@224": int(count_flops(MODEL_PRESETS["ssvit-b"], 224, 224).total()),
        "ssvit-l@224": int(count_flops(MODEL_PRESETS["ssvit-l"], 224, 224).total()),
    }
    return CheckResult("flops", dev <= tol, 1, dev, tol, time.perf_counter() - t0, detail)


# ---------------------------------------------------------------------------
# criterion: oracle equivalence


def check_oracle(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Layer forward vs the brute-force point-set reference."""
    t0 = time.perf_counter()
    n_cases = 200 if cases is None else cases
    tol64 = 1e-6 if tol is None else tol
    tol32 = 1e-4 if tol is None else tol * 100
    g = _gen(seed)
    forced = [(1, 1), (1, 7), (7, 1), (12, 12), (1, 12), (3, 11), (11, 3), (9, 9)]
    err64 = err32 = 0.0
    for i in range(n_cases):
        if i < len(forced):
            H, W = forced[i]
        else:
            H, W = int(g.integers(1, 13)), int(g.integers(1, 13))
        C = int(g.choice([2, 4, 8, 16]))
        heads = int(g.choice([h for h in (1, 2, 4) if C % h == 0]))
        window = int(g.choice([1, 3, 5]))
        anchors = int(g.choice([1, 3, 5, 7]))
        stride = [1, 2, 3, "auto"][int(g.integers(0, 4))]
        lce = bool(g.integers(0, 2))
        dtype = np.float64 if i % 2 == 0 else np.float32
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=anchors, stride=stride, lce=lce)
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        ref = oracle_s3a(x, params, cfg)
        err = float(np.max(np.abs(out.astype(np.float64) - ref))) if out.size else 0.0
        if dtype is np.float64:
            err64 = max(err64, err)
        else:
            err32 = max(err32, err)
    passed = err64 <= tol64 and err32 <= tol32
    return CheckResult(
        "oracle", passed, n_cases, err64, tol64, time.perf_counter() - t0,
        {"max_err_f64": err64, "tol_f64": tol64, "max_err_f32": err32, "tol_f32": tol32},
    )


# ---------------------------------------------------------------------------
# criterion: degenerate equivalences


def _dense_route(x: np.ndarray, params: S3AParams, cfg: S3AConfig) -> np.ndarray:
    """Layer output re-derived through unrestricted dense attention."""
    C, H, W = x.shape
    dh = C // cfg.heads
    wq, wk, wv = params.w_qkv[:C], params.w_qkv[C : 2 * C], params.w_qkv[2 * C :]
    bq, bk, bv = params.b_qkv[:C], params.b_qkv[C : 2 * C], params.b_qkv[2 * C :]
    merged = dense_attention(x, wq, wk, wv, scale=dh**-0.5, heads=cfg.heads, bq=bq, bk=bk, bv=bv)
    out = params.w_out.astype(np.float64) @ merged.reshape(C, H * W)
    out = out + params.b_out.astype(np.float64)[:, None]
    if cfg.lce:
        v = wv.astype(np.float64) @ x.astype(np.float64).reshape(C, H * W)
        v = v + bv.astype(np.float64)[:, None]
        lce = oracle_lce(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
        out = out + lce.reshape(C, H * W)
    return out.reshape(C, H, W)


def _single_stage_route(x: np.ndarray, params: S3AParams, cfg: S3AConfig) -> np.ndarray:
    """Layer output re-derived as ONE dilated neighborhood attention."""
    C, H, W = x.shape
    heads, dh = cfg.heads, C // cfg.heads
    xf = x.reshape(C, H * W)
    qkv = params.w_qkv @ xf + params.b_qkv[:, None]
    q, k, v = qkv[:C], qkv[C : 2 * C], qkv[2 * C :]

    def heads_of(t):
        return t.reshape(heads, dh, H, W).transpose(0, 2, 3, 1)

    spec = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    out, _ = kernel_forward(heads_of(q), heads_of(k), heads_of(v), spec, scale=dh**-0.5)
    merged = out.transpose(0, 3, 1, 2).reshape(C, H * W)
    y = params.w_out @ merged + params.b_out[:, None]
    if cfg.lce:
        lce = depthwise_forward(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
        y = y + lce.reshape(C, H * W)
    return y.reshape(C, H, W)


def check_degeneracy(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Collapsed-geometry equivalences against independent formulations."""
    t0 = time.perf_counter()
    per_suite = 20 if cases is None else max(1, cases // 2)
    tol_dense = 1e-5 if tol is None else tol
    tol_single = 1e-6 if tol is None else tol
    g = _gen(seed + 1)

    # (a) window covers the map, one anchor -> dense full attention
    err_dense = 0.0
    for i in range(per_suite):
        H = int(g.choice([1, 3, 5, 7]))
        W = int(g.choice([1, 3, 5, 7]))
        C = int(g.choice([2, 4, 8]))
        heads = int(g.choice([h for h in (1, 2) if C % h == 0]))
        dtype = np.float64 if i % 3 else np.float32
        window = max(H, W) if max(H, W) % 2 else max(H, W) + 1
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=1,
                        stride=1, lce=bool(g.integers(0, 2)))
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        ref = _dense_route(x, params, cfg)
        err_dense = max(err_dense, float(np.max(np.abs(out.astype(np.float64) - ref))))

    # (b) window 1 -> stage 1 is the identity on values
    err_single = 0.0
    for i in range(per_suite):
        H, W = int(g.integers(1, 11)), int(g.integers(1, 11))
        C = int(g.choice([2, 4, 8]))
        heads = int(g.choice([h for h in (1, 2) if C % h == 0]))
        dtype = np.float64 if i % 3 else np.float32
        anchors = int(g.choice([3, 5, 7]))
        stride = [1, 2, "auto"][int(g.integers(0, 3))]
        cfg = S3AConfig(channels=C, heads=heads, window=1, anchors=anchors,
                        stride=stride, lce=bool(g.integers(0, 2)))
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        ref = _single_stage_route(x, params, cfg)
        err_single = max(err_single, float(np.max(np.abs(out.astype(np.float64) - ref.astype(np.float64)))))

    passed = err_dense <= tol_dense and err_single <= tol_single
    return CheckResult(
        "degeneracy", passed, 2 * per_suite, max(err_dense, err_single),
        max(tol_dense, tol_single), time.perf_counter() - t0,
        {"dense_max_err": err_dense, "dense_tol": tol_dense,
         "single_stage_max_err": err_single, "single_stage_tol": tol_single},
    )


# ---------------------------------------------------------------------------
# criterion: gradient fidelity


def _layer_objective(x, params, cfg, cot) -> float:
    out, _ = s3a_forward(x, params, cfg)
    return float((out.astype(np.float64) * cot).sum())


def check_gradients(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Analytic layer backward vs central finite differences."""
    t0 = time.perf_counter()
    n_cases = 25 if cases is None else cases
    tol64 = 1e-6 if tol is None else tol
    tol32 = 1e-2 if tol is None else max(tol, 1e-2)
    step = 1e-5
    g = _gen(seed + 2)
    err64 = err32 = 0.0
    geoms = [(2, 2), (3, 3), (2, 4), (4, 2), (3, 5), (4, 4), (5, 3)]
    for i in range(n_cases):
        H, W = geoms[i % len(geoms)]
        C = int(g.choice([2, 4, 6]))
        heads = int(g.choice([h for h in (1, 2, 3) if C % h == 0]))
        window = int(g.choice([1, 3]))
        anchors = int(g.choice([1, 3]))
        stride = [1, 2, "auto"][i % 3]
        lce = i % 2 == 0
        single = i % 5 == 0  # every fifth case runs in single precision
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=anchors, stride=stride, lce=lce)
        params64 = _random_layer(cfg, g, np.float64, spread=0.4)
        x64 = g.normal(0.0, 1.0, size=(C, H, W))
        cot = g.normal(0.0, 1.0, size=(C, H, W))

        if single:
            params, x = _cast_layer(params64, np.float32), x64.astype(np.float32)
        else:
            params, x = params64, x64
        out, saved = s3a_forward(x, params, cfg)
        grads = s3a_backward(cot.astype(x.dtype), saved)

        targets = [("x", x64, "grad_x"), ("w_qkv", params64.w_qkv, "grad_w_qkv"),
                   ("b_qkv", params64.b_qkv, "grad_b_qkv"), ("w_out", params64.w_out, "grad_w_out"),
                   ("b_out", params64.b_out, "grad_b_out")]
        if lce:
            targets += [("lce_filt", params64.lce_filt, "grad_lce_filt"),
                        ("lce_bias", params64.lce_bias, "grad_lce_bias")]
        worst = 0.0
        for name, ref_tensor, grad_key in targets:
            if name == "x":
                fd = fd_gradient(lambda t: _layer_objective(t, params64, cfg, cot), ref_tensor, step)
            else:
                fd = fd_gradient(
                    lambda t, _n=name: _layer_objective(x64, replace(params64, **{_n: t}), cfg, cot),
                    ref_tensor, step,
                )
            analytic = grads[grad_key].astype(np.float64)
            rel = float(np.max(np.abs(analytic - fd)) / (np.max(np.abs(fd)) + 1e-12))
            worst = max(worst, rel)
        if single:
            err32 = max(err32, worst)
        else:
            err64 = max(err64, worst)
    passed = err64 <= tol64 and err32 <= tol32
    return CheckResult(
        "gradients", passed, n_cases, err64, tol64, time.perf_counter() - t0,
        {"max_rel_err_f64": err64, "tol_f64": tol64, "max_rel_err_f32": err32, "tol_f32": tol32,
         "fd_step": step},
    )


# ---------------------------------------------------------------------------
# criterion: lattice and stochasticity properties


def check_lattice(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Legality, cardinality constancy, interior symmetry, oracle agreement."""
    t0 = time.perf_counter()
    n_cases = 500 if cases is None else cases
    g = _gen(seed + 3)
    failures = 0
    for _ in range(n_cases):
        side = int(g.integers(1, 61))
        d = int(g.integers(1, 9))
        k = int(g.choice([1, 3, 5, 7, 9, 11]))
        center = int(g.integers(0, side))
        lat = clamped_lattice(center, side, k, d)
        ok = list(lat) == axis_points(center, side, k, d)
        ok &= lat.min() >= 0 and lat.max() <= side - 1
        ok &= len(lat) == effective_kernel(k, side, d)
        ok &= all(int(b - a) == d for a, b in zip(lat, lat[1:]))
        r = (len(lat) - 1) // 2
        if center - r * d >= 0 and center + r * d <= side - 1:
            ok &= int(lat[0]) == center - r * d  # symmetric about the center
        counts = {len(clamped_lattice(c, side, k, d)) for c in range(side)}
        ok &= len(counts) == 1
        failures += 0 if ok else 1
    return CheckResult(
        "lattice", failures == 0, n_cases, float(failures), 0.0,
        time.perf_counter() - t0, {"failures": failures},
    )


def check_normalization(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Attention rows sum to one and stay inside [0, 1]."""
    t0 = time.perf_counter()
    n_cases = 500 if cases is None else cases
    tol = 1e-6 if tol is None else tol
    g = _gen(seed + 4)
    rows, max_dev, bound_ok = 0, 0.0, True
    while rows < n_cases:
        heads = int(g.integers(1, 4))
        H, W = int(g.integers(1, 9)), int(g.integers(1, 9))
        dh = int(g.integers(1, 7))
        k = int(g.choice([1, 3, 5]))
        d = int(g.integers(1, 4))
        dtype = np.float32 if rows % 2 else np.float64
        q = (3.0 * g.normal(size=(heads, H, W, dh))).astype(dtype)
        kk = (3.0 * g.normal(size=(heads, H, W, dh))).astype(dtype)
        v = g.normal(size=(heads, H, W, dh)).astype(dtype)
        _, saved = kernel_forward(q, kk, v, NeighborhoodSpec((k, k), (d, d)))
        attn = saved.attn.astype(np.float64)
        max_dev = max(max_dev, float(np.max(np.abs(attn.sum(axis=-1) - 1.0))))
        bound_ok &= bool(attn.min() >= 0.0 and attn.max() <= 1.0 + tol)
        rows += heads * H * W
    return CheckResult(
        "normalization", max_dev <= tol and bound_ok, rows, max_dev, tol,
        time.perf_counter() - t0, {"rows": rows, "entries_in_unit_interval": bound_ok},
    )


def check_equivariance(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Translated inputs give translated outputs on interior lattices."""
    t0 = time.perf_counter()
    n_cases = 500 if cases is None else cases
    tol = 1e-6 if tol is None else tol
    g = _gen(seed + 5)
    compared, max_err = 0, 0.0
    while compared < n_cases:
        heads = int(g.integers(1, 3))
        dh = int(g.integers(2, 5))
        k = int(g.choice([1, 3, 5]))
        d = int(g.integers(1, 3))
        span = (k - 1) * d
        sh = int(g.integers(0, 3)) * d
        sw = int(g.integers(0, 3)) * d
        H = span + 1 + sh + int(g.integers(1, 4))
        W = span + 1 + sw + int(g.integers(1, 4))
        spec = NeighborhoodSpec((k, k), (d, d))
        q, kk, v = (g.normal(size=(heads, H, W, dh)) for _ in range(3))
        out1, _ = kernel_forward(q, kk, v, spec)
        # translate by (sh, sw); borders hold fresh noise, not zeros
        q2, k2, v2 = (g.normal(size=(heads, H, W, dh)) for _ in range(3))
        for src, dst in ((q, q2), (kk, k2), (v, v2)):
            dst[:, sh:, sw:, :] = src[:, : H - sh, : W - sw, :]
        out2, _ = kernel_forward(q2, k2, v2, spec)
        r = (effective_kernel(k, H, d) - 1) // 2  # == (k-1)//2 by construction
        for i in range(H):
            if i - r * d < 0 or i + r * d >= H - sh:
                continue
            for j in range(W):
                if j - r * d < 0 or j + r * d >= W - sw:
                    continue
                delta = np.abs(out2[:, i + sh, j + sw, :] - out1[:, i, j, :])
                max_err = max(max_err, float(delta.max()))
                compared += 1
    return CheckResult(
        "equivariance", max_err <= tol, compared, max_err, tol,
        time.perf_counter() - t0, {"queries_compared": compared},
    )


# ---------------------------------------------------------------------------
# criterion: residual identity and shape contract


def _zero_block(C: int, cfg: S3AConfig, ratio: int = 3) -> BlockParams:
    z = lambda *shape: np.zeros(shape, dtype=np.float64)  # noqa: E731
    return BlockParams(
        cpe=CpeParams(filt=z(C, 3, 3), bias=z(C)),
        ln1=LnParams(scale=z(C), shift=z(C)),
        s3a=S3AParams(w_qkv=z(3 * C, C), b_qkv=z(3 * C), w_out=z(C, C), b_out=z(C),
                      lce_filt=z(C, 5, 5) if cfg.lce else None,
                      lce_bias=z(C) if cfg.lce else None),
        ln2=LnParams(scale=z(C), shift=z(C)),
        ffn=FfnParams(w1=z(ratio * C, C), b1=z(ratio * C), w2=z(C, ratio * C), b2=z(C)),
    )


def tiny_config(name: str = "tiny", **overrides) -> ModelConfig:
    """A small four-stage configuration for fast structural tests."""
    base = dict(
        name=name, blocks=(1, 1, 1, 1), channels=(8, 16, 32, 64),
        heads=(1, 2, 4, 8), classes=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


def check_identity(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Zero-parameter blocks are exact identities; model shapes hold."""
    t0 = time.perf_counter()
    g = _gen(seed + 6)
    max_dev = 0.0
    runs = 0
    for C, H, W, lce in [(4, 5, 7, True), (6, 3, 3, False), (8, 1, 9, True), (2, 6, 6, True)]:
        cfg = S3AConfig(channels=C, heads=1, window=3, anchors=3, stride=1, lce=lce)
        x = g.normal(size=(C, H, W))
        z = ssvit_block(x, _zero_block(C, cfg), cfg)
        max_dev = max(max_dev, float(np.max(np.abs(z - x))))
        runs += 1

    cfg = tiny_config()
    params = build_model(cfg, Rng(seed + 7))
    geometries = [(32, 32), (32, 36), (36, 32), (40, 56), (64, 64),
                  (32, 128), (128, 32), (96, 48), (44, 76), (60, 100)]
    shape_ok = True
    for H, W in geometries:
        logits = model_forward(g.normal(size=(3, H, W)).astype(np.float32), params, cfg)
        shape_ok &= logits.shape == (cfg.classes,) and bool(np.isfinite(logits).all())
        runs += 1
    passed = max_dev == 0.0 and shape_ok
    return CheckResult(
        "identity", passed, runs, max_dev, 0.0, time.perf_counter() - t0,
        {"geometries": len(geometries), "shape_ok": shape_ok},
    )


# ---------------------------------------------------------------------------
# criterion: format round-trips


def check_io(seed: int = 0, cases: int | None = None, tol: float | None = None) -> CheckResult:
    """Bitwise tensor/checkpoint round trips; corruption raises named errors."""
    t0 = time.perf_counter()
    n_tensors = 100 if cases is None else cases
    g = _gen(seed + 8)
    ok = True
    detail: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.sst")
        for i in range(n_tensors):
            ndim = int(g.integers(0, 5))
            shape = tuple(int(g.integers(0, 7)) for _ in range(ndim))
            dtype = np.float32 if i % 2 else np.float64
            arr = g.normal(size=shape).astype(dtype)
            save_tensor(path, arr)
            back = load_tensor(path)
            ok &= back.dtype == arr.dtype and back.shape == arr.shape
            ok &= back.tobytes() == arr.tobytes()
        detail["tensor_round_trips"] = n_tensors

        ckpt_ok = 0
        for j, cfg in enumerate([
            tiny_config(),
            tiny_config(name="tiny-alt", window=1, anchors=3, stride=2, lce=False, classes=3),
        ]):
            params = build_model(cfg, Rng(seed + 20 + j), dtype=np.float64 if j else np.float32)
            cpath = os.path.join(tmp, f"m{j}.ssc")
            save_model_checkpoint(cpath, cfg, params)
            cfg2, params2 = load_model_checkpoint(cpath)
            same = config_to_dict(cfg2) == config_to_dict(cfg)
            for (n1, a1), (n2, a2) in zip(param_items(params), param_items(params2)):
                same &= n1 == n2 and a1.tobytes() == a2.tobytes() and a1.dtype == a2.dtype
            ckpt_ok += int(same)
        ok &= ckpt_ok == 2
        detail["checkpoint_round_trips"] = ckpt_ok

        # corruption must surface as the specific named error
        arr = g.normal(size=(3, 4)).astype(np.float32)
        blob = tensor_to_bytes(arr)
        corruptions = {
            "magic": (b"XXXX" + blob[4:], MagicError),
            "truncated": (blob[:-5], TruncatedPayloadError),
            "oversized": (blob + b"\x00" * 4, PayloadSizeError),
        }
        named = {}
        for label, (bad, err_type) in corruptions.items():
            bad_path = os.path.join(tmp, "bad.sst")
            with open(bad_path, "wb") as fh:
                fh.write(bad)
            try:
                load_tensor(bad_path)
                named[label] = "no error"
            except err_type:
                named[label] = err_type.__name__
            except SSAttnError as exc:
                named[label] = f"wrong error {type(exc).__name__}"
        ok &= all(v.endswith("Error") and not v.startswith("wrong") for v in named.values())

        cpath = os.path.join(tmp, "m0.ssc")
        with open(cpath, "rb") as fh:
            cblob = fh.read()
        bad_ckpt = os.path.join(tmp, "bad.ssc")
        # stomp bytes inside the trailing JSON manifest
        with open(bad_ckpt, "wb") as fh:
            fh.write(cblob[:-20] + b"\xff\xfe\xfd" + cblob[-17:])
        try:
            load_checkpoint(bad_ckpt)
            named["manifest"] = "no error"
        except ManifestError:
            named["manifest"] = "ManifestError"
        except SSAttnError as exc:
            named["manifest"] = f"wrong error {type(exc).__name__}"
        ok &= named["manifest"] == "ManifestError"
        detail["corruption_errors"] = named
    return CheckResult("io", ok, n_tensors + 2 + 4, None, None, time.perf_counter() - t0, detail)


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "params": check_params,
    "flops": check_flops,
    "oracle": check_oracle,
    "degeneracy": check_degeneracy,
    "gradients": check_gradients,
    "lattice": check_lattice,
    "normalization": check_normalization,
    "equivariance": check_equivariance,
    "identity": check_identity,
    "io": check_io,
}


def run_checks(
    names: list[str] | None = None,
    seed: int = 0,
    cases: int | None = None,
    tols: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run the named suites (all by default) and collect their results."""
    names = list(CHECKS) if not names else names
    if cases is not None and cases < 1:
        raise ConfigError(f"cases must be >= 1, got {cases}")
    tols = tols or {}
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        results.append(CHECKS[name](seed=seed, cases=cases, tol=tols.get(name)))
    return results
