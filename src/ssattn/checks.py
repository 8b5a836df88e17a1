"""Validation suites: every numerical claim the library makes, checked
against an independent route.

Each suite compares the fast implementation to a reference that shares
no index machinery with it — brute-force point-set attention, dense
full attention, straight-line single-stage composition, closed-form
counts, finite differences. A suite is one function registered with
`@_suite(name, budget, **tols)`, where each keyword names one of the
suite's bounds and gives its fixed tolerance. Its body takes
(seed, cases, err), calls `err(label, value)` for every error it
measures, and returns (cases, detail). The decorator enters it in
`CHECKS` and its wall-clock budget in `BUDGETS`, in definition order,
and wraps it so that every call, direct or through `run_checks`,
raises ConfigError unless `seed` is an int >= 0 and `cases` an integer
>= 1, times the body, and returns a named CheckResult. The wrapper
alone decides `passed`: it keeps the largest value recorded per label
(0.0 if none was), lets a NaN propagate, and passes the suite only
when every bound's worst value is <= its tolerance, so a NaN fails.
A pass/fail condition is recorded as a count against a tolerance of 0.
The CLI `check` command and the acceptance tests both run these
functions.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .blocks import BlockParams, init_block_params, ssvit_block
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
    s3a_param_shapes,
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
    tensor_items,
)
from .oracle import axis_points, dense_attention, fd_gradient, oracle_lce, oracle_s3a
from .tensor import Rng, check_int, philox

PARAM_TARGETS = {"ssvit-t": 15e6, "ssvit-s": 27e6, "ssvit-b": 57e6, "ssvit-l": 100e6}
FLOP_TARGET_T224 = 2.4e9


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    bounds: dict[str, dict[str, float]]  # label -> {"max_err", "tol"}
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # strict JSON has no NaN or Infinity: a non-finite error is written as "nan" or "inf"
        bounds = {k: {**b, "max_err": b["max_err"] if math.isfinite(b["max_err"]) else str(b["max_err"])}
                  for k, b in self.bounds.items()}
        return {**asdict(self), "bounds": bounds, "seconds": round(self.seconds, 4)}


CHECKS: dict[str, Callable[..., CheckResult]] = {}
# wall-clock budgets (seconds) the acceptance suite holds each check to;
# criterion 6 holds lattice, normalization and equivariance to 60 s together
BUDGETS: dict[str, float] = {}


def _suite(name: str, budget: float, **tols: float):
    """Register a suite body under name, with its budget and its bounds {label: tol}, as a checked,
    timed and judged suite."""

    def register(body):
        def suite(seed: int = 0, cases: int | None = None) -> CheckResult:
            check_int(seed, "seed", 0)
            if cases is not None:
                check_int(cases, "cases")
            worst = dict.fromkeys(tols, 0.0)

            def err(label: str, value: float) -> None:
                worst[label] = float(np.maximum(worst[label], value))  # a NaN propagates

            t0 = time.perf_counter()
            n, detail = body(seed, cases, err)
            seconds = time.perf_counter() - t0
            bounds = {k: {"max_err": worst[k], "tol": tol} for k, tol in tols.items()}
            passed = all(worst[k] <= tol for k, tol in tols.items())
            return CheckResult(name, passed, n, bounds, seconds, detail)

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        CHECKS[name], BUDGETS[name] = suite, budget
        return suite

    return register


def _random_layer(cfg: S3AConfig, g: np.random.Generator, dtype, spread: float = 0.35) -> S3AParams:
    """Layer parameters with random weights AND biases, drawn in field order, for stress tests."""
    shapes = s3a_param_shapes(cfg).items()
    return S3AParams(**{k: g.normal(0.0, spread, size=s).astype(dtype) for k, s in shapes})


def _cast_layer(params: S3AParams, dtype) -> S3AParams:
    return S3AParams(**{k: a.astype(dtype) for k, a in vars(params).items()})


# ---------------------------------------------------------------------------
# criterion: parameter counts


@_suite("params", 1.0, rel_dev=0.10, out_of_order=0)
def check_params(seed, cases, err):
    """Analytic parameter totals of the four presets vs their targets."""
    detail = {}
    for name, target in PARAM_TARGETS.items():
        total = count_params(MODEL_PRESETS[name]).total()
        dev = abs(total - target) / target
        err("rel_dev", dev)
        detail[name] = {"total": int(total), "target": int(target), "rel_dev": round(dev, 4)}
    totals = [detail[n]["total"] for n in ("ssvit-t", "ssvit-s", "ssvit-b", "ssvit-l")]
    err("out_of_order", sum(a >= b for a, b in zip(totals, totals[1:])))
    return len(PARAM_TARGETS), detail


# ---------------------------------------------------------------------------
# criterion: FLOP counts


@_suite("flops", 1.0, rel_dev=0.15)
def check_flops(seed, cases, err):
    """MAC total for the smallest preset at 224x224, itemized per stage."""
    tree = count_flops(MODEL_PRESETS["ssvit-t"], 224, 224)
    total = tree.total()
    dev = abs(total - FLOP_TARGET_T224) / FLOP_TARGET_T224
    err("rel_dev", dev)
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
    return 1, detail


# ---------------------------------------------------------------------------
# criterion: oracle equivalence


@_suite("oracle", 120.0, f64=1e-6, f32=1e-4)
def check_oracle(seed, cases, err):
    """Layer forward vs the brute-force point-set reference."""
    n_cases = 200 if cases is None else cases
    g = philox(seed)
    forced = [(1, 1), (1, 7), (7, 1), (12, 12), (1, 12), (3, 11), (11, 3), (9, 9)]
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
        dtype = np.float64 if i % 2 == 0 else np.float32
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=anchors, stride=stride)
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        ref = oracle_s3a(x, params, cfg)
        err("f64" if dtype is np.float64 else "f32", np.max(np.abs(out.astype(np.float64) - ref)))
    return n_cases, {}


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
    v = wv.astype(np.float64) @ x.astype(np.float64).reshape(C, H * W)
    v = v + bv.astype(np.float64)[:, None]
    lce = oracle_lce(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
    return (out + lce.reshape(C, H * W)).reshape(C, H, W)


def _single_stage_route(x: np.ndarray, params: S3AParams, cfg: S3AConfig) -> np.ndarray:
    """Layer output re-derived as ONE dilated neighborhood attention."""
    C, H, W = x.shape
    heads, dh = cfg.heads, C // cfg.heads
    xf = x.reshape(C, H * W)
    qkv = params.w_qkv @ xf + params.b_qkv[:, None]
    q, k, v = qkv[:C], qkv[C : 2 * C], qkv[2 * C :]
    k = k * x.dtype.type(dh**-0.5)  # folded into the keys, as the layer does

    def heads_of(t):
        return t.reshape(heads, dh, H, W).transpose(0, 2, 3, 1)

    spec = NeighborhoodSpec(cfg.anchors, resolved_strides(cfg, H, W))
    out, _ = kernel_forward(heads_of(q), heads_of(k), heads_of(v), spec)
    merged = out.transpose(0, 3, 1, 2).reshape(C, H * W)
    y = params.w_out @ merged + params.b_out[:, None]
    lce = depthwise_forward(v.reshape(C, H, W), params.lce_filt, params.lce_bias)
    return (y + lce.reshape(C, H * W)).reshape(C, H, W)


@_suite("degeneracy", 30.0, dense=1e-5, single_stage=1e-6)
def check_degeneracy(seed, cases, err):
    """Collapsed-geometry equivalences against independent formulations."""
    per_suite = 20 if cases is None else max(1, cases // 2)
    g = philox(seed, 1)

    # (a) window covers the map, one anchor -> dense full attention
    for i in range(per_suite):
        H = int(g.choice([1, 3, 5, 7]))
        W = int(g.choice([1, 3, 5, 7]))
        C = int(g.choice([2, 4, 8]))
        heads = int(g.choice([h for h in (1, 2) if C % h == 0]))
        dtype = np.float64 if i % 3 else np.float32
        window = max(H, W) if max(H, W) % 2 else max(H, W) + 1
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=1, stride=1)
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        err("dense", np.max(np.abs(out.astype(np.float64) - _dense_route(x, params, cfg))))

    # (b) window 1 -> stage 1 is the identity on values
    for i in range(per_suite):
        H, W = int(g.integers(1, 11)), int(g.integers(1, 11))
        C = int(g.choice([2, 4, 8]))
        heads = int(g.choice([h for h in (1, 2) if C % h == 0]))
        dtype = np.float64 if i % 3 else np.float32
        anchors = int(g.choice([3, 5, 7]))
        stride = [1, 2, "auto"][int(g.integers(0, 3))]
        cfg = S3AConfig(channels=C, heads=heads, window=1, anchors=anchors, stride=stride)
        params = _random_layer(cfg, g, dtype)
        x = g.normal(0.0, 1.0, size=(C, H, W)).astype(dtype)
        out, _ = s3a_forward(x, params, cfg)
        ref = _single_stage_route(x, params, cfg)
        err("single_stage", np.max(np.abs(out.astype(np.float64) - ref.astype(np.float64))))
    return 2 * per_suite, {}


# ---------------------------------------------------------------------------
# criterion: gradient fidelity


def _layer_objective(x, params, cfg, cot) -> float:
    out, _ = s3a_forward(x, params, cfg)
    return float((out.astype(np.float64) * cot).sum())


@_suite("gradients", 180.0, f64=1e-6, f32=1e-2)
def check_gradients(seed, cases, err):
    """Analytic layer backward vs central finite differences."""
    n_cases = 25 if cases is None else cases
    step = 1e-5
    g = philox(seed, 2)
    geoms = [(2, 2), (3, 3), (2, 4), (4, 2), (3, 5), (4, 4), (5, 3)]
    for i in range(n_cases):
        H, W = geoms[i % len(geoms)]
        C = int(g.choice([2, 4, 6]))
        heads = int(g.choice([h for h in (1, 2, 3) if C % h == 0]))
        window = int(g.choice([1, 3]))
        anchors = int(g.choice([1, 3]))
        stride = [1, 2, "auto"][i % 3]
        single = i % 5 == 0  # every fifth case runs in single precision
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=anchors, stride=stride)
        params64 = _random_layer(cfg, g, np.float64, spread=0.4)
        x64 = g.normal(0.0, 1.0, size=(C, H, W))
        cot = g.normal(0.0, 1.0, size=(C, H, W))

        if single:
            params, x = _cast_layer(params64, np.float32), x64.astype(np.float32)
        else:
            params, x = params64, x64
        out, saved = s3a_forward(x, params, cfg)
        grads = s3a_backward(cot.astype(x.dtype), saved)

        targets = [("x", x64), *vars(params64).items()]
        for name, ref_tensor in targets:
            if name == "x":
                fd = fd_gradient(lambda t: _layer_objective(t, params64, cfg, cot), ref_tensor, step)
            else:
                fd = fd_gradient(
                    lambda t, _n=name: _layer_objective(x64, replace(params64, **{_n: t}), cfg, cot),
                    ref_tensor, step,
                )
            analytic = grads[f"grad_{name}"].astype(np.float64)
            err("f32" if single else "f64", np.max(np.abs(analytic - fd)) / (np.max(np.abs(fd)) + 1e-12))
    return n_cases, {"fd_step": step}


# ---------------------------------------------------------------------------
# criterion: lattice and stochasticity properties


@_suite("lattice", 60.0, failures=0)
def check_lattice(seed, cases, err):
    """Legality, cardinality constancy, interior symmetry, oracle agreement."""
    n_cases = 500 if cases is None else cases
    g = philox(seed, 3)
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
    err("failures", failures)
    return n_cases, {}


@_suite("normalization", 60.0, row_sum=1e-6, outside_unit=0)
def check_normalization(seed, cases, err):
    """Attention rows sum to one and stay inside [0, 1]."""
    n_cases = 500 if cases is None else cases
    g = philox(seed, 4)
    rows = 0
    while rows < n_cases:
        heads = int(g.integers(1, 4))
        H, W = int(g.integers(1, 9)), int(g.integers(1, 9))
        dh = int(g.integers(1, 7))
        k = int(g.choice([1, 3, 5]))
        d = int(g.integers(1, 4))
        dtype = np.float32 if rows % 2 else np.float64
        q = (3.0 * g.normal(size=(heads, H, W, dh))).astype(dtype)
        kk = (3.0 * dh**-0.5 * g.normal(size=(heads, H, W, dh))).astype(dtype)
        v = g.normal(size=(heads, H, W, dh)).astype(dtype)
        _, saved = kernel_forward(q, kk, v, NeighborhoodSpec((k, k), (d, d)))
        attn = saved.attn.astype(np.float64)
        err("row_sum", np.max(np.abs(attn.sum(axis=-1) - 1.0)))
        # entries outside [0, 1 + 1e-6], a NaN among them
        err("outside_unit", np.count_nonzero(~((attn >= 0.0) & (attn <= 1.0 + 1e-6))))
        rows += heads * H * W
    return rows, {"rows": rows}


@_suite("equivariance", 60.0, shift=1e-6)
def check_equivariance(seed, cases, err):
    """Translated inputs give translated outputs on interior lattices."""
    n_cases = 500 if cases is None else cases
    g = philox(seed, 5)
    compared = 0
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
        scale = dh**-0.5  # folded into the keys, as the layer does
        out1, _ = kernel_forward(q, kk * scale, v, spec)
        # translate by (sh, sw); borders hold fresh noise, not zeros
        q2, k2, v2 = (g.normal(size=(heads, H, W, dh)) for _ in range(3))
        for src, dst in ((q, q2), (kk, k2), (v, v2)):
            dst[:, sh:, sw:, :] = src[:, : H - sh, : W - sw, :]
        out2, _ = kernel_forward(q2, k2 * scale, v2, spec)
        r = (effective_kernel(k, H, d) - 1) // 2  # == (k-1)//2 by construction
        for i in range(H):
            if i - r * d < 0 or i + r * d >= H - sh:
                continue
            for j in range(W):
                if j - r * d < 0 or j + r * d >= W - sw:
                    continue
                err("shift", np.max(np.abs(out2[:, i + sh, j + sw, :] - out1[:, i, j, :])))
                compared += 1
    return compared, {"queries_compared": compared}


# ---------------------------------------------------------------------------
# criterion: residual identity and shape contract


def _zero_block(cfg: S3AConfig) -> BlockParams:
    params = init_block_params(cfg, Rng(0, np.float64))
    for _, arr in tensor_items("", params):
        arr[...] = 0.0
    return params


def tiny_config(name: str = "tiny", **overrides) -> ModelConfig:
    """A small four-stage configuration for fast structural tests."""
    base = dict(
        name=name, blocks=(1, 1, 1, 1), channels=(8, 16, 32, 64),
        heads=(1, 2, 4, 8), classes=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


@_suite("identity", 30.0, deviation=0, bad_geometries=0)
def check_identity(seed, cases, err):
    """Zero-parameter blocks are exact identities; model shapes hold."""
    g = philox(seed, 6)
    blocks = [(4, 5, 7), (6, 3, 3), (8, 1, 9), (2, 6, 6)]
    for C, H, W in blocks:
        cfg = S3AConfig(channels=C, heads=1, window=3, anchors=3, stride=1)
        x = g.normal(size=(C, H, W))
        err("deviation", np.max(np.abs(ssvit_block(x, _zero_block(cfg), cfg) - x)))

    cfg = tiny_config()
    params = build_model(cfg, Rng(seed + 7))
    geometries = [(32, 32), (32, 36), (36, 32), (40, 56), (64, 64),
                  (32, 128), (128, 32), (96, 48), (44, 76), (60, 100)]
    logits = [model_forward(g.normal(size=(3, H, W)).astype(np.float32), params, cfg) for H, W in geometries]
    err("bad_geometries", sum(z.shape != (cfg.classes,) or not np.isfinite(z).all() for z in logits))
    return len(blocks) + len(geometries), {"geometries": len(geometries)}


# ---------------------------------------------------------------------------
# criterion: format round-trips


@_suite("io", 30.0, failures=0)
def check_io(seed, cases, err):
    """Bitwise tensor/checkpoint round trips; corruption raises named errors."""
    n_tensors = 100 if cases is None else cases
    g = philox(seed, 8)
    failures = 0
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
            failures += back.dtype != arr.dtype or back.shape != arr.shape or back.tobytes() != arr.tobytes()
        detail["tensor_round_trips"] = n_tensors

        ckpt_ok = 0
        for j, cfg in enumerate([
            tiny_config(),
            tiny_config(name="tiny-alt", blocks=(2, 1, 1, 2), classes=3),
        ]):
            params = build_model(cfg, Rng(seed + 20 + j, np.float64 if j else np.float32))
            cpath = os.path.join(tmp, f"m{j}.ssc")
            save_model_checkpoint(cpath, cfg, params)
            cfg2, params2 = load_model_checkpoint(cpath)
            same = config_to_dict(cfg2) == config_to_dict(cfg)
            for (n1, a1), (n2, a2) in zip(param_items(params), param_items(params2)):
                same &= n1 == n2 and a1.tobytes() == a2.tobytes() and a1.dtype == a2.dtype
            ckpt_ok += int(same)
        failures += 2 - ckpt_ok
        detail["checkpoint_round_trips"] = ckpt_ok

        # corruption must surface as the specific named error
        blob = tensor_to_bytes(g.normal(size=(3, 4)).astype(np.float32))
        with open(os.path.join(tmp, "m0.ssc"), "rb") as fh:
            cblob = fh.read()
        corruptions = {
            "magic": (load_tensor, b"XXXX" + blob[4:], MagicError),
            "truncated": (load_tensor, blob[:-5], TruncatedPayloadError),
            "oversized": (load_tensor, blob + b"\x00" * 4, PayloadSizeError),
            # stomp bytes inside the trailing JSON manifest
            "manifest": (load_checkpoint, cblob[:-20] + b"\xff\xfe\xfd" + cblob[-17:], ManifestError),
            # a lying blob length walks the first tensor past the manifest
            "inflated": (load_checkpoint, cblob[:4] + struct.pack("<Q", 10**9) + cblob[12:], TruncatedPayloadError),
        }
        named = {}
        bad_path = os.path.join(tmp, "bad")
        for label, (loader, bad, err_type) in corruptions.items():
            with open(bad_path, "wb") as fh:
                fh.write(bad)
            try:
                loader(bad_path)
                named[label] = "no error"
            except err_type:
                named[label] = err_type.__name__
            except SSAttnError as exc:
                named[label] = f"wrong error {type(exc).__name__}"
        failures += sum(named[label] != err_type.__name__ for label, (_, _, err_type) in corruptions.items())
        detail["corruption_errors"] = named
    err("failures", failures)
    return n_tensors + 2 + len(corruptions), detail


def run_checks(
    names: list[str] | None = None, seed: int = 0, cases: int | None = None
) -> list[CheckResult]:
    """Run the named suites (all for None) and collect their results.

    Every name is checked before the first suite runs; an empty list is refused.
    """
    if isinstance(names, str) or not isinstance(names, Iterable | None):
        raise ConfigError(f"names must be a list of suite names, got {names!r}")
    names = list(CHECKS if names is None else names)
    if not names:
        raise ConfigError("names must name at least one suite; None runs them all")
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    return [CHECKS[name](seed=seed, cases=cases) for name in names]
