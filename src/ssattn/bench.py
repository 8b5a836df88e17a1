"""Wall-clock benchmarking of model and layer forward passes.

Timing here is evidence about this process on this machine, nothing
more: reports pair every measurement with the analytic MAC count so
the reader gets effective MACs/s, and the only pass/fail criterion is
relative — per-token layer time should stay roughly constant as the
token count grows (a 2x envelope), because per-token work is constant
by construction once the anchor stride resolves.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from .layer import S3AConfig, init_s3a_params, s3a_flops, s3a_forward
from .model import ModelConfig, build_model, check_input_sides, count_flops, model_forward
from .tensor import Rng, check_int, philox

SCALING_BOUND = 2.0
SCALING_SIDES = (56, 28, 14)
SCALING_CHANNELS = 128
SCALING_HEADS = 4

SCOPE_NOTE = (
    "Published results for these architectures - ImageNet-1K top-1 accuracy "
    "(83.0 / 84.4 / 85.3 / 85.7 for the T/S/B/L variants), COCO detection AP, "
    "ADE20K segmentation mIoU, robustness-benchmark scores, and GPU throughput - "
    "depend on large-scale training and specific hardware; they cannot be "
    "reproduced by this CPU-only numerical library and are not targets here. "
    "The oracle-equivalence, degeneracy, gradient, and lattice property suites "
    "stand in as correctness evidence; timing output has no absolute target."
)


def _time_rounds(fns, repeats: int) -> list[list[float]]:
    """Wall-clock samples of each fn, one warmup call each excluded.

    Each of the `repeats` rounds calls every fn once, so a burst of host
    load lands on all of them rather than inflating one.
    """
    for fn in fns:
        fn()
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return samples


def _stats(samples: list[float], flops: int) -> dict:
    med = statistics.median(samples)
    return {
        "samples_s": [round(s, 6) for s in samples],
        "median_s": round(med, 6),
        "min_s": round(min(samples), 6),
        "flops": int(flops),
        "macs_per_s": round(flops / med) if med > 0 else None,
    }


def bench_model(cfg: ModelConfig, H: int, W: int, repeats: int, seed: int, dtype) -> dict:
    """Whole-model forward timing at one input geometry (sides as `check_input_sides` admits)."""
    check_input_sides(H, W)
    check_int(repeats, "repeats", 3)
    params = build_model(cfg, Rng(seed, dtype))
    g = philox(seed, 1)
    x = g.normal(size=(cfg.in_channels, H, W)).astype(dtype)
    (samples,) = _time_rounds([lambda: model_forward(x, params, cfg)], repeats)
    entry = _stats(samples, int(count_flops(cfg, H, W).total()))
    entry["resolution"] = [H, W]
    return entry


def bench_scaling(repeats: int = 5, seed: int = 0, dtype=np.float32) -> dict:
    """Per-token layer time across shrinking maps at fixed width.

    With auto stride the effective neighborhood sizes are identical at
    every point, so total work is linear in the token count; the check
    is that measured per-token time stays within SCALING_BOUND between
    the fastest and slowest point.
    """
    repeats, seed = check_int(repeats, "repeats", 3), check_int(seed, "seed", 0)
    cfg = S3AConfig(channels=SCALING_CHANNELS, heads=SCALING_HEADS,
                    window=3, anchors=7, stride="auto")
    params = init_s3a_params(cfg, Rng(seed + 30, dtype))
    g = philox(seed, 31)
    inputs = [g.normal(size=(cfg.channels, side, side)).astype(dtype) for side in SCALING_SIDES]
    timings = _time_rounds([lambda x=x: s3a_forward(x, params, cfg) for x in inputs], repeats)
    points = []
    for side, samples in zip(SCALING_SIDES, timings):
        med = statistics.median(samples)
        points.append({
            "side": side,
            "tokens": side * side,
            "median_s": round(med, 6),
            "per_token_s": med / (side * side),
            "flops": s3a_flops(cfg, side, side),
        })
    per_token = [p["per_token_s"] for p in points]
    envelope = max(per_token) / min(per_token)
    return {
        "channels": cfg.channels,
        "heads": cfg.heads,
        "points": points,
        "per_token_envelope": round(envelope, 4),
        "envelope_bound": SCALING_BOUND,
        "within_envelope": envelope <= SCALING_BOUND,
    }


def run_bench(cfg: ModelConfig, H: int, W: int, repeats: int, seed: int, dtype) -> dict:
    """The full benchmark document emitted by the CLI."""
    return {
        "model_forward": bench_model(cfg, H, W, repeats, seed, dtype),
        "scaling": bench_scaling(repeats, seed, dtype),
        "note": SCOPE_NOTE,
    }
