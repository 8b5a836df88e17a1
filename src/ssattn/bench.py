"""The per-token scaling check of one S3A layer (criterion 9).

Timing here is evidence about this process on this machine, nothing
more, and whole-model speed is timed by `perfbench/run.py`. The only
pass/fail criterion is relative: per-token layer time should stay
roughly constant as the token count grows (a 2x envelope), because
per-token work is constant by construction once the anchor stride
resolves.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from .layer import S3AConfig, init_s3a_params, s3a_flops, s3a_forward
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
    """Wall-clock samples of each fn, after `repeats` untimed rounds.

    Each round calls every fn once, so a burst of host load lands on all
    of them rather than inflating one. The untimed rounds bring threaded
    BLAS from an idle pause up to steady state, which one call per fn
    does not: after a pause the first second or so of threaded work can
    run several times slower.
    """
    for _ in range(repeats):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return samples


def bench_scaling(repeats: int = 5, seed: int = 0) -> dict:
    """Per-token float32 layer time across shrinking maps at fixed width.

    With auto stride the effective neighborhood sizes are identical at
    every point, so total work is linear in the token count; the check
    is that measured per-token time stays within SCALING_BOUND between
    the fastest and slowest point.
    """
    repeats, seed = check_int(repeats, "repeats", 3), check_int(seed, "seed", 0)
    cfg = S3AConfig(channels=SCALING_CHANNELS, heads=SCALING_HEADS,
                    window=3, anchors=7, stride="auto")
    params = init_s3a_params(cfg, Rng(seed + 30))
    g = philox(seed, 31)
    inputs = [g.normal(size=(cfg.channels, side, side)).astype(np.float32) for side in SCALING_SIDES]
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
