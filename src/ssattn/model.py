"""Four-stage SSViT backbone assembly and analytic cost accounting.

A model is a convolutional stem (overall stride 4), four stages of
sparse-scan attention blocks with dense stride-2 downsampling between
them, and a classification head (layer-norm, global average pool,
linear). Channel width doubles roughly per stage; every stage uses the
same window/anchor geometry, with the anchor stride resolved per axis
from the stage's own feature-map size when left on `auto`.

`count_params` and `count_flops` are closed-form and must agree with
the tensors `build_model` actually allocates; the test-suite holds the
two routes together. Multiply-accumulates use the 1 MAC = 1 FLOP
convention and exclude softmax, GELU, normalization, and bias adds.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .blocks import (
    BlockParams,
    DownsampleParams,
    HeadParams,
    StemParams,
    block_param_count,
    downsample_forward,
    downsample_param_count,
    head_param_count,
    init_block_params,
    init_downsample_params,
    init_head_params,
    init_stem_params,
    layernorm,
    ssvit_block,
    stem_forward,
    stem_param_count,
)
from .errors import ConfigError, DTypeError, NumericError, ShapeError, StateError
from .layer import S3AConfig, s3a_flops
from .report import ReportNode
from .tensor import DEFAULT_DTYPE, Rng

NUM_STAGES = 4
STEM_STRIDE = 4


_OVERRIDE_KEYS = {"window", "anchors", "stride", "lce"}


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one backbone variant.

    Window/anchor/stride settings apply to all stages unless a stage
    entry in `stage_overrides` (a 4-tuple of dicts or None) replaces
    them for that stage.
    """

    name: str
    blocks: tuple[int, int, int, int]
    channels: tuple[int, int, int, int]
    heads: tuple[int, int, int, int]
    ffn_ratio: int = 3
    window: int | tuple[int, int] = 3
    anchors: int | tuple[int, int] = 7
    stride: int | str | tuple[int, int] = "auto"
    lce: bool = True
    classes: int = 1000
    in_channels: int = 3
    stage_overrides: tuple = (None, None, None, None)

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(self.lce, bool):
            raise ConfigError(f"name must be a str and lce a bool, got {self.name!r}, {self.lce!r}")
        for field_name in ("blocks", "channels", "heads", "stage_overrides"):
            value = getattr(self, field_name)
            if not isinstance(value, (tuple, list)) or len(value) != NUM_STAGES:
                raise ConfigError(f"{field_name} must have {NUM_STAGES} entries, got {value!r}")
            object.__setattr__(self, field_name, tuple(value))
        counts = self.blocks + self.channels + self.heads
        for v in counts + (self.ffn_ratio, self.classes, self.in_channels):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"counts, widths and ratios must be ints >= 1, got {v!r}")
        for ov in self.stage_overrides:
            if ov is not None and (not isinstance(ov, dict) or set(ov) - _OVERRIDE_KEYS):
                raise ConfigError(
                    f"stage override must be None or a dict of {sorted(_OVERRIDE_KEYS)}, got {ov!r}"
                )
        if any(a >= b for a, b in zip(self.channels, self.channels[1:])):
            raise ConfigError(f"channels must strictly increase, got {self.channels}")
        for c, h in zip(self.channels, self.heads):
            if c % h:
                raise ConfigError(f"channels {c} not divisible by heads {h}")
        for i in range(NUM_STAGES):
            self.stage_s3a(i)  # surface bad window/anchors/stride now

    def stage_s3a(self, i: int) -> S3AConfig:
        """Attention configuration of stage i (0-based)."""
        kw = {
            "window": self.window,
            "anchors": self.anchors,
            "stride": self.stride,
            "lce": self.lce,
        }
        if self.stage_overrides[i]:
            kw.update(self.stage_overrides[i])
        return S3AConfig(channels=self.channels[i], heads=self.heads[i], **kw)


MODEL_PRESETS: dict[str, ModelConfig] = {
    "ssvit-t": ModelConfig("ssvit-t", (2, 2, 9, 2), (64, 128, 256, 512), (2, 4, 8, 16)),
    "ssvit-s": ModelConfig("ssvit-s", (3, 5, 18, 4), (64, 128, 256, 512), (2, 4, 8, 16)),
    "ssvit-b": ModelConfig("ssvit-b", (4, 9, 25, 9), (80, 160, 320, 512), (5, 5, 10, 16)),
    "ssvit-l": ModelConfig("ssvit-l", (4, 9, 25, 9), (112, 224, 448, 640), (7, 7, 14, 20)),
}


def get_config(name: str, **overrides) -> ModelConfig:
    """Look up a preset by name, optionally overriding fields."""
    if name not in MODEL_PRESETS:
        raise ConfigError(f"unknown model {name!r}; known: {sorted(MODEL_PRESETS)}")
    cfg = MODEL_PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class ModelParams:
    stem: StemParams
    stages: list[list[BlockParams]]
    downsamples: list[DownsampleParams]
    head: HeadParams


def build_model(cfg: ModelConfig, rng: Rng, dtype=DEFAULT_DTYPE) -> ModelParams:
    """Allocate and initialize every tensor of the backbone."""
    stem = init_stem_params(cfg.channels[0], rng, in_channels=cfg.in_channels, dtype=dtype)
    stages = [
        [init_block_params(cfg.stage_s3a(i), rng, ratio=cfg.ffn_ratio, dtype=dtype) for _ in range(cfg.blocks[i])]
        for i in range(NUM_STAGES)
    ]
    downsamples = [
        init_downsample_params(cfg.channels[i], cfg.channels[i + 1], rng, dtype=dtype)
        for i in range(NUM_STAGES - 1)
    ]
    head = init_head_params(cfg.channels[-1], cfg.classes, rng, dtype=dtype)
    return ModelParams(stem=stem, stages=stages, downsamples=downsamples, head=head)


def stage_sides(H: int, W: int) -> list[tuple[int, int]]:
    """Feature-map sides of the four stages for an H x W input."""
    h, w = -(-H // 2), -(-W // 2)  # stem conv 1
    h, w = -(-h // 2), -(-w // 2)  # stem conv 4
    sides = [(h, w)]
    for _ in range(NUM_STAGES - 1):
        h, w = -(-h // 2), -(-w // 2)
        sides.append((h, w))
    return sides


def model_forward(x: np.ndarray, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """Classify one [in_channels, H, W] image; returns [classes] logits.

    Input sides must be at least 32 and divisible by 4 so that every
    stage has a nonempty feature map of predictable extent. The image
    must be finite and have the parameters' dtype; it is never cast.
    """
    if x.ndim != 3 or x.shape[0] != cfg.in_channels:
        raise ShapeError(f"expected [{cfg.in_channels}, H, W] input, got shape {x.shape}")
    for side in (x.shape[1], x.shape[2]):
        if side < 32 or side % 4:
            raise ShapeError(f"input sides must be >= 32 and divisible by 4, got {x.shape[1]}x{x.shape[2]}")
    if x.dtype != params.head.w.dtype:
        raise DTypeError(f"input image is {x.dtype} but the parameters are {params.head.w.dtype}")
    if not np.isfinite(x).all():
        raise NumericError("input image contains NaN or Inf")
    y = stem_forward(x, params.stem)
    for i in range(NUM_STAGES):
        scfg = cfg.stage_s3a(i)
        for bp in params.stages[i]:
            y = ssvit_block(y, bp, scfg)
        if i < NUM_STAGES - 1:
            y = downsample_forward(y, params.downsamples[i])
    y = layernorm(y, params.head.ln.scale, params.head.ln.shift)
    pooled = y.mean(axis=(1, 2))
    return params.head.w @ pooled + params.head.b


def count_params(cfg: ModelConfig) -> ReportNode:
    """Closed-form parameter tally, itemized per component."""
    root = ReportNode(cfg.name)
    root.leaf("stem", stem_param_count(cfg.channels[0], cfg.in_channels))
    for i in range(NUM_STAGES):
        per_block = block_param_count(cfg.stage_s3a(i), ratio=cfg.ffn_ratio)
        root.leaf(f"stage{i + 1}", cfg.blocks[i] * per_block)
        if i < NUM_STAGES - 1:
            root.leaf(f"downsample{i + 1}", downsample_param_count(cfg.channels[i], cfg.channels[i + 1]))
    root.leaf("head", head_param_count(cfg.channels[-1], cfg.classes))
    return root


def _stem_flops(cfg: ModelConfig, H: int, W: int) -> int:
    mid = cfg.channels[0] // 2
    h1, w1 = -(-H // 2), -(-W // 2)
    h4, w4 = -(-h1 // 2), -(-w1 // 2)
    total = mid * cfg.in_channels * 9 * h1 * w1
    total += 2 * (mid * mid * 9 * h1 * w1)
    total += cfg.channels[0] * mid * 9 * h4 * w4
    return total


def _block_flops(scfg: S3AConfig, ratio: int, H: int, W: int) -> int:
    C = scfg.channels
    hw = H * W
    cpe = 9 * C * hw
    ffn = 2 * ratio * C * C * hw
    return cpe + s3a_flops(scfg, H, W) + ffn


def count_flops(cfg: ModelConfig, H: int, W: int) -> ReportNode:
    """Closed-form multiply-accumulate tally for one forward pass."""
    root = ReportNode(f"{cfg.name}@{H}x{W}")
    root.leaf("stem", _stem_flops(cfg, H, W))
    sides = stage_sides(H, W)
    for i in range(NUM_STAGES):
        sh, sw = sides[i]
        stage = root.add(ReportNode(f"stage{i + 1}"))
        per_block = _block_flops(cfg.stage_s3a(i), cfg.ffn_ratio, sh, sw)
        for b in range(cfg.blocks[i]):
            stage.leaf(f"block{b + 1}", per_block)
        if i < NUM_STAGES - 1:
            nh, nw = sides[i + 1]
            root.leaf(f"downsample{i + 1}", cfg.channels[i + 1] * cfg.channels[i] * 9 * nh * nw)
    root.leaf("head", cfg.channels[-1] * cfg.classes)
    return root


def param_items(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Deterministic (path, tensor) listing of every learnable tensor."""
    items: list[tuple[str, np.ndarray]] = []
    for i, conv in enumerate(params.stem.convs, start=1):
        items.append((f"stem.conv{i}.w", conv.w))
        items.append((f"stem.conv{i}.bn_scale", conv.bn_scale))
        items.append((f"stem.conv{i}.bn_shift", conv.bn_shift))
    for si, blocks in enumerate(params.stages, start=1):
        for bi, bp in enumerate(blocks, start=1):
            base = f"stage{si}.block{bi}"
            items.append((f"{base}.cpe.filt", bp.cpe.filt))
            items.append((f"{base}.cpe.bias", bp.cpe.bias))
            items.append((f"{base}.ln1.scale", bp.ln1.scale))
            items.append((f"{base}.ln1.shift", bp.ln1.shift))
            items.append((f"{base}.s3a.w_qkv", bp.s3a.w_qkv))
            items.append((f"{base}.s3a.b_qkv", bp.s3a.b_qkv))
            items.append((f"{base}.s3a.w_out", bp.s3a.w_out))
            items.append((f"{base}.s3a.b_out", bp.s3a.b_out))
            if bp.s3a.lce_filt is not None:
                items.append((f"{base}.s3a.lce_filt", bp.s3a.lce_filt))
                items.append((f"{base}.s3a.lce_bias", bp.s3a.lce_bias))
            items.append((f"{base}.ln2.scale", bp.ln2.scale))
            items.append((f"{base}.ln2.shift", bp.ln2.shift))
            items.append((f"{base}.ffn.w1", bp.ffn.w1))
            items.append((f"{base}.ffn.b1", bp.ffn.b1))
            items.append((f"{base}.ffn.w2", bp.ffn.w2))
            items.append((f"{base}.ffn.b2", bp.ffn.b2))
        if si <= NUM_STAGES - 1:
            dp = params.downsamples[si - 1]
            items.append((f"downsample{si}.w", dp.w))
            items.append((f"downsample{si}.b", dp.b))
            items.append((f"downsample{si}.ln.scale", dp.ln.scale))
            items.append((f"downsample{si}.ln.shift", dp.ln.shift))
    items.append(("head.ln.scale", params.head.ln.scale))
    items.append(("head.ln.shift", params.head.ln.shift))
    items.append(("head.w", params.head.w))
    items.append(("head.b", params.head.b))
    return items


def load_state(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    """Copy named tensors into an allocated model, strictly and in place.

    Every tensor must match its parameter's shape and dtype; none is cast.
    """
    expected = param_items(params)
    seen = set()
    for path, arr in expected:
        if path not in tensors:
            raise StateError(f"missing parameter {path!r}")
        src = tensors[path]
        if tuple(src.shape) != tuple(arr.shape):
            raise ShapeError(f"parameter {path!r}: stored shape {src.shape} != expected {arr.shape}")
        if src.dtype != arr.dtype:
            raise DTypeError(f"parameter {path!r}: stored dtype {src.dtype} != expected {arr.dtype}")
        arr[...] = src
        seen.add(path)
    extra = set(tensors) - seen
    if extra:
        raise StateError(f"unexpected parameters {sorted(extra)[:4]}")


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def config_to_dict(cfg: ModelConfig) -> dict:
    """JSON-friendly form of a configuration (tuples become lists)."""
    d = {
        "name": cfg.name,
        "blocks": list(cfg.blocks),
        "channels": list(cfg.channels),
        "heads": list(cfg.heads),
        "ffn_ratio": cfg.ffn_ratio,
        "window": _jsonable(cfg.window),
        "anchors": _jsonable(cfg.anchors),
        "stride": _jsonable(cfg.stride),
        "lce": cfg.lce,
        "classes": cfg.classes,
        "in_channels": cfg.in_channels,
    }
    if any(ov for ov in cfg.stage_overrides):
        d["stage_overrides"] = _jsonable(cfg.stage_overrides)
    return d


def _detuple(value):
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def config_from_dict(d: dict) -> ModelConfig:
    """Validate and build a configuration from its dict form."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
    known = {
        "name", "blocks", "channels", "heads", "ffn_ratio", "window",
        "anchors", "stride", "lce", "classes", "in_channels", "stage_overrides",
    }
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    missing = {"name", "blocks", "channels", "heads"} - set(d)
    if missing:
        raise ConfigError(f"config missing keys {sorted(missing)}")
    return ModelConfig(**{k: _detuple(v) for k, v in d.items()})


def config_hash(cfg: ModelConfig) -> str:
    """Short stable digest of the canonical config serialization."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
