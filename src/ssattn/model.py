"""Four-stage SSViT backbone assembly and analytic cost accounting.

A model is a convolutional stem (overall stride 4), four stages of
sparse-scan attention blocks with dense stride-2 downsampling between
them, and a classification head (layer-norm, global average pool,
linear). Channel width doubles roughly per stage; every stage uses the
same window/anchor geometry, with the anchor stride resolved per axis
from the stage's own feature-map size when left on `auto`.

`_walk` steps through a parameter tree by `count_flops` path (stem,
stageN.blockM, downsampleN, head): `model_forward` runs the steps,
`count_flops` costs them (1 MAC = 1 FLOP; softmax, GELU, normalization
and bias adds are free) and `param_items` lists their tensors.
`count_params` tallies the undrawn `ShapeOnly` tree, so the init
functions are the one parameter schema.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .blocks import (
    STEM_STRIDES,
    BlockParams,
    DownsampleParams,
    HeadParams,
    StemParams,
    downsample_forward,
    init_block_params,
    init_downsample_params,
    init_head_params,
    init_stem_params,
    layernorm,
    ssvit_block,
    stem_forward,
)
from .errors import ConfigError, DTypeError, NumericError, ShapeError, StateError
from .layer import S3AConfig, s3a_attention_flops, weight_macs
from .report import ReportNode
from .tensor import Rng, ShapeOnly, check_float_dtypes, check_int

NUM_STAGES = 4


@dataclass(frozen=True)
class ModelConfig:
    """One backbone variant; `window`, `anchors`, `stride` and `lce` apply to every stage."""

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

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a str, got {self.name!r}")
        for field_name in ("blocks", "channels", "heads"):
            value = getattr(self, field_name)
            if not isinstance(value, (tuple, list)) or len(value) != NUM_STAGES:
                raise ConfigError(f"{field_name} must have {NUM_STAGES} entries, got {value!r}")
            object.__setattr__(self, field_name, tuple(check_int(v, field_name) for v in value))
        for field_name in ("ffn_ratio", "classes", "in_channels"):
            object.__setattr__(self, field_name, check_int(getattr(self, field_name), field_name))
        if any(a >= b for a, b in zip(self.channels, self.channels[1:])):
            raise ConfigError(f"channels must strictly increase, got {self.channels}")
        for i in range(NUM_STAGES):
            s3a = self.stage_s3a(i)  # surface bad heads/window/anchors/stride/lce now
        # a list or array geometry is kept as its validated pair, so configs hash and compare;
        # an int or "auto" stays as given, which keeps config_to_dict and config_hash unchanged
        for field_name in ("window", "anchors", "stride"):
            if not isinstance(getattr(self, field_name), (int, np.integer, str)):
                object.__setattr__(self, field_name, getattr(s3a, field_name))

    def stage_s3a(self, i: int) -> S3AConfig:
        """Attention configuration of stage i (0-based)."""
        return S3AConfig(self.channels[i], self.heads[i], self.window, self.anchors, self.stride, self.lce)


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
    unknown = set(overrides) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    cfg = MODEL_PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class ModelParams:
    stem: StemParams
    stages: list[list[BlockParams]]
    downsamples: list[DownsampleParams]
    head: HeadParams


def build_model(cfg: ModelConfig, rng: Rng | ShapeOnly) -> ModelParams:
    """Initialize every tensor of the backbone in rng's dtype; with ShapeOnly, only their shapes."""
    stem = init_stem_params(cfg.channels[0], rng, in_channels=cfg.in_channels)
    stages = [
        [init_block_params(cfg.stage_s3a(i), rng, ratio=cfg.ffn_ratio) for _ in range(cfg.blocks[i])]
        for i in range(NUM_STAGES)
    ]
    downsamples = [
        init_downsample_params(cfg.channels[i], cfg.channels[i + 1], rng)
        for i in range(NUM_STAGES - 1)
    ]
    head = init_head_params(cfg.channels[-1], cfg.classes, rng)
    return ModelParams(stem=stem, stages=stages, downsamples=downsamples, head=head)


def _check_type(where: str, **args: tuple[object, type]) -> None:
    """ConfigError naming the expected type unless each value is an instance of its type."""
    for name, (value, kind) in args.items():
        if not isinstance(value, kind):
            raise ConfigError(f"{where}: {name} must be a {kind.__name__}, got {type(value).__name__}")


def check_input_sides(H: int, W: int) -> None:
    """Reject an input geometry the backbone cannot run.

    Sides must be ints >= 32 and divisible by 4 so that every stage has
    a nonempty feature map of predictable extent; else ShapeError.
    """
    if check_int(H, "H", 32, ShapeError) % 4 or check_int(W, "W", 32, ShapeError) % 4:
        raise ShapeError(f"input sides must be >= 32 and divisible by 4, got {H}x{W}")


def _walk(cfg: ModelConfig | None, params: ModelParams, H: int, W: int):
    """The forward pass on an H x W image: (path, parts, s3a, h, w, run) per count_flops path.

    `parts` holds (slot prefix, node, output sites) per weighted layer and
    `s3a` a block's attention; (h, w), the output sides, ceil-halve at each
    stride-2 convolution, so an undrawn tree walks at any H, W >= 1. `run`
    looks this module's layer functions up when it maps the previous output.
    A tree cfg does not describe is a StateError naming the part, or for the
    head a ShapeError; a cfg of None only lists the tree's steps.
    """
    convs, stages, downs, head = params.stem.convs, params.stages, params.downsamples, params.head
    counts = [("stem convolutions", len(convs), len(STEM_STRIDES)), ("stages", len(stages), NUM_STAGES),
              ("downsamples", len(downs), NUM_STAGES - 1)]
    if cfg is not None:
        counts += [(f"stage{i} blocks", len(b), n) for i, (b, n) in enumerate(zip(stages, cfg.blocks), 1)]
    for what, have, want in counts:
        if have != want:
            raise StateError(f"{what}: {have} in the parameters, {want} in the model")
    if cfg is not None and head.w.shape[0] != cfg.classes:
        raise ShapeError(f"head: w has {head.w.shape[0]} rows for {cfg.classes} classes")
    h, w, stem = H, W, []
    for i, (conv, s) in enumerate(zip(convs, STEM_STRIDES), start=1):
        h, w = -(-h // s), -(-w // s)
        stem.append((f"stem.conv{i}", conv, h * w))
    yield "stem", stem, None, h, w, lambda y: stem_forward(y, params.stem)
    for i, blocks in enumerate(stages, start=1):
        s3a = None if cfg is None else cfg.stage_s3a(i - 1)
        for b, bp in enumerate(blocks, start=1):
            path = f"stage{i}.block{b}"
            yield path, [(path, bp, h * w)], s3a, h, w, lambda y, bp=bp, s3a=s3a: ssvit_block(y, bp, s3a)
        if i < NUM_STAGES:
            h, w, dp, path = -(-h // 2), -(-w // 2), downs[i - 1], f"downsample{i}"
            yield path, [(path, dp, h * w)], None, h, w, lambda y, dp=dp: downsample_forward(y, dp)
    yield ("head", [("head", head, 1)], None, 1, 1,
           lambda y: head.w @ layernorm(y, head.ln.scale, head.ln.shift).mean(axis=(1, 2)) + head.b)


def model_forward(x: np.ndarray, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """Classify one [in_channels, H, W] image; returns [classes] logits.

    The sides must pass `check_input_sides`. The image must be finite
    and have the parameters' dtype; it is never cast. A `params` or `cfg`
    of another type is a ConfigError, a tree cfg does not describe a
    StateError or ShapeError. A NaN or Inf in a step's output, or a
    NumericError inside it, is a NumericError prefixed with the path.
    """
    _check_type("model_forward", params=(params, ModelParams), cfg=(cfg, ModelConfig))
    check_float_dtypes("model_forward", weights=params.head.w,
                       **{"input image": x, "head bias": params.head.b})
    if x.ndim != 3 or x.shape[0] != cfg.in_channels:
        raise ShapeError(f"expected [{cfg.in_channels}, H, W] input, got shape {x.shape}")
    check_input_sides(x.shape[1], x.shape[2])
    if not np.isfinite(x).all():
        raise NumericError("input image contains NaN or Inf")
    for path, *_, run in _walk(cfg, params, x.shape[1], x.shape[2]):
        try:
            x = run(x)
        except NumericError as exc:
            raise NumericError(f"{path}: {exc}") from exc
        if not np.isfinite(x).all():
            raise NumericError(f"{path}: the output holds NaN or Inf")
    return x


def count_params(cfg: ModelConfig) -> ReportNode:
    """Parameter tally of an undrawn model, itemized per component.

    Components are the first path segments (stem, stageN, downsampleN,
    head). A shape too large to address raises SizeError.
    """
    totals: dict[str, int] = {}
    for path, arr in param_items(build_model(cfg, ShapeOnly())):
        top = path.split(".", 1)[0]
        totals[top] = totals.get(top, 0) + arr.size
    root = ReportNode(cfg.name)
    for name, n in totals.items():
        root.leaf(name, n)
    return root


def count_flops(cfg: ModelConfig, H: int, W: int) -> ReportNode:
    """Multiply-accumulate tally of one forward pass, read off the undrawn model.

    Every layer's weights cost `weight_macs` at its output sites, and each
    block adds its S3A layer's two sweeps. cfg must be a ModelConfig and
    H and W ints >= 1, else ConfigError.
    """
    _check_type("count_flops", cfg=(cfg, ModelConfig))
    H, W = check_int(H, "H"), check_int(W, "W")
    root = ReportNode(f"{cfg.name}@{H}x{W}")
    for path, parts, s3a, h, w, _ in _walk(cfg, build_model(cfg, ShapeOnly()), H, W):
        macs = sum(weight_macs((t for _, t in tensor_items("", node)), sites) for _, node, sites in parts)
        if s3a is not None:
            macs += s3a_attention_flops(s3a, h, w)
        stage, _, leaf = path.rpartition(".")
        if stage and root.children[-1].name != stage:
            root.add(ReportNode(stage))
        (root.children[-1] if stage else root).leaf(leaf, macs)
    return root


def _slots(prefix: str, node) -> list[tuple[str, object, str]]:
    """(path, owner, field) of every tensor field under a parameter dataclass.

    Fields come in declaration order and a field's path extends `prefix`
    by its name; None fields (a disabled LCE branch) are skipped. Every
    listing of, and every write to, a model's tensors goes through here.
    """
    slots = []
    for f in fields(node):
        path, value = f"{prefix}.{f.name}", getattr(node, f.name)
        if isinstance(value, np.ndarray):
            slots.append((path, node, f.name))
        elif value is not None:
            slots += _slots(path, value)
    return slots


def _model_slots(params: ModelParams) -> list[tuple[str, object, str]]:
    return [slot for _, parts, *_ in _walk(None, params, 1, 1) for prefix, node, _ in parts
            for slot in _slots(prefix, node)]


def tensor_items(prefix: str, node) -> list[tuple[str, np.ndarray]]:
    """(path, tensor) pairs of a parameter dataclass, in field order."""
    return [(path, getattr(owner, name)) for path, owner, name in _slots(prefix, node)]


def param_items(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Deterministic (path, tensor) listing of every learnable tensor."""
    return [(path, getattr(owner, name)) for path, owner, name in _model_slots(params)]


def load_state(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    """Make named tensors a model's parameters, strictly; the model adopts the arrays.

    `params` is any tree of the right architecture, typically one built
    from ShapeOnly; its arrays only supply the expected shape and dtype.
    Every tensor must match those (none is cast) and hold finite values.
    `tensors` that is not a mapping is a StateError, a value that is not
    a numpy array a DTypeError naming its path. Nothing is adopted
    unless every check passes, so a refused state leaves `params` as it was.
    """
    if not isinstance(tensors, Mapping):
        raise StateError(f"load_state needs a mapping of path to array, got {type(tensors).__name__}")
    slots = _model_slots(params)
    for path, owner, name in slots:
        if path not in tensors:
            raise StateError(f"missing parameter {path!r}")
        src, arr = tensors[path], getattr(owner, name)
        if not isinstance(src, np.ndarray):
            raise DTypeError(f"parameter {path!r}: expected a numpy array, got {type(src).__name__}")
        if tuple(src.shape) != tuple(arr.shape):
            raise ShapeError(f"parameter {path!r}: stored shape {src.shape} != expected {arr.shape}")
        if src.dtype != arr.dtype:
            raise DTypeError(f"parameter {path!r}: stored dtype {src.dtype} != expected {arr.dtype}")
    extra = set(tensors) - {path for path, _, _ in slots}
    if extra:
        raise StateError(f"unexpected parameters {sorted(extra, key=str)[:4]}")  # keys of any type
    for path, _, _ in slots:
        if not np.isfinite(tensors[path]).all():
            raise NumericError(f"parameter {path!r} holds NaN or Inf")
    for path, owner, name in slots:
        setattr(owner, name, tensors[path])


def _jsonable(value):
    if isinstance(value, np.integer):  # a numpy-int window, anchor count or stride
        return int(value)
    return list(value) if isinstance(value, tuple) else value  # tuples hold plain ints


def config_to_dict(cfg: ModelConfig) -> dict:
    """JSON-friendly form of a configuration (tuples become lists, numpy ints become ints)."""
    return {f.name: _jsonable(getattr(cfg, f.name)) for f in fields(cfg)}


def _detuple(value):
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def config_from_dict(d: dict) -> ModelConfig:
    """Validate and build a configuration from its dict form."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    missing = {f.name for f in fields(ModelConfig) if f.default is MISSING} - set(d)
    if missing:
        raise ConfigError(f"config missing keys {sorted(missing)}")
    try:
        return ModelConfig(**{k: _detuple(v) for k, v in d.items()})
    except RecursionError:  # from _detuple, or from the repr in a ConfigError
        raise ConfigError("config values nest too deeply") from None


def config_hash(cfg: ModelConfig) -> str:
    """Short stable digest of the canonical config serialization."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
