"""Backbone assembly: configs, presets, counters, forward, state dict."""
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssattn
from ssattn import blocks, kernel, layer
from ssattn import model as model_module
from ssattn.blocks import gelu
from ssattn.checks import tiny_config
from ssattn.errors import ConfigError, DTypeError, NumericError, ShapeError, StateError
from ssattn.layer import S3AConfig, init_s3a_params, s3a_backward, s3a_forward
from ssattn.model import (
    MODEL_PRESETS,
    ModelConfig,
    build_model,
    config_from_dict,
    config_hash,
    config_to_dict,
    count_flops,
    count_params,
    get_config,
    load_state,
    model_forward,
    param_items,
)
from ssattn.tensor import F64, Rng, ShapeOnly

PARAM_TARGETS = {
    "ssvit-t": 15e6,
    "ssvit-s": 27e6,
    "ssvit-b": 57e6,
    "ssvit-l": 100e6,
}


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# configuration


def test_presets_exist_with_expected_shape_families():
    assert set(MODEL_PRESETS) == {"ssvit-t", "ssvit-s", "ssvit-b", "ssvit-l"}
    t = get_config("ssvit-t")
    assert t.blocks == (2, 2, 9, 2)
    assert t.channels == (64, 128, 256, 512)
    assert t.heads == (2, 4, 8, 16)
    b = get_config("ssvit-b")
    assert b.channels == (80, 160, 320, 512)
    assert b.heads == (5, 5, 10, 16)


def test_a_variant_is_its_depth_width_and_heads():
    # the presets vary only these; window, anchors, stride, LCE, FFN ratio and input channels are fixed
    assert [f.name for f in fields(ModelConfig)] == ["name", "blocks", "channels", "heads", "classes"]


REMOVED_KEYS = {"ffn_ratio": 3, "window": 3, "anchors": 7, "stride": "auto", "lce": True, "in_channels": 3}


@pytest.mark.parametrize("key", list(REMOVED_KEYS))
def test_a_removed_setting_is_an_unknown_key_even_at_its_old_default(key):
    d = {**config_to_dict(tiny_config()), key: REMOVED_KEYS[key]}
    with pytest.raises(ConfigError, match=rf"^unknown config keys \['{key}'\]$"):
        config_from_dict(d)
    with pytest.raises(ConfigError, match=rf"^unknown config fields \['{key}'\]$"):
        get_config("ssvit-t", **{key: REMOVED_KEYS[key]})


def test_get_config_unknown_name():
    with pytest.raises(ConfigError):
        get_config("ssvit-xxl")


def test_get_config_unknown_override_is_config_error():
    with pytest.raises(ConfigError, match=r"unknown config fields \['foo'\]"):
        get_config("ssvit-t", foo=1)


def test_count_flops_sides_must_be_positive_ints():
    cfg = get_config("ssvit-t")
    for H, W in ((2.5, 64), ("64", 64), (64, 0), (True, 64), (64, None)):
        with pytest.raises(ConfigError, match=r"^[HW] must be an int >= 1, got "):
            count_flops(cfg, H, W)
    assert count_flops(cfg, np.int64(64), 64).total() == count_flops(cfg, 64, 64).total()


def test_get_config_overrides():
    cfg = get_config("ssvit-t", classes=10, blocks=(1, 1, 3, 1))
    assert cfg.classes == 10
    assert cfg.blocks == (1, 1, 3, 1) and cfg.channels == (64, 128, 256, 512)


def test_config_rejects_degenerate_settings():
    base = dict(blocks=(1, 1, 1, 1), channels=(8, 16, 32, 64), heads=(1, 2, 4, 8))
    with pytest.raises(ConfigError):
        ModelConfig("x", **{**base, "channels": (8, 8, 32, 64)})  # not increasing
    with pytest.raises(ConfigError):
        ModelConfig("x", **{**base, "channels": (64, 32, 16, 8)})
    with pytest.raises(ConfigError):
        ModelConfig("x", **base, classes=0)
    with pytest.raises(ConfigError):
        ModelConfig("x", **{**base, "heads": (3, 2, 4, 8)})  # 8 % 3
    with pytest.raises(ConfigError, match="^channels 64 not divisible by heads 7$"):
        tiny_config(heads=(1, 2, 4, 7))  # raised by the stage-4 S3AConfig
    with pytest.raises(ConfigError):
        ModelConfig("x", **{**base, "blocks": (1, 1, 1)})  # three stages


def test_every_stage_takes_the_one_geometry():
    cfg = tiny_config()
    for i in range(4):
        s3a = cfg.stage_s3a(i)
        assert s3a == S3AConfig(cfg.channels[i], cfg.heads[i])
        assert (s3a.window, s3a.anchors, s3a.stride) == ((3, 3), (7, 7), "auto")


def test_a_config_naming_stage_overrides_is_refused():
    d = config_to_dict(tiny_config())
    assert "stage_overrides" not in d
    for value in ([None, None, None, None], [None, {"window": 5}, None, None]):
        with pytest.raises(ConfigError, match=r"unknown config keys \['stage_overrides'\]"):
            config_from_dict({**d, "stage_overrides": value})
    with pytest.raises(ConfigError, match="unknown config fields"):
        get_config("ssvit-t", stage_overrides=(None, None, None, None))


def test_config_dict_round_trip():
    for cfg in [
        get_config("ssvit-t"),
        tiny_config(blocks=(2, 1, 3, 1), classes=11),
    ]:
        d = config_to_dict(cfg)
        back = config_from_dict(d)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)


def test_config_from_dict_rejects_unknown_and_missing_keys():
    d = config_to_dict(tiny_config())
    with pytest.raises(ConfigError):
        config_from_dict({**d, "windows": 3})
    with pytest.raises(ConfigError):
        config_from_dict({k: v for k, v in d.items() if k != "channels"})


def test_config_from_dict_rejects_mistyped_fields():
    d = config_to_dict(tiny_config())
    bad = [
        {"heads": [0, 2, 4, 8]},
        {"blocks": ["2", 1, 1, 1]},
        {"blocks": [True, 1, 1, 1]},
        {"channels": [8.0, 16, 32, 64]},
        {"heads": 2},
        {"classes": True},
        {"name": 7},
    ]
    for patch in bad:
        with pytest.raises(ConfigError):
            config_from_dict({**d, **patch})


def test_config_from_dict_rejects_deep_nesting():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ConfigError, match="nest too deeply"):
        config_from_dict({**config_to_dict(tiny_config()), "blocks": deep})


# a config field's value: JSON scalars, lists and objects
_config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2.0, 9.0) | st.sampled_from(["auto", "ab", ""]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["window", "anchors", "stride", "lce", "heads"]), inner, max_size=3),
    max_leaves=10,
)
_config_keys = sorted(config_to_dict(tiny_config())) + ["stage_overrides", "bogus", "window", "lce"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    patch=st.dictionaries(st.sampled_from(_config_keys), _config_values, max_size=4),
    dropped=st.sets(st.sampled_from(_config_keys), max_size=2),
)
def test_config_from_dict_round_trips_or_raises_config_error(patch, dropped):
    d = {k: v for k, v in {**config_to_dict(tiny_config()), **patch}.items() if k not in dropped}
    try:
        cfg = config_from_dict(d)
    except ConfigError:
        return
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert back == cfg
    assert config_to_dict(back) == config_to_dict(cfg)
    assert config_hash(back) == config_hash(cfg)


def test_config_hash_separates_configs():
    a = config_hash(get_config("ssvit-t"))
    b = config_hash(get_config("ssvit-t", classes=10))
    assert a != b
    assert len(a) == 16
    assert a == config_hash(get_config("ssvit-t"))


# ---------------------------------------------------------------------------
# counters


def test_param_counts_near_targets_and_monotone():
    totals = {}
    for name, target in PARAM_TARGETS.items():
        total = count_params(get_config(name)).total()
        totals[name] = total
        assert abs(total - target) <= 0.10 * target, (name, total)
    ordered = [totals[n] for n in ("ssvit-t", "ssvit-s", "ssvit-b", "ssvit-l")]
    assert ordered == sorted(ordered)


def test_param_count_frozen_values():
    assert count_params(get_config("ssvit-t")).total() == 13_831_944
    assert count_params(get_config("ssvit-s")).total() == 25_686_792
    assert count_params(get_config("ssvit-b")).total() == 55_069_264
    assert count_params(get_config("ssvit-l")).total() == 97_460_576


def test_param_report_tree_sums_exactly():
    report = count_params(get_config("ssvit-t"))
    assert report.total() == sum(child.total() for child in report.children)
    names = [c.name for c in report.children]
    assert names[0] == "stem"
    assert "head" in names
    assert "stage3" in names


def test_count_params_equals_materialized_for_all_presets():
    for name in PARAM_TARGETS:
        cfg = get_config(name)
        params = build_model(cfg, Rng(0))
        live = sum(arr.size for _, arr in param_items(params))
        assert live == count_params(cfg).total(), name
        undrawn = param_items(build_model(cfg, ShapeOnly()))
        assert [(n, a.shape, a.dtype) for n, a in undrawn] == [
            (n, a.shape, a.dtype) for n, a in param_items(params)
        ], name
        del params
        gc.collect()


def test_count_params_allocates_no_weights():
    cfg = ModelConfig("wide", (1, 1, 1, 1), (8, 16, 32, 2**20), (1, 2, 4, 8), classes=7)
    tracemalloc.start()
    try:
        total = count_params(cfg).total()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 10_995_481_204_971
    assert peak < 16 * 2**20


def test_flops_near_target_at_224():
    total = count_flops(get_config("ssvit-t"), 224, 224).total()
    assert abs(total - 2.4e9) <= 0.15 * 2.4e9
    assert total == 2_566_111_232


def test_flops_itemize_stages_and_stage3_dominates():
    report = count_flops(get_config("ssvit-t"), 224, 224)
    stage_totals = {c.name: c.total() for c in report.children}
    assert {"stem", "stage1", "stage2", "stage3", "stage4", "head"} <= set(stage_totals)
    biggest = max(stage_totals, key=stage_totals.get)
    assert biggest == "stage3"
    assert report.total() == sum(stage_totals.values())


def test_flops_scale_linearly_with_tokens_except_head():
    cfg = get_config("ssvit-t")
    f224 = count_flops(cfg, 224, 224)
    f448 = count_flops(cfg, 448, 448)
    head = {c.name: c.total() for c in f224.children}["head"]
    assert {c.name: c.total() for c in f448.children}["head"] == head
    assert f448.total() == 4 * (f224.total() - head) + head


def test_readme_preset_table_matches_the_counters():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(ssvit-\w)` \|.*\| ([\d,]+) \| ([\d.]+) G \|$", readme, re.M)
    assert sorted(name for name, _, _ in rows) == sorted(MODEL_PRESETS)
    for name, params, gmacs in rows:
        cfg = MODEL_PRESETS[name]
        assert int(params.replace(",", "")) == count_params(cfg).total(), name
        assert f"{count_flops(cfg, 224, 224).total() / 1e9:.2f}" == gmacs, name


# golden_flops.json holds each case's tree as the closed-form count gave
# it; odd sides (44 -> 22 -> 11 -> 6 -> 3 -> 2) check ceil halving through
# the stem and every downsample
def test_flops_trees_match_golden_record():
    with open(Path(__file__).with_name("golden_flops.json")) as fh:
        record = json.load(fh)
    assert [(r["case"], r["H"], r["W"]) for r in record] == [("ssvit-t", 224, 224), ("ssvit-t", 160, 44)]
    for r in record:
        assert count_flops(get_config(r["case"]), r["H"], r["W"]).to_dict() == r["tree"], r["case"]


# ---------------------------------------------------------------------------
# build and forward


def test_build_is_bitwise_reproducible():
    cfg = tiny_config()
    a = dict(param_items(build_model(cfg, Rng(42))))
    b = dict(param_items(build_model(cfg, Rng(42))))
    c = dict(param_items(build_model(cfg, Rng(43))))
    assert a.keys() == b.keys() == c.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name
    assert any(a[name].tobytes() != c[name].tobytes() for name in a)


def test_param_items_order_is_stable_and_complete():
    cfg = tiny_config()
    items = param_items(build_model(cfg, Rng(0)))
    names = [n for n, _ in items]
    assert names[0] == "stem.conv1.w"
    assert names[-1] == "head.b"
    assert len(names) == len(set(names))
    assert "stage1.block1.s3a.w_qkv" in names
    assert "downsample1.w" in names


def _layout_digest(cfg):
    items = param_items(build_model(cfg, Rng(0)))
    layout = json.dumps([(n, list(a.shape)) for n, a in items])
    return len(items), hashlib.sha256(layout.encode()).hexdigest()


def test_param_layout_and_preset_hashes_are_frozen():
    # tensor paths, order and shapes are the checkpoint format
    assert _layout_digest(tiny_config()) == (
        92, "eea7277eb16814e740ff3a0c4fe55aaebeb08ec5552edc4e33dec08fde9f53cd"
    )
    alt = tiny_config(name="tiny-alt", blocks=(2, 1, 1, 2), classes=3)
    assert _layout_digest(alt) == (
        124, "138b6cdc763fe7d350f9f0c4c13a4244867297847a34861dc86c8bc8c1c387d1"
    )
    hashes = {name: config_hash(cfg) for name, cfg in MODEL_PRESETS.items()}
    assert hashes == {
        "ssvit-t": "f69646ac04f53fa2",
        "ssvit-s": "7acc4a755ac7a418",
        "ssvit-b": "dc6a4830c5bda74c",
        "ssvit-l": "9b863044cae8fb15",
    }


def test_forward_shape_contract_and_finiteness():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    x = gen(100).normal(size=(3, 32, 32)).astype(np.float32)
    logits = model_forward(x, params, cfg)
    assert logits.shape == (cfg.classes,)
    assert np.isfinite(logits).all()


def test_forward_accepts_rectangular_inputs():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    x = gen(101).normal(size=(3, 64, 32)).astype(np.float32)
    assert model_forward(x, params, cfg).shape == (cfg.classes,)
    x = gen(102).normal(size=(3, 256, 192)).astype(np.float32)
    assert model_forward(x, params, cfg).shape == (cfg.classes,)


def test_forward_rejects_bad_geometry():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    for shape in [(3, 28, 28), (3, 34, 32), (3, 32, 30), (4, 32, 32), (3, 32)]:
        with pytest.raises(ShapeError):
            model_forward(np.zeros(shape, dtype=np.float32), params, cfg)


def test_forward_rejects_non_finite_image():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3, 32, 32), dtype=np.float32)
        x[1, 5, 7] = bad
        with pytest.raises(NumericError, match="input image"):
            model_forward(x, params, cfg)


def test_forward_rejects_a_nested_list():
    cfg = tiny_config()
    x = np.zeros((3, 32, 32), dtype=np.float32).tolist()
    with pytest.raises(DTypeError, match="^model_forward: input image is a list, not a numpy array$"):
        model_forward(x, build_model(cfg, Rng(1)), cfg)


def test_forward_rejects_image_of_another_dtype():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    for dtype in (np.float64, np.float16, np.uint8):
        with pytest.raises(DTypeError, match="input image"):
            model_forward(np.zeros((3, 32, 32), dtype=dtype), params, cfg)
    params64 = build_model(cfg, Rng(1, np.float64))
    with pytest.raises(DTypeError):
        model_forward(np.zeros((3, 32, 32), dtype=np.float32), params64, cfg)
    logits = model_forward(np.zeros((3, 32, 32)), params64, cfg)
    assert logits.dtype == np.float64


def test_forward_rejects_a_head_bias_of_another_dtype():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    params.head.b = params.head.b.astype(np.float64)
    with pytest.raises(DTypeError, match="^model_forward: head bias is float64 but weights is float32$"):
        model_forward(np.zeros((3, 32, 32), dtype=np.float32), params, cfg)


def test_forward_is_deterministic():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    x = gen(103).normal(size=(3, 32, 32)).astype(np.float32)
    a = model_forward(x, params, cfg)
    b = model_forward(x, params, cfg)
    assert a.tobytes() == b.tobytes()


def test_entry_points_name_the_type_they_expected():
    cfg = tiny_config()
    x = np.zeros((3, 32, 32), dtype=np.float32)
    with pytest.raises(ConfigError, match="^model_forward: params must be a ModelParams, got NoneType$"):
        model_forward(x, None, cfg)
    with pytest.raises(ConfigError, match="^model_forward: cfg must be a ModelConfig, got str$"):
        model_forward(x, build_model(cfg, Rng(1)), "ssvit-t")
    with pytest.raises(ConfigError, match="^count_flops: cfg must be a ModelConfig, got str$"):
        count_flops("ssvit-t", 224, 224)
    for call, message in [
        (lambda: count_params("ssvit-t"), "count_params: cfg must be a ModelConfig, got str"),
        (lambda: count_params(None), "count_params: cfg must be a ModelConfig, got NoneType"),
        (lambda: build_model("ssvit-t", Rng(0)), "build_model: cfg must be a ModelConfig, got str"),
        (lambda: build_model(cfg, "rng"), "build_model: rng must be a Rng or ShapeOnly, got str"),
        (lambda: config_hash("x"), "config_hash: cfg must be a ModelConfig, got str"),
        (lambda: config_to_dict({}), "config_to_dict: cfg must be a ModelConfig, got dict"),
        (lambda: get_config(["x"]), "get_config: name must be a str, got list"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()


def test_forward_of_a_huge_image_raises_rather_than_return_shifts():
    # the ssvit-t widths of the small config: once, a constant 1e30 image gave logits [0, 0, 0]
    cfg = get_config("ssvit-t", blocks=(1, 1, 1, 1), channels=(8, 16, 32, 64), classes=3)
    params = build_model(cfg, Rng(1))
    with pytest.raises(NumericError, match=r"^stage1\.block1: layernorm: "):
        model_forward(np.full((3, 32, 32), 1e30, dtype=np.float32), params, cfg)


def _small(**overrides):
    return tiny_config(**{"blocks": (1, 1, 2, 1), "heads": (2, 2, 4, 8), "classes": 3, **overrides})


def _cut(node, name, index):
    """A mangle that replaces the tensor `name` of node(params) by its slice `index`."""
    return lambda p: setattr(node(p), name, getattr(node(p), name)[index])


def _ffn(p):
    return p.stages[0][0].ffn


def _one_row(p):
    _cut(_ffn, "w2", np.s_[:1])(p)
    _cut(_ffn, "b2", np.s_[:1])(p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_names_the_path_of_the_first_non_finite_value():
    cfg = _small()
    x = gen(105).normal(size=(3, 64, 64)).astype(np.float32)
    params = build_model(cfg, Rng(1))
    params.head.ln.scale = np.full_like(params.head.ln.scale, 3e38)  # finite, so load_state admits it
    load_state(build_model(cfg, ShapeOnly()), dict(param_items(params)))
    with pytest.raises(NumericError, match="^head: the output holds NaN or Inf$"):
        model_forward(x, params, cfg)
    params = build_model(cfg, Rng(1))
    params.stages[2][1].s3a.w_out = np.full_like(params.stages[2][1].s3a.w_out, 3e38)
    with pytest.raises(NumericError, match=r"^stage3\.block2: layernorm: the variance over channels is not finite$"):
        model_forward(x, params, cfg)


@pytest.mark.parametrize("cfg, mangle, error, message", [
    (_small(blocks=(1, 1, 1, 1)), None, StateError, "stage3 blocks: 2 in the parameters, 1 in the model"),
    (_small(), lambda p: p.stages[2].pop(), StateError, "stage3 blocks: 1 in the parameters, 2 in the model"),
    (_small(), lambda p: p.stem.convs.pop(), StateError, "stem convolutions: 3 in the parameters, 4 in the model"),
    (_small(), lambda p: p.downsamples.pop(), StateError, "downsamples: 2 in the parameters, 3 in the model"),
    (_small(), lambda p: p.stages.pop(), StateError, "stages: 3 in the parameters, 4 in the model"),
    (_small(classes=10), None, ShapeError, "head: w has 3 rows for 10 classes"),
    (_small(), _cut(_ffn, "b1", np.s_[:1]), ShapeError, "ffn_forward: b1 has shape (1,), expected (24,)"),
    (_small(), _cut(_ffn, "b2", np.s_[:1]), ShapeError, "ffn_forward: b2 has shape (1,), expected (8,)"),
    (_small(), _one_row, ShapeError, "ffn_forward: w2 has shape (1, 24), expected (8, 24)"),
    (_small(), _cut(_ffn, "w1", np.s_[:, :4]), ShapeError, "ffn_forward: w1 has shape (24, 4), expected (24, 8)"),
    (_small(), _cut(lambda p: p.stem.convs[0], "bn_scale", np.s_[:1]), ShapeError,
     "stem_forward: convs[0].bn_scale has shape (1,), expected (4,)"),
    (_small(), _cut(lambda p: p.stem.convs[0], "bn_shift", np.s_[:1]), ShapeError,
     "stem_forward: convs[0].bn_shift has shape (1,), expected (4,)"),
    (_small(), _cut(lambda p: p.downsamples[0], "b", np.s_[:1]), ShapeError,
     "conv2d: b has shape (1,), expected (16,)"),
    (_small(), _cut(lambda p: p.head, "b", np.s_[:1]), ShapeError, "head: b has shape (1,), expected (3,)"),
    (_small(), _cut(lambda p: p.head, "w", np.s_[:, :32]), ShapeError, "head: w has shape (3, 32), expected (3, 64)"),
])
def test_forward_refuses_a_tree_its_config_does_not_describe(cfg, mangle, error, message):
    params = build_model(_small(), Rng(1))
    if mangle is not None:
        mangle(params)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        model_forward(gen(106).normal(size=(3, 64, 64)).astype(np.float32), params, cfg)


@pytest.mark.parametrize("cfg", [*MODEL_PRESETS.values(), tiny_config()], ids=lambda c: c.name)
def test_the_walk_paths_are_the_one_naming(cfg):
    params = build_model(cfg, ShapeOnly())
    paths = [path for path, *_ in model_module._walk(cfg, params, 224, 224)]

    def leaves(node, prefix=""):
        if not node.children:
            return [prefix + node.name]
        return [p for c in node.children for p in leaves(c, prefix + node.name + ".")]

    assert [p.split(".", 1)[1] for p in leaves(count_flops(cfg, 224, 224))] == paths
    # every tensor sits under a walk path, in walk order; the stem's under stem.conv1..4
    owners = [next(p for p in paths if name.startswith(p + ".")) for name, _ in param_items(params)]
    assert list(dict.fromkeys(owners)) == paths
    assert all(re.match(r"stem\.conv[1-4]\.", name) for name, _ in param_items(params) if name.startswith("stem."))


# Every public function the forward reaches through a module attribute,
# in the module whose namespace it is looked up in.
FORWARD_CALLEES = [
    (model_module, "stem_forward"), (model_module, "ssvit_block"),
    (model_module, "downsample_forward"), (model_module, "layernorm"),
    (blocks, "conv2d"), (blocks, "gelu"), (blocks, "layernorm"), (blocks, "depthwise_forward"),
    (blocks, "cpe_forward"), (blocks, "ffn_forward"), (blocks, "s3a_forward"),
    (layer, "kernel_forward"), (layer, "depthwise_forward"),
    (kernel, "neighborhood_scores"), (kernel, "softmax_rows"), (kernel, "neighborhood_aggregate"),
]


def test_forward_leaves_every_returned_array_untouched(monkeypatch):
    """No stage updates in place an array that a public function returned:
    a caller (a tracer, a check's capture wrapper) may still hold it."""
    returned = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            for a in result if isinstance(result, tuple) else (result,):
                if isinstance(a, np.ndarray):
                    returned.append((name, a, hashlib.sha256(a.tobytes()).hexdigest()))
            return result
        return wrapped

    for module, name in FORWARD_CALLEES:
        monkeypatch.setattr(module, name, recording(f"{module.__name__}.{name}", getattr(module, name)))
    cfg = tiny_config()
    x = gen(104).normal(size=(3, 32, 48)).astype(np.float32)
    model_forward(x, build_model(cfg, Rng(1)), cfg)
    assert {name for name, _, _ in returned} == {f"{m.__name__}.{n}" for m, n in FORWARD_CALLEES}
    changed = {name for name, a, digest in returned if hashlib.sha256(a.tobytes()).hexdigest() != digest}
    assert not changed


_FOOTPRINT = """
import hashlib, json, sys
import numpy as np
import ssattn
from ssattn.checks import tiny_config
from ssattn.tensor import F64, Rng

LAZY = ("scipy.special", "scipy.sparse")
def loaded():
    return [m for m in LAZY if m in sys.modules]
def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

cfg = tiny_config()
x = np.random.default_rng(7).standard_normal((3, 32, 48), dtype=np.float32)
logits = ssattn.model_forward(x, ssattn.build_model(cfg, Rng(1)), cfg)
out = {"after_f32_forward": loaded(), "logits": digest(logits)}
out["gelu_f64"] = digest(ssattn.gelu(np.linspace(-6.0, 6.0, 97)))
lc = ssattn.S3AConfig(channels=8, heads=2)
v = np.random.default_rng(8).standard_normal((8, 9, 10))
y, saved = ssattn.s3a_forward(v, ssattn.init_s3a_params(lc, Rng(2, F64)), lc)
grads = ssattn.s3a_backward(v, saved)
out["grads"] = digest(*(grads[k] for k in sorted(grads)))
out["after_backward"] = loaded()
print(json.dumps(out))
"""


def test_a_float32_forward_loads_neither_scipy_special_nor_scipy_sparse():
    src = str(Path(ssattn.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": env_path}, check=True)
    got = json.loads(run.stdout)
    assert got["after_f32_forward"] == []
    assert got["after_backward"] == ["scipy.special", "scipy.sparse"]

    # the same results as in this process, where both modules were imported up front
    def digest(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    cfg = tiny_config()
    x = np.random.default_rng(7).standard_normal((3, 32, 48), dtype=np.float32)
    assert got["logits"] == digest(model_forward(x, build_model(cfg, Rng(1)), cfg))
    assert got["gelu_f64"] == digest(gelu(np.linspace(-6.0, 6.0, 97)))
    lc = S3AConfig(channels=8, heads=2)
    v = np.random.default_rng(8).standard_normal((8, 9, 10))
    grads = s3a_backward(v, s3a_forward(v, init_s3a_params(lc, Rng(2, F64)), lc)[1])
    assert got["grads"] == digest(*(grads[k] for k in sorted(grads)))


_THREAD_DIGESTS = """
import hashlib, json
import numpy as np
import ssattn
from ssattn.tensor import Rng

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

cfg = ssattn.get_config("ssvit-t")
params = ssattn.build_model(cfg, Rng(5))
out = {}
for H, W in ((224, 224), (96, 96), (32, 160)):
    x = np.random.default_rng(H * W).standard_normal((3, H, W), dtype=np.float32)
    out[f"logits_{H}x{W}"] = digest(ssattn.model_forward(x, params, cfg))
lc = ssattn.S3AConfig(channels=64, heads=2)
g = np.random.default_rng(9)
x, cot = (g.standard_normal((64, 56, 56), dtype=np.float32) for _ in range(2))
y, saved = ssattn.s3a_forward(x, ssattn.init_s3a_params(lc, Rng(6)), lc)
grads = ssattn.s3a_backward(cot, saved)
out["s3a_64x56x56"] = digest(y, *(grads[k] for k in sorted(grads)))
print(json.dumps(out))
"""


def test_float32_outputs_do_not_depend_on_the_blas_thread_count():
    # float64 GEMMs may split their sums by thread count (README, Determinism);
    # the float32 forward and the S3A backward, at these shapes, must not
    src = str(Path(ssattn.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    runs = []
    for threads in ("1", "2"):
        pinned = {var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        run = subprocess.run([sys.executable, "-c", _THREAD_DIGESTS], capture_output=True, text=True,
                             timeout=300, env={**os.environ, **pinned, "PYTHONPATH": env_path}, check=True)
        runs.append(json.loads(run.stdout))
    assert len(runs[0]) == 4
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# state loading


def test_load_state_round_trip_and_strictness():
    cfg = tiny_config()
    src = build_model(cfg, Rng(5))
    tensors = dict(param_items(src))
    dst = build_model(cfg, ShapeOnly())
    load_state(dst, tensors)
    for (_, a), (_, b) in zip(param_items(src), param_items(dst)):
        assert a.tobytes() == b.tobytes()

    missing = dict(tensors)
    missing.pop("head.w")
    fresh = build_model(cfg, ShapeOnly())
    with pytest.raises(StateError):
        load_state(fresh, missing)

    extra = dict(tensors)
    extra["unexpected.tensor"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(StateError):
        load_state(fresh, extra)

    bad_shape = dict(tensors)
    bad_shape["head.w"] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ShapeError):
        load_state(fresh, bad_shape)


def test_load_state_rejects_non_finite_tensors_by_path():
    cfg = tiny_config()
    tensors = dict(param_items(build_model(cfg, Rng(5))))
    for path, value in (("head.b", np.inf), ("stage3.block1.s3a.w_out", np.nan)):
        bad = dict(tensors)
        bad[path] = bad[path].copy()
        bad[path].flat[0] = value
        with pytest.raises(NumericError) as err:
            load_state(build_model(cfg, ShapeOnly()), bad)
        assert path in str(err.value)


def test_load_state_names_a_value_that_is_not_an_array():
    cfg = tiny_config()
    as_lists = {path: arr.tolist() for path, arr in param_items(build_model(cfg, Rng(5)))}
    with pytest.raises(DTypeError, match="'stem.conv1.w'.*got list"):
        load_state(build_model(cfg, ShapeOnly()), as_lists)


@pytest.mark.parametrize("tensors", [[1, 2], None, "stem.conv1.w", 3.0])
def test_load_state_names_a_state_that_is_not_a_mapping(tensors):
    with pytest.raises(StateError, match=f"got {type(tensors).__name__}$"):
        load_state(build_model(tiny_config(), ShapeOnly()), tensors)


@pytest.mark.parametrize("path, bad", [
    ("head.w", np.zeros((1, 1), np.float32)),
    ("head.b", np.full(7, np.inf, np.float32)),
    ("head.b", [0.0] * 7),
])
def test_a_refused_state_leaves_the_model_as_it_was(path, bad):
    cfg = tiny_config()
    tensors = dict(param_items(build_model(cfg, Rng(5))))
    tensors[path] = bad
    dst = build_model(cfg, Rng(6))
    before = param_items(dst)
    with pytest.raises((ShapeError, NumericError, DTypeError)):
        load_state(dst, tensors)
    assert all(a is b for (_, a), (_, b) in zip(before, param_items(dst)))


def test_load_state_lists_extra_keys_of_any_type():
    cfg = tiny_config()
    tensors = dict(param_items(build_model(cfg, Rng(5))))
    tensors[1] = tensors["z.extra"] = np.zeros(1, np.float32)
    with pytest.raises(StateError, match="unexpected parameters"):
        load_state(build_model(cfg, ShapeOnly()), tensors)
