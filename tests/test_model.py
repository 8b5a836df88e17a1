"""Backbone assembly: configs, presets, counters, forward, state dict."""
import gc

import numpy as np
import pytest

from ssattn.checks import tiny_config
from ssattn.errors import ConfigError, DTypeError, NumericError, ShapeError, StateError
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
    stage_sides,
)
from ssattn.tensor import Rng

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
    assert t.ffn_ratio == 3
    b = get_config("ssvit-b")
    assert b.channels == (80, 160, 320, 512)
    assert b.heads == (5, 5, 10, 16)


def test_get_config_unknown_name():
    with pytest.raises(ConfigError):
        get_config("ssvit-xxl")


def test_get_config_overrides():
    cfg = get_config("ssvit-t", classes=10, window=5)
    assert cfg.classes == 10
    assert cfg.stage_s3a(0).window == (5, 5)


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
    with pytest.raises(ConfigError):
        ModelConfig("x", **{**base, "blocks": (1, 1, 1)})  # three stages
    with pytest.raises(ConfigError):
        ModelConfig("x", **base, window=4)  # surfaced by stage probe
    with pytest.raises(ConfigError):
        ModelConfig("x", **base, stage_overrides=({"bogus": 1}, None, None, None))


def test_stage_overrides_apply_per_stage():
    cfg = tiny_config(stage_overrides=({"window": 5}, None, {"lce": False}, None))
    assert cfg.stage_s3a(0).window == (5, 5)
    assert cfg.stage_s3a(1).window == (3, 3)
    assert cfg.stage_s3a(2).lce is False
    assert cfg.stage_s3a(3).lce is True


def test_config_dict_round_trip():
    for cfg in [
        get_config("ssvit-t"),
        tiny_config(window=(3, 5), stride=2, lce=False, classes=11),
        tiny_config(stage_overrides=(None, {"anchors": 3}, None, None)),
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
        {"in_channels": 0},
        {"lce": "no"},
        {"name": 7},
        {"window": [True, 3]},
        {"stage_overrides": [3, None, None, None]},
        {"stage_overrides": 5},
        {"stage_overrides": [{"lce": "no"}, None, None, None]},
        {"stage_overrides": [None, None, {"lce": None}, None]},
        {"stage_overrides": [None, {"lce": 0}, None, None]},
    ]
    for patch in bad:
        with pytest.raises(ConfigError):
            config_from_dict({**d, **patch})


def test_config_hash_separates_configs():
    a = config_hash(get_config("ssvit-t"))
    b = config_hash(get_config("ssvit-t", window=5))
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
        del params
        gc.collect()


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


def test_stage_sides_follow_ceil_halving():
    assert stage_sides(224, 224) == [(56, 56), (28, 28), (14, 14), (7, 7)]
    assert stage_sides(256, 192) == [(64, 48), (32, 24), (16, 12), (8, 6)]


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


def test_forward_rejects_image_of_another_dtype():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    for dtype in (np.float64, np.float16, np.uint8):
        with pytest.raises(DTypeError, match="input image"):
            model_forward(np.zeros((3, 32, 32), dtype=dtype), params, cfg)
    params64 = build_model(cfg, Rng(1), dtype=np.float64)
    with pytest.raises(DTypeError):
        model_forward(np.zeros((3, 32, 32), dtype=np.float32), params64, cfg)
    logits = model_forward(np.zeros((3, 32, 32)), params64, cfg)
    assert logits.dtype == np.float64


def test_forward_is_deterministic():
    cfg = tiny_config()
    params = build_model(cfg, Rng(1))
    x = gen(103).normal(size=(3, 32, 32)).astype(np.float32)
    a = model_forward(x, params, cfg)
    b = model_forward(x, params, cfg)
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# state loading


def test_load_state_round_trip_and_strictness():
    cfg = tiny_config()
    src = build_model(cfg, Rng(5))
    tensors = dict(param_items(src))
    dst = build_model(cfg, Rng(6))
    load_state(dst, tensors)
    for (_, a), (_, b) in zip(param_items(src), param_items(dst)):
        assert a.tobytes() == b.tobytes()

    missing = dict(tensors)
    missing.pop("head.w")
    fresh = build_model(cfg, Rng(7))
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
