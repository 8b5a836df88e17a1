"""Sparse-scan attention layer: config, params, forward/backward, FLOPs."""
import re
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest

from ssattn.errors import ConfigError, DTypeError, ShapeError
from ssattn.kernel import NeighborhoodSpec, effective_kernel, kernel_flops
from ssattn.layer import (
    S3AConfig,
    S3AParams,
    depthwise_backward,
    depthwise_forward,
    init_s3a_params,
    resolved_strides,
    s3a_attention_flops,
    s3a_backward,
    s3a_flops,
    s3a_forward,
    sweep_specs,
)
from ssattn.oracle import dense_attention, oracle_lce, oracle_s3a
from ssattn.tensor import Rng, ShapeOnly


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_params(cfg, g, dtype=np.float64, spread=0.35):
    C = cfg.channels
    return S3AParams(
        w_qkv=(g.normal(size=(3 * C, C)) * spread).astype(dtype),
        b_qkv=(g.normal(size=3 * C) * spread).astype(dtype),
        w_out=(g.normal(size=(C, C)) * spread).astype(dtype),
        b_out=(g.normal(size=C) * spread).astype(dtype),
        lce_filt=(g.normal(size=(C, 5, 5)) * spread).astype(dtype),
        lce_bias=(g.normal(size=C) * spread).astype(dtype),
    )


# ---------------------------------------------------------------------------
# configuration


def test_the_layer_settings_are_its_width_heads_and_sweep_geometry():
    # every layer has its LCE branch: there is no setting for it, and no parameter is optional
    assert [f.name for f in fields(S3AConfig)] == ["channels", "heads", "window", "anchors", "stride"]
    assert [f.name for f in fields(S3AParams)] == ["w_qkv", "b_qkv", "w_out", "b_out", "lce_filt", "lce_bias"]
    assert all(f.default is MISSING for f in fields(S3AParams))


def test_config_normalizes_ints_to_pairs():
    cfg = S3AConfig(channels=8, heads=2)
    assert cfg.window == (3, 3)
    assert cfg.anchors == (7, 7)
    assert cfg.stride == "auto"
    assert cfg.head_dim == 4
    cfg = S3AConfig(channels=8, heads=2, window=(3, 5), anchors=1, stride=(2, 4))
    assert cfg.window == (3, 5)
    assert cfg.anchors == (1, 1)
    assert cfg.stride == (2, 4)


def test_sequence_geometry_is_stored_as_int_pairs():
    # a stride array is compared with "auto" only when it is a str
    cfg = S3AConfig(8, 2, window=[3, 3], anchors=np.array([5, 5]), stride=np.array([2, 2]))
    assert (cfg.window, cfg.anchors, cfg.stride) == ((3, 3), (5, 5), (2, 2))
    assert all(type(v) is int for v in cfg.stride)
    assert cfg == S3AConfig(8, 2, anchors=5, stride=2)
    with pytest.raises(ConfigError, match="stride must be an int or a pair"):
        S3AConfig(8, 2, stride=np.array([2, 2, 2]))


@pytest.mark.parametrize("kwargs", [
    {"window": b"33"}, {"window": "35"}, {"anchors": {5, 7}}, {"window": {3: 0, 5: 0}}, {"stride": range(2, 4)},
], ids=repr)
def test_geometry_that_is_not_an_int_or_a_pair_is_refused_as_given(kwargs):
    # bytes, str, set, dict and range unpack into two items, but are no pair
    (name, value), = kwargs.items()
    with pytest.raises(ConfigError, match=f"{name} must be an int or a pair, got {re.escape(repr(value))}$"):
        S3AConfig(8, 2, **kwargs)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        S3AConfig(channels=6, heads=4)  # not divisible
    with pytest.raises(ConfigError):
        S3AConfig(channels=0, heads=1)
    with pytest.raises(ConfigError):
        S3AConfig(channels=8, heads=2, window=4)  # even
    with pytest.raises(ConfigError):
        S3AConfig(channels=8, heads=2, anchors=(3, 2))  # even on one axis
    with pytest.raises(ConfigError):
        S3AConfig(channels=8, heads=2, stride=0)
    with pytest.raises(ConfigError):
        S3AConfig(channels=8, heads=2, stride=-2)
    with pytest.raises(ConfigError):
        S3AConfig(channels=8, heads=2, stride="bogus")
    for kwargs in (
        {"channels": "8", "heads": 2},
        {"channels": 8.0, "heads": 2},
        {"channels": True, "heads": 1},
        {"channels": 8, "heads": None},
    ):
        with pytest.raises(ConfigError):
            S3AConfig(**kwargs)


def test_resolved_strides_per_axis():
    cfg = S3AConfig(channels=8, heads=2, anchors=(7, 3))
    assert resolved_strides(cfg, 56, 9) == (8, 3)
    auto = S3AConfig(channels=8, heads=2, anchors=7)
    assert resolved_strides(auto, 56, 7) == (8, 1)
    assert resolved_strides(auto, 5, 56) == (1, 8)  # floor would be zero; clamps to 1
    fixed = S3AConfig(channels=8, heads=2, stride=(2, 5))
    assert resolved_strides(fixed, 100, 100) == (2, 5)
    assert resolved_strides(S3AConfig(channels=8, heads=2, stride=3), 999, 7) == (3, 3)


@pytest.mark.parametrize("kwargs, H, W, window, anchors", [
    ({}, 56, 56, NeighborhoodSpec(3), NeighborhoodSpec(7, 8)),
    ({"window": (3, 5), "anchors": (7, 3), "stride": (2, 4)}, 13, 9, NeighborhoodSpec((3, 5)), NeighborhoodSpec((7, 3), (2, 4))),
    ({"anchors": 7}, 5, 56, NeighborhoodSpec(3), NeighborhoodSpec(7, (1, 8))),
])
def test_sweep_specs_are_the_window_then_the_strided_anchors(kwargs, H, W, window, anchors):
    cfg = S3AConfig(channels=8, heads=2, **kwargs)
    assert sweep_specs(cfg, H, W) == (window, anchors)
    # the MAC count sums the kernel over exactly these two sweeps
    assert s3a_attention_flops(cfg, H, W) == sum(kernel_flops(H, W, 2, 4, spec) for spec in (window, anchors))


def test_effective_anchor_counts_shrink_on_small_maps():
    cfg = S3AConfig(channels=8, heads=2, anchors=7)

    def counts(H, W):
        sh, sw = resolved_strides(cfg, H, W)
        return effective_kernel(cfg.anchors[0], H, sh), effective_kernel(cfg.anchors[1], W, sw)

    assert counts(56, 56) == (7, 7)
    assert counts(5, 5) == (5, 5)
    assert counts(1, 12) == (1, 7)


# ---------------------------------------------------------------------------
# parameters


def param_count(cfg):
    return sum(t.size for t in vars(init_s3a_params(cfg, ShapeOnly())).values())


def test_param_count_frozen_example():
    cfg = S3AConfig(channels=64, heads=2)
    assert param_count(cfg) == 18_304  # 4 C^2 + 4 C of projections, 25 C + C of LCE


def test_param_count_independent_of_neighborhood_geometry():
    base = param_count(S3AConfig(channels=32, heads=4))
    for cfg in [
        S3AConfig(channels=32, heads=4, window=5, anchors=3, stride=2),
        S3AConfig(channels=32, heads=4, window=1, anchors=1, stride=7),
        S3AConfig(channels=32, heads=2),
    ]:
        assert param_count(cfg) == base


def test_init_statistics_and_zero_biases():
    cfg = S3AConfig(channels=64, heads=4)
    p = init_s3a_params(cfg, Rng(1))
    assert np.all(p.b_qkv == 0.0)
    assert np.all(p.b_out == 0.0)
    assert np.all(p.lce_bias == 0.0)
    assert abs(float(p.w_qkv.std()) - 0.02) < 0.002
    assert p.w_qkv.dtype == np.float32


def test_init_is_reproducible():
    cfg = S3AConfig(channels=8, heads=2)
    a = init_s3a_params(cfg, Rng(3))
    b = init_s3a_params(cfg, Rng(3))
    assert a.w_qkv.tobytes() == b.w_qkv.tobytes()
    assert a.lce_filt.tobytes() == b.lce_filt.tobytes()


# ---------------------------------------------------------------------------
# depthwise helper


# (C, H, W, kh, kw): 1x1, 1x7 and 7x1 maps, a map narrower than kw // 2, a map
# smaller than the kernel, and square and non-square filters from 1x1 to 7x7
DEPTHWISE_GEOMETRIES = (
    (3, 6, 5, 5, 5), (2, 4, 3, 3, 3), (2, 3, 4, 5, 5), (2, 1, 1, 5, 5), (2, 1, 7, 3, 3),
    (2, 7, 1, 5, 5), (2, 4, 2, 7, 7), (2, 5, 6, 3, 5), (2, 6, 4, 5, 3), (2, 3, 5, 1, 1),
)


def depthwise_operands(g, C, H, W, kh, kw, dtype):
    """x, filt, bias and a cotangent. The f32 draws are multiples of 1/4, so every
    product and partial sum is exact in f32 and the f64 tolerances still apply."""
    def draw(*shape):
        t = g.normal(size=shape)
        return t if dtype == np.float64 else (np.round(t * 4) / 4).astype(dtype)

    return draw(C, H, W), draw(C, kh, kw), draw(C), draw(C, H, W)


def test_depthwise_matches_bruteforce():
    g = gen(60)
    for geometry in DEPTHWISE_GEOMETRIES:
        for dtype in (np.float64, np.float32):
            x, filt, bias, _ = depthwise_operands(g, *geometry, dtype)
            fast = depthwise_forward(x, filt, bias)
            slow = oracle_lce(x, filt, bias)
            assert fast.dtype == dtype
            assert np.abs(fast - slow).max() <= 1e-10, (geometry, dtype)


def test_depthwise_backward_matches_finite_differences():
    from ssattn.oracle import fd_gradient

    g = gen(61)
    for geometry in DEPTHWISE_GEOMETRIES:
        for dtype in (np.float64, np.float32):
            x, filt, bias, cot = depthwise_operands(g, *geometry, dtype)
            dx, dfilt, dbias = depthwise_backward(cot, x, filt)
            assert [t.dtype for t in (dx, dfilt, dbias)] == [dtype] * 3
            x, filt, bias, cot = (t.astype(np.float64) for t in (x, filt, bias, cot))
            fd_x = fd_gradient(lambda t: float((depthwise_forward(t, filt, bias) * cot).sum()), x)
            fd_f = fd_gradient(lambda t: float((depthwise_forward(x, t, bias) * cot).sum()), filt)
            fd_b = fd_gradient(lambda t: float((depthwise_forward(x, filt, t) * cot).sum()), bias)
            assert np.abs(dx - fd_x).max() < 1e-8, (geometry, dtype)
            assert np.abs(dfilt - fd_f).max() < 1e-8, (geometry, dtype)
            assert np.abs(dbias - fd_b).max() < 1e-8, (geometry, dtype)


def test_depthwise_dfilt_sums_only_the_taps_true_window():
    # an Inf at a row's left edge: taps that never read it keep finite sums
    x = np.ones((1, 6, 6))
    x[0, 3, 0] = np.inf
    g, filt = np.ones((1, 6, 6)), np.ones((1, 5, 5))
    dfilt = depthwise_backward(g, x, filt)[1]
    xp = np.pad(x, ((0, 0), (2, 2), (2, 2)))
    for u in range(5):
        for v in range(5):
            window = xp[0, u : u + 6, v : v + 6]
            if np.isfinite(window).all():
                assert dfilt[0, u, v] == (g[0] * window).sum(), (u, v)
            else:
                assert dfilt[0, u, v] == np.inf, (u, v)


def test_depthwise_rejects_mixed_dtypes():
    x, filt, bias = np.zeros((3, 4, 5)), np.zeros((3, 3, 3)), np.zeros(3)
    x32, filt32, bias32 = (t.astype(np.float32) for t in (x, filt, bias))
    for args in ((x32, filt, bias32), (x32, filt32, bias), (x, filt32, bias32)):
        with pytest.raises(DTypeError):
            depthwise_forward(*args)
    for args in ((x, x32, filt32), (x32, x32, filt), (x32, x, filt32)):
        with pytest.raises(DTypeError):
            depthwise_backward(*args)


def test_depthwise_rejects_integer_operands():
    x, filt, bias = np.zeros((3, 4, 5), np.int64), np.zeros((3, 3, 3), np.int64), np.zeros(3, np.int64)
    with pytest.raises(DTypeError, match="^depthwise_forward: x has non-floating dtype int64$"):
        depthwise_forward(x, filt, bias)
    with pytest.raises(DTypeError, match="^depthwise_backward: x has non-floating dtype int64$"):
        depthwise_backward(x, x, filt)


def test_layer_forward_rejects_a_nested_list():
    cfg = S3AConfig(channels=4, heads=2)
    x = np.zeros((4, 5, 5)).tolist()
    with pytest.raises(DTypeError, match="^s3a_forward: x is a list, not a numpy array$"):
        s3a_forward(x, init_s3a_params(cfg, Rng(0, np.float64)), cfg)


def test_layer_forward_rejects_mixed_or_non_float_operands():
    cfg = S3AConfig(channels=4, heads=2)
    p64 = init_s3a_params(cfg, Rng(0, np.float64))
    x = np.zeros((4, 5, 5))
    with pytest.raises(DTypeError, match="^s3a_forward: w_qkv is float64 but x is float32$"):
        s3a_forward(x.astype(np.float32), p64, cfg)
    with pytest.raises(DTypeError, match="^s3a_forward: x has non-floating dtype int64$"):
        s3a_forward(x.astype(np.int64), p64, cfg)
    with pytest.raises(DTypeError, match="lce_filt is float32"):  # one tensor of another dtype
        s3a_forward(x, S3AParams(**{**vars(p64), "lce_filt": p64.lce_filt.astype(np.float32)}), cfg)


def test_layer_forward_checks_parameter_shapes_against_the_config():
    cfg = S3AConfig(channels=8, heads=2)
    x = gen(37).normal(size=(8, 5, 5))
    wide = init_s3a_params(S3AConfig(channels=16, heads=2), Rng(0, np.float64))
    with pytest.raises(ShapeError, match=r"^s3a_forward: w_qkv has shape \(48, 16\), the layer's cfg needs \(24, 8\)$"):
        s3a_forward(x, wide, cfg)
    column = init_s3a_params(cfg, Rng(0, np.float64))
    for lce_filt in (column.lce_filt[:, 1:4, 1:4], None):  # a filter of another size, or none
        got = getattr(lce_filt, "shape", None)
        with pytest.raises(ShapeError, match=re.escape(f"lce_filt has shape {got}, the layer's cfg needs (8, 5, 5)")):
            s3a_forward(x, S3AParams(**{**vars(column), "lce_filt": lce_filt}), cfg)
    column.b_qkv = column.b_qkv[:, None]  # would broadcast to a [24, 24, 25] qkv
    with pytest.raises(ShapeError, match=r"b_qkv has shape \(24, 1\)"):
        s3a_forward(x, column, cfg)


def test_layer_backward_rejects_a_cotangent_of_another_dtype():
    cfg = S3AConfig(channels=4, heads=2)
    x = gen(36).normal(size=(4, 5, 5)).astype(np.float32)
    out, saved = s3a_forward(x, init_s3a_params(cfg, Rng(0, np.float32)), cfg)
    with pytest.raises(DTypeError, match="^s3a_backward: grad_out is float64 but x is float32$"):
        s3a_backward(out.astype(np.float64), saved)


def test_depthwise_shape_guards():
    x = np.zeros((3, 6, 6))
    filt, bias = np.zeros((3, 3, 3)), np.zeros(3)
    for bad_filt in (np.zeros((1, 3, 3)), np.zeros((3, 4, 4)), np.zeros((3, 3, 2)), np.zeros((3, 9))):
        with pytest.raises(ShapeError):
            depthwise_forward(x, bad_filt, bias)
        with pytest.raises(ShapeError):
            depthwise_backward(x, x, bad_filt)
    for bad_bias in (np.zeros(1), np.zeros((3, 1))):
        with pytest.raises(ShapeError):
            depthwise_forward(x, filt, bad_bias)
    with pytest.raises(ShapeError):
        depthwise_forward(np.zeros((6, 6)), filt[:1], bias[:1])  # x is not [C, H, W]
    with pytest.raises(ShapeError):
        depthwise_backward(np.zeros((3, 6, 5)), x, filt)  # cotangent shape != x shape
    empty = np.zeros((0, 6, 6))  # no channels: empty results, not a reshape error
    assert depthwise_forward(empty, filt[:0], bias[:0]).shape == empty.shape
    assert [t.shape for t in depthwise_backward(empty, empty, filt[:0])] == [empty.shape, (0, 3, 3), (0,)]


# ---------------------------------------------------------------------------
# forward contracts


def test_forward_preserves_shape_and_dtype():
    g = gen(62)
    for C, heads, H, W in [(8, 2, 6, 7), (4, 1, 1, 9), (6, 3, 2, 2), (8, 4, 11, 3)]:
        cfg = S3AConfig(channels=C, heads=heads)
        params = init_s3a_params(cfg, Rng(7))
        x = g.normal(size=(C, H, W)).astype(np.float32)
        out, _ = s3a_forward(x, params, cfg)
        assert out.shape == (C, H, W)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()


def test_forward_rejects_bad_input_shapes():
    cfg = S3AConfig(channels=8, heads=2)
    params = init_s3a_params(cfg, Rng(0))
    with pytest.raises(ShapeError):
        s3a_forward(np.zeros((7, 4, 4), dtype=np.float32), params, cfg)
    with pytest.raises(ShapeError):
        s3a_forward(np.zeros((8, 4), dtype=np.float32), params, cfg)


def test_single_site_closed_form():
    # on a 1x1 map both stages collapse to the value projection
    cfg = S3AConfig(channels=6, heads=3)
    g = gen(63)
    params = random_params(cfg, g)
    x = g.normal(size=(6, 1, 1))
    out, _ = s3a_forward(x, params, cfg)
    v = (params.w_qkv @ x.reshape(6, 1) + params.b_qkv[:, None])[12:]
    want = params.w_out @ v + params.b_out[:, None]
    want += params.lce_filt[:, 2, 2][:, None] * v + params.lce_bias[:, None]
    assert np.abs(out.reshape(6, 1) - want).max() <= 1e-12


def test_head_permutation_invariance():
    # reordering head blocks inside the projections, compensated in the
    # output projection's columns, leaves the attention path intact
    # (LCE is positional in the value channels, so its filter is zero here)
    C, heads, dh = 12, 3, 4
    cfg = S3AConfig(channels=C, heads=heads, anchors=3)
    g = gen(64)
    params = random_params(cfg, g)
    params.lce_filt[...] = 0.0
    x = g.normal(size=(C, 5, 6))
    base, _ = s3a_forward(x, params, cfg)

    perm = [2, 0, 1]
    rows = np.concatenate([np.arange(p * dh, (p + 1) * dh) for p in perm])
    full = np.concatenate([rows, C + rows, 2 * C + rows])
    permuted = S3AParams(
        w_qkv=params.w_qkv[full],
        b_qkv=params.b_qkv[full],
        w_out=params.w_out[:, rows],
        b_out=params.b_out,
        lce_filt=params.lce_filt,
        lce_bias=params.lce_bias,
    )
    out, _ = s3a_forward(x, permuted, cfg)
    assert np.abs(out - base).max() <= 1e-9


def test_dense_degeneracy_single_precision():
    # window covering the map with a single anchor equals full attention
    C, H, W = 8, 5, 5
    cfg = S3AConfig(channels=C, heads=2, window=5, anchors=1)
    g = gen(65)
    params64 = random_params(cfg, g)
    params = S3AParams(
        w_qkv=params64.w_qkv.astype(np.float32),
        b_qkv=params64.b_qkv.astype(np.float32),
        w_out=params64.w_out.astype(np.float32),
        b_out=params64.b_out.astype(np.float32),
        lce_filt=params64.lce_filt.astype(np.float32),
        lce_bias=params64.lce_bias.astype(np.float32),
    )
    x = g.normal(size=(C, H, W)).astype(np.float32)
    out, _ = s3a_forward(x, params, cfg)

    wq, wk, wv = params64.w_qkv[:C], params64.w_qkv[C : 2 * C], params64.w_qkv[2 * C :]
    bq, bk, bv = params64.b_qkv[:C], params64.b_qkv[C : 2 * C], params64.b_qkv[2 * C :]
    attn = dense_attention(x, wq, wk, wv, heads=2, bq=bq, bk=bk, bv=bv)
    want = (params64.w_out @ attn.reshape(C, -1) + params64.b_out[:, None]).reshape(C, H, W)
    vfull = (wv @ x.astype(np.float64).reshape(C, -1) + bv[:, None]).reshape(C, H, W)
    want = want + oracle_lce(vfull, params64.lce_filt, params64.lce_bias)
    assert np.abs(out.astype(np.float64) - want).max() <= 1e-5


def test_oracle_agreement_spot_checks():
    g = gen(66)
    for C, heads, H, W, window, anchors, stride in [
        (4, 1, 1, 1, 1, 1, 1),
        (8, 2, 7, 7, 3, 3, "auto"),
        (16, 4, 5, 9, 5, 7, 2),
        (6, 2, 12, 3, 3, 5, 3),
    ]:
        cfg = S3AConfig(channels=C, heads=heads, window=window, anchors=anchors, stride=stride)
        params = random_params(cfg, g)
        x = g.normal(size=(C, H, W))
        fast, _ = s3a_forward(x, params, cfg)
        slow = oracle_s3a(x, params, cfg)
        assert np.abs(fast - slow).max() <= 1e-6, (C, heads, H, W, window, anchors, stride)


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_is_repeatable_on_the_same_state():
    cfg = S3AConfig(channels=4, heads=2)
    params = init_s3a_params(cfg, Rng(5))
    x = gen(67).normal(size=(4, 3, 3)).astype(np.float32)
    _, saved = s3a_forward(x, params, cfg)
    g = gen(68).normal(size=x.shape).astype(np.float32)
    first = s3a_backward(g, saved)
    second = s3a_backward(g, saved)
    assert first.keys() == second.keys()
    for key in first:
        assert first[key].tobytes() == second[key].tobytes(), key


def test_backward_grad_shapes_and_keys():
    cfg = S3AConfig(channels=6, heads=2)
    params = init_s3a_params(cfg, Rng(6, np.float64))
    x = gen(68).normal(size=(6, 4, 5))
    _, saved = s3a_forward(x, params, cfg)
    grads = s3a_backward(np.ones_like(x), saved)
    assert grads["grad_x"].shape == x.shape
    assert grads["grad_w_qkv"].shape == params.w_qkv.shape
    assert grads["grad_b_qkv"].shape == params.b_qkv.shape
    assert grads["grad_w_out"].shape == params.w_out.shape
    assert grads["grad_b_out"].shape == params.b_out.shape
    assert grads["grad_lce_filt"].shape == params.lce_filt.shape
    assert grads["grad_lce_bias"].shape == params.lce_bias.shape


def test_backward_rejects_mismatched_cotangent():
    cfg = S3AConfig(channels=4, heads=1)
    params = init_s3a_params(cfg, Rng(2))
    x = gen(69).normal(size=(4, 3, 3)).astype(np.float32)
    _, saved = s3a_forward(x, params, cfg)
    with pytest.raises(ShapeError):
        s3a_backward(np.ones((4, 3, 4), dtype=np.float32), saved)


def test_train_step_keeps_q_k_v_once_and_one_qkv_gradient():
    """One f32 forward+backward at stage-1 geometry (64 x 56^2, 2 heads), traced.

    The saved state holds q, k and v once each (no qkv projection beside
    their heads copies), and the backward fills one [3C, HW] qkv gradient
    with no merge copies: 6.3 MB kept after the forward and a 17.5 MB
    peak. A second copy of q and k, or the merged and concatenated qkv
    gradient, goes over one of the bounds.
    """
    cfg = S3AConfig(channels=64, heads=2)
    params = init_s3a_params(cfg, Rng(3))
    x = gen(71).normal(size=(64, 56, 56)).astype(np.float32)
    cot = gen(72).normal(size=x.shape).astype(np.float32)
    s3a_backward(cot, s3a_forward(x, params, cfg)[1])  # builds the plans, loads scipy.sparse
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y, saved = s3a_forward(x, params, cfg)
        kept = tracemalloc.get_traced_memory()[0] - base
        s3a_backward(cot, saved)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept <= 6.5e6, kept
    assert peak <= 18.5e6, peak


def test_forward_frees_the_qkv_projection_before_the_sweeps():
    """One traced f32 forward at stage-1 geometry (64 x 56^2, 2 heads).

    The LCE branch runs on v right after the heads copies, so the [3C, HW]
    projection (2.4 MB) is not live across either sweep's gathers: an
    11.2 MB peak, where holding it to the end of the forward read 12.8 MB.
    """
    cfg = S3AConfig(channels=64, heads=2)
    params = init_s3a_params(cfg, Rng(3))
    x = gen(73).normal(size=(64, 56, 56)).astype(np.float32)
    s3a_forward(x, params, cfg)  # builds the plans
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s3a_forward(x, params, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 11.8e6, peak


# ---------------------------------------------------------------------------
# cost accounting


def test_flops_frozen_example():
    cfg = S3AConfig(channels=64, heads=2)
    hw = 56 * 56
    proj = hw * 4 * 64 * 64
    attn = 2 * 64 * (9 + 49) * hw
    lce = 25 * 64 * hw
    assert s3a_attention_flops(cfg, 56, 56) == attn
    assert s3a_flops(cfg, 56, 56) == proj + attn + lce
    assert s3a_attention_flops(cfg, 56, 56) // hw == 7_424


def test_flops_drop_when_lattice_clamps():
    cfg = S3AConfig(channels=8, heads=2)
    small = s3a_attention_flops(cfg, 5, 5)  # anchors clamp from 7 to 5
    assert small == 2 * 8 * (9 + 25) * 25


def test_projections_dominate_at_coarse_stage():
    cfg = S3AConfig(channels=512, heads=16)
    attn = s3a_attention_flops(cfg, 7, 7)
    ffn = 2 * 3 * 512 * 512 * 49
    cpe = 9 * 512 * 49
    block_total = cpe + s3a_flops(cfg, 7, 7) + ffn
    assert attn / block_total < 0.03
