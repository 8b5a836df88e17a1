"""Backbone building blocks: GELU, layernorm, conv2d, block, stem, head."""
import math

import numpy as np
import pytest

from ssattn.blocks import (
    BlockParams,
    CpeParams,
    FfnParams,
    LnParams,
    block_param_count,
    conv2d,
    cpe_forward,
    downsample_forward,
    downsample_param_count,
    ffn_forward,
    ffn_param_count,
    gelu,
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
from ssattn.errors import ConfigError, ShapeError
from ssattn.layer import S3AConfig, S3AParams, depthwise_forward
from ssattn.oracle import oracle_s3a
from ssattn.tensor import Rng


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# activations and normalization


def test_gelu_fixed_points():
    x = np.array([0.0, 1.0, -1.0], dtype=np.float64)
    got = gelu(x)
    assert got[0] == 0.0
    assert abs(got[1] - 0.8413447460685429) < 1e-12
    assert abs(got[2] - (-0.15865525393145707)) < 1e-12


def test_gelu_matches_scalar_erf_formula():
    g = gen(80)
    x = g.normal(size=257)
    want = np.array([0.5 * t * (1.0 + math.erf(t / math.sqrt(2.0))) for t in x])
    assert np.abs(gelu(x) - want).max() < 1e-12


def test_gelu_monotone_on_grid():
    x = np.linspace(-0.4, 6.0, 200)
    y = gelu(x)
    assert np.all(np.diff(y) > 0)


def test_layernorm_constant_input_returns_shift():
    x = np.full((5, 3, 4), 2.5)
    scale = np.arange(1.0, 6.0)
    shift = np.arange(5.0)
    out = layernorm(x, scale, shift)
    assert np.abs(out - shift[:, None, None]).max() < 1e-9


def test_layernorm_matches_per_site_reference():
    g = gen(81)
    C, H, W = 6, 3, 4
    x = g.normal(size=(C, H, W))
    scale = g.normal(size=C)
    shift = g.normal(size=C)
    out = layernorm(x, scale, shift)
    for i in range(H):
        for j in range(W):
            col = x[:, i, j]
            mu = col.mean()
            var = ((col - mu) ** 2).mean()
            want = scale * (col - mu) / math.sqrt(var + 1e-6) + shift
            assert np.abs(out[:, i, j] - want).max() < 1e-10


def test_layernorm_shape_guards():
    with pytest.raises(ShapeError):
        layernorm(np.zeros((4, 2, 2)), np.ones(3), np.zeros(4))
    with pytest.raises(ShapeError):
        layernorm(np.zeros((4, 4)), np.ones(4), np.zeros(4))


# ---------------------------------------------------------------------------
# convolution


def conv_ref(x, w, b=None, stride=1, padding=0, groups=1):
    """Six-loop reference convolution, float64."""
    cin, H, W = x.shape
    cout, cig, kh, kw = w.shape
    oh = (H + 2 * padding - kh) // stride + 1
    ow = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((cout, oh, ow), dtype=np.float64)
    cog = cout // groups
    for co in range(cout):
        gi = co // cog
        for i in range(oh):
            for j in range(ow):
                s = 0.0
                for ci in range(cig):
                    for u in range(kh):
                        for v in range(kw):
                            ii = i * stride + u - padding
                            jj = j * stride + v - padding
                            if 0 <= ii < H and 0 <= jj < W:
                                s += float(w[co, ci, u, v]) * float(x[gi * cig + ci, ii, jj])
                out[co, i, j] = s + (float(b[co]) if b is not None else 0.0)
    return out


def test_conv2d_matches_reference_over_many_geometries():
    g = gen(82)
    checked = 0
    while checked < 100:
        cin = int(g.integers(1, 8))
        cout = int(g.integers(1, 8))
        kh, kw = int(g.choice([1, 3])), int(g.choice([1, 3]))
        stride = int(g.choice([1, 2]))
        padding = int(g.choice([0, 1, 2]))
        H = int(g.integers(kh, kh + 5))
        W = int(g.integers(kw, kw + 5))
        if (H + 2 * padding - kh) // stride + 1 < 1:
            continue
        x = g.normal(size=(cin, H, W))
        w = g.normal(size=(cout, cin, kh, kw))
        b = g.normal(size=cout) if checked % 2 else None
        fast = conv2d(x, w, b=b, stride=stride, padding=padding)
        slow = conv_ref(x, w, b=b, stride=stride, padding=padding)
        assert fast.shape == slow.shape
        assert np.abs(fast - slow).max() <= 1e-6, (cin, cout, kh, kw, stride, padding)
        checked += 1


def test_depthwise_forward_matches_conv_reference():
    g = gen(83)
    C = 5
    x = g.normal(size=(C, 6, 7))
    for k in (3, 5):
        filt = g.normal(size=(C, k, k))
        bias = g.normal(size=C)
        fast = depthwise_forward(x, filt, bias)
        slow = conv_ref(x, filt[:, None], b=bias, stride=1, padding=k // 2, groups=C)
        assert np.abs(fast - slow).max() <= 1e-10, k


def test_conv2d_delta_kernel_is_identity():
    g = gen(84)
    C = 4
    x = g.normal(size=(C, 5, 5))
    w = np.zeros((C, C, 3, 3))
    for c in range(C):
        w[c, c, 1, 1] = 1.0
    out = conv2d(x, w, stride=1, padding=1)
    assert np.abs(out - x).max() == 0.0


def test_conv2d_box_filter_counts_neighbors():
    x = np.ones((1, 5, 5))
    w = np.ones((1, 1, 3, 3))
    out = conv2d(x, w, stride=1, padding=1)
    assert out[0, 2, 2] == 9.0
    assert out[0, 0, 0] == 4.0
    assert out[0, 0, 2] == 6.0


def test_conv2d_shape_guards():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4)), np.zeros((2, 1, 3, 3)))  # w.shape[1] != Cin
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4)), np.zeros((4, 3, 3, 3)))  # w.shape[1] != Cin
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4)), np.zeros((2, 2, 3)))  # w is not 4-D
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 2, 2)), np.zeros((2, 2, 5, 5)))  # kernel does not fit


# ---------------------------------------------------------------------------
# block pieces


def test_cpe_zero_filter_is_identity():
    g = gen(85)
    x = g.normal(size=(6, 4, 4))
    p = CpeParams(filt=np.zeros((6, 3, 3)), bias=np.zeros(6))
    assert np.array_equal(cpe_forward(x, p), x)


def test_ffn_on_zero_input_is_bias_chain():
    g = gen(86)
    C, r = 4, 3
    w1 = g.normal(size=(r * C, C))
    b1 = g.normal(size=r * C)
    w2 = g.normal(size=(C, r * C))
    b2 = g.normal(size=C)
    p = FfnParams(w1=w1, b1=b1, w2=w2, b2=b2)
    out = ffn_forward(np.zeros((C, 2, 3)), p)
    want = w2 @ gelu(b1) + b2
    assert np.abs(out - want[:, None, None]).max() < 1e-12


def zero_block(C, lce=True):
    z = lambda *s: np.zeros(s)
    s3a = S3AParams(w_qkv=z(3 * C, C), b_qkv=z(3 * C), w_out=z(C, C), b_out=z(C))
    if lce:
        s3a.lce_filt = z(C, 5, 5)
        s3a.lce_bias = z(C)
    return BlockParams(
        cpe=CpeParams(filt=z(C, 3, 3), bias=z(C)),
        ln1=LnParams(scale=z(C), shift=z(C)),
        s3a=s3a,
        ln2=LnParams(scale=z(C), shift=z(C)),
        ffn=FfnParams(w1=z(3 * C, C), b1=z(3 * C), w2=z(C, 3 * C), b2=z(C)),
    )


def test_zero_parameter_block_is_exact_identity():
    g = gen(87)
    for C, H, W in [(4, 5, 5), (6, 1, 9), (8, 3, 2)]:
        cfg = S3AConfig(channels=C, heads=2, anchors=3)
        x = g.normal(size=(C, H, W))
        out = ssvit_block(x, zero_block(C), cfg)
        assert np.array_equal(out, x)


def test_block_matches_straightline_reference():
    g = gen(88)
    C, H, W = 8, 5, 6
    cfg = S3AConfig(channels=C, heads=2, window=3, anchors=3, stride="auto")
    p = init_block_params(cfg, Rng(2), dtype=np.float64)
    # random weights exercise every path; inits keep biases zero
    p.cpe.filt = g.normal(size=(C, 3, 3)) * 0.2
    p.cpe.bias = g.normal(size=C) * 0.2
    p.ln1 = LnParams(scale=g.normal(size=C) * 0.5 + 1.0, shift=g.normal(size=C) * 0.2)
    p.ln2 = LnParams(scale=g.normal(size=C) * 0.5 + 1.0, shift=g.normal(size=C) * 0.2)
    x = g.normal(size=(C, H, W))

    got = ssvit_block(x, p, cfg)

    from ssattn.layer import depthwise_forward

    a = x + depthwise_forward(x, p.cpe.filt, p.cpe.bias)
    b = a + oracle_s3a(layernorm(a, p.ln1.scale, p.ln1.shift), p.s3a, cfg)
    h = layernorm(b, p.ln2.scale, p.ln2.shift).reshape(C, -1)
    c = b + (p.ffn.w2 @ gelu(p.ffn.w1 @ h + p.ffn.b1[:, None]) + p.ffn.b2[:, None]).reshape(C, H, W)
    assert np.abs(got - c).max() <= 1e-9


# ---------------------------------------------------------------------------
# stem, downsample, head


def test_stem_shapes_and_channel_path():
    p = init_stem_params(64, Rng(0))
    widths = [w.shape for w in (c.w for c in p.convs)]
    assert widths == [(32, 3, 3, 3), (32, 32, 3, 3), (32, 32, 3, 3), (64, 32, 3, 3)]
    x = gen(89).normal(size=(3, 32, 48)).astype(np.float32)
    out = stem_forward(x, p)
    assert out.shape == (64, 8, 12)


def test_stem_rejects_odd_width():
    with pytest.raises(ConfigError):
        init_stem_params(63, Rng(0))


def test_stem_param_count_matches_materialized():
    p = init_stem_params(64, Rng(0))
    live = sum(c.w.size + c.bn_scale.size + c.bn_shift.size for c in p.convs)
    assert live == stem_param_count(64)


def test_downsample_halves_and_normalizes():
    p = init_downsample_params(8, 16, Rng(1))
    x = gen(90).normal(size=(8, 6, 10)).astype(np.float32)
    out = downsample_forward(x, p)
    assert out.shape == (16, 3, 5)
    # fresh init has unit scales and zero shifts: per-site stats are normalized
    assert np.abs(out.mean(axis=0)).max() < 1e-4
    live = p.w.size + p.b.size + p.ln.scale.size + p.ln.shift.size
    assert live == downsample_param_count(8, 16)


def test_head_and_ffn_param_counts():
    p = init_head_params(64, 1000, Rng(2))
    live = p.ln.scale.size + p.ln.shift.size + p.w.size + p.b.size
    assert live == head_param_count(64, 1000)
    assert ffn_param_count(64) == 6 * 64 * 64 + 4 * 64


def test_block_param_count_matches_materialized():
    cfg = S3AConfig(channels=16, heads=4)
    p = init_block_params(cfg, Rng(3))
    live = p.cpe.filt.size + p.cpe.bias.size
    live += p.ln1.scale.size + p.ln1.shift.size + p.ln2.scale.size + p.ln2.shift.size
    live += sum(
        t.size
        for t in (p.s3a.w_qkv, p.s3a.b_qkv, p.s3a.w_out, p.s3a.b_out, p.s3a.lce_filt, p.s3a.lce_bias)
        if t is not None
    )
    live += p.ffn.w1.size + p.ffn.b1.size + p.ffn.w2.size + p.ffn.b2.size
    assert live == block_param_count(cfg)
