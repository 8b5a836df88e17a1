"""Reference-side contracts: axis lattices, brute-force attention, and FD."""
import numpy as np
import pytest

from ssattn.errors import EmptyDomainError, NumericError
from ssattn.layer import S3AConfig, init_s3a_params, s3a_forward
from ssattn.oracle import (
    axis_points,
    dense_attention,
    fd_gradient,
    oracle_kernel,
    oracle_lce,
    oracle_s3a,
)
from ssattn.tensor import Rng


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# axis lattices (a 2D neighborhood is the product of one lattice per axis)


def test_interior_anchor_set_is_symmetric():
    pts = axis_points(28, 56, 7, 8)
    assert pts == [4, 12, 20, 28, 36, 44, 52]
    # symmetric about the query in the interior
    assert all(abs(p - 28) <= 24 for p in pts)
    assert [28 - p for p in pts] == [p - 28 for p in reversed(pts)]


def test_corner_anchor_set_hugs_the_border():
    assert axis_points(0, 56, 7, 8) == [0, 8, 16, 24, 32, 40, 48]


def test_single_anchor_is_the_query_itself():
    for i in (0, 3, 9):
        assert axis_points(i, 10, 1, 4) == [i]


def test_window_one_is_the_site_itself():
    assert axis_points(4, 9, 1) == [4]
    assert axis_points(7, 11, 1) == [7]


def test_unit_stride_anchors_equal_local_window():
    # stride-1 anchors form a contiguous window that contains the site
    for m, side in [(0, 9), (5, 9), (8, 9), (3, 11), (10, 11)]:
        pts = axis_points(m, side, 5, 1)
        assert pts == list(range(pts[0], pts[0] + 5))
        assert m in pts


def test_point_set_cardinality_is_constant_over_queries():
    for side in (13, 7):
        assert len({len(axis_points(i, side, 5, 2)) for i in range(side)}) == 1
        assert {len(axis_points(i, side, 3)) for i in range(side)} == {3}


def test_point_sets_stay_in_bounds_and_never_duplicate():
    g = gen(50)
    for _ in range(200):
        side = int(g.integers(1, 15))
        i = int(g.integers(0, side))
        a = int(g.choice([1, 3, 5, 7]))
        s = int(g.integers(1, 5))
        pts = axis_points(i, side, a, s)
        assert len(pts) == len(set(pts))
        assert all(0 <= p < side for p in pts)
        assert i in axis_points(i, side, 3, 1)


def test_axis_points_rejects_empty_axis():
    with pytest.raises(EmptyDomainError):
        axis_points(0, 0, 3, 1)


def test_pair_arguments_accepted():
    # anchors (3, 5) with strides (2, 1) at (3, 3) on an 8 x 12 map
    rows = axis_points(3, 8, 3, 2)
    cols = axis_points(3, 12, 5, 1)
    assert rows == [1, 3, 5]
    assert cols == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# brute-force evaluators


def test_oracle_constant_values_are_a_fixed_point():
    # softmax weights sum to one, so constant values pass through
    g = gen(51)
    q = g.normal(size=(2, 4, 5, 3))
    k = g.normal(size=(2, 4, 5, 3))
    v = np.full((2, 4, 5, 3), 0.75)
    out = oracle_kernel(q, k, v, (3, 3), (1, 1))
    assert np.abs(out - 0.75).max() < 1e-12


def test_oracle_lce_zero_filter_is_bias_only():
    g = gen(52)
    x = g.normal(size=(3, 4, 4))
    bias = np.array([1.0, -2.0, 0.5])
    out = oracle_lce(x, np.zeros((3, 5, 5)), bias)
    assert np.allclose(out, bias[:, None, None])


def test_oracle_s3a_agrees_with_fast_layer_on_one_instance():
    cfg = S3AConfig(channels=8, heads=2, window=3, anchors=3, stride="auto")
    params = init_s3a_params(cfg, Rng(5, np.float64))
    x = gen(53).normal(size=(8, 6, 7))
    fast, _ = s3a_forward(x, params, cfg)
    slow = oracle_s3a(x, params, cfg)
    assert np.abs(fast - slow).max() <= 1e-6


def test_dense_attention_single_token_returns_value_projection():
    g = gen(54)
    C = 6
    x = g.normal(size=(C, 1, 1))
    wq, wk, wv = g.normal(size=(3, C, C))
    out = dense_attention(x, wq, wk, wv, heads=2)
    want = (wv @ x.reshape(C, 1)).reshape(C, 1, 1)
    assert np.abs(out - want).max() < 1e-12


def test_dense_attention_is_permutation_equivariant():
    # full attention has no positional structure: permuting tokens
    # permutes outputs identically
    g = gen(55)
    C, H, W = 4, 2, 3
    x = g.normal(size=(C, H, W))
    wq, wk, wv = g.normal(size=(3, C, C))
    out = dense_attention(x, wq, wk, wv, heads=2)
    perm = g.permutation(H * W)
    xp = x.reshape(C, H * W)[:, perm].reshape(C, H, W)
    outp = dense_attention(xp, wq, wk, wv, heads=2)
    assert np.abs(outp.reshape(C, -1) - out.reshape(C, -1)[:, perm]).max() < 1e-10


def test_triangulation_window_one_single_stage():
    # window 1 makes stage 1 a no-op, so the layer's attention reduces
    # to one dilated neighborhood attention over the raw values
    cfg = S3AConfig(channels=6, heads=2, window=1, anchors=3, stride=2, lce=False)
    params = init_s3a_params(cfg, Rng(9, np.float64))
    x = gen(56).normal(size=(6, 5, 5))
    C, H, W = x.shape
    xf = x.reshape(C, -1)
    qkv = params.w_qkv @ xf + params.b_qkv[:, None]
    q, k, v = (
        t.reshape(2, 3, H, W).transpose(0, 2, 3, 1)
        for t in (qkv[:C], qkv[C : 2 * C], qkv[2 * C :])
    )
    single = oracle_kernel(q, k, v, (3, 3), (2, 2), scale=3**-0.5)
    merged = single.transpose(0, 3, 1, 2).reshape(C, -1)
    want = (params.w_out @ merged + params.b_out[:, None]).reshape(C, H, W)
    got = oracle_s3a(x, params, cfg)
    assert np.abs(got - want).max() <= 1e-10


# ---------------------------------------------------------------------------
# finite differences


def test_fd_gradient_of_sum_is_ones():
    x = gen(57).normal(size=(3, 4))
    grad = fd_gradient(lambda t: float(t.sum()), x)
    assert np.abs(grad - 1.0).max() < 1e-9


def test_fd_gradient_of_half_square_norm_is_x():
    x = gen(58).normal(size=(5,))
    grad = fd_gradient(lambda t: 0.5 * float((t * t).sum()), x)
    assert np.abs(grad - x).max() < 1e-9


def test_fd_gradient_rejects_non_finite_objective():
    x = np.array([1.0])
    with pytest.raises(NumericError):
        fd_gradient(lambda t: float("nan"), x)


def test_fd_gradient_does_not_mutate_input():
    x = gen(59).normal(size=(4,))
    before = x.copy()
    fd_gradient(lambda t: float((t**3).sum()), x)
    assert np.array_equal(x, before)
