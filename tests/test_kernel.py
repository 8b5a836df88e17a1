"""Neighborhood-attention kernel: lattices, forward, backward, FLOPs."""
import numpy as np
import pytest

from ssattn.errors import (
    ConfigError,
    EmptyDomainError,
    NumericError,
    ShapeError,
)
from ssattn.kernel import (
    NeighborhoodSpec,
    clamped_lattice,
    effective_kernel,
    flat_index_map,
    kernel_backward,
    kernel_flops,
    kernel_forward,
    neighborhood_aggregate,
    neighborhood_scores,
    softmax_rows,
)
from ssattn.oracle import axis_points, fd_gradient, oracle_kernel


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# lattice construction


def test_interior_lattice_is_centered():
    got = clamped_lattice(28, 56, 7, 8)
    assert got.tolist() == [4, 12, 20, 28, 36, 44, 52]


def test_border_lattice_shifts_whole_set():
    got = clamped_lattice(5, 56, 7, 8)
    assert got.tolist() == [0, 8, 16, 24, 32, 40, 48]


def test_right_border_lattice_shifts_back():
    got = clamped_lattice(54, 56, 7, 8)
    assert got.tolist() == [7, 15, 23, 31, 39, 47, 55]


def test_singleton_lattice_is_the_center():
    for side, center, d in [(1, 0, 1), (9, 4, 3), (13, 12, 2)]:
        assert clamped_lattice(center, side, 1, d).tolist() == [center]


def test_effective_kernel_shrinks_to_fit():
    assert effective_kernel(7, 56, 8) == 7
    assert effective_kernel(7, 5, 1) == 5
    assert effective_kernel(7, 5, 2) == 3
    assert effective_kernel(5, 4, 1) == 3  # even fits round down to odd
    assert effective_kernel(3, 1, 1) == 1
    assert effective_kernel(1, 100, 7) == 1


def test_lattice_matches_independent_derivation():
    g = gen(101)
    for _ in range(300):
        side = int(g.integers(1, 40))
        k = int(g.choice([1, 3, 5, 7, 9, 11]))
        d = int(g.integers(1, 9))
        center = int(g.integers(0, side))
        fast = clamped_lattice(center, side, k, d).tolist()
        slow = axis_points(center, side, k, d)
        assert fast == slow, (center, side, k, d)


def test_lattice_over_all_centers_matches_scalar_calls():
    for side, k, d in [(1, 3, 1), (5, 7, 2), (9, 7, 1), (56, 7, 8), (13, 5, 3)]:
        rows = clamped_lattice(np.arange(side), side, k, d)
        assert rows.shape == (side, effective_kernel(k, side, d))
        for c in range(side):
            assert rows[c].tolist() == axis_points(c, side, k, d), (c, side, k, d)
    with pytest.raises(ShapeError):
        clamped_lattice(np.array([0, 8]), 8, 3, 1)


def test_lattice_rejects_bad_arguments():
    with pytest.raises(EmptyDomainError):
        effective_kernel(3, 0, 1)
    with pytest.raises(EmptyDomainError):
        clamped_lattice(0, 0, 3, 1)
    with pytest.raises(ShapeError):
        clamped_lattice(56, 56, 3, 1)
    with pytest.raises(ShapeError):
        clamped_lattice(-1, 56, 3, 1)
    with pytest.raises(ConfigError):
        clamped_lattice(0, 8, 4, 1)  # even kernel
    with pytest.raises(ConfigError):
        clamped_lattice(0, 8, 3, 0)  # zero step


def test_spec_validation():
    with pytest.raises(ConfigError):
        NeighborhoodSpec((2, 3))
    with pytest.raises(ConfigError):
        NeighborhoodSpec((3, 3), (0, 1))
    spec = NeighborhoodSpec((3, 5), (2, 1))
    assert spec.kernel == (3, 5)
    assert spec.dilation == (2, 1)


def test_flat_index_map_enumerates_height_major():
    H, W = 6, 9
    spec = NeighborhoodSpec((3, 5), (2, 2))
    idx = flat_index_map(H, W, spec)
    keh = effective_kernel(3, H, 2)
    kew = effective_kernel(5, W, 2)
    assert idx.shape == (H, W, keh * kew)
    for i in range(H):
        for j in range(W):
            rows = clamped_lattice(i, H, 3, 2)
            cols = clamped_lattice(j, W, 5, 2)
            want = [p * W + r for p in rows for r in cols]
            assert idx[i, j].tolist() == want


# ---------------------------------------------------------------------------
# forward path


def test_single_site_attention_is_identity_on_values():
    g = gen(7)
    q = g.normal(size=(2, 1, 1, 3))
    k = g.normal(size=(2, 1, 1, 3))
    v = g.normal(size=(2, 1, 1, 3))
    spec = NeighborhoodSpec((1, 1))
    scores = neighborhood_scores(q, k, spec)
    attn = softmax_rows(scores)
    assert np.allclose(attn, 1.0)
    out, _ = kernel_forward(q, k, v, spec)
    assert np.allclose(out, v, atol=1e-12)


def test_scores_default_scale_is_inverse_sqrt_head_dim():
    g = gen(8)
    q = g.normal(size=(1, 4, 4, 9))
    k = g.normal(size=(1, 4, 4, 9))
    spec = NeighborhoodSpec((3, 3))
    implicit = neighborhood_scores(q, k, spec)
    explicit = neighborhood_scores(q, k, spec, scale=9**-0.5)
    assert np.array_equal(implicit, explicit)
    unscaled = neighborhood_scores(q, k, spec, scale=1.0)
    assert np.allclose(implicit, unscaled / 3.0, atol=1e-6)


def test_softmax_matches_float64_reference():
    row = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    got = softmax_rows(row)
    e = np.exp(np.array([1.0, 2.0, 3.0], dtype=np.float64))
    want = e / e.sum()
    assert np.abs(got.astype(np.float64) - want).max() < 1e-7
    assert abs(float(got.sum()) - 1.0) < 1e-6


def test_softmax_rejects_nan():
    bad = np.array([[0.0, np.nan]])
    with pytest.raises(NumericError):
        softmax_rows(bad)


def test_softmax_shift_invariance():
    g = gen(12)
    scores = g.normal(size=(2, 3, 3, 5))
    shifted = softmax_rows(scores + 1000.0)
    assert np.allclose(shifted, softmax_rows(scores), atol=1e-6)


def test_aggregate_shape_guards():
    g = gen(13)
    v = g.normal(size=(1, 2, 2, 3))
    spec = NeighborhoodSpec((1, 1))
    with pytest.raises(ShapeError):
        neighborhood_aggregate(np.ones((1, 2, 2, 2)), v, spec)
    with pytest.raises(ShapeError):
        neighborhood_scores(np.zeros((1, 2, 2, 3)), np.zeros((1, 2, 2, 4)), spec)
    with pytest.raises(ShapeError):
        neighborhood_scores(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), spec)


def test_forward_agrees_with_bruteforce_reference():
    g = gen(20)
    cases = [
        # heads, H, W, dh, kernel, dilation
        (1, 1, 1, 2, (1, 1), (1, 1)),
        (1, 5, 5, 4, (3, 3), (1, 1)),
        (2, 7, 3, 3, (3, 5), (1, 1)),
        (2, 8, 8, 4, (5, 5), (2, 2)),
        (1, 12, 4, 2, (7, 3), (3, 1)),
        (4, 6, 6, 2, (3, 3), (2, 3)),
        (1, 9, 2, 5, (9, 1), (1, 1)),
        (3, 4, 11, 2, (1, 7), (1, 2)),
    ]
    for heads, H, W, dh, kernel, dilation in cases:
        q = g.normal(size=(heads, H, W, dh))
        k = g.normal(size=(heads, H, W, dh))
        v = g.normal(size=(heads, H, W, dh))
        out, _ = kernel_forward(q, k, v, NeighborhoodSpec(kernel, dilation))
        ref = oracle_kernel(q, k, v, kernel, dilation)
        assert np.abs(out - ref).max() <= 1e-6, (heads, H, W, dh, kernel, dilation)


def test_forward_single_precision_agrees_with_reference():
    g = gen(21)
    q = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    k = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    v = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    out, _ = kernel_forward(q, k, v, NeighborhoodSpec((3, 3)))
    ref = oracle_kernel(q, k, v, (3, 3))
    assert out.dtype == np.float32
    assert np.abs(out.astype(np.float64) - ref).max() <= 1e-4


# ---------------------------------------------------------------------------
# backward path


def _objective(q, k, v, spec, cot):
    def f_of(name):
        def f(t):
            args = {"q": q, "k": k, "v": v}
            args[name] = t
            out, _ = kernel_forward(args["q"], args["k"], args["v"], spec)
            return float((out * cot).sum())

        return f

    return f_of


def test_backward_matches_finite_differences_over_many_configs():
    g = gen(30)
    checked = 0
    worst = 0.0
    while checked < 50:
        heads = int(g.choice([1, 2]))
        H = int(g.integers(1, 4))
        W = int(g.integers(1, 4))
        dh = int(g.choice([2, 3]))
        kernel = (int(g.choice([1, 3])), int(g.choice([1, 3])))
        dilation = (int(g.integers(1, 3)), int(g.integers(1, 3)))
        spec = NeighborhoodSpec(kernel, dilation)
        q = g.normal(size=(heads, H, W, dh))
        k = g.normal(size=(heads, H, W, dh))
        v = g.normal(size=(heads, H, W, dh))
        cot = g.normal(size=(heads, H, W, dh))
        out, saved = kernel_forward(q, k, v, spec)
        grads = kernel_backward(cot, saved)
        f_of = _objective(q, k, v, spec, cot)
        for name, key in [("q", "grad_q"), ("k", "grad_k"), ("v", "grad_v")]:
            fd = fd_gradient(f_of(name), {"q": q, "k": k, "v": v}[name], step=1e-5)
            rel = np.abs(grads[key] - fd).max() / (np.abs(fd).max() + 1e-12)
            worst = max(worst, float(rel))
            assert rel <= 1e-6, (name, heads, H, W, dh, kernel, dilation, rel)
        checked += 1
    assert checked >= 50
    assert worst <= 1e-6


def test_backward_single_precision_tolerance():
    g = gen(31)
    for _ in range(5):
        q = g.normal(size=(2, 3, 3, 2)).astype(np.float32)
        k = g.normal(size=(2, 3, 3, 2)).astype(np.float32)
        v = g.normal(size=(2, 3, 3, 2)).astype(np.float32)
        cot = g.normal(size=(2, 3, 3, 2)).astype(np.float32)
        spec = NeighborhoodSpec((3, 3))
        _, saved = kernel_forward(q, k, v, spec)
        grads = kernel_backward(cot, saved)
        f_of = _objective(q, k, v, spec, cot)
        for name, key in [("q", "grad_q"), ("k", "grad_k"), ("v", "grad_v")]:
            fd = fd_gradient(f_of(name), {"q": q, "k": k, "v": v}[name], step=1e-3)
            rel = np.abs(grads[key].astype(np.float64) - fd).max() / (np.abs(fd).max() + 1e-12)
            assert rel <= 1e-2, (name, rel)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-6), (np.float32, 1e-4)])
@pytest.mark.parametrize("heads, H, W, dh, kernel, dilation", [
    (2, 5, 9, 3, (3, 7), (2, 1)),  # clamped, non-square: many queries share keys
    (2, 1, 1, 3, (3, 3), (1, 1)),
    (3, 4, 5, 2, (3, 3), (1, 2)),  # a wrong per-head column offset mixes heads
])
def test_sparse_sweeps_match_oracle_and_finite_differences(
    heads, H, W, dh, kernel, dilation, dtype, tol
):
    g = gen(34)
    spec = NeighborhoodSpec(kernel, dilation)
    q, k, v, cot = (g.normal(size=(heads, H, W, dh)).astype(dtype) for _ in range(4))
    out, saved = kernel_forward(q, k, v, spec)
    assert out.dtype == dtype
    assert np.abs(out - oracle_kernel(q, k, v, kernel, dilation)).max() <= tol
    grads = kernel_backward(cot, saved)
    wide = {name: t.astype(np.float64) for name, t in zip("qkv", (q, k, v))}
    f_of = _objective(wide["q"], wide["k"], wide["v"], spec, cot.astype(np.float64))
    for name in "qkv":
        got = grads[f"grad_{name}"]
        assert got.dtype == dtype
        fd = fd_gradient(f_of(name), wide[name], step=1e-5)
        rel = np.abs(got - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel <= tol, (name, rel)


def test_backward_zero_cotangent_gives_zero_grads():
    g = gen(32)
    q = g.normal(size=(1, 3, 3, 2))
    k = g.normal(size=(1, 3, 3, 2))
    v = g.normal(size=(1, 3, 3, 2))
    _, saved = kernel_forward(q, k, v, NeighborhoodSpec((3, 3)))
    grads = kernel_backward(np.zeros_like(v), saved)
    for key in ("grad_q", "grad_k", "grad_v"):
        assert np.all(grads[key] == 0.0)


def test_backward_state_guards():
    g = gen(33)
    q = g.normal(size=(1, 2, 2, 2))
    _, saved = kernel_forward(q, q, q, NeighborhoodSpec((3, 3)))
    # the cotangent must match the saved values
    with pytest.raises(ShapeError):
        kernel_backward(np.zeros((1, 2, 2, 3)), saved)


# ---------------------------------------------------------------------------
# cost accounting


def test_kernel_flops_frozen_example():
    assert kernel_flops(56, 56, 2, 32, NeighborhoodSpec((3, 3))) == 3_612_672


def test_kernel_flops_counts_effective_extent():
    # extent clamps to the axis, so a huge nominal kernel stops growing
    small = kernel_flops(5, 5, 1, 4, NeighborhoodSpec((5, 5)))
    clamped = kernel_flops(5, 5, 1, 4, NeighborhoodSpec((99, 99)))
    assert small == clamped == 2 * 25 * 4 * 25


def test_kernel_flops_linear_in_tokens_when_extent_fixed():
    spec = NeighborhoodSpec((3, 3))
    base = kernel_flops(8, 8, 2, 4, spec)
    assert kernel_flops(16, 8, 2, 4, spec) == 2 * base
    assert kernel_flops(16, 16, 2, 4, spec) == 4 * base
