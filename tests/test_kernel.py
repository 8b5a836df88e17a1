"""Neighborhood-attention kernel: lattices, forward, backward, FLOPs."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssattn.kernel as kernel_mod
from ssattn.errors import (
    ConfigError,
    DTypeError,
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
    for center, k, d in ((2.7, 3, 1), (np.array([1.0, 2.0]), 3, 1), (True, 3, 1),
                         (2, True, 1), (2, 3, True), (2, 3.0, 1), (2, 3, 1.0)):
        with pytest.raises(ConfigError):
            clamped_lattice(center, 5, k, d)
    assert clamped_lattice(np.int64(2), 5, np.int64(3), np.int64(1)).tolist() == [1, 2, 3]


def test_spec_validation():
    for kernel, dilation in (((2, 3), 1), ((3, 3), (0, 1)), ((3,), 1), ((3, 3, 3), 1), ("33", 1),
                             ((3.0, 3.0), 1), ((3, 3), (1.5, 1.5)), ((True, True), 1), ((3, 3), (True, 1))):
        with pytest.raises(ConfigError):
            NeighborhoodSpec(kernel, dilation)
    spec = NeighborhoodSpec((3, 5), (2, 1))
    assert spec.kernel == (3, 5)
    assert spec.dilation == (2, 1)
    assert NeighborhoodSpec(3, 2) == NeighborhoodSpec((3, 3), (2, 2))  # an int is both axes
    assert NeighborhoodSpec(np.int64(3), (np.int32(2), 2)).dilation == (2, 2)


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


_odd_kernel = st.sampled_from([1, 3, 5, 7, 9])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    H=st.integers(1, 64), W=st.integers(1, 64),
    kh=_odd_kernel, kw=_odd_kernel, dh=st.integers(1, 12), dw=st.integers(1, 12),
)
@example(H=1, W=1, kh=3, kw=3, dh=1, dw=1)  # 1x1 map
@example(H=5, W=40, kh=9, kw=7, dh=1, dw=2)  # k_eff shrinks on the short axis
@example(H=6, W=9, kh=3, kw=5, dh=7, dw=12)  # dilation larger than either side
@example(H=56, W=56, kh=7, kw=7, dh=8, dw=8)  # stage-1 anchors: runs 25, 1 x 6, 25
@example(H=20, W=36, kh=3, kw=3, dh=1, dw=1)  # local window, non-square
@example(H=10, W=9, kh=3, kw=3, dh=4, dw=4)  # two adjacent edge runs down, one whole-axis run across
@example(H=6, W=9, kh=5, kw=5, dh=3, dw=3)  # one tap down: a key-set view that merges into a strided one
def test_plan_classes_tile_the_map_and_view_its_key_sets(H, W, kh, kw, dh, dw):
    spec = NeighborhoodSpec((kh, kw), (dh, dw))
    idx = flat_index_map(H, W, spec)
    positions = np.arange(H * W).reshape(1, H, W, 1)
    cover = np.zeros((H, W), dtype=np.int64)
    for axes in kernel_mod._plan(H, W, spec).classes:
        assert all(type(v) is int for runs, keys, tap in axes for v in (*runs, *keys, tap))
        (rows, krows, tr), (cols, kcols, tc) = axes
        r = rows.first + rows.step * np.arange(rows.count)[:, None] + np.arange(rows.length)
        c = cols.first + cols.step * np.arange(cols.count)[:, None] + np.arange(cols.length)
        np.add.at(cover, (r[:, None, :, None], c[None, :, None, :]), 1)
        # the [Gr, Gc, n] key view against the lattice rows of every query of every rectangle
        keys = kernel_mod._class_view(positions, krows, kcols, (tr, tc))
        keys = keys.reshape(rows.count, cols.count, 1, 1, -1)
        assert (idx[r[:, None, :, None], c[None, :, None, :]] == keys).all(), (rows, cols)
    assert (cover == 1).all()


def _gathered_matmul(x, y, spec, sampled):
    """_lattice_matmul's per-class GEMMs on key sets gathered by np.take through flat_index_map."""
    heads, H, W, _ = x.shape
    plan, idx, yf = kernel_mod._plan(H, W, spec), flat_index_map(H, W, spec), y.reshape(heads, H * W, -1)
    out = np.empty((heads, H, W, idx.shape[-1] if sampled else y.shape[-1]), y.dtype)
    for (rows, _, _), (cols, _, _) in plan.classes:
        firsts = np.ix_(rows.first + rows.step * np.arange(rows.count), cols.first + cols.step * np.arange(cols.count))
        ysets = np.take(yf, idx[firsts], axis=1)
        xb = kernel_mod._class_view(x, rows, cols)
        prod = np.matmul(xb.reshape(*ysets.shape[:3], -1, x.shape[-1]), ysets.swapaxes(-1, -2) if sampled else ysets)
        kernel_mod._class_view(out, rows, cols)[...] = prod.reshape(xb.shape[:5] + (-1,))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("H, W, heads, dh, spec", [
    # a single tap on one key axis: with a key-set view that is not contiguous,
    # matmul sums these float32 products in another order
    *[(H, W, heads, dh, NeighborhoodSpec(5, 3))
      for H, W in [(6, 9), (9, 5), (10, 6), (11, 6)] for heads, dh in [(1, 4), (3, 5)]],
    (56, 56, 2, 32, NeighborhoodSpec(7, 8)),  # stage-1 anchors
    (57, 43, 2, 32, NeighborhoodSpec(7, (8, 6))),  # anchors on sides that are not multiples of 7
    (20, 36, 2, 4, NeighborhoodSpec(3)),  # local window
    (13, 9, 3, 5, NeighborhoodSpec((3, 5), (2, 1))),
])
def test_lattice_products_equal_an_explicit_gather_bitwise(H, W, heads, dh, spec, dtype):
    plan = kernel_mod._plan(H, W, spec)
    g = gen(H * W + heads)
    x, y = (g.standard_normal((heads, H, W, dh)).astype(dtype) for _ in range(2))
    w = g.standard_normal((heads, H, W, plan.idx.shape[-1])).astype(dtype)
    for a, sampled in ((x, True), (w, False)):
        got = kernel_mod._lattice_matmul(a, y, plan, sampled)
        assert got.tobytes() == _gathered_matmul(a, y, spec, sampled).tobytes()


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


def test_scores_are_plain_dot_products_with_lattice_rows():
    g = gen(8)
    q = g.normal(size=(2, 5, 4, 9))
    k = g.normal(size=(2, 5, 4, 9))
    spec = NeighborhoodSpec((3, 3), (2, 1))
    rows = k.reshape(2, 20, 9)[:, flat_index_map(5, 4, spec)]  # [heads, H, W, n, dh]
    want = np.einsum("ahwd,ahwnd->ahwn", q, rows)
    assert np.allclose(neighborhood_scores(q, k, spec), want, rtol=0, atol=1e-12)


def test_softmax_matches_float64_reference():
    row = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    got = softmax_rows(row)
    e = np.exp(np.array([1.0, 2.0, 3.0], dtype=np.float64))
    want = e / e.sum()
    assert np.abs(got.astype(np.float64) - want).max() < 1e-7
    assert abs(float(got.sum()) - 1.0) < 1e-6


def test_softmax_rejects_nan():
    # a NaN, a +Inf, or a row with no finite score
    for bad in ([0.0, np.nan], [0.0, np.inf], [-np.inf, -np.inf]):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[1.0, 2.0], bad]))


def test_softmax_needs_rows_of_at_least_one_score():
    for bad in (np.zeros((2, 0)), np.ones(())):
        with pytest.raises(ShapeError, match="^softmax_rows needs rows of at least one score"):
            softmax_rows(bad)


def test_softmax_keeps_rows_with_some_minus_inf():
    got = softmax_rows(np.array([[0.0, -np.inf, 0.0]]))
    assert np.array_equal(got, [[0.5, 0.0, 0.5]])


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
    for empty in [(0, 2, 2, 3), (1, 2, 2, 0)]:  # no heads, no channels
        with pytest.raises(ShapeError):
            kernel_forward(np.zeros(empty), np.zeros(empty), np.zeros(empty), spec)


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
        ref = oracle_kernel(q, k, v, kernel, dilation, scale=1.0)
        assert np.abs(out - ref).max() <= 1e-6, (heads, H, W, dh, kernel, dilation)


def test_forward_single_precision_agrees_with_reference():
    g = gen(21)
    q = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    k = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    v = g.normal(size=(2, 6, 6, 4)).astype(np.float32)
    out, _ = kernel_forward(q, k, v, NeighborhoodSpec((3, 3)))
    ref = oracle_kernel(q, k, v, (3, 3), scale=1.0)
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
        wide = {name: t.astype(np.float64) for name, t in zip("qkv", (q, k, v))}
        f_of = _objective(wide["q"], wide["k"], wide["v"], spec, cot.astype(np.float64))
        for name, key in [("q", "grad_q"), ("k", "grad_k"), ("v", "grad_v")]:
            fd = fd_gradient(f_of(name), wide[name], step=1e-3)
            rel = np.abs(grads[key].astype(np.float64) - fd).max() / (np.abs(fd).max() + 1e-12)
            assert rel <= 1e-2, (name, rel)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-6), (np.float32, 1e-4)])
@pytest.mark.parametrize("heads, H, W, dh, kernel, dilation", [
    (2, 5, 9, 3, (3, 7), (2, 1)),  # clamped, non-square: many queries share keys
    (2, 1, 1, 3, (3, 3), (1, 1)),
    (3, 4, 5, 2, (3, 3), (1, 2)),  # a wrong per-head column offset mixes heads
    (1, 32, 32, 2, (7, 7), (4, 4)),  # runs 13, 1 x 6, 13 on both axes
    (3, 32, 32, 2, (7, 7), (4, 4)),
    (1, 20, 36, 2, (7, 7), (2, 5)),  # runs 7, 1 x 6, 7 down, 16, 1 x 4, 16 across
    (3, 20, 36, 2, (7, 7), (2, 5)),
])
def test_sparse_sweeps_match_oracle_and_finite_differences(
    heads, H, W, dh, kernel, dilation, dtype, tol
):
    g = gen(34)
    spec = NeighborhoodSpec(kernel, dilation)
    q, k, v, cot = (g.normal(size=(heads, H, W, dh)).astype(dtype) for _ in range(4))
    out, saved = kernel_forward(q, k, v, spec)
    assert out.dtype == dtype
    assert np.abs(out - oracle_kernel(q, k, v, kernel, dilation, scale=1.0)).max() <= tol
    grads = kernel_backward(cot, saved)
    wide = {name: t.astype(np.float64) for name, t in zip("qkv", (q, k, v))}
    f_of = _objective(wide["q"], wide["k"], wide["v"], spec, cot.astype(np.float64))
    for name in "qkv":
        got = grads[f"grad_{name}"]
        assert got.dtype == dtype
        x = wide[name]
        # every coordinate of a small tensor, a seeded sample of a large one
        pick = np.arange(x.size) if x.size <= 300 else g.choice(x.size, 32, replace=False)

        def f_at(vals, f=f_of(name), x=x, pick=pick):
            t = x.copy().reshape(-1)
            t[pick] = vals
            return f(t.reshape(x.shape))

        fd = fd_gradient(f_at, x.reshape(-1)[pick], step=1e-5)
        rel = np.abs(got.reshape(-1)[pick] - fd).max() / (np.abs(fd).max() + 1e-12)
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


def test_backward_of_a_strided_cotangent_equals_its_contiguous_copy():
    g = gen(34)
    q, k, v = (g.normal(size=(2, 7, 6, 3)).astype(np.float32) for _ in range(3))
    _, saved = kernel_forward(q, k, v, NeighborhoodSpec((3, 5), (2, 1)))
    # [heads, H, W, dh] as a transposed view of a [heads*dh, H*W] map, as s3a_backward's heads are
    strided = g.normal(size=(2 * 3, 7 * 6)).astype(np.float32).reshape(2, 3, 7, 6).transpose(0, 2, 3, 1)
    assert not strided.flags.c_contiguous
    got = kernel_backward(strided, saved)
    want = kernel_backward(np.ascontiguousarray(strided), saved)
    for key in ("grad_q", "grad_k", "grad_v"):
        assert got[key].tobytes() == want[key].tobytes(), key


def test_scores_reject_mixed_or_non_float_operands():
    spec = NeighborhoodSpec((3, 3))
    q = np.zeros((1, 4, 4, 2))
    for a, b in ((q, q.astype(np.float32)), (q.astype(np.float32), q), (q.astype(np.int64),) * 2):
        with pytest.raises(DTypeError, match="neighborhood_scores"):
            neighborhood_scores(a, b, spec)


def test_aggregate_rejects_mixed_or_non_float_operands():
    spec = NeighborhoodSpec((3, 3))
    attn, v = np.full((1, 4, 4, 9), 1 / 9), np.zeros((1, 4, 4, 2))
    for a, b in ((attn.astype(np.float32), v), (attn, v.astype(np.float32)), (attn, v.astype(np.int64))):
        with pytest.raises(DTypeError, match="neighborhood_aggregate"):
            neighborhood_aggregate(a, b, spec)


def test_forward_rejects_integer_operands():
    ints = np.ones((1, 4, 4, 2), dtype=np.int64)
    with pytest.raises(DTypeError):
        kernel_forward(ints, ints, ints, NeighborhoodSpec((3, 3)))
    with pytest.raises(DTypeError, match="^softmax_rows: scores has non-floating dtype int64$"):
        softmax_rows(ints)


def test_backward_rejects_a_cotangent_of_another_dtype():
    q = gen(35).normal(size=(1, 3, 3, 2))
    _, saved = kernel_forward(q, q, q, NeighborhoodSpec((3, 3)))
    with pytest.raises(DTypeError, match="kernel_backward: grads_out is float32 but v is float64"):
        kernel_backward(q.astype(np.float32), saved)


def test_operands_that_are_not_arrays_raise_named_errors():
    spec = NeighborhoodSpec((3, 3))
    q = np.zeros((1, 4, 4, 2))
    _, saved = kernel_forward(q, q, q, spec)
    with pytest.raises(DTypeError, match="neighborhood_scores: q is a list"):
        neighborhood_scores(q.tolist(), q, spec)
    with pytest.raises(DTypeError, match="neighborhood_aggregate: attn is a list"):
        neighborhood_aggregate(np.full((1, 4, 4, 9), 1 / 9).tolist(), q, spec)
    with pytest.raises(DTypeError, match="kernel_backward: grads_out is a list"):
        kernel_backward(q.tolist(), saved)


# ---------------------------------------------------------------------------
# the backward's sweep-matrix products, in both forms


def _scatter_reference(w, x, idx):
    """out[a, p] = sum of w[a, i, j, t] * x[a, i, j] over idx[i, j, t] = p, by np.add.at in float64."""
    heads, H, W, n = w.shape
    rows = w.astype(np.float64).reshape(heads, H * W, n, 1) * x.astype(np.float64).reshape(heads, H * W, 1, -1)
    out = np.zeros((heads, H * W, x.shape[-1]))
    for a in range(heads):
        np.add.at(out[a], idx.reshape(-1), rows[a].reshape(H * W * n, -1))
    return out.reshape(heads, H, W, -1)


def _anchors(H, W):
    """Stage-2 anchors as S3A resolves them: 7 per axis, stride side // 7."""
    return NeighborhoodSpec((7, 7), (max(1, H // 7), max(1, W // 7)))


def _products(heads, H, W, spec, dtype, class_form, dh=3, seed=50):
    """(inputs, the three products) of one sweep with random weights, in the form asked for."""
    plan = kernel_mod._plan(H, W, spec)
    n = plan.idx.shape[-1]
    g = gen(seed)
    d_scores, attn = (g.normal(size=(heads, H, W, n)).astype(dtype) for _ in range(2))
    q, k, cot = (g.normal(size=(heads, H, W, dh)).astype(dtype) for _ in range(3))
    out = None
    if class_form:
        out = {"grad_q": np.empty(q.shape, dtype), "grad_k": np.zeros(q.shape, dtype),
               "grad_v": np.zeros(q.shape, dtype)}
    got = kernel_mod._sweep_products(d_scores, attn, q, k, cot, plan, out)
    return plan, (d_scores, attn, q, k, cot), got


@pytest.mark.parametrize("class_form", [False, True], ids=["csr", "per-class"])
@pytest.mark.parametrize(
    "heads, H, W, spec",
    [
        (2, 56, 56, _anchors(56, 56)),  # stage-1 anchors: no tap slices
        (2, 57, 41, _anchors(57, 41)),  # the lattice overlaps itself: 2 x 3 tap slices
        (1, 55, 55, _anchors(55, 55)),
        (3, 9, 13, _anchors(9, 13)),  # up to 3 x 5 tap slices
        (2, 7, 7, _anchors(7, 7)),  # one class, one rectangle
        (2, 1, 1, NeighborhoodSpec((7, 7))),  # one query, one key
        (2, 20, 36, NeighborhoodSpec((3, 3))),  # local window, non-square
        (2, 5, 9, NeighborhoodSpec((3, 7), (2, 1))),  # non-square spec
        (1, 20, 36, NeighborhoodSpec((7, 7), (2, 5))),
    ],
)
def test_sweep_products_match_a_scatter_reference(heads, H, W, spec, class_form):
    plan, (d_scores, attn, q, k, cot), got = _products(heads, H, W, spec, np.float64, class_form)
    want_q = kernel_mod._lattice_matmul(d_scores, k, plan, sampled=False)
    np.testing.assert_allclose(got["grad_q"], want_q, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got["grad_k"], _scatter_reference(d_scores, q, plan.idx), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got["grad_v"], _scatter_reference(attn, cot, plan.idx), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("H, W, spec", [(56, 56, _anchors(56, 56)), (57, 41, _anchors(57, 41))])
def test_single_precision_products_err_alike_in_both_forms(H, W, spec):
    errs = {}
    for class_form in (False, True):
        _, (d_scores, attn, q, k, cot), got = _products(2, H, W, spec, np.float32, class_form, dh=32)
        want = _scatter_reference(attn, cot, kernel_mod._plan(H, W, spec).idx)
        assert got["grad_v"].dtype == np.float32
        errs[class_form] = np.abs(got["grad_v"] - want).max() / np.abs(want).max()
    # f32 rounding of sums over up to 49 * 625 terms: about 1e-6 of the largest entry either way
    assert errs[False] <= 1e-5 and errs[True] <= 2 * errs[False], errs


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    H=st.integers(1, 40), W=st.integers(1, 40),
    kh=_odd_kernel, kw=_odd_kernel, dh=st.integers(1, 12), dw=st.integers(1, 12),
)
def test_class_form_scatter_matches_the_reference_on_any_geometry(H, W, kh, kw, dh, dw):
    spec = NeighborhoodSpec((kh, kw), (dh, dw))
    plan, (d_scores, _, q, _, _), got = _products(1, H, W, spec, np.float64, class_form=True, dh=2)
    np.testing.assert_allclose(got["grad_k"], _scatter_reference(d_scores, q, plan.idx), rtol=1e-12, atol=1e-12)


def test_the_plan_runs_anchors_per_class_and_the_local_window_on_csr():
    for side in range(4, 64):
        assert kernel_mod._plan(side, side, NeighborhoodSpec((3, 3))).on_csr, side
    for H, W in [(7, 7), (14, 14), (28, 28), (56, 56), (55, 55), (57, 41), (40, 160)]:
        assert not kernel_mod._plan(H, W, _anchors(H, W)).on_csr, (H, W)


def test_an_anchor_backward_builds_no_csr_pattern():
    kernel_mod._plan.cache_clear()
    q = gen(51).normal(size=(2, 56, 56, 4)).astype(np.float32)
    for spec in (_anchors(56, 56), NeighborhoodSpec((3, 3))):
        kernel_backward(q, kernel_forward(q, q, q, spec)[1])
    assert kernel_mod._plan(56, 56, _anchors(56, 56)).csr is None
    assert kernel_mod._plan(56, 56, NeighborhoodSpec((3, 3))).csr is not None


# ---------------------------------------------------------------------------
# the per-geometry plan cache


def test_index_map_is_shared_and_read_only():
    spec = NeighborhoodSpec((7, 7), (8, 8))
    idx = flat_index_map(56, 56, spec)
    assert idx is flat_index_map(56, 56, spec)
    assert idx.dtype == np.int64 and not idx.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0, 0] = 1
    with pytest.raises(ValueError):
        idx.flags.writeable = True
    # a cached int geometry does not answer for a float side that compares equal
    with pytest.raises(ConfigError):
        flat_index_map(56.0, 56, spec)


def _forward_backward(heads, H, W, spec, dtype, seed=40):
    q, k, v, g = (gen(seed + i).normal(size=(heads, H, W, 4)).astype(dtype) for i in range(4))
    out, saved = kernel_forward(q, k, v, spec)
    return [out, saved.attn] + [a for _, a in sorted(kernel_backward(g, saved).items())]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "H, W, spec, classes",
    [
        (56, 56, NeighborhoodSpec((7, 7), (8, 8)), 4),  # stage-1 anchors
        (20, 36, NeighborhoodSpec((3, 3), (1, 1)), 4),  # local window, non-square
        (5, 5, NeighborhoodSpec((5, 5), (1, 1)), 1),  # one lattice for the whole map
    ],
)
def test_cached_plan_gives_bitwise_the_results_of_a_fresh_one(H, W, spec, classes, dtype):
    assert len(kernel_mod._plan(H, W, spec).classes) == classes
    kernel_mod._plan.cache_clear()
    fresh = _forward_backward(2, H, W, spec, dtype)
    assert kernel_mod._plan.cache_info().currsize == 1
    for _ in range(2):  # the plan and its CSR pattern are cached now
        for a, b in zip(_forward_backward(2, H, W, spec, dtype), fresh):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_forward_alone_builds_no_sweep_pattern():
    spec = NeighborhoodSpec((3, 3), (2, 2))
    kernel_mod._plan.cache_clear()
    q = gen(41).normal(size=(2, 9, 7, 4))
    kernel_forward(q, q, q, spec)
    assert kernel_mod._plan(9, 7, spec).csr is None


def test_plan_cache_stays_within_its_bound():
    spec = NeighborhoodSpec((3, 3))
    for side in range(1, kernel_mod._PLANS + 10):
        flat_index_map(side, 3, spec)
        assert kernel_mod._plan.cache_info().currsize <= kernel_mod._PLANS
    assert kernel_mod._plan.cache_info().currsize == kernel_mod._PLANS


def test_one_plan_serves_several_head_counts():
    H, W, spec = 14, 11, NeighborhoodSpec((7, 7), (4, 2))
    kernel_mod._plan.cache_clear()
    fresh = {heads: _forward_backward(heads, H, W, spec, np.float64) for heads in (1, 3)}
    for heads in (1, 3, 1, 3):
        for a, b in zip(_forward_backward(heads, H, W, spec, np.float64), fresh[heads]):
            assert a.tobytes() == b.tobytes()
    # head 0 of the three-head call is the one-head call on head 0's inputs
    assert kernel_mod._plan.cache_info().currsize == 1
    for a, b in zip(fresh[3], fresh[1]):
        np.testing.assert_allclose(a[:1], b, rtol=1e-12, atol=1e-12)


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
