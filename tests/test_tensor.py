"""Dtypes, the dtype and type guards, the Philox-backed random source, and its shape checks."""
import dataclasses

import numpy as np
import pytest

from ssattn import Rng
from ssattn.blocks import conv2d, ffn_forward, gelu, init_ffn_params, layernorm, ssvit_block, stem_forward
from ssattn.checks import run_checks, tiny_config
from ssattn.errors import ConfigError, DTypeError, SizeError
from ssattn.kernel import (
    NeighborhoodSpec,
    flat_index_map,
    kernel_backward,
    kernel_flops,
    kernel_forward,
    neighborhood_aggregate,
    neighborhood_scores,
    softmax_rows,
)
from ssattn.layer import (
    S3AConfig,
    depthwise_backward,
    depthwise_forward,
    init_s3a_params,
    s3a_attention_flops,
    s3a_backward,
    s3a_flops,
    s3a_forward,
    s3a_param_shapes,
)
from ssattn.model import build_model, load_state, model_forward, param_items
from ssattn.tensor import DEFAULT_DTYPE, DTYPES, F32, F64, ShapeOnly


def test_dtype_registry():
    assert set(DTYPES) == {"f32", "f64"}
    assert DTYPES["f32"] == np.dtype(np.float32)
    assert DTYPES["f64"] == np.dtype(np.float64)
    assert DEFAULT_DTYPE == F32


@pytest.mark.parametrize("source", [Rng(0), ShapeOnly()], ids=["Rng", "ShapeOnly"])
def test_normal_and_full_reject_bad_shapes(source):
    for make in (source.normal, lambda shape: source.full(shape, 0.0)):
        with pytest.raises(SizeError):
            make((2, -1))
        with pytest.raises(SizeError):
            make((2**40, 2**40))
        with pytest.raises(SizeError):
            make(-1)


@pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.int32, np.complex64, "f8x", None])
def test_sources_admit_only_float32_and_float64(dtype):
    with pytest.raises(DTypeError, match="float32 or float64"):
        Rng(0, dtype)
    with pytest.raises(DTypeError, match="float32 or float64"):
        ShapeOnly(dtype)


def test_negative_seed_is_config_error_through_the_python_api():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        Rng(-1)
    with pytest.raises(ConfigError):
        build_model(cfg, Rng(-1))
    with pytest.raises(ConfigError):
        run_checks(["identity"], seed=-7)


@pytest.mark.parametrize("seed", [1.5, True, "3", None, 2.0, np.float64(4.0)])
def test_seeds_must_be_ints(seed):
    with pytest.raises(ConfigError, match="seed must be an int >= 0"):
        Rng(seed)
    with pytest.raises(ConfigError, match="seed must be an int >= 0"):
        run_checks(["params"], seed=seed)


def test_numpy_integer_seeds_draw_the_int_seed_stream():
    want = Rng(3).normal(4)
    for seed in (np.int64(3), np.uint8(3), np.int32(3)):
        assert Rng(seed).normal(4).tobytes() == want.tobytes()


@pytest.mark.parametrize("source", [Rng(0), ShapeOnly()], ids=["Rng", "ShapeOnly"])
def test_sources_reject_non_finite_or_negative_settings(source):
    for std in (-1.0, float("nan"), float("inf"), "1", True):
        with pytest.raises(ConfigError, match="std must be"):
            source.normal(3, std)
    for value in (float("nan"), float("inf"), -float("inf"), None, True):
        with pytest.raises(ConfigError, match="value must be a finite number"):
            source.full(3, value)
    assert source.normal(3, 0.0).tolist() == [0.0] * 3


@pytest.mark.parametrize("shape", [5, np.int64(5), (2, 3), (4, 0, 2), ()])
def test_shape_only_gives_read_only_zero_stride_views(shape):
    for dtype in (F32, F64):
        a = ShapeOnly(dtype).full(shape, 2.5)
        z = ShapeOnly(dtype).normal(shape, std=3.0)
        want = np.full(shape, 2.5, dtype)
        assert a.shape == z.shape == want.shape and a.dtype == z.dtype == dtype
        assert set(a.strides) <= {0} and set(z.strides) <= {0}
        assert np.array_equal(a, want) and not z.any()
        for view in (a, z):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.flags.writeable = True


def test_rng_deterministic_per_seed():
    a = Rng(7).normal((5, 5))
    b = Rng(7).normal((5, 5))
    c = Rng(8).normal((5, 5))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_rng_stream_advances_between_calls():
    rng = Rng(3)
    first = rng.normal((16,))
    second = rng.normal((16,))
    assert first.tobytes() != second.tobytes()


def test_normal_moments_at_a_million_draws():
    draws = Rng(0, F64).normal((1_000_000,))
    assert abs(float(draws.mean())) < 5e-3
    assert abs(float(draws.std()) - 1.0) < 0.01


def test_normal_std_scaling_and_dtype():
    a = Rng(11).normal((1000,), std=0.02)
    b = Rng(11).normal((1000,), std=1.0)
    assert a.dtype == F32
    assert np.allclose(a, np.float32(0.02) * b, rtol=1e-6, atol=1e-9)


def test_normal_dtype_streams_are_independent_choices():
    a64 = Rng(4, F64).normal((64,))
    assert a64.dtype == F64
    assert np.isfinite(a64).all()


def _cast(node, dtype):
    """A copy of an array, list or dataclass tree with every array cast to dtype."""
    if isinstance(node, np.ndarray):
        return node.astype(dtype)
    if isinstance(node, list):
        return [_cast(n, dtype) for n in node]
    if dataclasses.is_dataclass(node):
        return type(node)(**{f.name: _cast(getattr(node, f.name), dtype) for f in dataclasses.fields(node)})
    return node


@pytest.fixture(scope="module")
def guarded_calls():
    """Every guarded entry point, called on float64 operands passed through a cast."""
    g = np.random.default_rng(0)
    spec, layer, cfg = NeighborhoodSpec(3), S3AConfig(channels=4, heads=2), tiny_config()
    qkv, attn = g.standard_normal((1, 4, 4, 2)), np.full((1, 4, 4, 9), 1 / 9)
    x, filt, bias = g.standard_normal((4, 6, 6)), g.standard_normal((4, 3, 3)), np.zeros(4)
    image, model = g.standard_normal((3, 32, 32)), build_model(cfg, Rng(0, F64))
    s3a = init_s3a_params(layer, Rng(0, F64))
    k_saved, s3a_saved = kernel_forward(qkv, qkv, qkv, spec)[1], s3a_forward(x, s3a, layer)[1]
    return {
        "neighborhood_scores": lambda c: neighborhood_scores(c(qkv), c(qkv), spec),
        "neighborhood_aggregate": lambda c: neighborhood_aggregate(c(attn), c(qkv), spec),
        "softmax_rows": lambda c: softmax_rows(c(attn)),
        "kernel_forward": lambda c: kernel_forward(c(qkv), c(qkv), c(qkv), spec),
        "kernel_backward": lambda c: kernel_backward(c(qkv), c(k_saved)),
        "s3a_forward": lambda c: s3a_forward(c(x), c(s3a), layer),
        "s3a_backward": lambda c: s3a_backward(c(x), c(s3a_saved)),
        "depthwise_forward": lambda c: depthwise_forward(c(x), c(filt), c(bias)),
        "depthwise_backward": lambda c: depthwise_backward(c(x), c(x), c(filt)),
        "conv2d": lambda c: conv2d(c(x), c(np.ones((2, 4, 3, 3)))),
        "layernorm": lambda c: layernorm(c(x), c(bias + 1), c(bias)),
        "gelu": lambda c: gelu(c(x)),
        "ffn_forward": lambda c: ffn_forward(c(x), c(init_ffn_params(4, Rng(0, F64)))),
        "stem_forward": lambda c: stem_forward(c(image), c(model.stem)),
        "model_forward": lambda c: model_forward(c(image), c(model), cfg),
    }


@pytest.mark.parametrize("dtype", [
    np.float16,
    pytest.param(np.longdouble, marks=pytest.mark.skipif(np.dtype(np.longdouble) == F64,
                                                         reason="longdouble is float64 on this platform")),
])
@pytest.mark.parametrize("entry", [
    "neighborhood_scores", "neighborhood_aggregate", "softmax_rows", "kernel_forward", "kernel_backward",
    "s3a_forward", "s3a_backward", "depthwise_forward", "depthwise_backward",
    "conv2d", "layernorm", "gelu", "ffn_forward", "stem_forward", "model_forward",
])
def test_entry_points_admit_only_float32_and_float64(guarded_calls, entry, dtype):
    for ok in (F32, F64):  # the same operands in a supported dtype run
        guarded_calls[entry](lambda a: _cast(a, ok))
    name = np.dtype(dtype).name
    with pytest.raises(DTypeError, match=f"^{entry}: .+ has unsupported float dtype {name}$"):
        guarded_calls[entry](lambda a: _cast(a, dtype))


_Q = np.zeros((1, 5, 5, 2))
_X, _LAYER = np.zeros((4, 5, 5)), S3AConfig(channels=4, heads=2)
_S3A = init_s3a_params(_LAYER, Rng(0, F64))


@pytest.mark.parametrize("call, message", [
    (lambda: kernel_forward(_Q, _Q, _Q, 3), "flat_index_map: spec must be a NeighborhoodSpec, got int"),
    (lambda: flat_index_map(5, 5, 3), "flat_index_map: spec must be a NeighborhoodSpec, got int"),
    (lambda: kernel_flops(5, 5, 1, 2, 3), "kernel_flops: spec must be a NeighborhoodSpec, got int"),
    (lambda: kernel_backward(_Q, None), "kernel_backward: saved must be a KernelSaved, got NoneType"),
    (lambda: s3a_param_shapes((4, 2)), "s3a_param_shapes: cfg must be a S3AConfig, got tuple"),
    (lambda: s3a_forward(_X, _S3A, None), "s3a_forward: cfg must be a S3AConfig, got NoneType"),
    (lambda: s3a_forward(_X, vars(_S3A), _LAYER), "s3a_forward: params must be a S3AParams, got dict"),
    (lambda: s3a_backward(_X, None), "s3a_backward: saved must be a S3ASaved, got NoneType"),
    (lambda: s3a_flops(None, 5, 5), "s3a_param_shapes: cfg must be a S3AConfig, got NoneType"),
    (lambda: s3a_attention_flops(None, 5, 5), "s3a_attention_flops: cfg must be a S3AConfig, got NoneType"),
    (lambda: ssvit_block(_X, None, _LAYER), "ssvit_block: p must be a BlockParams, got NoneType"),
    (lambda: param_items(None), "param_items: params must be a ModelParams, got NoneType"),
    (lambda: load_state(None, {}), "load_state: params must be a ModelParams, got NoneType"),
])
def test_entry_points_name_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call()
