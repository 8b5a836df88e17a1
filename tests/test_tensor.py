"""Dtypes, the Philox-backed random source, and its shape checks."""
import numpy as np
import pytest

from ssattn import Rng, randn
from ssattn.errors import SizeError
from ssattn.tensor import DEFAULT_DTYPE, DTYPES, F32, F64


def test_dtype_registry():
    assert set(DTYPES) == {"f32", "f64"}
    assert DTYPES["f32"] == np.dtype(np.float32)
    assert DTYPES["f64"] == np.dtype(np.float64)
    assert DEFAULT_DTYPE == F32


def test_randn_rejects_bad_shapes():
    with pytest.raises(SizeError):
        randn((2, -1), Rng(0))
    with pytest.raises(SizeError):
        randn((2**40, 2**40), Rng(0))


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


def test_randn_moments_at_a_million_draws():
    draws = randn((1_000_000,), Rng(0), dtype=F64)
    assert abs(float(draws.mean())) < 5e-3
    assert abs(float(draws.std()) - 1.0) < 0.01


def test_randn_std_scaling_and_dtype():
    a = randn((1000,), Rng(11), std=0.02)
    b = randn((1000,), Rng(11), std=1.0)
    assert a.dtype == F32
    assert np.allclose(a, np.float32(0.02) * b, rtol=1e-6, atol=1e-9)


def test_randn_dtype_streams_are_independent_choices():
    a64 = randn((64,), Rng(4), dtype=F64)
    assert a64.dtype == F64
    assert np.isfinite(a64).all()
