"""Dense row-major tensors and the seedable random source.

Values are plain C-contiguous numpy arrays in float32 (the library
default) or float64 (used by the oracles and gradient checks). This
module pins down the dtypes and random initialization; everything
else in the package builds on these arrays.

Randomness comes from numpy's Philox bit generator, a documented
counter-based PRNG: a given 64-bit seed yields the same draw sequence
on every platform.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SizeError

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DEFAULT_DTYPE = F32

DTYPES = {"f32": F32, "f64": F64}

# product(shape) * itemsize must stay addressable with signed 64-bit offsets
_MAX_ELEMENTS = np.iinfo(np.int64).max // 16


class Rng:
    """Seedable random source backed by the Philox counter-based generator."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def normal(self, shape, std: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
        dtype = np.dtype(dtype)
        out = self._gen.standard_normal(tuple(shape), dtype=dtype)
        if std != 1.0:
            out *= dtype.type(std)
        return out


def _checked_shape(shape) -> tuple[int, ...]:
    dims = tuple(int(s) for s in shape)
    if any(s < 0 for s in dims):
        raise SizeError(f"negative extent in shape {dims}")
    if math.prod(dims) > _MAX_ELEMENTS:
        raise SizeError(f"shape {dims} overflows the address space")
    return dims


def randn(shape, rng: Rng, std: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """I.i.d. normal(0, std^2) samples; reproducible for a given seed."""
    dims = _checked_shape(shape)
    return rng.normal(dims, std=std, dtype=dtype)
