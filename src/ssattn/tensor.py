"""Dense row-major tensors and the seedable random source.

Values are plain C-contiguous numpy arrays in float32 (the library
default) or float64 (used by the oracles and gradient checks). This
module pins down the dtypes and random initialization; everything
else in the package builds on these arrays, and every numeric entry
point guards its operands with `check_float_dtypes`, so nothing is
silently promoted or cast.

Randomness comes from numpy's Philox bit generator, a documented
counter-based PRNG: a given 64-bit seed yields the same draw sequence
on every platform. `ShapeOnly` stands in for `Rng` where only the
shapes of a parameter tree matter.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DTypeError, SizeError

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DEFAULT_DTYPE = F32

DTYPES = {"f32": F32, "f64": F64}

# product(shape) * itemsize must stay addressable with signed 64-bit offsets
_MAX_ELEMENTS = np.iinfo(np.int64).max // 16


def check_float_dtypes(where: str, **operands: np.ndarray | None) -> None:
    """DTypeError unless every operand is an array, the first floating and the rest of its dtype.

    None operands (absent optional tensors) are skipped.
    """
    first = None
    for name, a in operands.items():
        if a is None:
            continue
        if not isinstance(a, np.ndarray):
            raise DTypeError(f"{where}: {name} is a {type(a).__name__}, not a numpy array")
        if first is None:
            first, dtype = name, a.dtype
            if dtype.kind != "f":
                raise DTypeError(f"{where}: {first} has non-floating dtype {dtype}")
        elif a.dtype != dtype:
            raise DTypeError(f"{where}: {name} is {a.dtype} but {first} is {dtype}")


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator over Philox(seed + stream); a negative seed is a ConfigError.

    Callers that need several independent draws from one seed ask for
    distinct non-negative `stream`s.
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed + stream))


class Rng:
    """Seedable random source backed by the Philox counter-based generator."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = philox(self.seed)

    def normal(self, shape, std: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
        dtype = np.dtype(dtype)
        out = self._gen.standard_normal(tuple(shape), dtype=dtype)
        if std != 1.0:
            out *= dtype.type(std)
        return out

    def full(self, shape, value: float, dtype=DEFAULT_DTYPE) -> np.ndarray:
        """A constant tensor; draws nothing, so the generator's stream is unchanged."""
        return np.full(shape, value, dtype=dtype)


class ShapeOnly:
    """Stand-in for Rng that draws and allocates nothing.

    `normal` and `full` return read-only zero-stride views of one scalar
    (zero for `normal`), so a parameter tree built from it has the real
    shapes and dtypes but takes no memory, whatever its widths: enough
    to count parameters, or to name the slots a checkpoint fills.
    """

    def normal(self, shape, std: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return self.full(shape, 0.0, dtype)

    def full(self, shape, value: float, dtype=DEFAULT_DTYPE) -> np.ndarray:
        # a view over immutable bytes is read-only, and cannot be made writeable
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        scalar = np.array(value, dtype).tobytes()
        return np.ndarray(shape, dtype, scalar, strides=(0,) * len(shape))


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
