"""Dense row-major tensors and the seedable random source.

Values are plain C-contiguous numpy arrays in float32 (the library
default) or float64 (used by the oracles and gradient checks). This
module pins down the dtypes and random initialization; everything
else in the package builds on these arrays, and every numeric entry
point guards its operands with `check_float_dtypes`, so nothing is
silently promoted or cast. Every integer argument (extents, strides,
counts, seeds) passes `check_int`, and a config, spec, parameter tree
or saved state of the wrong type fails `check_type`.

Randomness comes from numpy's Philox bit generator, a documented
counter-based PRNG: a given 64-bit seed yields the same draw sequence
on every platform. `ShapeOnly` stands in for `Rng` where only the
shapes of a parameter tree matter. Each source carries the one dtype,
float32 or float64, that every tensor it makes has, so a parameter
tree's dtype is decided once, where its source is made.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, DTypeError, ShapeError, SizeError

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
DEFAULT_DTYPE = F32

DTYPES = {"f32": F32, "f64": F64}

# product(shape) * itemsize must stay addressable with signed 64-bit offsets
_MAX_ELEMENTS = np.iinfo(np.int64).max // 16


def check_float_dtypes(where: str, **operands: np.ndarray | None) -> None:
    """DTypeError unless every operand is an array, the first float32 or
    float64 and the rest of its dtype.

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
            if dtype not in DTYPES.values():
                kind = "unsupported float" if dtype.kind == "f" else "non-floating"
                raise DTypeError(f"{where}: {first} has {kind} dtype {dtype}")
        elif a.dtype != dtype:
            raise DTypeError(f"{where}: {name} is {a.dtype} but {first} is {dtype}")


def check_shapes(where: str, **tensors: tuple[np.ndarray, tuple]) -> None:
    """ShapeError naming the first tensor whose shape is not its expected one."""
    for name, (arr, shape) in tensors.items():
        if arr.shape != shape:
            raise ShapeError(f"{where}: {name} has shape {arr.shape}, expected {shape}")


def check_int(value, name: str, minimum: int = 1, error=ConfigError, below=None) -> int:
    """value as an int if it is an int or numpy integer (not a bool) >= minimum, else `error`
    (`below`, if given, for an integer under minimum): the one test of an integer argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        below = error
    elif value >= minimum:
        return int(value)
    raise (below or error)(f"{name} must be an int >= {minimum}, got {value!r}")


def check_type(where: str, **args: tuple[object, type | tuple[type, ...]]) -> None:
    """ConfigError naming the expected type(s) unless each value is an instance of its type(s):
    the one test of an object argument."""
    for name, (value, kind) in args.items():
        if not isinstance(value, kind):
            kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
            raise ConfigError(f"{where}: {name} must be a {kinds}, got {type(value).__name__}")


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator over Philox(seed + stream); ConfigError unless both are ints >= 0.

    Callers that need several independent draws from one seed ask for
    distinct `stream`s.
    """
    seed, stream = check_int(seed, "seed", 0), check_int(stream, "stream", 0)
    return np.random.Generator(np.random.Philox(seed + stream))


def _source_dtype(dtype) -> np.dtype:
    """The float32 or float64 dtype that `dtype` names; DTypeError for any other, None included."""
    if dtype is None or dtype not in DTYPES.values():
        raise DTypeError(f"parameter dtype must be float32 or float64, got {dtype!r}")
    return np.dtype(dtype)


def _finite(value, name: str) -> float:
    """value if it is a finite real number, not a bool; else ConfigError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _checked_std(std) -> float:
    if _finite(std, "std") < 0:
        raise ConfigError(f"std must be >= 0, got {std!r}")
    return std


def _checked_shape(shape) -> tuple[int, ...]:
    """shape (an int or a sequence of ints >= 0) as a tuple; else, or if too large, SizeError."""
    dims = shape if np.iterable(shape) else (shape,)
    dims = tuple(check_int(s, "shape extent", 0, SizeError) for s in dims)
    if math.prod(dims) > _MAX_ELEMENTS:
        raise SizeError(f"shape {dims} overflows the address space")
    return dims


class Rng:
    """Seedable Philox-backed random source; every tensor it makes has its `dtype`."""

    def __init__(self, seed: int, dtype=DEFAULT_DTYPE):
        self.seed = check_int(seed, "seed", 0)
        self.dtype = _source_dtype(dtype)
        self._gen = philox(self.seed)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        """I.i.d. normal(0, std^2) samples; reproducible for a given seed.

        std must be finite and >= 0, else ConfigError."""
        std = _checked_std(std)
        out = self._gen.standard_normal(_checked_shape(shape), dtype=self.dtype)
        if std != 1.0:
            out *= self.dtype.type(std)
        return out

    def full(self, shape, value: float) -> np.ndarray:
        """A constant tensor; draws nothing, so the generator's stream is unchanged.

        value must be finite, else ConfigError."""
        return np.full(_checked_shape(shape), _finite(value, "value"), dtype=self.dtype)


class ShapeOnly:
    """Stand-in for Rng that draws and allocates nothing.

    `normal` and `full` return read-only zero-stride views of one scalar
    (zero for `normal`), so a parameter tree built from it has the real
    shapes and its `dtype` but takes no memory, whatever its widths:
    enough to count parameters, or to name the slots a checkpoint fills.
    """

    def __init__(self, dtype=DEFAULT_DTYPE):
        self.dtype = _source_dtype(dtype)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        _checked_std(std)
        return self.full(shape, 0.0)

    def full(self, shape, value: float) -> np.ndarray:
        # a view over immutable bytes is read-only, and cannot be made writeable
        shape = _checked_shape(shape)
        scalar = np.array(_finite(value, "value"), self.dtype).tobytes()
        return np.ndarray(shape, self.dtype, scalar, strides=(0,) * len(shape))
