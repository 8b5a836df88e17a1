"""The integer rule: every public entry point that takes an integer admits
an int or a numpy integer, never a bool, float, str or None, and refuses
anything else with that entry point's named SSAttnError."""
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssattn.blocks import conv2d
from ssattn.checks import CheckResult, check_lattice, tiny_config
from ssattn.errors import ConfigError, EmptyDomainError, ShapeError, SizeError, SSAttnError
from ssattn.kernel import NeighborhoodSpec, clamped_lattice, effective_kernel, flat_index_map, kernel_flops
from ssattn.layer import S3AConfig, s3a_flops
from ssattn.model import ModelConfig, check_input_sides, config_hash, count_flops, get_config
from ssattn.report import ReportNode
from ssattn.tensor import Rng, ShapeOnly, philox

SPEC = NeighborhoodSpec(3)


class Entry(NamedTuple):
    call: Callable  # the entry point, given one integer argument
    good: int  # a value it accepts
    error: type  # its class for a non-integer
    low: int  # an integer below its minimum
    low_error: type  # its class for that integer
    ints: tuple = (None, None)  # bounds for the fuzz, where a large value allocates that much
    none_ok: bool = False  # None is the argument's default


def _conv(stride=1, padding=0):
    return conv2d(np.ones((2, 6, 6)), np.ones((3, 2, 3, 3)), stride=stride, padding=padding)


TINY = tiny_config()
BLOCKS = dict(blocks=(1, 1, 1, 1), channels=(8, 16, 32, 64), heads=(1, 2, 4, 8))

ENTRIES = {
    "NeighborhoodSpec.kernel": Entry(lambda v: NeighborhoodSpec(v), 3, ConfigError, -1, ConfigError),
    "NeighborhoodSpec.dilation": Entry(lambda v: NeighborhoodSpec(3, (v, 1)), 2, ConfigError, 0, ConfigError),
    "clamped_lattice.side": Entry(lambda v: clamped_lattice(0, v, 3), 5, ConfigError, 0, EmptyDomainError),
    "clamped_lattice.k": Entry(lambda v: clamped_lattice(0, 5, v), 3, ConfigError, -3, ConfigError),
    "clamped_lattice.d": Entry(lambda v: clamped_lattice(0, 5, 3, v), 2, ConfigError, 0, ConfigError),
    "effective_kernel.k": Entry(lambda v: effective_kernel(v, 9, 1), 5, ConfigError, -1, ConfigError),
    "effective_kernel.side": Entry(lambda v: effective_kernel(3, v, 1), 9, ConfigError, -4, EmptyDomainError),
    "effective_kernel.d": Entry(lambda v: effective_kernel(3, 9, v), 2, ConfigError, 0, ConfigError),
    "flat_index_map.H": Entry(lambda v: flat_index_map(v, 5, SPEC), 5, ConfigError, 0, EmptyDomainError, (-9, 40)),
    "flat_index_map.W": Entry(lambda v: flat_index_map(5, v, SPEC), 5, ConfigError, -2, EmptyDomainError, (-9, 40)),
    "kernel_flops.H": Entry(lambda v: kernel_flops(v, 5, 2, 4, SPEC), 5, ConfigError, 0, EmptyDomainError),
    "kernel_flops.W": Entry(lambda v: kernel_flops(5, v, 2, 4, SPEC), 5, ConfigError, -1, EmptyDomainError),
    "kernel_flops.heads": Entry(lambda v: kernel_flops(5, 5, v, 4, SPEC), 2, ConfigError, -2, ConfigError),
    "kernel_flops.dh": Entry(lambda v: kernel_flops(5, 5, 2, v, SPEC), 4, ConfigError, 0, ConfigError),
    "s3a_flops.H": Entry(lambda v: s3a_flops(S3AConfig(8, 2), v, 9), 9, ConfigError, 0, EmptyDomainError),
    "s3a_flops.W": Entry(lambda v: s3a_flops(S3AConfig(8, 2), 9, v), 9, ConfigError, -1, EmptyDomainError),
    "S3AConfig.channels": Entry(lambda v: S3AConfig(channels=v, heads=2), 64, ConfigError, 0, ConfigError),
    "S3AConfig.heads": Entry(lambda v: S3AConfig(channels=64, heads=v), 2, ConfigError, -2, ConfigError),
    "S3AConfig.window": Entry(lambda v: S3AConfig(8, 2, window=v), 5, ConfigError, -1, ConfigError),
    "S3AConfig.anchors": Entry(lambda v: S3AConfig(8, 2, anchors=v), 5, ConfigError, -3, ConfigError),
    "S3AConfig.stride": Entry(lambda v: S3AConfig(8, 2, stride=v), 2, ConfigError, 0, ConfigError),
    "ModelConfig.blocks": Entry(
        lambda v: ModelConfig("x", **{**BLOCKS, "blocks": (1, v, 1, 1)}), 2, ConfigError, 0, ConfigError),
    "ModelConfig.heads": Entry(
        lambda v: ModelConfig("x", **{**BLOCKS, "heads": (1, 2, v, 8)}), 4, ConfigError, -4, ConfigError),
    "ModelConfig.channels": Entry(
        lambda v: ModelConfig("x", **{**BLOCKS, "channels": (8, 16, v, 64)}), 32, ConfigError, 0, ConfigError),
    "get_config.classes": Entry(lambda v: get_config("ssvit-t", classes=v), 10, ConfigError, 0, ConfigError),
    "count_flops.H": Entry(lambda v: count_flops(TINY, v, 64), 64, ConfigError, 0, ConfigError),
    "count_flops.W": Entry(lambda v: count_flops(TINY, 64, v), 36, ConfigError, -8, ConfigError),
    "check_input_sides.H": Entry(lambda v: check_input_sides(v, 64), 64, ShapeError, 28, ShapeError),
    "check_input_sides.W": Entry(lambda v: check_input_sides(64, v), 36, ShapeError, -64, ShapeError),
    "conv2d.stride": Entry(lambda v: _conv(stride=v), 2, ShapeError, 0, ShapeError),
    "conv2d.padding": Entry(lambda v: _conv(padding=v), 1, ShapeError, -1, ShapeError, (None, 8)),
    "Rng.seed": Entry(lambda v: Rng(v), 7, ConfigError, -1, ConfigError),
    "Rng.normal.shape": Entry(lambda v: Rng(0).normal((v, 3)), 4, SizeError, -1, SizeError, (None, 64)),
    "Rng.full.shape": Entry(lambda v: Rng(0).full(v, 1.0), 4, SizeError, -2, SizeError, (None, 64)),
    "ShapeOnly.normal.shape": Entry(lambda v: ShapeOnly().normal((2, v)), 4, SizeError, -1, SizeError),
    "philox.seed": Entry(lambda v: philox(v), 5, ConfigError, -1, ConfigError),
    "philox.stream": Entry(lambda v: philox(5, v), 3, ConfigError, -3, ConfigError),
    "check_lattice.cases": Entry(lambda v: check_lattice(cases=v), 3, ConfigError, 0, ConfigError, (None, 3), True),
    "check_lattice.seed": Entry(lambda v: check_lattice(seed=v, cases=2), 4, ConfigError, -1, ConfigError),
}

NON_INTEGERS = [True, 2.5, "3", None, np.float64(3)]


def _canon(result):
    """A comparable form of an entry point's result."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if isinstance(result, Rng):
        return result.normal(4).tobytes()
    if isinstance(result, np.random.Generator):
        return result.standard_normal(4).tobytes()
    if isinstance(result, CheckResult):
        return {**asdict(result), "seconds": None}
    if isinstance(result, ReportNode):
        return result.to_dict()
    return type(result), result


@pytest.mark.parametrize("name", list(ENTRIES))
@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
def test_a_non_integer_raises_the_entry_points_class(name, value):
    entry = ENTRIES[name]
    if value is None and entry.none_ok:
        assert entry.call(value) is not None
        return
    with pytest.raises(entry.error, match=r"must be an int"):
        entry.call(value)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_an_integer_below_the_minimum_raises_the_entry_points_class(name):
    entry = ENTRIES[name]
    with pytest.raises(entry.low_error):
        entry.call(entry.low)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_a_numpy_integer_gives_the_int_result(name):
    entry = ENTRIES[name]
    want = _canon(entry.call(entry.good))
    for kind in (np.int64, np.int32, np.uint16):
        assert _canon(entry.call(kind(entry.good))) == want, kind


@pytest.mark.parametrize("call, error", [
    (lambda: check_lattice(cases=True), ConfigError),
    (lambda: flat_index_map(True, 5, SPEC), ConfigError),
    (lambda: effective_kernel(3, 5, 0), ConfigError),
    (lambda: effective_kernel(4, 9, 1), ConfigError),
    (lambda: kernel_flops(5.5, 5, 2, 4, SPEC), ConfigError),
    (lambda: kernel_flops(5, 5, -2, 4, SPEC), ConfigError),
    (lambda: Rng(0).normal((2.5, 3)), SizeError),
    (lambda: philox(1, 0.5), ConfigError),
    (lambda: check_input_sides(64.0, 64), ShapeError),
    (lambda: S3AConfig(channels=np.int64(64), heads=2) == S3AConfig(64, 2) or None, None),
])
def test_values_that_crashed_or_passed_silently_before_the_rule(call, error):
    """Each of these ran, crashed with a raw exception or was refused wrongly without one guard."""
    if error is None:
        assert call()
        return
    with pytest.raises(error, match="must be "):
        call()


def test_lattice_arguments_past_int64():
    # a step longer than the side leaves one member, wherever the step ends
    assert clamped_lattice(0, 5, 3, 2**70).tolist() == clamped_lattice(0, 5, 3, 5).tolist() == [0]
    assert clamped_lattice(4, 5, 3, 2**64).tolist() == [4]
    # a side past int64 would wrap around in numpy
    with pytest.raises(SizeError, match=r"^side must be <= 9223372036854775807, got 9223372036854775813$"):
        clamped_lattice(5, 2**63 + 5, 3, 2**62)
    top = 2**63 - 1  # the largest side: the lattice spans it with three members
    assert clamped_lattice(top - 1, top, 3, 2**62 - 1).tolist() == [0, 2**62 - 1, 2**63 - 2]


def test_the_rule_has_one_message():
    for call, text in (
        (lambda: S3AConfig(channels=np.float64(64), heads=2), "channels must be an int >= 1, got np.float64(64.0)"),
        (lambda: flat_index_map(True, 5, SPEC), "H must be an int >= 1, got True"),
        (lambda: flat_index_map(0, 5, SPEC), "H must be an int >= 1, got 0"),
        (lambda: Rng(0).normal((2.5, 3)), "shape extent must be an int >= 0, got 2.5"),
        (lambda: _conv(padding=-1), "padding must be an int >= 0, got -1"),
        (lambda: philox(1, 0.5), "stream must be an int >= 0, got 0.5"),
    ):
        with pytest.raises(SSAttnError) as exc:
            call()
        assert str(exc.value) == text


def test_odd_extents_are_checked_after_the_rule():
    for call in (lambda: effective_kernel(4, 9, 1), lambda: clamped_lattice(0, 9, 4), lambda: NeighborhoodSpec(4)):
        with pytest.raises(ConfigError, match="must be odd, got 4"):
            call()
    assert effective_kernel(np.int64(5), 9, 1) == 5


def test_the_counts_a_config_stores_are_plain_ints():
    cfg = S3AConfig(channels=np.int64(64), heads=np.int32(2))
    assert type(cfg.channels) is int and type(cfg.heads) is int and cfg == S3AConfig(64, 2)
    mcfg = get_config("ssvit-t", classes=np.int64(10), blocks=[1, np.int32(2), 1, 1])
    plain = get_config("ssvit-t", classes=10, blocks=(1, 2, 1, 1))
    assert type(mcfg.classes) is int and all(type(b) is int for b in mcfg.blocks) and mcfg == plain
    assert config_hash(mcfg) == config_hash(plain)
    assert type(kernel_flops(np.int64(5), 5, 2, 4, SPEC)) is int


# ---------------------------------------------------------------------------
# fuzz: any value ends in a result or an SSAttnError


def _values(bounds):
    lo, hi = bounds
    return st.one_of(
        st.integers(min_value=lo, max_value=hi), st.floats(), st.booleans(),
        st.text(max_size=3), st.none(),
    )


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(list(ENTRIES)))
    return name, draw(_values(ENTRIES[name].ints))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(case=_calls())
def test_any_value_ends_in_a_result_or_a_named_error(case):
    name, value = case
    try:
        ENTRIES[name].call(value)
    except SSAttnError:
        pass
