"""Binary tensor files and checkpoints: round trips, corruption taxonomy."""
import io
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssattn.tensor
from ssattn.checks import tiny_config
from ssattn.errors import (
    ConfigError,
    DTypeError,
    FormatError,
    MagicError,
    ManifestError,
    NumericError,
    PayloadSizeError,
    ShapeError,
    SSAttnError,
    TruncatedPayloadError,
)
from ssattn.io import (
    CHECKPOINT_MAGIC,
    TENSOR_MAGIC,
    _read_tensor,
    atomic_write_bytes,
    load_checkpoint,
    load_model_checkpoint,
    load_tensor,
    save_checkpoint,
    save_model_checkpoint,
    save_tensor,
    tensor_to_bytes,
)
from ssattn.model import build_model, config_to_dict, param_items
from ssattn.tensor import Rng


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def header_blob(dtype_tag, shape, payload, **extra):
    header = json.dumps({"dtype": dtype_tag, "shape": list(shape), **extra}).encode()
    return TENSOR_MAGIC + struct.pack("<I", len(header)) + header + payload


def decode(tmp_path, blob):
    """Decode SSA1 bytes as bytes from elsewhere are read: written to a file, then load_tensor."""
    path = tmp_path / "blob.ssa"
    path.write_bytes(blob)
    return load_tensor(str(path))


# ---------------------------------------------------------------------------
# tensor files


def test_tensor_round_trip_preserves_bytes_and_dtype(tmp_path):
    g = gen(110)
    shapes = [(), (0,), (1,), (5,), (2, 3), (3, 0, 2), (2, 3, 4, 5)]
    for i, shape in enumerate(shapes):
        dtype = np.float32 if i % 2 else np.float64
        arr = g.normal(size=shape).astype(dtype)
        path = tmp_path / f"t{i}.ssa"
        save_tensor(str(path), arr)
        back = load_tensor(str(path))
        assert back.shape == arr.shape
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()


def test_tensor_round_trip_handles_non_contiguous_views(tmp_path):
    arr = gen(111).normal(size=(4, 6)).astype(np.float32)
    view = arr.T
    back = decode(tmp_path, tensor_to_bytes(view))
    assert back.shape == view.shape
    assert np.array_equal(back, view)
    assert back.flags["C_CONTIGUOUS"]


def test_saving_a_non_array_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="got a list"):
        save_tensor(str(tmp_path / "t.ssa"), [1.0])
    assert not os.listdir(tmp_path)


def test_tensor_rejects_bad_magic(tmp_path):
    blob = tensor_to_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(MagicError):
        decode(tmp_path, b"XXXX" + blob[4:])


def test_tensor_rejects_truncation(tmp_path):
    blob = tensor_to_bytes(np.arange(4, dtype=np.float32).reshape(2, 2))
    with pytest.raises(TruncatedPayloadError):
        decode(tmp_path, blob[:-1])
    with pytest.raises(TruncatedPayloadError):
        decode(tmp_path, blob[:6])  # inside the header length field
    with pytest.raises(TruncatedPayloadError):  # the data ends before the size it was given
        _read_tensor(io.BytesIO(blob[:-3]), len(blob))


def test_only_regular_files_are_read():
    for loader in (load_tensor, load_checkpoint):
        with pytest.raises(FormatError, match="not a regular file"):
            loader(os.devnull)


def test_a_directory_is_a_format_error_and_a_missing_path_an_os_error(tmp_path):
    for loader in (load_tensor, load_checkpoint, load_model_checkpoint):
        with pytest.raises(FormatError, match="not a regular file"):
            loader(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            loader(str(tmp_path / "missing"))


def test_tensor_header_payload_disagreement(tmp_path):
    four = np.arange(4, dtype=np.float32).tobytes()
    three = np.arange(3, dtype=np.float32).tobytes()
    five = np.arange(5, dtype=np.float32).tobytes()
    good = header_blob("f32", (2, 2), four)
    assert decode(tmp_path, good).shape == (2, 2)
    with pytest.raises(TruncatedPayloadError):
        decode(tmp_path, header_blob("f32", (2, 2), three))
    with pytest.raises(PayloadSizeError):
        decode(tmp_path, header_blob("f32", (2, 2), five))


def test_tensor_rejects_malformed_headers(tmp_path):
    four = np.arange(4, dtype=np.float32).tobytes()
    bad_json = TENSOR_MAGIC + struct.pack("<I", 5) + b"{oops" + four
    with pytest.raises(FormatError):
        decode(tmp_path, bad_json)
    with pytest.raises(FormatError):
        decode(tmp_path, header_blob("f16", (2, 2), four))
    with pytest.raises(FormatError):
        decode(tmp_path, header_blob("f32", (2, -2), four))


def test_tensor_header_with_a_key_the_writer_never_writes_is_a_format_error(tmp_path):
    # an "order" the reader ignored would load a Fortran-order payload as C order
    six = np.arange(6, dtype=np.float32).tobytes()
    message = "tensor header keys malformed: {'dtype': 'f32', 'shape': [2, 3], 'order': 'F'}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        decode(tmp_path, header_blob("f32", (2, 3), six, order="F"))


@pytest.mark.parametrize("header", [{"shape": [2, 3]}, {"dtype": "f32"}, {}], ids=["no-dtype", "no-shape", "empty"])
def test_tensor_header_missing_a_key_is_a_format_error(tmp_path, header):
    text = json.dumps(header).encode()
    blob = TENSOR_MAGIC + struct.pack("<I", len(text)) + text + np.arange(6, dtype=np.float32).tobytes()
    with pytest.raises(FormatError, match="^tensor header keys malformed: "):
        decode(tmp_path, blob)


@pytest.mark.parametrize(
    "header", [b"[" * 100_000, b'{"dtype":"f32","shape":[' + b"9" * 5000 + b"]}"], ids=["deep", "5000-digit-int"]
)
def test_tensor_rejects_headers_the_json_parser_refuses(tmp_path, header):
    with pytest.raises(FormatError, match="not valid JSON"):
        decode(tmp_path, TENSOR_MAGIC + struct.pack("<I", len(header)) + header)


def test_tensor_rejects_unrepresentable_shapes(tmp_path):
    four = np.arange(4, dtype=np.float32).tobytes()
    with pytest.raises(FormatError):
        decode(tmp_path, header_blob("f32", [True], four[:4]))
    with pytest.raises(FormatError):
        decode(tmp_path, header_blob("f32", [2.0, 2], four))
    # the element count overflows int64; empty arrays still hit numpy's bound
    for shape in ([2**62, 4], [2**62, 0], [2**64, 0], [1] * 65):
        with pytest.raises(FormatError):
            decode(tmp_path, header_blob("f32", shape, four[:4]))
    assert decode(tmp_path, header_blob("f32", [2**40, 0], b"")).shape == (2**40, 0)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(str(target), b"hello")
    atomic_write_bytes(str(target), b"world")  # overwrite in place
    assert target.read_bytes() == b"world"
    assert os.listdir(tmp_path) == ["out.bin"]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    g = gen(112)
    items = [
        ("alpha", g.normal(size=(3, 4)).astype(np.float32)),
        ("beta", g.normal(size=7).astype(np.float64)),
        ("gamma", np.zeros((0, 2), dtype=np.float32)),
    ]
    path = tmp_path / "c.ssc"
    save_checkpoint(str(path), items, meta={"note": "x"})
    tensors, meta = load_checkpoint(str(path))
    assert list(tensors) == ["alpha", "beta", "gamma"]
    for name, arr in items:
        assert tensors[name].tobytes() == arr.tobytes()
        assert tensors[name].dtype == arr.dtype
    assert meta == {"note": "x"}


def test_checkpoint_rejects_duplicate_names(tmp_path):
    arr = np.zeros(2, dtype=np.float32)
    with pytest.raises(ManifestError):
        save_checkpoint(str(tmp_path / "d.ssc"), [("a", arr), ("a", arr)])


def test_checkpoint_file_is_its_blobs_then_its_manifest(tmp_path):
    g = gen(113)
    items = [
        ("alpha", g.normal(size=(3, 4)).astype(np.float32)),
        ("beta", g.normal(size=(5, 2)).T),
        ("gamma", np.float32(1.5)),
        ("delta", np.zeros((0, 2))),
    ]
    path = tmp_path / "c.ssc"
    save_checkpoint(str(path), items, meta={"note": "x"})
    manifest = json.dumps(
        {"version": 1, "names": [n for n, _ in items], "meta": {"note": "x"}}, separators=(",", ":")
    ).encode()
    blobs = b"".join(struct.pack("<Q", len(tensor_to_bytes(a))) + tensor_to_bytes(a) for _, a in items)
    assert path.read_bytes() == CHECKPOINT_MAGIC + blobs + manifest + struct.pack("<Q", len(manifest))
    save_tensor(str(tmp_path / "t.ssa"), items[1][1])
    assert (tmp_path / "t.ssa").read_bytes() == tensor_to_bytes(items[1][1])


_ARR = np.arange(6, dtype=np.float32)


@pytest.mark.parametrize(
    "items, meta, match",
    [
        ({1: _ARR}, None, r"manifest names malformed: \[1\]"),
        ([("a", _ARR)], [1], r"manifest meta malformed: \[1\]"),
        ([("a", _ARR)], {"x": np.float32(1)}, "manifest meta is not JSON"),
        ([_ARR], None, r"checkpoint items must be \(name, array\) pairs"),
    ],
    ids=["int-name", "list-meta", "numpy-meta", "bare-array"],
)
def test_checkpoint_writer_refuses_what_the_reader_refuses(tmp_path, items, meta, match):
    with pytest.raises(ManifestError, match=match):
        save_checkpoint(str(tmp_path / "c.ssc"), items, meta=meta)
    assert os.listdir(tmp_path) == []  # neither the file nor a temporary


def test_checkpoint_corruptions_raise_named_errors(tmp_path):
    path = tmp_path / "c.ssc"
    save_checkpoint(str(path), [("a", np.arange(6, dtype=np.float32))])
    blob = path.read_bytes()
    assert blob[:4] == CHECKPOINT_MAGIC
    with pytest.raises(MagicError):
        _load_blob(tmp_path, b"YYYY" + blob[4:])
    # tail damage garbles the trailing manifest, whole or in part
    with pytest.raises(ManifestError):
        _load_blob(tmp_path, blob[:-5])
    with pytest.raises(ManifestError):
        _load_blob(tmp_path, blob[:-20] + b"\xff\xfe\xfd" + blob[-17:])
    # a lying length prefix walks a tensor blob past the manifest
    inflated = blob[:4] + struct.pack("<Q", 10**9) + blob[12:]
    with pytest.raises(TruncatedPayloadError):
        _load_blob(tmp_path, inflated)
    # manifests save_checkpoint never writes: a repeated path (which would drop a
    # tensor), another version, a missing or an extra key
    save_checkpoint(str(path), [("a", np.zeros(2, dtype=np.float32)), ("b", np.ones(3))])
    blob = path.read_bytes()
    body = blob[: -8 - struct.unpack("<Q", blob[-8:])[0]]
    for manifest in (
        {"version": 1, "names": ["a", "a"], "meta": {}},
        {"version": 2, "names": ["a", "b"], "meta": {}},
        {"version": True, "names": ["a", "b"], "meta": {}},
        {"version": 1, "names": ["a", "b"]},
        {"version": 1, "names": ["a", "b"], "meta": {}, "extra": 0},
    ):
        text = json.dumps(manifest).encode()
        with pytest.raises(ManifestError):
            _load_blob(tmp_path, body + text + struct.pack("<Q", len(text)))


def test_checkpoint_rejects_deeply_nested_manifest(tmp_path):
    manifest = b"[" * 100_000
    with pytest.raises(ManifestError, match="not valid JSON"):
        _load_blob(tmp_path, CHECKPOINT_MAGIC + manifest + struct.pack("<Q", len(manifest)))


def _load_blob(tmp_path, blob):
    p = tmp_path / "mut.ssc"
    p.write_bytes(blob)
    return load_checkpoint(str(p))


def test_model_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    params = build_model(cfg, Rng(9))
    path = tmp_path / "m.ssc"
    save_model_checkpoint(str(path), cfg, params)
    cfg2, params2 = load_model_checkpoint(str(path))
    assert cfg2 == cfg
    for (na, a), (nb, b) in zip(param_items(params), param_items(params2)):
        assert na == nb
        assert a.tobytes() == b.tobytes()
        assert a.dtype == b.dtype


def test_model_checkpoint_writer_refuses_what_the_reader_refuses(tmp_path):
    cfg = tiny_config()
    params = build_model(cfg, Rng(9))
    params.stages[2][0].s3a.w_out[0, 0] = np.nan
    path = tmp_path / "m.ssc"
    with pytest.raises(NumericError, match="'stage3.block1.s3a.w_out' holds NaN or Inf"):
        save_model_checkpoint(str(path), cfg, params)
    wider = build_model(tiny_config(channels=(8, 16, 32, 128)), Rng(9))
    with pytest.raises(ShapeError, match="'downsample3.w': stored shape"):
        save_model_checkpoint(str(path), cfg, wider)
    assert list(tmp_path.iterdir()) == []  # neither wrote a file, nor a temporary


def test_loaded_tensors_own_their_data(tmp_path):
    """No loaded tensor is a view of the file's bytes: each is its own native-order copy."""
    cfg = tiny_config()
    path = tmp_path / "m.ssc"
    save_model_checkpoint(str(path), cfg, build_model(cfg, Rng(9)))
    save_tensor(str(tmp_path / "t.ssa"), np.arange(6.0).reshape(2, 3))
    loaded = [arr for _, arr in param_items(load_model_checkpoint(str(path))[1])]
    loaded += list(load_checkpoint(str(path))[0].values()) + [load_tensor(str(tmp_path / "t.ssa"))]
    for arr in loaded:
        assert arr.dtype.isnative
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        assert arr.base is None


def test_checkpoint_io_holds_no_second_copy_of_the_file(tmp_path):
    cfg = tiny_config(channels=(32, 64, 128, 256))
    params = build_model(cfg, Rng(14))
    path = tmp_path / "m.ssc"
    tracemalloc.start()
    try:
        save_model_checkpoint(str(path), cfg, params)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        load_checkpoint(str(path))
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4 * 2**20
    assert save_peak <= 2**20  # each blob is streamed from its array, not joined in memory
    assert load_peak <= size + 2**20  # each payload is read into its array, not via a file buffer


def test_model_checkpoint_load_draws_nothing(tmp_path, monkeypatch):
    cfg = tiny_config()
    params = build_model(cfg, Rng(9))
    path = tmp_path / "m.ssc"
    save_model_checkpoint(str(path), cfg, params)

    def no_draws(*args, **kwargs):
        raise AssertionError("checkpoint loading drew random numbers")

    monkeypatch.setattr(ssattn.tensor, "philox", no_draws)
    _, params2 = load_model_checkpoint(str(path))
    for (na, a), (nb, b) in zip(param_items(params), param_items(params2), strict=True):
        assert na == nb
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_model_checkpoint_f64_round_trip(tmp_path):
    cfg = tiny_config(name="tiny-alt", blocks=(2, 1, 1, 2), classes=3)
    params = build_model(cfg, Rng(10, np.float64))
    path = tmp_path / "m64.ssc"
    save_model_checkpoint(str(path), cfg, params)
    cfg2, params2 = load_model_checkpoint(str(path))
    assert cfg2 == cfg
    loaded = dict(param_items(params2))
    assert all(arr.dtype == np.float64 for arr in loaded.values())


def test_model_checkpoint_missing_tensor_names_the_path(tmp_path):
    cfg = tiny_config()
    params = build_model(cfg, Rng(11))
    items = [(n, a) for n, a in param_items(params) if n != "stage2.block1.ffn.w1"]
    path = tmp_path / "bad.ssc"
    save_checkpoint(str(path), items, meta={"config": config_to_dict(cfg), "dtype": "f32"})
    with pytest.raises(ManifestError) as err:
        load_model_checkpoint(str(path))
    assert "stage2.block1.ffn.w1" in str(err.value)


def test_model_checkpoint_extra_tensor_names_the_path(tmp_path):
    cfg = tiny_config()
    items = param_items(build_model(cfg, Rng(11)))
    items.append(("stage2.block1.ffn.w3", np.zeros(3, dtype=np.float32)))
    path = tmp_path / "extra.ssc"
    save_checkpoint(str(path), items, meta={"config": config_to_dict(cfg), "dtype": "f32"})
    with pytest.raises(ManifestError) as err:
        load_model_checkpoint(str(path))
    assert "stage2.block1.ffn.w3" in str(err.value)


def test_model_checkpoint_naming_stage_overrides_is_config_error(tmp_path):
    cfg = tiny_config()
    meta = {"config": {**config_to_dict(cfg), "stage_overrides": [None, None, None, None]}, "dtype": "f32"}
    path = tmp_path / "overrides.ssc"
    save_checkpoint(str(path), param_items(build_model(cfg, Rng(11))), meta=meta)
    with pytest.raises(ConfigError, match=r"unknown config keys \['stage_overrides'\]"):
        load_model_checkpoint(str(path))


def test_model_checkpoint_naming_a_removed_setting_is_config_error(tmp_path):
    # a checkpoint written before the LCE switch was removed carries "lce" in its config
    cfg = tiny_config()
    meta = {"config": {**config_to_dict(cfg), "lce": True}, "dtype": "f32"}
    path = tmp_path / "old.ssc"
    save_checkpoint(str(path), param_items(build_model(cfg, Rng(11))), meta=meta)
    with pytest.raises(ConfigError, match=r"^unknown config keys \['lce'\]$"):
        load_model_checkpoint(str(path))


def test_model_checkpoint_rejects_missing_config(tmp_path):
    path = tmp_path / "noconf.ssc"
    save_checkpoint(str(path), [("a", np.zeros(2, dtype=np.float32))], meta={"dtype": "f32"})
    with pytest.raises(ManifestError):
        load_model_checkpoint(str(path))


def test_model_checkpoint_rejects_non_string_dtype_meta(tmp_path):
    cfg = tiny_config()
    items = param_items(build_model(cfg, Rng(12)))
    for tag in (["f32"], {"f32": 1}, 32):
        path = tmp_path / "tag.ssc"
        save_checkpoint(str(path), items, meta={"config": config_to_dict(cfg), "dtype": tag})
        with pytest.raises(ManifestError):
            load_model_checkpoint(str(path))
    # the reader takes exactly the meta keys the writer produces: no default dtype, no extras
    for meta in ({"config": config_to_dict(cfg)}, {"config": config_to_dict(cfg), "dtype": "f32", "note": "x"}):
        path = tmp_path / "keys.ssc"
        save_checkpoint(str(path), items, meta=meta)
        with pytest.raises(ManifestError, match="^checkpoint meta must hold exactly config and dtype, got keys "):
            load_model_checkpoint(str(path))


def test_model_checkpoint_rejects_tensors_of_another_dtype(tmp_path):
    cfg = tiny_config()
    items = param_items(build_model(cfg, Rng(13)))
    meta = {"config": config_to_dict(cfg), "dtype": "f32"}
    # every tensor f64 under an f32 declaration
    path = tmp_path / "all64.ssc"
    save_checkpoint(str(path), [(n, a.astype(np.float64)) for n, a in items], meta=meta)
    with pytest.raises(DTypeError) as err:
        load_model_checkpoint(str(path))
    assert items[0][0] in str(err.value)
    # a single f64 tensor among f32 ones is named by its path
    path = tmp_path / "one64.ssc"
    mixed = [(n, a.astype(np.float64) if n == "stage3.block1.s3a.w_out" else a) for n, a in items]
    save_checkpoint(str(path), mixed, meta=meta)
    with pytest.raises(DTypeError) as err:
        load_model_checkpoint(str(path))
    assert "stage3.block1.s3a.w_out" in str(err.value)


# ---------------------------------------------------------------------------
# mutated blobs: every accepted file is the one the writer would produce


_BASE_TENSORS = (
    np.arange(6, dtype=np.float32).reshape(2, 3),
    np.linspace(-1.0, 1.0, 4),
    np.zeros((0, 2), dtype=np.float32),
    np.float64(2.5).reshape(()),
)
# header field values as the writer lays them out, valid and not
_dtype_fields = st.sampled_from(["f32", "f64", "f16", "", None, 3, ["f32"]])
_shape_fields = st.lists(st.integers(-2, 7), max_size=4) | st.sampled_from(
    [None, 6, "2,3", [2.0, 3], [True, 6], {}]
)
_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.sampled_from(["head", "tail", "any"]), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("edit"), _dtype_fields, _shape_fields),
)


def _compact_header_blob(dtype_field, shape_field, payload):
    header = json.dumps({"dtype": dtype_field, "shape": shape_field}, separators=(",", ":")).encode()
    return TENSOR_MAGIC + struct.pack("<I", len(header)) + header + payload


def _mutate(blob, mutation, head_end, tail_start):
    """Truncate blob, or flip one byte of its head ([0, head_end)), its tail
    ([tail_start, end), anywhere if that is empty) or anywhere; edits are the caller's."""
    kind, *args = mutation
    if kind == "truncate":
        return blob[: args[0] % len(blob)]
    region, pos, mask = args
    lo, hi = {"head": (0, head_end), "tail": (tail_start, len(blob))}.get(region, (0, len(blob)))
    if lo == hi:
        lo, hi = 0, len(blob)
    pos = lo + pos % (hi - lo)
    return blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1 :]


def _tensor_header_end(blob):
    return 8 + struct.unpack("<I", blob[4:8])[0]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(base=st.sampled_from(range(len(_BASE_TENSORS))), mutation=_mutations)
def test_mutated_tensor_blobs_round_trip_or_raise_named_errors(tmp_path_factory, base, mutation):
    arr = _BASE_TENSORS[base]
    blob = tensor_to_bytes(arr)
    if mutation[0] == "edit":
        blob = _compact_header_blob(*mutation[1:], arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    else:
        blob = _mutate(blob, mutation, _tensor_header_end(blob), _tensor_header_end(blob))
    path = tmp_path_factory.mktemp("mutated") / "t.ssa"
    path.write_bytes(blob)
    try:
        back = load_tensor(str(path))
    except SSAttnError:
        return
    assert tensor_to_bytes(back) == blob


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(edited=st.sampled_from(range(len(_BASE_TENSORS))), mutation=_mutations)
def test_mutated_checkpoint_blobs_round_trip_or_raise_named_errors(tmp_path_factory, edited, mutation):
    names = [f"t{i}" for i in range(len(_BASE_TENSORS))]
    blobs = [tensor_to_bytes(arr) for arr in _BASE_TENSORS]
    if mutation[0] == "edit":
        arr = _BASE_TENSORS[edited]
        blobs[edited] = _compact_header_blob(*mutation[1:], arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    manifest = json.dumps({"version": 1, "names": names, "meta": {"note": "x"}}, separators=(",", ":")).encode()
    blob = CHECKPOINT_MAGIC + b"".join(struct.pack("<Q", len(b)) + b for b in blobs)
    head_end = len(blob[:12]) + _tensor_header_end(blobs[0])
    blob += manifest + struct.pack("<Q", len(manifest))
    if mutation[0] != "edit":
        blob = _mutate(blob, mutation, head_end, len(blob) - 8 - len(manifest))
    directory = tmp_path_factory.mktemp("mutated")
    try:
        tensors, meta = _load_blob(directory, blob)
    except SSAttnError:
        return
    save_checkpoint(str(directory / "back.ssc"), tensors, meta=meta)
    assert (directory / "back.ssc").read_bytes() == blob
