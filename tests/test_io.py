"""Binary tensor files and checkpoints: round trips, corruption taxonomy."""
import json
import os
import struct

import numpy as np
import pytest

from ssattn.checks import tiny_config
from ssattn.errors import (
    DTypeError,
    FormatError,
    MagicError,
    ManifestError,
    PayloadSizeError,
    TruncatedPayloadError,
)
from ssattn.io import (
    CHECKPOINT_MAGIC,
    TENSOR_MAGIC,
    atomic_write_bytes,
    load_checkpoint,
    load_model_checkpoint,
    load_tensor,
    save_checkpoint,
    save_model_checkpoint,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)
from ssattn.model import build_model, config_to_dict, param_items
from ssattn.tensor import Rng


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def header_blob(dtype_tag, shape, payload):
    header = json.dumps({"dtype": dtype_tag, "shape": list(shape)}).encode()
    return TENSOR_MAGIC + struct.pack("<I", len(header)) + header + payload


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


def test_tensor_round_trip_handles_non_contiguous_views():
    arr = gen(111).normal(size=(4, 6)).astype(np.float32)
    view = arr.T
    back = tensor_from_bytes(tensor_to_bytes(view))
    assert back.shape == view.shape
    assert np.array_equal(back, view)
    assert back.flags["C_CONTIGUOUS"]


def test_tensor_rejects_bad_magic():
    blob = tensor_to_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(MagicError):
        tensor_from_bytes(b"XXXX" + blob[4:])


def test_tensor_rejects_truncation():
    blob = tensor_to_bytes(np.arange(4, dtype=np.float32).reshape(2, 2))
    with pytest.raises(TruncatedPayloadError):
        tensor_from_bytes(blob[:-1])
    with pytest.raises(TruncatedPayloadError):
        tensor_from_bytes(blob[:6])  # inside the header length field


def test_tensor_header_payload_disagreement():
    four = np.arange(4, dtype=np.float32).tobytes()
    three = np.arange(3, dtype=np.float32).tobytes()
    five = np.arange(5, dtype=np.float32).tobytes()
    good = header_blob("f32", (2, 2), four)
    assert tensor_from_bytes(good).shape == (2, 2)
    with pytest.raises(TruncatedPayloadError):
        tensor_from_bytes(header_blob("f32", (2, 2), three))
    with pytest.raises(PayloadSizeError):
        tensor_from_bytes(header_blob("f32", (2, 2), five))


def test_tensor_rejects_malformed_headers():
    four = np.arange(4, dtype=np.float32).tobytes()
    bad_json = TENSOR_MAGIC + struct.pack("<I", 5) + b"{oops" + four
    with pytest.raises(FormatError):
        tensor_from_bytes(bad_json)
    with pytest.raises(FormatError):
        tensor_from_bytes(header_blob("f16", (2, 2), four))
    with pytest.raises(FormatError):
        tensor_from_bytes(header_blob("f32", (2, -2), four))


def test_tensor_rejects_unrepresentable_shapes():
    four = np.arange(4, dtype=np.float32).tobytes()
    with pytest.raises(FormatError):
        tensor_from_bytes(header_blob("f32", [True], four[:4]))
    with pytest.raises(FormatError):
        tensor_from_bytes(header_blob("f32", [2.0, 2], four))
    # the element count overflows int64; empty arrays still hit numpy's bound
    for shape in ([2**62, 4], [2**62, 0], [2**64, 0], [1] * 65):
        with pytest.raises(FormatError):
            tensor_from_bytes(header_blob("f32", shape, four[:4]))
    assert tensor_from_bytes(header_blob("f32", [2**40, 0], b"")).shape == (2**40, 0)


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


def test_model_checkpoint_f64_round_trip(tmp_path):
    cfg = tiny_config(name="tiny-alt", window=1, anchors=3, stride=2, lce=False, classes=3)
    params = build_model(cfg, Rng(10), dtype=np.float64)
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
