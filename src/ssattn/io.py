"""Binary tensor and checkpoint file formats.

Tensor file ("SSA1"): a 4-byte magic, a little-endian u32 header
length, a JSON header {"dtype": "f32"|"f64", "shape": [...]}, then the
raw payload — little-endian scalars in row-major order. The payload
byte length must equal product(shape) * scalar size exactly.

Checkpoint ("SSC1"): a 4-byte magic, then one length-prefixed (u64
little-endian) tensor-file blob per parameter, then a JSON manifest
{"version", "names", "meta"} and, as the final 8 bytes, the manifest
length as u64 little-endian, so a reader can locate the manifest from
the end of the file. `names` lists one parameter path per blob, in
order. Model checkpoints embed the model configuration in `meta`.

Both formats are platform-independent (endianness is fixed) and all
writes are atomic: content goes to a temporary file in the same
directory, then renames over the destination.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import (
    FormatError,
    MagicError,
    ManifestError,
    PayloadSizeError,
    TruncatedPayloadError,
)
from .model import (
    ModelConfig,
    ModelParams,
    build_model,
    config_from_dict,
    config_to_dict,
    load_state,
    param_items,
)
from .tensor import Rng

TENSOR_MAGIC = b"SSA1"
CHECKPOINT_MAGIC = b"SSC1"

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NATIVE = {"f32": np.float32, "f64": np.float64}
_MAX_RANK = 64  # numpy's ndarray rank limit
_MAX_BYTES = np.iinfo(np.intp).max


def _tag_of(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise FormatError(f"unsupported dtype {arr.dtype}; use float32 or float64")


def atomic_write_bytes(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    tag = _tag_of(arr)
    header = json.dumps(
        {"dtype": tag, "shape": list(arr.shape)}, separators=(",", ":")
    ).encode()
    payload = np.ascontiguousarray(arr).astype(_DTYPE_TAGS[tag], copy=False).tobytes()
    return TENSOR_MAGIC + struct.pack("<I", len(header)) + header + payload


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 4 or blob[:4] != TENSOR_MAGIC:
        raise MagicError(f"bad tensor magic {blob[:4]!r}")
    if len(blob) < 8:
        raise TruncatedPayloadError("tensor blob ends inside the header length field")
    (header_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + header_len:
        raise TruncatedPayloadError("tensor header extends past end of data")
    try:
        header = json.loads(blob[8 : 8 + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"tensor header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("dtype") not in _DTYPE_TAGS:
        raise FormatError(f"tensor header malformed: {header!r}")
    shape = header.get("shape")
    if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
        raise FormatError(f"tensor shape malformed: {shape!r}")
    tag = header["dtype"]
    itemsize = _DTYPE_TAGS[tag].itemsize
    # Python ints do not overflow; numpy bounds the rank and the nonzero extents
    if len(shape) > _MAX_RANK or math.prod(max(s, 1) for s in shape) * itemsize > _MAX_BYTES:
        raise FormatError(f"tensor shape {shape} exceeds numpy's array limits")
    expected = math.prod(shape) * itemsize
    payload = blob[8 + header_len :]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"payload holds {len(payload)} bytes, header promises {expected}"
        )
    if len(payload) != expected:
        raise PayloadSizeError(
            f"payload holds {len(payload)} bytes, header promises {expected}"
        )
    arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[tag]).reshape(shape)
    return arr.astype(_NATIVE[tag])  # fresh native-order C-contiguous copy


def save_tensor(path: str, arr: np.ndarray) -> None:
    atomic_write_bytes(path, tensor_to_bytes(arr))


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())


def save_checkpoint(
    path: str, items: list[tuple[str, np.ndarray]] | dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    if isinstance(items, dict):
        items = list(items.items())
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ManifestError("duplicate parameter paths in checkpoint")
    parts = [CHECKPOINT_MAGIC]
    for _, arr in items:
        blob = tensor_to_bytes(arr)
        parts.append(struct.pack("<Q", len(blob)))
        parts.append(blob)
    manifest = json.dumps(
        {"version": 1, "names": names, "meta": meta or {}}, separators=(",", ":")
    ).encode()
    parts.append(manifest)
    parts.append(struct.pack("<Q", len(manifest)))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise MagicError(f"bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 12:
        raise TruncatedPayloadError("checkpoint ends inside the manifest length field")
    (manifest_len,) = struct.unpack("<Q", blob[-8:])
    if manifest_len > len(blob) - 12:
        raise ManifestError(f"manifest length {manifest_len} exceeds file size")
    try:
        manifest = json.loads(blob[len(blob) - 8 - manifest_len : len(blob) - 8])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    names = manifest.get("names") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
        raise ManifestError(f"manifest names malformed: {names!r}")

    tensors: dict[str, np.ndarray] = {}
    pos, end, count = 4, len(blob) - 8 - manifest_len, 0
    while pos < end:
        if end - pos < 8:
            raise TruncatedPayloadError("checkpoint blob length prefix cut off")
        (blob_len,) = struct.unpack("<Q", blob[pos : pos + 8])
        pos += 8
        if pos + blob_len > end:
            raise TruncatedPayloadError("checkpoint blob extends past manifest")
        if count >= len(names):
            raise ManifestError(f"more tensor blobs than manifest names ({len(names)})")
        tensors[names[count]] = tensor_from_bytes(blob[pos : pos + blob_len])
        pos += blob_len
        count += 1
    if count != len(names):
        raise ManifestError(f"manifest names {len(names)} blobs {count}: count mismatch")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ManifestError(f"manifest meta malformed: {meta!r}")
    return tensors, meta


def save_model_checkpoint(path: str, cfg: ModelConfig, params: ModelParams) -> None:
    """Write all model parameters plus the embedded configuration."""
    items = param_items(params)
    dtype_tag = _tag_of(items[0][1])
    save_checkpoint(path, items, meta={"config": config_to_dict(cfg), "dtype": dtype_tag})


def load_model_checkpoint(path: str) -> tuple[ModelConfig, ModelParams]:
    """Read a model checkpoint; every expected parameter path must appear."""
    tensors, meta = load_checkpoint(path)
    if "config" not in meta:
        raise ManifestError("checkpoint meta lacks an embedded config")
    cfg = config_from_dict(meta["config"])
    tag = meta.get("dtype", "f32")
    dtype = _NATIVE.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise ManifestError(f"checkpoint meta dtype malformed: {tag!r}")
    params = build_model(cfg, Rng(0), dtype=dtype)
    expected = [name for name, _ in param_items(params)]
    missing = [name for name in expected if name not in tensors]
    if missing:
        raise ManifestError(f"checkpoint missing parameter {missing[0]!r}")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise ManifestError(f"checkpoint has unexpected parameter {extra[0]!r}")
    load_state(params, tensors)
    return cfg, params
