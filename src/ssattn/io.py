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
order, with no repeats. Model checkpoints embed the model configuration
in `meta`. The reader takes only version 1 manifests with exactly these
three keys, so a file it accepts is written back byte for byte.

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
    StateError,
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
from .tensor import DTYPES, ShapeOnly, check_int

TENSOR_MAGIC = b"SSA1"
CHECKPOINT_MAGIC = b"SSC1"
_MANIFEST_VERSION = 1

# on-disk scalars are little-endian whatever the platform's byte order
_DTYPE_TAGS = {tag: dt.newbyteorder("<") for tag, dt in DTYPES.items()}
_MAX_RANK = 64  # numpy's ndarray rank limit
_MAX_BYTES = np.iinfo(np.intp).max


def _tag_of(arr: np.ndarray) -> str:
    if not isinstance(arr, (np.ndarray, np.generic)):  # a numpy scalar is a 0-d tensor
        raise FormatError(f"a tensor must be a numpy array, got a {type(arr).__name__}")
    for tag, dt in DTYPES.items():
        if arr.dtype == dt:
            return tag
    raise FormatError(f"unsupported dtype {arr.dtype}; use one of {sorted(DTYPES)}")


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


def tensor_from_bytes(blob: bytes | memoryview) -> np.ndarray:
    """Decode one SSA1 blob; the returned array is the only copy of its payload."""
    blob = memoryview(blob)
    if len(blob) < 4 or blob[:4] != TENSOR_MAGIC:
        raise MagicError(f"bad tensor magic {bytes(blob[:4])!r}")
    if len(blob) < 8:
        raise TruncatedPayloadError("tensor blob ends inside the header length field")
    (header_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + header_len:
        raise TruncatedPayloadError("tensor header extends past end of data")
    try:
        header = json.loads(bytes(blob[8 : 8 + header_len]))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise FormatError(f"tensor header is not valid JSON: {exc}") from None
    tag = header.get("dtype") if isinstance(header, dict) else None
    if not isinstance(tag, str) or tag not in _DTYPE_TAGS:
        raise FormatError(f"tensor header malformed: {header!r}")
    shape = header.get("shape")
    if not isinstance(shape, list):
        raise FormatError(f"tensor shape malformed: {shape!r}")
    shape = [check_int(s, "tensor extent", 0, FormatError) for s in shape]
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
    return arr.astype(DTYPES[tag])  # fresh native-order C-contiguous copy


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
        {"version": _MANIFEST_VERSION, "names": names, "meta": meta or {}}, separators=(",", ":")
    ).encode()
    parts.append(manifest)
    parts.append(struct.pack("<Q", len(manifest)))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # blobs are sliced without copying
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise MagicError(f"bad checkpoint magic {bytes(blob[:4])!r}")
    if len(blob) < 12:
        raise TruncatedPayloadError("checkpoint ends inside the manifest length field")
    (manifest_len,) = struct.unpack("<Q", blob[-8:])
    if manifest_len > len(blob) - 12:
        raise ManifestError(f"manifest length {manifest_len} exceeds file size")
    try:
        manifest = json.loads(bytes(blob[len(blob) - 8 - manifest_len : len(blob) - 8]))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    # only what save_checkpoint writes is read: a file loads back to its own bytes
    if not isinstance(manifest, dict) or manifest.keys() != {"version", "names", "meta"}:
        raise ManifestError(f"manifest keys malformed: {manifest!r:.200}")
    if type(manifest["version"]) is not int or manifest["version"] != _MANIFEST_VERSION:
        raise ManifestError(f"manifest version {manifest['version']!r} is not {_MANIFEST_VERSION}")
    names, meta = manifest["names"], manifest["meta"]
    if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
        raise ManifestError(f"manifest names malformed: {names!r}")
    if len(set(names)) != len(names):
        raise ManifestError("duplicate parameter paths in checkpoint manifest")
    if not isinstance(meta, dict):
        raise ManifestError(f"manifest meta malformed: {meta!r}")

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
    return tensors, meta


def save_model_checkpoint(path: str, cfg: ModelConfig, params: ModelParams) -> None:
    """Write all model parameters plus the embedded configuration, if `load_state` admits them."""
    items = param_items(params)
    dtype_tag = _tag_of(items[0][1])
    load_state(build_model(cfg, ShapeOnly(DTYPES[dtype_tag])), dict(items))
    save_checkpoint(path, items, meta={"config": config_to_dict(cfg), "dtype": dtype_tag})


def load_model_checkpoint(path: str) -> tuple[ModelConfig, ModelParams]:
    """Read a model checkpoint; every expected parameter path must appear.

    The model adopts the decoded arrays: nothing is drawn or copied.
    """
    tensors, meta = load_checkpoint(path)
    if "config" not in meta:
        raise ManifestError("checkpoint meta lacks an embedded config")
    cfg = config_from_dict(meta["config"])
    tag = meta.get("dtype", "f32")
    dtype = DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise ManifestError(f"checkpoint meta dtype malformed: {tag!r}")
    params = build_model(cfg, ShapeOnly(dtype))
    try:
        load_state(params, tensors)
    except StateError as exc:
        raise ManifestError(f"checkpoint {exc}") from None
    return cfg, params
