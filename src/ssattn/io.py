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
directory, then renames over the destination. Both sides stream one
tensor at a time. Writers put each header and the array's own
little-endian buffer into that file, once everything a reader would
refuse has raised. Readers take regular files only, whose size bounds
every length field; one decoder, `_read_tensor`, allocates each array
only when its payload size equals the bytes left for it, then reads the
payload straight into it, so no buffer of the whole file exists.
"""
from __future__ import annotations

import io
import json
import math
import os
import stat
import struct
import tempfile
from contextlib import contextmanager
from typing import BinaryIO

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


@contextmanager
def _atomic_file(path: str):
    """A binary temp file beside `path` that replaces it when the block ends; removed on any error."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, blob: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(blob)


def _tensor_head(arr: np.ndarray) -> bytes:
    """Magic, header length and header of arr's SSA1 blob: everything before the payload."""
    header = json.dumps(
        {"dtype": _tag_of(arr), "shape": list(arr.shape)}, separators=(",", ":")
    ).encode()
    return TENSOR_MAGIC + struct.pack("<I", len(header)) + header


def _payload(arr: np.ndarray) -> np.ndarray:
    """arr's scalars, C-contiguous and little-endian; a copy only if arr is not already so."""
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    return _tensor_head(arr) + _payload(arr).tobytes()


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedPayloadError(f"{what} holds {len(data)} bytes, {n} expected")
    return data


def _read_tensor(fh: BinaryIO, size: int) -> np.ndarray:
    """Decode the SSA1 blob of `size` bytes at fh's position, leaving fh just past it.

    The array is allocated only once the header's payload size equals
    what `size` leaves for it, and the payload is read straight into it.
    """
    magic = fh.read(min(size, 4))
    if magic != TENSOR_MAGIC:
        raise MagicError(f"bad tensor magic {magic!r}")
    if size < 8:
        raise TruncatedPayloadError("tensor blob ends inside the header length field")
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "tensor header length field"))
    if size < 8 + header_len:
        raise TruncatedPayloadError("tensor header extends past end of data")
    try:
        header = json.loads(_read_exact(fh, header_len, "tensor header"))
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
    payload_len = size - 8 - header_len
    if payload_len < expected:
        raise TruncatedPayloadError(f"payload holds {payload_len} bytes, header promises {expected}")
    if payload_len != expected:
        raise PayloadSizeError(f"payload holds {payload_len} bytes, header promises {expected}")
    arr = np.empty(shape, dtype=_DTYPE_TAGS[tag])
    got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != expected:  # the data ended early: the array is never returned half-filled
        raise TruncatedPayloadError(f"payload holds {got} bytes, header promises {expected}")
    return arr if arr.dtype.isnative else arr.astype(DTYPES[tag])


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    """Decode one SSA1 blob; the returned array is the only copy of its payload."""
    return _read_tensor(io.BytesIO(blob), len(blob))


@contextmanager
def _regular_file(path: str):
    """(file, byte size) of `path` opened for reading; FormatError unless it is a regular file.

    A directory or device is a FormatError; a missing or unreadable path
    stays the OSError that `open` raises.
    """
    try:
        fh = open(path, "rb")
    except IsADirectoryError:
        raise FormatError(f"{path!r} is not a regular file") from None
    with fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError(f"{path!r} is not a regular file")
        yield fh, st.st_size


def save_tensor(path: str, arr: np.ndarray) -> None:
    head = _tensor_head(arr)
    with _atomic_file(path) as fh:
        fh.write(head)
        fh.write(_payload(arr))


def load_tensor(path: str) -> np.ndarray:
    with _regular_file(path) as (fh, size):
        return _read_tensor(fh, size)


def _check_names_and_meta(names, meta) -> None:
    """The manifest rules `load_checkpoint` applies, and `save_checkpoint` before it writes."""
    if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
        raise ManifestError(f"manifest names malformed: {names!r}")
    if len(set(names)) != len(names):
        raise ManifestError("duplicate parameter paths in checkpoint manifest")
    if not isinstance(meta, dict):
        raise ManifestError(f"manifest meta malformed: {meta!r}")


def save_checkpoint(
    path: str, items: list[tuple[str, np.ndarray]] | dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    """Stream each tensor's blob, then the manifest, into a temp file renamed over `path`.

    What `load_checkpoint` would refuse raises before the temp file exists.
    """
    try:
        pairs = [(name, arr) for name, arr in (items.items() if isinstance(items, dict) else items)]
    except (TypeError, ValueError):
        raise ManifestError(f"checkpoint items must be (name, array) pairs, got {items!r:.200}") from None
    names = [name for name, _ in pairs]
    meta = {} if meta is None else meta
    _check_names_and_meta(names, meta)
    try:
        manifest = json.dumps(
            {"version": _MANIFEST_VERSION, "names": names, "meta": meta}, separators=(",", ":")
        ).encode()
    except (TypeError, ValueError, RecursionError) as exc:  # a non-JSON value, a cycle, too deep
        raise ManifestError(f"manifest meta is not JSON: {exc}") from None
    heads = [_tensor_head(arr) for _, arr in pairs]
    with _atomic_file(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        for head, (_, arr) in zip(heads, pairs):
            payload = _payload(arr)
            fh.write(struct.pack("<Q", len(head) + payload.nbytes))
            fh.write(head)
            fh.write(payload)
        fh.write(manifest)
        fh.write(struct.pack("<Q", len(manifest)))


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with _regular_file(path) as (fh, size):
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise MagicError(f"bad checkpoint magic {magic!r}")
        if size < 12:
            raise TruncatedPayloadError("checkpoint ends inside the manifest length field")
        fh.seek(size - 8)
        (manifest_len,) = struct.unpack("<Q", _read_exact(fh, 8, "manifest length field"))
        if manifest_len > size - 12:
            raise ManifestError(f"manifest length {manifest_len} exceeds file size")
        end = size - 8 - manifest_len
        fh.seek(end)
        try:
            manifest = json.loads(_read_exact(fh, manifest_len, "manifest"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise ManifestError(f"manifest is not valid JSON: {exc}") from None
        # only what save_checkpoint writes is read: a file loads back to its own bytes
        if not isinstance(manifest, dict) or manifest.keys() != {"version", "names", "meta"}:
            raise ManifestError(f"manifest keys malformed: {manifest!r:.200}")
        if type(manifest["version"]) is not int or manifest["version"] != _MANIFEST_VERSION:
            raise ManifestError(f"manifest version {manifest['version']!r} is not {_MANIFEST_VERSION}")
        names, meta = manifest["names"], manifest["meta"]
        _check_names_and_meta(names, meta)

        tensors: dict[str, np.ndarray] = {}
        fh.seek(4)
        pos, count = 4, 0
        while pos < end:
            if end - pos < 8:
                raise TruncatedPayloadError("checkpoint blob length prefix cut off")
            (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, "blob length prefix"))
            pos += 8
            if pos + blob_len > end:
                raise TruncatedPayloadError("checkpoint blob extends past manifest")
            if count >= len(names):
                raise ManifestError(f"more tensor blobs than manifest names ({len(names)})")
            tensors[names[count]] = _read_tensor(fh, blob_len)
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
