"""OVFL1 checkpoint format and model-config JSON files.

Layout: magic "OVFL1", a little-endian u32 header length, the UTF-8 JSON
header mapping tensor name -> {dtype, shape, byte_offset}, zero padding,
then raw little-endian float32 blobs. Every blob starts at a file offset
that is a multiple of 64; byte_offset values are absolute file offsets.
Blobs lie after the header and do not overlap. Identical weights always
serialize to identical bytes. Only finite weights are written; loading
does not scan the blobs again.

A load maps the file copy-on-write: its tensors read the page cache in
place, and writes to them never reach the file. Saves write a temp file
beside the target and rename it onto the path, so a loaded model keeps its
bytes and a failed save leaves the target as it was. A loaded model holds
the file's mapping and one descriptor while it lives; truncating that file
in place from another program is unsupported (the lost pages raise SIGBUS).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import secrets
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Union

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig, Weights, tensor_shape
from .tensor import Tensor

MAGIC = b"OVFL1"
ALIGN = 64

PathLike = Union[str, Path]


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def _write_atomically(path: PathLike, write: Callable[[BinaryIO], None]) -> None:
    """Write `path` through `write(f)` on a temp file of this call's own beside
    it, then rename that onto `path`. On any failure the temp file is removed
    and `path` is left as it was. Not fsynced: atomic for other processes, not
    across a power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: PathLike, weights: Weights) -> None:
    blobs = []
    for name, t in weights.named_tensors():
        if t.dtype != np.float32:
            raise DataError(f"checkpoint tensors must be f32, {name} is {t.dtype}")
        # Checked once here rather than on every load, which a full scan
        # would slow by tens of milliseconds at the mid geometry.
        if not np.isfinite(t.data).all():
            raise DataError(f"{name} holds NaN or Inf; not writing {path}")
        blobs.append((name, np.ascontiguousarray(t.data, dtype="<f4")))

    # Two passes: header size depends on offsets, offsets depend on header
    # size. Offset digit widths can only grow, so iterate to a fixed point.
    def build_header(offsets):
        header = {name: {"dtype": "f32", "shape": list(arr.shape),
                         "byte_offset": offsets[name]}
                  for name, arr in blobs}
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    offsets = {name: 0 for name, _ in blobs}
    for _ in range(4):
        header_bytes = build_header(offsets)
        pos = _align(len(MAGIC) + 4 + len(header_bytes))
        new_offsets = {}
        for name, arr in blobs:
            new_offsets[name] = pos
            pos = _align(pos + arr.nbytes)
        if new_offsets == offsets:
            break
        offsets = new_offsets
    header_bytes = build_header(offsets)

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for name, arr in blobs:
            f.write(b"\0" * (offsets[name] - f.tell()))
            f.write(arr)

    _write_atomically(path, write)


def read_checkpoint_tensors(path: PathLike) -> dict[str, np.ndarray]:
    """Name -> float32 array, each a writable view of one copy-on-write
    (MAP_PRIVATE) mapping of the file: a write copies its page privately and
    never reaches the file. The mapping lives as long as any of the arrays."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        try:
            buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
        except ValueError as exc:   # mmap refuses an empty file
            raise DataError(f"truncated checkpoint {path}: the file is empty") from exc
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw[: len(MAGIC)].tobytes() != MAGIC:
        raise DataError(f"bad magic in {path}: expected {MAGIC!r}")
    header_start = len(MAGIC) + 4
    if raw.size < header_start:
        raise DataError(f"truncated checkpoint {path}: no header length")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    if header_start + header_len > raw.size:
        raise DataError(f"truncated checkpoint {path}: header runs past the end of the file")
    try:
        header = json.loads(raw[header_start: header_start + header_len].tobytes())
        entries = [(name, meta["dtype"], meta["shape"], meta["byte_offset"])
                   for name, meta in header.items()]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"corrupt checkpoint header in {path}: {exc!r}") from exc
    blobs = []
    for name, dtype, shape, off in entries:
        # bool is a subclass of int, but true/false is not a size here.
        if (not isinstance(shape, list) or type(off) is not int
                or any(type(n) is not int for n in shape)):
            raise DataError(f"corrupt checkpoint header in {path}: {name} needs a list "
                            f"of ints as shape and an int byte_offset")
        if dtype != "f32":
            raise DataError(f"unsupported dtype {dtype!r} for {name}")
        if off % ALIGN != 0:
            raise DataError(f"tensor {name} not {ALIGN}-byte aligned (offset {off})")
        nbytes = 4 * math.prod(shape)
        if min(shape, default=0) < 0 or off < header_start or off + nbytes > raw.size:
            raise DataError(f"truncated checkpoint {path}: tensor {name} at "
                            f"[{off}, {off + nbytes}) lies outside its {raw.size} bytes")
        blobs.append((off, nbytes, name, shape))
    # Writable views must not alias each other or the header text.
    end, before = header_start + header_len, "the header"
    for off, nbytes, name, _ in sorted(blobs):
        if off < end:
            raise DataError(f"corrupt checkpoint header in {path}: tensor {name} at "
                            f"[{off}, {off + nbytes}) overlaps {before}, which ends at {end}")
        end, before = off + nbytes, f"tensor {name}"
    return {name: raw[off: off + nbytes].view("<f4").reshape(shape)
            for off, nbytes, name, shape in blobs}


def load_checkpoint(path: PathLike, config: ModelConfig) -> Weights:
    """Assemble Weights for a config from an OVFL1 file, validating shapes."""
    tensors = read_checkpoint_tensors(path)

    def take(name, axes):
        if name not in tensors:
            raise DataError(f"checkpoint {path} missing tensor {name}")
        arr = tensors.pop(name)
        shape = tensor_shape(config, axes)
        if arr.shape != shape:
            raise DataError(f"{name}: shape {arr.shape} != expected {shape}")
        return Tensor(arr)

    weights = Weights.build(config, take)
    if tensors:
        raise DataError(f"checkpoint {path} has unexpected tensors: {sorted(tensors)}")
    return weights


def save_config(path: PathLike, config: ModelConfig) -> None:
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_atomically(path, lambda f: f.write(text.encode()))


def read_json_object(path: PathLike, what: str) -> dict:
    """The object a JSON file holds; DataError naming `what` if the file is
    missing, is not valid UTF-8 JSON, or holds anything but an object."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"invalid {what}: /: expected an object")
    return doc


def load_config(path: PathLike) -> ModelConfig:
    try:
        return ModelConfig.from_dict(read_json_object(path, "model config"))
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
