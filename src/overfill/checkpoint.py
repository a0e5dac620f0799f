"""OVFL1 checkpoint format and model-config JSON files.

Layout: magic "OVFL1", a little-endian u32 header length, the UTF-8 JSON
header mapping tensor name -> {dtype, shape, byte_offset}, zero padding,
then raw little-endian float32 blobs. Every blob starts at a file offset
that is a multiple of 64; byte_offset values are absolute file offsets.
Identical weights always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig, Weights, tensor_shape
from .tensor import Tensor

MAGIC = b"OVFL1"
ALIGN = 64

PathLike = Union[str, Path]


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def save_checkpoint(path: PathLike, weights: Weights) -> None:
    blobs = []
    for name, t in weights.named_tensors():
        if t.dtype != np.float32:
            raise DataError(f"checkpoint tensors must be f32, {name} is {t.dtype}")
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

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for name, arr in blobs:
            f.write(b"\0" * (offsets[name] - f.tell()))
            f.write(arr.tobytes())


def read_checkpoint_tensors(path: PathLike) -> dict[str, np.ndarray]:
    """Name -> float32 array. The file is read once into one writable buffer
    and every array is a view of it."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    raw = np.fromfile(path, dtype=np.uint8)
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
        entries = [(name, meta["dtype"], tuple(int(n) for n in meta["shape"]),
                    int(meta["byte_offset"])) for name, meta in header.items()]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"corrupt checkpoint header in {path}: {exc!r}") from exc
    tensors = {}
    for name, dtype, shape, off in entries:
        if dtype != "f32":
            raise DataError(f"unsupported dtype {dtype!r} for {name}")
        if off % ALIGN != 0:
            raise DataError(f"tensor {name} not {ALIGN}-byte aligned (offset {off})")
        nbytes = 4 * math.prod(shape)
        if min(shape, default=0) < 0 or off < header_start or off + nbytes > raw.size:
            raise DataError(f"truncated checkpoint {path}: tensor {name} at "
                            f"[{off}, {off + nbytes}) lies outside its {raw.size} bytes")
        tensors[name] = raw[off: off + nbytes].view("<f4").reshape(shape)
    return tensors


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def read_json_object(path: PathLike, what: str) -> dict:
    """The object a JSON file holds; DataError naming `what` if the file is
    missing, is not valid JSON, or holds anything but an object."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"invalid {what}: /: expected an object")
    return doc


def load_config(path: PathLike) -> ModelConfig:
    try:
        return ModelConfig.from_dict(read_json_object(path, "model config"))
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
