import dataclasses
import errno
import hashlib
import io
import json
import mmap
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import overfill.checkpoint as ck
from overfill.checkpoint import (MAGIC, load_checkpoint, load_config,
                                 read_checkpoint_tensors, save_checkpoint,
                                 save_config)
from overfill.errors import DataError
from overfill.model import DESK_CONFIG, init_model

from helpers import TINY_CONFIG


def test_roundtrip_bit_identical(tmp_path):
    w = init_model(DESK_CONFIG, seed=11)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    loaded = load_checkpoint(path, DESK_CONFIG)
    for (na, ta), (nb, tb) in zip(w.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert (ta.data == tb.data).all()


def test_serialization_is_deterministic(tmp_path):
    w = init_model(TINY_CONFIG, seed=3)
    save_checkpoint(tmp_path / "a.ovfl", w)
    save_checkpoint(tmp_path / "b.ovfl", w)
    assert (tmp_path / "a.ovfl").read_bytes() == (tmp_path / "b.ovfl").read_bytes()


def test_layout_magic_header_and_alignment(tmp_path):
    w = init_model(TINY_CONFIG, seed=0)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    raw = path.read_bytes()
    assert raw[:5] == MAGIC
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9:9 + header_len])
    assert set(header) == {name for name, _ in w.named_tensors()}
    for name, meta in header.items():
        assert meta["dtype"] == "f32"
        assert meta["byte_offset"] % 64 == 0
    # blobs really live at their offsets
    emb = header["token_embedding"]
    arr = np.frombuffer(raw, dtype="<f4", count=int(np.prod(emb["shape"])),
                        offset=emb["byte_offset"]).reshape(emb["shape"])
    assert (arr == w.token_embedding.data).all()


def test_untied_lm_head_serialized(tmp_path):
    cfg = dataclasses.replace(TINY_CONFIG, tied_embeddings=False)
    w = init_model(cfg, seed=1)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    loaded = load_checkpoint(path, cfg)
    assert (loaded.lm_head.data == w.lm_head.data).all()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ovfl"
    path.write_bytes(b"NOPE!" + b"\0" * 64)
    with pytest.raises(DataError, match="magic"):
        read_checkpoint_tensors(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_checkpoint_tensors(tmp_path / "absent.ovfl")


def test_wrong_config_shape_rejected(tmp_path):
    w = init_model(TINY_CONFIG, seed=0)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    wrong = dataclasses.replace(TINY_CONFIG, hidden_dim=6)
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(path, wrong)


def test_f64_weights_not_checkpointable(tmp_path):
    w = init_model(TINY_CONFIG, seed=0, dtype=np.float64)
    with pytest.raises(DataError, match="f32"):
        save_checkpoint(tmp_path / "m.ovfl", w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_not_checkpointable(tmp_path, bad):
    w = init_model(DESK_CONFIG, seed=0)
    w.tensor("layers.0.w_q").data[3, 5] = bad
    with pytest.raises(DataError, match="layers.0.w_q holds NaN or Inf"):
        save_checkpoint(tmp_path / "m.ovfl", w)
    assert not (tmp_path / "m.ovfl").exists()


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(path, DESK_CONFIG)
    assert load_config(path) == DESK_CONFIG


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    d = DESK_CONFIG.to_dict()
    d["mystery"] = 5
    path.write_text(json.dumps(d))
    with pytest.raises(DataError, match="mystery"):
        load_config(path)


@pytest.mark.parametrize("field, bad", [("rope_theta", float("nan")),
                                        ("norm_eps", float("inf")), ("norm_eps", "1e-5"),
                                        ("n_layers", True), ("rope_theta", False),
                                        ("tied_embeddings", "no"), ("tied_embeddings", 0)])
def test_config_file_non_finite_or_non_number_rejected(tmp_path, field, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK_CONFIG.to_dict(), field: bad}))  # NaN, Infinity
    with pytest.raises(DataError, match=field):
        load_config(path)


@pytest.mark.parametrize("cut", ["empty", "magic", "header_len", "header", "middle", "short4"])
def test_truncated_checkpoint_rejected(tmp_path, cut):
    w = init_model(TINY_CONFIG, seed=0)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    keep = {"empty": 0, "magic": 3, "header_len": 7, "header": 9 + header_len // 2,
            "middle": len(raw) // 2, "short4": len(raw) - 4}[cut]
    path.write_bytes(raw[:keep])
    with pytest.raises(DataError, match="bad magic|truncated checkpoint"):
        load_checkpoint(path, TINY_CONFIG)


@pytest.mark.parametrize("field, value", [
    ("shape", lambda s: [str(n) for n in s]),
    ("shape", lambda s: [float(n) for n in s]),
    ("shape", lambda s: [True] * len(s)),
    ("shape", lambda s: ",".join(map(str, s))),
    ("byte_offset", lambda off: off + 0.9),
    ("byte_offset", str),
    ("byte_offset", lambda off: True),
], ids=["shape-str", "shape-float", "shape-bool", "shape-not-a-list",
        "offset-float", "offset-str", "offset-bool"])
def test_header_fields_of_the_wrong_json_type_rejected(tmp_path, field, value):
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, init_model(TINY_CONFIG, seed=0))
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9: 9 + header_len])
    meta = header["layers.0.w_q"]
    meta[field] = value(meta[field])
    # Only the header is read before the check, so the blobs may move.
    new = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + raw[9 + header_len:])
    with pytest.raises(DataError, match="corrupt checkpoint header.*layers.0.w_q"):
        load_checkpoint(path, TINY_CONFIG)


def test_loaded_tensors_are_writable_views_of_one_buffer(tmp_path):
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, init_model(TINY_CONFIG, seed=0))
    tensors = [t.data for t in load_checkpoint(path, TINY_CONFIG).tensors()]
    base = tensors[0].base
    assert base is not None and all(a.base is base for a in tensors)
    assert all(a.dtype == np.float32 and a.flags.writeable for a in tensors)


def _edit_header_in_place(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path`, padding
    the new header with spaces to the old length so no blob moves."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9: 9 + header_len])
    edit(header)
    new = json.dumps(header, separators=(",", ":")).encode()
    assert len(new) <= header_len
    path.write_bytes(raw[:9] + new.ljust(header_len) + raw[9 + header_len:])


@pytest.mark.parametrize("edit, where", [
    (lambda h: h["layers.0.w_k"].update(byte_offset=h["layers.0.w_v"]["byte_offset"]),
     "overlaps tensor layers.0.w_[kv]"),
    (lambda h: h["layers.0.attn_norm_gamma"].update(byte_offset=64), "overlaps the header"),
], ids=["blob-on-blob", "blob-in-header"])
def test_overlapping_blobs_rejected(tmp_path, edit, where):
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, init_model(TINY_CONFIG, seed=0))
    _edit_header_in_place(path, edit)
    with pytest.raises(DataError, match=f"corrupt checkpoint header .*{where}"):
        load_checkpoint(path, TINY_CONFIG)


class _DiskFull(io.BufferedWriter):
    """Takes `room` bytes, then fails as a full disk does."""

    def __init__(self, raw, room):
        super().__init__(raw)
        self.room = room

    def write(self, b):
        b = memoryview(b).cast("B")
        if self.tell() + len(b) > self.room:
            super().write(b[: max(self.room - self.tell(), 0)])
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


@pytest.mark.parametrize("save, old, new, name, room", [
    (save_checkpoint, init_model(TINY_CONFIG, seed=0), init_model(TINY_CONFIG, seed=1),
     "m.ovfl", 2000),   # fails among the blobs
    (save_config, DESK_CONFIG, dataclasses.replace(DESK_CONFIG, hidden_dim=64),
     "cfg.json", 100),
], ids=["checkpoint", "config"])
@pytest.mark.parametrize("existed", [True, False], ids=["over-a-file", "new-file"])
def test_failed_save_leaves_the_destination_as_it_was(tmp_path, monkeypatch, save, old, new,
                                                      name, room, existed):
    path = tmp_path / name
    if existed:
        save(path, old)
        before = path.read_bytes()
    monkeypatch.setattr(ck, "open", lambda file, mode: _DiskFull(
        io.FileIO(file, mode.replace("b", "")), room), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save(path, new)
    assert [p.name for p in tmp_path.iterdir()] == ([name] if existed else [])
    if existed:
        assert path.read_bytes() == before


def test_concurrent_saves_to_one_path_leave_one_whole_file(tmp_path):
    path = tmp_path / "m.ovfl"
    models = [init_model(TINY_CONFIG, seed=s) for s in range(4)]

    def save_often(w):
        for _ in range(20):
            save_checkpoint(path, w)

    with ThreadPoolExecutor(len(models)) as pool:
        for done in [pool.submit(save_often, w) for w in models]:
            done.result(timeout=60)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ovfl"]
    assert (load_checkpoint(path, TINY_CONFIG).checksum()
            in {w.checksum() for w in models})


def test_a_loaded_model_survives_a_save_over_its_file(tmp_path):
    path = tmp_path / "m.ovfl"
    original = init_model(TINY_CONFIG, seed=0)
    save_checkpoint(path, original)
    loaded = load_checkpoint(path, TINY_CONFIG)
    save_checkpoint(path, init_model(TINY_CONFIG, seed=1))
    assert loaded.checksum() == original.checksum()


def test_writes_into_a_loaded_tensor_never_reach_the_file(tmp_path):
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, init_model(TINY_CONFIG, seed=0))
    digest = hashlib.sha256(path.read_bytes()).digest()
    first = load_checkpoint(path, TINY_CONFIG)
    want = first.checksum()
    for t in first.tensors():
        t.data[...] = 7.0
    assert hashlib.sha256(path.read_bytes()).digest() == digest
    assert load_checkpoint(path, TINY_CONFIG).checksum() == want


def test_loaded_tensors_share_the_file_mapping(tmp_path):
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, init_model(TINY_CONFIG, seed=0))
    tensors = [t.data for t in load_checkpoint(path, TINY_CONFIG).tensors()]
    # Follow array bases and buffer owners down to what holds the bytes.
    owner = tensors[0]
    while isinstance(owner, (np.ndarray, memoryview)):
        owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
    assert isinstance(owner, mmap.mmap)
    assert all(a.base is tensors[0].base for a in tensors)
