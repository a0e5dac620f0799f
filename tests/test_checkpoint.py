import dataclasses
import json
import struct

import numpy as np
import pytest

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


@pytest.mark.parametrize("cut", ["magic", "header_len", "header", "middle", "short4"])
def test_truncated_checkpoint_rejected(tmp_path, cut):
    w = init_model(TINY_CONFIG, seed=0)
    path = tmp_path / "m.ovfl"
    save_checkpoint(path, w)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 5)
    keep = {"magic": 3, "header_len": 7, "header": 9 + header_len // 2,
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
