"""Float64 reference computations, written apart from the `overfill` package.

Weights are read straight from OVFL1 files with this module's own parser, so
a fault in the package's loader, slicer or forward pass shows up as a
mismatch instead of being reproduced by the reference. The forward mirrors
the two-stage split writer: one model's keys/values for a prefix, then a
second model attending over them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

# An emitted token passes when its reference logit is within this distance of
# the reference maximum. The program's logits differ from the float64 ones by
# at most 8e-9 at DESK_CONFIG and 7e-7 at the mid geometry, measured while its
# forward runs in float64 after the first attention (tensor.attend's float64
# scale); a float32 copy of this forward differs by 1.3e-7 and 1.7e-6. All are
# far below the top-1/top-2 logit gaps of random-init models (> 0.03).
ARGMAX_TOL = 1e-4
# Relative tolerance for float32 training loss and calibration scores.
LOSS_RTOL = 1e-4
SCORE_RTOL = 1e-3

LAYER_FIELDS = ("attn_norm_gamma", "w_q", "w_k", "w_v", "w_o",
                "ffn_norm_gamma", "w_gate", "w_up", "w_down")


@dataclass
class RefModel:
    """float64 weights plus the geometry needed to run them."""
    emb: np.ndarray
    layers: list
    final_norm: np.ndarray
    lm_head: np.ndarray        # [hidden, vocab]
    n_heads: int
    n_kv_heads: int
    head_dim: int
    norm_eps: float
    rope_theta: float


def read_ovfl1(path) -> dict[str, np.ndarray]:
    """Parse an OVFL1 file: magic, u32 header length, JSON header, blobs."""
    raw = open(path, "rb").read()
    if raw[:5] != b"OVFL1":
        raise ValueError(f"{path}: not an OVFL1 file")
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9: 9 + hlen])
    out = {}
    for name, meta in header.items():
        shape = tuple(meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        out[name] = np.frombuffer(raw, dtype="<f4", count=count,
                                  offset=meta["byte_offset"]).reshape(shape)
    return out


def ref_model(path, geometry: dict) -> RefModel:
    """Build a float64 model from an OVFL1 file and a config dict."""
    t = {k: v.astype(np.float64) for k, v in read_ovfl1(path).items()}
    n_layers = geometry["n_layers"]
    layers = [{f: t[f"layers.{i}.{f}"] for f in LAYER_FIELDS} for i in range(n_layers)]
    lm_head = t["lm_head"] if "lm_head" in t else t["token_embedding"].T
    return RefModel(t["token_embedding"], layers, t["final_norm_gamma"], lm_head,
                    geometry["n_heads"], geometry["n_kv_heads"], geometry["head_dim"],
                    geometry.get("norm_eps", 1e-5), geometry.get("rope_theta", 10000.0))


def _rms(x, g, eps):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * g


def _rope(x, positions, head_dim, theta):
    t, width = x.shape
    half = head_dim // 2
    inv = theta ** (-np.arange(half) * 2.0 / head_dim)
    ang = positions[:, None] * inv[None, :]
    c, s = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    x3 = x.reshape(t, width // head_dim, head_dim)
    even, odd = x3[..., 0::2], x3[..., 1::2]
    out = np.empty_like(x3)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out.reshape(t, width)


def run(m: RefModel, ids, hist_k=None, hist_v=None, acts=None):
    """Causal forward of `ids` after an optional per-layer K/V history.

    Returns (post-final-norm hidden [T, D], keys, values), where keys/values
    are per-layer [S, kv_heads, head_dim] including the history. When `acts`
    is a dict, the three scoring points are appended to its per-layer lists.
    """
    ids = np.asarray(ids, dtype=np.int64)
    t = ids.size
    s0 = 0 if hist_k is None else hist_k[0].shape[0]
    pos = np.arange(s0, s0 + t, dtype=np.float64)
    dh, hq, hkv = m.head_dim, m.n_heads, m.n_kv_heads
    group = hq // hkv
    x = m.emb[ids]
    keys, values = [], []
    for li, lw in enumerate(m.layers):
        h = _rms(x, lw["attn_norm_gamma"], m.norm_eps)
        if acts is not None:
            acts.setdefault(("pre_attn", li), []).append(h)
        q = _rope(h @ lw["w_q"], pos, dh, m.rope_theta).reshape(t, hq, dh)
        k = _rope(h @ lw["w_k"], pos, dh, m.rope_theta).reshape(t, hkv, dh)
        v = (h @ lw["w_v"]).reshape(t, hkv, dh)
        if hist_k is not None:
            k = np.concatenate([hist_k[li], k])
            v = np.concatenate([hist_v[li], v])
        keys.append(k)
        values.append(v)
        # [kv_heads, group, T, dh] queries against [kv_heads, 1, S, dh] keys.
        qg = q.reshape(t, hkv, group, dh).transpose(1, 2, 0, 3)
        sc = qg @ k.transpose(1, 2, 0)[:, None] / np.sqrt(dh)
        causal = np.arange(s0 + t)[None, :] <= s0 + np.arange(t)[:, None]
        sc = np.where(causal, sc, -np.inf)
        sc -= sc.max(axis=-1, keepdims=True)
        p = np.exp(sc)
        mixed = (p / p.sum(axis=-1, keepdims=True)) @ v.transpose(1, 0, 2)[:, None]
        mixed = mixed.transpose(2, 0, 1, 3)
        x = x + mixed.reshape(t, hq * dh) @ lw["w_o"]
        hf = _rms(x, lw["ffn_norm_gamma"], m.norm_eps)
        if acts is not None:
            acts.setdefault(("pre_ffn", li), []).append(hf)
        g = hf @ lw["w_gate"]
        inner = g / (1.0 + np.exp(-g)) * (hf @ lw["w_up"])
        if acts is not None:
            acts.setdefault(("ffn_inner", li), []).append(inner)
        x = x + inner @ lw["w_down"]
    return _rms(x, m.final_norm, m.norm_eps), keys, values


def prefix_kv(prefill: RefModel, prompt):
    """Per-layer keys/values the prefill model writes for prompt[:-1]."""
    _, keys, values = run(prefill, prompt[:-1])
    return keys, values


def decode_logits(decode: RefModel, kv, prompt, emitted):
    """Reference logits at every emitted position of a two-stage request.

    The decode model runs prompt[-1] and every emitted token but the last
    over the history `kv` written by the prefill model (see prefix_kv).
    Row i scores the choice of emitted[i].
    """
    block = [prompt[-1]] + list(emitted[:-1])
    hidden, _, _ = run(decode, block, *kv)
    return hidden @ decode.lm_head


def argmax_violations(logits: np.ndarray, emitted, tol: float = ARGMAX_TOL) -> int:
    """Count emitted tokens whose reference logit trails the maximum by > tol."""
    picked = logits[np.arange(len(emitted)), np.asarray(emitted)]
    return int(np.sum(logits.max(axis=1) - picked > tol))


def masked_ce(prefill: RefModel, decode: RefModel, rows) -> float:
    """Mean response cross-entropy over rows of (ids, prefill_len).

    Mirrors the two-model training loss: the prefill model writes K/V for
    ids[:m-1]; the decode model is teacher-forced over ids[m-1:n-1] and
    scored on the targets ids[m:n].
    """
    total, count = 0.0, 0
    for ids, m in rows:
        ids = np.asarray(ids)
        hk = hv = None
        if m > 1:
            _, hk, hv = run(prefill, ids[: m - 1])
        hidden, _, _ = run(decode, ids[m - 1: -1], hk, hv)
        z = hidden @ decode.lm_head
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        tgt = ids[m:]
        total += -logp[np.arange(tgt.size), tgt].sum()
        count += tgt.size
    return total / count


def channel_scores(model: RefModel, batch) -> tuple[np.ndarray, list[np.ndarray]]:
    """Calibration scores from reference activations of one [rows, seq] batch:
    L2 over rows, mean over positions; hidden scores summed over layers and
    over the pre-attention and pre-FFN points."""
    acts: dict = {}
    for row in np.asarray(batch):
        run(model, row, acts=acts)

    def score(key):
        a = np.stack(acts[key])
        return np.sqrt((a * a).sum(axis=0)).mean(axis=0)

    n_layers = len(model.layers)
    hidden = sum(score(("pre_attn", li)) + score(("pre_ffn", li))
                 for li in range(n_layers))
    return hidden, [score(("ffn_inner", li)) for li in range(n_layers)]
