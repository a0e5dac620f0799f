"""Shared test utilities: finite-difference gradient checking and an
independent straight-numpy reference forward used as an oracle against the
kernel-based model implementation."""

from __future__ import annotations

import numpy as np

from overfill.model import ModelConfig, Weights
from overfill.tensor import GradTape, Tensor, grad_of

TINY_CONFIG = ModelConfig(
    vocab_size=13, hidden_dim=8, n_layers=2, n_heads=2, n_kv_heads=1,
    head_dim=4, intermediate_dim=12,
)


def cache_row(cache, layer, row=0):
    """(keys, values) of one cache row over its filled positions, each
    [row length, n_kv_heads, head_dim]."""
    keys, values = cache.block_view(layer, cache.row_lens[row])
    return keys[row], values[row]


def fd_gradcheck(build, arrays, h=1e-4, tol=1e-4, rel_floor=1e-6):
    """Compare reverse-mode gradients of build(tensors) -> scalar against
    central finite differences in float64. build must be a pure function of
    the tensors' current data."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    with GradTape() as tape:
        loss = build(tensors)
    grads = grad_of(loss, tape, tensors)

    worst = 0.0
    for t in tensors:
        analytic = grads[t]
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = build(tensors).item()
            flat[i] = orig - h
            lm = build(tensors).item()
            flat[i] = orig
            num[i] = (lp - lm) / (2 * h)
        num = num.reshape(t.data.shape)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), rel_floor)
        rel = np.abs(analytic - num) / denom
        worst = max(worst, float(rel.max()))
    assert worst < tol, f"finite-difference mismatch: worst rel err {worst:.3e}"
    return worst


def ref_rms_norm(x, gamma, eps):
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(ms + eps) * gamma


def ref_rope(x, positions, head_dim, theta):
    t, width = x.shape
    n_heads = width // head_dim
    half = head_dim // 2
    inv = theta ** (-np.arange(half) * 2.0 / head_dim)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv[None, :]
    c, s = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    x3 = x.reshape(t, n_heads, head_dim).astype(np.float64)
    out = np.empty_like(x3)
    out[..., 0::2] = x3[..., 0::2] * c - x3[..., 1::2] * s
    out[..., 1::2] = x3[..., 0::2] * s + x3[..., 1::2] * c
    return out.reshape(t, width)


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_forward(w: Weights, tokens, collect_taps=False):
    """Independent float64 forward pass over one sequence from an empty cache.

    Returns (logits [T, vocab], taps) where taps[(layer, point)] holds the
    activation at the three channel-scoring points.
    """
    cfg = w.config
    ids = np.asarray(tokens)
    t = ids.size
    positions = np.arange(t)
    dh = cfg.head_dim
    group = cfg.n_heads // cfg.n_kv_heads
    taps = {}

    def g(tensor):
        return tensor.data.astype(np.float64)

    x = g(w.token_embedding)[ids]
    for li, lw in enumerate(w.layers):
        h = ref_rms_norm(x, g(lw.attn_norm_gamma), cfg.norm_eps)
        if collect_taps:
            taps[(li, "pre_attn")] = h.copy()
        q = ref_rope(h @ g(lw.w_q), positions, dh, cfg.rope_theta)
        k = ref_rope(h @ g(lw.w_k), positions, dh, cfg.rope_theta)
        v = h @ g(lw.w_v)
        heads = []
        for hi in range(cfg.n_heads):
            kv = hi // group
            qh = q[:, hi * dh:(hi + 1) * dh]
            kh = k[:, kv * dh:(kv + 1) * dh]
            vh = v[:, kv * dh:(kv + 1) * dh]
            scores = qh @ kh.T / np.sqrt(dh)
            scores = np.where(np.tril(np.ones((t, t), dtype=bool)), scores, -1e9)
            heads.append(ref_softmax(scores) @ vh)
        x = x + np.concatenate(heads, axis=1) @ g(lw.w_o)
        hf = ref_rms_norm(x, g(lw.ffn_norm_gamma), cfg.norm_eps)
        if collect_taps:
            taps[(li, "pre_ffn")] = hf.copy()
        gate = hf @ g(lw.w_gate)
        inner = gate / (1.0 + np.exp(-gate)) * (hf @ g(lw.w_up))
        if collect_taps:
            taps[(li, "ffn_inner")] = inner.copy()
        x = x + inner @ g(lw.w_down)
    xn = ref_rms_norm(x, g(w.final_norm_gamma), cfg.norm_eps)
    head = g(w.lm_head) if w.lm_head is not None else g(w.token_embedding).T
    return xn @ head, taps
