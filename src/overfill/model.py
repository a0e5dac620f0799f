"""Llama-style decoder-only transformer with explicit prefill and decode paths.

The key structural property: the KV cache layout depends only on the
attention geometry (layers, kv heads, head dim), never on the hidden or
FFN width, so a cache written by the full model is directly consumable by
a width-pruned model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from . import tensor as tk
from .tensor import Tensor

TapFn = Callable[[int, str, np.ndarray], None]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    intermediate_dim: int
    norm_eps: float = 1e-5
    rope_theta: float = 10000.0
    tied_embeddings: bool = True

    @property
    def attn_dim(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    def validate(self) -> "ModelConfig":
        for name in ("vocab_size", "hidden_dim", "n_layers", "n_heads",
                     "n_kv_heads", "head_dim", "intermediate_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary embedding, got {self.head_dim}")
        if self.norm_eps < 0 or self.rope_theta <= 0:
            raise ConfigError("norm_eps must be >= 0 and rope_theta > 0")
        return self

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "hidden_dim": self.hidden_dim,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "n_kv_heads": self.n_kv_heads,
            "head_dim": self.head_dim,
            "intermediate_dim": self.intermediate_dim,
            "norm_eps": self.norm_eps,
            "rope_theta": self.rope_theta,
            "tied_embeddings": self.tied_embeddings,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        missing = {"vocab_size", "hidden_dim", "n_layers", "n_heads",
                   "n_kv_heads", "head_dim", "intermediate_dim"} - set(d)
        if missing:
            raise ConfigError(f"missing model config keys: {sorted(missing)}")
        return cls(**d).validate()


# Trains on CPU in minutes while exercising every mechanism.
DESK_CONFIG = ModelConfig(
    vocab_size=260, hidden_dim=64, n_layers=4, n_heads=4, n_kv_heads=2,
    head_dim=16, intermediate_dim=256,
)


def cache_shape(config: ModelConfig) -> tuple[int, int, int]:
    """(layers, kv heads, head dim): the cache geometry; pruning-invariant."""
    return (config.n_layers, config.n_kv_heads, config.head_dim)


class KVCache:
    """Per-layer key/value history, appended one block of positions at a time.

    Shapes depend only on the attention geometry of the originating full
    model; entries written by full and pruned weights are interchangeable.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int,
                 dtype=np.float32, capacity: int = 64):
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.filled_len = 0
        self._keys = [np.zeros((capacity, n_kv_heads, head_dim), dtype=dtype)
                      for _ in range(n_layers)]
        self._values = [np.zeros((capacity, n_kv_heads, head_dim), dtype=dtype)
                        for _ in range(n_layers)]

    @classmethod
    def for_config(cls, config: ModelConfig, dtype=np.float32) -> "KVCache":
        return cls(*cache_shape(config), dtype=dtype)

    @property
    def geometry(self) -> tuple[int, int, int]:
        return (self.n_layers, self.n_kv_heads, self.head_dim)

    def keys(self, layer: int) -> np.ndarray:
        return self._keys[layer][: self.filled_len]

    def values(self, layer: int) -> np.ndarray:
        return self._values[layer][: self.filled_len]

    def _grow(self, need: int) -> None:
        cap = self._keys[0].shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        for buf_list in (self._keys, self._values):
            for i, buf in enumerate(buf_list):
                grown = np.zeros((new_cap,) + buf.shape[1:], dtype=buf.dtype)
                grown[: self.filled_len] = buf[: self.filled_len]
                buf_list[i] = grown

    def append_block(self, t: int) -> int:
        """Extend every layer by t positions and return the old length; the
        caller fills rows [old length, filled_len) of keys() and values()."""
        lo = self.filled_len
        self._grow(lo + t)
        self.filled_len = lo + t
        return lo


@dataclass
class LayerWeights:
    attn_norm_gamma: Tensor
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    ffn_norm_gamma: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor


@dataclass
class Weights:
    config: ModelConfig
    token_embedding: Tensor
    layers: list[LayerWeights]
    final_norm_gamma: Tensor
    lm_head: Optional[Tensor] = None  # None when tied to token_embedding
    frozen: bool = False

    def named_tensors(self):
        yield "token_embedding", self.token_embedding
        for i, lw in enumerate(self.layers):
            for name in ("attn_norm_gamma", "w_q", "w_k", "w_v", "w_o",
                         "ffn_norm_gamma", "w_gate", "w_up", "w_down"):
                yield f"layers.{i}.{name}", getattr(lw, name)
        yield "final_norm_gamma", self.final_norm_gamma
        if self.lm_head is not None:
            yield "lm_head", self.lm_head

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def set_requires_grad(self, flag: bool) -> "Weights":
        for t in self.tensors():
            t.requires_grad = flag
        return self

    def freeze(self) -> "Weights":
        self.frozen = True
        return self.set_requires_grad(False)

    def param_count(self) -> int:
        return sum(t.size for t in self.tensors())

    def checksum(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        for name, t in self.named_tensors():
            h.update(name.encode())
            h.update(t.data.tobytes())
        return h.digest()

    def clone(self) -> "Weights":
        layers = [LayerWeights(**{
            f: Tensor(getattr(lw, f).data.copy(), requires_grad=getattr(lw, f).requires_grad)
            for f in ("attn_norm_gamma", "w_q", "w_k", "w_v", "w_o",
                      "ffn_norm_gamma", "w_gate", "w_up", "w_down")})
            for lw in self.layers]
        return Weights(
            config=self.config,
            token_embedding=Tensor(self.token_embedding.data.copy(),
                                   requires_grad=self.token_embedding.requires_grad),
            layers=layers,
            final_norm_gamma=Tensor(self.final_norm_gamma.data.copy(),
                                    requires_grad=self.final_norm_gamma.requires_grad),
            lm_head=None if self.lm_head is None else Tensor(
                self.lm_head.data.copy(), requires_grad=self.lm_head.requires_grad),
            frozen=self.frozen,
        )


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> Weights:
    """Deterministic initialization: scaled normal weights, unit norm scales.

    Residual-writing projections (w_o, w_down) use std 0.02/sqrt(2*L), all
    other matrices std 0.02. The same (config, seed) always produces
    bit-identical weights.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    std = 0.02
    std_out = 0.02 / math.sqrt(2 * config.n_layers)

    def normal(rows, cols, s):
        return Tensor(rng.normal(0.0, s, size=(rows, cols)).astype(dtype))

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype))

    d, da, dkv, i = (config.hidden_dim, config.attn_dim, config.kv_dim,
                     config.intermediate_dim)
    emb = normal(config.vocab_size, d, std)
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            attn_norm_gamma=ones(d),
            w_q=normal(d, da, std),
            w_k=normal(d, dkv, std),
            w_v=normal(d, dkv, std),
            w_o=normal(da, d, std_out),
            ffn_norm_gamma=ones(d),
            w_gate=normal(d, i, std),
            w_up=normal(d, i, std),
            w_down=normal(i, d, std_out),
        ))
    final = ones(d)
    lm_head = None if config.tied_embeddings else normal(d, config.vocab_size, std)
    return Weights(config=config, token_embedding=emb, layers=layers,
                   final_norm_gamma=final, lm_head=lm_head)


def _causal_mask(t: int, history: int, dtype) -> np.ndarray:
    cols = np.arange(history + t)[None, :]
    rows = np.arange(t)[:, None]
    return np.where(cols <= history + rows, 0.0, tk.NEG_MASK).astype(dtype)


def run_block(w: Weights, tokens: Sequence[int], cache: KVCache,
              tap: Optional[TapFn] = None) -> Tensor:
    """Causal forward over a block of tokens appended after the cache history.

    Returns the post-final-norm hidden states [T, hidden_dim] and appends
    exactly one K/V row per token per layer, written into the cache before
    each layer attends over it. History entries already in the cache enter
    attention as constants, so no gradient can flow into them.
    The optional tap observes (layer, point, activation) at the three
    channel-scoring points: "pre_attn", "pre_ffn", "ffn_inner".
    """
    cfg = w.config
    if cache.geometry != cache_shape(cfg):
        raise ValueError(
            f"cache geometry {cache.geometry} does not match model {cache_shape(cfg)}")
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("token block must be non-empty")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id out of range for vocab {cfg.vocab_size}")

    t = ids.size
    dh = cfg.head_dim
    history = cache.append_block(t)
    positions = np.arange(history, history + t)
    mask = _causal_mask(t, history, w.token_embedding.dtype) if t > 1 else None
    try:
        x = tk.embedding(w.token_embedding, ids)
        for li, lw in enumerate(w.layers):
            h = tk.rms_norm(x, lw.attn_norm_gamma, cfg.norm_eps)
            if tap is not None:
                tap(li, "pre_attn", h.data)
            q = tk.rope_rows(tk.matmul(h, lw.w_q), positions, dh, cfg.rope_theta)
            k = tk.rope_rows(tk.matmul(h, lw.w_k), positions, dh, cfg.rope_theta)
            v = tk.matmul(h, lw.w_v)

            keys, values = cache.keys(li), cache.values(li)
            keys[history:] = k.data.reshape(t, cfg.n_kv_heads, dh)
            values[history:] = v.data.reshape(t, cfg.n_kv_heads, dh)
            mixed = tk.attend(q, k, v, keys, values, cfg.n_heads, cfg.n_kv_heads, dh,
                              mask=mask)
            x = tk.add(x, tk.matmul(mixed, lw.w_o))

            hf = tk.rms_norm(x, lw.ffn_norm_gamma, cfg.norm_eps)
            if tap is not None:
                tap(li, "pre_ffn", hf.data)
            inner = tk.mul(tk.silu(tk.matmul(hf, lw.w_gate)), tk.matmul(hf, lw.w_up))
            if tap is not None:
                tap(li, "ffn_inner", inner.data)
            x = tk.add(x, tk.matmul(inner, lw.w_down))
    except BaseException:
        cache.filled_len = history  # a failed block leaves the cache as it was
        raise
    return tk.rms_norm(x, w.final_norm_gamma, cfg.norm_eps)


def lm_logits(w: Weights, hidden: Tensor) -> Tensor:
    """Project hidden states [T, hidden_dim] to vocabulary logits [T, vocab]."""
    if w.lm_head is not None:
        return tk.matmul(hidden, w.lm_head)
    return tk.matmul_nt(hidden, w.token_embedding)


def forward_prefill(w: Weights, tokens: Sequence[int],
                    cache: KVCache) -> tuple[Tensor, Tensor, KVCache]:
    """Parallel pass over a prompt, filling an empty cache.

    Returns (last position's post-norm hidden [D], its logits [vocab], cache).
    """
    if cache.filled_len != 0:
        raise ValueError(f"forward_prefill requires an empty cache, filled_len={cache.filled_len}")
    hidden = run_block(w, tokens, cache)
    last = tk.slice_rows(hidden, hidden.shape[0] - 1, hidden.shape[0])
    logits = lm_logits(w, last)
    return (tk.reshape(last, (w.config.hidden_dim,)),
            tk.reshape(logits, (w.config.vocab_size,)), cache)


def decode_step(w: Weights, token: int, cache: KVCache,
                position: int) -> tuple[Tensor, KVCache]:
    """Process one token at an absolute position, appending one cache row per layer."""
    if position != cache.filled_len:
        raise ValueError(
            f"decode position {position} != cache filled_len {cache.filled_len}")
    logits = lm_logits(w, run_block(w, [token], cache))
    return tk.reshape(logits, (w.config.vocab_size,)), cache
