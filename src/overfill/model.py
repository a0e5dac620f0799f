"""Llama-style decoder-only transformer with explicit prefill and decode paths.

The key structural property: the KV cache layout depends only on the
attention geometry (layers, kv heads, head dim), never on the hidden or
FFN width, so a cache written by the full model is directly consumable by
a width-pruned model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_ranges, check_types
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

    def __post_init__(self):
        check_types(self)
        # The fields without a default are exactly the integer dimensions.
        check_ranges(self, [*[(f.name, getattr(self, f.name) >= 1, ">= 1")
                              for f in fields(self) if f.default is MISSING],
                            ("head_dim", self.head_dim % 2 == 0, "an even number for RoPE"),
                            ("norm_eps", self.norm_eps >= 0, ">= 0"),
                            ("rope_theta", self.rope_theta > 0, "> 0")])
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads {self.n_heads} not divisible by n_kv_heads {self.n_kv_heads}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ConfigError(f"missing model config keys: {sorted(missing)}")
        return cls(**d)


# Trains on CPU in minutes while exercising every mechanism.
DESK_CONFIG = ModelConfig(
    vocab_size=260, hidden_dim=64, n_layers=4, n_heads=4, n_kv_heads=2,
    head_dim=16, intermediate_dim=256,
)


def cache_shape(config: ModelConfig) -> tuple[int, int, int]:
    """(layers, kv heads, head dim): the cache geometry; pruning-invariant."""
    return (config.n_layers, config.n_kv_heads, config.head_dim)


def check_handoff(prefill_cfg: ModelConfig, decode_cfg: ModelConfig) -> None:
    """Raise unless a decode model of decode_cfg can continue a cache (and
    predict over the vocabulary) of a prefill model of prefill_cfg."""
    if cache_shape(prefill_cfg) != cache_shape(decode_cfg):
        raise ConfigError(
            f"cache geometry mismatch: prefill {cache_shape(prefill_cfg)} "
            f"vs decode {cache_shape(decode_cfg)}")
    if prefill_cfg.vocab_size != decode_cfg.vocab_size:
        raise ConfigError("prefill and decode vocabularies differ")


class KVCache:
    """Per-layer key/value history of one or more rows, each extended one
    block of positions at a time up to the capacity its caller sets.

    Shapes depend only on the attention geometry of the originating full
    model; entries written by full and pruned weights are interchangeable.
    Each row has its own fill length; a serving cache has one row, and
    filled_len is its length.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int, capacity: int,
                 dtype=np.float32, rows: int = 1):
        self.geometry = (n_layers, n_kv_heads, head_dim)
        self.capacity = capacity
        self.row_lens = [0] * rows
        self._keys = [np.zeros((rows, capacity, n_kv_heads, head_dim), dtype=dtype)
                      for _ in range(n_layers)]
        self._values = [np.zeros_like(k) for k in self._keys]

    @classmethod
    def for_config(cls, config: ModelConfig, capacity: int, dtype=np.float32,
                   rows: int = 1) -> "KVCache":
        return cls(*cache_shape(config), capacity, dtype=dtype, rows=rows)

    @property
    def filled_len(self) -> int:
        return self.row_lens[0]

    def block_view(self, layer: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of every row at positions [0, width), as
        [rows, width, n_kv_heads, head_dim] views into the cache."""
        return self._keys[layer][:, :width], self._values[layer][:, :width]

    def append_block(self, counts: Sequence[int]) -> list[int]:
        """Extend row b of every layer by counts[b] positions and return the
        old lengths; the caller fills positions [old length, new length).
        A claim past the capacity raises DataError and extends no row."""
        old = self.row_lens
        new = [old[0] + counts[0]] if len(old) == 1 else [lo + c for lo, c in zip(old, counts)]
        if max(new) > self.capacity:
            raise DataError(f"a block of {counts} positions after {old} overflows "
                            f"the cache capacity {self.capacity}")
        self.row_lens = new
        return old


def _axes(*tags: str):
    return field(metadata={"axes": tags})


# Axis tags: "v" vocabulary, "d" hidden, "da" attention (n_heads * head_dim),
# "dkv" key/value (n_kv_heads * head_dim), "i" FFN intermediate. Width
# pruning slices every "d" and "i" axis and leaves the others alone.
@dataclass
class LayerWeights:
    attn_norm_gamma: Tensor = _axes("d")
    w_q: Tensor = _axes("d", "da")
    w_k: Tensor = _axes("d", "dkv")
    w_v: Tensor = _axes("d", "dkv")
    w_o: Tensor = _axes("da", "d")
    ffn_norm_gamma: Tensor = _axes("d")
    w_gate: Tensor = _axes("d", "i")
    w_up: Tensor = _axes("d", "i")
    w_down: Tensor = _axes("i", "d")


def tensor_table(config: ModelConfig) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(name, axis tags) of every tensor of a model, in checkpoint order."""
    yield "token_embedding", ("v", "d")
    for li in range(config.n_layers):
        for f in fields(LayerWeights):
            yield f"layers.{li}.{f.name}", f.metadata["axes"]
    yield "final_norm_gamma", ("d",)
    if not config.tied_embeddings:
        yield "lm_head", ("d", "v")


def tensor_shape(config: ModelConfig, axes: Sequence[str]) -> tuple[int, ...]:
    sizes = {"v": config.vocab_size, "d": config.hidden_dim, "da": config.attn_dim,
             "dkv": config.kv_dim, "i": config.intermediate_dim}
    return tuple(sizes[a] for a in axes)


@dataclass
class Weights:
    config: ModelConfig
    token_embedding: Tensor
    layers: list[LayerWeights]
    final_norm_gamma: Tensor
    lm_head: Optional[Tensor] = None  # None when tied to token_embedding

    @classmethod
    def build(cls, config: ModelConfig,
              make: Callable[[str, tuple[str, ...]], Tensor]) -> "Weights":
        """Weights whose tensors are make(name, axes), called in checkpoint order."""
        made = {name: make(name, axes) for name, axes in tensor_table(config)}
        layers = [LayerWeights(**{f.name: made[f"layers.{li}.{f.name}"]
                                  for f in fields(LayerWeights)})
                  for li in range(config.n_layers)]
        return cls(config, made["token_embedding"], layers, made["final_norm_gamma"],
                   made.get("lm_head"))

    def tensor(self, name: str) -> Tensor:
        """The tensor with a checkpoint name such as "layers.2.w_q"."""
        parts = name.split(".")
        if len(parts) == 3:  # layers.<index>.<field>
            return getattr(self.layers[int(parts[1])], parts[2])
        return getattr(self, name)

    def named_tensors(self):
        for name, _ in tensor_table(self.config):
            yield name, self.tensor(name)

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def set_requires_grad(self, flag: bool) -> "Weights":
        for t in self.tensors():
            t.requires_grad = flag
        return self

    def freeze(self) -> "Weights":
        """Frozen weights: no tensor requires grad, so no op over them is taped."""
        return self.set_requires_grad(False)

    def param_count(self) -> int:
        return sum(t.size for t in self.tensors())

    def checksum(self) -> bytes:
        h = hashlib.sha256()
        for name, t in self.named_tensors():
            h.update(name.encode())
            h.update(t.data.tobytes())
        return h.digest()

    def clone(self) -> "Weights":
        def copy(name, _):
            t = self.tensor(name)
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        return Weights.build(self.config, copy)


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> Weights:
    """Deterministic initialization: scaled normal weights, unit norm scales.

    Residual-writing projections (w_o, w_down) use std 0.02/sqrt(2*L), all
    other matrices std 0.02. Tensors are drawn in checkpoint order, so the
    same (config, seed) always produces bit-identical weights.
    """
    rng = np.random.default_rng(seed)
    std = 0.02
    std_out = 0.02 / math.sqrt(2 * config.n_layers)

    def draw(name, axes):
        shape = tensor_shape(config, axes)
        if len(shape) == 1:
            return Tensor(np.ones(shape, dtype=dtype))
        s = std_out if name.endswith((".w_o", ".w_down")) else std
        return Tensor(rng.normal(0.0, s, size=shape).astype(dtype))

    return Weights.build(config, draw)


def _row_layout(history: list[int], counts: list[int], dtype):
    """Where a packed block of counts[b] tokens per row, appended after
    history[b] cached positions, sits in its attention.

    Returns (positions [N], key width S, additive mask, attend slots,
    kv_at, kv_lead): cache_rows[kv_at], of shape kv_lead + (kv heads,
    head dim), are the block's own K/V positions in packed order. When
    every row has the same history and count, each block ends its row, the
    rows share one [T, S] causal mask (None for T = 1) and attend needs no
    slots; the positions of one row are a range. Otherwise the mask is
    [B, Tmax, S] and the slots are (qslot, kv_at), qslot[n] being token n's
    flat index in the [B, Tmax] query grid.
    """
    h, t, b = history[0], counts[0], len(counts)
    if b == 1 or (history.count(h) == b and counts.count(t) == b):
        width = h + t
        positions = range(h, width)
        mask = None if t == 1 else np.where(np.arange(width) <= np.arange(h, width)[:, None],
                                             0.0, tk.NEG_MASK).astype(dtype)
        if b > 1:
            positions = np.tile(positions, b)
        return positions, width, mask, None, (slice(None), slice(h, width)), (b, t)
    width = max(h + c for h, c in zip(history, counts))
    offs = np.arange(max(counts))
    grid_pos = np.asarray(history)[:, None] + offs                  # [B, Tmax]
    rows, cols = np.nonzero(offs < np.asarray(counts)[:, None])     # packed order
    positions = grid_pos[rows, cols]
    mask = np.where(np.arange(width) <= grid_pos[..., None], 0.0, tk.NEG_MASK).astype(dtype)
    kv_at = (rows, positions)
    return positions, width, mask, (rows * offs.size + cols, kv_at), kv_at, (rows.size,)


def run_block(w: Weights, tokens: Sequence[int], cache: KVCache,
              tap: Optional[TapFn] = None,
              row_lens: Optional[Sequence[int]] = None,
              cache_only: bool = False) -> Optional[Tensor]:
    """Causal forward over a packed block of tokens appended after the
    history of each cache row.

    tokens holds each row's block in turn, with no padding; row_lens[b] of
    them go to cache row b (by default all of them go to row 0). Returns
    the post-final-norm hidden states [N, hidden_dim] in the same packed
    order and appends exactly one K/V position per token per layer to its
    row, written into the cache before each layer attends over it. History
    entries already in the cache enter attention as constants, so no
    gradient can flow into them; a row never attends to another row.
    With cache_only, the block only fills the cache: the pass stops once
    the last layer has written its K/V, and returns None.
    The optional tap observes (layer, point, activation) at the three
    channel-scoring points: "pre_attn", "pre_ffn", "ffn_inner".
    """
    cfg = w.config
    if cache.geometry != cache_shape(cfg):
        raise ConfigError(
            f"cache geometry {cache.geometry} does not match model {cache_shape(cfg)}")
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise DataError("token block must be non-empty")
    # One token is checked as a Python int: numpy's reductions cost more there.
    bounds = ids.tolist() if ids.size == 1 else (ids.min(), ids.max())
    if min(bounds) < 0 or max(bounds) >= cfg.vocab_size:
        raise DataError(f"token id out of range for vocab {cfg.vocab_size}")
    n_rows = len(cache.row_lens)
    if row_lens is None:
        counts = [ids.size] + [0] * (n_rows - 1)
    else:
        counts = [int(c) for c in row_lens]
        if len(counts) != n_rows or min(counts) < 0 or sum(counts) != ids.size:
            raise DataError(f"row lengths {counts} do not split {ids.size} tokens "
                            f"over {n_rows} cache rows")

    dh = cfg.head_dim
    last = len(w.layers) - 1
    history = cache.append_block(counts)
    positions, width, mask, slots, kv_at, kv_lead = _row_layout(
        history, counts, w.token_embedding.dtype)
    kv_shape = kv_lead + (cfg.n_kv_heads, dh)
    try:
        rot = tk.rope_factors(positions, dh, cfg.rope_theta, w.token_embedding.dtype)
        x = tk.embedding(w.token_embedding, ids)
        for li, lw in enumerate(w.layers):
            h = tk.rms_norm(x, lw.attn_norm_gamma, cfg.norm_eps)
            if tap is not None:
                tap(li, "pre_attn", h.data)
            # q before k and v: a taped block sums h's gradients in the reverse of
            # this order, so another order would change the trained weights' bits.
            stop = cache_only and li == last   # the pass ends at this layer's K/V
            q = None if stop else tk.rope_rows(tk.matmul(h, lw.w_q), rot)
            k = tk.rope_rows(tk.matmul(h, lw.w_k), rot)
            v = tk.matmul(h, lw.w_v)
            keys, values = cache.block_view(li, width)
            keys[kv_at] = k.data.reshape(kv_shape)
            values[kv_at] = v.data.reshape(kv_shape)
            if stop:
                return None
            mixed = tk.attend(q, k, v, keys, values, cfg.n_heads, cfg.n_kv_heads, dh,
                              mask=mask, slots=slots)
            x = tk.add(x, tk.matmul(mixed, lw.w_o))

            hf = tk.rms_norm(x, lw.ffn_norm_gamma, cfg.norm_eps)
            if tap is not None:
                tap(li, "pre_ffn", hf.data)
            inner = tk.mul(tk.silu(tk.matmul(hf, lw.w_gate)), tk.matmul(hf, lw.w_up))
            if tap is not None:
                tap(li, "ffn_inner", inner.data)
            x = tk.add(x, tk.matmul(inner, lw.w_down))
    except BaseException:
        cache.row_lens = history  # a failed block leaves the cache as it was
        raise
    return tk.rms_norm(x, w.final_norm_gamma, cfg.norm_eps)


def lm_logits(w: Weights, hidden: Tensor) -> Tensor:
    """Project hidden states [T, hidden_dim] to vocabulary logits [T, vocab]."""
    if w.lm_head is not None:
        return tk.matmul(hidden, w.lm_head)
    return tk.matmul_nt(hidden, w.token_embedding)


def forward_prefill(w: Weights, tokens: Sequence[int], cache: KVCache) -> KVCache:
    """Parallel pass over a prompt that fills an empty cache and returns it.

    Only the cache is written: the pass stops after the last layer's K/V
    (run_block's cache_only), since the decoder makes the first token.
    """
    if cache.filled_len != 0:
        raise ValueError(f"forward_prefill requires an empty cache, filled_len={cache.filled_len}")
    run_block(w, tokens, cache, cache_only=True)
    return cache


def decode_step(w: Weights, token: int, cache: KVCache,
                position: int) -> tuple[Tensor, KVCache]:
    """Process one token at an absolute position, appending one cache row per layer."""
    if position != cache.filled_len:
        raise ValueError(
            f"decode position {position} != cache filled_len {cache.filled_len}")
    logits = lm_logits(w, run_block(w, [token], cache))
    return tk.reshape(logits, (w.config.vocab_size,)), cache
