"""Calibration-driven channel scoring and weight slicing.

Hidden channels are scored globally (one index set shared by every layer,
the embeddings, and the norms) because the residual stream couples them
across layers; FFN intermediate channels are scored per layer. Slicing is
value-preserving: every retained scalar equals the corresponding entry of
the full model, and the attention geometry (and hence the KV cache shape)
is never touched. Calibration keeps only float64 sums of squared
activations, so its memory does not grow with the calibration set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_ranges, check_types
from .model import KVCache, ModelConfig, Weights, run_block
from .tensor import Tensor


@dataclass(frozen=True)
class PruneConfig:
    p_hidden: float
    p_intermediate: float
    calib_batches: int = 8
    calib_rows: int = 16
    calib_seq_len: int = 128

    def __post_init__(self):
        check_types(self)
        check_ranges(self, (("p_hidden", 0 <= self.p_hidden < 1, "in [0, 1)"),
                            ("p_intermediate", 0 <= self.p_intermediate < 1, "in [0, 1)"),
                            ("calib_batches", self.calib_batches >= 1, ">= 1"),
                            ("calib_rows", self.calib_rows >= 1, ">= 1"),
                            ("calib_seq_len", self.calib_seq_len >= 1, ">= 1")))


@dataclass
class ActivationStats:
    """Sums of squared activations at the three per-layer scoring points.

    Each list has one float64 [seq, channels] array per layer: the sum over
    every calibration row, added one row at a time in collection order.
    """
    pre_attn: list[np.ndarray]
    pre_ffn: list[np.ndarray]
    ffn_inner: list[np.ndarray]


@dataclass
class ImportanceScores:
    hidden_scores: np.ndarray          # [hidden_dim], global across layers
    inter_scores: list[np.ndarray]     # per layer [intermediate_dim]


@dataclass
class ChannelSelection:
    hidden_idx: np.ndarray             # sorted, strictly increasing
    inter_idx: list[np.ndarray]        # per layer, sorted
    provenance: dict = field(default_factory=dict)

    def validate_for(self, config: ModelConfig) -> "ChannelSelection":
        def check(idx, limit, what):
            idx = np.asarray(idx)
            if idx.ndim != 1 or idx.size < 1:
                raise ConfigError(f"{what}: selection must be a non-empty 1-D index list")
            if not np.all(np.diff(idx) > 0):
                raise ConfigError(f"{what}: indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= limit:
                raise ConfigError(f"{what}: index out of range [0, {limit})")

        check(self.hidden_idx, config.hidden_dim, "hidden_idx")
        if len(self.inter_idx) != config.n_layers:
            raise ConfigError(
                f"inter_idx has {len(self.inter_idx)} layers, model has {config.n_layers}")
        for li, idx in enumerate(self.inter_idx):
            check(idx, config.intermediate_dim, f"inter_idx[{li}]")
        return self

    def save(self, path) -> None:
        """Write the selection as canonical JSON: the record of what was kept."""
        doc = {
            "hidden_idx": [int(i) for i in self.hidden_idx],
            "inter_idx": [[int(i) for i in idx] for idx in self.inter_idx],
            "provenance": self.provenance,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def identity_selection(config: ModelConfig) -> ChannelSelection:
    """Keep every channel; slicing with this reproduces the model exactly."""
    return ChannelSelection(
        hidden_idx=np.arange(config.hidden_dim, dtype=np.int64),
        inter_idx=[np.arange(config.intermediate_dim, dtype=np.int64)
                   for _ in range(config.n_layers)],
        provenance={"identity": True},
    )


def compute_pruned_dims(hidden_dim: int, intermediate_dim: int,
                        cfg: PruneConfig) -> tuple[int, int]:
    """Retained widths: floor((1 - ratio) * dim)."""
    d_kept = math.floor((1.0 - cfg.p_hidden) * hidden_dim)
    i_kept = math.floor((1.0 - cfg.p_intermediate) * intermediate_dim)
    if d_kept < 1 or i_kept < 1:
        raise ConfigError(
            f"pruned dims must be >= 1, got hidden {d_kept}, intermediate {i_kept}")
    return d_kept, i_kept


def collect_activations(w: Weights, calib: Sequence[np.ndarray]) -> ActivationStats:
    """Run calibration batches through the model, tapping the three scoring
    points per layer: post attention-norm, post FFN-norm, and the gated FFN
    inner activation just before the down projection. Each tapped row is
    squared in float64 and added to its point's running sum."""
    batches = [np.asarray(b) for b in calib]
    if not batches:
        raise DataError("calibration set is empty")
    for b in batches:
        if b.ndim != 2 or b.shape[1] != batches[0].shape[1]:
            raise DataError(f"calibration batches must be [rows, seq] with the first "
                            f"batch's sequence length, got {b.shape} after {batches[0].shape}")
    cfg, seq = w.config, batches[0].shape[1]
    sums = {p: [np.zeros((seq, c)) for _ in range(cfg.n_layers)]
            for p, c in (("pre_attn", cfg.hidden_dim), ("pre_ffn", cfg.hidden_dim),
                         ("ffn_inner", cfg.intermediate_dim))}

    def tap(layer, point, act):
        total = sums[point][layer]
        for row in act.reshape((-1,) + total.shape):
            total += np.square(row, dtype=np.float64)

    for batch in batches:
        cache = KVCache.for_config(cfg, seq, dtype=w.token_embedding.dtype, rows=len(batch))
        run_block(w, batch.reshape(-1), cache, tap=tap, row_lens=[seq] * len(batch))
    return ActivationStats(**sums)


def _hook_score(sumsq: np.ndarray) -> np.ndarray:
    """L2 norm across rows, then mean across sequence positions."""
    return np.sqrt(sumsq).mean(axis=0)


def score_channels(stats: ActivationStats) -> ImportanceScores:
    if not stats.pre_attn:
        raise DataError("activation stats are empty")
    hidden = np.zeros(stats.pre_attn[0].shape[-1], dtype=np.float64)
    for pre_attn, pre_ffn in zip(stats.pre_attn, stats.pre_ffn):
        hidden += _hook_score(pre_attn) + _hook_score(pre_ffn)
    inter = [_hook_score(a) for a in stats.ffn_inner]
    return ImportanceScores(hidden_scores=hidden, inter_scores=inter)


def _top_k_sorted(scores: np.ndarray, k: int) -> np.ndarray:
    # Stable sort on negated scores: ties resolve toward the lower index.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def select_channels(scores: ImportanceScores, d_kept: int, i_kept: int) -> ChannelSelection:
    if d_kept > scores.hidden_scores.size:
        raise ConfigError(f"cannot keep {d_kept} of {scores.hidden_scores.size} hidden channels")
    for li, s in enumerate(scores.inter_scores):
        if i_kept > s.size:
            raise ConfigError(f"cannot keep {i_kept} of {s.size} channels in layer {li}")
    return ChannelSelection(
        hidden_idx=_top_k_sorted(scores.hidden_scores, d_kept),
        inter_idx=[_top_k_sorted(s, i_kept) for s in scores.inter_scores],
    )


def slice_model(w: Weights, sel: ChannelSelection,
                full_cfg: ModelConfig) -> tuple[Weights, ModelConfig]:
    """Materialize the pruned weights: keep the selected hidden channels on
    every "d" axis (projections, embedding, norms) and each layer's selected
    intermediate channels on its "i" axes. Attention width and kv geometry
    are untouched."""
    if w.config != full_cfg:
        raise ConfigError("weights do not belong to the given full config")
    sel.validate_for(full_cfg)
    h = np.asarray(sel.hidden_idx)
    inter = [np.asarray(idx) for idx in sel.inter_idx]
    pruned_cfg = replace(full_cfg, hidden_dim=int(h.size),
                         intermediate_dim=int(inter[0].size))

    def take(name, axes):
        # Every tensor has a "d" axis, so the result never aliases w.
        data = w.tensor(name).data
        for axis, tag in enumerate(axes):
            if tag == "d":
                data = np.take(data, h, axis=axis)
            elif tag == "i":
                data = np.take(data, inter[int(name.split(".")[1])], axis=axis)
        return Tensor(data)

    return Weights.build(pruned_cfg, take), pruned_cfg


def prune_pipeline(w: Weights, calib: Sequence[np.ndarray], cfg: PruneConfig,
                   provenance: Optional[dict] = None
                   ) -> tuple[Weights, ModelConfig, ChannelSelection]:
    """Calibrate, score, select, slice: the whole path from full weights to
    a cache-compatible pruned model."""
    # Reject an impossible width before the calibration pass, not after it.
    d_kept, i_kept = compute_pruned_dims(w.config.hidden_dim, w.config.intermediate_dim, cfg)
    sel = select_channels(score_channels(collect_activations(w, calib)), d_kept, i_kept)
    sel.provenance = {**(provenance or {}),
                      "p_hidden": cfg.p_hidden, "p_intermediate": cfg.p_intermediate}
    pruned, pruned_cfg = slice_model(w, sel, w.config)
    return pruned, pruned_cfg, sel
