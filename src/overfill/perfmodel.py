"""Parameter counting, analytic roofline latency, and wall-clock benchmarks.

The roofline treats prefill as compute-bound (2 * params FLOPs per token,
parallel over the prompt) and decode as the max of weight-reload time and
compute time per generated token; growing the batch moves decode from the
memory-bound to the compute-bound side of that max.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model import KVCache, ModelConfig, Weights, cache_shape, forward_prefill, decode_step

MODES = ("full", "pruned", "overfill")


@dataclass(frozen=True)
class HardwareSpec:
    peak_flops: float = 312e12        # accelerator-class tensor throughput
    mem_bandwidth: float = 2.039e12   # bytes/s
    bytes_per_param: int = 4          # f32

    def validate(self) -> "HardwareSpec":
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0 or self.bytes_per_param <= 0:
            raise ConfigError("hardware spec values must be positive")
        return self


@dataclass
class CostReport:
    mode: str
    prompt_len: int
    gen_len: int
    batch: int
    prefill_s: float
    decode_s: float
    prefill_params: int
    decode_params: int
    prefill_sd: float = 0.0
    decode_sd: float = 0.0

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s


def param_count(cfg: ModelConfig) -> int:
    """Learnable scalars for a config: embeddings (once when tied), per-layer
    attention projections with GQA geometry, the gated FFN, and the norms."""
    cfg.validate()
    d, da, dkv, i = cfg.hidden_dim, cfg.attn_dim, cfg.kv_dim, cfg.intermediate_dim
    per_layer = (d * da + 2 * d * dkv + da * d) + 3 * d * i + 2 * d
    total = cfg.vocab_size * d + cfg.n_layers * per_layer + d
    if not cfg.tied_embeddings:
        total += d * cfg.vocab_size
    return total


def _pick(full, pruned, mode: str):
    """(prefill, decode) member of a (full, pruned) pair of configs or weights."""
    if mode == "full":
        return full, full
    if mode == "pruned":
        return pruned, pruned
    if mode == "overfill":
        return full, pruned
    raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")


def roofline_estimate(hw: HardwareSpec, full_cfg: ModelConfig,
                      pruned_cfg: ModelConfig, prompt_len: int, gen_len: int,
                      batch: int, mode: str,
                      include_secondary: bool = False) -> CostReport:
    """Analytic latency: prefill_s = 2 * P_prefill * M * batch / peak_flops;
    decode_s = N * max(bytes / bandwidth, 2 * P_decode * batch / peak_flops).

    include_secondary adds KV-cache read traffic (at the mean history length)
    and attention score FLOPs as secondary terms.
    """
    hw.validate()
    if prompt_len <= 0 or gen_len < 0 or batch <= 0:
        raise ConfigError("prompt_len and batch must be positive, gen_len >= 0")
    pre_cfg, dec_cfg = _pick(full_cfg, pruned_cfg, mode)
    p_pre, p_dec = param_count(pre_cfg), param_count(dec_cfg)

    prefill_flops = 2.0 * p_pre * prompt_len * batch
    if include_secondary:
        # Causal attention scores + value mix: 2 * 2 * D_attn * T^2 / 2 per layer.
        prefill_flops += (2.0 * pre_cfg.n_layers * pre_cfg.attn_dim
                          * prompt_len * prompt_len * batch)
    prefill_s = prefill_flops / hw.peak_flops

    if gen_len == 0:
        return CostReport(mode, prompt_len, gen_len, batch, prefill_s, 0.0,
                          p_pre, p_dec)

    step_bytes = float(p_dec) * hw.bytes_per_param
    step_flops = 2.0 * p_dec * batch
    if include_secondary:
        layers, kv_heads, head_dim = cache_shape(dec_cfg)
        mean_hist = prompt_len + (gen_len - 1) / 2.0
        step_bytes += (2.0 * layers * kv_heads * head_dim * mean_hist
                       * batch * hw.bytes_per_param)
        step_flops += 4.0 * layers * dec_cfg.attn_dim * mean_hist * batch
    decode_s = gen_len * max(step_bytes / hw.mem_bandwidth,
                             step_flops / hw.peak_flops)
    return CostReport(mode, prompt_len, gen_len, batch, prefill_s, decode_s,
                      p_pre, p_dec)


def bench_wallclock(full_w: Weights, pruned_w: Weights, prompt_len: int,
                    gen_len: int, batch: int, mode: str, repeats: int = 10,
                    warmups: int = 2, seed: int = 0) -> CostReport:
    """Measure this implementation's prefill and decode phases separately.

    Every mode prefills prompt_len - 1 tokens and then runs gen_len decode
    steps starting from the final prompt token, greedy-fed. Reported times
    are means over `repeats` timed runs after `warmups` untimed ones. Only
    batch 1 is measured: the forward runs one sequence at a time, so a
    larger batch would reload the weights per row, unlike roofline_estimate.
    """
    prefill_w, decode_w = _pick(full_w, pruned_w, mode)
    if repeats <= 0 or warmups < 0:
        raise ConfigError("repeats must be positive and warmups >= 0")
    if batch != 1:
        raise ConfigError(f"bench_wallclock measures batch 1 only, got batch {batch}")
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, prefill_w.config.vocab_size, size=prompt_len, dtype=np.int64)

    def one_run():
        t0 = time.perf_counter()
        cache = KVCache.for_config(prefill_w.config, dtype=prefill_w.token_embedding.dtype)
        forward_prefill(prefill_w, prompt[:-1], cache)
        t1 = time.perf_counter()
        tok = int(prompt[-1])
        for _ in range(gen_len):
            logits, _ = decode_step(decode_w, tok, cache, cache.filled_len)
            tok = int(np.argmax(logits.numpy()))
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    for _ in range(warmups):
        one_run()
    times = np.array([one_run() for _ in range(repeats)])
    return CostReport(mode, prompt_len, gen_len, batch,
                      float(times[:, 0].mean()), float(times[:, 1].mean()),
                      param_count(prefill_w.config), param_count(decode_w.config),
                      prefill_sd=float(times[:, 0].std()),
                      decode_sd=float(times[:, 1].std()))


CSV_HEADER = ["mode", "M", "N", "batch", "prefill_s", "decode_s", "total_s", "params",
              "prefill_sd", "decode_sd"]


def write_cost_csv(path, reports: Sequence[CostReport]) -> None:
    """One row per sweep point; params is the decode-model parameter count,
    and the *_sd columns the spread over measured repeats (0 for estimates)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([r.mode, r.prompt_len, r.gen_len, r.batch,
                             f"{r.prefill_s:.8g}", f"{r.decode_s:.8g}",
                             f"{r.total_s:.8g}", r.decode_params,
                             f"{r.prefill_sd:.8g}", f"{r.decode_sd:.8g}"])


def reference_geometry(name: str) -> ModelConfig:
    """Load a bundled released-model geometry by short name, e.g. 'llama32_3b'."""
    try:
        text = (resources.files("overfill") / "refdata" / f"{name}.json").read_text()
    except FileNotFoundError as exc:
        raise DataError(f"unknown reference geometry {name!r}") from exc
    return ModelConfig.from_dict(json.loads(text))


REFERENCE_GEOMETRIES = (
    "llama32_3b", "llama32_3b_p070", "llama32_3b_p045", "llama32_3b_p025",
    "llama31_8b", "llama31_8b_p043", "llama32_1b",
)
