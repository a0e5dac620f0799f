"""Parameter counting and analytic roofline latency.

The roofline treats prefill as compute-bound (2 * params FLOPs per token,
parallel over the prompt) and decode as the max of weight-reload time and
compute time per generated token; growing the batch moves decode from the
memory-bound to the compute-bound side of that max.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .engine import _pick
from .errors import ConfigError, DataError
from .model import ModelConfig, cache_shape, check_handoff, tensor_shape, tensor_table


@dataclass(frozen=True)
class HardwareSpec:
    peak_flops: float = 312e12        # accelerator-class tensor throughput
    mem_bandwidth: float = 2.039e12   # bytes/s
    bytes_per_param: int = 4          # f32

    def __post_init__(self):
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0 or self.bytes_per_param <= 0:
            raise ConfigError("hardware spec values must be positive")


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

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s


def param_count(cfg: ModelConfig) -> int:
    """Learnable scalars of a model of this config: the sizes of its tensor table."""
    return sum(math.prod(tensor_shape(cfg, axes)) for _, axes in tensor_table(cfg))


def roofline_estimate(hw: HardwareSpec, full_cfg: ModelConfig,
                      pruned_cfg: ModelConfig, prompt_len: int, gen_len: int,
                      batch: int, mode: str,
                      include_secondary: bool = False) -> CostReport:
    """Analytic latency: prefill_s = 2 * P_prefill * M * batch / peak_flops;
    decode_s = N * max(bytes / bandwidth, 2 * P_decode * batch / peak_flops).

    include_secondary adds KV-cache read traffic (at the mean history length)
    and attention score FLOPs as secondary terms.
    """
    if prompt_len <= 0 or gen_len < 0 or batch <= 0:
        raise ConfigError("prompt_len and batch must be positive, gen_len >= 0")
    check_handoff(full_cfg, pruned_cfg)
    pre_cfg, dec_cfg = _pick(full_cfg, pruned_cfg, mode)
    p_pre, p_dec = param_count(pre_cfg), param_count(dec_cfg)

    prefill_flops = 2.0 * p_pre * prompt_len * batch
    if include_secondary:
        # Causal attention scores + value mix: 2 * 2 * D_attn * T^2 / 2 per layer.
        prefill_flops += (2.0 * pre_cfg.n_layers * pre_cfg.attn_dim
                          * prompt_len * prompt_len * batch)
    prefill_s = prefill_flops / hw.peak_flops

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


CSV_HEADER = ["mode", "M", "N", "batch", "prefill_s", "decode_s", "total_s", "params"]


def write_cost_csv(path, reports: Sequence[CostReport]) -> None:
    """One row per sweep point; params is the decode-model parameter count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([r.mode, r.prompt_len, r.gen_len, r.batch,
                             f"{r.prefill_s:.8g}", f"{r.decode_s:.8g}",
                             f"{r.total_s:.8g}", r.decode_params])


_REFDATA = resources.files("overfill") / "refdata"


def reference_geometries() -> tuple[str, ...]:
    """Short names of the bundled released-model geometries."""
    return tuple(sorted(f.name.removesuffix(".json") for f in _REFDATA.iterdir()
                        if f.name.endswith(".json")))


def reference_geometry(name: str) -> ModelConfig:
    """Load a bundled released-model geometry by short name, e.g. 'llama32_3b'."""
    if name not in reference_geometries():
        raise DataError(f"unknown reference geometry {name!r}")
    return ModelConfig.from_dict(json.loads((_REFDATA / f"{name}.json").read_text()))
