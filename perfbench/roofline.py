"""Roofline predictions for the benchmark's geometries on this machine.

    python3 perfbench/roofline.py

Measures a HardwareSpec here (single-thread float32 GEMM rate and the
bandwidth of a large array copy), then prints perfmodel.roofline_estimate
for each workload and mode: prefill time for the workload's prompt and
decode time per token. Compare them with the measured ttft_ms.p50 and
itl_ms.p50 of run.py.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np

from overfill.perfmodel import HardwareSpec, roofline_estimate
from overfill.pruner import compute_pruned_dims

from workloads import PRUNE, WORKLOADS


def best_of(fn, repeats=7) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def measure_hardware() -> HardwareSpec:
    n = 1024
    a = np.random.default_rng(0).random((n, n), dtype=np.float32)
    flops = 2.0 * n ** 3 / best_of(lambda: a @ a)
    src = np.ones(32 * 1024 * 1024, dtype=np.float32)     # 128 MiB
    dst = np.empty_like(src)
    # A copy reads and writes every byte.
    bandwidth = 2.0 * src.nbytes / best_of(lambda: np.copyto(dst, src))
    return HardwareSpec(peak_flops=flops, mem_bandwidth=bandwidth, bytes_per_param=4)


def main() -> int:
    hw = measure_hardware()
    print(f"measured: {hw.peak_flops / 1e9:.1f} GFLOP/s float32 GEMM, "
          f"{hw.mem_bandwidth / 1e9:.1f} GB/s copy bandwidth, one thread")
    print(f"{'workload':9s} {'mode':9s} {'prompt':>6s} {'prefill_ms':>11s} {'decode_ms/tok':>14s}")
    for wl in WORKLOADS.values():
        cfg = wl.config
        d, i = compute_pruned_dims(cfg.hidden_dim, cfg.intermediate_dim, PRUNE)
        pruned = cfg.__class__(**{**cfg.to_dict(), "hidden_dim": d, "intermediate_dim": i})
        prompt = wl.prompt_len or 40
        for mode in ("overfill", "full", "pruned"):
            r = roofline_estimate(hw, cfg, pruned, prompt - 1, wl.new_tokens, 1, mode,
                                  include_secondary=True)
            print(f"{wl.name:9s} {mode:9s} {prompt:6d} {r.prefill_s * 1e3:11.3f} "
                  f"{r.decode_s / wl.new_tokens * 1e3:14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
