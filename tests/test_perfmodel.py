import csv
import dataclasses

import pytest

from overfill.errors import ConfigError
from overfill.model import DESK_CONFIG, init_model
from overfill.perfmodel import (CostReport, HardwareSpec, bench_wallclock, param_count,
                                reference_geometry, roofline_estimate, write_cost_csv)

from helpers import TINY_CONFIG

PRUNED = dataclasses.replace(TINY_CONFIG, hidden_dim=4, intermediate_dim=6)
HW = HardwareSpec(peak_flops=1e12, mem_bandwidth=1e11, bytes_per_param=4)


def test_bench_wallclock_measures_batch_one_only():
    # Rows would run one after another, each reloading the weights, while
    # roofline_estimate charges one reload per step for the whole batch.
    w = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(ConfigError, match="batch"):
        bench_wallclock(w, w, prompt_len=4, gen_len=2, batch=2, mode="full",
                        repeats=1, warmups=0)
    report = bench_wallclock(w, w, prompt_len=4, gen_len=2, batch=1, mode="overfill",
                             repeats=2, warmups=0)
    assert report.batch == 1 and report.prefill_s > 0 and report.decode_s > 0


def test_bench_wallclock_needs_a_decode_step():
    # engine.decode always runs the last prompt token through the decoder.
    w = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(ConfigError, match="gen_len"):
        bench_wallclock(w, w, prompt_len=4, gen_len=0, batch=1, mode="full",
                        repeats=1, warmups=0)


@pytest.mark.parametrize("cfg, count", [
    (DESK_CONFIG, 262_976),
    (dataclasses.replace(DESK_CONFIG, hidden_dim=32, intermediate_dim=128), 82_336),  # p = 0.5
    # The published parameter counts of these Llama models.
    (reference_geometry("llama32_1b"), 1_235_814_400),
    (reference_geometry("llama32_3b"), 3_212_749_824),
    (reference_geometry("llama31_8b"), 8_030_261_248),
])
def test_param_count_known_values(cfg, count):
    assert param_count(cfg) == count


@pytest.mark.parametrize("mode, pre, dec", [("full", TINY_CONFIG, TINY_CONFIG),
                                            ("pruned", PRUNED, PRUNED),
                                            ("overfill", TINY_CONFIG, PRUNED)])
def test_roofline_closed_form(mode, pre, dec):
    # M=16, N=8, batch 2: prefill is 2*P*M*B FLOPs at peak; each decode step
    # reloads the decoder's bytes once (memory-bound at this batch).
    r = roofline_estimate(HW, TINY_CONFIG, PRUNED, 16, 8, 2, mode)
    p_pre, p_dec = param_count(pre), param_count(dec)
    assert (r.prefill_params, r.decode_params) == (p_pre, p_dec)
    assert r.prefill_s == pytest.approx(2 * p_pre * 16 * 2 / 1e12, rel=1e-12)
    assert r.decode_s == pytest.approx(8 * p_dec * 4 / 1e11, rel=1e-12)
    assert r.total_s == r.prefill_s + r.decode_s


def test_roofline_secondary_terms_closed_form():
    # TINY_CONFIG: 2 layers, attention width 8, 1 kv head of dim 4.
    r = roofline_estimate(HW, TINY_CONFIG, PRUNED, 16, 8, 2, "overfill",
                          include_secondary=True)
    p_pre, p_dec = param_count(TINY_CONFIG), param_count(PRUNED)
    mean_hist = 16 + 7 / 2
    assert r.prefill_s == pytest.approx(
        (2 * p_pre * 16 * 2 + 2 * 2 * 8 * 16 * 16 * 2) / 1e12, rel=1e-12)
    step_bytes = p_dec * 4 + 2 * 2 * 1 * 4 * mean_hist * 2 * 4
    assert r.decode_s == pytest.approx(8 * step_bytes / 1e11, rel=1e-12)


def test_roofline_decode_turns_compute_bound_with_batch():
    # Per step: bytes/bandwidth = 4P/1e11, FLOPs/peak = 2PB/1e12; they cross at B = 20.
    p_dec = param_count(PRUNED)
    for batch, bound in ((10, 4 * p_dec / 1e11), (40, 2 * p_dec * 40 / 1e12)):
        r = roofline_estimate(HW, TINY_CONFIG, PRUNED, 16, 8, batch, "pruned")
        assert r.decode_s == pytest.approx(8 * bound, rel=1e-12)
    assert roofline_estimate(HW, TINY_CONFIG, PRUNED, 16, 0, 1, "full").decode_s == 0.0


def test_cost_csv_keeps_the_measured_spread(tmp_path):
    path = tmp_path / "bench.csv"
    write_cost_csv(path, [CostReport("overfill", 64, 32, 1, 0.5, 0.25, 100, 40,
                                     prefill_sd=0.01, decode_sd=0.002)])
    rows = list(csv.DictReader(open(path, newline="")))
    assert rows == [{"mode": "overfill", "M": "64", "N": "32", "batch": "1",
                     "prefill_s": "0.5", "decode_s": "0.25", "total_s": "0.75",
                     "params": "40", "prefill_sd": "0.01", "decode_sd": "0.002"}]
