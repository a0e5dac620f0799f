import csv
import dataclasses
import json

import pytest

from overfill import cli
from overfill.errors import DataError
from overfill.model import DESK_CONFIG, check_handoff
from overfill.perfmodel import (CostReport, HardwareSpec, param_count, reference_geometries,
                                reference_geometry, roofline_estimate, write_cost_csv)
from overfill.pruner import PruneConfig, compute_pruned_dims

from helpers import TINY_CONFIG

PRUNED = dataclasses.replace(TINY_CONFIG, hidden_dim=4, intermediate_dim=6)
HW = HardwareSpec(peak_flops=1e12, mem_bandwidth=1e11, bytes_per_param=4)


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


@pytest.mark.parametrize("name", reference_geometries())
def test_every_reference_geometry_loads_and_each_pruned_one_fits_its_parent(name):
    cfg = reference_geometry(name)
    d, i = compute_pruned_dims(cfg.hidden_dim, cfg.intermediate_dim, PruneConfig(0.45, 0.45))
    pruned = dataclasses.replace(cfg, hidden_dim=d, intermediate_dim=i)
    check_handoff(cfg, pruned)
    assert param_count(pruned) < param_count(cfg)


def test_reference_geometries_include_the_papers_pairings(tmp_path):
    # 3B-to-1B and 8B-to-3B: the prune ratios cut each parent to a decoder
    # near the smaller released model.
    assert reference_geometries() == ("llama31_8b", "llama32_1b", "llama32_3b")
    run = tmp_path / "run.json"
    for parent, ratio, params in (("llama32_3b", 0.45, 1_243_288_101),
                                  ("llama31_8b", 0.43, 3_194_482_782)):
        run.write_text(json.dumps({"prune": {"p_hidden": ratio, "p_intermediate": ratio},
                                   "bench": {"roofline_full_geometry": parent}}))
        assert cli.main(["roofline", "--config", str(run), "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(open(tmp_path / "roofline.csv", newline="")))
        assert {r["params"] for r in rows if r["mode"] == "overfill"} == {str(params)}
    with pytest.raises(DataError, match="unknown reference geometry"):
        reference_geometry("llama32_3b_p045")


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


def test_cost_csv_columns(tmp_path):
    path = tmp_path / "roofline.csv"
    write_cost_csv(path, [CostReport("overfill", 64, 32, 1, 0.5, 0.25, 100, 40)])
    rows = list(csv.DictReader(open(path, newline="")))
    assert rows == [{"mode": "overfill", "M": "64", "N": "32", "batch": "1",
                     "prefill_s": "0.5", "decode_s": "0.25", "total_s": "0.75",
                     "params": "40"}]
