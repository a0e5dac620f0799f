"""Tests of the benchmark itself: its declaration, what a run prints, and
that its correctness checks catch a perturbed decoder.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import workloads as W  # noqa: E402
from prepare import prepare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_form():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith("/")
        assert ".." not in p.split("/") and (ROOT / p).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chat", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.fixture(scope="module")
def bench():
    work = bench_run.OUT / f"test-{os.getpid()}"
    prepare("chat", 5, work)
    try:
        b = bench_run.Bench(W.WORKLOADS["chat"], 5, 1.0, work, traced=False)
        b.setup(1)
        yield b
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _serve(b, prompts):
    params = bench_run.en.GenParams(max_new_tokens=b.wl.new_tokens)
    b.prompts = prompts
    b.served = [{"mode": mode, "round": i, "out": b.generate(mode, p, params)}
                for i, p in enumerate(prompts) for mode in W.MODES]


def _perturbed(b):
    """The decoder with one weight changed: final-norm scale 0 set to 50."""
    gamma = b.pruned.final_norm_gamma.data
    saved = gamma[0]
    gamma[0] = 50.0
    try:
        yield
    finally:
        gamma[0] = saved


def test_serving_check_fails_on_one_perturbed_decoder_weight(bench):
    prompts = W.serving_prompts(bench.wl, 5, 2)
    models = bench.reference_models()
    bench.ops.clear()
    _serve(bench, prompts)
    bench.check_serving(models)
    assert bench.ops["serve"] == [6, 0]

    bench.ops.clear()
    with contextmanager(_perturbed)(bench):
        _serve(bench, prompts)
    bench.check_serving(models)
    # Overfill and pruned requests decode with the perturbed weights; full does not.
    assert bench.ops["serve"] == [6, 4]


def test_training_check_fails_on_one_perturbed_decoder_weight(bench):
    models = bench.reference_models()
    bench.ops.clear()
    bench.trained = []
    next(bench.training())
    bench.check_training(models)
    assert bench.ops["train"] == [1, 0]
    assert bench.full.checksum() == bench.frozen_checksum

    bench.ops.clear()
    bench.trained = []
    with contextmanager(_perturbed)(bench):
        next(bench.training())
    bench.check_training(models)
    assert bench.ops["train"] == [1, 1]


def _accounting(work, slow_call=False):
    """The accounting check on four traced chat requests."""
    b = bench_run.Bench(W.WORKLOADS["chat"], 5, 1.0, work, traced=True)
    b.setup(1)
    make_rng = bench_run.en.make_rng
    if slow_call:
        # A call the engine makes that no span wraps, slowed down.
        def slow_make_rng(seed):
            time.sleep(0.02)
            return make_rng(seed)
        bench_run.en.make_rng = slow_make_rng
    try:
        serving = b.serving(None, W.serving_prompts(b.wl, 5, 4))
        for _ in range(4):
            next(serving)
    finally:
        bench_run.en.make_rng = make_rng
    reqs = {f"overfill-{r['round']}" for r in b.served}
    b.accounting(bench_run.SpanStats(b.tracer.spans), reqs)
    return b.ops["accounting"]


def test_accounting_check_fails_on_one_unwrapped_slow_call(bench):
    assert _accounting(bench.work) == [1, 0]
    assert _accounting(bench.work, slow_call=True) == [1, 1]
