"""In-process A/B of serving latency between this tree and another checkout.

    python3 tools/ab_serving.py <other-checkout> <workload> <rounds>

Both trees' `overfill` packages are loaded into one process: this tree's
from src/, the other's copied from <other-checkout>/src/overfill into a
temporary directory under another package name. One set of weights (the
benchmark workload's full model and its pruned decoder, made by this tree)
is handed to both. Each round serves one benchmark prompt in every mode
through both trees, and which tree goes first alternates from round to
round, so a slow stretch of the machine lands on both alike.

Prints, per mode, the TTFT and ITL medians of each tree, their ratio
(this / other), and the median over rounds of the ratio within a round,
which pairs requests served moments apart and so follows the code more
than the machine's drift; then whether both trees emitted the same tokens
from the same logits bytes on every request.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import importlib
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import overfill
from overfill.corpus import pack_calibration_batches
from overfill.model import init_model
from overfill.pruner import prune_pipeline

import workloads as W

OTHER = "overfill_other"
SEED = 11  # of the weights and prompts, as perfbench/prepare.py makes them for that seed


def load_other(checkout: Path, tmp: Path):
    """The other tree's overfill package, imported as OTHER."""
    shutil.copytree(checkout / "src" / "overfill", tmp / OTHER)
    sys.path.insert(0, str(tmp))
    return {m: importlib.import_module(f"{OTHER}.{m}") for m in ("engine", "model", "tensor")}


def this_tree():
    return {m: importlib.import_module(f"overfill.{m}") for m in ("engine", "model", "tensor")}


def port(w, tree):
    """The weights `w` as the Weights class of `tree`, frozen, sharing no array."""
    md = tree["model"]
    cfg = md.ModelConfig.from_dict(w.config.to_dict())
    out = md.Weights.build(cfg, lambda name, _: tree["tensor"].Tensor(w.tensor(name).data.copy()))
    return out.freeze()


class Clock:
    """Stands in for a tree's engine.sample; notes emit times and logits bytes."""

    def __init__(self, sample):
        self.sample = sample
        self.times: list[float] = []
        self.logits: list[bytes] = []

    def __call__(self, logits, temperature, rng):
        tok = self.sample(logits, temperature, rng)
        self.times.append(perf_counter())
        self.logits.append(logits.numpy().tobytes())
        return tok


def serve(tree, full, pruned, mode, prompt, params):
    en = tree["engine"]
    clock = en.sample
    clock.times.clear()
    clock.logits.clear()
    t0 = perf_counter()
    if mode == "overfill":
        out = en.overfill_generate(full, pruned, prompt, params)
    else:
        out = en.baseline_generate(full if mode == "full" else pruned, prompt, params)
    times = clock.times
    return out, list(clock.logits), times[0] - t0, np.diff(times)


def main(argv) -> int:
    if (len(argv) != 3 or argv[1] not in W.WORKLOADS or not argv[2].isdigit()
            or int(argv[2]) < 1):
        print(f"usage: python3 tools/ab_serving.py <other-checkout> "
              f"<{'|'.join(W.WORKLOADS)}> <rounds>", file=sys.stderr)
        return 2
    other_root, name, rounds = Path(argv[0]).resolve(), argv[1], int(argv[2])
    wl = W.WORKLOADS[name]
    full = init_model(wl.config, SEED)
    calib = pack_calibration_batches(W.examples(SEED + 101, 64), W.TOK, W.PRUNE.calib_batches,
                                     W.PRUNE.calib_rows, W.PRUNE.calib_seq_len)
    pruned = prune_pipeline(full, calib, W.PRUNE)[0]
    prompts = W.serving_prompts(wl, SEED, min(rounds, wl.max_rounds))

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"this": this_tree(), "other": load_other(other_root, Path(tmp))}
        models, params = {}, {}
        for label, tree in trees.items():
            tree["engine"].sample = Clock(tree["engine"].sample)
            models[label] = (port(full, tree), port(pruned, tree))
            params[label] = tree["engine"].GenParams(max_new_tokens=wl.new_tokens)
        print(f"this: {Path(overfill.__file__).parent}\nother: {other_root / 'src' / 'overfill'}")
        del full, pruned

        ttft = {(t, m): [] for t in trees for m in W.MODES}
        itl = {(t, m): [] for t in trees for m in W.MODES}
        paired = {(metric, m): [] for metric in ("ttft", "itl") for m in W.MODES}
        same_tokens = same_logits = True
        order = list(trees)
        for label in order:   # one untimed request per mode, for first-call costs
            for mode in W.MODES:
                serve(trees[label], *models[label], mode, prompts[0], params[label])
        gc.freeze()
        for r in range(rounds):
            prompt = prompts[r % len(prompts)]
            runs = {}
            for label in (order if r % 2 == 0 else order[::-1]):
                for mode in W.MODES:
                    runs[label, mode] = serve(trees[label], *models[label], mode, prompt,
                                              params[label])
            for mode in W.MODES:
                a, b = runs["this", mode], runs["other", mode]
                same_tokens &= a[0] == b[0]
                same_logits &= a[1] == b[1]
                for label, run in (("this", a), ("other", b)):
                    ttft[label, mode].append(run[2])
                    itl[label, mode].extend(run[3])
                paired["ttft", mode].append(a[2] / b[2])
                paired["itl", mode].append(np.median(a[3]) / np.median(b[3]))
        for label in trees:
            trees[label]["engine"].sample = trees[label]["engine"].sample.sample

    print(f"workload {name}, {rounds} rounds, {wl.new_tokens} tokens per request")
    print(f"{'mode':<9} {'metric':<7} {'this ms':>10} {'other ms':>10} {'ratio':>7} {'paired':>7}")
    for mode in W.MODES:
        for metric, table in (("ttft", ttft), ("itl", itl)):
            a = np.median(table["this", mode]) * 1e3
            b = np.median(table["other", mode]) * 1e3
            pair = np.median(paired[metric, mode])
            print(f"{mode:<9} {metric:<7} {a:10.4f} {b:10.4f} {a / b:7.3f} {pair:7.3f}")
    print(f"tokens identical: {same_tokens}")
    print(f"logits bytes identical: {same_logits}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
