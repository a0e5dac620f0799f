"""Run one benchmark workload against the `overfill` package in src/.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

The models are written to OVFL1 checkpoints by a child process (prepare.py)
before anything is timed. The run then loads them (set-up), serves requests
in the three modes interleaved, calibrates and prunes on packed corpus
batches, and takes overfill training steps, the phases interleaved step by
step, each for its share of --seconds. Every output is then checked against
reference.py. The last line of standard output is one JSON object: correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end ones, measured with
tracing off; with --trace 1 they are the per-layer ones from spans recorded
around the calls into each module (spans.py).
"""

from __future__ import annotations

import os

# One BLAS thread, as the overfill CLI defaults to; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

try:
    import overfill
except ImportError:
    overfill = None
if overfill is None or Path(overfill.__file__).resolve().parent.parent != SRC:
    sys.exit(f"overfill package not found under {SRC}")

import numpy as np

import overfill.checkpoint as ck
import overfill.engine as en
import overfill.pruner as pr
import overfill.trainer as tr
from overfill.model import ModelConfig, cache_shape

import reference as ref
import workloads as W
from spans import SpanStats, Tracer

POOL = 1024        # distinct calibration batches and training batches per run
TRAIN_LR = 1e-3
# The traced run's accounting check (Bench.accounting): the layers on the
# decode path, and the share of a request they may leave unattributed.
LAYERS = ("engine.", "model.", "tensor.")
UNATTRIBUTED_MAX = 0.05


class EmitClock:
    """Stands in for engine.sample and notes when each token is emitted."""

    def __init__(self, sample):
        self.sample = sample
        self.times: list[float] = []
        self.logits: list[bytes] = []
        self.keep_logits = False

    def __call__(self, logits, temperature, rng):
        tok = self.sample(logits, temperature, rng)
        self.times.append(perf_counter())
        if self.keep_logits:
            self.logits.append(logits.numpy().tobytes())
        return tok


class Bench:
    def __init__(self, wl: W.Workload, seed: int, seconds: float, work: Path, traced: bool):
        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.manifest = json.loads((work / "manifest.json").read_text())
        self.cfg = {k: ModelConfig.from_dict(v["config"]) for k, v in self.manifest.items()}
        self.tracer = Tracer() if traced else None
        self.ops: dict[str, list[int]] = {}
        self.full = self.pruned = None
        self.prompts: list = []
        self.served: list[dict] = []
        self.calibrated: list[dict] = []
        self.trained: list[dict] = []
        self.frozen_checksum = None
        self.load_times: list[float] = []

    # -- bookkeeping -------------------------------------------------------

    def count(self, phase: str, ok: bool) -> None:
        tally = self.ops.setdefault(phase, [0, 0])
        tally[0] += 1
        tally[1] += 0 if ok else 1

    def traced(self, request):
        return self.tracer.active(request) if self.tracer else nullcontext()

    # -- phases ------------------------------------------------------------

    def load(self, request: str):
        """Load both checkpoints ready to serve; time the load and check it."""
        with self.traced(request):
            t0 = perf_counter()
            full = ck.load_checkpoint(self.work / "full.ovfl", self.cfg["full"])
            pruned = ck.load_checkpoint(self.work / "pruned.ovfl", self.cfg["pruned"])
            t1 = perf_counter()
        self.load_times.append(t1 - t0)
        models = {"full": full, "pruned": pruned}
        self.count("setup", all(models[k].checksum().hex() == v["checksum"]
                                for k, v in self.manifest.items()))
        return full, pruned

    def setup(self, repeats: int) -> None:
        for i in range(repeats):
            self.full = self.pruned = None   # never hold two copies
            self.full, self.pruned = self.load(f"setup-{i}")

    def generate(self, mode: str, prompt, params):
        if mode == "overfill":
            return en.overfill_generate(self.full, self.pruned, prompt, params)
        return en.baseline_generate(self.full if mode == "full" else self.pruned,
                                    prompt, params)

    def serving(self, clock: EmitClock | None, prompts):
        """Closed loop, one client: each prompt in all three modes in turn.

        Yields after each request. Untraced, each request records its TTFT
        and inter-token gaps. Traced, only overfill requests run, each once
        untraced and once traced, so the difference is the tracing overhead.
        """
        params = en.GenParams(max_new_tokens=self.wl.new_tokens)
        for i in itertools.count():
            prompt = prompts[i % len(prompts)]
            # Rotate which mode goes first.
            turn = i % len(W.MODES)
            modes = W.MODES[turn:] + W.MODES[:turn]
            for mode in (modes if self.tracer is None else ("overfill",)):
                rec = {"mode": mode, "round": i, "out": None}
                try:
                    if clock is not None:
                        clock.times.clear()
                    t0 = perf_counter()
                    rec["out"] = self.generate(mode, prompt, params)
                    t1 = perf_counter()
                    if clock is not None:
                        rec["ttft"] = clock.times[0] - t0
                        rec["gaps"] = np.diff(clock.times)
                    else:
                        with self.traced(f"overfill-{i}"):
                            t2 = perf_counter()
                            traced_out = self.generate(mode, prompt, params)
                            t3 = perf_counter()
                        rec.update(untraced=t1 - t0, traced=t3 - t2,
                                   same=traced_out == rec["out"])
                except Exception as exc:  # a failed request is counted, not fatal
                    rec["error"] = repr(exc)
                self.served.append(rec)
                yield

    def calibration(self):
        """Collect, score, select and slice on one packed batch per step."""
        full_cfg, pruned_cfg = self.cfg["full"], self.cfg["pruned"]
        batches = W.calibration_batches(self.wl, self.seed, POOL)
        for b in itertools.count():
            batch = batches[b % POOL]
            rec = {"batch": batch}
            try:
                with self.traced(f"calib-{b}"):
                    t0 = perf_counter()
                    stats = pr.collect_activations(self.full, [batch])
                    scores = pr.score_channels(stats)
                    sel = pr.select_channels(scores, pruned_cfg.hidden_dim,
                                             pruned_cfg.intermediate_dim)
                    sliced, sliced_cfg = pr.slice_model(self.full, sel, full_cfg)
                    t1 = perf_counter()
                rec.update(rate=batch.size / (t1 - t0), scores=scores,
                           shape_ok=sliced_cfg == pruned_cfg)
                del stats, sliced
            except Exception as exc:
                rec["error"] = repr(exc)
            self.calibrated.append(rec)
            yield

    def training(self):
        """Overfill training steps: frozen full prefill, pruned decoder updated."""
        decoder = self.pruned.clone().set_requires_grad(True)
        self.full.freeze()
        self.frozen_checksum = self.full.checksum()
        opt = tr.OptState.for_weights(decoder, TRAIN_LR, 0.0, 1_000_000)
        pool = W.training_examples(self.seed, POOL * W.TRAIN_BATCH)
        for s in itertools.count():
            lo = (s % POOL) * W.TRAIN_BATCH
            rec = {}
            try:
                with self.traced(f"train-{s}"):
                    t0 = perf_counter()
                    batch = tr.build_batch(pool[lo: lo + W.TRAIN_BATCH], W.TOK,
                                           W.TRAIN_MAX_LEN)
                    _, _, loss = tr.train_step(self.full, decoder, batch, opt)
                    t1 = perf_counter()
                rec.update(rate=int(batch.row_lengths.sum()) / (t1 - t0), batch=batch,
                           loss=loss)
            except Exception as exc:
                rec["error"] = repr(exc)
            self.trained.append(rec)
            yield

    def spare_loads(self):
        """Timed checkpoint loads into a spare copy, one per step."""
        for j in itertools.count():
            self.load(f"setup-spare-{j}")
            yield

    def measure(self, clock: EmitClock | None) -> None:
        """Serve, calibrate, train and load spare checkpoints interleaved
        step by step. Each step goes to the phase whose time so far is
        furthest below its share of the run, so every phase samples the
        whole run rather than stretches of it, and a slow stretch of the
        machine moves every metric alike."""
        wl = self.wl
        prompts = W.serving_prompts(wl, self.seed, wl.max_rounds)
        self.prompts = prompts
        # One untimed request per mode, so that no timed one pays first-call
        # costs.
        for mode in W.MODES:
            self.generate(mode, prompts[0], en.GenParams(max_new_tokens=2))
        gc.freeze()   # keep the benchmark's own objects out of collections
        serving = self.serving(clock, prompts)
        phases = [(gen, share) for gen, share in zip(
            (serving, self.calibration(), self.training(), self.spare_loads()),
            wl.shares) if share > 0]
        used = [0.0] * len(phases)
        start = perf_counter()
        while perf_counter() - start < self.seconds:
            p = min(range(len(phases)), key=lambda i: used[i] / phases[i][1])
            t0 = perf_counter()
            next(phases[p][0])
            used[p] += perf_counter() - t0
        # Serve on to whole rounds, and enough of them for the tails the
        # workload reports.
        per_round = len(W.MODES) if self.tracer is None else 1
        while len(self.served) % per_round or len(self.served) < wl.min_rounds * per_round:
            next(serving)

    # -- checks ------------------------------------------------------------

    def check_identity(self, prompt) -> bool:
        """With an identity slice, overfill must equal the full baseline bit
        for bit: same tokens from the same logits bytes."""
        ident, _ = pr.slice_model(self.full, pr.identity_selection(self.cfg["full"]),
                                  self.cfg["full"])
        clock = EmitClock(en.sample)
        clock.keep_logits = True
        en.sample, saved = clock, en.sample
        try:
            params = en.GenParams(max_new_tokens=3)
            a = en.overfill_generate(self.full, ident, prompt, params)
            logits_a, clock.logits = clock.logits, []
            b = en.baseline_generate(self.full, prompt, params)
        finally:
            en.sample = saved
        return a == b and logits_a == clock.logits

    def check_serving(self, models) -> None:
        prefix_cache = {}
        for rec in self.served:
            out = rec["out"]
            ok = "error" not in rec and out is not None and len(out) == self.wl.new_tokens
            if ok and self.tracer is not None:
                ok = rec["same"]
            if ok:
                mode = rec["mode"]
                prompt = self.prompts[rec["round"] % len(self.prompts)]
                pre = "pruned" if mode == "pruned" else "full"
                dec = "full" if mode == "full" else "pruned"
                key = (pre, rec["round"])
                if key not in prefix_cache:
                    prefix_cache.clear()
                    prefix_cache[key] = ref.prefix_kv(models[pre], prompt)
                logits = ref.decode_logits(models[dec], prefix_cache[key], prompt, out)
                ok = ref.argmax_violations(logits, out) == 0
            self.count("serve", ok)

    def check_calibration(self, models) -> None:
        for rec in self.calibrated:
            ok = "error" not in rec and rec["shape_ok"]
            if ok:
                hidden, inter = ref.channel_scores(models["full"], rec["batch"])
                got = rec["scores"]
                ok = np.allclose(got.hidden_scores, hidden, rtol=ref.SCORE_RTOL, atol=0) and all(
                    np.allclose(g, r, rtol=ref.SCORE_RTOL, atol=0)
                    for g, r in zip(got.inter_scores, inter))
            self.count("calibrate", ok)

    def check_training(self, models) -> None:
        for s, rec in enumerate(self.trained):
            ok = "error" not in rec and math.isfinite(rec["loss"])
            if ok and s == 0:
                b = rec["batch"]
                rows = [(b.token_ids[i, : b.row_lengths[i]], int(b.prefill_lens[i]))
                        for i in range(b.size)]
                want = ref.masked_ce(models["full"], models["pruned"], rows)
                ok = abs(rec["loss"] - want) <= ref.LOSS_RTOL * abs(want)
            self.count("train", ok)

    def reference_models(self):
        geometry = self.manifest["full"]["config"]
        return {k: ref.ref_model(self.work / f"{k}.ovfl", geometry) for k in ("full", "pruned")}

    # -- runs --------------------------------------------------------------

    def run(self) -> dict:
        wl = self.wl
        clock = None
        if self.tracer is None:
            clock = EmitClock(en.sample)
            en.sample = clock
        walls = {}
        mark = perf_counter()

        def lap(name):
            nonlocal mark
            now = perf_counter()
            walls[name] = now - mark
            mark = now

        try:
            self.setup(wl.setup_repeats)
            lap("setup")
            self.measure(clock)
            lap("measure")
        finally:
            if clock is not None:
                en.sample = clock.sample
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        self.count("property", self.check_identity(self.prompts[0][:8]))
        self.count("property", self.full.checksum() == self.frozen_checksum)
        self.full = self.pruned = None   # make room for the float64 reference
        models = self.reference_models()
        self.check_serving(models)
        self.check_calibration(models)
        self.check_training(models)
        lap("check")

        if self.tracer is None:
            metrics = self.end_to_end(peak_rss_mb)
        else:
            metrics = self.per_layer()
            lap("spans")
        print("wall s: " + ", ".join(f"{k} {v:.1f}" for k, v in walls.items()))
        attempted = sum(a for a, _ in self.ops.values())
        failed = sum(f for _, f in self.ops.values())
        for phase, (a, f) in self.ops.items():
            print(f"phase {phase}: attempted {a} failed {f}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def end_to_end(self, peak_rss_mb) -> dict:
        def pooled(mode, key):
            ok = [r for r in self.served if r["mode"] == mode and "error" not in r]
            return np.concatenate([np.atleast_1d(r[key]) for r in ok]) * 1e3

        def median_rate(records):
            return statistics.median(r["rate"] for r in records if "error" not in r)

        values = {"setup_s": (statistics.median(self.load_times), "s")}
        for mode, prefix in (("overfill", ""), ("full", "full."), ("pruned", "pruned.")):
            ttft, itl = pooled(mode, "ttft"), pooled(mode, "gaps")
            values[prefix + "ttft_ms.p50"] = (np.percentile(ttft, 50), "ms")
            values[prefix + "itl_ms.p50"] = (np.percentile(itl, 50), "ms")
        # A tail is reported only where the workload's sample puts at least
        # ten values beyond it; elsewhere the key carries the median.
        ttft, itl = pooled("overfill", "ttft"), pooled("overfill", "gaps")
        for name, sample, q in (("ttft_ms.p90", ttft, 90), ("itl_ms.p90", itl, 90)):
            supported = name in self.wl.tails
            beyond = int(sample.size * (100 - q) / 100)
            print(f"{name}: n={sample.size}, {beyond} beyond p{q}, "
                  + ("reported" if supported else "not supported here, median reported"))
            values[name] = (np.percentile(sample, q if supported else 50), "ms")
        values["calib_tok_s"] = (median_rate(self.calibrated), "tok/s")
        values["train_tok_s"] = (median_rate(self.trained), "tok/s")
        values["peak_rss_mb"] = (peak_rss_mb, "MB")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    def accounting(self, st: SpanStats, reqs: set) -> tuple[float, float]:
        """Check that the layers account for the time of the decode path.

        Every span of a traced request must belong to engine, model or
        tensor, and the request's unattributed time must stay under
        UNATTRIBUTED_MAX of it. That time is the self time of the request's
        root span: what the engine runs outside its calls into the model,
        the tensor ops and `sample`, including any slow call nobody wraps.
        Returns the tracing overhead (traced minus untraced time, as a share
        of the untraced) and the unattributed share of the traced time.
        """
        runs = [r for r in self.served if f"overfill-{r['round']}" in reqs]
        untraced = sum(r["untraced"] for r in runs)
        traced = sum(r["traced"] for r in runs)
        roots = st.select("engine.overfill_generate", requests=reqs)
        unattributed = st.total(roots, self_only=True) / st.total(roots)
        foreign = {st.spans[i][0] for i in st.select(prefix="", requests=reqs)
                   if not st.spans[i][0].startswith(LAYERS)}
        print(f"accounting: {len(runs)} requests, untraced {untraced:.4f} s, traced "
              f"{traced:.4f} s, unattributed {100 * unattributed:.2f}% (limit "
              f"{100 * UNATTRIBUTED_MAX:.0f}%), foreign spans {sorted(foreign) or 'none'}")
        self.count("accounting", not foreign and unattributed <= UNATTRIBUTED_MAX)
        return (traced - untraced) / untraced, unattributed

    def per_layer(self) -> dict:
        st = SpanStats(self.tracer.spans)
        served = self.served
        n_steps = len(self.trained)
        reqs = {f"overfill-{r['round']}" for r in served if "error" not in r}
        dec = st.select("model.decode_step", requests=reqs)
        pre = st.select("model.forward_prefill", requests=reqs)
        roots = st.select("engine.overfill_generate", requests=reqs)
        emits = st.select("engine.sample", requests=reqs)
        nd = len(dec)

        def per_token(*names, self_only=False):
            idx = st.select(*names, phase="model.decode_step", requests=reqs)
            return st.total(idx, self_only) / nd * 1e6

        def mean_ms(name, self_only=False, per=None):
            idx = st.select(name)
            return st.total(idx, self_only) / (per or len(idx)) * 1e3

        def note_sum(idx):
            return sum(st.spans[i][5] for i in idx)

        layers, kv_heads, head_dim = cache_shape(self.cfg["pruned"])
        kv_bytes = 2 * layers * kv_heads * head_dim * 4 * note_sum(dec) / nd
        weight_bytes = 4 * self.manifest["pruned"]["params"]
        decode_s = st.total(dec) / nd
        mm_pre = st.select("tensor.matmul", "tensor.matmul_nt",
                           phase="model.forward_prefill", requests=reqs)
        loads = st.select("checkpoint.load_checkpoint")
        grads = st.select("tensor.grad_of")

        overhead, unattributed = self.accounting(st, reqs)
        values = {
            "tensor.ops_per_token": (len(st.select(prefix="tensor.", phase="model.decode_step",
                                                   requests=reqs)) / nd, "count"),
            "tensor.rope_rows.us_per_token": (per_token("tensor.rope_rows"), "us"),
            "tensor.rms_norm.us_per_token": (per_token("tensor.rms_norm"), "us"),
            "tensor.matmul.us_per_token": (per_token("tensor.matmul", "tensor.matmul_nt"), "us"),
            "tensor.matmul.gflop_s": (note_sum(mm_pre) / st.total(mm_pre) / 1e9, "GFLOP/s"),
            "tensor.attend.us_per_token": (per_token("tensor.attend"), "us"),
            "tensor.attend.prefill_ms": (st.total(st.select(
                "tensor.attend", phase="model.forward_prefill", requests=reqs))
                / len(pre) * 1e3, "ms"),
            "tensor.grad_of.ms_per_step": (st.total(grads) / n_steps * 1e3, "ms"),
            "model.forward_prefill.ms": (st.total(pre) / len(pre) * 1e3, "ms"),
            "model.decode_step.us": (decode_s * 1e6, "us"),
            "model.run_block.self_us_per_token": (per_token("model.run_block", self_only=True), "us"),
            "model.kvcache.append_block.us_per_token": (per_token("model.kvcache.append_block"), "us"),
            "model.kvcache.mb_read_per_token": (kv_bytes / 1e6, "MB"),
            "model.decode.weight_mb_per_token": (weight_bytes / 1e6, "MB"),
            "model.decode.achieved_gb_s": ((weight_bytes + kv_bytes) / decode_s / 1e9, "GB/s"),
            "engine.self_us_per_token": (st.total(roots, self_only=True) / len(emits) * 1e6, "us"),
            "engine.sample.us_per_token": (st.total(emits) / len(emits) * 1e6, "us"),
            "engine.decode_calls_per_token": (nd / len(emits), "count"),
            "engine.prefill_calls_per_request": (len(pre) / len(roots), "count"),
            "pruner.collect_activations.ms_per_batch": (mean_ms("pruner.collect_activations"), "ms"),
            "pruner.score_channels.ms": (mean_ms("pruner.score_channels"), "ms"),
            "pruner.slice_model.ms": (mean_ms("pruner.slice_model"), "ms"),
            "trainer.forward_ms_per_step": (mean_ms("trainer.forward", per=n_steps), "ms"),
            "trainer.update_ms_per_step": (mean_ms("trainer.train_step", True, n_steps), "ms"),
            "trainer.build_batch.ms_per_step": (mean_ms("trainer.build_batch", per=n_steps), "ms"),
            "trainer.tape_nodes_per_step": (note_sum(grads) / n_steps, "count"),
            "checkpoint.load_checkpoint.ms": (mean_ms("checkpoint.load_checkpoint"), "ms"),
            "checkpoint.load_mb_s": (note_sum(loads) / st.total(loads) / 1e6, "MB/s"),
            "trace.overhead_pct": (100.0 * overhead, "%"),
            "trace.unattributed_pct": (100.0 * unattributed, "%"),
        }
        OUT.mkdir(exist_ok=True)
        self.tracer.write(OUT / f"trace-{self.wl.name}-{self.seed}.jsonl.gz")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def prepare(workload: str, seed: int, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    subprocess.run([sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(work)],
                   env=env, check=True, timeout=170)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = perf_counter()
        prepare(args.workload, args.seed, work)
        print(f"wall s: prepare {perf_counter() - t0:.1f}")
        result = Bench(W.WORKLOADS[args.workload], args.seed, args.seconds, work,
                       bool(args.trace)).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
