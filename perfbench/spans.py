"""Spans around the calls into each `overfill` module, recorded from here.

While a Tracer is active, the public functions of tensor, model, engine,
pruner, trainer and checkpoint are replaced, at the module attributes their
callers look up, by wrappers that record one span per call: name, start,
end, parent span and request id. Spans are kept in memory and written out
once, at the end of the run. A layer's self time is its span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import overfill.checkpoint as ck
import overfill.engine as en
import overfill.model as md
import overfill.pruner as pr
import overfill.tensor as tk
import overfill.trainer as tr

TENSOR_OPS = ("matmul", "matmul_nt", "add", "mul", "scale", "silu", "softmax_rows",
              "rms_norm", "rope_rows", "embedding", "slice_rows", "reshape",
              "sum_all", "attend", "cross_entropy_rows")


def _patch_table():
    """(owner, attribute, span name, note) for every call site to wrap.

    A note computes one number from the call's arguments: FLOPs of a matrix
    product, the history length of a decode step, the tape size at grad_of.
    """
    flops = {"matmul": lambda a, b: 2.0 * a.shape[0] * a.shape[1] * b.shape[1],
             "matmul_nt": lambda a, b: 2.0 * a.shape[0] * a.shape[1] * b.shape[0]}
    rows = [(tk, op, f"tensor.{op}", flops.get(op)) for op in TENSOR_OPS]
    rows += [
        (tr, "grad_of", "tensor.grad_of", lambda loss, tape, params: len(tape.nodes)),
        (md, "run_block", "model.run_block", None),
        (md, "lm_logits", "model.lm_logits", None),
        (pr, "run_block", "model.run_block", None),
        (tr, "run_block", "model.run_block", None),
        (tr, "lm_logits", "model.lm_logits", None),
        (md.KVCache, "append_block", "model.kvcache.append_block", None),
        (en, "forward_prefill", "model.forward_prefill", None),
        (en, "decode_step", "model.decode_step", lambda w, tok, cache, pos: pos),
        (en, "sample", "engine.sample", None),
        (en, "overfill_generate", "engine.overfill_generate", None),
        (en, "baseline_generate", "engine.baseline_generate", None),
        (pr, "collect_activations", "pruner.collect_activations", None),
        (pr, "score_channels", "pruner.score_channels", None),
        (pr, "select_channels", "pruner.select_channels", None),
        (pr, "slice_model", "pruner.slice_model", None),
        (tr, "build_batch", "trainer.build_batch", None),
        (tr, "train_step", "trainer.train_step", None),
        (tr, "_batch_loss_rows", "trainer.forward", None),
        (ck, "load_checkpoint", "checkpoint.load_checkpoint",
         lambda path, cfg: os.path.getsize(path)),
    ]
    return rows


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, request id, note].
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._table = _patch_table()

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                          note(*args, **kwargs) if note else None])
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
        return traced

    @contextmanager
    def active(self, request=None):
        """Install the wrappers for the duration of the block."""
        self.request = request
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in self._table]
        try:
            for (owner, attr, name, note), (_, _, orig) in zip(self._table, saved):
                setattr(owner, attr, self._wrap(name, orig, note))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)
            self.request = None

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, request, note."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.writelines(json.dumps(span) + "\n" for span in self.spans)


class SpanStats:
    """Durations, self times and enclosing phase of every recorded span."""

    PHASES = ("model.forward_prefill", "model.decode_step")

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.phase = [None] * n
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
            # Parents are appended before their children, so this is final.
            self.phase[i] = name if name in self.PHASES else (
                self.phase[parent] if parent >= 0 else None)
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def select(self, *names, prefix=None, phase="any", requests=None):
        """Indices of spans with one of `names` (or a name starting with
        `prefix`), optionally only inside the given phase or requests."""
        if prefix is not None:
            names = [n for n in self.by_name if n.startswith(prefix)]
        return [i for n in names for i in self.by_name.get(n, ())
                if (phase == "any" or self.phase[i] == phase)
                and (requests is None or self.spans[i][4] in requests)]

    def total(self, idx, self_only=False):
        src = self.self_time if self_only else self.dur
        return sum(src[i] for i in idx)
