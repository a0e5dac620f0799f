"""Teacher-forcing training with loss restricted to response tokens.

One step, two regimes:
  * with a prefill model: a frozen full model, no tensor of which requires
    grad, writes the prompt cache (no tape is recorded for it, so the cache
    boundary is a structural stop-gradient) and only the pruned decoder is
    updated;
  * without one: one model processes the whole sequence and is updated
    everywhere; used to fit the base model and the pruned baseline.
The model being updated must have every tensor requiring grad.

Targets live in their own array so masked-out label positions can be
perturbed without touching the inputs; the loss must not move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import tensor as tk
from .corpus import TASK_KINDS, ChatExample, Tokenizer, format_chat
from .errors import ConfigError, DataError, check_ranges, check_types
from .model import KVCache, Weights, check_handoff, lm_logits, run_block
from .tensor import GradTape, Tensor, grad_of


@dataclass(frozen=True)
class TrainConfig:
    """The training budget and data of both decoders and the base model."""
    base_lr: float = 1e-3
    warmup_ratio: float = 0.01
    batch_size: int = 16
    max_seq_len: int = 96
    base_steps: int = 600
    overfill_steps: int = 300
    kinds: tuple[str, ...] = TASK_KINDS
    train_per_kind: int = 2000
    eval_per_kind: int = 100

    def __post_init__(self):
        check_types(self)
        check_ranges(self, (
            ("base_lr", self.base_lr > 0, "> 0"),
            ("warmup_ratio", 0 <= self.warmup_ratio < 1, "in [0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("max_seq_len", self.max_seq_len >= 2, ">= 2"),
            ("base_steps", self.base_steps >= 1, ">= 1"),
            ("overfill_steps", self.overfill_steps >= 1, ">= 1"),
            ("kinds", set(self.kinds) <= set(TASK_KINDS), f"names from {TASK_KINDS}"),
            ("kinds", 0 < len(self.kinds) == len(set(self.kinds)),
             "a non-empty tuple without repeats"),
            ("train_per_kind", self.train_per_kind >= 1, ">= 1"),
            ("eval_per_kind", self.eval_per_kind >= 1, ">= 1"),
            ("batch_size", self.batch_size <= self.train_per_kind * len(self.kinds),
             f"<= train_per_kind x kinds = {self.train_per_kind * len(self.kinds)}")))


@dataclass
class TrainBatch:
    token_ids: np.ndarray     # [B, T] right-padded with the PAD id
    prefill_lens: np.ndarray  # [B] length of the prompt region per row
    row_lengths: np.ndarray   # [B] true token count per row (incl. EOS)
    loss_mask: np.ndarray     # [B, T] True exactly where the target is a response token
    targets: np.ndarray       # [B, T] token at position t+1 (PAD beyond the row)

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def build_batch(examples: Sequence[ChatExample], tok: Tokenizer,
                max_seq_len: int) -> TrainBatch:
    """Format, truncate, and right-pad examples into one batch.

    Rows whose response region is entirely truncated away are skipped; an
    empty assistant text is an error.
    """
    rows = []
    for ex in examples:
        if not ex.assistant:
            raise DataError("example has empty assistant text")
        ids, m = format_chat(ex, tok)
        ids = ids[:max_seq_len]
        if len(ids) <= m:
            continue  # no response target survived truncation
        rows.append((ids, m))
    if not rows:
        raise DataError("no rows with response targets after truncation")
    t_max = max(len(ids) for ids, _ in rows)
    b = len(rows)
    token_ids = np.full((b, t_max), Tokenizer.pad, dtype=np.int64)
    targets = np.full((b, t_max), Tokenizer.pad, dtype=np.int64)
    loss_mask = np.zeros((b, t_max), dtype=bool)
    prefill_lens = np.zeros(b, dtype=np.int64)
    row_lengths = np.zeros(b, dtype=np.int64)
    for i, (ids, m) in enumerate(rows):
        n = len(ids)
        token_ids[i, :n] = ids
        targets[i, :n - 1] = ids[1:]
        loss_mask[i, m - 1:n - 1] = True
        prefill_lens[i] = m
        row_lengths[i] = n
    return TrainBatch(token_ids, prefill_lens, row_lengths, loss_mask, targets)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 15  # elements per block of the Adam update (128 KB of float32)


@dataclass
class OptState:
    """Adam optimizer state (no weight decay) plus the LR schedule."""
    base_lr: float
    warmup_ratio: float
    total_steps: int
    step: int = 0
    lr: float = 0.0  # learning rate of the last update
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_weights(cls, w: Weights, base_lr: float, warmup_ratio: float,
                    total_steps: int) -> "OptState":
        opt = cls(base_lr=base_lr, warmup_ratio=warmup_ratio, total_steps=total_steps)
        for t in w.tensors():
            # C order: _adam_update updates the moments through flat views,
            # and a flat view of a Fortran-ordered array would be a copy.
            opt.m.append(np.zeros(t.data.shape, t.data.dtype))
            opt.v.append(np.zeros(t.data.shape, t.data.dtype))
        return opt


def lr_schedule(step: float, opt: OptState) -> float:
    """Linear warmup over warmup_ratio * total_steps, then cosine decay to 0
    at total_steps. A step may be fractional."""
    if step > opt.total_steps:
        raise ValueError(f"step {step} beyond total_steps {opt.total_steps}")
    warmup = opt.warmup_ratio * opt.total_steps
    if warmup > 0 and step < warmup:
        return opt.base_lr * step / warmup
    span = opt.total_steps - warmup
    progress = (step - warmup) / span if span > 0 else 1.0
    return opt.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _adam_update(tensors: Sequence[Tensor], grads: dict, opt: OptState) -> float:
    """One Adam update; returns the learning rate it applied.

    Each parameter's flat view is walked in blocks of ADAM_BLOCK elements
    through two block-sized scratch arrays, so the temporaries of the
    formula stay in cache and the parameters, gradients and moments cross
    memory once each (read g, m, v, p; write m, v, p) instead of about 15
    times. The ops and their order are the plain formula's, so the results
    are bit-identical to it. The moments are updated in place; the new
    parameter values go into a fresh C-ordered array that `p.data` is
    rebound to, so an array taken from a tensor before the step keeps its
    values. Writing into `p.data` instead made Adam itself faster (117 ms
    instead of 149 per step of the benchmark's `mid` decoder, 22M
    parameters, on a 2-core x86 host) but the step slower: the gradient pass
    took 14.5k-31k more minor page faults per step (+45-60 ms) and a later
    `slice_model` about 11k more, likely because the per-step parameter
    arrays no longer kept the malloc heap from being returned to the kernel.
    """
    opt.step += 1
    # The schedule is evaluated at the middle of the 1-based step, so the
    # first update and the last are both taken at a nonzero learning rate.
    lr = lr_schedule(min(opt.step, opt.total_steps) - 0.5, opt)
    bc1 = 1.0 - ADAM_BETA1 ** opt.step
    bc2 = 1.0 - ADAM_BETA2 ** opt.step
    scratch = {}  # dtype -> two block-sized work arrays
    for i, p in enumerate(tensors):
        dtype = p.data.dtype
        if dtype not in scratch:
            scratch[dtype] = (np.empty(ADAM_BLOCK, dtype), np.empty(ADAM_BLOCK, dtype))
        t_buf, u_buf = scratch[dtype]
        new = np.empty(p.data.shape, dtype)
        g = grads[p].reshape(-1)
        m, v = opt.m[i].reshape(-1, copy=False), opt.v[i].reshape(-1, copy=False)
        x, out = p.data.reshape(-1), new.reshape(-1)
        for lo in range(0, x.size, ADAM_BLOCK):
            sl = slice(lo, lo + ADAM_BLOCK)
            gs, ms, vs = g[sl], m[sl], v[sl]
            t, u = t_buf[:gs.size], u_buf[:gs.size]
            ms *= ADAM_BETA1                                   # m = b1*m + (1-b1)*g
            ms += np.multiply(gs, 1.0 - ADAM_BETA1, out=t)
            vs *= ADAM_BETA2                                   # v = b2*v + (1-b2)*(g*g)
            np.multiply(gs, gs, out=t)
            t *= 1.0 - ADAM_BETA2
            vs += t
            np.divide(vs, bc2, out=t)                          # sqrt(v/bc2) + eps
            np.sqrt(t, out=t)
            t += ADAM_EPS
            np.divide(ms, bc1, out=u)                          # (m/bc1) / that
            u /= t
            u *= lr
            np.subtract(x[sl], u, out=out[sl])                 # p - lr*update
        p.data = new
    return lr


def _batch_loss_rows(prefill_w: Optional[Weights], decode_w: Weights,
                     batch: TrainBatch) -> Tensor:
    """Scalar mean response loss over the batch.

    Every row gets its own cache row. With a prefill model, the rows'
    prompts run through it first as one packed block (its cache rows are
    constants) and the decode model is teacher-forced over all the response
    blocks as a second one. Without one, the decode model processes the
    whole rows in one block.
    """
    dtype = decode_w.token_embedding.dtype
    ends = batch.row_lengths[:, None] - 1          # the last token has no target
    lo = (np.zeros_like(batch.prefill_lens) if prefill_w is None
          else batch.prefill_lens - 1)[:, None]
    cols = np.arange(batch.token_ids.shape[1])[None, :]
    prompt, block = cols < lo, (cols >= lo) & (cols < ends)
    cache = KVCache.for_config(decode_w.config, cols.size, dtype=dtype, rows=batch.size)
    if prompt.any():
        run_block(prefill_w, batch.token_ids[prompt], cache, row_lens=prompt.sum(axis=1),
                  cache_only=True)
    hidden = run_block(decode_w, batch.token_ids[block], cache, row_lens=block.sum(axis=1))
    ce = tk.cross_entropy_rows(lm_logits(decode_w, hidden), batch.targets[block])
    msk = batch.loss_mask[block]
    total = int(msk.sum())
    if total == 0:
        raise DataError("loss mask has no true entries")
    return tk.scale(tk.sum_all(tk.mul(ce, msk.astype(dtype))), 1.0 / total)


def train_step(prefill_w: Optional[Weights], w: Weights, batch: TrainBatch,
               opt: OptState) -> tuple[Weights, OptState, float]:
    """One update of w, every tensor of which must require grad. With a
    prefill model, which must be frozen (no tensor of it requires grad), it
    writes each row's prompt cache and w is trained on the response block
    that follows; without one, w processes and is trained on whole rows."""
    if prefill_w is not None:
        if any(t.requires_grad for t in prefill_w.tensors()):
            raise ValueError("full model must be frozen for two-model training")
        check_handoff(prefill_w.config, w.config)
    params = w.tensors()
    if not all(t.requires_grad for t in params):
        raise ValueError("cannot train a frozen model")
    with GradTape() as tape:
        loss = _batch_loss_rows(prefill_w, w, batch)
    grads = grad_of(loss, tape, params)
    opt.lr = _adam_update(params, grads, opt)
    return w, opt, loss.item()


@dataclass
class TrainLogRow:
    step: int
    lr: float
    loss: float
    tokens_seen: int


def write_training_log(path, rows: Sequence[TrainLogRow]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,lr,loss,tokens_seen\n")
        for r in rows:
            f.write(f"{r.step},{r.lr:.8g},{r.loss:.8g},{r.tokens_seen}\n")


def _batch_stream(n_examples: int, batch_size: int, seed: int):
    """Deterministic epoch-reshuffled batches of indices; partial tails dropped."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n_examples)
        for lo in range(0, n_examples - batch_size + 1, batch_size):
            yield order[lo: lo + batch_size]


def run_training(prefill_w: Optional[Weights], w: Weights,
                 examples: Sequence[ChatExample], tok: Tokenizer, train: TrainConfig,
                 *, steps: int, data_seed: int) -> list[TrainLogRow]:
    """Train w for `steps` steps over reshuffled batches, behind a prefill
    model when one is given (see train_step). Once its inputs are checked,
    it freezes the prefill model and makes every tensor of w require grad."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if train.batch_size > len(examples):
        raise DataError(f"batch size {train.batch_size} exceeds dataset size {len(examples)}")
    if prefill_w is not None:
        prefill_w.freeze()
    w.set_requires_grad(True)
    opt = OptState.for_weights(w, train.base_lr, train.warmup_ratio, steps)
    stream = _batch_stream(len(examples), train.batch_size, data_seed)
    rows = []
    tokens_seen = 0
    for step in range(1, steps + 1):
        idx = next(stream)
        batch = build_batch([examples[i] for i in idx], tok, train.max_seq_len)
        _, _, loss = train_step(prefill_w, w, batch, opt)
        tokens_seen += int(batch.row_lengths.sum())
        rows.append(TrainLogRow(step, opt.lr, loss, tokens_seen))
    return rows
