"""Teacher-forcing training with loss restricted to response tokens.

One step, two regimes:
  * with a prefill model: a frozen full model writes the prompt cache (no
    tape is recorded for it, so the cache boundary is a structural
    stop-gradient) and only the pruned decoder is updated;
  * without one: one model processes the whole sequence and is updated
    everywhere; used to fit the base model and the pruned baseline.

Targets live in their own array so masked-out label positions can be
perturbed without touching the inputs; the loss must not move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tk
from .corpus import ChatExample, Tokenizer, format_chat
from .errors import ConfigError, DataError
from .model import KVCache, Weights, check_handoff, lm_logits, run_block
from .tensor import GradTape, Tensor, grad_of


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


@dataclass
class OptState:
    """Adam optimizer state (no weight decay) plus the LR schedule."""
    base_lr: float
    warmup_ratio: float
    total_steps: int
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_weights(cls, w: Weights, base_lr: float, warmup_ratio: float,
                    total_steps: int) -> "OptState":
        opt = cls(base_lr=base_lr, warmup_ratio=warmup_ratio, total_steps=total_steps)
        for t in w.tensors():
            opt.m.append(np.zeros_like(t.data))
            opt.v.append(np.zeros_like(t.data))
        return opt


def lr_schedule(step: int, opt: OptState) -> float:
    """Linear warmup over warmup_ratio * total_steps, then cosine decay to 0."""
    if step > opt.total_steps:
        raise ValueError(f"step {step} beyond total_steps {opt.total_steps}")
    warmup = opt.warmup_ratio * opt.total_steps
    if warmup > 0 and step < warmup:
        return opt.base_lr * step / warmup
    span = opt.total_steps - warmup
    progress = (step - warmup) / span if span > 0 else 1.0
    return opt.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _adam_update(tensors: Sequence[Tensor], grads: dict, opt: OptState) -> None:
    opt.step += 1
    # The schedule is evaluated at the 1-based step so the first update is
    # taken at a nonzero learning rate.
    lr = lr_schedule(min(opt.step, opt.total_steps), opt)
    bc1 = 1.0 - ADAM_BETA1 ** opt.step
    bc2 = 1.0 - ADAM_BETA2 ** opt.step
    for i, p in enumerate(tensors):
        g = grads[p]
        opt.m[i] = ADAM_BETA1 * opt.m[i] + (1.0 - ADAM_BETA1) * g
        opt.v[i] = ADAM_BETA2 * opt.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = opt.m[i] / bc1
        v_hat = opt.v[i] / bc2
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.data = p.data - (lr * update).astype(p.data.dtype)


def _batch_loss_rows(prefill_w: Optional[Weights], decode_w: Weights,
                     batch: TrainBatch) -> Tensor:
    """Scalar mean response loss over the batch.

    With a prefill model, each row's prompt runs through it first (its cache
    rows are constants) and the decode model is teacher-forced over the
    response block. Without one, the decode model processes the whole row.
    """
    dtype = decode_w.token_embedding.dtype
    row_sums = []
    total = 0
    for b in range(batch.size):
        m = int(batch.prefill_lens[b])
        n = int(batch.row_lengths[b])
        ids = batch.token_ids[b, :n]
        cache = KVCache.for_config(decode_w.config, dtype=dtype)
        lo = 0 if prefill_w is None else m - 1
        if lo > 0:
            run_block(prefill_w, ids[:lo], cache)
        hidden = run_block(decode_w, ids[lo: n - 1], cache)
        logits = lm_logits(decode_w, hidden)
        ce = tk.cross_entropy_rows(logits, batch.targets[b, lo: n - 1])
        msk = batch.loss_mask[b, lo: n - 1]
        row_sums.append(tk.sum_all(tk.mul(ce, msk.astype(dtype))))
        total += int(msk.sum())
    if total == 0:
        raise DataError("loss mask has no true entries")
    acc = row_sums[0]
    for s in row_sums[1:]:
        acc = tk.add(acc, s)
    return tk.scale(acc, 1.0 / total)


def train_step(prefill_w: Optional[Weights], w: Weights, batch: TrainBatch,
               opt: OptState) -> tuple[Weights, OptState, float]:
    """One update of w. With a (frozen) prefill model, it writes each row's
    prompt cache and w is trained on the response block that follows;
    without one, w processes and is trained on whole rows."""
    if prefill_w is not None:
        if not prefill_w.frozen:
            raise ValueError("full model must be frozen for two-model training")
        check_handoff(prefill_w.config, w.config)
    if w.frozen:
        raise ValueError("cannot train a frozen model")
    with GradTape() as tape:
        loss = _batch_loss_rows(prefill_w, w, batch)
    params = w.tensors()
    grads = grad_of(loss, tape, params)
    _adam_update(params, grads, opt)
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
                 examples: Sequence[ChatExample], tok: Tokenizer,
                 *, steps: int, batch_size: int, max_seq_len: int,
                 base_lr: float, warmup_ratio: float, data_seed: int,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_fn: Optional[Callable[[int], None]] = None,
                 ) -> list[TrainLogRow]:
    """Train w for a fixed number of steps over reshuffled batches, behind a
    frozen prefill model when one is given (see train_step)."""
    if steps < 1 or batch_size < 1:
        raise ConfigError(f"steps and batch_size must be >= 1, got {steps} and {batch_size}")
    if prefill_w is not None:
        prefill_w.freeze()
    w.set_requires_grad(True)
    opt = OptState.for_weights(w, base_lr, warmup_ratio, steps)
    if batch_size > len(examples):
        raise DataError(f"batch size {batch_size} exceeds dataset size {len(examples)}")
    stream = _batch_stream(len(examples), batch_size, data_seed)
    rows = []
    tokens_seen = 0
    for step in range(1, steps + 1):
        idx = next(stream)
        batch = build_batch([examples[i] for i in idx], tok, max_seq_len)
        _, _, loss = train_step(prefill_w, w, batch, opt)
        tokens_seen += int(batch.row_lengths.sum())
        rows.append(TrainLogRow(step, lr_schedule(min(opt.step, opt.total_steps), opt),
                                loss, tokens_seen))
        if checkpoint_every and checkpoint_fn and step % checkpoint_every == 0:
            checkpoint_fn(step)
    return rows
