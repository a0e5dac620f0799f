"""Workload definitions and the seeded inputs each one feeds the program.

Every input is a pure function of (workload, seed). Prompts are rendered
through the corpus chat template; a fixed-length prompt carries a chat log
of other corpus examples in its user turn, trimmed to the exact length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from overfill.corpus import (TASK_KINDS, ChatExample, Tokenizer, format_chat,
                             gen_mixture, gen_tasks, pack_calibration_batches)
from overfill.model import DESK_CONFIG, ModelConfig
from overfill.pruner import PruneConfig

MID_CONFIG = ModelConfig(
    vocab_size=4096, hidden_dim=768, n_layers=8, n_heads=12, n_kv_heads=4,
    head_dim=64, intermediate_dim=3072,
)
PRUNE = PruneConfig(p_hidden=0.5, p_intermediate=0.5, calib_batches=1,
                    calib_rows=2, calib_seq_len=64)
MODES = ("overfill", "full", "pruned")
TOK = Tokenizer()
TRAIN_MAX_LEN = 128
TRAIN_BATCH = len(TASK_KINDS)    # one example of each task kind per step


@dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    new_tokens: int                  # fixed output length, no stop token
    prompt_len: int                  # exact prompt length; 0 = natural chat prompts
    calib_rows: int
    calib_seq: int
    setup_repeats: int               # timed checkpoint loads before serving
    max_rounds: int                  # distinct prompts per run, served in a cycle
    min_rounds: int                  # serving rounds per run, at least
    tails: tuple[str, ...]           # tail metrics with >= 10 samples beyond them
    # Share of the run for serving, calibration, training and timed loads
    # into a spare copy of the checkpoints.
    shares: tuple[float, float, float, float]


WORKLOADS = {
    "chat": Workload("chat", DESK_CONFIG, new_tokens=32, prompt_len=0,
                     calib_rows=4, calib_seq=128,
                     setup_repeats=3, max_rounds=4096, min_rounds=100,
                     tails=("ttft_ms.p90", "itl_ms.p90"), shares=(0.695, 0.1, 0.2, 0.005)),
    "mid": Workload("mid", MID_CONFIG, new_tokens=24, prompt_len=256,
                    calib_rows=1, calib_seq=64,
                    setup_repeats=3, max_rounds=64, min_rounds=3,
                    tails=(), shares=(0.7, 0.1, 0.2, 0.0)),
}


def examples(seed: int, count: int) -> list[ChatExample]:
    """At least `count` examples of the four task kinds, shuffled together."""
    return gen_mixture(TASK_KINDS, seed, max(2, -(-count // len(TASK_KINDS))))


def _chat_log(pool: list[ChatExample], chars: int) -> str:
    lines, size, i = [], 0, 0
    while size < chars:
        ex = pool[i % len(pool)]
        line = f"{ex.user} => {ex.assistant}"
        lines.append(line)
        size += len(line) + 1
        i += 1
    return "\n".join(lines)


def _prompt(ex: ChatExample, log: str, prompt_len: int) -> list[int]:
    """`ex` rendered up to the assistant tag, with the tail of a chat log
    before its user text so that the prompt has prompt_len tokens."""
    room = prompt_len - format_chat(ex, TOK)[1] - 1
    if not 0 <= room <= len(log):
        raise ValueError(f"cannot render a {prompt_len}-token prompt")
    user = log[len(log) - room:] + "\n" + ex.user
    ids, m = format_chat(ChatExample(ex.system, user, ex.assistant, ex.task_kind), TOK)
    if m != prompt_len:
        raise ValueError(f"prompt rendered to {m} tokens, wanted {prompt_len}")
    return ids[:m]


def serving_prompts(wl: Workload, seed: int, count: int) -> list[list[int]]:
    pool = examples(seed, count)[:count]
    if not wl.prompt_len:
        return [ids[:m] for ids, m in (format_chat(ex, TOK) for ex in pool)]
    log = _chat_log(examples(seed + 1_000_003, 64), wl.prompt_len)
    # Rotate the log so that consecutive prompts do not share a prefix.
    return [_prompt(ex, log[s:] + "\n" + log[:s], wl.prompt_len)
            for ex, s in zip(pool, (i * 997 % len(log) for i in range(count)))]


def calibration_batches(wl: Workload, seed: int, count: int) -> list[np.ndarray]:
    """Packed corpus batches of [calib_rows, calib_seq] tokens."""
    return pack_calibration_batches(examples(seed + 17, 256), TOK, count,
                                    wl.calib_rows, wl.calib_seq)


def training_examples(seed: int, count: int) -> list[ChatExample]:
    """`count` examples in groups of one of each task kind, so that every
    training batch of TRAIN_BATCH rows has the same make-up: a row's length
    follows its task kind, and a step's time follows its rows."""
    per_kind = -(-count // len(TASK_KINDS))
    groups = zip(*(gen_tasks(kind, seed + 29, per_kind) for kind in TASK_KINDS))
    return [ex for group in groups for ex in group][:count]
