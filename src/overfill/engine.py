"""Two-stage generation: full-model prefill feeding a pruned decoder.

Single-model generation is the same loop with the same weights in both
stages (prefill over all but the last prompt token, then step-by-step
decode), so when the pruned weights are an identity slice of the full
weights the two modes are bit-identical, not merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model import KVCache, Weights, check_handoff, decode_step, forward_prefill


MODES = ("full", "pruned", "overfill")


def _pick(full, pruned, mode: str):
    """(prefill, decode) member of a (full, pruned) pair of configs or weights."""
    if mode == "full":
        return full, full
    if mode == "pruned":
        return pruned, pruned
    if mode == "overfill":
        return full, pruned
    raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class GenParams:
    max_new_tokens: int
    temperature: float = 0.0
    seed: int = 0
    stop_token: Optional[int] = None

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise ConfigError(f"max_new_tokens must be >= 0, got {self.max_new_tokens}")
        if not math.isfinite(self.temperature):
            raise ConfigError(f"temperature must be finite, got {self.temperature}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")


def sample(logits, temperature: float, rng: np.random.Generator) -> int:
    """Greedy argmax at temperature 0 (lowest index wins ties), otherwise a
    categorical draw over softmax(logits / temperature)."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    arr = logits.numpy() if hasattr(logits, "numpy") else np.asarray(logits)
    arr = arr.reshape(-1)
    if temperature == 0:
        return int(np.argmax(arr))
    z = arr.astype(np.float64) / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(arr.size, p=p))


def make_rng(seed: int) -> np.random.Generator:
    # Counter-based generator: the stream is a pure function of the key.
    return np.random.Generator(np.random.Philox(key=seed))


def generate(prefill_w: Weights, decode_w: Weights, prompt: Sequence[int],
             params: GenParams) -> tuple[list[int], KVCache]:
    """Prefill with prefill_w over all but the last prompt token, then feed
    that token to decode_w over the same cache and sample up to
    max_new_tokens, ending at the stop token if one is emitted.

    Returns the emitted tokens and the cache: rows below len(prompt) - 1
    hold prefill_w's keys and values, the rest decode_w's. Deterministic
    given the params seed.
    """
    if len(prompt) < 2:
        raise DataError(f"prompt must have at least 2 tokens, got {len(prompt)}")
    check_handoff(prefill_w.config, decode_w.config)
    cache = KVCache.for_config(prefill_w.config, len(prompt) + params.max_new_tokens,
                               dtype=prefill_w.token_embedding.dtype)
    forward_prefill(prefill_w, prompt[:-1], cache)
    rng = make_rng(params.seed)
    logits, _ = decode_step(decode_w, prompt[-1], cache, cache.filled_len)
    emitted: list[int] = []
    for _ in range(params.max_new_tokens):
        tok = sample(logits, params.temperature, rng)
        emitted.append(tok)
        if tok == params.stop_token or len(emitted) == params.max_new_tokens:
            break
        logits, _ = decode_step(decode_w, tok, cache, cache.filled_len)
    return emitted, cache


def overfill_generate(full_w: Weights, pruned_w: Weights, prompt: Sequence[int],
                      params: GenParams) -> list[int]:
    """Prefill with the full weights, decode with the pruned weights."""
    return generate(full_w, pruned_w, prompt, params)[0]


def baseline_generate(w: Weights, prompt: Sequence[int], params: GenParams) -> list[int]:
    """Single-model generation (the mode for full-only or pruned-only runs)."""
    return generate(w, w, prompt, params)[0]


def evaluate_exact_match(prefill_w: Weights, decode_w: Weights, examples, tok) -> float:
    """Greedy exact-match accuracy on chat examples: the emitted token
    sequence must equal the reference response plus EOS, so decoding stops
    at EOS or at the reference's length, whichever comes first."""
    from .corpus import format_chat

    if not examples:
        raise DataError("evaluation set is empty")
    hits = 0
    for ex in examples:
        ids, m = format_chat(ex, tok)
        ref = ids[m:]
        params = GenParams(max_new_tokens=len(ref), stop_token=tok.eos)
        out, _ = generate(prefill_w, decode_w, ids[:m], params)
        hits += int(out == ref)
    return hits / len(examples)
