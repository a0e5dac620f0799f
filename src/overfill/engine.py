"""Two-stage generation: full-model prefill feeding a pruned decoder.

Baseline single-model generation runs through the same code path (prefill
over all but the last prompt token, then step-by-step decode), so when the
pruned weights are an identity slice of the full weights the two modes are
bit-identical, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import KVCache, Weights, cache_shape, decode_step, forward_prefill


@dataclass(frozen=True)
class GenParams:
    max_new_tokens: int
    temperature: float = 0.0
    seed: int = 0
    stop_token: Optional[int] = None

    def validate(self) -> "GenParams":
        if self.max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {self.max_new_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        return self


@dataclass
class GenSession:
    """One generation request plus instrumentation counters."""
    mode: str                       # "full" | "pruned" | "overfill"
    cache: KVCache
    position: int
    emitted: list[int] = field(default_factory=list)
    handoff_len: int = 0            # prompt length M; cache rows < M-1 written by prefill weights
    prefill_calls: int = 0
    decode_calls: int = 0


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


def _run_session(prefill_w: Weights, decode_w: Weights, mode: str,
                 prompt: Sequence[int], params: GenParams,
                 first_token_from_full: bool = False) -> GenSession:
    params.validate()
    prompt = list(prompt)
    if len(prompt) < 2:
        raise ValueError(f"prompt must have at least 2 tokens, got {len(prompt)}")
    if cache_shape(prefill_w.config) != cache_shape(decode_w.config):
        raise ValueError(
            f"cache geometry mismatch: prefill {cache_shape(prefill_w.config)} "
            f"vs decode {cache_shape(decode_w.config)}")
    if prefill_w.config.vocab_size != decode_w.config.vocab_size:
        raise ValueError("prefill and decode vocabularies differ")

    rng = make_rng(params.seed)
    cache = KVCache.for_config(prefill_w.config,
                               dtype=prefill_w.token_embedding.dtype)
    session = GenSession(mode=mode, cache=cache, position=0, handoff_len=len(prompt))

    if first_token_from_full and mode == "overfill":
        # Alternative handoff: the prefill model consumes the whole prompt and
        # emits the first generated token from its own logits.
        _, logits, _ = forward_prefill(prefill_w, prompt, cache)
        session.prefill_calls += 1
    else:
        _, _, _ = forward_prefill(prefill_w, prompt[:-1], cache)
        session.prefill_calls += 1
        logits, _ = decode_step(decode_w, prompt[-1], cache, cache.filled_len)
        session.decode_calls += 1
    session.position = cache.filled_len

    for _ in range(params.max_new_tokens):
        tok = sample(logits, params.temperature, rng)
        session.emitted.append(tok)
        if params.stop_token is not None and tok == params.stop_token:
            break
        if len(session.emitted) == params.max_new_tokens:
            break
        logits, _ = decode_step(decode_w, tok, cache, cache.filled_len)
        session.decode_calls += 1
        session.position = cache.filled_len
    return session


def overfill_generate(full_w: Weights, pruned_w: Weights, prompt: Sequence[int],
                      params: GenParams, first_token_from_full: bool = False) -> list[int]:
    """Prefill with the full weights, decode with the pruned weights over the
    shared cache. Deterministic given the params seed."""
    return _run_session(full_w, pruned_w, "overfill", prompt, params,
                        first_token_from_full=first_token_from_full).emitted


def baseline_generate(w: Weights, prompt: Sequence[int], params: GenParams) -> list[int]:
    """Single-model generation (the mode for full-only or pruned-only runs)."""
    return _run_session(w, w, "full", prompt, params).emitted


def evaluate_exact_match(weights: Weights, decode_weights: Optional[Weights],
                         examples, tok, mode: str = "overfill", seed: int = 0,
                         slack: int = 8) -> float:
    """Greedy exact-match accuracy on chat examples: the emitted token
    sequence (stopping at EOS) must equal the reference response plus EOS."""
    from .corpus import format_chat

    if not examples:
        raise ValueError("evaluation set is empty")
    hits = 0
    for ex in examples:
        ids, m = format_chat(ex, tok)
        ref = ids[m:]
        params = GenParams(max_new_tokens=len(ref) + slack, temperature=0.0,
                           seed=seed, stop_token=tok.eos)
        out = generate_session(weights, decode_weights, ids[:m], params, mode=mode)
        hits += int(out.emitted == ref)
    return hits / len(examples)


def generate_session(weights: Weights, decode_weights: Optional[Weights],
                     prompt: Sequence[int], params: GenParams,
                     mode: str = "overfill") -> GenSession:
    """Instrumented entry point; returns the session with its counters.

    In overfill mode `weights` prefills and `decode_weights` decodes; in
    full/pruned mode `weights` is the single model and decode_weights is
    ignored.
    """
    if mode == "overfill":
        if decode_weights is None:
            raise ValueError("overfill mode needs decode weights")
        return _run_session(weights, decode_weights, "overfill", prompt, params)
    if mode in ("full", "pruned"):
        return _run_session(weights, weights, mode, prompt, params)
    raise ValueError(f"unknown mode {mode!r}")
