import dataclasses
import math

import numpy as np
import pytest

from overfill import engine
from overfill.engine import (GenParams, baseline_generate, evaluate_exact_match,
                             generate, make_rng, overfill_generate, sample)
from overfill.errors import ConfigError
from overfill.model import (DESK_CONFIG, KVCache, decode_step, forward_prefill,
                            init_model)
from overfill.pruner import (ImportanceScores, identity_selection, select_channels,
                             slice_model)
from overfill.corpus import Tokenizer, gen_tasks

from helpers import cache_row


@pytest.fixture(scope="module")
def full_w():
    return init_model(DESK_CONFIG, seed=0)


@pytest.fixture(scope="module")
def pruned_w(full_w):
    rng = np.random.default_rng(0)
    scores = ImportanceScores(rng.random(64), [rng.random(256) for _ in range(4)])
    pruned, _ = slice_model(full_w, select_channels(scores, 32, 128), DESK_CONFIG)
    return pruned


def prompts(n, length=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, DESK_CONFIG.vocab_size, size=length).tolist()
            for _ in range(n)]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_greedy_argmax():
    assert sample(np.array([1.0, 3.0, 2.0]), 0.0, make_rng(0)) == 1


def test_sample_greedy_tie_takes_lowest_index():
    assert sample(np.array([5.0, 5.0]), 0.0, make_rng(0)) == 0


def test_sample_rejects_negative_temperature():
    with pytest.raises(ValueError):
        sample(np.array([1.0, 2.0]), -0.5, make_rng(0))


def test_sample_monte_carlo_matches_closed_form():
    logits = np.array([0.0, math.log(3.0)])
    rng = make_rng(123)
    draws = sum(sample(logits, 1.0, rng) for _ in range(100_000))
    assert abs(draws / 100_000 - 0.75) < 0.01


def test_sample_deterministic_given_seed():
    logits = np.array([0.1, 0.2, 0.3])
    a = [sample(logits, 1.0, make_rng(9)) for _ in range(20)]
    b = [sample(logits, 1.0, make_rng(9)) for _ in range(20)]
    assert a == b


# ---------------------------------------------------------------------------
# generation modes
# ---------------------------------------------------------------------------

def test_identity_pruning_collapse(full_w):
    ident, _ = slice_model(full_w, identity_selection(DESK_CONFIG), DESK_CONFIG)
    params = GenParams(max_new_tokens=16, temperature=0.0, seed=0)
    for prompt in prompts(10, seed=1):
        assert (overfill_generate(full_w, ident, prompt, params)
                == baseline_generate(full_w, prompt, params))


def test_baseline_equals_overfill_with_same_weights(full_w):
    params = GenParams(max_new_tokens=12, temperature=0.0, seed=0)
    for prompt in prompts(5, seed=2):
        assert (overfill_generate(full_w, full_w, prompt, params)
                == baseline_generate(full_w, prompt, params))


def test_zero_new_tokens_fills_cache_to_prompt_length(full_w, pruned_w):
    prompt = prompts(1, length=6, seed=3)[0]
    out, cache = generate(full_w, pruned_w, prompt, GenParams(max_new_tokens=0))
    assert out == []
    assert cache.filled_len == len(prompt)


def test_overfill_matches_manual_two_model_reference(full_w, pruned_w):
    # Step-by-step reference that moves the cache between the two models by hand.
    prompt = prompts(1, length=9, seed=4)[0]
    params = GenParams(max_new_tokens=10, temperature=0.0, seed=0)
    got = overfill_generate(full_w, pruned_w, prompt, params)

    cache = KVCache.for_config(DESK_CONFIG, len(prompt) + params.max_new_tokens)
    forward_prefill(full_w, prompt[:-1], cache)
    logits, _ = decode_step(pruned_w, prompt[-1], cache, cache.filled_len)
    expected = []
    for _ in range(params.max_new_tokens):
        tok = int(np.argmax(logits.numpy()))
        expected.append(tok)
        if len(expected) == params.max_new_tokens:
            break
        logits, _ = decode_step(pruned_w, tok, cache, cache.filled_len)
    assert got == expected


def test_stop_token_emitted_then_halts(full_w):
    params = GenParams(max_new_tokens=50, temperature=0.0, seed=0)
    free = baseline_generate(full_w, prompts(1, seed=5)[0], params)
    stop = free[3]
    stopped = baseline_generate(
        full_w, prompts(1, seed=5)[0],
        GenParams(max_new_tokens=50, temperature=0.0, seed=0, stop_token=stop))
    first = stopped.index(stop)
    assert stopped == free[:first + 1]
    assert stopped[-1] == stop


def test_prompt_too_short_rejected(full_w, pruned_w):
    with pytest.raises(ValueError, match="at least 2"):
        overfill_generate(full_w, pruned_w, [5], GenParams(max_new_tokens=1))


@pytest.mark.parametrize("temperature", [-0.5, math.nan, math.inf])
def test_gen_params_reject_a_negative_or_non_finite_temperature(temperature):
    with pytest.raises(ConfigError, match="temperature"):
        GenParams(max_new_tokens=1, temperature=temperature)


def test_cache_geometry_mismatch_rejected(full_w):
    other_cfg = dataclasses.replace(DESK_CONFIG, n_layers=2)
    other = init_model(other_cfg, seed=0)
    with pytest.raises(ValueError, match="geometry"):
        overfill_generate(full_w, other, [1, 2, 3], GenParams(max_new_tokens=1))


def test_full_model_consulted_exactly_once(full_w, pruned_w, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(w, *args):
            calls.append((name, w))
            return fn(w, *args)
        monkeypatch.setattr(engine, name, wrapper)

    counted("forward_prefill")
    counted("decode_step")
    out = overfill_generate(full_w, pruned_w, prompts(1, seed=6)[0],
                            GenParams(max_new_tokens=8))
    # One prefill by the full model, then one decode step by the pruned model
    # for the last prompt token and for every emitted token but the last.
    assert calls == [("forward_prefill", full_w)] + [("decode_step", pruned_w)] * len(out)
    assert len(out) == 8


def test_cache_writer_boundary(full_w, pruned_w):
    # Rows < M-1 hold the full model's prefill K/V; row M-1 onwards the
    # pruned decoder's, replayed here over the same tokens. Row M-1 is not
    # what the full model would have written there.
    prompt = prompts(1, length=7, seed=7)[0]
    out, cache = generate(full_w, pruned_w, prompt, GenParams(max_new_tokens=4))
    m = len(prompt)
    ref = KVCache.for_config(DESK_CONFIG, m + 3)
    forward_prefill(full_w, prompt[:-1], ref)
    full_next = KVCache.for_config(DESK_CONFIG, m)
    forward_prefill(full_w, prompt, full_next)
    for tok in [prompt[-1]] + out[:-1]:
        decode_step(pruned_w, tok, ref, ref.filled_len)
    assert cache.filled_len == ref.filled_len == m + 3
    for layer in range(DESK_CONFIG.n_layers):
        for got, want, full in zip(cache_row(cache, layer), cache_row(ref, layer),
                                   cache_row(full_next, layer)):
            np.testing.assert_array_equal(got, want)
            assert not np.array_equal(got[m - 1], full[m - 1])


def test_generation_deterministic_across_runs(full_w, pruned_w):
    params = GenParams(max_new_tokens=20, temperature=0.8, seed=42)
    prompt = prompts(1, seed=8)[0]
    a = overfill_generate(full_w, pruned_w, prompt, params)
    b = overfill_generate(full_w, pruned_w, prompt, params)
    assert a == b and len(a) == 20


def test_evaluate_exact_match_bounds(full_w):
    tok = Tokenizer()
    examples = gen_tasks("copy", 0, 5)
    acc = evaluate_exact_match(full_w, full_w, examples, tok)
    assert 0.0 <= acc <= 1.0


def test_evaluate_exact_match_decodes_no_more_tokens_than_the_reference(full_w, monkeypatch):
    # An output longer than the reference plus EOS cannot match it.
    tok = Tokenizer()
    examples = gen_tasks("copy", 0, 3)
    budgets = []

    def spy(prefill_w, decode_w, prompt, params):
        budgets.append((params.max_new_tokens, params.stop_token))
        return generate(prefill_w, decode_w, prompt, params)

    monkeypatch.setattr(engine, "generate", spy)
    evaluate_exact_match(full_w, full_w, examples, tok)
    assert budgets == [(len(ex.assistant) + 1, tok.eos) for ex in examples]
