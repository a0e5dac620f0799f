import dataclasses

import numpy as np
import pytest

from overfill.errors import ConfigError
from overfill.model import (DESK_CONFIG, KVCache, ModelConfig, Weights, cache_shape,
                            decode_step, forward_prefill, init_model, lm_logits,
                            run_block)
from overfill.perfmodel import param_count

from helpers import TINY_CONFIG, ref_forward


def random_tokens(rng, n, vocab=None):
    return rng.integers(0, vocab or DESK_CONFIG.vocab_size, size=n).tolist()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, n_layers=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, n_heads=3, n_kv_heads=2).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, head_dim=7).validate()


def test_config_roundtrip_rejects_unknown_keys():
    d = DESK_CONFIG.to_dict()
    assert ModelConfig.from_dict(d) == DESK_CONFIG
    d["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        ModelConfig.from_dict(d)


# ---------------------------------------------------------------------------
# init_model
# ---------------------------------------------------------------------------

def test_init_same_seed_bit_identical():
    a = init_model(DESK_CONFIG, seed=7)
    b = init_model(DESK_CONFIG, seed=7)
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        assert (ta.data == tb.data).all()


def test_init_different_seeds_differ():
    a = init_model(DESK_CONFIG, seed=1)
    b = init_model(DESK_CONFIG, seed=2)
    assert not (a.token_embedding.data == b.token_embedding.data).all()


def test_init_allocation_matches_closed_form_count():
    for cfg in (DESK_CONFIG, TINY_CONFIG,
                dataclasses.replace(DESK_CONFIG, tied_embeddings=False)):
        assert init_model(cfg, seed=0).param_count() == param_count(cfg)


# ---------------------------------------------------------------------------
# prefill / decode equivalence
# ---------------------------------------------------------------------------

def test_prefill_fills_cache_and_shapes():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG)
    tokens = random_tokens(np.random.default_rng(0), 9)
    last, logits, out_cache = forward_prefill(w, tokens, cache)
    assert out_cache.filled_len == len(tokens)
    assert last.shape == (DESK_CONFIG.hidden_dim,)
    assert logits.shape == (DESK_CONFIG.vocab_size,)


def test_prefill_single_token_prompt():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG)
    forward_prefill(w, [42], cache)
    assert cache.filled_len == 1


def test_prefill_requires_empty_cache():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG)
    forward_prefill(w, [1, 2], cache)
    with pytest.raises(ValueError, match="empty cache"):
        forward_prefill(w, [3], cache)


def test_prefill_rejects_out_of_range_token():
    w = init_model(DESK_CONFIG, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        forward_prefill(w, [0, DESK_CONFIG.vocab_size], KVCache.for_config(DESK_CONFIG))


def test_incremental_decode_matches_batched_prefill():
    w = init_model(DESK_CONFIG, seed=3)
    tokens = random_tokens(np.random.default_rng(1), 12)

    batched = KVCache.for_config(DESK_CONFIG)
    _, logits_batched, _ = forward_prefill(w, tokens, batched)

    incremental = KVCache.for_config(DESK_CONFIG)
    for pos, t in enumerate(tokens):
        logits_inc, _ = decode_step(w, t, incremental, pos)

    for layer in range(DESK_CONFIG.n_layers):
        assert np.abs(batched.keys(layer) - incremental.keys(layer)).max() < 1e-5
        assert np.abs(batched.values(layer) - incremental.values(layer)).max() < 1e-5
    assert np.abs(logits_batched.numpy() - logits_inc.numpy()).max() < 1e-5


def test_decode_continues_prefill_positions():
    # Full-model equivalence of prefill(x) + decode over y vs prefill(x || y).
    w = init_model(DESK_CONFIG, seed=4)
    rng = np.random.default_rng(2)
    x, y = random_tokens(rng, 7), random_tokens(rng, 5)

    joint = KVCache.for_config(DESK_CONFIG)
    _, joint_logits, _ = forward_prefill(w, x + y, joint)

    split = KVCache.for_config(DESK_CONFIG)
    forward_prefill(w, x, split)
    for i, t in enumerate(y):
        logits, _ = decode_step(w, t, split, len(x) + i)
    assert np.abs(joint_logits.numpy() - logits.numpy()).max() < 1e-5
    for layer in range(DESK_CONFIG.n_layers):
        assert np.abs(joint.keys(layer) - split.keys(layer)).max() < 1e-5


def test_decode_step_position_mismatch_errors():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG)
    forward_prefill(w, [1, 2, 3], cache)
    with pytest.raises(ValueError, match="position"):
        decode_step(w, 4, cache, 5)


def test_decode_step_geometry_mismatch_errors():
    w = init_model(DESK_CONFIG, seed=0)
    other = dataclasses.replace(DESK_CONFIG, n_layers=3)
    cache = KVCache.for_config(other)
    with pytest.raises(ValueError, match="geometry"):
        decode_step(w, 1, cache, 0)


def test_decode_appends_exactly_one_row_per_layer():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG)
    decode_step(w, 5, cache, 0)
    assert cache.filled_len == 1
    for layer in range(DESK_CONFIG.n_layers):
        assert cache.keys(layer).shape == (1, DESK_CONFIG.n_kv_heads, DESK_CONFIG.head_dim)


def test_cache_keeps_its_buffers_for_the_decode_step_after_a_long_prefill():
    cache = KVCache.for_config(TINY_CONFIG)
    rng = np.random.default_rng(0)
    cache.append_block(255)
    rows = [cache.keys(li) for li in range(TINY_CONFIG.n_layers)]
    rows += [cache.values(li) for li in range(TINY_CONFIG.n_layers)]
    for r in rows:
        r[:] = rng.normal(size=r.shape)
    before = [r.copy() for r in rows]
    assert cache.append_block(1) == 255
    after = [cache.keys(li) for li in range(TINY_CONFIG.n_layers)]
    after += [cache.values(li) for li in range(TINY_CONFIG.n_layers)]
    for old, new, saved in zip(rows, after, before):
        assert np.shares_memory(old, new)
        np.testing.assert_array_equal(new[:255], saved)


def test_cache_growth_keeps_history():
    cache = KVCache.for_config(TINY_CONFIG)
    cache.append_block(3)
    cache.keys(1)[:] = 7.0
    for t in (70, 1, 200):
        cache.append_block(t)
    assert cache.filled_len == 274
    assert (cache.keys(1)[:3] == 7.0).all() and cache.keys(1).shape[0] == 274


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------

def test_causality_future_tokens_do_not_change_past_logits():
    w = init_model(DESK_CONFIG, seed=5)
    rng = np.random.default_rng(3)
    tokens = random_tokens(rng, 10)
    variant = list(tokens)
    variant[7] = (variant[7] + 13) % DESK_CONFIG.vocab_size
    variant[9] = (variant[9] + 29) % DESK_CONFIG.vocab_size

    h1 = run_block(w, tokens, KVCache.for_config(DESK_CONFIG))
    h2 = run_block(w, variant, KVCache.for_config(DESK_CONFIG))
    logits1 = lm_logits(w, h1).numpy()
    logits2 = lm_logits(w, h2).numpy()
    np.testing.assert_array_equal(logits1[:7], logits2[:7])
    assert not (logits1[7:] == logits2[7:]).all()


def test_permuting_prompt_tokens_changes_last_logits():
    w = init_model(DESK_CONFIG, seed=6)
    tokens = random_tokens(np.random.default_rng(4), 8)
    swapped = list(tokens)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert swapped != tokens
    _, a, _ = forward_prefill(w, tokens, KVCache.for_config(DESK_CONFIG))
    _, b, _ = forward_prefill(w, swapped, KVCache.for_config(DESK_CONFIG))
    assert not (a.numpy() == b.numpy()).all()


# ---------------------------------------------------------------------------
# cache_shape
# ---------------------------------------------------------------------------

def test_cache_shape_pure_function_of_attention_geometry():
    cfg28 = dataclasses.replace(DESK_CONFIG, n_layers=28)
    assert cache_shape(cfg28)[0] == 28
    thinner = dataclasses.replace(DESK_CONFIG, hidden_dim=16, intermediate_dim=32)
    assert cache_shape(thinner) == cache_shape(DESK_CONFIG)


# ---------------------------------------------------------------------------
# forward correctness against the independent numpy reference
# ---------------------------------------------------------------------------

def test_forward_matches_independent_reference():
    for seed in range(3):
        w = init_model(TINY_CONFIG, seed=seed, dtype=np.float64)
        tokens = np.random.default_rng(seed).integers(0, TINY_CONFIG.vocab_size, 6)
        hidden = run_block(w, tokens, KVCache.for_config(TINY_CONFIG, dtype=np.float64))
        logits = lm_logits(w, hidden).numpy()
        ref_logits, _ = ref_forward(w, tokens)
        assert np.abs(logits - ref_logits).max() < 1e-9


def test_forward_is_finite_on_trained_scale_inputs():
    w = init_model(DESK_CONFIG, seed=0)
    for lw in w.layers:
        lw.w_gate.data *= 20  # push activations; outputs must stay finite
    hidden = run_block(w, [1, 2, 3, 4], KVCache.for_config(DESK_CONFIG))
    assert np.isfinite(hidden.numpy()).all()


# ---------------------------------------------------------------------------
# weights plumbing
# ---------------------------------------------------------------------------

def test_freeze_marks_and_detaches():
    w = init_model(DESK_CONFIG, seed=0)
    w.freeze()
    assert w.frozen
    assert all(not t.requires_grad for t in w.tensors())


def test_clone_is_deep():
    w = init_model(DESK_CONFIG, seed=0)
    c = w.clone()
    c.token_embedding.data[0, 0] += 1.0
    assert w.token_embedding.data[0, 0] != c.token_embedding.data[0, 0]
    assert w.checksum() != c.checksum()


def test_tied_embeddings_have_no_lm_head_tensor():
    w = init_model(DESK_CONFIG, seed=0)
    assert w.lm_head is None
    untied = init_model(dataclasses.replace(DESK_CONFIG, tied_embeddings=False), seed=0)
    assert untied.lm_head is not None
