import dataclasses

import numpy as np
import pytest

from overfill import tensor as tk
from overfill.errors import ConfigError, DataError
from overfill.model import (DESK_CONFIG, KVCache, ModelConfig, Weights, cache_shape,
                            decode_step, forward_prefill, init_model, lm_logits,
                            run_block)
from overfill.perfmodel import param_count

from helpers import TINY_CONFIG, cache_row, ref_forward


def random_tokens(rng, n, vocab=None):
    return rng.integers(0, vocab or DESK_CONFIG.vocab_size, size=n).tolist()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation_rejects_bad_fields():
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, n_layers=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, n_heads=3, n_kv_heads=2)
    with pytest.raises(ConfigError):
        dataclasses.replace(DESK_CONFIG, head_dim=7)
    for field in ("norm_eps", "rope_theta"):
        for bad in (float("nan"), float("inf"), 10**400, "1e-5", True):
            with pytest.raises(ConfigError, match=field):
                dataclasses.replace(DESK_CONFIG, **{field: bad})
    for field, bad in (("n_layers", True), ("hidden_dim", np.int64(64)),
                       ("tied_embeddings", "no"), ("tied_embeddings", 1),
                       ("tied_embeddings", None)):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(DESK_CONFIG, **{field: bad})


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
    tokens = random_tokens(np.random.default_rng(0), 9)
    cache = KVCache.for_config(DESK_CONFIG, len(tokens))
    out_cache = forward_prefill(w, tokens, cache)
    assert out_cache is cache and out_cache.filled_len == len(tokens)
    hidden = run_block(w, tokens, KVCache.for_config(DESK_CONFIG, len(tokens)))
    last, logits = hidden.numpy()[-1], lm_logits(w, hidden).numpy()[-1]
    assert last.shape == (DESK_CONFIG.hidden_dim,)
    assert logits.shape == (DESK_CONFIG.vocab_size,)


def test_prefill_single_token_prompt():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 1)
    forward_prefill(w, [42], cache)
    assert cache.filled_len == 1


def test_prefill_requires_empty_cache():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 3)
    forward_prefill(w, [1, 2], cache)
    with pytest.raises(ValueError, match="empty cache"):
        forward_prefill(w, [3], cache)


def test_prefill_rejects_out_of_range_token():
    w = init_model(DESK_CONFIG, seed=0)
    for bad in (DESK_CONFIG.vocab_size, -1):
        with pytest.raises(ValueError, match="out of range"):
            forward_prefill(w, [0, bad], KVCache.for_config(DESK_CONFIG, 2))


def test_incremental_decode_matches_batched_prefill():
    w = init_model(DESK_CONFIG, seed=3)
    tokens = random_tokens(np.random.default_rng(1), 12)

    batched = KVCache.for_config(DESK_CONFIG, len(tokens))
    logits_batched = lm_logits(w, run_block(w, tokens, batched)).numpy()[-1]

    incremental = KVCache.for_config(DESK_CONFIG, len(tokens))
    for pos, t in enumerate(tokens):
        logits_inc, _ = decode_step(w, t, incremental, pos)

    for layer in range(DESK_CONFIG.n_layers):
        for a, b in zip(cache_row(batched, layer), cache_row(incremental, layer)):
            assert np.abs(a - b).max() < 1e-5
    assert np.abs(logits_batched - logits_inc.numpy()).max() < 1e-5


def test_decode_continues_prefill_positions():
    # Full-model equivalence of prefill(x) + decode over y vs prefill(x || y).
    w = init_model(DESK_CONFIG, seed=4)
    rng = np.random.default_rng(2)
    x, y = random_tokens(rng, 7), random_tokens(rng, 5)

    joint = KVCache.for_config(DESK_CONFIG, len(x + y))
    joint_logits = lm_logits(w, run_block(w, x + y, joint)).numpy()[-1]

    split = KVCache.for_config(DESK_CONFIG, len(x + y))
    forward_prefill(w, x, split)
    for i, t in enumerate(y):
        logits, _ = decode_step(w, t, split, len(x) + i)
    assert np.abs(joint_logits - logits.numpy()).max() < 1e-5
    for layer in range(DESK_CONFIG.n_layers):
        assert np.abs(cache_row(joint, layer)[0] - cache_row(split, layer)[0]).max() < 1e-5


def test_prefill_writes_the_cache_a_whole_block_writes():
    # The cache-only pass stops after the last layer's K/V; the cache it
    # leaves is the one the whole pass leaves, bit for bit, for one row and
    # for ragged rows.
    w = init_model(DESK_CONFIG, seed=11)
    rng = np.random.default_rng(11)
    tokens = random_tokens(rng, 10)
    short, whole = KVCache.for_config(DESK_CONFIG, 12), KVCache.for_config(DESK_CONFIG, 12)
    assert forward_prefill(w, tokens, short) is short
    run_block(w, tokens, whole)
    packed = random_tokens(rng, 9)
    short_rows = KVCache.for_config(DESK_CONFIG, 6, rows=3)
    whole_rows = KVCache.for_config(DESK_CONFIG, 6, rows=3)
    assert run_block(w, packed, short_rows, row_lens=[4, 0, 5], cache_only=True) is None
    run_block(w, packed, whole_rows, row_lens=[4, 0, 5])
    for a, b in ((short, whole), (short_rows, whole_rows)):
        assert a.row_lens == b.row_lens
        for layer in range(DESK_CONFIG.n_layers):
            for got, want in zip(a.block_view(layer, a.capacity), b.block_view(layer, b.capacity)):
                np.testing.assert_array_equal(got, want)


def test_frozen_decode_step_is_the_taped_one_bit_for_bit():
    frozen = init_model(DESK_CONFIG, seed=12).freeze()
    taped = frozen.clone().set_requires_grad(True)
    prompt = random_tokens(np.random.default_rng(12), 9)
    logits, recorded = {}, {}
    for name, w in (("frozen", frozen), ("taped", taped)):
        cache = KVCache.for_config(DESK_CONFIG, len(prompt) + 3)
        forward_prefill(w, prompt, cache)
        with tk.GradTape() as tape:
            steps = [decode_step(w, tok, cache, cache.filled_len)[0] for tok in (7, 8, 9)]
        logits[name] = [t.numpy().tobytes() for t in steps]
        recorded[name] = len(tape.nodes)
    assert logits["frozen"] == logits["taped"]
    assert recorded["frozen"] == 0 < recorded["taped"]


def test_decode_step_position_mismatch_errors():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 4)
    forward_prefill(w, [1, 2, 3], cache)
    with pytest.raises(ValueError, match="position"):
        decode_step(w, 4, cache, 5)


def test_decode_step_geometry_mismatch_errors():
    w = init_model(DESK_CONFIG, seed=0)
    other = dataclasses.replace(DESK_CONFIG, n_layers=3)
    cache = KVCache.for_config(other, 1)
    with pytest.raises(ValueError, match="geometry"):
        decode_step(w, 1, cache, 0)


def test_decode_appends_exactly_one_row_per_layer():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 1)
    decode_step(w, 5, cache, 0)
    assert cache.filled_len == 1
    for layer in range(DESK_CONFIG.n_layers):
        for rows in cache_row(cache, layer):
            assert rows.shape == (1, DESK_CONFIG.n_kv_heads, DESK_CONFIG.head_dim)


def test_a_claim_past_the_capacity_raises_and_keeps_the_lengths():
    cache = KVCache.for_config(TINY_CONFIG, 8, rows=2)
    cache.append_block([5, 8])
    for counts in ([4, 0], [0, 1], [9, 0]):
        with pytest.raises(DataError, match="capacity 8"):
            cache.append_block(counts)
        assert cache.row_lens == [5, 8]
    w = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(DataError, match="capacity 8"):
        run_block(w, [1, 2, 3, 4], cache, row_lens=[4, 0])
    assert cache.row_lens == [5, 8]
    run_block(w, [1, 2, 3], cache, row_lens=[3, 0])
    assert cache.row_lens == [8, 8]


def test_append_block_extends_every_row_and_returns_the_old_lengths():
    cache = KVCache.for_config(TINY_CONFIG, 100, rows=3)
    assert cache.append_block([5, 0, 100]) == [0, 0, 0]
    assert cache.row_lens == [5, 0, 100] and cache.filled_len == 5
    cache_row(cache, 0, row=0)[0][:] = 3.0
    assert cache.append_block([0, 0, 0]) == [5, 0, 100]
    keys, values = cache_row(cache, 0, row=0)
    assert keys.shape == values.shape == (5, TINY_CONFIG.n_kv_heads, TINY_CONFIG.head_dim)
    assert (keys == 3.0).all()
    keys, values = cache.block_view(1, 100)
    assert keys.shape == values.shape == (3, 100, TINY_CONFIG.n_kv_heads, TINY_CONFIG.head_dim)


# ---------------------------------------------------------------------------
# packed rows
# ---------------------------------------------------------------------------

def _tap_log(log):
    return lambda layer, point, act: log.append((layer, point, act.copy()))


def test_packed_rows_match_one_row_calls():
    # Ragged prompts (one of them empty) in one packed call, then a decoder
    # block per row continuing that multi-row cache, against each row run
    # alone through its own one-row cache.
    w = init_model(DESK_CONFIG, seed=8)
    rng = np.random.default_rng(8)
    prompt_lens, block_lens = [5, 11, 0, 8], [3, 1, 6, 4]
    prompts = [random_tokens(rng, n) for n in prompt_lens]
    blocks = [random_tokens(rng, n) for n in block_lens]

    cache = KVCache.for_config(DESK_CONFIG, 12, rows=4)
    taps = []
    pre = run_block(w, sum(prompts, []), cache, tap=_tap_log(taps), row_lens=prompt_lens)
    dec = run_block(w, sum(blocks, []), cache, tap=_tap_log(taps), row_lens=block_lens)
    assert cache.row_lens == [p + b for p, b in zip(prompt_lens, block_lens)]

    p_off, b_off = np.cumsum([0] + prompt_lens), np.cumsum([0] + block_lens)
    n_pre = len(taps) // 2
    for r in range(4):
        alone = KVCache.for_config(DESK_CONFIG, prompt_lens[r] + block_lens[r])
        alone_taps = []
        if prompt_lens[r]:
            hp = run_block(w, prompts[r], alone, tap=_tap_log(alone_taps))
            np.testing.assert_allclose(pre.numpy()[p_off[r]: p_off[r + 1]], hp.numpy(),
                                       rtol=1e-5, atol=1e-5)
            for (_, _, got), (_, _, want) in zip(taps[:n_pre], alone_taps):
                np.testing.assert_allclose(got[p_off[r]: p_off[r + 1]], want,
                                           rtol=1e-5, atol=1e-5)
            alone_taps.clear()
        hd = run_block(w, blocks[r], alone, tap=_tap_log(alone_taps))
        np.testing.assert_allclose(dec.numpy()[b_off[r]: b_off[r + 1]], hd.numpy(),
                                   rtol=1e-5, atol=1e-5)
        for (li, point, got), (li_, point_, want) in zip(taps[n_pre:], alone_taps):
            assert (li, point) == (li_, point_)
            np.testing.assert_allclose(got[b_off[r]: b_off[r + 1]], want, rtol=1e-5, atol=1e-5)
        for layer in range(DESK_CONFIG.n_layers):
            for got, want in zip(cache_row(cache, layer, r), cache_row(alone, layer)):
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_one_row_call_with_row_lens_is_the_default_call():
    w = init_model(DESK_CONFIG, seed=9)
    tokens = random_tokens(np.random.default_rng(9), 12)
    a, b = KVCache.for_config(DESK_CONFIG, 12), KVCache.for_config(DESK_CONFIG, 12)
    for lo, hi in ((0, 9), (9, 10), (10, 12)):
        ha = run_block(w, tokens[lo:hi], a)
        hb = run_block(w, tokens[lo:hi], b, row_lens=[hi - lo])
        np.testing.assert_array_equal(ha.numpy(), hb.numpy())
    for layer in range(DESK_CONFIG.n_layers):
        for got, want in zip(cache_row(a, layer), cache_row(b, layer)):
            np.testing.assert_array_equal(got, want)


def test_a_row_never_sees_another_rows_tokens():
    w = init_model(DESK_CONFIG, seed=10)
    rng = np.random.default_rng(10)
    lens, more = [6, 9, 4], [2, 3, 1]
    tokens, tail = random_tokens(rng, sum(lens)), random_tokens(rng, sum(more))
    variant, variant_tail = list(tokens), list(tail)
    for i in range(6, 15):                       # every prompt token of row 1
        variant[i] = (variant[i] + 1 + i) % DESK_CONFIG.vocab_size
    variant_tail[2] = (variant_tail[2] + 5) % DESK_CONFIG.vocab_size   # row 1's block

    def run(prompt, block):
        cache = KVCache.for_config(DESK_CONFIG, 12, rows=3)
        h = run_block(w, prompt, cache, row_lens=lens)
        d = run_block(w, block, cache, row_lens=more)
        return h.numpy(), d.numpy(), cache

    h1, d1, c1 = run(tokens, tail)
    h2, d2, c2 = run(variant, variant_tail)
    for lo, hi in ((0, 6), (15, 19)):
        np.testing.assert_array_equal(h1[lo:hi], h2[lo:hi])
    for lo, hi in ((0, 2), (5, 6)):
        np.testing.assert_array_equal(d1[lo:hi], d2[lo:hi])
    assert not (d1[2:5] == d2[2:5]).all()
    for layer in range(DESK_CONFIG.n_layers):
        for r in (0, 2):
            for got, want in zip(cache_row(c1, layer, r), cache_row(c2, layer, r)):
                np.testing.assert_array_equal(got, want)


def test_row_lens_must_split_the_block_over_the_cache_rows():
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 6, rows=2)
    for bad in ([3, 2], [6], [6, 0, 0], [7, -1]):
        with pytest.raises(ValueError, match="row lengths"):
            run_block(w, [1, 2, 3, 4, 5, 6], cache, row_lens=bad)
    assert cache.row_lens == [0, 0]


@pytest.mark.parametrize("n_layers", [1, 4, 7])
def test_run_block_looks_up_the_rope_factors_once(monkeypatch, n_layers):
    lookups = []
    table = tk._rope_table
    monkeypatch.setattr(tk, "_rope_table", lambda *a: lookups.append(a) or table(*a))
    cfg = dataclasses.replace(DESK_CONFIG, n_layers=n_layers)
    w = init_model(cfg, seed=0)
    cache = KVCache.for_config(cfg, 4, rows=2)
    run_block(w, [1, 2, 3, 4, 5], cache, row_lens=[3, 2])       # prefill, ragged rows
    run_block(w, [6, 7], cache, row_lens=[1, 1])                # one decode step per row
    one = KVCache.for_config(cfg, 1)
    run_block(w, [8], one)
    assert len(lookups) == 3


def test_run_block_claims_each_block_with_one_append(monkeypatch):
    claims = []
    append = KVCache.append_block
    monkeypatch.setattr(KVCache, "append_block",
                        lambda self, counts: claims.append(list(counts)) or append(self, counts))
    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 5, rows=3)
    run_block(w, [1, 2, 3, 4, 5], cache, row_lens=[3, 0, 2])    # prefill, ragged rows
    run_block(w, [6, 7, 8], cache, row_lens=[1, 1, 1])          # one decode step per row
    run_block(w, [9], KVCache.for_config(DESK_CONFIG, 1))
    assert claims == [[3, 0, 2], [1, 1, 1], [1]]


def test_a_failed_block_leaves_the_row_lengths_as_they_were():
    def tap(layer, point, act):
        if layer == 1:
            raise RuntimeError("tap failed")

    w = init_model(DESK_CONFIG, seed=0)
    cache = KVCache.for_config(DESK_CONFIG, 6, rows=2)
    run_block(w, [1, 2, 3], cache, row_lens=[2, 1])
    with pytest.raises(RuntimeError, match="tap failed"):
        run_block(w, [4, 5, 6], cache, tap=tap, row_lens=[1, 2])
    assert cache.row_lens == [2, 1]
    run_block(w, [4, 5, 6], cache, row_lens=[1, 2])
    assert cache.row_lens == [3, 3]


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

    h1 = run_block(w, tokens, KVCache.for_config(DESK_CONFIG, len(tokens)))
    h2 = run_block(w, variant, KVCache.for_config(DESK_CONFIG, len(variant)))
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
    a = lm_logits(w, run_block(w, tokens, KVCache.for_config(DESK_CONFIG, len(tokens))))
    b = lm_logits(w, run_block(w, swapped, KVCache.for_config(DESK_CONFIG, len(swapped))))
    assert not (a.numpy()[-1] == b.numpy()[-1]).all()


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
        hidden = run_block(w, tokens, KVCache.for_config(TINY_CONFIG, tokens.size, dtype=np.float64))
        logits = lm_logits(w, hidden).numpy()
        ref_logits, _ = ref_forward(w, tokens)
        assert np.abs(logits - ref_logits).max() < 1e-9


def test_forward_is_finite_on_trained_scale_inputs():
    w = init_model(DESK_CONFIG, seed=0)
    for lw in w.layers:
        lw.w_gate.data *= 20  # push activations; outputs must stay finite
    hidden = run_block(w, [1, 2, 3, 4], KVCache.for_config(DESK_CONFIG, 4))
    assert np.isfinite(hidden.numpy()).all()


# ---------------------------------------------------------------------------
# weights plumbing
# ---------------------------------------------------------------------------

def test_freeze_marks_and_detaches():
    w = init_model(DESK_CONFIG, seed=0).set_requires_grad(True)
    assert w.freeze() is w
    assert not any(t.requires_grad for t in w.tensors())


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
