import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from overfill.checkpoint import load_checkpoint, save_checkpoint
from overfill.corpus import ChatExample, Tokenizer, format_chat, gen_mixture, gen_tasks
from overfill.errors import DataError
from overfill import tensor as tk
from overfill.model import KVCache, init_model, lm_logits, run_block
from overfill.pruner import ImportanceScores, identity_selection, select_channels, slice_model
from overfill.tensor import GradTape, Tensor, grad_of
from overfill.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS, OptState,
                              TrainBatch, TrainConfig, _adam_update, _batch_loss_rows,
                              build_batch, lr_schedule, run_training, train_step,
                              write_training_log)

from helpers import TINY_CONFIG

TOK = Tokenizer()


def tiny_examples(n=8, seed=0):
    return gen_mixture(("copy", "kvlookup"), seed, n)


def desk_small():
    # Shrunk desk config keeps trainer tests fast.
    from overfill.model import DESK_CONFIG

    return dataclasses.replace(DESK_CONFIG, n_layers=2, intermediate_dim=128)


# ---------------------------------------------------------------------------
# build_batch
# ---------------------------------------------------------------------------

def test_build_batch_mask_counts_response_targets():
    ex = ChatExample("s", "user text", "abc", "copy")
    batch = build_batch([ex], TOK, max_seq_len=128)
    ids, m = format_chat(ex, TOK)
    assert batch.loss_mask.sum() == len(ids) - m  # assistant bytes + EOS
    assert batch.prefill_lens[0] == m
    # masked targets are exactly the response region
    masked = batch.targets[0][batch.loss_mask[0]]
    assert masked.tolist() == ids[m:]


def test_build_batch_pads_and_masks_pad_targets():
    exs = [ChatExample("s", "u", "a", "copy"),
           ChatExample("s", "u", "longer answer", "copy")]
    batch = build_batch(exs, TOK, max_seq_len=128)
    t = batch.token_ids.shape[1]
    assert t == batch.row_lengths.max()
    short = batch.row_lengths.argmin()
    assert (batch.token_ids[short, batch.row_lengths[short]:] == TOK.pad).all()
    assert not batch.loss_mask[short, batch.row_lengths[short]:].any()


def test_build_batch_token_count_matches_tokenizer_roundtrip():
    ex = gen_tasks("kvlookup", 3, 1)[0]
    batch = build_batch([ex], TOK, max_seq_len=256)
    ids, _ = format_chat(ex, TOK)
    assert batch.row_lengths[0] == len(ids)
    rendered = TOK.detokenize(batch.token_ids[0, :batch.row_lengths[0]].tolist())
    assert ex.assistant in rendered and ex.user in rendered


def test_build_batch_rejects_empty_assistant():
    with pytest.raises(DataError, match="assistant"):
        build_batch([ChatExample("s", "u", "", "copy")], TOK, 64)


def test_build_batch_skips_fully_truncated_responses():
    keep = ChatExample("", "u", "x", "copy")
    drop = ChatExample("long system prompt " * 8, "user", "yy", "copy")
    batch = build_batch([keep, drop], TOK, max_seq_len=24)
    assert batch.size == 1


# ---------------------------------------------------------------------------
# masked cross entropy (the response-only loss of _batch_loss_rows)
# ---------------------------------------------------------------------------

def tiny_batch(seed=2):
    """Two hand-built rows over the tiny vocabulary with partial loss masks."""
    token_ids = np.random.default_rng(seed).integers(0, TINY_CONFIG.vocab_size, size=(2, 10))
    batch = TrainBatch(token_ids=token_ids, prefill_lens=np.array([4, 6]),
                       row_lengths=np.array([10, 9]), loss_mask=np.zeros((2, 10), bool),
                       targets=np.roll(token_ids, -1, axis=1))
    batch.loss_mask[0, 3:9] = True
    batch.loss_mask[1, 5:8] = True
    return batch


def test_masked_ce_perfect_logits_near_zero():
    # With every projection zeroed the residual stream is the embedding, here
    # a one-hot row, and an untied head that maps token t to t + 1 with a
    # large logit predicts a counting sequence with certainty.
    cfg = dataclasses.replace(TINY_CONFIG, vocab_size=8, tied_embeddings=False)
    w = init_model(cfg, seed=0, dtype=np.float64)
    for lw in w.layers:
        for name in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down"):
            getattr(lw, name).data[:] = 0.0
    w.token_embedding.data[:] = np.eye(8)
    w.lm_head.data[:] = 30.0 * np.roll(np.eye(8), 1, axis=1)
    token_ids = np.array([[3, 4, 5, 6, 7, 0, 1, 2]])
    batch = TrainBatch(token_ids, np.array([3]), np.array([8]),
                       np.arange(8)[None, :] >= 2, np.roll(token_ids, -1, axis=1))
    batch.loss_mask[0, 7] = False
    for prefill_w in (None, w):
        assert _batch_loss_rows(prefill_w, w, batch).item() < 1e-6


def test_masked_ce_uniform_logits_log_vocab():
    # A zero embedding gives zero hidden states and, through the tied head,
    # uniform logits in both regimes.
    w = init_model(TINY_CONFIG, seed=0, dtype=np.float64)
    w.token_embedding.data[:] = 0.0
    for prefill_w in (None, w):
        loss = _batch_loss_rows(prefill_w, w, tiny_batch()).item()
        assert abs(loss - math.log(TINY_CONFIG.vocab_size)) < 1e-12


def test_masked_ce_ignores_masked_out_targets_bitwise():
    # The standalone regime; the two-model one is pinned by
    # test_train_step_loss_invariant_to_prompt_target_perturbation.
    w = init_model(TINY_CONFIG, seed=1)
    batch = tiny_batch()
    base = _batch_loss_rows(None, w, batch).item()
    batch.targets[~batch.loss_mask] = (batch.targets[~batch.loss_mask] + 3) % 13
    assert _batch_loss_rows(None, w, batch).item() == base


def test_masked_ce_all_false_mask_rejected():
    w = init_model(TINY_CONFIG, seed=0)
    batch = tiny_batch()
    batch.loss_mask[:] = False
    with pytest.raises(DataError, match="mask"):
        _batch_loss_rows(None, w, batch)


def test_masked_ce_gradient_matches_finite_differences():
    # The standalone regime, float64; the two-model one is checked end to end below.
    w = init_model(TINY_CONFIG, seed=1, dtype=np.float64).set_requires_grad(True)
    batch = tiny_batch(seed=4)
    with GradTape() as tape:
        loss = _batch_loss_rows(None, w, batch)
    params = w.tensors()
    grads = grad_of(loss, tape, params)

    h = 1e-5
    pick = np.random.default_rng(5)
    for p in params:
        flat, gflat = p.data.reshape(-1), grads[p].reshape(-1)
        for idx in pick.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _batch_loss_rows(None, w, batch).item()
            flat[idx] = orig - h
            dn = _batch_loss_rows(None, w, batch).item()
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - gflat[idx]) <= 1e-3 * max(abs(fd), abs(gflat[idx]), 1e-6)


def per_row_loss(prefill_w, w, batch):
    """The response loss with each row run alone through its own cache."""
    sums, total = [], 0
    for b in range(batch.size):
        m, n = int(batch.prefill_lens[b]), int(batch.row_lengths[b])
        ids = batch.token_ids[b, :n]
        cache = KVCache.for_config(w.config, n, dtype=w.token_embedding.dtype)
        lo = 0 if prefill_w is None else m - 1
        if lo > 0:
            run_block(prefill_w, ids[:lo], cache)
        ce = tk.cross_entropy_rows(lm_logits(w, run_block(w, ids[lo: n - 1], cache)),
                                   batch.targets[b, lo: n - 1])
        msk = batch.loss_mask[b, lo: n - 1]
        sums.append(tk.sum_all(tk.mul(ce, msk.astype(ce.dtype))))
        total += int(msk.sum())
    acc = sums[0]
    for s in sums[1:]:
        acc = tk.add(acc, s)
    return tk.scale(acc, 1.0 / total)


@pytest.mark.parametrize("two_model", [False, True])
def test_packed_loss_matches_the_per_row_loss(two_model):
    cfg = desk_small()

    def pair(dtype):
        return (init_model(cfg, seed=11, dtype=dtype).freeze(),
                init_model(cfg, seed=12, dtype=dtype).set_requires_grad(True))

    examples = [ex for kind in ("copy", "reverse", "modadd", "kvlookup")
                for ex in gen_tasks(kind, 12, 2)]
    batch = build_batch(examples, TOK, max_seq_len=96)
    assert len(set(batch.row_lengths.tolist())) > 1 and len(set(batch.prefill_lens.tolist())) > 1
    full, pruned = pair(np.float32)
    prefill_w = full if two_model else None
    packed = _batch_loss_rows(prefill_w, pruned, batch).item()
    want = per_row_loss(prefill_w, pruned, batch).item()
    assert abs(packed - want) <= 1e-6 * abs(want)

    # The gradients too, in float64 where the two sums agree more closely.
    full64, pruned64 = pair(np.float64)
    grads = []
    for loss_fn in (_batch_loss_rows, per_row_loss):
        with GradTape() as tape:
            loss = loss_fn(full64 if two_model else None, pruned64, batch)
        grads.append(grad_of(loss, tape, pruned64.tensors()))
    for p in pruned64.tensors():
        np.testing.assert_allclose(grads[0][p], grads[1][p], rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_endpoints():
    opt = OptState(base_lr=2e-5, warmup_ratio=0.01, total_steps=1000)
    assert lr_schedule(0, opt) == 0.0
    assert lr_schedule(10, opt) == pytest.approx(2e-5)  # warmup end
    assert lr_schedule(1000, opt) == pytest.approx(0.0, abs=1e-20)
    assert lr_schedule(505, opt) < 2e-5


def test_every_update_takes_a_nonzero_step_size():
    # The schedule is read at the middle of each step, so even the last
    # update of a run moves the weights.
    rows = run_training(None, init_model(desk_small(), seed=2), tiny_examples(8), TOK,
                        TrainConfig(batch_size=2), steps=3, data_seed=0)
    lrs = [r.lr for r in rows]
    assert all(lr > 0 for lr in lrs) and lrs == sorted(lrs, reverse=True)


def test_lr_schedule_rejects_overrun():
    opt = OptState(base_lr=1e-3, warmup_ratio=0.0, total_steps=10)
    with pytest.raises(ValueError):
        lr_schedule(11, opt)


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def make_pair(cfg, seed=0, dtype=np.float32):
    full = init_model(cfg, seed=seed, dtype=dtype)
    pruned, _ = slice_model(full, identity_selection(cfg), cfg)
    if dtype != np.float32:
        pruned = init_model(cfg, seed=seed + 1, dtype=dtype)
    return full, pruned


def test_train_step_requires_frozen_full():
    # One full-model tensor that requires grad is enough to refuse the pair,
    # before anything is updated.
    cfg = desk_small()
    full, pruned = make_pair(cfg)
    full.freeze().layers[-1].w_down.requires_grad = True
    batch = build_batch(tiny_examples(4), TOK, 96)
    opt = OptState.for_weights(pruned, 1e-3, 0.0, 10)
    pruned.set_requires_grad(True)
    before = pruned.checksum()
    with pytest.raises(ValueError, match="full model must be frozen"):
        train_step(full, pruned, batch, opt)
    assert pruned.checksum() == before and opt.step == 0


def test_a_loaded_model_never_frozen_is_a_prefill_model(tmp_path):
    # A loaded model's tensors require no grad, so it prefills as it is.
    cfg = desk_small()
    full, pruned = make_pair(cfg, seed=8)
    save_checkpoint(tmp_path / "full.ovfl", full)
    loaded = load_checkpoint(tmp_path / "full.ovfl", cfg)
    assert not any(t.requires_grad for t in loaded.tensors())
    pruned.set_requires_grad(True)
    before = loaded.checksum()
    opt = OptState.for_weights(pruned, 1e-3, 0.0, 10)
    _, _, loss = train_step(loaded, pruned, build_batch(tiny_examples(4), TOK, 96), opt)
    assert math.isfinite(loss) and opt.step == 1
    assert loaded.checksum() == before


@pytest.mark.parametrize("frozen", ["all", "one"])
def test_train_step_refuses_a_decoder_with_a_tensor_that_requires_no_grad(frozen):
    w = init_model(desk_small(), seed=13).set_requires_grad(frozen == "one")
    w.final_norm_gamma.requires_grad = False
    opt = OptState.for_weights(w, 1e-3, 0.0, 10)
    with pytest.raises(ValueError, match="cannot train a frozen model"):
        train_step(None, w, build_batch(tiny_examples(4), TOK, 96), opt)
    assert opt.step == 0


def test_a_frozen_model_trains_once_its_tensors_require_grad():
    w = init_model(desk_small(), seed=14).freeze().set_requires_grad(True)
    before = w.checksum()
    opt = OptState.for_weights(w, 1e-3, 0.0, 10)
    train_step(None, w, build_batch(tiny_examples(4), TOK, 96), opt)
    assert w.checksum() != before


def test_the_third_of_three_steps_moves_the_decoder():
    # The schedule ends at total_steps, but the last step's update is still
    # taken at a nonzero learning rate.
    cfg = desk_small()
    full, pruned = make_pair(cfg, seed=10)
    full.freeze()
    pruned.set_requires_grad(True)
    batch = build_batch(tiny_examples(4, seed=11), TOK, 96)
    opt = OptState.for_weights(pruned, 1e-3, TrainConfig().warmup_ratio, 3)
    for _ in range(2):
        train_step(full, pruned, batch, opt)
    before = pruned.checksum()
    train_step(full, pruned, batch, opt)
    assert opt.lr > 0 and pruned.checksum() != before


def test_train_step_loss_decreases_on_fixed_batch():
    cfg = desk_small()
    full, _ = make_pair(cfg, seed=3)
    full.freeze()
    rng = np.random.default_rng(0)
    scores = ImportanceScores(rng.random(cfg.hidden_dim),
                              [rng.random(cfg.intermediate_dim)] * cfg.n_layers)
    pruned, _ = slice_model(full, select_channels(scores, cfg.hidden_dim // 2,
                                                  cfg.intermediate_dim // 2), cfg)
    pruned.set_requires_grad(True)
    batch = build_batch(tiny_examples(4, seed=5), TOK, 96)
    opt = OptState.for_weights(pruned, 1e-3, 0.05, 200)
    losses = []
    for _ in range(20):
        _, _, loss = train_step(full, pruned, batch, opt)
        losses.append(loss)
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_train_step_never_touches_frozen_weights():
    cfg = desk_small()
    full, pruned = make_pair(cfg, seed=4)
    full.freeze()
    pruned.set_requires_grad(True)
    before = full.checksum()
    batch = build_batch(tiny_examples(4, seed=6), TOK, 96)
    opt = OptState.for_weights(pruned, 1e-3, 0.0, 120)
    for _ in range(100):
        train_step(full, pruned, batch, opt)
    assert full.checksum() == before


def test_train_step_loss_invariant_to_prompt_target_perturbation():
    cfg = desk_small()
    full, pruned = make_pair(cfg, seed=5)
    full.freeze()
    pruned.set_requires_grad(True)
    batch = build_batch(tiny_examples(4, seed=7), TOK, 96)

    perturbed = TrainBatch(batch.token_ids.copy(), batch.prefill_lens.copy(),
                           batch.row_lengths.copy(), batch.loss_mask.copy(),
                           batch.targets.copy())
    perturbed.targets[~perturbed.loss_mask] = 7  # junk labels off the mask

    opt_a = OptState.for_weights(pruned, 0.0, 0.0, 10)
    _, _, loss_a = train_step(full, pruned, batch, opt_a)
    opt_b = OptState.for_weights(pruned, 0.0, 0.0, 10)
    _, _, loss_b = train_step(full, pruned, perturbed, opt_b)
    assert loss_a == loss_b


def test_train_step_gradients_match_finite_differences_end_to_end():
    # Through the frozen-cache boundary, float64, tiny config.
    cfg = TINY_CONFIG
    full = init_model(cfg, seed=0, dtype=np.float64).freeze()
    pruned = init_model(cfg, seed=1, dtype=np.float64)
    pruned.set_requires_grad(True)
    batch = tiny_batch()

    with GradTape() as tape:
        loss = _batch_loss_rows(full, pruned, batch)
    params = pruned.tensors()
    grads = grad_of(loss, tape, params)

    h = 1e-5
    rng = np.random.default_rng(3)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = grads[p].reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _batch_loss_rows(full, pruned, batch).item()
            flat[idx] = orig - h
            dn = _batch_loss_rows(full, pruned, batch).item()
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    assert worst < 1e-3, worst


def test_standalone_training_decreases_loss():
    cfg = desk_small()
    w = init_model(cfg, seed=6)
    rows = run_training(None, w, tiny_examples(16, seed=8), TOK,
                        TrainConfig(batch_size=4, warmup_ratio=0.05), steps=15, data_seed=0)
    assert rows[-1].loss < rows[0].loss
    assert rows[-1].tokens_seen > rows[0].tokens_seen


def test_training_determinism_bit_identical():
    cfg = desk_small()

    def one_run():
        full, _ = make_pair(cfg, seed=7)
        full.freeze()
        rng = np.random.default_rng(1)
        scores = ImportanceScores(rng.random(cfg.hidden_dim),
                                  [rng.random(cfg.intermediate_dim)] * cfg.n_layers)
        pruned, _ = slice_model(full, select_channels(scores, 32, 64), cfg)
        rows = run_training(full, pruned, tiny_examples(12, seed=9), TOK,
                            TrainConfig(batch_size=4, warmup_ratio=0.1), steps=8, data_seed=5)
        return rows[-1].loss, pruned.checksum()

    (loss_a, sum_a), (loss_b, sum_b) = one_run(), one_run()
    assert loss_a == loss_b
    assert sum_a == sum_b


def test_write_training_log(tmp_path):
    from overfill.trainer import TrainLogRow

    path = tmp_path / "log.csv"
    write_training_log(path, [TrainLogRow(1, 1e-3, 2.5, 64)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,lr,loss,tokens_seen"
    assert lines[1] == "1,0.001,2.5,64"


def test_run_training_checks_its_inputs_before_touching_the_weights():
    # Both models start opposite to how run_training leaves them, so an
    # early freeze() or set_requires_grad(True) would show.
    full, pruned = make_pair(desk_small(), seed=2)
    full.set_requires_grad(True)
    with pytest.raises(DataError, match="exceeds dataset size"):
        run_training(full, pruned, tiny_examples(4), TOK, TrainConfig(batch_size=64),
                     steps=1, data_seed=0)
    assert all(t.requires_grad for t in full.tensors())
    assert not any(t.requires_grad for t in pruned.tensors())


# ---------------------------------------------------------------------------
# Adam update
# ---------------------------------------------------------------------------

def _reference_adam_update(tensors, grads, opt):
    """The plain formula, one whole-array op at a time."""
    opt.step += 1
    lr = lr_schedule(min(opt.step, opt.total_steps) - 0.5, opt)
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
    return lr


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_update_matches_the_reference_formula(dtype):
    def params():
        rng = np.random.default_rng(0)
        return [Tensor(rng.standard_normal(5 * ADAM_BLOCK // 2), True, dtype),  # partial last block
                Tensor(rng.standard_normal((3, 7)), True, dtype),               # under one block
                Tensor(np.asfortranarray(rng.standard_normal((300, 200)).astype(dtype)), True)]

    ours, ref = params(), params()
    assert not ours[2].data.flags.c_contiguous
    opt = OptState.for_weights(SimpleNamespace(tensors=lambda: ours), 1e-2, 0.5, 4)
    ref_opt = OptState(1e-2, 0.5, 4, m=[np.zeros_like(p.data) for p in ref],
                       v=[np.zeros_like(p.data) for p in ref])
    rng = np.random.default_rng(1)
    for _ in range(4):
        gs = [rng.standard_normal(p.shape).astype(dtype) for p in ours]
        lr = _adam_update(ours, dict(zip(ours, gs)), opt)
        assert lr == _reference_adam_update(ref, dict(zip(ref, gs)), ref_opt)
        for i, (p, q) in enumerate(zip(ours, ref)):
            assert _bits(p.data) == _bits(q.data)
            assert _bits(opt.m[i]) == _bits(ref_opt.m[i])
            assert _bits(opt.v[i]) == _bits(ref_opt.v[i])


def test_train_step_updates_moments_in_place_and_rebinds_the_weights(monkeypatch):
    cfg = desk_small()
    full, pruned = make_pair(cfg, seed=9)
    full.freeze()
    pruned.set_requires_grad(True)
    q = next(t for t in pruned.tensors() if t.data.ndim == 2)
    q.data = np.asfortranarray(q.data)   # its moments must still be C-ordered
    assert not q.data.flags.c_contiguous
    opt = OptState.for_weights(pruned, 1e-3, 0.0, 10)
    moments = opt.m + opt.v
    batch = build_batch(tiny_examples(4, seed=3), TOK, 96)

    zero_filled = []
    real_zeros_like = np.zeros_like

    def zeros_like(a, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "<dictcomp>":
            caller = caller.f_back
        if caller.f_code is grad_of.__code__:
            zero_filled.append(a)
        return real_zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", zeros_like)
    for _ in range(2):
        before = [p.data for p in pruned.tensors()]
        saved = [a.copy() for a in before]
        train_step(full, pruned, batch, opt)
        assert all(a is b for a, b in zip(opt.m + opt.v, moments))
        assert all(a.flags.c_contiguous for a in moments)
        assert all(_bits(a) == _bits(b) for a, b in zip(before, saved))
        assert all(p.data is not a for p, a in zip(pruned.tensors(), before))
    assert all(m.any() for m in opt.m)
    assert zero_filled == []
    # The counter sees grad_of's default: a parameter outside the loss gets one.
    p, idle = Tensor(np.ones(3), True), Tensor(np.ones(2), True)
    with GradTape() as tape:
        loss = tk.sum_all(p)
    grad_of(loss, tape, [p, idle])
    assert len(zero_filled) == 1 and zero_filled[0] is idle.data
