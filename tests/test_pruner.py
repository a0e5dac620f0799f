import dataclasses
import json

import numpy as np
import pytest

from overfill import pruner
from overfill.errors import ConfigError, DataError
from overfill.model import DESK_CONFIG, KVCache, cache_shape, init_model, run_block
from overfill.perfmodel import param_count
from overfill.pruner import (ActivationStats, ChannelSelection, ImportanceScores,
                             PruneConfig, collect_activations, compute_pruned_dims,
                             identity_selection, prune_pipeline, score_channels,
                             select_channels, slice_model)

from helpers import TINY_CONFIG, ref_forward


def pc(p_hidden, p_inter=None):
    return PruneConfig(p_hidden=p_hidden,
                       p_intermediate=p_hidden if p_inter is None else p_inter)


# ---------------------------------------------------------------------------
# pruned dimension arithmetic (values cross-checked against the released
# model family's published pruning configurations)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,ratio,expected", [
    (3072, 0.45, 1689),
    (3072, 0.70, 921),
    (3072, 0.25, 2304),
    (4096, 0.43, 2334),
])
def test_hidden_dims_match_published_configs(dim, ratio, expected):
    kept, _ = compute_pruned_dims(dim, dim, pc(ratio))
    assert kept == expected


@pytest.mark.parametrize("dim,ratio,expected", [
    (8192, 0.45, 4505),
    (14336, 0.43, 8171),
])
def test_intermediate_dims_match_published_configs(dim, ratio, expected):
    _, kept = compute_pruned_dims(dim, dim, pc(0.0, ratio))
    assert kept == expected


def test_pruned_dims_floor_and_rounding():
    assert compute_pruned_dims(10, 10, pc(0.45)) == (5, 5)
    cfg = PruneConfig(p_hidden=0.45, p_intermediate=0.45, hardware_round_to=16)
    assert compute_pruned_dims(3072, 8192, cfg) == (1680, 4496)


def test_pruned_dims_reject_empty_result():
    with pytest.raises(ConfigError):
        compute_pruned_dims(1, 1, PruneConfig(p_hidden=0.99, p_intermediate=0.0))
    with pytest.raises(ConfigError):
        PruneConfig(p_hidden=1.0, p_intermediate=0.0)


# ---------------------------------------------------------------------------
# activation collection
# ---------------------------------------------------------------------------

def _sumsq(act):
    """What collect_activations keeps of raw [rows, seq, C] activations."""
    return (act * act).sum(axis=0)


def test_collect_activations_shapes():
    w = init_model(DESK_CONFIG, seed=0)
    batch = np.random.default_rng(0).integers(0, 260, size=(1, 8))
    stats = collect_activations(w, [batch])
    assert len(stats.pre_attn) == DESK_CONFIG.n_layers
    for li in range(DESK_CONFIG.n_layers):
        assert stats.pre_attn[li].shape == (8, 64)
        assert stats.pre_ffn[li].shape == (8, 64)
        assert stats.ffn_inner[li].shape == (8, 256)


def test_collect_activations_identical_rows_identical_stats():
    w = init_model(DESK_CONFIG, seed=1)
    row = np.random.default_rng(1).integers(0, 260, size=8)
    one = collect_activations(w, [row[None]])
    three = collect_activations(w, [np.stack([row, row, row])])
    for point in ("pre_attn", "pre_ffn", "ffn_inner"):
        for s1, s3 in zip(getattr(one, point), getattr(three, point)):
            np.testing.assert_allclose(s3, 3 * s1, rtol=1e-5)


def test_collect_activations_empty_rejected():
    w = init_model(DESK_CONFIG, seed=0)
    with pytest.raises(DataError, match="empty"):
        collect_activations(w, [])


def test_collected_activations_match_independent_reinstrumentation():
    w = init_model(TINY_CONFIG, seed=2, dtype=np.float64)
    rows = np.random.default_rng(2).integers(0, TINY_CONFIG.vocab_size, size=(2, 6))
    stats = collect_activations(w, [rows])
    taps = [ref_forward(w, row, collect_taps=True)[1] for row in rows]
    for li in range(TINY_CONFIG.n_layers):
        for point in ("pre_attn", "pre_ffn", "ffn_inner"):
            expected = sum(t[(li, point)] ** 2 for t in taps)
            assert np.abs(getattr(stats, point)[li] - expected).max() < 1e-9


def test_scores_equal_the_formula_over_every_kept_activation():
    # The reference keeps every tapped row, concatenates the batches and
    # scores sqrt((a * a).sum(axis=0)).mean(axis=0) in float64; running sums
    # added in collection order must give the same bits.
    w = init_model(TINY_CONFIG, seed=7)
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, TINY_CONFIG.vocab_size, size=(r, 6)) for r in (3, 1, 2)]
    kept = {}
    for batch in batches:
        def keep(li, point, act, shape=batch.shape):
            kept.setdefault((li, point), []).append(act.reshape(shape + act.shape[1:]).copy())

        cache = KVCache.for_config(TINY_CONFIG, 6, rows=len(batch))
        run_block(w, batch.reshape(-1), cache, tap=keep, row_lens=[6] * len(batch))

    def reference_score(li, point):
        a = np.concatenate(kept[(li, point)]).astype(np.float64)
        return np.sqrt((a * a).sum(axis=0)).mean(axis=0)

    scores = score_channels(collect_activations(w, batches))
    hidden = np.zeros(TINY_CONFIG.hidden_dim)
    for li in range(TINY_CONFIG.n_layers):
        hidden += reference_score(li, "pre_attn") + reference_score(li, "pre_ffn")
        assert np.array_equal(scores.inter_scores[li], reference_score(li, "ffn_inner"))
    assert np.array_equal(scores.hidden_scores, hidden)


def test_activation_stats_do_not_grow_with_the_calibration_set():
    w = init_model(TINY_CONFIG, seed=8)
    batches = np.random.default_rng(8).integers(0, TINY_CONFIG.vocab_size, size=(4, 2, 6))

    def nbytes(stats):
        return sum(a.nbytes for point in (stats.pre_attn, stats.pre_ffn, stats.ffn_inner)
                   for a in point)

    assert nbytes(collect_activations(w, batches[:1])) == nbytes(collect_activations(w, batches))


def test_unequal_sequence_lengths_rejected_before_any_batch_runs(monkeypatch):
    w = init_model(TINY_CONFIG, seed=9)
    rng = np.random.default_rng(9)
    batches = [rng.integers(0, TINY_CONFIG.vocab_size, size=(2, n)) for n in (6, 5)]
    calls = []
    real = pruner.run_block
    monkeypatch.setattr(pruner, "run_block", lambda *a, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(DataError, match="sequence length"):
        collect_activations(w, batches)
    assert calls == []


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_batch_of_one_degenerates_to_mean_abs():
    act = np.random.default_rng(3).normal(size=(1, 5, 4))
    stats = ActivationStats(pre_attn=[_sumsq(act)], pre_ffn=[np.zeros((5, 4))],
                            ffn_inner=[np.zeros((5, 6))])
    scores = score_channels(stats)
    np.testing.assert_allclose(scores.hidden_scores, np.abs(act[0]).mean(axis=0),
                               atol=1e-12)


def test_score_homogeneity_and_rank_stability():
    rng = np.random.default_rng(4)
    act = rng.normal(size=(3, 5, 4))
    inner = rng.normal(size=(3, 5, 6))
    s1 = score_channels(ActivationStats([_sumsq(act)], [_sumsq(act)], [_sumsq(inner)]))
    s2 = score_channels(ActivationStats([_sumsq(act * 2)], [_sumsq(act * 2)],
                                        [_sumsq(inner * 2)]))
    np.testing.assert_allclose(s2.hidden_scores, 2 * s1.hidden_scores, rtol=1e-12)
    assert (np.argsort(s1.hidden_scores) == np.argsort(s2.hidden_scores)).all()
    np.testing.assert_allclose(s2.inter_scores[0], 2 * s1.inter_scores[0], rtol=1e-12)


def test_scores_match_spreadsheet_style_oracle():
    # 2 layers, batch 2, seq 3, D=4: direct elementwise computation.
    rng = np.random.default_rng(5)
    pre_attn = [rng.normal(size=(2, 3, 4)) for _ in range(2)]
    pre_ffn = [rng.normal(size=(2, 3, 4)) for _ in range(2)]
    inner = [rng.normal(size=(2, 3, 6)) for _ in range(2)]
    scores = score_channels(ActivationStats([_sumsq(a) for a in pre_attn],
                                            [_sumsq(a) for a in pre_ffn],
                                            [_sumsq(a) for a in inner]))

    def hook(a):
        out = np.zeros(a.shape[-1])
        for c in range(a.shape[-1]):
            per_pos = [np.sqrt(sum(a[b, s, c] ** 2 for b in range(a.shape[0])))
                       for s in range(a.shape[1])]
            out[c] = np.mean(per_pos)
        return out

    expected_hidden = sum(hook(pre_attn[l]) + hook(pre_ffn[l]) for l in range(2))
    np.testing.assert_allclose(scores.hidden_scores, expected_hidden, atol=1e-12)
    for l in range(2):
        np.testing.assert_allclose(scores.inter_scores[l], hook(inner[l]), atol=1e-12)


def test_scores_nonnegative_finite():
    w = init_model(DESK_CONFIG, seed=6)
    batch = np.random.default_rng(6).integers(0, 260, size=(4, 16))
    scores = score_channels(collect_activations(w, [batch]))
    assert (scores.hidden_scores >= 0).all() and np.isfinite(scores.hidden_scores).all()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_all_equal_scores_takes_lowest_indices():
    scores = ImportanceScores(np.ones(8), [np.ones(8)])
    sel = select_channels(scores, 3, 2)
    assert sel.hidden_idx.tolist() == [0, 1, 2]
    assert sel.inter_idx[0].tolist() == [0, 1]


def test_select_direct_top_k():
    scores = ImportanceScores(np.array([0.1, 5.0, 3.0, 4.0]), [np.array([1.0, 0.0])])
    sel = select_channels(scores, 2, 1)
    assert sel.hidden_idx.tolist() == [1, 3]


def test_select_matches_full_sort_oracle_every_k():
    rng = np.random.default_rng(7)
    scores = rng.random(64)
    scores[10] = scores[20]  # manufacture a tie
    imp = ImportanceScores(scores, [scores.copy()])
    for k in range(1, 65):
        sel = select_channels(imp, k, 1)
        ranked = sorted(range(64), key=lambda i: (-scores[i], i))
        assert sel.hidden_idx.tolist() == sorted(ranked[:k])


def test_selection_positive_scaling_invariance():
    rng = np.random.default_rng(8)
    scores = rng.random(32)
    a = select_channels(ImportanceScores(scores, [scores]), 11, 5)
    b = select_channels(ImportanceScores(scores * 7.3, [scores * 7.3]), 11, 5)
    assert (a.hidden_idx == b.hidden_idx).all()
    assert (a.inter_idx[0] == b.inter_idx[0]).all()


def test_selection_json_roundtrip(tmp_path):
    sel = ChannelSelection(np.array([0, 3, 5]), [np.array([1, 2])],
                           provenance={"calib_seed": 0, "p_hidden": 0.5})
    path = tmp_path / "sel.json"
    sel.save(path)
    assert json.loads(path.read_text()) == {
        "hidden_idx": [0, 3, 5], "inter_idx": [[1, 2]],
        "provenance": {"calib_seed": 0, "p_hidden": 0.5}}


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def test_identity_slice_is_bit_identical():
    w = init_model(DESK_CONFIG, seed=9)
    pruned, cfg = slice_model(w, identity_selection(DESK_CONFIG), DESK_CONFIG)
    assert cfg == DESK_CONFIG
    for (na, ta), (nb, tb) in zip(w.named_tensors(), pruned.named_tensors()):
        assert na == nb and (ta.data == tb.data).all()


def test_slice_preserves_cache_shape():
    w = init_model(DESK_CONFIG, seed=10)
    sel = select_channels(ImportanceScores(
        np.random.default_rng(9).random(64),
        [np.random.default_rng(10 + l).random(256) for l in range(4)]), 32, 100)
    _, pruned_cfg = slice_model(w, sel, DESK_CONFIG)
    assert cache_shape(pruned_cfg) == cache_shape(DESK_CONFIG)
    assert pruned_cfg.hidden_dim == 32 and pruned_cfg.intermediate_dim == 100


def test_slice_index_mapping_elementwise():
    rng = np.random.default_rng(11)
    w = init_model(DESK_CONFIG, seed=12)
    h = np.sort(rng.choice(64, size=24, replace=False))
    inter = [np.sort(rng.choice(256, size=96, replace=False)) for _ in range(4)]
    sel = ChannelSelection(h.astype(np.int64), [m.astype(np.int64) for m in inter])
    pruned, _ = slice_model(w, sel, DESK_CONFIG)

    for li, (lw, plw) in enumerate(zip(w.layers, pruned.layers)):
        m = inter[li]
        for r, src in enumerate(h):
            assert (plw.w_q.data[r] == lw.w_q.data[src]).all()
            assert (plw.w_k.data[r] == lw.w_k.data[src]).all()
            assert plw.attn_norm_gamma.data[r] == lw.attn_norm_gamma.data[src]
        for c, src_c in enumerate(h):
            assert (plw.w_o.data[:, c] == lw.w_o.data[:, src_c]).all()
        for r, src in enumerate(h):
            for c, src_c in enumerate(m):
                assert plw.w_gate.data[r, c] == lw.w_gate.data[src, src_c]
                assert plw.w_up.data[r, c] == lw.w_up.data[src, src_c]
        for r, src in enumerate(m[:8]):
            assert (plw.w_down.data[r] == lw.w_down.data[src][h]).all()
    assert (pruned.token_embedding.data == w.token_embedding.data[:, h]).all()
    assert (pruned.final_norm_gamma.data == w.final_norm_gamma.data[h]).all()


def test_param_count_strictly_decreases_under_pruning():
    w = init_model(DESK_CONFIG, seed=13)
    rng = np.random.default_rng(12)
    scores = ImportanceScores(rng.random(64), [rng.random(256) for _ in range(4)])
    for d_kept, i_kept in [(63, 256), (64, 255), (32, 128)]:
        pruned, pruned_cfg = slice_model(
            w, select_channels(scores, d_kept, i_kept), DESK_CONFIG)
        assert pruned.param_count() < w.param_count()
        assert pruned.param_count() == param_count(pruned_cfg)


def test_slice_rejects_mismatched_selection():
    w = init_model(DESK_CONFIG, seed=0)
    bad = ChannelSelection(np.array([0, 0, 1]), [np.array([0])] * 4)
    with pytest.raises(ConfigError, match="increasing"):
        slice_model(w, bad, DESK_CONFIG)
    short = ChannelSelection(np.array([0, 1]), [np.array([0])] * 3)
    with pytest.raises(ConfigError, match="layers"):
        slice_model(w, short, DESK_CONFIG)


def test_pipeline_determinism():
    w = init_model(DESK_CONFIG, seed=14)
    batches = [np.random.default_rng(13).integers(0, 260, size=(2, 12))]
    cfg = PruneConfig(p_hidden=0.5, p_intermediate=0.5)
    _, _, sel_a = prune_pipeline(w, batches, cfg)
    _, _, sel_b = prune_pipeline(w, batches, cfg)
    assert (sel_a.hidden_idx == sel_b.hidden_idx).all()
    for a, b in zip(sel_a.inter_idx, sel_b.inter_idx):
        assert (a == b).all()
