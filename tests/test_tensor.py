import math

import numpy as np
import pytest

from overfill import tensor as tk
from overfill.tensor import GradTape, ShapeError, GradError, Tensor, grad_of

from helpers import fd_gradcheck


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    b = rng().normal(size=(2, 5))
    out = tk.matmul(np.eye(2), b)
    np.testing.assert_array_equal(out.numpy(), b)


def test_matmul_zero_annihilates():
    out = tk.matmul(np.zeros((3, 4)), rng().normal(size=(4, 2)))
    np.testing.assert_array_equal(out.numpy(), np.zeros((3, 2), dtype=np.float32))


def test_matmul_matches_naive_loop_oracle():
    a = rng(1).normal(size=(3, 4))
    b = rng(2).normal(size=(4, 2))
    out = tk.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).numpy()
    naive = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            naive[i, j] = acc
    assert np.abs(out - naive).max() / np.abs(naive).max() < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        tk.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_matmul_deterministic_across_calls():
    a = rng(3).normal(size=(17, 33)).astype(np.float32)
    b = rng(4).normal(size=(33, 9)).astype(np.float32)
    first = tk.matmul(a, b).numpy()
    for _ in range(3):
        assert (tk.matmul(a, b).numpy() == first).all()


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_constant_row_is_uniform():
    out = tk.softmax_rows(np.full((2, 5), 3.7)).numpy()
    np.testing.assert_allclose(out, 0.2, atol=1e-7)


def test_softmax_shift_invariance():
    x = rng(5).normal(size=(4, 6))
    a = tk.softmax_rows(x).numpy()
    b = tk.softmax_rows(x + 11.5).numpy()
    assert np.abs(a - b).max() < 1e-6


def test_softmax_closed_form():
    out = tk.softmax_rows(np.array([[0.0, math.log(3.0)]])).numpy()
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)


def test_softmax_rows_sum_to_one():
    x = rng(6).normal(size=(50, 17)) * 30
    out = tk.softmax_rows(x).numpy()
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
    assert (out >= 0).all()
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# rms_norm
# ---------------------------------------------------------------------------

def test_rms_norm_unit_input():
    out = tk.rms_norm(np.ones((3, 4)), np.ones(4), eps=0.0).numpy()
    np.testing.assert_allclose(out, 1.0, atol=1e-7)


def test_rms_norm_zero_gamma():
    out = tk.rms_norm(rng().normal(size=(2, 4)), np.zeros(4), eps=0.0).numpy()
    np.testing.assert_array_equal(out, 0.0)


def test_rms_norm_hand_computed():
    out = tk.rms_norm(np.array([[3.0, 4.0]]), np.ones(2), eps=0.0).numpy()
    np.testing.assert_allclose(out, [[0.84852814, 1.13137085]], atol=1e-6)


def test_rms_norm_dimension_mismatch():
    with pytest.raises(ShapeError):
        tk.rms_norm(np.ones((2, 4)), np.ones(5), eps=0.0)


@pytest.mark.parametrize("op", [tk.add, tk.mul])
def test_elementwise_ops_reject_different_shapes(op):
    # No broadcasting: a vector does not stretch over the rows.
    with pytest.raises(ShapeError, match=r"\(3, 4\) and \(4,\) differ"):
        op(np.ones((3, 4)), np.ones(4))


def test_rms_norm_equals_the_np_mean_formula_bit_for_bit():
    for dt in (np.float32, np.float64):
        for shape in ((1, 64), (7, 64), (5, 320)):
            x = rng(3).normal(size=shape).astype(dt)
            gamma = rng(4).normal(size=shape[1]).astype(dt)
            ms = np.mean(x * x, axis=-1, keepdims=True)
            expected = x * (1.0 / np.sqrt(ms + 1e-5)) * gamma
            out = tk.rms_norm(x, gamma, 1e-5).numpy()
            assert out.dtype == dt and np.array_equal(out, expected), (dt, shape)


# ---------------------------------------------------------------------------
# rope
# ---------------------------------------------------------------------------

def rope(x, positions, head_dim, theta_base):
    """rope_rows of x with the factors for its positions and dtype."""
    return tk.rope_rows(x, tk.rope_factors(positions, head_dim, theta_base, x.dtype))


def test_rope_position_zero_is_identity():
    x = rng(7).normal(size=(3, 8)).astype(np.float32)
    out = rope(x, [0, 0, 0], head_dim=8, theta_base=10000.0).numpy()
    np.testing.assert_array_equal(out, x)


def test_rope_preserves_pair_norms():
    x = rng(8).normal(size=(4, 16))
    out = rope(x, [9] * 4, head_dim=16, theta_base=10000.0).numpy()
    pairs_in = x.reshape(4, 8, 2)
    pairs_out = out.reshape(4, 8, 2)
    n_in = np.linalg.norm(pairs_in, axis=-1)
    n_out = np.linalg.norm(pairs_out, axis=-1)
    assert np.abs(n_in - n_out).max() < 1e-6


def test_rope_closed_form():
    out = rope(np.array([[1.0, 0.0]]), [1], head_dim=2, theta_base=10000.0).numpy()
    np.testing.assert_allclose(out, [[math.cos(1.0), math.sin(1.0)]], atol=1e-6)


def test_rope_rejects_odd_head_dim():
    with pytest.raises(ShapeError):
        tk.rope_factors([0, 1], head_dim=3, theta_base=10000.0, dtype=np.float64)


def test_rope_rejects_negative_positions():
    with pytest.raises(ShapeError, match="positions must be >= 0"):
        tk.rope_factors([0, -1, 2], head_dim=4, theta_base=10000.0, dtype=np.float32)


def test_rope_rejects_factors_of_another_shape_or_dtype():
    x = np.ones((3, 8), dtype=np.float32)
    with pytest.raises(ShapeError):
        tk.rope_rows(x, tk.rope_factors([0, 1], 4, 10000.0, np.float32))
    with pytest.raises(ShapeError):
        tk.rope_rows(x, tk.rope_factors([0, 1, 2], 4, 10000.0, np.float64))
    with pytest.raises(ShapeError):
        tk.rope_rows(x, tk.rope_factors([0, 1, 2], 6, 10000.0, np.float32))


def test_rope_rows_matches_per_position_apply():
    x = rng(9).normal(size=(5, 8))
    block = rope(x, np.arange(5), head_dim=4, theta_base=10000.0).numpy()
    for t in range(5):
        single = rope(x[t:t + 1], [t], head_dim=4, theta_base=10000.0)
        np.testing.assert_allclose(block[t:t + 1], single.numpy(), atol=1e-6)


# ---------------------------------------------------------------------------
# grad_of and the tape
# ---------------------------------------------------------------------------

def test_grad_linear_case_with_frozen_input():
    w = Tensor(rng(10).normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    x = Tensor(rng(11).normal(size=(4, 2)), requires_grad=False, dtype=np.float64)
    with GradTape() as tape:
        loss = tk.sum_all(tk.matmul(w, x))
    grads = grad_of(loss, tape, [w])
    assert set(grads) == {w}
    expected = np.ones((3, 2)) @ x.numpy().T
    np.testing.assert_allclose(grads[w], expected, atol=1e-12)


def test_grad_constant_loss_is_zero():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = Tensor(np.asarray(5.0))
    grads = grad_of(loss, tape, [p])
    np.testing.assert_array_equal(grads[p], 0.0)


def test_grad_rejects_non_scalar_loss():
    p = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        out = tk.scale(p, 2.0)
    with pytest.raises(GradError, match="scalar"):
        grad_of(out, tape, [p])


def test_grad_rejects_detached_param():
    p = Tensor(np.ones(3), requires_grad=False)
    with GradTape() as tape:
        loss = tk.sum_all(Tensor(np.ones(3), requires_grad=True))
    with pytest.raises(GradError, match="detached"):
        grad_of(loss, tape, [p])


def test_grad_rejects_loss_off_tape():
    p = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        pass
    loss = tk.sum_all(p)  # recorded nowhere: no tape active
    with pytest.raises(GradError, match="not recorded"):
        grad_of(loss, tape, [p])


def test_grad_shared_parameter_accumulates():
    w = Tensor(rng(12).normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
    with GradTape() as tape:
        loss = tk.sum_all(tk.add(tk.matmul(w, w.numpy()), tk.scale(w, 3.0)))
    grads = grad_of(loss, tape, [w])

    def f(m):
        return (m @ w.numpy() + 3 * m).sum()

    h = 1e-6
    i, j = 1, 2
    base = w.numpy().copy()
    bumped = base.copy()
    bumped[i, j] += h
    fd = (f(bumped) - f(base)) / h
    assert abs(grads[w][i, j] - fd) < 1e-4


def test_grad_rms_norm_matmul_chain_finite_differences():
    x = rng(13).normal(size=(3, 4))
    gamma = np.ones(4)
    w = rng(14).normal(size=(4, 2))

    def build(ts):
        xx, gg, ww = ts
        return tk.sum_all(tk.matmul(tk.rms_norm(xx, gg, 1e-5), ww))

    fd_gradcheck(build, [x, gamma, w], tol=1e-4)


# Every op type gets a finite-difference check against its backward rule.
FD_CASES = {
    "matmul": lambda ts: tk.sum_all(tk.mul(tk.matmul(ts[0], ts[1]), _W(3, 2))),
    "matmul_nt": lambda ts: tk.sum_all(tk.mul(tk.matmul_nt(ts[0], ts[2]), _W(3, 5))),
    "add": lambda ts: tk.sum_all(tk.mul(tk.add(ts[0], ts[7]), _W(3, 4))),
    "mul": lambda ts: tk.sum_all(tk.mul(tk.mul(ts[0], ts[7]), _W(3, 4))),
    "scale": lambda ts: tk.sum_all(tk.mul(tk.scale(ts[0], -1.7), _W(3, 4))),
    "silu": lambda ts: tk.sum_all(tk.mul(tk.silu(ts[0]), _W(3, 4))),
    "softmax_rows": lambda ts: tk.sum_all(tk.mul(tk.softmax_rows(ts[0]), _W(3, 4))),
    "rms_norm": lambda ts: tk.sum_all(tk.mul(tk.rms_norm(ts[0], ts[3], 1e-5), _W(3, 4))),
    "rope_rows": lambda ts: tk.sum_all(
        tk.mul(rope(ts[0], [0, 2, 5], 2, 100.0), _W(3, 4))),
    "embedding": lambda ts: tk.sum_all(tk.mul(tk.embedding(ts[0], [2, 0, 2]), _W(3, 4))),
    "slice_rows": lambda ts: tk.sum_all(tk.mul(tk.slice_rows(ts[0], 1, 3), _W(2, 4))),
    "reshape": lambda ts: tk.sum_all(tk.mul(tk.reshape(ts[0], (4, 3)), _W(4, 3))),
    "sum_all": lambda ts: tk.sum_all(ts[0]),
    "cross_entropy_rows": lambda ts: tk.sum_all(
        tk.mul(tk.cross_entropy_rows(ts[4], [0, 3, 1]), _W(3))),
    "attend": lambda ts: tk.sum_all(tk.mul(
        tk.attend(ts[0], ts[5], ts[6], _HIST(2, ts[5]), _HIST(3, ts[6]), n_heads=2,
                  n_kv_heads=1, head_dim=2,
                  mask=np.where(np.tril(np.ones((3, 5), bool), k=2), 0.0, -1e9)),
        _W(3, 4))),
}


def _HIST(seed, block):
    """One cache row: two constant history positions, then the block's own."""
    return np.concatenate([rng(seed).normal(size=(2, 1, 2)),
                           block.data.reshape(3, 1, 2)])[None]


def _W(*shape):
    return rng(99).normal(size=shape)


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_finite_differences_per_op(name):
    arrays = [
        rng(20).normal(size=(3, 4)),   # generic input / attend queries
        rng(21).normal(size=(4, 2)),   # matmul partner
        rng(22).normal(size=(5, 4)),   # matmul_nt partner
        rng(23).normal(size=4),        # rms_norm gain
        rng(24).normal(size=(3, 5)),   # logits
        rng(25).normal(size=(3, 2)),   # attend block keys
        rng(26).normal(size=(3, 2)),   # attend block values
        rng(27).normal(size=(3, 4)),   # add / mul partner
    ]
    fd_gradcheck(FD_CASES[name], arrays, tol=1e-4)


def test_ops_without_tape_do_not_record():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        pass
    tk.matmul(p, np.ones((2, 2)))
    assert tape.nodes == []


def test_frozen_inputs_record_nothing():
    a = Tensor(np.ones((2, 2)), requires_grad=False)
    with GradTape() as tape:
        tk.matmul(a, np.ones((2, 2)))
    assert tape.nodes == []


# ---------------------------------------------------------------------------
# fast paths: bit for bit what the general forms compute
# ---------------------------------------------------------------------------

# (k, n) of every product of a decode step at DESK_CONFIG (hidden 64, attention
# 64, kv 32, FFN 256, vocab 260) and at the 72.4M-parameter mid geometry
# (hidden 768, attention 768, kv 256, FFN 3072, vocab 4096), each full and
# with hidden and FFN widths halved, as the benchmark prunes them.
PRODUCT_SHAPES = [(64, 64), (64, 32), (64, 256), (256, 64), (64, 260),
                  (32, 64), (32, 32), (32, 128), (128, 32), (32, 260),
                  (768, 768), (768, 256), (768, 3072), (3072, 768), (768, 4096),
                  (384, 768), (384, 256), (768, 384), (384, 1536), (1536, 384), (384, 4096)]


@pytest.mark.parametrize("m", [1, 36, 255])
@pytest.mark.parametrize("k,n", PRODUCT_SHAPES)
def test_matmul_is_the_at_operator_bit_for_bit(m, k, n):
    a = rng(m).normal(size=(m, k)).astype(np.float32)
    b = rng(k + n).normal(size=(k, n)).astype(np.float32)
    assert np.array_equal(tk.matmul(a, b).numpy(), a @ b)
    bt = np.ascontiguousarray(b.T)
    assert np.array_equal(tk.matmul_nt(a, bt).numpy(), a @ bt.T)


@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_rope_factors_of_a_range_are_those_of_its_positions(dt):
    for lo, hi in ((0, 5), (7, 8), (60, 200)):
        view = tk.rope_factors(range(lo, hi), 16, 1e4, dt)
        np.testing.assert_array_equal(view, tk.rope_factors(list(range(lo, hi)), 16, 1e4, dt))
        assert not view.flags.writeable   # a slice of the shared table
    with pytest.raises(ShapeError, match="positions must be >= 0"):
        tk.rope_factors(range(-1, 2), 4, 1e4, dt)


@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_one_row_rms_norm_is_row_0_of_the_block(dt):
    x = rng(30).normal(size=(5, 64)).astype(dt)
    gamma = rng(31).normal(size=64).astype(dt)
    block = tk.rms_norm(x, gamma, 1e-5).numpy()
    assert np.array_equal(tk.rms_norm(x[:1], gamma, 1e-5).numpy(), block[:1])


@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_one_query_attend_is_row_0_of_the_query_grid(dt):
    # Three cache rows, one query each. Given as slots, the block goes
    # through the [B, Tmax] query grid; row 0 alone is a one-query call.
    n_heads, n_kv, dh, s = 4, 2, 16, 9
    q = rng(32).normal(size=(3, n_heads * dh)).astype(dt)
    k = rng(33).normal(size=(3, n_kv * dh)).astype(dt)
    v = rng(34).normal(size=(3, n_kv * dh)).astype(dt)
    keys = rng(35).normal(size=(3, s, n_kv, dh)).astype(dt)
    values = rng(36).normal(size=(3, s, n_kv, dh)).astype(dt)
    rows = np.arange(3)
    slots = (rows, (rows, np.full(3, s - 1)))
    grid = tk.attend(q, k, v, keys, values, n_heads, n_kv, dh,
                     mask=np.zeros((3, 1, s), dt), slots=slots).numpy()
    one = tk.attend(q[:1], k[:1], v[:1], keys[:1], values[:1], n_heads, n_kv, dh).numpy()
    assert np.array_equal(one, grid[:1])
