"""Every op and every forward entry point keeps its inputs' float dtype.

float32 weights must give float32 activations, logits, gradients and
optimizer moments end to end; float64 inputs (the gradient-check tests)
must stay float64. A numpy float64 scalar anywhere in an op would promote
float32 arrays to float64 and fail these checks.
"""

import inspect

import numpy as np
import pytest

from overfill import tensor as tk
from overfill import trainer as tr
from overfill.corpus import TASK_KINDS, Tokenizer, gen_tasks
from overfill.model import DESK_CONFIG, KVCache, decode_step, init_model, lm_logits, run_block
from overfill.tensor import GradTape, Tensor, grad_of

from helpers import cache_row

DTYPES = (np.float32, np.float64)


def _mask(t, s, dt):
    return np.where(np.tril(np.ones((t, s), bool), k=s - t), 0.0, tk.NEG_MASK).astype(dt)


def _kv(seed, block, dt):
    hist = np.random.default_rng(seed).normal(size=(2, 1, 2)).astype(dt)
    return np.concatenate([hist, block.data.reshape(3, 1, 2)])[None]


# Each case maps float tensors of one dtype (x [3,4], y [3,4], w [4,2],
# u [5,4], b [4], kb [3,2], vb [3,2]) to the op's output.
OP_CASES = {
    "matmul": lambda a, dt: tk.matmul(a["x"], a["w"]),
    "matmul_nt": lambda a, dt: tk.matmul_nt(a["x"], a["u"]),
    "add": lambda a, dt: tk.add(a["x"], a["y"]),
    "mul": lambda a, dt: tk.mul(a["x"], a["y"]),
    "scale": lambda a, dt: tk.scale(a["x"], -1.7),
    "silu": lambda a, dt: tk.silu(a["x"]),
    "softmax_rows": lambda a, dt: tk.softmax_rows(a["x"]),
    "rms_norm": lambda a, dt: tk.rms_norm(a["x"], a["b"], 1e-5),
    "rope_rows": lambda a, dt: tk.rope_rows(a["x"], tk.rope_factors([0, 2, 5], 2, 100.0, dt)),
    # The factors carry no gradient; rotating by them must keep x's dtype.
    "rope_factors": lambda a, dt: tk.rope_rows(a["x"], tk.rope_factors([1, 1, 4], 4, 10.0, dt)),
    "embedding": lambda a, dt: tk.embedding(a["x"], [2, 0, 2]),
    "slice_rows": lambda a, dt: tk.slice_rows(a["x"], 1, 3),
    "reshape": lambda a, dt: tk.reshape(a["x"], (4, 3)),
    "sum_all": lambda a, dt: tk.sum_all(a["x"]),
    "cross_entropy_rows": lambda a, dt: tk.cross_entropy_rows(a["x"], [0, 3, 1]),
    "attend": lambda a, dt: tk.attend(
        a["x"], a["kb"], a["vb"], _kv(2, a["kb"], dt), _kv(3, a["vb"], dt),
        n_heads=2, n_kv_heads=1, head_dim=2, mask=_mask(3, 5, dt)),
}


def test_every_tensor_op_has_a_case():
    ops = {name for name, fn in vars(tk).items()
           if inspect.isfunction(fn) and fn.__module__ == tk.__name__
           and not name.startswith("_")}
    assert ops - {"grad_of"} == set(OP_CASES)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_output_and_gradients_keep_dtype(name, dt):
    rng = np.random.default_rng(0)
    shapes = {"x": (3, 4), "y": (3, 4), "w": (4, 2), "u": (5, 4), "b": (4,), "kb": (3, 2),
              "vb": (3, 2)}
    inputs = {k: Tensor(rng.normal(size=s).astype(dt), requires_grad=True)
              for k, s in shapes.items()}
    with GradTape() as tape:
        out = OP_CASES[name](inputs, dt)
        loss = tk.sum_all(out)
    assert out.dtype == dt
    grads = grad_of(loss, tape, list(inputs.values()))
    for key, t in inputs.items():
        assert grads[t].dtype == dt, f"{name}: gradient of {key} is {grads[t].dtype}"


@pytest.mark.parametrize("dt", DTYPES)
def test_forward_entry_points_keep_dtype(dt):
    w = init_model(DESK_CONFIG, seed=0, dtype=dt)
    tokens = np.random.default_rng(1).integers(0, DESK_CONFIG.vocab_size, 9).tolist()

    cache = KVCache.for_config(DESK_CONFIG, len(tokens), dtype=dt)
    hidden = run_block(w, tokens, cache)
    assert hidden.dtype == dt
    assert lm_logits(w, hidden).dtype == dt

    cache = KVCache.for_config(DESK_CONFIG, len(tokens) + 1, dtype=dt)
    hidden = run_block(w, tokens, cache)
    last, logits = hidden.numpy()[-1], lm_logits(w, hidden).numpy()[-1]
    assert last.dtype == dt and logits.dtype == dt
    logits, _ = decode_step(w, 7, cache, cache.filled_len)
    assert logits.dtype == dt
    assert all(a.dtype == dt for li in range(DESK_CONFIG.n_layers)
               for a in cache_row(cache, li))


def test_train_step_keeps_float32():
    full = init_model(DESK_CONFIG, seed=0).freeze()
    pruned = init_model(DESK_CONFIG, seed=1).set_requires_grad(True)
    examples = [gen_tasks(kind, 3, 1)[0] for kind in TASK_KINDS]
    batch = tr.build_batch(examples, Tokenizer(), max_seq_len=64)

    with GradTape() as tape:
        loss = tr._batch_loss_rows(full, pruned, batch)
    grads = grad_of(loss, tape, pruned.tensors())
    assert loss.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads.values())

    opt = tr.OptState.for_weights(pruned, base_lr=1e-3, warmup_ratio=0.0, total_steps=2)
    tr.train_step(full, pruned, batch, opt)
    assert all(m.dtype == np.float32 for m in opt.m)
    assert all(v.dtype == np.float32 for v in opt.v)
    assert all(t.dtype == np.float32 for t in pruned.tensors())
