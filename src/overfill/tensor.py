"""Dense float arrays plus a minimal reverse-mode gradient tape.

Only the operations a decoder-only transformer needs are provided, with
analytic backward rules for each. Arrays are float32 by default; float64
is used by the gradient-check tests. Every op keeps its operands' dtype in
its output and its gradients: numpy scalar constants are cast to it first,
since a float64 scalar would promote float32 arrays to float64. All
reductions run with a fixed serial order for a given build and thread
count, so identical inputs give bit-identical outputs across runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

DEFAULT_DTYPE = np.float32

# Large finite mask value: exp(-1e9 - rowmax) underflows to exactly 0 in both
# f32 and f64 without introducing inf into any stored tensor.
NEG_MASK = -1e9


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GradError(ValueError):
    """Invalid gradient request (non-scalar loss, detached parameter, ...)."""


ArrayLike = Union["Tensor", np.ndarray, float, int, list]


class Tensor:
    """A shaped block of reals, optionally participating in gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            # np.generic covers 0-d results that numpy returns as scalars.
            if isinstance(data, (np.ndarray, np.generic)) and data.dtype in (
                    np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class GradTape:
    """Ordered record of executed ops, replayed once, in reverse, by grad_of.

    Use as a context manager; ops executed inside the block whose inputs
    require gradients are recorded in execution (topological) order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self


_TAPE_STACK: list[GradTape] = []


def _arr(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _emit(data: np.ndarray, inputs: Sequence, backward: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)  # hot path: skip ctor dtype inference
    out.data = np.asarray(data)
    out.requires_grad = False
    for x in inputs:  # a plain loop: any(<genexpr>) costs more on every op
        if isinstance(x, Tensor) and x.requires_grad:
            out.requires_grad = True
            if _TAPE_STACK:
                _TAPE_STACK[-1].nodes.append(_Node(out, tuple(inputs), backward))
            break
    return out


def grad_of(loss: Tensor, tape: GradTape, params: Iterable[Tensor]) -> dict:
    """Reverse-mode gradients of a scalar loss w.r.t. the given parameters.

    Tensors outside `params` receive no entry in the result. A constant
    loss (nothing recorded) yields all-zero gradients.
    """
    params = list(params)
    if loss.size != 1:
        raise GradError(f"loss must be scalar, got shape {tuple(loss.shape)}")
    for p in params:
        if not p.requires_grad:
            raise GradError("parameter does not require grad (detached)")
    produced = {id(n.out) for n in tape.nodes}
    if loss.requires_grad and id(loss) not in produced:
        raise GradError("loss was not recorded on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.backward(g)):
            if gi is None or not (isinstance(inp, Tensor) and inp.requires_grad):
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product of a [m, k] and b [k, n]."""
    av, bv = _arr(a), _arr(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    out = av @ bv

    def backward(g):
        return g @ bv.T, av.T @ g

    return _emit(out, (a, b), backward)


def matmul_nt(a: ArrayLike, b: ArrayLike) -> Tensor:
    """a @ b.T for a [m, k] and b [n, k]; avoids materializing transposes."""
    av, bv = _arr(a), _arr(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise ShapeError(f"matmul_nt: incompatible shapes {av.shape} x {bv.shape}^T")
    out = av @ bv.T

    def backward(g):
        return g @ bv, g.T @ av

    return _emit(out, (a, b), backward)


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise sum of two arrays of one shape."""
    av, bv = _arr(a), _arr(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    return _emit(av + bv, (a, b), lambda g: (g, g))


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise product of two arrays of one shape."""
    av, bv = _arr(a), _arr(b)
    if av.shape != bv.shape:
        raise ShapeError(f"mul: shapes {av.shape} and {bv.shape} differ")
    return _emit(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: ArrayLike, c: float) -> Tensor:
    av = _arr(a)
    c = float(c)

    def backward(g):
        return (g * c,)

    return _emit(av * av.dtype.type(c), (a,), backward)


def silu(a: ArrayLike) -> Tensor:
    """x * sigmoid(x), the gate nonlinearity of the FFN."""
    av = _arr(a)
    sig = 1.0 / (1.0 + np.exp(-av))
    out = av * sig

    def backward(g):
        return (g * (sig * (1.0 + av * (1.0 - sig))),)

    return _emit(out, (a,), backward)


def softmax_rows(a: ArrayLike) -> Tensor:
    """Softmax along the last axis, computed with row-max subtraction."""
    av = _arr(a)
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _emit(p, (a,), backward)


def rms_norm(x: ArrayLike, gamma: ArrayLike, eps: float) -> Tensor:
    """Divide each last-axis vector by its root-mean-square, then scale by gamma."""
    xv, gv = _arr(x), _arr(gamma)
    if gv.ndim != 1 or xv.shape[-1] != gv.shape[0]:
        raise ShapeError(f"rms_norm: x {xv.shape} vs gamma {gv.shape}")
    d = xv.shape[-1]
    # np.mean's sum and divide without its Python wrapper. Bit-identical:
    # np.mean divides by an intp count, so in float64, and a float32 quotient
    # rounded through float64 (53 >= 2*24 + 2 bits) is the one rounded directly.
    ms = np.add.reduce(xv * xv, axis=-1, keepdims=True)
    ms /= d
    inv = 1.0 / np.sqrt(ms + eps)
    out = xv * inv * gv

    def backward(g):
        # y_j = x_j * g_j * r^{-1};  dr/dx_k = x_k / (d * r)
        gg = g * gv
        dot = (gg * xv).sum(axis=-1, keepdims=True)
        gx = gg * inv - xv * (dot * inv**3 / d)
        ggamma = (g * xv * inv).reshape(-1, d).sum(axis=0)
        return gx, ggamma

    return _emit(out, (x, gamma), backward)


# The complex dtype whose real and imaginary parts are each float dtype.
_COMPLEX = {np.dtype(np.float32): np.dtype(np.complex64),
            np.dtype(np.float64): np.dtype(np.complex128)}

# Rotation factors cos + i*sin per (head_dim, theta_base, dtype): row p holds
# position p. Grown by doubling; the values depend only on the key.
_ROPE_TABLES: dict = {}


def _rope_table(n: int, head_dim: int, theta_base: float, dtype) -> np.ndarray:
    key = (head_dim, theta_base, dtype)
    table = _ROPE_TABLES.get(key)
    if table is None or table.shape[0] < n:
        size = max(n, 64 if table is None else 2 * table.shape[0])
        inv_freq = theta_base ** (-np.arange(head_dim // 2, dtype=np.float64) * 2.0 / head_dim)
        ang = np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]
        table = np.empty(ang.shape, dtype=np.result_type(dtype, np.complex64))
        table.real, table.imag = np.cos(ang), np.sin(ang)
        _ROPE_TABLES[key] = table
    return table


def rope_factors(positions: Sequence[int], head_dim: int, theta_base: float,
                 dtype) -> np.ndarray:
    """Rotation factors cos + i*sin of rope_rows for a block whose row t sits
    at absolute position positions[t]: a complex [T, 1, head_dim/2] array
    matching float dtype `dtype`, looked up once and shared by every head
    and every layer of the block."""
    if head_dim % 2 != 0:
        raise ShapeError(f"rope: head_dim must be even, got {head_dim}")
    pos = np.asarray(positions)
    if pos.ndim != 1:
        raise ShapeError(f"rope: positions must be 1-D, got {pos.shape}")
    bounds = pos.tolist()  # builtin min/max: numpy reductions cost more on a few rows
    if min(bounds, default=0) < 0:
        raise ShapeError(f"rope: positions must be >= 0, got {min(bounds)}")
    table = _rope_table(max(bounds, default=-1) + 1, head_dim, theta_base, np.dtype(dtype))
    return table[pos][:, None]


def rope_rows(x: ArrayLike, rot: np.ndarray) -> Tensor:
    """Rotary position rotation of consecutive pairs within each head segment.

    x is [T, n_heads*head_dim] and rot = rope_factors(positions, head_dim,
    ...) for its T rows; every head in a row is rotated by the same angles.
    Each pair (x[2j], x[2j+1]) is rotated as the complex number
    x[2j] + i*x[2j+1].
    """
    xv = _arr(x)
    half = rot.shape[-1]
    if (xv.ndim != 2 or xv.shape[1] % (2 * half) != 0 or rot.shape != (xv.shape[0], 1, half)
            or rot.dtype != _COMPLEX.get(xv.dtype)):
        raise ShapeError(f"rope: {xv.dtype} rows {xv.shape} do not match {rot.dtype} "
                         f"factors {rot.shape}")
    t, width = xv.shape
    n_heads = width // (2 * half)

    def turn(a, r):
        ac = np.ascontiguousarray(a).view(r.dtype).reshape(t, n_heads, half)
        return (ac * r).view(a.dtype).reshape(t, width)

    def backward(g):
        return (turn(g, rot.conj()),)

    return _emit(turn(xv, rot), (x,), backward)


def embedding(weight: ArrayLike, ids: Sequence[int]) -> Tensor:
    """Row gather: out[t] = weight[ids[t]]. The caller range-checks the ids
    (`model.run_block` does, once per block)."""
    wv = _arr(weight)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1-D, got {idx.shape}")
    out = wv[idx]

    def backward(g):
        gw = np.zeros_like(wv)
        np.add.at(gw, idx, g)
        return (gw,)

    return _emit(out, (weight,), backward)


def slice_rows(a: ArrayLike, lo: int, hi: int) -> Tensor:
    av = _arr(a)

    def backward(g):
        ga = np.zeros_like(av)
        ga[lo:hi] = g
        return (ga,)

    return _emit(av[lo:hi], (a,), backward)


def reshape(a: ArrayLike, shape: Sequence[int]) -> Tensor:
    av = _arr(a)
    old = av.shape

    def backward(g):
        return (g.reshape(old),)

    return _emit(av.reshape(tuple(shape)), (a,), backward)


def sum_all(a: ArrayLike) -> Tensor:
    av = _arr(a)

    def backward(g):
        return (np.full_like(av, g.reshape(())[()]),)

    return _emit(np.asarray(av.sum(dtype=av.dtype), dtype=av.dtype), (a,), backward)


def _query_grid(x: np.ndarray, qslot, grid: tuple) -> np.ndarray:
    """Packed [N, n_heads*dh] rows -> [B, kv_head, group*T, dh], grid being
    (B, T, kv_head, group, dh): the queries of one (row, kv head) as one
    matrix, scattered onto the [B, T] grid first when qslot is given."""
    if qslot is not None:
        full = np.zeros((grid[0] * grid[1], x.shape[1]), dtype=x.dtype)
        full[qslot] = x
        x = full
    b, t, hkv, group, dh = grid
    return x.reshape(grid).transpose(0, 2, 3, 1, 4).reshape(b, hkv, group * t, dh)


def _packed_rows(x4: np.ndarray, qslot, grid: tuple) -> np.ndarray:
    """Inverse of _query_grid: [B, kv_head, group*T, dh] -> packed rows."""
    b, t, hkv, group, dh = grid
    out = x4.reshape(b, hkv, group, t, dh).transpose(0, 3, 1, 2, 4).reshape(b * t, -1)
    return out if qslot is None else out[qslot]


def attend(q: ArrayLike, k: ArrayLike, v: ArrayLike, keys: np.ndarray,
           values: np.ndarray, n_heads: int, n_kv_heads: int, head_dim: int,
           mask: Optional[np.ndarray] = None, slots: Optional[tuple] = None) -> Tensor:
    """Fused causal multi-head attention of a packed block over cache rows.

    q is [N, n_heads*head_dim]; k and v are the block's [N, n_kv_heads*head_dim]
    projections. keys/values are [B, S, n_kv_heads, head_dim] arrays,
    typically cache rows that already hold k and v at the block's positions;
    every other entry is a constant (no gradient flows into it). Without
    slots the block is B equal runs of T = N / B tokens, run b being the
    last T positions of row b. With slots = (qslot, kv_at), token n sits at
    flat index qslot[n] of a [B, Tmax] query grid, Tmax = mask.shape[1], and
    keys[kv_at] are the block's own keys in packed order. Query head h reads
    kv head h // (n_heads // n_kv_heads). mask, when given, is an additive
    [T, S] array, or [B, Tmax, S] with slots. Returns [N, n_heads*head_dim].
    """
    qv, kv_ = _arr(q), _arr(k)
    n = qv.shape[0]
    b, s = keys.shape[:2]
    qslot, kv_at = slots if slots is not None else (None, None)
    t = n // b if slots is None else (0 if mask is None else mask.shape[1])
    if (qv.shape != (n, n_heads * head_dim) or kv_.shape != (n, n_kv_heads * head_dim)
            or _arr(v).shape != kv_.shape):
        raise ShapeError(f"attend: bad q/k/v shapes {qv.shape}, {kv_.shape}, {_arr(v).shape}")
    if (keys.shape[2:] != (n_kv_heads, head_dim) or values.shape != keys.shape
            or not 0 < t <= s or (mask is not None and mask.shape[-2:] != (t, s))):
        raise ShapeError(f"attend: keys/values {keys.shape}, {values.shape} and mask "
                         f"{None if mask is None else mask.shape} for a block of {n}")
    grid = (b, t, n_kv_heads, n_heads // n_kv_heads, head_dim)
    alpha = qv.dtype.type(1.0 / np.sqrt(head_dim))

    # One [group*T, dh] @ [dh, S] product per (row, kv head).
    q4 = _query_grid(qv, qslot, grid)
    k4 = keys.transpose(0, 2, 1, 3)                       # [B, Hkv, S, dh]
    v4 = values.transpose(0, 2, 1, 3)
    scores = q4 @ k4.swapaxes(-1, -2)                     # [B, Hkv, G*T, S]
    scores *= alpha
    if mask is not None:
        s5 = scores.reshape(b, n_kv_heads, grid[3], t, s)
        s5 += mask if slots is None else mask[:, None, None]
    # Softmax in place: one score-sized array at a time bounds peak memory.
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)
    out = _packed_rows(p @ v4, qslot, grid)

    def backward(g):
        g4 = _query_grid(g, qslot, grid)
        gs = g4 @ v4.swapaxes(-1, -2)                     # [B, Hkv, G*T, S]
        gv_all = p.swapaxes(-1, -2) @ g4
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = (gs @ k4) * alpha
        gk_all = (gs.swapaxes(-1, -2) @ q4) * alpha
        at = (slice(None), slice(s - t, s)) if slots is None else kv_at
        return (_packed_rows(gq, qslot, grid),
                gk_all.transpose(0, 2, 1, 3)[at].reshape(n, kv_.shape[1]),
                gv_all.transpose(0, 2, 1, 3)[at].reshape(n, kv_.shape[1]))

    return _emit(out, (q, k, v), backward)


def cross_entropy_rows(logits: ArrayLike, targets: Sequence[int]) -> Tensor:
    """Per-row negative log softmax probability of the target class.

    logits is [n, v]; returns [n]. Backward is (softmax - onehot) scaled by
    the incoming per-row gradient.
    """
    lv = _arr(logits)
    idx = np.asarray(targets, dtype=np.int64)
    if lv.ndim != 2 or idx.shape != (lv.shape[0],):
        raise ShapeError(f"cross_entropy_rows: logits {lv.shape} vs targets {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= lv.shape[1]):
        raise ShapeError(f"cross_entropy_rows: target out of range for {lv.shape[1]} classes")
    m = lv.max(axis=1, keepdims=True)
    e = np.exp(lv - m)
    z = e.sum(axis=1, keepdims=True)
    lse = (m + np.log(z)).reshape(-1)
    picked = lv[np.arange(lv.shape[0]), idx]
    out = lse - picked

    def backward(g):
        p = e / z
        p[np.arange(lv.shape[0]), idx] -= 1.0
        return (p * g[:, None], None)

    return _emit(out, (logits, targets), backward)
