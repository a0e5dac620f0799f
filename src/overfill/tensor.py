"""Dense float arrays plus a minimal reverse-mode gradient tape.

Only the operations a decoder-only transformer needs are provided, with
analytic backward rules for each. Arrays are float32 by default; float64
is used by the gradient-check tests. Every op keeps its operands' dtype in
its output and its gradients: numpy scalar constants are cast to it first,
since a float64 scalar would promote float32 arrays to float64. All
reductions run with a fixed serial order for a given build and thread
count, so identical inputs give bit-identical outputs across runs.

An op none of whose inputs requires grad (frozen weights and the
activations they make, as in every decode step) checks its shapes, makes
its numpy calls and wraps the result in a plain Tensor; it builds no
backward closure or input tuple and never looks at the tape, so a
one-token step costs little more than its numpy calls. An op with an input
that requires grad returns a Tensor that requires grad and, inside a
GradTape, records its backward rule there. 2-D products go through
ndarray.dot, which makes the BLAS call `@` makes with less dispatch and
gives the same bits.
"""

from __future__ import annotations

import math
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


# The ops a decode step runs most (matmul, matmul_nt, add, mul, silu,
# rms_norm, rope_rows) write _arr and _grad out in place: a Python call costs
# a sizeable share of what their numpy work does on one row.
def _arr(x) -> np.ndarray:
    return x.data if x.__class__ is Tensor else np.asarray(x)


def _grad(a, b=None) -> bool:
    """Whether a or b is a Tensor that requires grad."""
    return (a.__class__ is Tensor and a.requires_grad) or (
        b.__class__ is Tensor and b.requires_grad)


_new = object.__new__  # a Tensor without the constructor's dtype inference


def _plain(data: np.ndarray) -> Tensor:
    """The result of an op none of whose inputs requires grad."""
    out = _new(Tensor)
    out.data = data
    out.requires_grad = False
    return out


def _emit(data: np.ndarray, inputs: tuple, backward: Callable) -> Tensor:
    """The result of an op some input of which requires grad, recorded on
    the innermost active tape."""
    out = _new(Tensor)
    out.data = data
    out.requires_grad = True
    if _TAPE_STACK:
        _TAPE_STACK[-1].nodes.append(_Node(out, inputs, backward))
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
    av = a.data if a.__class__ is Tensor else np.asarray(a)
    bv = b.data if b.__class__ is Tensor else np.asarray(b)
    try:  # dot's own ValueError checks the inner dimensions
        if av.ndim != 2 or bv.ndim != 2:
            raise ValueError
        out = av.dot(bv)  # ndarray.dot: the same BLAS call as @, with less dispatch
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}") from None
    if not (a.__class__ is Tensor and a.requires_grad
            or b.__class__ is Tensor and b.requires_grad):
        return _plain(out)
    return _emit(out, (a, b), lambda g: (g @ bv.T, av.T @ g))


def matmul_nt(a: ArrayLike, b: ArrayLike) -> Tensor:
    """a @ b.T for a [m, k] and b [n, k]; avoids materializing transposes."""
    av = a.data if a.__class__ is Tensor else np.asarray(a)
    bv = b.data if b.__class__ is Tensor else np.asarray(b)
    try:
        if av.ndim != 2 or bv.ndim != 2:
            raise ValueError
        out = av.dot(bv.T)
    except ValueError:
        raise ShapeError(
            f"matmul_nt: incompatible shapes {av.shape} x {bv.shape}^T") from None
    if not (a.__class__ is Tensor and a.requires_grad
            or b.__class__ is Tensor and b.requires_grad):
        return _plain(out)
    return _emit(out, (a, b), lambda g: (g @ bv, g.T @ av))


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise sum of two arrays of one shape."""
    av = a.data if a.__class__ is Tensor else np.asarray(a)
    bv = b.data if b.__class__ is Tensor else np.asarray(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    out = np.asarray(av + bv)  # 0-d operands give a numpy scalar
    if not (a.__class__ is Tensor and a.requires_grad
            or b.__class__ is Tensor and b.requires_grad):
        return _plain(out)
    return _emit(out, (a, b), lambda g: (g, g))


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise product of two arrays of one shape."""
    av = a.data if a.__class__ is Tensor else np.asarray(a)
    bv = b.data if b.__class__ is Tensor else np.asarray(b)
    if av.shape != bv.shape:
        raise ShapeError(f"mul: shapes {av.shape} and {bv.shape} differ")
    out = np.asarray(av * bv)
    if not (a.__class__ is Tensor and a.requires_grad
            or b.__class__ is Tensor and b.requires_grad):
        return _plain(out)
    return _emit(out, (a, b), lambda g: (g * bv, g * av))


def scale(a: ArrayLike, c: float) -> Tensor:
    av = _arr(a)
    c = float(c)
    out = np.asarray(av * av.dtype.type(c))
    if not _grad(a):
        return _plain(out)
    return _emit(out, (a,), lambda g: (g * c,))


def silu(a: ArrayLike) -> Tensor:
    """x * sigmoid(x), the gate nonlinearity of the FFN."""
    av = a.data if a.__class__ is Tensor else np.asarray(a)
    sig = 1.0 / (1.0 + np.exp(-av))
    out = np.asarray(av * sig)
    if not (a.__class__ is Tensor and a.requires_grad):
        return _plain(out)
    return _emit(out, (a,), lambda g: (g * (sig * (1.0 + av * (1.0 - sig))),))


def softmax_rows(a: ArrayLike) -> Tensor:
    """Softmax along the last axis, computed with row-max subtraction."""
    av = _arr(a)
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    if not _grad(a):
        return _plain(p)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _emit(p, (a,), backward)


def rms_norm(x: ArrayLike, gamma: ArrayLike, eps: float) -> Tensor:
    """Divide each last-axis vector by its root-mean-square, then scale by gamma."""
    xv = x.data if x.__class__ is Tensor else np.asarray(x)
    gv = gamma.data if gamma.__class__ is Tensor else np.asarray(gamma)
    d = gv.size
    if gv.ndim != 1 or xv.shape[-1] != d:
        raise ShapeError(f"rms_norm: x {xv.shape} vs gamma {gv.shape}")
    # np.mean's sum and divide without its Python wrapper. Bit-identical:
    # np.mean divides by an intp count, so in float64, and a float32 quotient
    # rounded through float64 (53 >= 2*24 + 2 bits) is the one rounded directly.
    if xv.size == d:
        # One row: the same sum over the same d contiguous values, and the
        # scale in dtype scalars, whose arithmetic rounds as the arrays' does.
        ms = np.add.reduce(xv * xv, axis=None) / d
    else:
        ms = np.add.reduce(xv * xv, axis=-1, keepdims=True)
        ms /= d
    inv = 1.0 / np.sqrt(ms + eps)
    out = xv * inv * gv
    if not (x.__class__ is Tensor and x.requires_grad
            or gamma.__class__ is Tensor and gamma.requires_grad):
        return _plain(out)

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
# position p. Grown by doubling; the values depend only on the key. Read-only,
# since rope_factors hands out slices of it.
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
        table.flags.writeable = False
        _ROPE_TABLES[key] = table
    return table


def rope_factors(positions: Sequence[int], head_dim: int, theta_base: float,
                 dtype) -> np.ndarray:
    """Rotation factors cos + i*sin of rope_rows for a block whose row t sits
    at absolute position positions[t]: a complex [T, 1, head_dim/2] array
    matching float dtype `dtype`, looked up once and shared by every head
    and every layer of the block. A range of step 1 is a slice of the table."""
    if head_dim % 2 != 0:
        raise ShapeError(f"rope: head_dim must be even, got {head_dim}")
    if isinstance(positions, range) and positions.step == 1:
        lo, hi = positions.start, positions.stop
        if lo < 0:
            raise ShapeError(f"rope: positions must be >= 0, got {lo}")
        return _rope_table(hi, head_dim, theta_base, np.dtype(dtype))[lo:hi, None]
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
    xv = x.data if x.__class__ is Tensor else np.asarray(x)
    half = rot.shape[-1]
    if (xv.ndim != 2 or xv.shape[1] % (2 * half) != 0 or rot.shape != (xv.shape[0], 1, half)
            or rot.dtype != _COMPLEX.get(xv.dtype)):
        raise ShapeError(f"rope: {xv.dtype} rows {xv.shape} do not match {rot.dtype} "
                         f"factors {rot.shape}")
    if not (x.__class__ is Tensor and x.requires_grad):
        return _plain(_turn(xv, rot))
    return _emit(_turn(xv, rot), (x,), lambda g: (_turn(g, rot.conj()),))


def _turn(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows a [T, width] with each head's pairs turned by r [T, 1, half]."""
    t, width = a.shape
    c = np.ascontiguousarray(a).view(r.dtype).reshape(t, -1, r.shape[2])
    return (c * r).view(a.dtype).reshape(t, width)


def embedding(weight: ArrayLike, ids: Sequence[int]) -> Tensor:
    """Row gather: out[t] = weight[ids[t]]. The caller range-checks the ids
    (`model.run_block` does, once per block)."""
    wv = _arr(weight)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1-D, got {idx.shape}")
    out = wv[idx]
    if not _grad(weight):
        return _plain(out)

    def backward(g):
        gw = np.zeros_like(wv)
        np.add.at(gw, idx, g)
        return (gw,)

    return _emit(out, (weight,), backward)


def slice_rows(a: ArrayLike, lo: int, hi: int) -> Tensor:
    av = _arr(a)
    if not _grad(a):
        return _plain(av[lo:hi])

    def backward(g):
        ga = np.zeros_like(av)
        ga[lo:hi] = g
        return (ga,)

    return _emit(av[lo:hi], (a,), backward)


def reshape(a: ArrayLike, shape: Sequence[int]) -> Tensor:
    av = _arr(a)
    out = av.reshape(shape)
    if not _grad(a):
        return _plain(out)
    old = av.shape
    return _emit(out, (a,), lambda g: (g.reshape(old),))


def sum_all(a: ArrayLike) -> Tensor:
    av = _arr(a)
    out = np.asarray(av.sum(dtype=av.dtype), dtype=av.dtype)
    if not _grad(a):
        return _plain(out)
    return _emit(out, (a,), lambda g: (np.full_like(av, g.reshape(())[()]),))


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
    qv, kv_, vv = _arr(q), _arr(k), _arr(v)
    n, kv_rows, cache_rows = qv.shape[0], kv_.shape, keys.shape
    b, s = cache_rows[:2]
    qslot, kv_at = slots if slots is not None else (None, None)
    t = n // b if slots is None else (0 if mask is None else mask.shape[1])
    if (qv.shape != (n, n_heads * head_dim) or kv_rows != (n, n_kv_heads * head_dim)
            or vv.shape != kv_rows):
        raise ShapeError(f"attend: bad q/k/v shapes {qv.shape}, {kv_rows}, {vv.shape}")
    if (cache_rows != (b, s, n_kv_heads, head_dim) or values.shape != cache_rows
            or not 0 < t <= s or (mask is not None and mask.shape[-2:] != (t, s))):
        raise ShapeError(f"attend: keys/values {cache_rows}, {values.shape} and mask "
                         f"{None if mask is None else mask.shape} for a block of {n}")
    group = n_heads // n_kv_heads
    grid = (b, t, n_kv_heads, group, head_dim)
    # A Python float: numpy rounds it to the scores' dtype, as it would a
    # dtype scalar, and never promotes float32 scores to float64.
    alpha = 1.0 / math.sqrt(head_dim)
    # One query per row lays the grid out in packed order already.
    one = t == 1 and qslot is None

    # One [group*T, dh] @ [dh, S] product per (row, kv head).
    q4 = qv.reshape(b, n_kv_heads, group, head_dim) if one else _query_grid(qv, qslot, grid)
    v4 = values.transpose(0, 2, 1, 3)                     # [B, Hkv, S, dh]
    scores = q4 @ keys.transpose(0, 2, 3, 1)              # [B, Hkv, G*T, S]
    scores *= alpha
    if mask is not None:
        s5 = scores.reshape(b, n_kv_heads, group, t, s)
        s5 += mask if slots is None else mask[:, None, None]
    # Softmax in place: one score-sized array at a time bounds peak memory.
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v4
    out = out.reshape(n, -1) if one else _packed_rows(out, qslot, grid)
    if not (_grad(q, k) or _grad(v)):
        return _plain(out)

    def backward(g):
        g4 = _query_grid(g, qslot, grid)
        gs = g4 @ v4.swapaxes(-1, -2)                     # [B, Hkv, G*T, S]
        gv_all = p.swapaxes(-1, -2) @ g4
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = (gs @ keys.transpose(0, 2, 1, 3)) * alpha
        gk_all = (gs.swapaxes(-1, -2) @ q4) * alpha
        at = (slice(None), slice(s - t, s)) if slots is None else kv_at
        return (_packed_rows(gq, qslot, grid),
                gk_all.transpose(0, 2, 1, 3)[at].reshape(kv_rows),
                gv_all.transpose(0, 2, 1, 3)[at].reshape(kv_rows))

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
    if not _grad(logits):
        return _plain(out)

    def backward(g):
        p = e / z
        p[np.arange(lv.shape[0]), idx] -= 1.0
        return (p * g[:, None], None)

    return _emit(out, (logits, targets), backward)
