"""Dense numeric core: tensors, forward ops, and tape-based reverse-mode autodiff.

Everything is float64 so gradient checks against central finite differences
are robust. Ops take an optional Tape; with tape=None they run
pure forward (inference).
"""

import numpy as np


_EPS = 1e-6


class ShapeMismatchError(ValueError):
    pass


class ContractError(ValueError):
    pass


class Tensor:
    """Immutable dense array, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self):
        return tuple(self.data.shape)

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _wrap(arr):
    t = Tensor.__new__(Tensor)
    arr = np.asarray(arr)
    arr.setflags(write=False)
    t.data = arr
    return t


class Tape:
    """Ordered record of executed ops, replayed backward for gradients.

    Single-owner: one tape per forward pass, not shared across threads.
    """

    def __init__(self):
        self._entries = []  # (out, inputs, backward_fn)

    def record(self, out, inputs, backward_fn):
        self._entries.append((out, inputs, backward_fn))

    def __len__(self):
        return len(self._entries)


def backward(loss, tape, wrt):
    """Gradients of a scalar loss with respect to the tensors in `wrt`.

    Returns a dict keyed by Tensor (identity) holding exactly those tensors,
    with exact-zero gradients for any that did not influence the loss.
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads = {loss: np.array(1.0)}
    for out, inputs, backward_fn in reversed(tape._entries):
        g = grads.get(out)
        if g is None:
            continue
        for inp, gi in zip(inputs, backward_fn(g)):
            if gi is None:
                continue
            acc = grads.get(inp)
            grads[inp] = gi if acc is None else acc + gi
    return {t: grads.get(t, np.zeros(t.shape)) for t in wrt}


# ---------------------------------------------------------------------------
# Forward ops (each optionally recorded on a tape)
# ---------------------------------------------------------------------------


def matmul(a, b, tape=None):
    """Matrix product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    out = _wrap(a.data @ b.data)
    if tape is not None:
        def bwd(g):
            return g @ b.data.T, a.data.T @ g
        tape.record(out, (a, b), bwd)
    return out


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b, tape=None):
    """Elementwise sum with numpy broadcasting."""
    out = _wrap(a.data + b.data)
    if tape is not None:
        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        tape.record(out, (a, b), bwd)
    return out


def relu(a, tape=None):
    out = _wrap(np.maximum(a.data, 0.0))
    if tape is not None:
        keep = a.data > 0.0
        tape.record(out, (a,), lambda g: (g * keep,))
    return out


def multi_head_attention(x, wqkv, mask, n_heads, tape=None):
    """Masked scaled dot-product self-attention of all heads at once.

    `x` (n, d) is projected by `wqkv` (d, 3d), whose columns are
    [q_0 .. q_{H-1} | k_0 .. | v_0 ..], each block d/H wide. `mask` is an
    additive (n, n) array with entries in {0, -inf}, shared by every head and
    not differentiated; a fully masked row cannot be normalized and raises
    ContractError. Returns the heads' outputs side by side, (n, d).

    The backward hands x's gradient to the tape one (head, projection) block
    at a time: last head first, v then k then q. That is the order in which
    separate per-head projections (the CTT1 layout) add up, so training gives
    the same bits as with them.
    """
    d = wqkv.shape[0]
    if n_heads < 1 or d % n_heads or wqkv.shape != (d, 3 * d) \
            or x.data.ndim != 2 or x.shape[1] != d:
        raise ShapeMismatchError(
            f"x {x.shape} and wqkv {wqkv.shape} do not split into "
            f"3 x {n_heads} heads")
    n = x.shape[0]
    if mask.shape != (n, n):
        raise ShapeMismatchError(f"mask shape {mask.shape} != ({n}, {n})")
    if bool(np.isneginf(mask).all(axis=-1).any()):
        raise ContractError("fully masked row cannot be normalized")
    dk = d // n_heads
    scale = 1.0 / np.sqrt(dk)
    qkv = x.data @ wqkv.data
    q, k, v = qkv.reshape(n, 3, n_heads, dk).transpose(1, 2, 0, 3)
    z = (q @ k.transpose(0, 2, 1)) * scale + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))  # exp(-inf) == 0 exactly
    p = e / e.sum(axis=-1, keepdims=True)
    out = _wrap((p @ v).transpose(1, 0, 2).reshape(n, d))
    if tape is not None:
        w = wqkv.data.reshape(d, 3, n_heads, dk)

        def bwd(g):
            g = g.reshape(n, n_heads, dk).transpose(1, 0, 2)
            gp = g @ v.transpose(0, 2, 1)
            gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            gqkv = np.stack((gz @ k, gz.transpose(0, 2, 1) @ q,
                             p.transpose(0, 2, 1) @ g))  # (3, H, n, dk)
            gx = [gqkv[c, h] @ w[:, c, h].T
                  for h in reversed(range(n_heads)) for c in (2, 1, 0)]
            gw = x.data.T @ gqkv.transpose(2, 0, 1, 3).reshape(n, 3 * d)
            return (*gx, gw)
        tape.record(out, (x,) * (3 * n_heads) + (wqkv,), bwd)
    return out


def layer_norm(x, gain, bias, tape=None):
    """Normalize the last axis to mean 0 / variance 1, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    # sum / d is what ndarray.mean computes, without its Python wrapper
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / d + _EPS)
    xhat = centred * inv
    out = _wrap(xhat * gain.data + bias.data)
    if tape is not None:
        def bwd(g):
            dxhat = g * gain.data
            dx = inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)
            axes = tuple(range(g.ndim - 1))
            return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)
        tape.record(out, (x, gain, bias), bwd)
    return out


def embedding_lookup(table, ids, tape=None):
    """Gather rows of `table` by integer id."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(
            f"embedding id out of range for table with {table.shape[0]} rows")
    out = _wrap(table.data[idx])
    if tape is not None:
        def bwd(g):
            gt = np.zeros(table.shape)
            np.add.at(gt, idx, g)
            return (gt,)
        tape.record(out, (table,), bwd)
    return out


def cross_entropy_mean(logits, targets, tape=None):
    """Mean per-row cross entropy of logits (n, C) against integer targets."""
    t = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if t.shape != (n,):
        raise ContractError(
            f"cross_entropy_mean: {n} logit rows vs {t.shape} targets")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ContractError(f"target id out of range for {c} classes")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    picked = z[np.arange(n), t][:, None]
    out = _wrap(np.array((lse - picked).mean()))
    if tape is not None:
        def bwd(g):
            p = np.exp(z - lse)
            p[np.arange(n), t] -= 1.0
            return (p * (float(g) / n),)
        tape.record(out, (logits,), bwd)
    return out
