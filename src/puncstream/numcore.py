"""Dense numeric core: tensors, forward ops, and tape-based reverse-mode autodiff.

Everything is float64 so gradient checks against central finite differences
are robust.

An encoder layer is four sublayer ops, so that a forward at streaming sizes
(about ten words) makes few Python-level calls: `attention` (the fused
q/k/v projection, every head's masked softmax and the output projection),
`add_layer_norm` (residual sum and layer norm), `feed_forward` (both
projections and the ReLU) and `add_layer_norm` again. `embedding_lookup`,
`add`, `matmul` and `cross_entropy_mean` serve the input, the tagging heads
and the loss.

Each sublayer, and the embedding gather, has one kernel: a private function
on plain arrays (`_attention`, `_add_layer_norm`, `_feed_forward`,
`_embedding_lookup`) that holds its numpy expressions and returns its output
plus what the backward needs. The public op checks shapes, calls the
kernel, wraps the result in a Tensor and, given a Tape, records its
backward; the tape is an optional wrapper around the kernel. The model's
untaped forward calls the kernels directly, so training and inference run
the same arithmetic.
"""

import math

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
        return self.data.shape

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
    out = {}
    for t in wrt:
        g = grads.get(t)
        out[t] = np.zeros(t.shape) if g is None else g
    return out


# ---------------------------------------------------------------------------
# Forward ops (each optionally recorded on a tape) and their array kernels
#
# A fused op computes what a chain of one op per product, sum, ReLU and norm
# would, with the same numpy expressions in the same order, and its backward
# hands the tape its partial gradients in the order that chain did, so
# `backward` adds them up to the same bits. An op updates in place only the
# arrays it allocated itself; it never writes to an incoming gradient `g`,
# which the tape may also hold for another input.
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


def _feed_forward(x, w1, b1, w2, b2):
    """The feed-forward kernel on arrays: relu(x @ w1 + b1) @ w2 + b2, and
    what the backward needs: the ReLU's output."""
    inner = x @ w1
    inner += b1
    np.maximum(inner, 0.0, out=inner)
    out = inner @ w2
    out += b2
    return out, inner


def feed_forward(x, w1, b1, w2, b2, tape=None):
    """Position-wise feed-forward network, relu(x @ w1 + b1) @ w2 + b2, for
    x (n, d), w1 (d, f), b1 (f,), w2 (f, d) and b2 (d,)."""
    xd, w1d, w2d = x.data, w1.data, w2.data
    if xd.ndim != 2 or w1d.ndim != 2 or xd.shape[1] != w1d.shape[0] \
            or b1.data.shape != w1d.shape[1:] or w2d.shape != w1d.shape[::-1] \
            or b2.data.shape != xd.shape[1:]:
        raise ShapeMismatchError(
            f"feed_forward shapes do not agree: x {xd.shape}, w1 {w1d.shape}, "
            f"b1 {b1.data.shape}, w2 {w2d.shape}, b2 {b2.data.shape}")
    out, inner = _feed_forward(xd, w1d, b1.data, w2d, b2.data)
    out = _wrap(out)
    if tape is not None:
        keep = inner > 0.0  # after the ReLU: positive exactly where it was

        def bwd(g):
            gin = g @ w2d.T
            gin *= keep
            return (gin @ w1d.T, xd.T @ gin, np.add.reduce(gin, axis=0),
                    inner.T @ g, np.add.reduce(g, axis=0))
        tape.record(out, (x, w1, b1, w2, b2), bwd)
    return out


def _add_layer_norm(x, y, gain, bias):
    """The residual-norm kernel on arrays: the norm of x + y times gain plus
    bias, and what the backward needs: the normalized sum and the inverse
    standard deviation per row."""
    d = x.shape[-1]
    xhat = x + y
    # sum / d is what ndarray.mean computes, without its Python wrapper
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + _EPS)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, (xhat, inv)


def add_layer_norm(x, y, gain, bias, tape=None):
    """Layer norm of the residual sum x + y over the last axis: mean 0 and
    variance 1 per row, times `gain` (d,), plus `bias` (d,)."""
    xd, gd = x.data, gain.data
    d = xd.shape[-1]
    if y.data.shape != xd.shape or gd.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"add_layer_norm shapes do not agree: x {xd.shape}, y {y.data.shape}, "
            f"gain {gd.shape}, bias {bias.data.shape}")
    out, (xhat, inv) = _add_layer_norm(xd, y.data, gd, bias.data)
    out = _wrap(out)
    if tape is not None:
        def bwd(g):
            dx = g * gd
            mean = np.add.reduce(dx, axis=-1, keepdims=True) / d
            proj = xhat * np.add.reduce(dx * xhat, axis=-1, keepdims=True)
            proj /= d
            dx -= mean
            dx -= proj
            dx *= inv
            return dx, dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0)
        tape.record(out, (x, y, gain, bias), bwd)
    return out


def _attention(x, wqkv, wo, mask, n_heads):
    """The attention kernel on arrays: the output, and what the backward
    needs: the per-head q, k and v, the attention weights, the heads' outputs
    side by side and the score scale. Every row of `mask` must have an open
    entry, as every build_ct_mask row does (a position sees itself)."""
    n, d = x.shape
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)  # the same correctly rounded root as np.sqrt
    q, k, v = (x @ wqkv).reshape(n, 3, n_heads, dk).transpose(1, 2, 0, 3)
    p = q @ k.transpose(0, 2, 1)
    p *= scale
    p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)  # exp(-inf) == 0 exactly
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    heads = (p @ v).transpose(1, 0, 2).reshape(n, d)
    return heads @ wo, (q, k, v, p, heads, scale)


def attention(x, wqkv, wo, mask, n_heads, tape=None):
    """Masked scaled dot-product self-attention of all heads, then the output
    projection: the attention sublayer but its residual, in one op.

    `x` (n, d) is projected by `wqkv` (d, 3d), whose columns are
    [q_0 .. q_{H-1} | k_0 .. | v_0 ..], each block d/H wide. `mask` is an
    additive (n, n) array with entries in {0, -inf}, shared by every head and
    not differentiated; a fully masked row cannot be normalized and raises
    ContractError. The heads' outputs, side by side, are multiplied by `wo`
    (d, d); returns (n, d).

    The backward hands x's gradient to the tape one (head, projection) block
    at a time: last head first, v then k then q. That is the order in which
    separate per-head projections (the CTT1 layout) add up, so training gives
    the same bits as with them.
    """
    xd, wd, wod = x.data, wqkv.data, wo.data
    d = wd.shape[0]
    if n_heads < 1 or d % n_heads or wd.shape != (d, 3 * d) \
            or wod.shape != (d, d) or xd.ndim != 2 or xd.shape[1] != d:
        raise ShapeMismatchError(
            f"x {xd.shape}, wqkv {wd.shape} and wo {wod.shape} do not split "
            f"into 3 x {n_heads} heads")
    n = xd.shape[0]
    if mask.shape != (n, n):
        raise ShapeMismatchError(f"mask shape {mask.shape} != ({n}, {n})")
    if np.minimum.reduce(np.maximum.reduce(mask, axis=-1)) == -np.inf:
        raise ContractError("fully masked row cannot be normalized")
    out, (q, k, v, p, heads, scale) = _attention(xd, wd, wod, mask, n_heads)
    out = _wrap(out)
    if tape is not None:
        dk = d // n_heads
        w = wd.reshape(d, 3, n_heads, dk)

        def bwd(g):
            gwo = heads.T @ g
            g = (g @ wod.T).reshape(n, n_heads, dk).transpose(1, 0, 2)
            gz = g @ v.transpose(0, 2, 1)
            gz -= np.add.reduce(gz * p, axis=-1, keepdims=True)
            gz *= p
            gz *= scale
            gqkv = np.stack((gz @ k, gz.transpose(0, 2, 1) @ q,
                             p.transpose(0, 2, 1) @ g))  # (3, H, n, dk)
            gx = [gqkv[c, h] @ w[:, c, h].T
                  for h in reversed(range(n_heads)) for c in (2, 1, 0)]
            gw = xd.T @ gqkv.transpose(2, 0, 1, 3).reshape(n, 3 * d)
            return (*gx, gw, gwo)
        tape.record(out, (x,) * (3 * n_heads) + (wqkv, wo), bwd)
    return out


def _embedding_lookup(table, idx):
    """The embedding kernel: rows of the array `table` by the int64 ids
    `idx`, which must lie in [0, rows) (ContractError)."""
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise ContractError(
            f"token id {bad} outside vocabulary of {table.shape[0]}")
    return table[idx]


def embedding_lookup(table, ids, tape=None):
    """Gather rows of `table` by integer id."""
    idx = np.asarray(ids, dtype=np.int64)
    out = _wrap(_embedding_lookup(table.data, idx))
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
