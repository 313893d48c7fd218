"""Dense numeric core: the array kernels of the encoder's sublayers and
their backwards, and the loss.

Everything is float64 so gradient checks against central finite differences
are robust.

An encoder layer is four sublayers, so that a forward at streaming sizes
(about ten words) makes few Python-level calls: attention (the fused q/k/v
projection, every head's masked softmax and the output projection),
residual sum plus layer norm, the feed-forward network (both projections
and the ReLU) and residual sum plus layer norm again. The embedding adds the
positions to the token rows.

Each sublayer, and the embedding, has one kernel, a private function on
plain arrays (`_attention`, `_add_layer_norm`, `_feed_forward`,
`_embedding_lookup`) that returns its output plus what its backward needs,
and one backward (`_attention_backward` and so on) that takes those and the
output's gradient. `model` runs the kernels as its one forward, for
inference and for training, and the backwards in reverse for the gradient.
`_cross_entropy_mean` and `_cross_entropy_mean_backward` are the loss.
`Tensor` and `matmul` serve the tagging heads' public forward.
"""

import math

import numpy as np


_EPS = 1e-6


class ShapeMismatchError(ValueError):
    pass


class ContractError(ValueError):
    pass


class Tensor:
    """Dense array, row-major, read-only through the Tensor. A ModelParams'
    tensors are views of its one parameter vector, which `train`'s optimizer
    updates in place."""

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


def matmul(a, b):
    """Matrix product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    return _wrap(a.data @ b.data)


# ---------------------------------------------------------------------------
# Array kernels and their backwards
#
# A kernel computes what a chain of one op per product, sum, ReLU and norm
# would, with the same numpy expressions in the same order. Its backward
# does the same for that chain's backward, and where an input's gradient
# has several parts, it adds them in the order that chain's reverse-mode
# pass did, so gradients keep their bits. A backward writes parameter
# gradients into the arrays it is given and adds the input's gradient into
# `gx`, which may be `g` itself: every read of `g` comes first.
# ---------------------------------------------------------------------------


def _feed_forward(x, w1, b1, w2, b2):
    """The feed-forward kernel: relu(x @ w1 + b1) @ w2 + b2, for x (n, d),
    w1 (d, f), b1 (f,), w2 (f, d) and b2 (d,), and what the backward needs:
    the ReLU's output."""
    inner = x @ w1
    inner += b1
    np.maximum(inner, 0.0, out=inner)
    out = inner @ w2
    out += b2
    return out, inner


def _feed_forward_backward(g, x, w1, w2, inner, gx, gw1, gb1, gw2, gb2):
    """Write the gradients of w1, b1, w2 and b2 into gw1, gb1, gw2 and gb2,
    and add x's into gx."""
    gin = g @ w2.T
    gin *= inner > 0.0  # after the ReLU: positive exactly where it was
    np.matmul(inner.T, g, out=gw2)
    np.add.reduce(g, axis=0, out=gb2)
    np.matmul(x.T, gin, out=gw1)
    np.add.reduce(gin, axis=0, out=gb1)
    gx += gin @ w1.T


def _add_layer_norm(x, y, gain, bias):
    """The residual-norm kernel: the layer norm of x + y over the last axis
    (mean 0 and variance 1 per row) times `gain` (d,) plus `bias` (d,), and
    what the backward needs: the normalized sum and the inverse standard
    deviation per row."""
    d = x.shape[-1]
    xhat = x + y
    # sum / d is what ndarray.mean computes, without its Python wrapper
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + _EPS)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, (xhat, inv)


def _add_layer_norm_backward(g, gain, saved, ggain, gbias):
    """Write the gradients of gain and bias into ggain and gbias, and return
    the gradient of x + y, which is x's and y's."""
    xhat, inv = saved
    d = xhat.shape[-1]
    dx = g * gain
    mean = np.add.reduce(dx, axis=-1, keepdims=True) / d
    proj = xhat * np.add.reduce(dx * xhat, axis=-1, keepdims=True)
    proj /= d
    dx -= mean
    dx -= proj
    dx *= inv
    np.add.reduce(g * xhat, axis=0, out=ggain)
    np.add.reduce(g, axis=0, out=gbias)
    return dx


def _attention(x, wqkv, wo, mask, n_heads):
    """The attention kernel: masked scaled dot-product self-attention of all
    heads, then the output projection, and what the backward needs: the
    per-head q, k and v, the attention weights, the heads' outputs side by
    side and the score scale.

    `x` (n, d) is projected by `wqkv` (d, 3d), whose columns are
    [q_0 .. q_{H-1} | k_0 .. | v_0 ..], each block d/H wide. `mask` is an
    additive (n, n) array with entries in {0, -inf}, shared by every head;
    every row must have an open entry, as every build_ct_mask row does (a
    position sees itself). The heads' outputs, side by side, are multiplied
    by `wo` (d, d).
    """
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


def _attention_backward(g, x, wqkv, wo, saved, n_heads, gx, gwqkv, gwo):
    """Write the gradients of wqkv and wo into gwqkv and gwo, and add x's
    into gx one (head, projection) block at a time: last head first, v then
    k then q. That is the order in which separate per-head projections (the
    CTT1 layout) add up, so training gives the same bits as with them."""
    q, k, v, p, heads, scale = saved
    n, d = x.shape
    dk = d // n_heads
    np.matmul(heads.T, g, out=gwo)
    g = (g @ wo.T).reshape(n, n_heads, dk).transpose(1, 0, 2)
    gz = g @ v.transpose(0, 2, 1)
    gz -= np.add.reduce(gz * p, axis=-1, keepdims=True)
    gz *= p
    gz *= scale
    gqkv = np.stack((gz @ k, gz.transpose(0, 2, 1) @ q,
                     p.transpose(0, 2, 1) @ g))  # (3, H, n, dk)
    np.matmul(x.T, gqkv.transpose(2, 0, 1, 3).reshape(n, 3 * d), out=gwqkv)
    w = wqkv.reshape(d, 3, n_heads, dk)
    for h in reversed(range(n_heads)):
        for c in (2, 1, 0):
            gx += gqkv[c, h] @ w[:, c, h].T


def _embedding_lookup(table, idx, positions):
    """The embedding kernel: rows of the array `table` by the int64 ids
    `idx`, which must lie in [0, rows) (ContractError), plus `positions`."""
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise ContractError(
            f"token id {bad} outside vocabulary of {table.shape[0]}")
    return table[idx] + positions


def _embedding_backward(g, idx, gtable):
    """Write the table's gradient into gtable: g's rows added up by id."""
    gtable.fill(0.0)
    np.add.at(gtable, idx, g)


def _cross_entropy_mean(logits, targets):
    """Mean per-row cross entropy of the array `logits` (n, C) against
    integer targets, and what the backward needs: the int64 targets and the
    log-sum-exp per row. A target count other than n, or a target outside
    [0, C), raises ContractError."""
    t = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if t.shape != (n,):
        raise ContractError(
            f"cross_entropy_mean: {n} logit rows vs {t.shape} targets")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ContractError(f"target id out of range for {c} classes")
    zmax = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax
    picked = logits[np.arange(n), t][:, None]
    return (lse - picked).mean(), (t, lse)


def _cross_entropy_mean_backward(logits, saved):
    """The gradient of the mean cross entropy for the logits."""
    t, lse = saved
    n = len(t)
    p = np.exp(logits - lse)
    p[np.arange(n), t] -= 1.0
    p *= 1.0 / n
    return p
