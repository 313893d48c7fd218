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
The kernels take one sequence's rows or several sequences' rows stacked, so
a training process computes its whole share of a batch in one pass.
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
# pass did, so gradients keep their bits.
#
# The arrays may hold several sequences' rows one after another. Row-wise
# work (the norms, the ReLU, a bias) and untransposed products `x @ W` run
# once over all rows: numpy gives a block of two or more rows the same bits
# inside a taller product as on its own. Work whose bits depend on a
# sequence's row count runs on each sequence's rows alone: the attention
# core, every transposed product `g @ W.T`, the parameter-gradient products
# `x.T @ g` and the sums over rows. A backward takes the sequences' row
# slices, `segments`, and per parameter a list of arrays, one per sequence,
# that it writes the sequence's gradient into; it adds the input's gradient
# into `gx`, which may be `g` itself: every read of a sequence's rows of
# `g` comes before the write to them.
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


def _feed_forward_backward(g, x, w1, w2, inner, segments, gx, gw1, gb1, gw2,
                           gb2):
    """Write each sequence's gradients of w1, b1, w2 and b2 into its arrays
    in the lists gw1, gb1, gw2 and gb2, and add x's into gx."""
    gin = np.empty_like(inner)
    for s in segments:
        np.matmul(g[s], w2.T, out=gin[s])
    gin *= inner > 0.0  # after the ReLU: positive exactly where it was
    for s, gw1_s, gb1_s, gw2_s, gb2_s in zip(segments, gw1, gb1, gw2, gb2):
        np.matmul(inner[s].T, g[s], out=gw2_s)
        np.add.reduce(g[s], axis=0, out=gb2_s)
        np.matmul(x[s].T, gin[s], out=gw1_s)
        np.add.reduce(gin[s], axis=0, out=gb1_s)
        gx[s] += gin[s] @ w1.T


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


def _add_layer_norm_backward(g, gain, saved, segments, ggain, gbias):
    """Write each sequence's gradients of gain and bias into its arrays in
    the lists ggain and gbias, and return the gradient of x + y, which is
    x's and y's."""
    xhat, inv = saved
    d = xhat.shape[-1]
    dx = g * gain
    mean = np.add.reduce(dx, axis=-1, keepdims=True) / d
    proj = xhat * np.add.reduce(dx * xhat, axis=-1, keepdims=True)
    proj /= d
    dx -= mean
    dx -= proj
    dx *= inv
    gxhat = g * xhat
    for s, ggain_s, gbias_s in zip(segments, ggain, gbias):
        np.add.reduce(gxhat[s], axis=0, out=ggain_s)
        np.add.reduce(g[s], axis=0, out=gbias_s)
    return dx


def _attention(x, wqkv, wo, masks, n_heads):
    """The attention kernel: masked scaled dot-product self-attention of all
    heads, then the output projection, and what the backward needs: per
    sequence the per-head q, k and v and the attention weights, then the
    heads' outputs side by side and the score scale.

    `x` (N, d) holds the rows of one or more sequences one after another,
    one sequence per entry of `masks`, an additive (n, n) array for a
    sequence of n rows with entries in {0, -inf}, shared by every head;
    every row must have an open entry, as every build_ct_mask row does (a
    position sees itself). `x` is projected by `wqkv` (d, 3d), whose columns
    are [q_0 .. q_{H-1} | k_0 .. | v_0 ..], each block d/H wide. The
    projections and the heads' outputs, side by side, multiplied by `wo`
    (d, d), are one product over all rows; the scores, the softmax and the
    weighted sum are each sequence's own.
    """
    d = x.shape[1]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)  # the same correctly rounded root as np.sqrt
    qkv = x @ wqkv
    per_sequence, heads, start = [], [], 0
    for mask in masks:
        n = len(mask)
        q, k, v = qkv[start:start + n].reshape(n, 3, n_heads, dk).transpose(1, 2, 0, 3)
        p = q @ k.transpose(0, 2, 1)
        p *= scale
        p += mask
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)  # exp(-inf) == 0 exactly
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        heads.append((p @ v).transpose(1, 0, 2).reshape(n, d))
        per_sequence.append((q, k, v, p))
        start += n
    heads = _stack(heads)
    return heads @ wo, (per_sequence, heads, scale)


def _attention_backward(g, x, wqkv, wo, saved, n_heads, segments, gx, gwqkv,
                        gwo):
    """Write each sequence's gradients of wqkv and wo into its arrays in the
    lists gwqkv and gwo, and add x's into gx one (head, projection) block at
    a time: last head first, v then k then q. That is the order in which
    separate per-head projections (the CTT1 layout) add up, so training
    gives the same bits as with them. A sequence's blocks come from one
    batched product over its (projection, head) pairs."""
    per_sequence, heads, scale = saved
    d = x.shape[1]
    dk = d // n_heads
    # block (c, h) of wqkv, transposed: the (d_k, d) map back to x
    w = wqkv.reshape(d, 3, n_heads, dk).transpose(1, 2, 3, 0)
    blocks = np.empty((3, n_heads, len(x), d))
    for s, (q, k, v, p), gwqkv_s, gwo_s in zip(segments, per_sequence, gwqkv, gwo):
        gs = g[s]
        n = len(gs)
        np.matmul(heads[s].T, gs, out=gwo_s)
        gh = (gs @ wo.T).reshape(n, n_heads, dk).transpose(1, 0, 2)
        gz = gh @ v.transpose(0, 2, 1)
        gz -= np.add.reduce(gz * p, axis=-1, keepdims=True)
        gz *= p
        gz *= scale
        gqkv = np.empty((3, n_heads, n, dk))
        np.matmul(gz, k, out=gqkv[0])
        np.matmul(gz.transpose(0, 2, 1), q, out=gqkv[1])
        np.matmul(p.transpose(0, 2, 1), gh, out=gqkv[2])
        np.matmul(x[s].T, gqkv.transpose(2, 0, 1, 3).reshape(n, 3 * d), out=gwqkv_s)
        np.matmul(gqkv, w, out=blocks[:, :, s])
    for h in reversed(range(n_heads)):
        for c in (2, 1, 0):
            gx += blocks[c, h]


def _embedding_lookup(table, idx, positions):
    """The embedding kernel: rows of the array `table` by the int64 ids
    `idx`, which must lie in [0, rows) (ContractError), plus `positions`."""
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise ContractError(
            f"token id {bad} outside vocabulary of {table.shape[0]}")
    return table[idx] + positions


def _embedding_backward(g, idx, segments, gtable):
    """Write each sequence's gradient of the table into its array in the
    list gtable: its rows of g added up by id."""
    for s, gtable_s in zip(segments, gtable):
        gtable_s.fill(0.0)
        np.add.at(gtable_s, idx[s], g[s])


def _stack(parts):
    """The arrays `parts` one after another along the first axis: the one
    array itself if there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
