import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream.masks import build_ct_mask
from puncstream.numcore import Tensor


# The reference autodiff: a tape of executed ops, replayed backward. The
# library has no tape; its gradient runs its kernels' own backwards. These
# tests hold those to a reverse-mode pass over one op per product, sum, ReLU
# and norm, the chain whose bits training has kept since it was the
# library's own forward.

class Tape:
    """Ordered record of executed ops, replayed backward for gradients."""

    def __init__(self):
        self._entries = []  # (out, inputs, backward_fn)

    def record(self, out, inputs, backward_fn):
        self._entries.append((out, inputs, backward_fn))

    def __len__(self):
        return len(self._entries)


def backward(loss, tape, wrt):
    """Gradients of a scalar loss with respect to the tensors in `wrt`.

    Returns a dict keyed by Tensor (identity) holding exactly those tensors,
    with exact-zero gradients for any that did not influence the loss. An
    input's gradient parts are added up in the reverse order of the ops.
    """
    if loss.shape != ():
        raise nc.ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
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


def matmul(a, b, tape=None):
    """Matrix product of two 2-d tensors."""
    out = nc.matmul(a, b)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
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
    out = Tensor(a.data + b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                            _unbroadcast(g, b.shape)))
    return out


# Taped ops for building scalar losses in the gradient tests.

def mul(a, b, tape=None):
    """Elementwise product of two tensors of one shape."""
    out = Tensor(a.data * b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def total(a, tape=None):
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(a.data.sum())
    if tape is not None:
        tape.record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))
    return out


# The op chain an encoder layer ran before its sublayers became one kernel
# each: reference ops for the kernels, which must give the same bits.

def relu(a, tape=None):
    out = nc._wrap(np.maximum(a.data, 0.0))
    if tape is not None:
        keep = a.data > 0.0
        tape.record(out, (a,), lambda g: (g * keep,))
    return out


def multi_head_attention(x, wqkv, mask, n_heads, tape=None):
    """All heads' masked attention without the output projection; x's
    gradient goes to the tape per (head, projection) block, last head first,
    v then k then q."""
    d = wqkv.shape[0]
    n = x.shape[0]
    dk = d // n_heads
    scale = 1.0 / np.sqrt(dk)
    qkv = x.data @ wqkv.data
    q, k, v = qkv.reshape(n, 3, n_heads, dk).transpose(1, 2, 0, 3)
    z = (q @ k.transpose(0, 2, 1)) * scale + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = nc._wrap((p @ v).transpose(1, 0, 2).reshape(n, d))
    if tape is not None:
        w = wqkv.data.reshape(d, 3, n_heads, dk)

        def bwd(g):
            g = g.reshape(n, n_heads, dk).transpose(1, 0, 2)
            gp = g @ v.transpose(0, 2, 1)
            gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            gqkv = np.stack((gz @ k, gz.transpose(0, 2, 1) @ q,
                             p.transpose(0, 2, 1) @ g))
            gx = [gqkv[c, h] @ w[:, c, h].T
                  for h in reversed(range(n_heads)) for c in (2, 1, 0)]
            gw = x.data.T @ gqkv.transpose(2, 0, 1, 3).reshape(n, 3 * d)
            return (*gx, gw)
        tape.record(out, (x,) * (3 * n_heads) + (wqkv,), bwd)
    return out


def layer_norm(x, gain, bias, tape=None):
    d = x.shape[-1]
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / d + 1e-6)
    xhat = centred * inv
    out = nc._wrap(xhat * gain.data + bias.data)
    if tape is not None:
        def bwd(g):
            dxhat = g * gain.data
            dx = inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)
            axes = tuple(range(g.ndim - 1))
            return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)
        tape.record(out, (x, gain, bias), bwd)
    return out


def chain_layer(x, ps, mask, n_heads, tape=None):
    """One encoder layer as the chain of 11 ops."""
    attn = matmul(multi_head_attention(x, ps["wqkv"], mask, n_heads, tape),
                  ps["wo"], tape)
    x = layer_norm(add(x, attn, tape), ps["g1"], ps["b1"], tape)
    inner = relu(add(matmul(x, ps["w1"], tape), ps["fb1"], tape), tape)
    ff = add(matmul(inner, ps["w2"], tape), ps["fb2"], tape)
    return layer_norm(add(x, ff, tape), ps["g2"], ps["b2"], tape)


def embedding(table, ids, positions, tape=None):
    """Rows of `table` by id plus the array `positions`."""
    idx = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[idx] + positions)
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
    n = logits.shape[0]
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    picked = z[np.arange(n), t][:, None]
    out = Tensor((lse - picked).mean())
    if tape is not None:
        def bwd(g):
            p = np.exp(z - lse)
            p[np.arange(n), t] -= 1.0
            return (p * (float(g) / n),)
        tape.record(out, (logits,), bwd)
    return out


_CHAIN_PARAMS = {"wqkv": "wqkv", "wo": "wo", "g1": "norm1.gain",
                 "b1": "norm1.bias", "w1": "ff.w1", "fb1": "ff.b1",
                 "w2": "ff.w2", "fb2": "ff.b2", "g2": "norm2.gain",
                 "b2": "norm2.bias"}


def reference_forward(ids, config, params, tape=None):
    """The model as reference ops: the embedding, the op chain per layer
    and a matmul and an add per head; returns (punct, disf) logits."""
    n = len(ids)
    x = embedding(params["embed"], ids,
                  mdl._positions(n, config.d_model, config.max_positions), tape)
    for i, budget in enumerate(config.mask_spec.per_layer_lookahead):
        ps = {short: params[f"layer{i}.{name}"] for short, name in _CHAIN_PARAMS.items()}
        x = chain_layer(x, ps, build_ct_mask(n, budget), config.n_heads, tape)
    return tuple(add(matmul(x, params[f"{head}.w"], tape), params[f"{head}.b"], tape)
                 for head in ("punct", "disf"))


def reference_loss(ids, punct_ids, disf_ids, config, params, tape=None):
    """The joint loss of the reference model, as a scalar tensor."""
    punct, disf = reference_forward(ids, config, params, tape)
    return add(cross_entropy_mean(punct, punct_ids, tape),
               cross_entropy_mean(disf, disf_ids, tape), tape)


# Taped wrappers of the sublayer kernels and their backwards, for the
# finite-difference checks. Each starts its input's gradient at zero.

def attention(x, wqkv, wo, mask, n_heads, tape=None):
    out, saved = nc._attention(x.data, wqkv.data, wo.data, [mask], n_heads)
    out = Tensor(out)
    if tape is not None:
        def bwd(g):
            gx, gw, gwo = np.zeros(x.shape), np.empty(wqkv.shape), np.empty(wo.shape)
            nc._attention_backward(g, x.data, wqkv.data, wo.data, saved, n_heads,
                                   [slice(0, len(g))], gx, [gw], [gwo])
            return gx, gw, gwo
        tape.record(out, (x, wqkv, wo), bwd)
    return out


def add_layer_norm(x, y, gain, bias, tape=None):
    out, saved = nc._add_layer_norm(x.data, y.data, gain.data, bias.data)
    out = Tensor(out)
    if tape is not None:
        def bwd(g):
            gg, gb = np.empty(gain.shape), np.empty(bias.shape)
            dx = nc._add_layer_norm_backward(g, gain.data, saved,
                                             [slice(0, len(g))], [gg], [gb])
            return dx, dx, gg, gb
        tape.record(out, (x, y, gain, bias), bwd)
    return out


def feed_forward(x, w1, b1, w2, b2, tape=None):
    out, inner = nc._feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)
    out = Tensor(out)
    if tape is not None:
        def bwd(g):
            gx = np.zeros(x.shape)
            grads = [np.empty(t.shape) for t in (w1, b1, w2, b2)]
            nc._feed_forward_backward(g, x.data, w1.data, w2.data, inner,
                                      [slice(0, len(g))], gx,
                                      *([grad] for grad in grads))
            return (gx, *grads)
        tape.record(out, (x, w1, b1, w2, b2), bwd)
    return out


def fused_layer(x, ps, mask, n_heads):
    """One encoder layer as the four kernels on arrays: the output, and what
    fused_layer_backward needs."""
    a = {name: t.data for name, t in ps.items()}
    y, att = nc._attention(x, a["wqkv"], a["wo"], [mask], n_heads)
    x1, norm1 = nc._add_layer_norm(x, y, a["g1"], a["b1"])
    y, inner = nc._feed_forward(x1, a["w1"], a["fb1"], a["w2"], a["fb2"])
    out, norm2 = nc._add_layer_norm(x1, y, a["g2"], a["b2"])
    return out, (att, x1, norm1, inner, norm2)


def fused_layer_backward(g, x, ps, saved, n_heads):
    """The gradients of x and of every parameter from the output's gradient
    g, with the kernels' backwards in the order the encoder runs them."""
    a = {name: t.data for name, t in ps.items()}
    att, x1, norm1, inner, norm2 = saved
    grads = {name: np.empty(t.shape) for name, t in ps.items()}
    one = {name: [grad] for name, grad in grads.items()}
    rows = [slice(0, len(g))]
    g = nc._add_layer_norm_backward(g, a["g2"], norm2, rows, one["g2"], one["b2"])
    nc._feed_forward_backward(g, x1, a["w1"], a["w2"], inner, rows, g, one["w1"],
                              one["fb1"], one["w2"], one["fb2"])
    g = nc._add_layer_norm_backward(g, a["g1"], norm1, rows, one["g1"], one["b1"])
    nc._attention_backward(g, x, a["wqkv"], a["wo"], att, n_heads, rows, g,
                           one["wqkv"], one["wo"])
    return g, grads


def test_matmul_identity():
    out = nc.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
    assert out.data.tolist() == [[3, 4], [5, 6]]


def test_matmul_hand():
    out = nc.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
    assert out.data.tolist() == [[11]]


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = nc.matmul(Tensor(a), Tensor(b))
    assert np.abs(out.data - expected).max() < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(nc.ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def _attention_probs(scores, mask):
    """The attention weights the kernel gives one head for (n, n) scores,
    n <= 16. With d_k = 16 the scale is exactly 1/4; x = [I | 0] and wqkv
    make q = 4 * scores and k = v = [I | 0], and wo = I, so the output is p
    itself."""
    n, dk = len(scores), 16
    wqkv = np.zeros((dk, 3 * dk))
    wqkv[:n, :n] = 4.0 * np.asarray(scores)
    wqkv[:n, dk:dk + n] = np.eye(n)
    wqkv[:n, 2 * dk:2 * dk + n] = np.eye(n)
    out, _ = nc._attention(np.eye(n, dk), wqkv, np.eye(dk),
                           [np.asarray(mask, dtype=np.float64)], 1)
    return out[:, :n]


def test_masked_softmax_uniform_over_allowed():
    out = _attention_probs(np.zeros((2, 2)), [[0.0, -np.inf], [0.0, 0.0]])
    assert out.tolist() == [[1.0, 0.0], [0.5, 0.5]]


def test_masked_softmax_zero_mask_is_plain_softmax():
    x = np.array([[1.3, -0.7], [0.2, 2.1]])
    out = _attention_probs(x, np.zeros((2, 2)))
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert np.allclose(out, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_masked_softmax_random_against_exp_sum_oracle():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(6, 6))
    mask = np.where(rng.random((6, 6)) < 0.4, -np.inf, 0.0)
    mask[np.arange(6), np.arange(6)] = 0.0  # keep every row normalizable
    out = _attention_probs(scores, mask)
    expected = np.zeros((6, 6))
    for i in range(6):
        allowed = [j for j in range(6) if mask[i, j] == 0.0]
        z = np.exp([scores[i, j] for j in allowed])
        for j, v in zip(allowed, z / z.sum()):
            expected[i, j] = v
    assert np.abs(out - expected).max() < 1e-12
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9


def test_masked_softmax_masked_entries_exactly_zero():
    out = _attention_probs([[50.0, -60.0, 3.0]] * 3,
                           [[0.0, -np.inf, 0.0]] * 3)
    assert np.all(out[:, 1] == 0.0)
    assert np.all(np.isfinite(out))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-30, 30))
def test_masked_softmax_shift_invariance(row, shift):
    x = np.array([row] * len(row))
    mask = np.zeros_like(x)
    a = _attention_probs(x, mask)
    b = _attention_probs(x + shift, mask)
    assert np.abs(a - b).max() < 1e-9


def _layer_norm(x, gain, bias):
    """The library's layer norm: the residual-norm kernel with a zero
    residual."""
    x = np.asarray(x, dtype=np.float64)
    return nc._add_layer_norm(x, np.zeros_like(x), gain, bias)[0]


def test_layer_norm_constant_row_collapses_to_bias():
    out = _layer_norm([[5.0, 5.0, 5.0, 5.0]], np.ones(4), np.zeros(4))
    assert np.abs(out).max() == 0.0


def test_layer_norm_already_normalized():
    out = _layer_norm([[1.0, -1.0]], np.ones(2), np.zeros(2))
    assert np.abs(out - [[1.0, -1.0]]).max() < 1e-5


def test_layer_norm_matches_mean_var_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 7))
    gain, bias = rng.normal(size=7), rng.normal(size=7)
    out = _layer_norm(x, gain, bias)
    for i in range(3):
        mean = sum(x[i]) / 7
        var = sum((v - mean) ** 2 for v in x[i]) / 7
        expected = (x[i] - mean) / np.sqrt(var + 1e-6) * gain + bias
        assert np.abs(out[i] - expected).max() < 1e-10


def test_backward_sum_gives_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    loss = total(p, tape)
    grads = backward(loss, tape, wrt=[p])
    assert grads[p].tolist() == [[1, 1, 1], [1, 1, 1]]


def test_backward_square_at_three():
    p = Tensor(np.array([3.0]))
    tape = Tape()
    loss = total(mul(p, p, tape), tape)
    grads = backward(loss, tape, wrt=[p])
    assert grads[p].tolist() == [6.0]


def test_backward_requires_scalar_loss():
    p = Tensor(np.ones(3))
    tape = Tape()
    out = mul(p, p, tape)
    with pytest.raises(nc.ContractError, match="scalar"):
        backward(out, tape, wrt=[p])


def test_backward_uninvolved_parameter_gets_exact_zero():
    p = Tensor(np.array([2.0]))
    q = Tensor(np.array([4.0]))
    tape = Tape()
    loss = total(mul(p, p, tape), tape)
    grads = backward(loss, tape, wrt=[p, q])
    assert grads[q].tolist() == [0.0]


def _fd_check(build_loss, tensors, h=1e-5, tol=1e-4, rng=None):
    """Central finite differences against reverse mode for each entry."""
    tape = Tape()
    loss = build_loss(tensors, tape)
    grads = backward(loss, tape, wrt=list(tensors.values()))
    for name, t in tensors.items():
        g = grads[t]
        flat = t.data.ravel()
        for idx in range(flat.size):
            def value_at(delta):
                data = t.data.copy()
                data.ravel()[idx] += delta
                probe = dict(tensors)
                probe[name] = Tensor(data)
                return build_loss(probe, None).item()
            fd = (value_at(h) - value_at(-h)) / (2 * h)
            ad = g.ravel()[idx]
            denom = max(abs(fd), abs(ad), 1.0)
            assert abs(fd - ad) / denom < tol, f"{name}[{idx}]: fd={fd} ad={ad}"


def test_gradient_check_composed_ops():
    rng = np.random.default_rng(3)
    tensors = {
        "x": Tensor(rng.normal(size=(3, 4))),
        "w": Tensor(rng.normal(size=(4, 4))),
        "gain": Tensor(rng.normal(size=4)),
        "bias": Tensor(rng.normal(size=4)),
        "wqkv": Tensor(rng.normal(size=(4, 12))),
        "wo": Tensor(rng.normal(size=(4, 4))),
        "w1": Tensor(rng.normal(size=(4, 6))),
        "b1": Tensor(rng.normal(size=6)),
        "w2": Tensor(rng.normal(size=(6, 4))),
        "b2": Tensor(rng.normal(size=4)),
    }
    mask = np.triu(np.full((3, 3), -np.inf), k=2)

    def build(ts, tape):
        h = matmul(ts["x"], ts["w"], tape)
        ff = feed_forward(h, ts["w1"], ts["b1"], ts["w2"], ts["b2"], tape)
        h = add_layer_norm(h, ff, ts["gain"], ts["bias"], tape)
        att = attention(h, ts["wqkv"], ts["wo"], mask, 1, tape)
        return total(mul(att, add(h, att, tape), tape), tape)

    _fd_check(build, tensors)


def _attention_inputs(n, n_heads, dk, lookahead, seed):
    rng = np.random.default_rng(seed)
    d = n_heads * dk
    x = Tensor(rng.normal(size=(n, d)))
    wqkv = Tensor(rng.normal(size=(d, 3 * d)))
    return x, wqkv, build_ct_mask(n, lookahead)


@pytest.mark.parametrize("n_heads,lookahead", [(1, 0), (1, 2), (2, 0), (2, 2)])
def test_gradient_check_multi_head_attention(n_heads, lookahead):
    x, wqkv, mask = _attention_inputs(4, n_heads, 3, lookahead, seed=5)
    rng = np.random.default_rng(6)
    wo = Tensor(rng.normal(size=(3 * n_heads, 3 * n_heads)))
    weights = Tensor(rng.normal(size=(4, 3 * n_heads)))

    def build(ts, tape):
        out = attention(ts["x"], ts["wqkv"], ts["wo"], mask, n_heads, tape)
        return total(mul(out, weights, tape), tape)

    _fd_check(build, {"x": x, "wqkv": wqkv, "wo": wo})


def test_gradient_check_add_layer_norm():
    rng = np.random.default_rng(21)
    tensors = {"x": Tensor(rng.normal(size=(3, 5))),
               "y": Tensor(rng.normal(size=(3, 5))),
               "gain": Tensor(rng.normal(size=5)),
               "bias": Tensor(rng.normal(size=5))}
    weights = Tensor(rng.normal(size=(3, 5)))

    def build(ts, tape):
        out = add_layer_norm(ts["x"], ts["y"], ts["gain"], ts["bias"], tape)
        return total(mul(out, weights, tape), tape)

    _fd_check(build, tensors)


def test_gradient_check_feed_forward():
    rng = np.random.default_rng(22)
    tensors = {"x": Tensor(rng.normal(size=(3, 4))),
               "w1": Tensor(rng.normal(size=(4, 6))),
               "b1": Tensor(rng.normal(size=6)),
               "w2": Tensor(rng.normal(size=(6, 4))),
               "b2": Tensor(rng.normal(size=4))}
    weights = Tensor(rng.normal(size=(3, 4)))

    def build(ts, tape):
        out = feed_forward(ts["x"], ts["w1"], ts["b1"], ts["w2"], ts["b2"], tape)
        return total(mul(out, weights, tape), tape)

    _fd_check(build, tensors)


def _per_head(x, wqkv, n_heads):
    """Each head's (wq, wk, wv) as contiguous copies, as CTT1 stored them."""
    d = x.shape[1]
    dk = d // n_heads
    return [[np.ascontiguousarray(wqkv[:, (c * n_heads + h) * dk:
                                       (c * n_heads + h + 1) * dk])
             for c in range(3)] for h in range(n_heads)]


def test_multi_head_attention_matches_per_head_loop():
    n, n_heads, dk = 5, 2, 3
    x, wqkv, mask = _attention_inputs(n, n_heads, dk, 1, seed=7)
    out, _ = nc._attention(x.data, wqkv.data, np.eye(n_heads * dk), [mask], n_heads)
    for h, (wq, wk, wv) in enumerate(_per_head(x.data, wqkv.data, n_heads)):
        q, k, v = x.data @ wq, x.data @ wk, x.data @ wv
        cols = slice(h * dk, (h + 1) * dk)
        for i in range(n):
            allowed = [j for j in range(n) if j <= i + 1]
            z = np.array([q[i] @ k[j] for j in allowed]) / np.sqrt(dk)
            w = np.exp(z - z.max())
            w /= w.sum()
            expected = sum(wj * v[j] for wj, j in zip(w, allowed))
            assert np.abs(out[i, cols] - expected).max() < 1e-12


def test_multi_head_attention_gradients_have_per_head_bits():
    # The old per-head ops in numpy: scores, softmax and their backward one
    # head at a time, x's gradient added up residual first, then last head
    # first and v, k, q within a head. The kernel's backward, adding into
    # the residual's gradient, must give the same bits.
    n, n_heads, dk = 6, 2, 4
    x, wqkv, mask = _attention_inputs(n, n_heads, dk, 2, seed=11)
    rng = np.random.default_rng(12)
    weights = rng.normal(size=(n, n_heads * dk))
    wo = Tensor(rng.normal(size=(n_heads * dk, n_heads * dk)))
    _, saved = nc._attention(x.data, wqkv.data, wo.data, [mask], n_heads)
    grads = {x: weights.copy(), wqkv: np.empty(wqkv.shape), wo: np.empty(wo.shape)}
    nc._attention_backward(weights, x.data, wqkv.data, wo.data, saved, n_heads,
                           [slice(0, n)], grads[x], [grads[wqkv]], [grads[wo]])

    upstream = weights @ wo.data.T  # the gradient reaching the heads' outputs
    heads = np.empty((n, n_heads * dk))
    gx, gw = weights, []
    for h, (wq, wk, wv) in reversed(list(enumerate(
            _per_head(x.data, wqkv.data, n_heads)))):
        q, k, v = x.data @ wq, x.data @ wk, x.data @ wv
        z = (q @ k.T) * (1.0 / np.sqrt(dk)) + mask
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        heads[:, h * dk:(h + 1) * dk] = p @ v
        g = upstream[:, h * dk:(h + 1) * dk]
        gp = g @ v.T
        gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * (1.0 / np.sqrt(dk))
        gq, gk, gv = gz @ k, (q.T @ gz).T, p.T @ g
        for gproj, wproj in ((gv, wv), (gk, wk), (gq, wq)):
            gx = gx + gproj @ wproj.T
        gw.append((h, [x.data.T @ gq, x.data.T @ gk, x.data.T @ gv]))
    assert np.array_equal(grads[x], gx)
    for h, blocks in gw:
        for c, block in enumerate(blocks):
            cols = slice((c * n_heads + h) * dk, (c * n_heads + h + 1) * dk)
            assert np.array_equal(grads[wqkv][:, cols], block)
    assert np.array_equal(grads[wo], heads.T @ weights)


def _layer_inputs(n, n_heads, seed):
    rng = np.random.default_rng(seed)
    d, dff = 4 * n_heads, 12
    x = Tensor(rng.normal(size=(n, d)))
    shapes = {"wqkv": (d, 3 * d), "wo": (d, d), "g1": (d,), "b1": (d,),
              "w1": (d, dff), "fb1": (dff,), "w2": (dff, d), "fb2": (d,),
              "g2": (d,), "b2": (d,)}
    ps = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
    return x, ps, Tensor(rng.normal(size=(n, d)))


@pytest.mark.parametrize("n", [1, 3, 12])
@pytest.mark.parametrize("budget", [0, 9])
@pytest.mark.parametrize("n_heads", [1, 2])
def test_fused_layer_matches_the_op_chain_bit_for_bit(n_heads, budget, n):
    # the encoder layer's four kernels and their backwards against the
    # eleven ops they replace: the same output, and the same gradient for
    # the input and for every parameter, to the bit
    x, ps, weights = _layer_inputs(n, n_heads, seed=100 * n_heads + 10 * budget + n)
    mask = build_ct_mask(n, min(budget, n))
    tape = Tape()
    chain_out = chain_layer(x, ps, mask, n_heads, tape)
    loss = total(mul(chain_out, weights, tape), tape)
    chain_grads = backward(loss, tape, wrt=[x, *ps.values()])
    fused_out, saved = fused_layer(x.data, ps, mask, n_heads)
    assert np.array_equal(fused_out, chain_out.data)
    gx, grads = fused_layer_backward(weights.data, x.data, ps, saved, n_heads)
    assert np.array_equal(gx, chain_grads[x])
    for name, t in ps.items():
        assert np.array_equal(grads[name], chain_grads[t]), name


def test_forward_determinism():
    x, ps, _ = _layer_inputs(5, 2, seed=4)
    mask = build_ct_mask(5, 2)
    one, _ = fused_layer(x.data, ps, mask, 2)
    two, _ = fused_layer(x.data, ps, mask, 2)
    assert np.array_equal(one, two)


def test_embedding_lookup_adds_positions_and_sends_gradient_to_the_table():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(5, 3))
    positions = rng.normal(size=(3, 3))
    idx = np.array([1, 3, 1])
    out = nc._embedding_lookup(table, idx, positions)
    assert np.array_equal(out, table[[1, 3, 1]] + positions)
    gtable = np.full((5, 3), np.nan)
    nc._embedding_backward(np.ones((3, 3)), idx, [slice(0, 3)], [gtable])
    expected = np.zeros((5, 3))
    expected[1], expected[3] = 2.0, 1.0
    assert np.array_equal(gtable, expected)


def test_cross_entropy_mean_refuses_bad_targets():
    logits = np.zeros((3, 4))
    with pytest.raises(nc.ContractError, match="3 logit rows"):
        nc._cross_entropy_mean(logits, [0, 1])
    for bad in ([0, 1, 4], [0, -1, 2]):
        with pytest.raises(nc.ContractError, match="out of range for 4 classes"):
            nc._cross_entropy_mean(logits, bad)
