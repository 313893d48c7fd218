import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puncstream import numcore as nc
from puncstream.masks import build_ct_mask
from puncstream.numcore import Tape, Tensor


# Taped ops for building scalar losses in the gradient tests; the library's
# own ops have no use for them.

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
    """The attention weights multi_head_attention gives one head for (n, n)
    scores, n <= 16. With d_k = 16 the scale is exactly 1/4; x = [I | 0] and
    wqkv make q = 4 * scores and k = v = [I | 0], so the output is p itself."""
    n, dk = len(scores), 16
    wqkv = np.zeros((dk, 3 * dk))
    wqkv[:n, :n] = 4.0 * np.asarray(scores)
    wqkv[:n, dk:dk + n] = np.eye(n)
    wqkv[:n, 2 * dk:2 * dk + n] = np.eye(n)
    out = nc.multi_head_attention(Tensor(np.eye(n, dk)), Tensor(wqkv),
                                  np.asarray(mask, dtype=np.float64), 1)
    return out.data[:, :n]


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


def test_masked_softmax_fully_masked_row_rejected():
    with pytest.raises(nc.ContractError, match="fully masked"):
        _attention_probs([[1.0, 2.0], [3.0, 4.0]],
                         [[0.0, 0.0], [-np.inf, -np.inf]])


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


def test_layer_norm_constant_row_collapses_to_bias():
    out = nc.layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]),
                        Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.abs(out.data).max() == 0.0


def test_layer_norm_already_normalized():
    out = nc.layer_norm(Tensor([[1.0, -1.0]]),
                        Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.abs(out.data - [[1.0, -1.0]]).max() < 1e-5


def test_layer_norm_matches_mean_var_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 7))
    gain, bias = rng.normal(size=7), rng.normal(size=7)
    out = nc.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    for i in range(3):
        mean = sum(x[i]) / 7
        var = sum((v - mean) ** 2 for v in x[i]) / 7
        expected = (x[i] - mean) / np.sqrt(var + 1e-6) * gain + bias
        assert np.abs(out.data[i] - expected).max() < 1e-10


def test_backward_sum_gives_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    loss = total(p, tape)
    grads = nc.backward(loss, tape, wrt=[p])
    assert grads[p].tolist() == [[1, 1, 1], [1, 1, 1]]


def test_backward_square_at_three():
    p = Tensor(np.array([3.0]))
    tape = Tape()
    loss = total(mul(p, p, tape), tape)
    grads = nc.backward(loss, tape, wrt=[p])
    assert grads[p].tolist() == [6.0]


def test_backward_requires_scalar_loss():
    p = Tensor(np.ones(3))
    tape = Tape()
    out = mul(p, p, tape)
    with pytest.raises(nc.ContractError, match="scalar"):
        nc.backward(out, tape, wrt=[p])


def test_backward_uninvolved_parameter_gets_exact_zero():
    p = Tensor(np.array([2.0]))
    q = Tensor(np.array([4.0]))
    tape = Tape()
    loss = total(mul(p, p, tape), tape)
    grads = nc.backward(loss, tape, wrt=[p, q])
    assert grads[q].tolist() == [0.0]


def _fd_check(build_loss, tensors, h=1e-5, tol=1e-4, rng=None):
    """Central finite differences against reverse mode for each entry."""
    tape = Tape()
    loss = build_loss(tensors, tape)
    grads = nc.backward(loss, tape, wrt=list(tensors.values()))
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
    }
    mask = np.triu(np.full((3, 3), -np.inf), k=2)

    def build(ts, tape):
        h = nc.matmul(ts["x"], ts["w"], tape)
        h = nc.layer_norm(nc.relu(h, tape), ts["gain"], ts["bias"], tape)
        att = nc.multi_head_attention(h, ts["wqkv"], mask, 1, tape)
        return total(mul(att, nc.add(h, att, tape), tape), tape)

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
    weights = Tensor(np.random.default_rng(6).normal(size=(4, 3 * n_heads)))

    def build(ts, tape):
        out = nc.multi_head_attention(ts["x"], ts["wqkv"], mask, n_heads, tape)
        return total(mul(out, weights, tape), tape)

    _fd_check(build, {"x": x, "wqkv": wqkv})


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
    out = nc.multi_head_attention(x, wqkv, mask, n_heads).data
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
    # first and v, k, q within a head. The fused op must give the same bits.
    n, n_heads, dk = 6, 2, 4
    x, wqkv, mask = _attention_inputs(n, n_heads, dk, 2, seed=11)
    weights = np.random.default_rng(12).normal(size=(n, n_heads * dk))
    tape = Tape()
    out = nc.multi_head_attention(x, wqkv, mask, n_heads, tape)
    loss = total(mul(nc.add(x, out, tape), Tensor(weights), tape), tape)
    grads = nc.backward(loss, tape, wrt=[x, wqkv])

    gx, gw = weights, []
    for h, (wq, wk, wv) in reversed(list(enumerate(
            _per_head(x.data, wqkv.data, n_heads)))):
        q, k, v = x.data @ wq, x.data @ wk, x.data @ wv
        z = (q @ k.T) * (1.0 / np.sqrt(dk)) + mask
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        g = weights[:, h * dk:(h + 1) * dk]
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


def test_multi_head_attention_fully_masked_row_rejected():
    x, wqkv, mask = _attention_inputs(3, 2, 2, 0, seed=8)
    mask = mask.copy()
    mask[1, :] = -np.inf
    with pytest.raises(nc.ContractError, match="fully masked"):
        nc.multi_head_attention(x, wqkv, mask, 2)


def test_multi_head_attention_shape_checks():
    x, wqkv, mask = _attention_inputs(3, 2, 2, 0, seed=9)
    with pytest.raises(nc.ShapeMismatchError, match="heads"):
        nc.multi_head_attention(x, wqkv, mask, 3)
    with pytest.raises(nc.ShapeMismatchError, match="heads"):
        nc.multi_head_attention(Tensor(np.zeros((3, 5))), wqkv, mask, 2)
    with pytest.raises(nc.ShapeMismatchError, match="mask"):
        nc.multi_head_attention(x, wqkv, build_ct_mask(4, 0), 2)


def test_forward_determinism():
    rng = np.random.default_rng(4)
    a, b = Tensor(rng.normal(size=(5, 5))), Tensor(rng.normal(size=(5, 5)))
    one = nc.layer_norm(nc.relu(nc.matmul(a, b), ),
                        Tensor(np.ones(5)), Tensor(np.zeros(5)))
    two = nc.layer_norm(nc.relu(nc.matmul(a, b), ),
                        Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.array_equal(one.data, two.data)
