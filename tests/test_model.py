import dataclasses
import math
import os
import re
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (every_weight, fill_tensor, random_bundle, rewrite_config_line, seal,
                      small_config)
from test_numcore import Tape, backward, reference_forward, reference_loss
from puncstream import decoding as dec
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream import training as tr
from puncstream.data import LabelScheme, TokenSequence, Vocabulary
from puncstream.masks import MaskSpec, effective_lookahead

# init_params(config, default_rng(0)) for the config and vocabulary
# test_golden_checkpoint_reads_and_rewrites_same_bytes expects, as a CTT3
# checkpoint. GOLDEN_CTT2 is the same model as the CTT2 writer wrote it
# before the checkpoint code was merged into save_model/load_model; CTT2
# files are refused now.
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")
GOLDEN_CTT2 = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt2.ctt")


def test_sinusoidal_position_zero_alternates():
    enc = mdl._positions(3, 6, 512)
    assert enc[0].tolist() == [0, 1, 0, 1, 0, 1]


def test_sinusoidal_bounded():
    enc = mdl._positions(50, 16, 512)
    assert enc.min() >= -1.0 and enc.max() <= 1.0


def test_sinusoidal_channel_pairs_unit_norm():
    enc = mdl._positions(40, 8, 512)
    for pair in range(4):
        s, c = enc[:, 2 * pair], enc[:, 2 * pair + 1]
        assert np.abs(s ** 2 + c ** 2 - 1.0).max() < 1e-9


def test_sinusoidal_length_cap():
    with pytest.raises(mdl.LengthError):
        mdl._positions(11, 4, 10)
    with pytest.raises(mdl.LengthError):
        mdl._positions(513, 32, 512)


def _fresh_positions(n, d_model):
    """The position encoding computed for exactly n rows, uncached."""
    pos = np.arange(n)[:, None].astype(np.float64)
    chan = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (chan // 2)) / d_model)
    enc = np.empty((n, d_model))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


@pytest.mark.parametrize("n", [1, 7, 512])
def test_sinusoidal_cached_equals_fresh_and_is_read_only(n):
    for _ in range(2):  # the second call is served from the cache
        enc = mdl._positions(n, 32, 512)
        assert enc.shape == (n, 32)
        assert np.array_equal(enc, _fresh_positions(n, 32))
        assert not enc.flags.writeable
        with pytest.raises(ValueError):
            enc[0, 0] = 5.0


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        small_config(d_model=10, n_heads=4)
    with pytest.raises(ValueError, match="budgets"):
        small_config(lookahead=(0, 0, 9))
    for name in ("vocab_size", "d_model", "n_heads", "d_ff", "punct", "disf",
                  "max_positions"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                small_config(**{name: bad})
    with pytest.raises(ValueError, match="n_layers must be positive"):
        mdl.ModelConfig(12, 8, 0, 2, 16, MaskSpec(()), 4, 5)


def test_single_token_ignores_mask_spec():
    narrow = random_bundle(small_config(lookahead=(0, 0)))
    wide = random_bundle(small_config(lookahead=(4, 5)))
    a = mdl.encoder_forward([3], narrow.config, narrow.params)
    b = mdl.encoder_forward([3], wide.config, wide.params)
    assert a.shape == (1, narrow.config.d_model)
    assert np.array_equal(a.data, b.data)


def test_causal_spec_has_prefix_property():
    bundle = random_bundle(small_config(lookahead=(0, 0)))
    tokens = [3, 5, 2, 7, 1, 4]
    full = mdl.encoder_forward(tokens, bundle.config, bundle.params)
    for i in range(1, len(tokens)):
        prefix = mdl.encoder_forward(tokens[:i], bundle.config, bundle.params)
        # different matrix shapes may take different BLAS kernel paths, so
        # equality across lengths is near-exact rather than bitwise
        assert np.abs(full.data[:i] - prefix.data).max() < 1e-9


def _reference_forward(ids, config, params):
    """Independent plain-numpy re-implementation of the encoder forward."""
    def norm(x, gain, bias):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            mean = x[i].mean()
            var = ((x[i] - mean) ** 2).mean()
            out[i] = (x[i] - mean) / np.sqrt(var + 1e-6) * gain + bias
        return out

    n = len(ids)
    d = config.d_model
    pos = np.zeros((n, d))
    for p in range(n):
        for c in range(d):
            angle = p / 10000 ** ((2 * (c // 2)) / d)
            pos[p, c] = np.sin(angle) if c % 2 == 0 else np.cos(angle)
    x = params["embed"].data[np.asarray(ids)] + pos
    for layer, budget in enumerate(config.mask_spec.per_layer_lookahead):
        heads = []
        wqkv = params[f"layer{layer}.wqkv"].data
        for h in range(config.n_heads):
            cols = slice(h * config.d_k, (h + 1) * config.d_k)
            q = x @ wqkv[:, :d][:, cols]
            k = x @ wqkv[:, d:2 * d][:, cols]
            v = x @ wqkv[:, 2 * d:][:, cols]
            out = np.zeros((n, config.d_k))
            for i in range(n):
                allowed = [j for j in range(n) if i + budget >= j]
                logits = np.array([q[i] @ k[j] for j in allowed]) / np.sqrt(config.d_k)
                w = np.exp(logits - logits.max())
                w /= w.sum()
                for wj, j in zip(w, allowed):
                    out[i] += wj * v[j]
            heads.append(out)
        attn = np.concatenate(heads, axis=1) @ params[f"layer{layer}.wo"].data
        x = norm(x + attn, params[f"layer{layer}.norm1.gain"].data,
                 params[f"layer{layer}.norm1.bias"].data)
        inner = np.maximum(x @ params[f"layer{layer}.ff.w1"].data
                           + params[f"layer{layer}.ff.b1"].data, 0.0)
        ff = inner @ params[f"layer{layer}.ff.w2"].data + params[f"layer{layer}.ff.b2"].data
        x = norm(x + ff, params[f"layer{layer}.norm2.gain"].data,
                 params[f"layer{layer}.norm2.bias"].data)
    return x


def test_encoder_matches_independent_reference():
    for n_heads in (1, 2):
        bundle = random_bundle(small_config(d_model=4, n_heads=n_heads, d_ff=8,
                                            lookahead=(1, 2)), seed=5)
        tokens = [2, 9, 4, 7, 1]
        ours = mdl.encoder_forward(tokens, bundle.config, bundle.params)
        ref = _reference_forward(tokens, bundle.config, bundle.params)
        assert np.abs(ours.data - ref).max() < 1e-10


def test_init_draws_glorot_blocks_head_by_head():
    config = small_config(d_model=8, n_heads=2)
    params = mdl.init_params(config, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    rng.uniform(size=params["embed"].shape)  # embed is drawn first
    d, dk = config.d_model, config.d_k
    bound = np.sqrt(6.0 / (d + dk))
    wqkv = params["layer0.wqkv"].data
    assert wqkv.shape == (d, 3 * d)
    for h in range(config.n_heads):
        for which in range(3):  # q, k, v
            block = rng.uniform(-bound, bound, (d, dk))
            col = which * d + h * dk
            assert np.array_equal(wqkv[:, col:col + dk], block)


def _softmax(logits):
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    return np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)


def test_head_probability_rows_sum_to_one():
    bundle = random_bundle(small_config(), seed=6)
    hidden = mdl.encoder_forward([1, 2, 3, 4], bundle.config, bundle.params)
    punct, disf = mdl.heads_forward(hidden, bundle.params)
    for logits in (punct, disf):
        probs = _softmax(logits)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_zero_hidden_zero_weights_gives_uniform_heads():
    bundle = random_bundle(small_config(), seed=7)
    d = bundle.config.d_model
    for name in ("punct.w", "punct.b", "disf.w", "disf.b"):
        bundle.params[name] = nc.Tensor(np.zeros(bundle.params[name].shape))
    punct, disf = mdl.heads_forward(nc.Tensor(np.zeros((3, d))), bundle.params)
    assert np.allclose(_softmax(punct), 1 / punct.shape[1])
    assert np.allclose(_softmax(disf), 1 / disf.shape[1])


def test_argmax_of_logits_equals_argmax_of_probs():
    rng = np.random.default_rng(8)
    logits = nc.Tensor(rng.normal(size=(10, 5)))
    probs = _softmax(logits)
    assert np.array_equal(np.argmax(logits.data, axis=1),
                          np.argmax(probs, axis=1))


def test_predict_deterministic_and_empty():
    bundle = random_bundle(small_config(), seed=9)
    tokens = [1, 5, 3]
    assert mdl.predict(tokens, bundle.config, bundle.params) == \
        mdl.predict(tokens, bundle.config, bundle.params)
    assert mdl.predict([], bundle.config, bundle.params) == ([], [])


def test_freezing_far_edits_never_change_labels():
    bundle = random_bundle(small_config(lookahead=(0, 3)), seed=10)
    rng = np.random.default_rng(11)
    tokens = rng.integers(0, 12, size=20).tolist()
    horizon = effective_lookahead(bundle.config.mask_spec)
    base_p, base_d = mdl.predict(tokens, bundle.config, bundle.params)
    i = 8
    for j in range(i + horizon + 1, len(tokens)):
        edited = list(tokens)
        edited[j] = (edited[j] + 5) % 12
        p, d = mdl.predict(edited, bundle.config, bundle.params)
        assert p[:i + 1] == base_p[:i + 1]
        assert d[:i + 1] == base_d[:i + 1]


def test_full_budget_equals_zero_mask_reference():
    n = 7
    bundle = random_bundle(small_config(lookahead=(n - 1, n - 1)), seed=12)
    full = random_bundle(small_config(lookahead=(512, 512)), seed=12)
    tokens = [1, 2, 3, 4, 5, 6, 7]
    a = mdl.encoder_forward(tokens, bundle.config, bundle.params)
    b = mdl.encoder_forward(tokens, full.config, full.params)
    assert np.array_equal(a.data, b.data)


def test_head_independence():
    bundle = random_bundle(small_config(), seed=13)
    tokens = [2, 4, 6]
    punct_before, _ = mdl.forward(tokens, bundle.config, bundle.params)
    rng = np.random.default_rng(14)
    bundle.params["disf.w"] = nc.Tensor(rng.normal(size=bundle.params["disf.w"].shape))
    bundle.params["disf.b"] = nc.Tensor(rng.normal(size=bundle.params["disf.b"].shape))
    punct_after, _ = mdl.forward(tokens, bundle.config, bundle.params)
    assert np.array_equal(punct_before.data, punct_after.data)


def test_negative_token_id_rejected():
    bundle = random_bundle(small_config(vocab_size=10))
    with pytest.raises(nc.ContractError, match="token id -1 outside vocabulary"):
        mdl.encoder_forward([3, -1], bundle.config, bundle.params)


def test_unknown_token_id_rejected():
    bundle = random_bundle(small_config(vocab_size=10))
    with pytest.raises(nc.ContractError, match="vocabulary"):
        mdl.encoder_forward([3, 99], bundle.config, bundle.params)


@st.composite
def _model_and_ids(draw):
    """A random small model (1, 2 or 4 heads, 1-3 layers, any budgets) and
    1-64 random token ids."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    budgets = draw(st.lists(st.integers(0, 70), min_size=1, max_size=3))
    config = mdl.ModelConfig(12, 4 * n_heads, len(budgets), n_heads, 8,
                             MaskSpec(tuple(budgets)), 4, 5)
    params = mdl.init_params(config, np.random.default_rng(draw(st.integers(0, 999))))
    ids = draw(st.lists(st.integers(0, 11), min_size=1, max_size=64))
    return config, params, ids


@settings(max_examples=40, deadline=None)
@given(_model_and_ids())
def test_untaped_forward_and_tagger_match_the_taped_ops_bit_for_bit(case):
    config, params, ids = case
    taped = reference_forward(ids, config, params, Tape())
    untaped = mdl.forward(ids, config, params)
    for a, b in zip(taped, untaped):
        assert np.array_equal(a.data, b.data)
    scheme = LabelScheme()
    vocab = Vocabulary([f"w{i}" for i in range(config.vocab_size - 2)])
    tagger = dec.ModelTagger(config, params, vocab, scheme)
    punct, disf = mdl.predict(ids, config, params)
    assert tagger.tag([vocab.words[i] for i in ids]) == \
        ([scheme.punct_labels[i] for i in punct], [scheme.disf_labels[i] for i in disf])


@settings(max_examples=40, deadline=None)
@given(_model_and_ids(), st.data())
def test_loss_gradient_matches_the_taped_reference_bit_for_bit(case, data):
    # the kernels' backwards, run by the model, against reverse mode over
    # the reference ops: the same loss and the same gradient for every
    # parameter, to the bit
    config, params, ids = case
    punct_ids, disf_ids = (
        data.draw(st.lists(st.integers(0, count - 1), min_size=len(ids),
                           max_size=len(ids)))
        for count in (config.punct_label_count, config.disf_label_count))
    tape = Tape()
    loss = reference_loss(ids, punct_ids, disf_ids, config, params, tape)
    expected = backward(loss, tape, wrt=[t for _, t in params.items()])
    grads = {name: np.full(t.shape, np.nan) for name, t in params.items()}
    assert mdl.loss_gradients([(ids, punct_ids, disf_ids)], config, params,
                              [grads]) == [loss.item()]
    for name, t in params.items():
        assert np.array_equal(grads[name], expected[t]), name


@st.composite
def _packs(draw):
    """The CLI-default model shape or a small one with other budgets, random
    weights, and 1-8 labeled sequences of 1-60 words, one-word ones often."""
    if draw(st.booleans()):
        config = mdl.ModelConfig(40, 32, 4, 2, 64, MaskSpec((0, 0, 0, 9)), 4, 5)
    else:
        n_heads = draw(st.sampled_from([1, 2, 4]))
        budgets = draw(st.lists(st.integers(0, 70), min_size=1, max_size=3))
        config = mdl.ModelConfig(12, 4 * n_heads, len(budgets), n_heads, 8,
                                 MaskSpec(tuple(budgets)), 4, 5)
    params = mdl.init_params(config, np.random.default_rng(draw(st.integers(0, 999))))
    lengths = draw(st.lists(st.one_of(st.just(1), st.integers(1, 60)),
                            min_size=1, max_size=8))
    encoded = [tuple(draw(st.lists(st.integers(0, count - 1), min_size=n, max_size=n))
                     for count in (config.vocab_size, config.punct_label_count,
                                   config.disf_label_count))
               for n in lengths]
    return config, params, encoded


@settings(max_examples=40, deadline=None)
@given(_packs())
def test_loss_gradients_give_each_sequence_its_bits_alone(case):
    # a pack's sequences are stacked row by row, yet each one's loss and
    # gradient equal loss_gradients on that sequence alone, to the bit
    config, params, encoded = case
    rows = [{name: np.full(t.shape, np.nan) for name, t in params.items()}
            for _ in encoded]
    losses = mdl.loss_gradients(encoded, config, params, rows)
    assert len(losses) == len(encoded)
    for enc, loss, row in zip(encoded, losses, rows):
        alone = {name: np.full(t.shape, np.nan) for name, t in params.items()}
        assert mdl.loss_gradients([enc], config, params, [alone]) == [loss]
        for name, grad in alone.items():
            assert np.array_equal(row[name], grad), name


def test_unpack_params_names_every_tensor_that_does_not_fit():
    # a parameter that does not fit is refused where it is assigned, by name
    bundle = random_bundle(small_config())
    params = bundle.params
    bad = params.copy()
    with pytest.raises(nc.ShapeMismatchError,
                       match=r"^layer1.ff.b1: expected \(16,\), found \(3,\)$"):
        bad["layer1.ff.b1"] = nc.Tensor(np.zeros(3))
    with pytest.raises(nc.ShapeMismatchError, match="^no parameter named extra$"):
        bad["extra"] = nc.Tensor(np.zeros(2))
    with pytest.raises(AttributeError):  # no parameter can be deleted
        del bad["punct.b"]
    assert bad.vector.tobytes() == params.vector.tobytes()
    with pytest.raises(nc.ShapeMismatchError, match="does not hold the config's"):
        mdl.ModelParams(bundle.config, np.zeros(params.vector.size - 1))
    # a config with the same shapes takes the parameters as they are; any
    # other is refused, naming every parameter that does not fit
    assert mdl.unpack_params(bundle.config, params) is params
    assert mdl.unpack_params(small_config(lookahead=(3, 3)), params) is params
    with pytest.raises(nc.ShapeMismatchError) as err:
        mdl.forward([2, 3], small_config(vocab_size=13, d_ff=15), params)
    assert str(err.value).endswith(
        "embed: expected (13, 8), found (12, 8); "
        "layer0.ff.w1: expected (8, 15), found (8, 16); "
        "layer0.ff.b1: expected (15,), found (16,); "
        "layer0.ff.w2: expected (15, 8), found (16, 8); "
        "layer1.ff.w1: expected (8, 15), found (8, 16); "
        "layer1.ff.b1: expected (15,), found (16,); "
        "layer1.ff.w2: expected (15, 8), found (16, 8)")
    with pytest.raises(nc.ShapeMismatchError,
                       match=r"layer1.wqkv: expected None, found \(8, 24\)"):
        mdl.unpack_params(small_config(n_layers=1, lookahead=(0,)), params)


def test_model_params_are_one_vector_in_layout_order():
    config = small_config()
    params = mdl.init_params(config, np.random.default_rng(4))
    shapes = mdl.param_shapes(config)
    assert params.names() == list(shapes)
    assert [n for n, _ in params.items()] == list(shapes)
    assert np.array_equal(np.concatenate([t.data.ravel() for _, t in params.items()]),
                          params.vector)
    assert all(np.shares_memory(t.data, params.vector) and not t.data.flags.writeable
               for _, t in params.items())
    copy = params.copy()
    assert not np.shares_memory(copy.vector, params.vector)
    assert copy.vector.tobytes() == params.vector.tobytes()
    copy["punct.b"] = nc.Tensor(np.arange(4.0))
    assert copy["punct.b"].data.tolist() == [0.0, 1.0, 2.0, 3.0]
    # the slot before disf.w (8, 5) and disf.b (5,)
    assert copy.vector[-49:-45].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert params["punct.b"].data.tolist() == [0.0] * 4


def test_model_params_layers_hold_each_layer_in_layout_order():
    """ModelParams.layers[i] holds the views of layer i's parameters in
    param_shapes order, the order of the vector and the checkpoint."""
    config = small_config(n_layers=3, lookahead=(0, 1, 9))
    size = mdl.ModelParams(config).vector.size
    params = mdl.ModelParams(config, np.arange(float(size)))
    shapes = mdl.param_shapes(config)
    assert len(params.layers) == 3
    for i, layer in enumerate(params.layers):
        names = [n for n in shapes if n.startswith(f"layer{i}.")]
        assert len(layer) == len(names) == 10
        for j, (array, name) in enumerate(zip(layer, names)):
            assert array.shape == shapes[name], (j, name)
            assert np.shares_memory(array, params.vector)
            assert np.array_equal(array, params[name].data), (j, name)


def test_checkpoint_round_trip(tmp_path):
    from puncstream.data import LabelScheme, Vocabulary
    bundle = random_bundle(small_config(), seed=15)
    path = os.fspath(tmp_path / "model.ctt")
    mdl.save_model(path, bundle.config, bundle.params, bundle.vocab,
                   bundle.scheme)
    config, params, vocab, scheme = mdl.load_model(path)
    assert config == bundle.config
    assert vocab.words == bundle.vocab.words
    assert scheme == bundle.scheme
    for name, t in bundle.params.items():
        assert np.array_equal(params[name].data, t.data)


def test_checkpoint_magic_and_shape_validation(tmp_path):
    bundle = random_bundle(small_config(), seed=16)
    path = os.fspath(tmp_path / "model.ctt")
    mdl.save_model(path, bundle.config, bundle.params, bundle.vocab,
                   bundle.scheme)
    with open(path, "r+b") as f:
        f.write(b"XXXX")
    with pytest.raises(mdl.CheckpointError, match="not a CTT3 checkpoint"):
        mdl.load_model(path)

    # a tensor with a wrong shape is refused by name where it is assigned,
    # and parameters of another layout before the file is written
    bad = bundle.params.copy()
    with pytest.raises(nc.ShapeMismatchError, match="punct.w"):
        bad["punct.w"] = nc.Tensor(np.zeros((2, 2)))
    path2 = tmp_path / "bad.ctt"
    with pytest.raises(nc.ShapeMismatchError, match="punct.w"):
        mdl.save_model(path2, small_config(punct=3), bundle.params,
                       bundle.vocab, bundle.scheme)
    assert not path2.exists()


@pytest.mark.parametrize("words, labels, named", [
    (["new york", "please"], {}, "vocabulary word 'new york'"),
    (["", "please"], {}, "vocabulary word ''"),
    (["a\nb"], {}, "vocabulary word 'a\\nb'"),
    (["please"], {"punct_labels": ("O", "FULL STOP")},
     "punctuation label 'FULL STOP'"),
    (["please"], {"disf_labels": ("O", "")}, "disfluency label ''"),
])
def test_save_model_refuses_a_word_or_label_load_model_would_split(
        tmp_path, words, labels, named):
    # the vocabulary and the label names are stored space-separated, so
    # such a file would load with other words or labels, or not at all;
    # the vocabulary or label scheme holding one is refused as it is built
    path = tmp_path / "model.ctt"
    with pytest.raises(ValueError, match="^" + re.escape(
            named + " is empty or contains whitespace") + "$"):
        scheme = LabelScheme(**labels)
        vocab = Vocabulary.from_corpus(
            [TokenSequence(words, ["O"] * len(words), ["O"] * len(words))],
            min_freq=1)
        config = small_config(vocab_size=len(vocab),
                              punct=len(scheme.punct_labels),
                              disf=len(scheme.disf_labels))
        mdl.save_model(path, config, mdl.init_params(config, np.random.default_rng(0)),
                       vocab, scheme)
    assert not path.exists()


@pytest.mark.parametrize("vocab, scheme, message", [
    (Vocabulary(["a", "b"]), LabelScheme(),
     "vocabulary has 4 entries but config says 6"),
    (Vocabulary(["a", "b", "c", "d"]), LabelScheme(("O", "PERIOD")),
     "2 punct and 5 disf label names but config says 4 and 5"),
    (Vocabulary(["a", "b", "c", "d"]), LabelScheme(disf_labels=("O", "B-IM")),
     "4 punct and 2 disf label names but config says 4 and 5"),
])
def test_save_model_refuses_counts_other_than_the_configs(tmp_path, vocab, scheme,
                                                          message):
    # load_model would refuse such a file with the same message
    config = small_config(vocab_size=6)
    path = tmp_path / "model.ctt"
    with pytest.raises(mdl.CheckpointError, match=message):
        mdl.save_model(path, config, mdl.init_params(config, np.random.default_rng(0)),
                       vocab, scheme)
    assert not path.exists()


_NAMES = st.lists(st.text(min_size=1, max_size=6), max_size=6)


@settings(max_examples=60, deadline=None)
@given(words=_NAMES, punct=_NAMES, disf=_NAMES)
def test_any_vocabulary_and_scheme_that_construct_round_trip(tmp_path_factory,
                                                             words, punct, disf):
    try:
        vocab = Vocabulary(words)
        scheme = LabelScheme(("O", *punct), ("O", *disf))
    except ValueError:
        assume(False)
    config = small_config(vocab_size=len(vocab), d_model=2, n_layers=1,
                          d_ff=2, lookahead=(1,), punct=len(scheme.punct_labels),
                          disf=len(scheme.disf_labels))
    params = mdl.init_params(config, np.random.default_rng(0))
    path = tmp_path_factory.mktemp("ckpt") / "model.ctt"
    mdl.save_model(path, config, params, vocab, scheme)
    loaded_config, loaded, loaded_vocab, loaded_scheme = mdl.load_model(path)
    assert loaded_config == config
    assert loaded_vocab.words == vocab.words
    assert loaded_scheme == scheme
    assert loaded.vector.tobytes() == params.vector.tobytes()


def _saved(tmp_path, seed):
    bundle = random_bundle(small_config(), seed=seed)
    path = os.fspath(tmp_path / "model.ctt")
    mdl.save_model(path, bundle.config, bundle.params, bundle.vocab,
                   bundle.scheme)
    return path


def test_ctt1_checkpoint_refused(tmp_path):
    path = _saved(tmp_path, 17)
    with open(path, "r+b") as f:
        f.write(b"CTT1")
    with pytest.raises(mdl.CheckpointError, match="old per-head.*; retrain"):
        mdl.load_model(path)


def test_ctt2_checkpoint_refused():
    with pytest.raises(mdl.CheckpointError,
                       match="CTT2 checkpoint, which uses named tensor records "
                             "without a CRC; retrain to get a CTT3 checkpoint"):
        mdl.load_model(GOLDEN_CTT2)


def test_checkpoint_with_zero_heads_refused(tmp_path):
    path = _saved(tmp_path, 18)
    with open(path, "rb") as f:
        raw = f.read()
    assert raw.count(b"\nn_heads=2\n") == 1
    with open(path, "wb") as f:
        f.write(seal(raw.replace(b"\nn_heads=2\n", b"\nn_heads=0\n")))
    with pytest.raises(mdl.CheckpointError, match="n_heads must be positive"):
        mdl.load_model(path)


def test_golden_checkpoint_reads_and_rewrites_same_bytes(tmp_path):
    config, params, vocab, scheme = mdl.load_model(GOLDEN)
    assert config == mdl.ModelConfig(6, 4, 1, 2, 8, MaskSpec((2,)), 4, 5,
                                     max_positions=16)
    assert vocab.words == ["<pad>", "<unk>", "boston", "flight", "to", "um"]
    assert scheme == LabelScheme()
    path = tmp_path / "again.ctt"
    mdl.save_model(path, config, params, vocab, scheme)
    with open(GOLDEN, "rb") as f:
        assert path.read_bytes() == f.read()


# The parameters of the golden model in param_shapes order, as the CTT3
# format description lays them out.
_GOLDEN_LAYOUT = ("embed", "layer0.wqkv", "layer0.wo", "layer0.ff.w1",
                  "layer0.ff.b1", "layer0.ff.w2", "layer0.ff.b2",
                  "layer0.norm1.gain", "layer0.norm1.bias", "layer0.norm2.gain",
                  "layer0.norm2.bias", "punct.w", "punct.b", "disf.w", "disf.b")


def test_golden_checkpoint_bytes_follow_the_format_description(tmp_path):
    # CTT3 built by hand from the CTT2 golden file: its config block, then
    # its tensor records' values in layout order, then the CRC-32 of all of
    # it; the same bytes as the CTT3 golden file and as save_model writes
    with open(GOLDEN_CTT2, "rb") as f:
        ctt2 = f.read()
    (block_len,) = struct.unpack_from("<I", ctt2, 4)
    block = ctt2[8:8 + block_len]
    (count,) = struct.unpack_from("<I", ctt2, 8 + block_len)
    off, values = 12 + block_len, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", ctt2, off)
        name = ctt2[off + 4:off + 4 + name_len].decode("utf-8")
        (ndim,) = struct.unpack_from("<I", ctt2, off + 4 + name_len)
        shape = struct.unpack_from(f"<{ndim}I", ctt2, off + 8 + name_len)
        off += 8 + name_len + 4 * ndim
        values[name] = ctt2[off:off + 8 * math.prod(shape)]
        off += 8 * math.prod(shape)
    assert off == len(ctt2) and sorted(values) == sorted(_GOLDEN_LAYOUT)
    body = (b"CTT3" + struct.pack("<I", block_len) + block
            + b"".join(values[name] for name in _GOLDEN_LAYOUT))
    expected = body + struct.pack("<I", zlib.crc32(body))
    with open(GOLDEN, "rb") as f:
        assert f.read() == expected
    path = tmp_path / "again.ctt"
    mdl.save_model(path, *mdl.load_model(GOLDEN))
    assert path.read_bytes() == expected


def _golden_copy(tmp_path):
    path = os.fspath(tmp_path / "model.ctt")
    shutil.copyfile(GOLDEN, path)
    return path


@pytest.mark.parametrize("key,value,message", [
    (b"punct_labels", b"", "label O"),
    (b"punct_labels", b"COMMA O PERIOD QUESTION", "label O"),
    (b"punct_labels", b"O COMMA PERIOD", "3 punct and 5 disf label names"),
    (b"disf_labels", b"O B-RM I-RM B-IM I-IM X", "4 punct and 6 disf label names"),
    (b"vocab", b"boston \xff to um", "bad config"),
])
def test_config_block_must_be_utf8_and_match_the_label_counts(
        tmp_path, key, value, message):
    path = _golden_copy(tmp_path)
    rewrite_config_line(path, key, value)
    with pytest.raises(mdl.CheckpointError, match=message):
        mdl.load_model(path)


def test_a_max_positions_above_the_ceiling_is_neither_loaded_nor_saved(tmp_path):
    # the file's CRC is recomputed, so only the cap can refuse it
    path = _golden_copy(tmp_path)
    rewrite_config_line(path, b"max_positions", b"2048")
    config, params, vocab, scheme = mdl.load_model(path)
    assert config.max_positions == mdl.POSITIONS_CEILING == 2048
    rewrite_config_line(path, b"max_positions", b"2049")
    with pytest.raises(mdl.CheckpointError,
                       match="max_positions 2049 is above 2048, the most"):
        mdl.load_model(path)
    wide = dataclasses.replace(config, max_positions=2049)  # fine in memory
    out = tmp_path / "wide.ctt"
    with pytest.raises(mdl.LengthError, match="max_positions 2049 is above 2048"):
        mdl.save_model(out, wide, params, vocab, scheme)
    assert not out.exists()


@pytest.mark.parametrize("name,value", [("embed", math.nan),
                                        ("layer0.ff.b2", math.inf),
                                        ("disf.w", -math.inf)])
def test_checkpoint_with_non_finite_weights_refused(tmp_path, name, value):
    path = _golden_copy(tmp_path)
    size = os.path.getsize(path)
    fill_tensor(path, name, value)
    assert os.path.getsize(path) == size
    with pytest.raises(mdl.CheckpointError, match=f"non-finite values in {name}$"):
        mdl.load_model(path)


def test_weights_a_forward_could_overflow_are_neither_loaded_nor_saved(tmp_path):
    # every weight 1e100: a query and a key of 4 * 1e100^2 each, whose
    # product leaves float64's range; at 1e30 every value stays finite
    with open(GOLDEN, "rb") as f:
        raw = f.read()
    path = tmp_path / "huge.ctt"
    path.write_bytes(every_weight(raw, 1e100))
    overflow = "has weights so large that a forward could overflow float64 at layer0.wqkv$"
    with pytest.raises(mdl.CheckpointError, match=overflow):
        mdl.load_model(path)
    config, params, vocab, scheme = mdl.load_model(GOLDEN)
    out = tmp_path / "out.ctt"
    huge = mdl.ModelParams(config, np.full_like(params.vector, 1e100))
    with pytest.raises(mdl.CheckpointError, match=overflow):
        mdl.save_model(out, config, huge, vocab, scheme)
    assert not out.exists()
    path.write_bytes(every_weight(raw, 1e30))
    config, params, vocab, scheme = mdl.load_model(path)
    mdl.save_model(out, config, params, vocab, scheme)
    with np.errstate(over="raise", invalid="raise"):
        logits = mdl.forward([2, 3, 4, 5, 1, 0] * 2, config, params)
    assert all(np.isfinite(t.data).all() for t in logits)


def test_save_model_refuses_non_finite_weights(tmp_path):
    bundle = random_bundle(small_config(), seed=17)
    vector = bundle.params.vector.copy()
    vector[5] = math.nan
    out = tmp_path / "nan.ctt"
    with pytest.raises(mdl.CheckpointError, match="non-finite values in embed$"):
        mdl.save_model(out, bundle.config, mdl.ModelParams(bundle.config, vector),
                       bundle.vocab, bundle.scheme)
    assert not out.exists()


def test_a_trained_checkpoint_loads(tmp_path, travel_bundle):
    b = travel_bundle
    path = tmp_path / "trained.ctt"
    mdl.save_model(path, b.config, b.params, b.vocab, b.scheme)
    config, params, _, _ = mdl.load_model(path)
    assert params.vector.tobytes() == b.params.vector.tobytes()
    # far from the limit: the largest bound is below 1e20
    assert max(bound for _, bound in mdl._value_bounds(config, params)) < 1e20


@settings(max_examples=60, deadline=None)
@given(scales=st.lists(st.integers(-5, 80), min_size=15, max_size=15),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_model_within_the_bound_runs_a_forward_without_overflow(scales, seed):
    # each parameter of a one-layer model scaled by 10**k, for any tokens
    config = small_config(n_layers=1, lookahead=(2,))
    rng = np.random.default_rng(seed)
    params = mdl.ModelParams(config, rng.normal(size=mdl.ModelParams(config).vector.size))
    for w, k in zip(mdl.param_slots(config, params.vector).values(), scales):
        w *= 10.0 ** k
    try:
        mdl._check_values("m.ctt", config, params)
    except mdl.CheckpointError:
        assume(False)
    ids = rng.integers(0, config.vocab_size, size=int(rng.integers(1, 40)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        logits = mdl.forward(ids, config, params)
    assert all(np.isfinite(t.data).all() for t in logits)


@pytest.mark.parametrize("old,new", [
    (b"\nlookahead=2\n", b"\nlookahead=3\n"),     # a config value
    (b"\nvocab=boston flight", b"\nvocab=flight boston"),
    (struct.pack("<d", 1.0), struct.pack("<d", 2.0)),  # the first norm gain
])
def test_an_edit_without_a_new_crc_is_refused(tmp_path, old, new):
    path = _golden_copy(tmp_path)
    with open(path, "rb") as f:
        raw = f.read()
    assert old in raw
    with open(path, "wb") as f:
        f.write(raw.replace(old, new, 1))
    with pytest.raises(mdl.CheckpointError, match="fails its CRC check"):
        mdl.load_model(path)
    with open(path, "wb") as f:
        f.write(seal(raw.replace(old, new, 1)))
    mdl.load_model(path)


@pytest.mark.parametrize("extra", [b"\x00", b"garbage"])
def test_checkpoint_with_bytes_appended_refused(tmp_path, extra):
    path = _golden_copy(tmp_path)
    with open(path, "ab") as f:
        f.write(extra)
    with pytest.raises(mdl.CheckpointError, match="bytes past the end"):
        mdl.load_model(path)


def test_loader_fuzz_truncations_and_header_bytes(tmp_path):
    """Every truncation and every one-byte change anywhere in the file,
    config block, payload and CRC included, raises CheckpointError and
    never another exception."""
    with open(GOLDEN, "rb") as f:
        raw = f.read()
    path = os.fspath(tmp_path / "fuzz.ctt")

    def refused(data):
        with open(path, "wb") as f:
            f.write(data)
        try:
            mdl.load_model(path)
        except mdl.CheckpointError:
            return True
        return False

    for n in range(len(raw)):
        assert refused(raw[:n]), n
    for i in range(len(raw)):
        for flip in (0x01, 0x20, 0x80, 0xFF):
            data = bytearray(raw)
            data[i] ^= flip
            assert refused(bytes(data)), (i, flip)
