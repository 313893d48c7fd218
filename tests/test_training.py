import hashlib
import itertools
import math
import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest

from conftest import random_bundle, small_config
from puncstream import data as dt
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream import training as tr
from puncstream.decoding import ModelTagger
from puncstream.masks import MaskSpec


def test_joint_loss_uniform_logits_is_sum_of_log_class_counts():
    n_p, n_d = 4, 5
    punct = nc.Tensor(np.zeros((3, n_p)))
    disf = nc.Tensor(np.zeros((3, n_d)))
    loss = tr.joint_loss(punct, disf, [0, 1, 2], [0, 0, 4])
    assert abs(loss.item() - (math.log(n_p) + math.log(n_d))) < 1e-12


def test_joint_loss_confident_correct_approaches_zero():
    big = 50.0
    punct = nc.Tensor(np.eye(4)[[1, 2]] * big)
    disf = nc.Tensor(np.eye(5)[[0, 3]] * big)
    loss = tr.joint_loss(punct, disf, [1, 2], [0, 3])
    assert loss.item() < 1e-9


def test_joint_loss_matches_log_softmax_oracle():
    rng = np.random.default_rng(0)
    p_logits = rng.normal(size=(6, 4))
    d_logits = rng.normal(size=(6, 5))
    p_ids = rng.integers(0, 4, size=6).tolist()
    d_ids = rng.integers(0, 5, size=6).tolist()

    def mean_nll(logits, ids):
        total = 0.0
        for row, gold in zip(logits, ids):
            z = row - row.max()
            total -= z[gold] - np.log(np.exp(z).sum())
        return total / len(ids)

    loss = tr.joint_loss(nc.Tensor(p_logits), nc.Tensor(d_logits), p_ids, d_ids)
    expected = mean_nll(p_logits, p_ids) + mean_nll(d_logits, d_ids)
    assert abs(loss.item() - expected) < 1e-10


def test_joint_loss_length_mismatch_rejected():
    with pytest.raises(nc.ContractError):
        tr.joint_loss(nc.Tensor(np.zeros((2, 4))), nc.Tensor(np.zeros((2, 5))),
                      [0], [0, 0])


def test_corrupting_a_correct_prediction_raises_loss():
    good = np.eye(4)[[2, 1, 3]] * 10
    bad = good.copy()
    bad[1] = np.eye(4)[3] * 10
    disf = nc.Tensor(np.zeros((3, 5)))
    ids = [2, 1, 3]
    low = tr.joint_loss(nc.Tensor(good), disf, ids, [0, 0, 0]).item()
    high = tr.joint_loss(nc.Tensor(bad), disf, ids, [0, 0, 0]).item()
    assert high > low


def test_lr_schedule_shape():
    d, warm = 32, 400
    lrs = [tr.lr_schedule(s, d, warm) for s in range(1, 1200)]
    peak = lrs.index(max(lrs)) + 1
    assert peak == warm
    # strictly increasing before the peak, non-increasing after
    assert all(a < b for a, b in zip(lrs[:peak - 1], lrs[1:peak]))
    assert all(a >= b for a, b in zip(lrs[peak - 1:], lrs[peak:]))
    # closed form at the peak
    assert abs(lrs[warm - 1] - d ** -0.5 * warm ** -0.5) < 1e-15


def test_lr_schedule_continuous_at_warmup():
    d, warm = 16, 100
    before = warm * warm ** -1.5
    after = warm ** -0.5
    assert abs(before - after) < 1e-15
    assert tr.lr_schedule(warm, d, warm) == pytest.approx(d ** -0.5 * after)


def test_lr_schedule_rejects_step_zero():
    with pytest.raises(nc.ContractError):
        tr.lr_schedule(0, 32, 400)


def gradient_vector(grads, config=None):
    """A gradient vector for `config` (by default small_config(vocab_size=5))
    holding `grads`, a name -> array map, and zeros in every other
    parameter's slot, and its named views (model.param_slots). A zero slot
    adds exact zeros to the clip norm."""
    config = config or small_config(vocab_size=5)
    grad = mdl.ModelParams(config).vector
    slots = mdl.param_slots(config, grad)
    for name, g in grads.items():
        slots[name][...] = g
    return grad, slots


@pytest.mark.parametrize("batch_size", [0, -1])
def test_gradient_group_refuses_a_batch_size_below_1(batch_size):
    config = small_config(vocab_size=5)
    with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        tr.GradientHelpers(config, mdl.ModelParams(config), batch_size, 0)


def test_clip_leaves_small_gradients_untouched():
    grad, _ = gradient_vector({"punct.b": np.array([0.3, 0.4, 0.0, 0.0])})  # norm 0.5
    before = grad.copy()
    norm = tr.clip_gradients(grad, small_config(vocab_size=5), 1.0)
    assert np.array_equal(grad, before) and norm == 0.5


def test_clip_scales_to_exactly_the_threshold():
    grads = {"punct.b": np.array([3.0, 0.0, 0.0, 0.0]),
             "disf.b": np.array([4.0, 0.0, 0.0, 0.0, 0.0])}  # norm 5
    grad, out = gradient_vector(grads)
    assert tr.clip_gradients(grad, small_config(vocab_size=5), 1.0) == 5.0
    norm = math.sqrt(sum(float((g * g).sum()) for g in out.values()))
    assert abs(norm - 1.0) < 1e-12
    # direction preserved: cosine similarity 1 with the unclipped gradient
    dot = sum(float((g * out[name]).sum()) for name, g in grads.items())
    assert abs(dot / (5.0 * norm) - 1.0) < 1e-12


def test_clip_sums_wqkv_block_by_block():
    # head by head, q, k, v within a head, each block a contiguous copy: the
    # norm of one tensor per head and projection, to the bit
    rng = np.random.default_rng(2)  # data on which the two orders differ
    grads = {"embed": rng.normal(size=(5, 8)),
             "layer0.wqkv": rng.normal(size=(8, 24)),
             "layer0.wo": rng.normal(size=(8, 8))}
    grad, out = gradient_vector(grads)
    tr.clip_gradients(grad, small_config(vocab_size=5), 1.0)
    sq = float((grads["embed"] ** 2).sum())
    for h in range(2):
        for c in range(3):
            block = np.ascontiguousarray(
                grads["layer0.wqkv"][:, (2 * c + h) * 4:(2 * c + h + 1) * 4])
            sq += float((block * block).sum())
    sq += float((grads["layer0.wo"] ** 2).sum())
    factor = 1.0 / math.sqrt(sq)
    whole = sum(float((g * g).sum()) for g in grads.values())
    assert 1.0 / math.sqrt(whole) != factor
    for name, g in grads.items():
        assert np.array_equal(out[name], g * factor)


def test_clip_rejects_non_finite():
    grad, _ = gradient_vector({"punct.b": np.array([0.0, np.nan, 0.0, 0.0])})
    with pytest.raises(tr.TrainingError):
        tr.clip_gradients(grad, small_config(vocab_size=5), 1.0)


def test_adam_zero_gradient_is_noop_on_fresh_state():
    bundle = random_bundle(small_config(), seed=1)
    params = bundle.params.copy()
    opt = tr.Adam(params.vector.size)
    opt.step(params.vector, np.zeros_like(params.vector), lr=0.1)
    assert np.array_equal(params.vector, bundle.params.vector)


def test_adam_first_step_moves_by_lr():
    # with a single constant gradient, the bias-corrected first update is
    # lr * g / (|g| + eps) = lr * sign(g) (up to eps)
    params = np.array([1.0, -2.0])
    opt = tr.Adam(2)
    opt.step(params, np.array([0.5, -0.25]), lr=0.01)
    assert np.abs(params - [0.99, -1.99]).max() < 1e-9


def test_short_training_run_descends():
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    corpus = dt.synth_generate(40, 500, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab), lookahead=(0, 9))
    result = tr.train(corpus, tr.TrainConfig(max_steps=200, seed=5),
                      config, vocab, scheme)
    assert result.steps_run == 200
    assert result.final_loss < 0.5 * result.initial_loss


def test_training_is_deterministic_per_seed(tmp_path):
    grammar = dt.GrammarConfig("travel", p_filler=0.2)
    corpus = dt.synth_generate(41, 100, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab))
    paths = []
    for run in range(2):
        result = tr.train(corpus, tr.TrainConfig(max_steps=30, seed=6),
                          config, vocab, scheme)
        path = os.fspath(tmp_path / f"run{run}.ctt")
        mdl.save_model(path, config, result.params, vocab, scheme)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_different_seeds_differ():
    grammar = dt.GrammarConfig("travel")
    corpus = dt.synth_generate(42, 50, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab))
    a = tr.train(corpus, tr.TrainConfig(max_steps=5, seed=1),
                 config, vocab, scheme)
    b = tr.train(corpus, tr.TrainConfig(max_steps=5, seed=2),
                 config, vocab, scheme)
    assert any(not np.array_equal(a.params[n].data, b.params[n].data)
               for n in a.params.names())


def test_empty_corpus_rejected():
    vocab = dt.Vocabulary([])
    with pytest.raises(ValueError, match="empty"):
        tr.train([], tr.TrainConfig(), small_config(vocab_size=len(vocab)),
                 vocab, dt.LabelScheme())


def test_empty_dev_set_rejected_before_the_first_step(monkeypatch):
    # every eval of an empty dev set scores 0.0, so the first eval's
    # parameters would be returned whatever the later steps learned
    corpus = labelled([3, 5, 8], seed=1)
    vocab = dt.Vocabulary.from_corpus(corpus)
    steps = []
    monkeypatch.setattr(tr, "batch_gradients", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="^dev set is empty$"):
        tr.train(corpus, tr.TrainConfig(batch_size=2, max_steps=6, eval_every=2),
                 small_config(vocab_size=len(vocab)), vocab, dt.LabelScheme(),
                 dev=[])
    assert steps == [] and multiprocessing.active_children() == []


def test_batch_gradients_zero_for_uninvolved_head():
    # a batch whose gold labels are all class 0 still trains both heads, but
    # the punct head's gradient must not touch disf head parameters
    bundle = random_bundle(small_config(), seed=7)
    seqs = [dt.TokenSequence(["w0", "w1"], ["O", "PERIOD"], ["O", "O"])]
    _, grads = tr.batch_gradients(seqs, bundle.config, bundle.params,
                                  bundle.vocab, bundle.scheme)
    assert set(grads) == set(bundle.params.names())
    assert np.all(np.isfinite(grads["embed"]))


@pytest.mark.parametrize("count", [0, 1])
def test_gradient_refuses_a_batch_the_group_has_no_rows_for(count):
    # refused before any share is sent, so the helpers stay in step and the
    # next batch's gradient is the one computed in one process
    if count and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no helpers without the fork start method")
    bundle = random_bundle(small_config(), seed=7)
    seqs = labelled([2, 3, 4], seed=1)
    encoded = [dt.encode(seq, bundle.vocab, bundle.scheme) for seq in seqs]
    helpers = tr.GradientHelpers(bundle.config, bundle.params, 2, count)
    try:
        for batch in ([], encoded):
            with pytest.raises(ValueError, match=f"a batch of {len(batch)} "
                               "sequences for a group made for 1 to 2"):
                helpers.gradient(batch)
        loss = helpers.gradient(encoded[:2])
        grad = helpers.grad.copy()
    finally:
        helpers.close()
    alone_loss, alone = tr.batch_gradients(seqs[:2], bundle.config,
                                           bundle.params, bundle.vocab,
                                           bundle.scheme)
    assert loss == alone_loss
    assert grad.tobytes() == np.concatenate(
        [g.ravel() for g in alone.values()]).tobytes()
    with pytest.raises(ValueError, match="a batch of 0 sequences"):
        tr.batch_gradients([], bundle.config, bundle.params, bundle.vocab,
                           bundle.scheme)


@pytest.mark.parametrize("clip_norm", [float("nan"), float("inf"), float("-inf"),
                                       0.0, -1.0])
def test_train_config_rejects_clip_norm_not_finite_and_positive(clip_norm):
    with pytest.raises(ValueError, match="clip_norm must be finite and > 0"):
        tr.TrainConfig(clip_norm=clip_norm)


@pytest.mark.parametrize("name", ["batch_size", "warmup_steps", "max_steps",
                                  "eval_every"])
def test_train_config_refuses_a_count_above_sys_maxsize(name):
    assert getattr(tr.TrainConfig(**{name: sys.maxsize}), name) == sys.maxsize
    with pytest.raises(ValueError, match=f"^{name} must be <= {sys.maxsize}, "
                                         f"got {sys.maxsize + 1}$"):
        tr.TrainConfig(**{name: sys.maxsize + 1})


# SHA-256 of the little-endian float64 parameter vector, in param_shapes
# order, that test_training_fingerprint_is_pinned trains (numpy 2.4.6,
# OpenBLAS 0.3.31, x86-64). It is the training that the CTT2 checkpoint
# digest b57bf4bf... pinned before, which the encoder layer's four fused
# ops and the flat optimizer step kept. Every refactor of the forward, the
# backward or the optimizer must keep it. Another numpy or BLAS may round a
# product differently; then record the digest again from an unchanged tree
# on that toolchain.
TRAINING_FINGERPRINT = "72f292ec727bb72526f6bc6b73fae56629811718c133a8b1aed7cb6b3949c8b5"


def use_cpus(monkeypatch, n):
    """Make `train` see `n` usable CPUs, so it starts min(n, batch_size) - 1
    gradient helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_training_fingerprint_is_pinned(monkeypatch):
    # The benchmark's F1 cannot tell an ulp of drift in training from a
    # regression, so the trained bits are pinned here: the CLI-default model
    # (4 layers, 2 heads, budgets 0,0,0,9), 30 steps from seed 0, with
    # clipping active on most steps, all in one process.
    use_cpus(monkeypatch, 1)
    check_training_fingerprint(monkeypatch)


def test_training_fingerprint_is_pinned_with_helpers(monkeypatch):
    # three gradient helpers, so a host with one CPU covers them too
    use_cpus(monkeypatch, 4)
    check_training_fingerprint(monkeypatch)


def check_training_fingerprint(monkeypatch):
    clipped = []

    def clip_and_count(grad, config, clip_norm):
        norm = clip(grad, config, clip_norm)
        clipped.append(norm > clip_norm)
        return norm

    clip = tr.clip_gradients
    monkeypatch.setattr(tr, "clip_gradients", clip_and_count)
    corpus, vocab, scheme, config = fingerprint_set_up()
    result = tr.train(corpus, tr.TrainConfig(max_steps=30, seed=0),
                      config, vocab, scheme)
    assert len(clipped) == 30 and sum(clipped) >= 15
    vector = np.asarray(result.params.vector, dtype="<f8")
    assert vector.size == 35209
    assert hashlib.sha256(vector.tobytes()).hexdigest() == TRAINING_FINGERPRINT


def fingerprint_set_up():
    """The fingerprint's corpus, vocabulary, labels and CLI-default model."""
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    corpus = dt.synth_generate(7, 200, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus, min_freq=2)
    scheme = dt.LabelScheme()
    config = mdl.ModelConfig(
        vocab_size=len(vocab), d_model=32, n_layers=4, n_heads=2, d_ff=64,
        mask_spec=MaskSpec.from_string("0,0,0,9"),
        punct_label_count=len(scheme.punct_labels),
        disf_label_count=len(scheme.disf_labels))
    return corpus, vocab, scheme, config


def test_fine_tuning_from_a_loaded_checkpoint_equals_from_memory(tmp_path,
                                                                monkeypatch):
    # The parameter vector, and with it the clip norm's sum, follows
    # param_shapes order however the parameters were filled in, so the same
    # values train to the same bits from memory, from a save/load round trip
    # and from parameters assigned in reverse order. Clipping is active on
    # the first steps.
    use_cpus(monkeypatch, 1)
    corpus, vocab, scheme, config = fingerprint_set_up()
    init = mdl.init_params(config, np.random.default_rng(0))
    path = os.fspath(tmp_path / "init.ctt")
    mdl.save_model(path, config, init, vocab, scheme)
    loaded = mdl.load_model(path)[1]
    assert loaded.names() == list(mdl.param_shapes(config))
    reversed_order = mdl.ModelParams(config)
    for name, t in reversed(list(init.items())):
        reversed_order[name] = t
    first, *others = [
        tr.train(corpus, tr.TrainConfig(max_steps=4, seed=0), config, vocab,
                 scheme, init_params=params).params
        for params in (init, loaded, reversed_order)]
    for params in others:
        for name, t in first.items():
            assert np.array_equal(params[name].data, t.data), name


def labelled(lengths, seed):
    """Utterances of the given lengths over ten words, each ending in a
    period, with a filler here and there."""
    rng = np.random.default_rng(seed)
    corpus = []
    for n in lengths:
        words = [f"w{i}" for i in rng.integers(0, 10, size=n)]
        punct = ["O"] * (n - 1) + ["PERIOD"]
        disf = ["B-IM" if rng.random() < 0.2 else "O" for _ in range(n)]
        corpus.append(dt.TokenSequence(words, punct, disf))
    return corpus


def sequential_batch_gradients(batch, model_config, params, vocab, scheme):
    """The reference: each sequence's loss and flat gradient
    (model.loss_gradients on the sequence alone, in `params` order) added to
    the running sums as soon as it is computed, then both divided by the
    batch size."""
    total, acc = 0.0, None
    for seq in batch:
        grads = {name: np.empty(t.shape) for name, t in params.items()}
        total += mdl.loss_gradients([dt.encode(seq, vocab, scheme)],
                                    model_config, params, [grads])[0]
        flat = np.concatenate(list(grads.values()), axis=None)
        acc = flat if acc is None else acc + flat
    return total / len(batch), acc / len(batch)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_helpers_give_the_in_process_gradients_bit_for_bit(cpus, monkeypatch):
    # batch sizes 1-9 over lengths 1-40, 1-word utterances included; every
    # step's loss and gradients, through the helpers and with batch_gradients
    # called alone, equal the sequential reference to the bit
    use_cpus(monkeypatch, cpus)
    corpus = labelled([1, 40, 1, 27, 5, 1, 14, 33, 9, 2, 21, 1], seed=cpus)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab))
    batch_gradients = tr.batch_gradients
    steps = []

    def compare(batch, model_config, params, vocab, scheme, helpers=None):
        loss, grads = batch_gradients(batch, model_config, params, vocab,
                                      scheme, helpers)
        alone_loss, alone = batch_gradients(batch, model_config, params, vocab,
                                            scheme)
        ref_loss, ref = sequential_batch_gradients(batch, model_config, params,
                                                   vocab, scheme)
        same = all(
            np.float64(out_loss).tobytes() == np.float64(ref_loss).tobytes()
            and list(out) == params.names()
            and np.concatenate(list(out.values()), axis=None).tobytes() == ref.tobytes()
            for out_loss, out in ((loss, grads), (alone_loss, alone)))
        steps.append((helpers.count > 0, same))
        return loss, grads

    monkeypatch.setattr(tr, "batch_gradients", compare)
    forks = "fork" in multiprocessing.get_all_start_methods()
    for batch_size in range(1, 10):
        steps.clear()
        tr.train(corpus, tr.TrainConfig(batch_size=batch_size, max_steps=3,
                                        augment=False, seed=batch_size),
                 config, vocab, scheme)
        assert multiprocessing.active_children() == []
        helped = forks and min(cpus, batch_size) > 1
        assert steps == [(helped, True)] * 3


def test_shares_deal_longest_first_out_and_back():
    # the three 9-word sequences go out in index order, the deal turns at
    # the last worker and again at the first
    assert tr._shares([5, 9, 9, 1, 7, 3, 9], 3) == [[1, 5, 3], [2, 0], [6, 4]]
    assert tr._shares([4, 4, 4, 4], 2) == [[0, 3], [1, 2]]
    assert tr._shares([], 3) == [[], [], []]


def test_shares_hold_every_sequence_once_and_as_many_as_each_other():
    rng = np.random.default_rng(0)
    for workers, k in itertools.product(range(1, 9), range(9)):
        # lengths 1-3 tie often; all equal; one long sequence among short
        for lengths in [[2] * k, [40, *[1] * (k - 1)][:k]] + [
                rng.integers(1, 4, size=k).tolist() for _ in range(6)]:
            shares = tr._shares(lengths, workers)
            assert len(shares) == workers
            assert sorted(itertools.chain(*shares)) == list(range(k))
            sizes = [len(share) for share in shares]
            assert max(sizes) - min(sizes) <= 1
            for share in shares:  # longest first, ties in index order
                assert share == sorted(share, key=lambda i: (-lengths[i], i))
            if workers == 2 and k >= 2:  # the two longest are split
                first, second = sorted(range(k), key=lambda i: -lengths[i])[:2]
                assert first in shares[0] and second in shares[1]


def small_training_run(monkeypatch, gradient_in_helpers):
    """Two steps of batch 4 with three helpers, whose sequence gradient is
    `gradient_in_helpers`; the parent's is the model's."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no helpers without the fork start method")
    use_cpus(monkeypatch, 4)
    parent, loss_gradients = os.getpid(), mdl.loss_gradients

    def gradient_by_process(*args, **kwargs):
        if os.getpid() == parent:
            return loss_gradients(*args, **kwargs)
        return gradient_in_helpers()

    monkeypatch.setattr(mdl, "loss_gradients", gradient_by_process)
    corpus = labelled([3, 5, 8, 13], seed=0)
    vocab = dt.Vocabulary.from_corpus(corpus)
    return tr.train(corpus, tr.TrainConfig(batch_size=4, max_steps=2),
                    small_config(vocab_size=len(vocab)), vocab,
                    dt.LabelScheme())


def test_a_helper_error_reaches_the_parent_with_its_type(monkeypatch):
    def fail():
        ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        raise nc.ContractError(f"raised in a helper ignoring SIGINT: {ignored}")

    with pytest.raises(nc.ContractError, match="in a helper ignoring SIGINT: True"):
        small_training_run(monkeypatch, fail)
    assert multiprocessing.active_children() == []


def test_a_helper_that_dies_raises_training_error(monkeypatch):
    with pytest.raises(tr.TrainingError, match="gradient helper . exited"):
        small_training_run(monkeypatch, lambda: os._exit(3))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count, raised_in, error", [
    (0, "parent", MemoryError), (0, "parent", KeyboardInterrupt),
    (1, "parent", MemoryError), (1, "parent", KeyboardInterrupt),
    (1, "helper", MemoryError)])
def test_a_group_stays_in_step_after_an_error(monkeypatch, count, raised_in,
                                              error):
    # every helper is heard from before `gradient` raises, so no reply of
    # the failed batch is left in a pipe: the next batch, of other lengths,
    # gets the loss and gradient of one process, to the bit
    if count and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no helpers without the fork start method")
    parent, loss_gradients, failed = os.getpid(), mdl.loss_gradients, []

    def fail_once(*args, **kwargs):  # each helper has its own `failed`
        if (os.getpid() == parent) == (raised_in == "parent") and not failed:
            failed.append(True)
            raise error(f"raised in the {raised_in}")
        return loss_gradients(*args, **kwargs)

    monkeypatch.setattr(mdl, "loss_gradients", fail_once)
    bundle = random_bundle(small_config(), seed=7)
    first, then = labelled([2, 5, 3, 7], seed=2), labelled([6, 1, 4], seed=3)
    helpers = tr.GradientHelpers(bundle.config, bundle.params, 4, count)
    try:
        with pytest.raises(error, match=f"raised in the {raised_in}"):
            helpers.gradient([dt.encode(seq, bundle.vocab, bundle.scheme)
                              for seq in first])
        loss = helpers.gradient([dt.encode(seq, bundle.vocab, bundle.scheme)
                                 for seq in then])
        grad = helpers.grad.copy()
    finally:
        helpers.close()
    alone_loss, alone = tr.batch_gradients(then, bundle.config, bundle.params,
                                           bundle.vocab, bundle.scheme)
    assert np.float64(loss).tobytes() == np.float64(alone_loss).tobytes()
    assert grad.tobytes() == np.concatenate(
        [g.ravel() for g in alone.values()]).tobytes()


def reference_clip_and_adam(params, grads, state, lr, clip_norm, n_heads):
    """The reference optimizer step, out of place on dicts of arrays: the
    block-order clip norm, the clipped gradients g * (clip_norm / norm), and
    Adam's moments, bias corrections and update as fresh arrays."""
    sq = 0.0
    for name, g in grads.items():
        for part in mdl.param_blocks(name, g, n_heads):
            sq += float((part * part).sum())
    norm = math.sqrt(sq)
    if norm > clip_norm:
        grads = {n: g * (clip_norm / norm) for n, g in grads.items()}
    state["t"] += 1
    t = state["t"]
    for n, g in grads.items():
        state["m"][n] = 0.9 * state["m"][n] + (1 - 0.9) * g
        state["v"][n] = 0.98 * state["v"][n] + (1 - 0.98) * g * g
        mhat = state["m"][n] / (1 - 0.9 ** t)
        vhat = state["v"][n] / (1 - 0.98 ** t)
        params[n] = params[n] - lr * mhat / (np.sqrt(vhat) + 1e-9)
    return norm


def test_in_place_clip_and_adam_equal_the_out_of_place_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    config = small_config(vocab_size=7)
    shapes = mdl.param_shapes(config)
    size = sum(math.prod(s) for s in shapes.values())
    params = mdl.ModelParams(config, rng.normal(size=size))
    grad, slots = gradient_vector({}, config)
    ref = {n: t.data.copy() for n, t in params.items()}
    state = {"t": 0, "m": {n: np.zeros(s) for n, s in shapes.items()},
             "v": {n: np.zeros(s) for n, s in shapes.items()}}
    opt = tr.Adam(size)
    clipped = []
    for scale in (0.002, 3.0, 0.01, 30.0, 0.001, 0.5, 8.0):
        drawn = {n: scale * rng.normal(size=s) / math.sqrt(size)
                 for n, s in shapes.items()}
        for name, g in drawn.items():
            slots[name][...] = g
        lr = float(rng.uniform(1e-4, 0.1))
        norm = tr.clip_gradients(grad, config, 1.0)
        opt.step(params.vector, grad, lr)
        ref_norm = reference_clip_and_adam(ref, drawn, state, lr, 1.0, 2)
        assert norm == ref_norm
        clipped.append(norm > 1.0)
        assert all(t.data.tobytes() == ref[n].tobytes() for n, t in params.items())
    assert 2 <= sum(clipped) <= len(clipped) - 2


def test_augmentation_keeps_utterances_within_max_positions(monkeypatch):
    # twelve-word utterances fit max_positions 16; an appended prefix of up
    # to twelve more words would not
    corpus = labelled([12] * 6, seed=3)
    vocab = dt.Vocabulary.from_corpus(corpus)
    config = small_config(vocab_size=len(vocab), max_positions=16)
    lengths = []
    augment = tr.truncation_augment

    def record(batch, rng, max_positions):
        out = augment(batch, rng, max_positions)
        lengths.extend(len(seq.words) for seq in out)
        return out

    monkeypatch.setattr(tr, "truncation_augment", record)
    result = tr.train(corpus, tr.TrainConfig(batch_size=4, max_steps=5, seed=2),
                      config, vocab, dt.LabelScheme())
    assert result.steps_run == 5
    assert max(lengths) == 16 and min(lengths) == 12


def test_train_refuses_a_corpus_utterance_longer_than_max_positions():
    corpus = labelled([12, 20, 3], seed=4)
    vocab = dt.Vocabulary.from_corpus(corpus)
    config = small_config(vocab_size=len(vocab), max_positions=16)
    with pytest.raises(ValueError, match="^corpus utterance 1 has 20 words, "
                                         "more than max_positions 16$"):
        tr.train(corpus, tr.TrainConfig(max_steps=1), config, vocab,
                 dt.LabelScheme())
    assert multiprocessing.active_children() == []


def test_train_scores_a_dev_utterance_longer_than_max_positions():
    # tag_offline tags a dev utterance past max_positions through the
    # stream decoder, so it is scored, not refused
    corpus, dev = labelled([12, 12], seed=4), labelled([12, 20, 3], seed=4)
    vocab = dt.Vocabulary.from_corpus(dev)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab), max_positions=16)
    result = tr.train(corpus, tr.TrainConfig(batch_size=2, max_steps=1,
                                             eval_every=1),
                      config, vocab, scheme, dev=dev)
    [(step, _, *f1)] = result.history
    assert step == 1
    assert tuple(f1) == tr._dev_f1(dev, config, result.params, vocab, scheme)


def test_train_runs_where_the_fork_start_method_does_not_exist(monkeypatch):
    # no helpers then, and no multiprocessing context is asked for: the
    # parameters are those of a call with helpers, and batch_gradients
    # without a group works too
    use_cpus(monkeypatch, 4)
    corpus = labelled([3, 5, 8, 13, 2, 7], seed=6)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab))
    train_config = tr.TrainConfig(batch_size=4, max_steps=3, seed=4)
    helped = tr.train(corpus, train_config, config, vocab, scheme).params
    get_context = multiprocessing.get_context

    def without_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", without_fork)
    counts = []
    batch_gradients = tr.batch_gradients

    def record(batch, model_config, params, vocab, scheme, helpers=None):
        counts.append(helpers.count)
        return batch_gradients(batch, model_config, params, vocab, scheme,
                               helpers)

    monkeypatch.setattr(tr, "batch_gradients", record)
    alone = tr.train(corpus, train_config, config, vocab, scheme).params
    assert counts == [0, 0, 0]
    assert all(alone[n].data.tobytes() == t.data.tobytes()
               for n, t in helped.items())
    loss, grads = batch_gradients(corpus[:2], config, alone, vocab, scheme)
    assert math.isfinite(loss) and list(grads) == alone.names()


@pytest.mark.parametrize("cpus", [1, 4])
def test_train_reads_its_inputs_and_returns_parameters_of_their_own(cpus,
                                                                    monkeypatch):
    use_cpus(monkeypatch, cpus)
    corpus = labelled([3, 5, 8, 13, 2, 7], seed=5)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = small_config(vocab_size=len(vocab))
    init = mdl.init_params(config, np.random.default_rng(9))
    before = {n: t.data.tobytes() for n, t in init.items()}
    final = tr.train(corpus, tr.TrainConfig(batch_size=4, max_steps=3, seed=1),
                     config, vocab, scheme, init_params=init).params
    assert {n: t.data.tobytes() for n, t in init.items()} == before
    selected = tr.train(corpus, tr.TrainConfig(batch_size=4, max_steps=4,
                                               eval_every=2, seed=2),
                        config, vocab, scheme, dev=corpus[:2]).params
    taggers = [ModelTagger(config, p, vocab, scheme) for p in (final, selected)]
    tags = [[t.tag(seq.words) for seq in corpus] for t in taggers]

    working = []
    batch_gradients = tr.batch_gradients

    def record(batch, model_config, params, vocab, scheme, helpers=None):
        working.append(params)
        return batch_gradients(batch, model_config, params, vocab, scheme,
                               helpers)

    monkeypatch.setattr(tr, "batch_gradients", record)
    later = tr.train(corpus, tr.TrainConfig(batch_size=4, max_steps=2, seed=3),
                     config, vocab, scheme, init_params=final).params
    assert [[t.tag(seq.words) for seq in corpus] for t in taggers] == tags
    groups = [final, selected, later, working[0]]
    for a, b in itertools.combinations(groups, 2):
        assert not np.shares_memory(a.vector, b.vector)
