import hashlib
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from conftest import random_bundle, small_config
from puncstream import data as dt
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream import training as tr
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


def test_clip_leaves_small_gradients_untouched():
    grads = {"a": np.array([0.3, 0.4])}  # norm 0.5
    out = tr.clip_gradients(grads, 1.0)
    assert out["a"] is grads["a"]


def test_clip_scales_to_exactly_the_threshold():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}  # norm 5
    out = tr.clip_gradients(grads, 1.0)
    norm = math.sqrt(sum(float((g * g).sum()) for g in out.values()))
    assert abs(norm - 1.0) < 1e-12
    # direction preserved: cosine similarity 1 with the unclipped gradient
    dot = sum(float((a * b).sum()) for a, b in
              zip(grads.values(), out.values()))
    assert abs(dot / (5.0 * norm) - 1.0) < 1e-12


def test_clip_sums_wqkv_block_by_block():
    # head by head, q, k, v within a head, each block a contiguous copy: the
    # norm of one tensor per head and projection, to the bit
    rng = np.random.default_rng(2)  # data on which the two orders differ
    grads = {"embed": rng.normal(size=(5, 8)),
             "layer0.wqkv": rng.normal(size=(8, 24)),
             "layer0.wo": rng.normal(size=(8, 8))}
    out = tr.clip_gradients(grads, 1.0, n_heads=2)
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
    with pytest.raises(tr.TrainingError):
        tr.clip_gradients({"a": np.array([np.nan])}, 1.0)


def test_adam_zero_gradient_is_noop_on_fresh_state():
    bundle = random_bundle(small_config(), seed=1)
    params = bundle.params.copy()
    opt = tr.Adam(list(params.tensors))
    zeros = {n: np.zeros(t.shape) for n, t in params.items()}
    opt.step(params, zeros, lr=0.1)
    for name, t in bundle.params.items():
        assert np.array_equal(params[name].data, t.data)


def test_adam_first_step_moves_by_lr():
    # with a single constant gradient, the bias-corrected first update is
    # lr * g / (|g| + eps) = lr * sign(g) (up to eps)
    params = mdl.ModelParams({"w": nc.Tensor(np.array([1.0, -2.0]))})
    opt = tr.Adam(["w"])
    opt.step(params, {"w": np.array([0.5, -0.25])}, lr=0.01)
    assert np.abs(params["w"].data - [0.99, -1.99]).max() < 1e-9


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
               for n in a.params.tensors)


def test_empty_corpus_rejected():
    vocab = dt.Vocabulary([])
    with pytest.raises(ValueError, match="empty"):
        tr.train([], tr.TrainConfig(), small_config(vocab_size=len(vocab)),
                 vocab, dt.LabelScheme())


def test_batch_gradients_zero_for_uninvolved_head():
    # a batch whose gold labels are all class 0 still trains both heads, but
    # the punct head's gradient must not touch disf head parameters
    bundle = random_bundle(small_config(), seed=7)
    seqs = [dt.TokenSequence(["w0", "w1"], ["O", "PERIOD"], ["O", "O"])]
    _, grads = tr.batch_gradients(seqs, bundle.config, bundle.params,
                                  bundle.vocab, bundle.scheme)
    assert set(grads) == set(bundle.params.tensors)
    assert np.all(np.isfinite(grads["embed"]))


@pytest.mark.parametrize("clip_norm", [float("nan"), float("inf"), float("-inf"),
                                       0.0, -1.0])
def test_train_config_rejects_clip_norm_not_finite_and_positive(clip_norm):
    with pytest.raises(ValueError, match="clip_norm must be finite and > 0"):
        tr.TrainConfig(clip_norm=clip_norm)


# SHA-256 of the checkpoint that test_training_fingerprint_is_pinned trains,
# recorded before the encoder layer's eleven ops became four fused ones and
# the optimizer step became one flat vector (numpy 2.4.6, OpenBLAS 0.3.31,
# x86-64). Every refactor of the forward, the backward or the optimizer
# must keep it. Another numpy or BLAS may round a product differently; then
# record the digest again from an unchanged tree on that toolchain.
TRAINING_FINGERPRINT = "b57bf4bfbdc820e1fb15a996f61d490e4ae5f36867dd36ce48e370e38a8843df"


def use_cpus(monkeypatch, n):
    """Make `train` see `n` usable CPUs, so it starts min(n, batch_size) - 1
    gradient helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_training_fingerprint_is_pinned(tmp_path, monkeypatch):
    # The benchmark's F1 cannot tell an ulp of drift in training from a
    # regression, so the trained bits are pinned here: the CLI-default model
    # (4 layers, 2 heads, budgets 0,0,0,9), 30 steps from seed 0, with
    # clipping active on most steps, all in one process.
    use_cpus(monkeypatch, 1)
    check_training_fingerprint(tmp_path, monkeypatch)


def test_training_fingerprint_is_pinned_with_helpers(tmp_path, monkeypatch):
    # three gradient helpers, so a host with one CPU covers them too
    use_cpus(monkeypatch, 4)
    check_training_fingerprint(tmp_path, monkeypatch)


def check_training_fingerprint(tmp_path, monkeypatch):
    clipped = []

    def clip_and_count(grads, clip_norm, n_heads=1):
        out = clip(grads, clip_norm, n_heads)
        clipped.append(out is not grads)
        return out

    clip = tr.clip_gradients
    monkeypatch.setattr(tr, "clip_gradients", clip_and_count)
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    corpus = dt.synth_generate(7, 200, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus, min_freq=2)
    scheme = dt.LabelScheme()
    config = mdl.ModelConfig(
        vocab_size=len(vocab), d_model=32, n_layers=4, n_heads=2, d_ff=64,
        mask_spec=MaskSpec.from_string("0,0,0,9"),
        punct_label_count=len(scheme.punct_labels),
        disf_label_count=len(scheme.disf_labels))
    result = tr.train(corpus, tr.TrainConfig(max_steps=30, seed=0),
                      config, vocab, scheme)
    assert len(clipped) == 30 and sum(clipped) >= 15
    path = os.fspath(tmp_path / "fingerprint.ctt")
    mdl.save_model(path, config, result.params, vocab, scheme)
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == TRAINING_FINGERPRINT


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
    """The reference: each sequence's loss and flat gradient added to the
    running sums as soon as it is computed, then both divided by the batch
    size."""
    wrt = list(params.tensors.values())
    total, acc = 0.0, None
    for seq in batch:
        ids, punct_ids, disf_ids = dt.encode(seq, vocab, scheme)
        tape = nc.Tape()
        punct, disf = mdl.forward(ids, model_config, params, tape)
        loss = tr.joint_loss(punct, disf, punct_ids, disf_ids, tape)
        total += loss.item()
        grads = nc.backward(loss, tape, wrt)
        flat = np.concatenate([grads[t] for t in wrt], axis=None)
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
            and list(out) == list(params.tensors)
            and np.concatenate(list(out.values()), axis=None).tobytes() == ref.tobytes()
            for out_loss, out in ((loss, grads), (alone_loss, alone)))
        steps.append((helpers is not None, same))
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


def small_training_run(monkeypatch, forward_in_helpers):
    """Two steps of batch 4 with three helpers, whose forward is
    `forward_in_helpers`; the parent's forward is the model's."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no helpers without the fork start method")
    use_cpus(monkeypatch, 4)
    parent, forward = os.getpid(), mdl.forward

    def forward_by_process(*args, **kwargs):
        if os.getpid() == parent:
            return forward(*args, **kwargs)
        return forward_in_helpers()

    monkeypatch.setattr(mdl, "forward", forward_by_process)
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
