"""End-to-end acceptance checks for the streaming punctuation/disfluency
engine. Each test prints a single PASS line once its assertions hold; run
with -s to see them. These are slower than the unit tests: several train
real toy models and one benchmarks a 50k-word stream.
"""

import random

import numpy as np
import pytest

from conftest import forward_mask, full_mask
from puncstream import data as dt
from puncstream import decoding as dec
from puncstream import evaluation as ev
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream import training as tr
from puncstream.masks import MaskSpec, build_ct_mask


def _ok(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


# -------------------------------------------------------------------
# 1. frozen prefix: edits beyond the look-ahead horizon never touch
#    earlier logits, bit for bit
# -------------------------------------------------------------------

def test_criterion_1_freezing_invariant():
    spec = MaskSpec((0, 0, 9))
    horizon = 9
    n = 30
    vocab_size = 20
    config = mdl.ModelConfig(vocab_size, 16, 3, 2, 32, spec, 4, 5)
    rng = np.random.default_rng(100)
    near_edit_changed = 0
    for trial in range(100):
        params = mdl.init_params(config, np.random.default_rng(1000 + trial))
        tokens = rng.integers(0, vocab_size, size=n).tolist()
        i = int(rng.integers(0, n - horizon - 1))
        base_p, base_d = mdl.forward(tokens, config, params)

        # far edit: strictly beyond i + horizon, logits up to i frozen
        j = int(rng.integers(i + horizon + 1, n))
        edited = list(tokens)
        edited[j] = (edited[j] + 1 + int(rng.integers(0, vocab_size - 1))) % vocab_size
        far_p, far_d = mdl.forward(edited, config, params)
        assert np.array_equal(base_p.data[:i + 1], far_p.data[:i + 1])
        assert np.array_equal(base_d.data[:i + 1], far_d.data[:i + 1])

        # near edit: at i + horizon or closer, may (and usually does) change
        k = int(rng.integers(i + 1, i + horizon + 1))
        edited = list(tokens)
        edited[k] = (edited[k] + 7) % vocab_size
        near_p, _ = mdl.forward(edited, config, params)
        if not np.array_equal(base_p.data[i], near_p.data[i]):
            near_edit_changed += 1
    assert near_edit_changed >= 1
    _ok("1 freezing invariant: 100/100 far edits bit-identical, "
        f"{near_edit_changed}/100 near edits changed position i")


# -------------------------------------------------------------------
# 2. mask degeneracies and the saturated-budget reference path
# -------------------------------------------------------------------

def test_criterion_2_mask_degeneracy():
    for n in range(1, 65):
        assert np.array_equal(build_ct_mask(n, 0), forward_mask(n))
        assert np.array_equal(build_ct_mask(n, n - 1), full_mask(n))
    n = 8
    saturated = mdl.ModelConfig(16, 16, 2, 2, 32, MaskSpec((512, 512)), 4, 5)
    zeromask = mdl.ModelConfig(16, 16, 2, 2, 32, MaskSpec((n - 1, n - 1)), 4, 5)
    params = mdl.init_params(saturated, np.random.default_rng(2))
    tokens = list(range(2, 2 + n))
    a = mdl.encoder_forward(tokens, saturated, params)
    b = mdl.encoder_forward(tokens, zeromask, params)
    assert np.array_equal(a.data, b.data)
    _ok("2 mask degeneracy: n=1..64 forward/full identities, saturated "
        "budget == zero-mask reference exactly")


# -------------------------------------------------------------------
# 3. gradient correctness by central finite differences
# -------------------------------------------------------------------

def test_criterion_3_gradient_check():
    config = mdl.ModelConfig(8, 8, 2, 2, 16, MaskSpec((0, 2)), 4, 5)
    params = mdl.init_params(config, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 8, size=6).tolist()
    punct_ids = rng.integers(0, 4, size=6).tolist()
    disf_ids = rng.integers(0, 5, size=6).tolist()

    def loss_at(p):
        punct, disf = mdl.forward(tokens, config, p)
        return tr.joint_loss(punct, disf, punct_ids, disf_ids).item()

    names = params.names()
    grads = {n: np.empty(params[n].shape) for n in names}
    mdl.loss_gradients([(tokens, punct_ids, disf_ids)], config, params, [grads])

    h = 1e-5
    worst = 0.0
    checked = 0
    for name in names:
        g = grads[name].ravel()
        flat = params[name].data.ravel()
        for idx in range(flat.size):
            def probe(delta):
                data = params[name].data.copy()
                data.ravel()[idx] += delta
                shifted = params.copy()
                shifted[name] = nc.Tensor(data)
                return loss_at(shifted)
            fd = (probe(h) - probe(-h)) / (2 * h)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0)
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-4, f"{name}[{idx}]: fd={fd} ad={g[idx]}"
    _ok(f"3 gradient check: {checked} parameters, max relative error "
        f"{worst:.2e} < 1e-4")


# -------------------------------------------------------------------
# 4. toy-scale training reaches the synthetic F1 thresholds
# -------------------------------------------------------------------

def test_criterion_4_synthetic_training(travel_bundle):
    b = travel_bundle
    preds = [dec.tag_offline(seq.words, b.tagger) for seq in b.test]
    report = ev.score(preds, b.test, b.scheme)
    punct_f1 = report.punct_overall.f1
    im_f1 = report.disf["interregnum"].f1
    assert punct_f1 >= 0.90, f"punct overall F1 {punct_f1:.4f} < 0.90"
    assert im_f1 >= 0.90, f"interregnum F1 {im_f1:.4f} < 0.90"
    _ok(f"4 synthetic training: punct overall F1 {punct_f1:.4f}, "
        f"interregnum F1 {im_f1:.4f} (thresholds 0.90)")


# -------------------------------------------------------------------
# 5. fine-tuning from a pretrained checkpoint converges in at most half
#    the steps of a from-scratch run
# -------------------------------------------------------------------

def test_criterion_5_transfer_effect():
    scheme = dt.LabelScheme()
    pre_grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    ft_grammar = dt.GrammarConfig("travel-shifted", p_filler=0.15,
                                  p_repetition=0.10)
    pre_corpus = dt.synth_generate(10, 3000, pre_grammar)
    ft_corpus = dt.synth_generate(11, 400, ft_grammar)
    ft_dev = dt.synth_generate(12, 100, ft_grammar)
    vocab = dt.Vocabulary.from_corpus(pre_corpus + ft_corpus)
    config = mdl.ModelConfig(len(vocab), 32, 2, 2, 64, MaskSpec((0, 9)),
                             len(scheme.punct_labels), len(scheme.disf_labels))

    pretrained = tr.train(pre_corpus,
                          tr.TrainConfig(max_steps=1200, seed=3),
                          config, vocab, scheme)
    stop = (0.90, 0.90)
    finetune = tr.train(ft_corpus,
                        tr.TrainConfig(max_steps=2000, eval_every=25, seed=3),
                        config, vocab, scheme, dev=ft_dev,
                        init_params=pretrained.params, stop_dev_f1=stop)
    scratch = tr.train(ft_corpus,
                       tr.TrainConfig(max_steps=2000, eval_every=25, seed=3),
                       config, vocab, scheme, dev=ft_dev, stop_dev_f1=stop)
    ratio = finetune.steps_run / scratch.steps_run
    assert finetune.steps_run < 2000, "fine-tune never reached the threshold"
    assert scratch.steps_run < 2000, "scratch run never reached the threshold"
    assert ratio <= 0.5, (f"fine-tune {finetune.steps_run} vs scratch "
                          f"{scratch.steps_run} steps (ratio {ratio:.2f})")
    _ok(f"5 transfer effect: fine-tune {finetune.steps_run} steps vs scratch "
        f"{scratch.steps_run} (ratio {ratio:.2f} <= 0.5)")


# -------------------------------------------------------------------
# 6. streaming decoder emission schedule against hand-written traces
# -------------------------------------------------------------------

class _FifthWordStub:
    def tag(self, words):
        punct = ["PERIOD" if (i + 1) % 5 == 0 else "O"
                 for i in range(len(words))]
        return punct, ["O"] * len(words)


def test_criterion_6_stream_decoder_conformance():
    # 12-word stream against a stub that marks every 5th buffered word;
    # expected per-step emission counts plus the finish() flush count were
    # worked out by hand from the buffer arithmetic
    expected = {
        (1, 0): ([0, 0, 0, 0, 5, 0, 0, 0, 0, 5, 0, 0], 2),
        (1, 2): ([0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 5], 2),
        (1, 6): ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0], 7),
        (3, 0): ([0, 5, 0, 5], 2),
        (3, 2): ([0, 0, 5, 5], 2),
        (3, 6): ([0, 0, 0, 5], 7),
    }
    words = [f"w{i + 1}" for i in range(12)]
    for (frame, look), (counts, flush) in expected.items():
        tagger = _FifthWordStub()
        policy = dec.DecodePolicy(frame_rate=frame, lookahead_words=look)
        state = dec.StreamState()
        got = []
        for i in range(0, len(words), frame):
            got.append(len(dec.stream_step(state, words[i:i + frame],
                                           tagger, policy)))
        flushed = len(dec.finish(state, tagger))
        assert got == counts, f"F={frame} T={look}: {got} != {counts}"
        assert flushed == flush, f"F={frame} T={look} flush"
        assert [w for w, _, _ in state.emitted] == words
    _ok("6 stream decoder conformance: traces match for F in {1,3} x "
        "T in {0,2,6}, words conserved")


# -------------------------------------------------------------------
# 7. revision-distance histogram: bounded for the CT model, unbounded
#    for full attention on the late-cue stream set
# -------------------------------------------------------------------

def test_criterion_7_position_change_histogram(travel_bundle,
                                               adversarial_bundle):
    policy = dec.DecodePolicy(frame_rate=1, lookahead_words=10 ** 9)

    logs = []
    for seq in travel_bundle.test:
        _, state = dec.stream_decode(seq.words, travel_bundle.tagger, policy)
        logs.append(state.revision_log)
    ct_hist = ev.position_change_histogram(logs)
    assert max(ct_hist) <= 9, f"CT histogram has mass above 9: {ct_hist}"

    logs = []
    for seq in adversarial_bundle.test:
        _, state = dec.stream_decode(seq.words, adversarial_bundle.tagger,
                                     policy)
        logs.append(state.revision_log)
    full_hist = ev.position_change_histogram(logs)
    far = sum(c for d, c in full_hist.items() if d > 9)
    assert far > 0, f"full-attention histogram all within 9: {full_hist}"
    _ok(f"7 position-change histogram: CT max {max(ct_hist)} <= 9; "
        f"full attention has {far} streams beyond 9")


# -------------------------------------------------------------------
# 8. scorer against a brute-force counter
# -------------------------------------------------------------------

def test_criterion_8_evaluation_oracle():
    rng = random.Random(8)
    scheme = dt.LabelScheme()
    gold, pred = [], []
    for _ in range(1000):
        n = rng.randint(1, 12)
        words = [f"w{i}" for i in range(n)]
        gold.append(dt.TokenSequence(
            words, [rng.choice(scheme.punct_labels) for _ in range(n)],
            [rng.choice(scheme.disf_labels) for _ in range(n)],
            strict_bio=False))
        pred.append(dt.TokenSequence(
            words, [rng.choice(scheme.punct_labels) for _ in range(n)],
            [rng.choice(scheme.disf_labels) for _ in range(n)],
            strict_bio=False))
    report = ev.score(pred, gold, scheme)

    for lab in scheme.punct_labels[1:]:
        tp = fp = fn = 0
        for p, g in zip(pred, gold):
            for pp, gp in zip(p.punct, g.punct):
                tp += pp == lab and gp == lab
                fp += pp == lab and gp != lab
                fn += pp != lab and gp == lab
        s = report.punct[lab]
        assert (s.tp, s.fp, s.fn) == (tp, fp, fn), lab

    def kind(lab):
        return ("reparandum" if lab.endswith("RM")
                else "interregnum" if lab.endswith("IM") else None)

    for target in ("reparandum", "interregnum"):
        tp = fp = fn = 0
        for p, g in zip(pred, gold):
            for pd, gd in zip(p.disf, g.disf):
                ph, gh = kind(pd) == target, kind(gd) == target
                tp += ph and gh
                fp += ph and not gh
                fn += gh and not ph
        s = report.disf[target]
        assert (s.tp, s.fp, s.fn) == (tp, fp, fn), target
    _ok("8 evaluation oracle: exact TP/FP/FN match on 1000 random pairs")


# -------------------------------------------------------------------
# 9. streaming decode beats no-truncation rescoring on a 50k-word stream
# -------------------------------------------------------------------

def test_criterion_9_throughput(travel_bundle):
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    words = []
    seed = 900
    while len(words) < 50_000:
        for seq in dt.synth_generate(seed, 2000, grammar):
            words.extend(seq.words)
        seed += 1
    words = words[:50_000]

    policy = dec.DecodePolicy(frame_rate=3, lookahead_words=6)
    stream_seconds, _ = ev.bench_streaming(travel_bundle.tagger, words,
                                           policy, runs=5)
    # the rescoring baseline never truncates, so its buffer outgrows the
    # position cap sized for streaming; give it the same parameters with a
    # cap large enough for the whole stream
    import dataclasses
    wide_config = dataclasses.replace(travel_bundle.config,
                                      max_positions=len(words) + 1)
    wide_tagger = dec.ModelTagger(wide_config, travel_bundle.params,
                                  travel_bundle.vocab, travel_bundle.scheme)
    # the baseline's per-step cost grows with the whole history; cap each
    # run at the streaming median -- an aborted run already proves it is
    # the slower decoder
    rescore_seconds, completed = ev.bench_rescore(
        wide_tagger, words, frame_rate=3, runs=5,
        budget_seconds=stream_seconds)
    assert stream_seconds < rescore_seconds, (
        f"streaming {stream_seconds:.2f}s not faster than "
        f"rescoring {rescore_seconds:.2f}s")
    suffix = "" if completed else " (aborted at budget, a lower bound)"
    _ok(f"9 throughput: streaming {stream_seconds:.2f}s "
        f"({len(words) / stream_seconds:.0f} w/s) < rescoring "
        f"{rescore_seconds:.2f}s{suffix}")
