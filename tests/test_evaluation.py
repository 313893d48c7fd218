import random

import pytest

from puncstream import data as dt
from puncstream import evaluation as ev
from puncstream.decoding import DecodePolicy


def _seq(punct, disf=None):
    n = len(punct)
    return dt.TokenSequence([f"w{i}" for i in range(n)], list(punct),
                            list(disf) if disf else ["O"] * n,
                            strict_bio=False)


def test_perfect_prediction_scores_one():
    gold = [_seq(["O", "COMMA", "PERIOD"], ["B-IM", "O", "O"]),
            _seq(["O", "QUESTION"], ["O", "O"])]
    report = ev.score(gold, gold, dt.LabelScheme())
    for s in list(report.punct.values()) + [report.punct_overall]:
        if s.tp:
            assert s.precision == s.recall == s.f1 == 1.0
    assert report.disf["interregnum"].f1 == 1.0
    assert report.disf["either"].f1 == 1.0


def test_hand_counted_comma_example():
    gold = [_seq(["PERIOD", "O", "COMMA"])]
    pred = [_seq(["PERIOD", "COMMA", "COMMA"])]
    report = ev.score(pred, gold, dt.LabelScheme())
    comma = report.punct["COMMA"]
    assert (comma.tp, comma.fp, comma.fn) == (1, 1, 0)
    assert comma.precision == 0.5
    assert comma.recall == 1.0
    assert abs(comma.f1 - 2 / 3) < 1e-12
    overall = report.punct_overall
    assert (overall.tp, overall.fp, overall.fn) == (2, 1, 0)
    assert abs(overall.precision - 2 / 3) < 1e-12
    assert overall.recall == 1.0


def test_all_o_prediction_has_zero_f1_without_division_errors():
    gold = [_seq(["COMMA", "PERIOD"], ["B-RM", "O"])]
    pred = [_seq(["O", "O"], ["O", "O"])]
    report = ev.score(pred, gold, dt.LabelScheme())
    assert report.punct_overall.f1 == 0.0
    assert report.punct_overall.precision == 0.0
    assert report.disf["reparandum"].f1 == 0.0
    assert report.disf["either"].f1 == 0.0


def test_reparandum_and_interregnum_counted_separately():
    gold = [_seq(["O", "O", "O"], ["B-RM", "B-IM", "O"])]
    pred = [_seq(["O", "O", "O"], ["B-IM", "B-IM", "O"])]
    report = ev.score(pred, gold, dt.LabelScheme())
    assert (report.disf["reparandum"].tp, report.disf["reparandum"].fn) == (0, 1)
    assert (report.disf["interregnum"].tp, report.disf["interregnum"].fp) == (1, 1)
    # the union ignores the RM/IM confusion: both tokens are disfluent
    assert report.disf["either"].f1 == 1.0


def test_micro_average_pools_counts_across_utterances():
    gold = [_seq(["PERIOD"]), _seq(["COMMA", "PERIOD"])]
    pred = [_seq(["QUESTION"]), _seq(["COMMA", "PERIOD"])]
    report = ev.score(pred, gold, dt.LabelScheme())
    o = report.punct_overall
    assert (o.tp, o.fp, o.fn) == (2, 1, 1)


def test_score_is_permutation_invariant():
    rng = random.Random(0)
    scheme = dt.LabelScheme()
    gold, pred = [], []
    for _ in range(30):
        n = rng.randint(1, 8)
        gold.append(_seq([rng.choice(scheme.punct_labels) for _ in range(n)],
                         [rng.choice(scheme.disf_labels) for _ in range(n)]))
        pred.append(_seq([rng.choice(scheme.punct_labels) for _ in range(n)],
                         [rng.choice(scheme.disf_labels) for _ in range(n)]))
    base = ev.report_keyvalues(ev.score(pred, gold, scheme))
    order = list(range(30))
    rng.shuffle(order)
    shuffled = ev.report_keyvalues(
        ev.score([pred[i] for i in order], [gold[i] for i in order], scheme))
    assert base == shuffled


def test_score_against_brute_force_counter():
    rng = random.Random(1)
    scheme = dt.LabelScheme()
    gold, pred = [], []
    for _ in range(50):
        n = rng.randint(1, 10)
        for seqs in (gold, pred):
            seqs.append(_seq([rng.choice(scheme.punct_labels) for _ in range(n)],
                             [rng.choice(scheme.disf_labels) for _ in range(n)]))
    report = ev.score(pred, gold, scheme)

    def brute_force(row, hit):
        tp = fp = fn = 0
        for p, g in zip(pred, gold):
            for pl, gl in zip(getattr(p, row), getattr(g, row)):
                tp += hit(pl) and hit(gl)
                fp += hit(pl) and not hit(gl)
                fn += hit(gl) and not hit(pl)
        return tp, fp, fn

    overall = [0, 0, 0]
    for lab in ("COMMA", "PERIOD", "QUESTION"):
        s = report.punct[lab]
        counts = brute_force("punct", lambda label: label == lab)
        assert (s.tp, s.fp, s.fn) == counts
        overall = [a + b for a, b in zip(overall, counts)]
    o = report.punct_overall
    assert [o.tp, o.fp, o.fn] == overall
    for kind, hit in (("interregnum", lambda label: label.endswith("IM")),
                      ("reparandum", lambda label: label.endswith("RM")),
                      ("either", lambda label: label != "O")):
        s = report.disf[kind]
        assert (s.tp, s.fp, s.fn) == brute_force("disf", hit)
    assert report.disf["either"].tp > 0 and report.disf["reparandum"].fp > 0


def test_length_mismatch_rejected():
    scheme = dt.LabelScheme()
    with pytest.raises(ev.EvalError, match="sequences"):
        ev.score([_seq(["O"])], [], scheme)
    with pytest.raises(ev.EvalError, match="tokens"):
        ev.score([_seq(["O"])], [_seq(["O", "O"])], scheme)


def test_predicted_words_that_differ_from_gold_rejected():
    gold = [_seq(["PERIOD"]), dt.TokenSequence(["i", "want"], ["O", "PERIOD"], ["O", "O"])]
    pred = [_seq(["PERIOD"]), dt.TokenSequence(["i", "wont"], ["O", "PERIOD"], ["O", "O"])]
    with pytest.raises(ev.EvalError) as info:
        ev.score(pred, gold, dt.LabelScheme())
    assert str(info.value) == "utterance 1 token 1: predicted word 'wont' vs gold 'want'"


def test_format_report_contains_overall_row():
    gold = [_seq(["PERIOD"])]
    text = ev.format_report(ev.score(gold, gold, dt.LabelScheme()))
    assert "OVERALL" in text
    assert "1.0000" in text


def test_max_position_change():
    # a stream's distance is the largest end - position in its log, 0 if none
    assert ev.position_change_histogram([[]]) == {0: 1}
    assert ev.position_change_histogram([[(10, 8), (20, 5)]]) == {15: 1}


def test_position_change_histogram():
    logs = [[], [(7, 7)], [(9, 4), (12, 10)]]
    hist = ev.position_change_histogram(logs)
    assert hist == {0: 2, 5: 1}
    assert sum(hist.values()) == len(logs)


def test_bench_streaming_scales_with_input():
    class SleepStub:
        # cost proportional to buffer length, like a real per-token model;
        # marks every 5th word so the buffer stays bounded and total time
        # stays linear in stream length
        def tag(self, words):
            x = 0.0
            for _ in range(len(words) * 500):
                x += 1.0
            punct = ["PERIOD" if (i + 1) % 5 == 0 else "O"
                     for i in range(len(words))]
            return punct, ["O"] * len(words)

    policy = DecodePolicy(frame_rate=1, lookahead_words=0)
    words = ["w"] * 300
    short, _ = ev.bench_streaming(SleepStub(), words, policy, runs=3)
    long, _ = ev.bench_streaming(SleepStub(), words * 2, policy, runs=3)
    assert short > 0
    assert len(words * 2) / long > 0
    # doubling the stream should roughly double the time (generous margin
    # because the work per call is tiny)
    ratio = long / short
    assert 1.3 < ratio < 3.5


def test_bench_rescore_reports_incomplete_on_tiny_budget():
    class Slow:
        def tag(self, words):
            import time
            time.sleep(0.01)
            return ["O"] * len(words), ["O"] * len(words)

    seconds, completed = ev.bench_rescore(Slow(), ["w"] * 30, frame_rate=1,
                                          runs=1, budget_seconds=0.001)
    assert not completed
    assert seconds >= 0.001


@pytest.mark.parametrize("runs", [0, -1])
def test_bench_rejects_fewer_than_one_run(runs):
    class NeverCalled:
        def tag(self, words):
            raise AssertionError("bench ran before checking runs")

    with pytest.raises(ValueError, match="runs must be >= 1"):
        ev.bench_streaming(NeverCalled(), ["w"] * 3, DecodePolicy(), runs=runs)
    with pytest.raises(ValueError, match="runs must be >= 1"):
        ev.bench_rescore(NeverCalled(), ["w"] * 3, frame_rate=1, runs=runs)


def test_bench_streaming_rejects_an_empty_word_list():
    class NeverCalled:
        def tag(self, words):
            raise AssertionError("bench ran on no words")

    with pytest.raises(ValueError, match="empty word list"):
        ev.bench_streaming(NeverCalled(), [], DecodePolicy(), runs=1)
