"""Token-based P/R/F1, the punctuation position-change histogram, timing.

Punctuation is scored per token over the non-O classes; the overall score is
the micro-average from pooled counts. Disfluency is scored per token over
reparandum membership, interregnum membership, and their union ("either"),
derived from the BIO tags.
"""

import time
from collections import Counter
from dataclasses import dataclass

from .decoding import rescore_decode, stream_decode


class EvalError(ValueError):
    pass


@dataclass
class Scores:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self):
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self):
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    punct: dict                 # label -> Scores (non-O classes)
    punct_overall: Scores       # micro-average from pooled counts
    disf: dict                  # interregnum / reparandum / either -> Scores


def _disf_kind(label):
    if label.endswith("RM"):
        return "reparandum"
    if label.endswith("IM"):
        return "interregnum"
    return None


def _scores(pairs, classes, kind=lambda label: label):
    """{class: Scores} for `classes` from a Counter of (predicted, gold)
    labels, each read as the class `kind(label)`: a pair of one class is its
    true positive, any other a false positive of the predicted class and a
    false negative of the gold one."""
    scores = {c: Scores() for c in classes}
    unscored = Scores()
    for (p, g), n in pairs.items():
        p, g = kind(p), kind(g)
        if p == g:
            scores.get(p, unscored).tp += n
        else:
            scores.get(p, unscored).fp += n
            scores.get(g, unscored).fn += n
    return scores


def score(pred, gold, scheme):
    """Compare aligned predicted and gold sequences; returns an EvalReport.

    Raises EvalError on an unlabeled utterance or a label outside `scheme`.
    """
    if len(pred) != len(gold):
        raise EvalError(f"{len(pred)} predicted vs {len(gold)} gold sequences")
    punct_pairs, disf_pairs = Counter(), Counter()
    for idx, (p, g) in enumerate(zip(pred, gold)):
        for side, seq in (("predicted", p), ("gold", g)):
            if problem := scheme.label_problem(seq):
                raise EvalError(f"{side} utterance {idx} {problem}")
        if len(p.words) != len(g.words):
            raise EvalError(
                f"utterance {idx}: {len(p.words)} predicted vs "
                f"{len(g.words)} gold tokens")
        punct_pairs.update(zip(p.punct, g.punct))
        disf_pairs.update(zip(p.disf, g.disf))
    punct = _scores(punct_pairs, [lab for lab in scheme.punct_labels if lab != "O"])
    disf = _scores(disf_pairs, ("interregnum", "reparandum"), _disf_kind)
    disf |= _scores(disf_pairs, ("either",),
                    lambda label: _disf_kind(label) and "either")
    overall = Scores(tp=sum(s.tp for s in punct.values()),
                     fp=sum(s.fp for s in punct.values()),
                     fn=sum(s.fn for s in punct.values()))
    return EvalReport(punct, overall, disf)


def _report_rows(report):
    """(table name, dump key, Scores): punct classes, OVERALL, disf kinds."""
    for lab, s in report.punct.items():
        yield lab, f"punct.{lab}", s
    yield "OVERALL", "punct.overall", report.punct_overall
    for kind, s in report.disf.items():
        yield kind, f"disf.{kind}", s


def format_report(report):
    lines = ["class           P       R       F1"]
    for name, _, s in _report_rows(report):
        lines.append(f"{name:<12}{s.precision:8.4f}{s.recall:8.4f}{s.f1:8.4f}")
    return "\n".join(lines)


def report_keyvalues(report):
    """Flat machine-readable key=value dump."""
    kv = {}
    for _, key, s in _report_rows(report):
        kv[f"{key}.p"] = s.precision
        kv[f"{key}.r"] = s.recall
        kv[f"{key}.f1"] = s.f1
    return kv


def position_change_histogram(revision_logs):
    """{largest revision distance: number of streams}, a stream's distance
    being the largest end - position in its revision log (0 if none)."""
    hist = {}
    for log in revision_logs:
        d = max((end - pos for end, pos in log), default=0)
        hist[d] = hist.get(d, 0) + 1
    return hist


def _median(times):
    """The median run time, the upper median for an even count."""
    return sorted(times)[len(times) // 2]


def bench_streaming(tagger, words, policy, runs):
    """Median-of-runs wall time for streaming decode; warm-up pass first.

    Returns (median seconds, revision log of the last run). Timing covers
    inference only; the input is already in memory. An empty word list
    raises ValueError.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if not words:
        raise ValueError("bench_streaming: empty word list")
    stream_decode(words[:min(len(words), 50)], tagger, policy)  # warm-up
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _, state = stream_decode(words, tagger, policy)
        times.append(time.perf_counter() - t0)
    return _median(times), state.revision_log


def bench_rescore(tagger, words, frame_rate, runs, budget_seconds=None):
    """Median-of-runs wall time for the no-truncation rescoring baseline:
    (median seconds, whether every run completed).

    Each run may be aborted once it exceeds `budget_seconds`; an aborted
    run's time is a strict lower bound on its true cost, so comparisons that
    the baseline loses are still decided correctly.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    times = []
    completed = True
    for _ in range(runs):
        t0 = time.perf_counter()
        deadline = None if budget_seconds is None else t0 + budget_seconds
        _, done = rescore_decode(words, tagger, frame_rate, deadline=deadline)
        times.append(time.perf_counter() - t0)
        completed = completed and done
    return _median(times), completed
