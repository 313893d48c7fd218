import time
from dataclasses import fields
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bundle, small_config
from puncstream import decoding as dec
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream.data import LabelScheme, Vocabulary
from puncstream.masks import effective_lookahead


class FifthWordStub:
    """Deterministic stand-in: every 5th buffered word gets a PERIOD."""

    def __init__(self, every=5):
        self.every = every

    def tag(self, words):
        punct = ["PERIOD" if (i + 1) % self.every == 0 else "O"
                 for i in range(len(words))]
        return punct, ["O"] * len(words)


def _trace(n_words, frame_rate, lookahead):
    """Run n words through the stream; returns per-step emission counts plus
    the final flush count."""
    words = [f"w{i + 1}" for i in range(n_words)]
    tagger = FifthWordStub()
    policy = dec.DecodePolicy(frame_rate=frame_rate, lookahead_words=lookahead)
    state = dec.StreamState()
    counts = []
    for i in range(0, n_words, frame_rate):
        out = dec.stream_step(state, words[i:i + frame_rate], tagger, policy)
        counts.append(len(out))
    flushed = dec.finish(state, tagger)
    assert [w for w, _, _ in state.emitted] == words
    return counts, len(flushed)


def test_trace_frame1_threshold0():
    counts, flushed = _trace(12, 1, 0)
    assert counts == [0, 0, 0, 0, 5, 0, 0, 0, 0, 5, 0, 0]
    assert flushed == 2


def test_trace_frame1_threshold2():
    counts, flushed = _trace(12, 1, 2)
    assert counts == [0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 5]
    assert flushed == 2


def test_trace_frame1_threshold6():
    counts, flushed = _trace(12, 1, 6)
    assert counts == [0] * 10 + [5, 0]
    assert flushed == 7


def test_trace_frame3_threshold0():
    counts, flushed = _trace(12, 3, 0)
    assert counts == [0, 5, 0, 5]
    assert flushed == 2


def test_trace_frame3_threshold2():
    counts, flushed = _trace(12, 3, 2)
    assert counts == [0, 0, 5, 5]
    assert flushed == 2


def test_trace_frame3_threshold6():
    counts, flushed = _trace(12, 3, 6)
    assert counts == [0, 0, 0, 5]
    assert flushed == 7


def test_emitted_sentence_ends_at_its_only_mark():
    words = [f"w{i}" for i in range(20)]
    tagger = FifthWordStub(every=2)
    policy = dec.DecodePolicy(frame_rate=3, lookahead_words=0)
    state = dec.StreamState()
    for i in range(0, len(words), 3):
        out = dec.stream_step(state, words[i:i + 3], tagger, policy)
        if out:
            # one sentence per step, mark exactly at its last word
            marks = [p for _, p, _ in out if p in policy.eos_labels]
            assert marks == [out[-1][1]]
    dec.finish(state, tagger)


def test_stream_conserves_words_and_order():
    words = [f"w{i}" for i in range(37)]
    emitted, state = dec.stream_decode(words, FifthWordStub(),
                                       dec.DecodePolicy(3, 6))
    assert [w for w, _, _ in emitted] == words
    assert state.offset + len(state.buffer_words) == len(words)
    assert state.finished


def test_emitted_triples_are_frozen():
    words = [f"w{i}" for i in range(30)]
    tagger = FifthWordStub()
    policy = dec.DecodePolicy(frame_rate=1, lookahead_words=0)
    state = dec.StreamState()
    snapshots = []
    for i in range(0, len(words), 1):
        dec.stream_step(state, words[i:i + 1], tagger, policy)
        snapshots.append(list(state.emitted))
    dec.finish(state, tagger)
    for snap in snapshots:
        assert state.emitted[:len(snap)] == snap


def test_stream_step_contract_violations():
    state = dec.StreamState()
    policy = dec.DecodePolicy(frame_rate=2, lookahead_words=0)
    tagger = FifthWordStub()
    with pytest.raises(dec.StreamError, match="1..2"):
        dec.stream_step(state, [], tagger, policy)
    with pytest.raises(dec.StreamError, match="1..2"):
        dec.stream_step(state, ["a", "b", "c"], tagger, policy)
    dec.finish(state, tagger)
    with pytest.raises(dec.StreamError, match="after finish"):
        dec.stream_step(state, ["a"], tagger, policy)
    with pytest.raises(dec.StreamError, match="twice"):
        dec.finish(state, tagger)


def test_stream_frames_matches_step_by_step_calls():
    words = [f"w{i + 1}" for i in range(12)]
    policy = dec.DecodePolicy(frame_rate=5, lookahead_words=1)
    tagger = FifthWordStub()
    ref = dec.StreamState()
    expected = [dec.stream_step(ref, words[i:i + 5], tagger, policy)
                for i in range(0, len(words), 5)]
    expected.append(dec.finish(ref, tagger))
    state = dec.StreamState()
    assert list(dec.stream_frames(state, iter(words), tagger, policy)) == expected
    assert state.emitted == ref.emitted
    assert state.revision_log == ref.revision_log
    assert state.finished


def test_stream_frames_steps_before_the_input_ends():
    drawn = []

    def live_words():
        for i in range(100):
            drawn.append(i)
            yield f"w{i + 1}"

    policy = dec.DecodePolicy(frame_rate=3, lookahead_words=0)
    frames = dec.stream_frames(dec.StreamState(), live_words(),
                               FifthWordStub(), policy)
    assert next(frames) == []
    assert len(drawn) == 3
    assert [w for w, _, _ in next(frames)] == ["w1", "w2", "w3", "w4", "w5"]
    assert len(drawn) == 6


def test_eos_labels_is_a_class_constant():
    assert "eos_labels" not in {f.name for f in fields(dec.DecodePolicy)}
    assert dec.DecodePolicy(2, 1).eos_labels == ("PERIOD", "QUESTION")


def test_policy_validation():
    with pytest.raises(ValueError):
        dec.DecodePolicy(frame_rate=0)
    with pytest.raises(ValueError):
        dec.DecodePolicy(lookahead_words=-1)


def test_infinite_threshold_stream_equals_offline():
    # with an unreachable emission threshold everything is flushed at finish
    # after one final full-buffer inference, so the stream output must match
    # offline tagging exactly -- for any model
    bundle = random_bundle(small_config(lookahead=(0, 9)), seed=20)
    words = [f"w{i % 10}" for i in range(23)]
    offline = dec.tag_offline(words, bundle.tagger)
    emitted, _ = dec.stream_decode(
        words, bundle.tagger, dec.DecodePolicy(3, 10 ** 9))
    assert [p for _, p, _ in emitted] == offline.punct
    assert [d for _, _, d in emitted] == offline.disf


def test_revisions_bounded_by_mask_budget_at_frame_rate_one():
    bundle = random_bundle(small_config(lookahead=(0, 4)), seed=21)
    horizon = effective_lookahead(bundle.config.mask_spec)
    words = [f"w{(i * 7) % 10}" for i in range(60)]
    _, state = dec.stream_decode(
        words, bundle.tagger, dec.DecodePolicy(1, 10 ** 9))
    assert state.revision_log  # the stub-free model does revise something
    for end, pos in state.revision_log:
        assert end - pos <= horizon


def test_tag_offline_empty_rejected():
    with pytest.raises(ValueError):
        dec.tag_offline([], FifthWordStub())


def test_rescore_short_stream_matches_offline():
    bundle = random_bundle(small_config(), seed=22)
    words = [f"w{i % 8}" for i in range(17)]
    triples, completed = dec.rescore_decode(words, bundle.tagger, frame_rate=3)
    assert completed
    offline = dec.tag_offline(words, bundle.tagger)
    assert [w for w, _, _ in triples] == words
    assert [p for _, p, _ in triples] == offline.punct


def test_rescore_deadline_abort():
    triples, completed = dec.rescore_decode(
        ["a"] * 9, FifthWordStub(), frame_rate=3,
        deadline=time.perf_counter() - 1.0)
    assert triples == [] and not completed


# ---------------------------------------------------------------------------
# ModelTagger: parameters checked and unpacked once, when it is built
# ---------------------------------------------------------------------------

def test_model_tagger_refuses_a_wrongly_shaped_tensor_when_built():
    bundle = random_bundle(small_config())
    bad = bundle.params.copy()
    bad["layer0.wo"] = nc.Tensor(np.zeros((8, 7)))
    with pytest.raises(nc.ShapeMismatchError, match="layer0.wo"):
        dec.ModelTagger(bundle.config, bad, bundle.vocab, bundle.scheme)


def test_model_tagger_keeps_the_parameters_it_was_built_with():
    bundle = random_bundle(small_config(), seed=23)
    words = [f"w{i % 10}" for i in range(9)]
    before = bundle.tagger.tag(words)
    for name, t in list(bundle.params.items()):
        bundle.params[name] = nc.Tensor(np.zeros(t.shape))
    assert bundle.tagger.tag(words) == before
    rebuilt = dec.ModelTagger(bundle.config, bundle.params, bundle.vocab,
                              bundle.scheme)
    assert rebuilt.tag(words) == (["O"] * 9, ["O"] * 9)  # all-zero logits


def test_model_tagger_refuses_long_input_and_ids_outside_the_model():
    bundle = random_bundle(small_config(max_positions=10))
    assert len(bundle.tagger.tag(["w1"] * 10)[0]) == 10
    with pytest.raises(mdl.LengthError, match="max_positions 10"):
        bundle.tagger.tag(["w1"] * 11)
    # a vocabulary larger than the model's would map words to ids it has no
    # row for, so the tagger refuses it when built
    wide = Vocabulary([f"w{i}" for i in range(20)])
    with pytest.raises(nc.ShapeMismatchError,
                       match=r"sizes \(22, 4, 5\) do not fit .* \(12, 4, 5\)"):
        dec.ModelTagger(bundle.config, bundle.params, wide, bundle.scheme)


def test_model_tagger_refuses_labels_that_do_not_fit_the_heads():
    bundle = random_bundle(small_config())
    narrow = Vocabulary([f"w{i}" for i in range(4)])   # smaller is fine
    assert dec.ModelTagger(bundle.config, bundle.params, narrow,
                           bundle.scheme).tag(["w1", "w9"])
    for scheme in (LabelScheme(punct_labels=("O", "COMMA", "PERIOD")),
                   LabelScheme(disf_labels=("O", "B-RM", "I-RM", "B-IM",
                                            "I-IM", "B-XX"))):
        with pytest.raises(nc.ShapeMismatchError, match="label counts"):
            dec.ModelTagger(bundle.config, bundle.params, bundle.vocab, scheme)


# ---------------------------------------------------------------------------
# stream properties over generated word streams
# ---------------------------------------------------------------------------

class ContextStub:
    """Deterministic tagger that looks one word ahead, so the stream revises
    its labels: "stop" ends a sentence unless "and" follows it, with a
    QUESTION if "eh" follows and a PERIOD otherwise; "um" is an
    interregnum."""

    def tag(self, words):
        punct = []
        for w, nxt in zip(words, words[1:] + [None]):
            if w != "stop" or nxt == "and":
                punct.append("O")
            else:
                punct.append("QUESTION" if nxt == "eh" else "PERIOD")
        return punct, ["B-IM" if w == "um" else "O" for w in words]


_WORDS = st.lists(st.sampled_from(["a", "stop", "and", "eh", "um"]), max_size=80)


@settings(max_examples=100, deadline=None)
@given(words=_WORDS, frame_rate=st.integers(1, 5),
       lookahead=st.integers(0, 8), data=st.data())
def test_stream_emissions_are_final_and_keep_their_promise(
        words, frame_rate, lookahead, data):
    policy = dec.DecodePolicy(frame_rate, lookahead)
    tagger = ContextStub()
    state = dec.StreamState()
    fed = 0
    previous = []
    while fed < len(words):
        size = data.draw(st.integers(1, min(frame_rate, len(words) - fed)))
        out = dec.stream_step(state, words[fed:fed + size], tagger, policy)
        fed += size
        assert state.emitted[:len(previous)] == previous
        assert state.emitted[len(previous):] == out
        if out:
            assert out[-1][1] in policy.eos_labels
            assert fed - len(state.emitted) >= policy.lookahead_words
        previous = list(state.emitted)
    tail = dec.finish(state, tagger)
    assert state.emitted == previous + tail
    assert [w for w, _, _ in state.emitted] == words


@settings(max_examples=100, deadline=None)
@given(words=_WORDS, frame_rate=st.integers(1, 5), lookahead=st.integers(0, 8))
def test_stream_frames_equals_step_by_step_calls_on_any_stream(
        words, frame_rate, lookahead):
    policy = dec.DecodePolicy(frame_rate, lookahead)
    tagger = ContextStub()
    ref = dec.StreamState()
    expected = [dec.stream_step(ref, words[i:i + frame_rate], tagger, policy)
                for i in range(0, len(words), frame_rate)]
    expected.append(dec.finish(ref, tagger))
    state = dec.StreamState()
    assert list(dec.stream_frames(state, iter(words), tagger, policy)) == expected
    assert state.emitted == ref.emitted
    assert state.revision_log == ref.revision_log


# ---------------------------------------------------------------------------
# the buffer cap: a tagger's max_positions bounds every buffer it tags
# ---------------------------------------------------------------------------

class NeverEndsStub:
    """Tags every word O, so no sentence ever ends, and records the length
    of every input; accepts at most `max_positions` words."""

    def __init__(self, max_positions=10):
        self.max_positions = max_positions
        self.sizes = []

    def tag(self, words):
        assert len(words) <= self.max_positions
        self.sizes.append(len(words))
        return ["O"] * len(words), ["O"] * len(words)


def test_buffer_at_the_cap_freezes_all_but_the_lookahead_words():
    tagger = NeverEndsStub(max_positions=10)
    words = [f"w{i}" for i in range(21)]
    policy = dec.DecodePolicy(frame_rate=3, lookahead_words=4)
    state = dec.StreamState()
    counts = [len(dec.stream_step(state, words[i:i + 3], tagger, policy))
              for i in range(0, len(words), 3)]
    # the buffer reaches 9 and 10 words; each time the next frame could push
    # it past 10, all but its last 4 words are frozen
    assert counts == [0, 0, 5, 0, 6, 0, 6]
    assert len(dec.finish(state, tagger)) == 4
    assert tagger.sizes == [3, 6, 9, 7, 10, 7, 10, 4]
    assert [w for w, _, _ in state.emitted] == words


def test_cap_keeps_at_most_cap_minus_frame_rate_words():
    tagger = NeverEndsStub(max_positions=10)
    emitted, _ = dec.stream_decode([f"w{i}" for i in range(40)], tagger,
                                   dec.DecodePolicy(frame_rate=4,
                                                    lookahead_words=50))
    assert len(emitted) == 40
    assert max(tagger.sizes) == 10
    assert tagger.sizes[2:4] == [10, 10]     # 6 kept words plus a frame of 4


def test_frame_rate_above_the_cap_is_refused_before_any_word_is_taken():
    state = dec.StreamState()
    with pytest.raises(dec.StreamError,
                       match="frame_rate 11 exceeds the tagger's max_positions 10"):
        dec.stream_step(state, ["a"], NeverEndsStub(10), dec.DecodePolicy(11, 0))
    assert state.buffer_words == [] and state.emitted == []
    assert dec.stream_decode(["a"] * 25, NeverEndsStub(10),
                             dec.DecodePolicy(10, 0))[0] == [("a", "O", "O")] * 25


def test_tag_offline_streams_input_longer_than_max_positions():
    bundle = random_bundle(small_config(max_positions=16), seed=24)
    words = [f"w{i % 10}" for i in range(16)]
    fits = dec.tag_offline(words, bundle.tagger)
    assert (fits.punct, fits.disf) == bundle.tagger.tag(words)
    words = [f"w{(i * 3) % 11}" for i in range(50)]
    out = dec.tag_offline(words, bundle.tagger)
    emitted, _ = dec.stream_decode(words, bundle.tagger, dec.DecodePolicy())
    assert list(zip(out.words, out.punct, out.disf)) == emitted
    assert out.words == words


@pytest.mark.parametrize("cap", [1, 2])
def test_tag_offline_streams_past_a_cap_below_the_default_frame_rate(cap):
    # the default frame rate, 3, exceeds these caps; tag_offline streams
    # with a frame rate of `cap` instead of raising StreamError
    tagger = random_bundle(small_config(max_positions=cap), seed=25).tagger
    words = ["w1"] * 5
    out = dec.tag_offline(words, tagger)
    emitted, _ = dec.stream_decode(words, tagger, dec.DecodePolicy(frame_rate=cap))
    assert out.words == words
    assert list(zip(out.words, out.punct, out.disf)) == emitted


class RecordingTagger:
    """Passes `tag` on to a tagger and records the longest input."""

    def __init__(self, tagger):
        self.tagger = tagger
        self.max_positions = tagger.max_positions
        self.longest = 0

    def tag(self, words):
        self.longest = max(self.longest, len(words))
        return self.tagger.tag(words)


@cache
def _capped_model(cap):
    return random_bundle(small_config(max_positions=cap), seed=cap).tagger


# long filler runs, in-vocabulary words and out-of-vocabulary words
_SEGMENTS = st.lists(st.one_of(
    st.integers(1, 70).map(lambda k: ["um"] * k),
    st.lists(st.sampled_from(["w1", "w4", "w7", "w9", "boston", "zebra"]),
             min_size=1, max_size=10)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(segments=_SEGMENTS, cap=st.integers(16, 24), data=st.data())
def test_real_model_stream_stays_within_the_cap(segments, cap, data):
    words = [w for segment in segments for w in segment]
    frame_rate = data.draw(st.integers(1, cap), label="frame_rate")
    lookahead = data.draw(st.integers(0, 2 * cap), label="lookahead")
    policy = dec.DecodePolicy(frame_rate, lookahead)
    tagger = RecordingTagger(_capped_model(cap))
    state = dec.StreamState()
    fed = 0
    while fed < len(words):
        size = data.draw(st.integers(1, min(frame_rate, len(words) - fed)))
        start = len(state.emitted)
        dec.stream_step(state, words[fed:fed + size], tagger, policy)
        fed += size
        # no frozen word waited for more than cap words
        assert all(fed - j <= cap for j in range(start, len(state.emitted)))
        assert len(state.buffer_words) + frame_rate <= cap
    dec.finish(state, tagger)
    assert tagger.longest <= cap
    assert [w for w, _, _ in state.emitted] == words
