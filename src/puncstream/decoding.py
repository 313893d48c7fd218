"""Offline tagging, the streaming decoder, and a rescoring baseline.

The streaming decoder keeps an input buffer, re-tags it after every arrival
of up to `frame_rate` new words, and freezes a sentence once at least
`lookahead_words` words have arrived after its first end-of-sentence mark.
A tagger's `max_positions`, where it has one, caps the buffer. Emitted
triples are final and never revised.
"""

import time
from dataclasses import dataclass, field
from itertools import islice

from .data import TokenSequence
from .model import ModelParams, predict, unpack_params
from .numcore import ShapeMismatchError


class StreamError(RuntimeError):
    pass


@dataclass(frozen=True)
class DecodePolicy:
    frame_rate: int = 3
    lookahead_words: int = 6
    eos_labels = ("PERIOD", "QUESTION")  # class constant, not a field

    def __post_init__(self):
        if self.frame_rate < 1:
            raise ValueError("frame_rate must be >= 1")
        if self.lookahead_words < 0:
            raise ValueError("lookahead_words must be >= 0")


class ModelTagger:
    """Adapts a trained model to the word-in, labels-out tagger interface.

    The parameters are checked against the config once, here
    (model.unpack_params), and the tagger keeps a copy of their vector for
    that config, so `tag` runs the encoder's kernels on its arrays with no
    further check, and a later assignment to `params` does not reach it;
    build a new tagger instead.
    A vocabulary or label scheme that does not fit the model is refused.
    `max_positions`, the longest input `tag` accepts, caps stream buffers.
    """

    def __init__(self, config, params, vocab, scheme):
        sizes = (len(vocab), len(scheme.punct_labels), len(scheme.disf_labels))
        fits = (config.vocab_size, config.punct_label_count, config.disf_label_count)
        if sizes[0] > fits[0] or sizes[1:] != fits[1:]:
            raise ShapeMismatchError(
                f"vocabulary and label sizes {sizes} do not fit the model's "
                f"vocab_size and punct and disf label counts {fits}")
        self.config = config
        self.params = ModelParams(config, unpack_params(config, params).vector.copy())
        self.vocab = vocab
        self.scheme = scheme
        self.max_positions = config.max_positions

    def tag(self, words):
        ids = [self.vocab.id_of(w) for w in words]
        punct_ids, disf_ids = predict(ids, self.config, self.params)
        return ([self.scheme.punct_labels[i] for i in punct_ids],
                [self.scheme.disf_labels[i] for i in disf_ids])


def tag_offline(words, tagger):
    """Single inference over the whole sequence; input longer than the
    tagger's `max_positions` goes through the stream decoder instead, with
    the default DecodePolicy but a frame rate of at most `max_positions`."""
    words = list(words)
    if not words:
        raise ValueError("tag_offline: empty input")
    cap = getattr(tagger, "max_positions", float("inf"))
    if len(words) <= cap:
        punct, disf = tagger.tag(words)
    else:
        policy = DecodePolicy(frame_rate=min(DecodePolicy.frame_rate, cap))
        emitted, _ = stream_decode(words, tagger, policy)
        _, punct, disf = zip(*emitted)
    return TokenSequence(words, list(punct), list(disf), strict_bio=False)


@dataclass
class StreamState:
    """Buffer, frozen-output log, and revision bookkeeping for one stream."""

    buffer_words: list = field(default_factory=list)
    buffer_punct: list = field(default_factory=list)
    buffer_disf: list = field(default_factory=list)
    offset: int = 0            # global index of the first buffered word
    emitted: list = field(default_factory=list)   # final (word, punct, disf)
    revision_log: list = field(default_factory=list)  # (buffer_end, changed_pos)
    finished: bool = False


def _retag(state, tagger):
    """Re-run inference on the buffer; log the earliest changed punctuation.

    Revision-log entries are global positions: (index of last buffered word,
    earliest position whose punctuation label differs from the previous
    prediction at that position).
    """
    punct, disf = tagger.tag(state.buffer_words)
    changed = next((state.offset + i for i, (old, new) in
                    enumerate(zip(state.buffer_punct, punct)) if new != old), None)
    if changed is not None:
        state.revision_log.append((state.offset + len(state.buffer_words) - 1,
                                   changed))
    state.buffer_punct, state.buffer_disf = list(punct), list(disf)


def _emit(state, upto):
    """Freeze and remove buffer[:upto]; returns the frozen triples."""
    triples = list(zip(state.buffer_words[:upto], state.buffer_punct[:upto],
                       state.buffer_disf[:upto]))
    state.emitted.extend(triples)
    for buffer in (state.buffer_words, state.buffer_punct, state.buffer_disf):
        del buffer[:upto]
    state.offset += upto
    return triples


def _cap(tagger, policy):
    """The tagger's `max_positions` (unbounded without one); a frame_rate
    above it raises StreamError."""
    cap = getattr(tagger, "max_positions", float("inf"))
    if policy.frame_rate > cap:
        raise StreamError(f"frame_rate {policy.frame_rate} exceeds the "
                          f"tagger's max_positions {cap}")
    return cap


def stream_step(state, new_words, tagger, policy):
    """Consume up to frame_rate new words; returns newly frozen triples.

    After re-tagging the grown buffer, if the first predicted end-of-sentence
    mark has at least `lookahead_words` words after it, the sentence up to
    and including the marked word is emitted and dropped from the buffer
    (one sentence per step).

    Then, if the next frame could push the buffer past the tagger's
    `max_positions` (the cap), all but the last min(lookahead_words,
    cap - frame_rate) words are frozen as tagged, so no `tag` call sees more
    than cap words. A frame_rate above the cap is refused.
    """
    if state.finished:
        raise StreamError("stream_step after finish")
    if not 1 <= len(new_words) <= policy.frame_rate:
        raise StreamError(
            f"expected 1..{policy.frame_rate} new words, got {len(new_words)}")
    cap = _cap(tagger, policy)
    state.buffer_words.extend(new_words)
    _retag(state, tagger)
    frozen = []
    for i, label in enumerate(state.buffer_punct):
        if label in policy.eos_labels:
            if len(state.buffer_punct) - i - 1 >= policy.lookahead_words:
                frozen = _emit(state, i + 1)
            break
    if len(state.buffer_words) + policy.frame_rate > cap:
        keep = min(policy.lookahead_words, cap - policy.frame_rate)
        frozen += _emit(state, len(state.buffer_words) - keep)
    return frozen


def finish(state, tagger):
    """Flush at end of stream: final inference, emit every residual word."""
    if state.finished:
        raise StreamError("finish called twice")
    state.finished = True
    if not state.buffer_words:
        return []
    _retag(state, tagger)
    return _emit(state, len(state.buffer_words))


def stream_frames(state, words, tagger, policy):
    """Feed any iterable of words to stream_step in frames of frame_rate
    words (the last may be shorter), then finish; yields each call's newly
    frozen triples as soon as it returns. A frame_rate above the tagger's
    `max_positions` raises StreamError before a word is read, so no frame
    is read that could not be tagged."""
    _cap(tagger, policy)
    words = iter(words)
    while frame := list(islice(words, policy.frame_rate)):
        yield stream_step(state, frame, tagger, policy)
    yield finish(state, tagger)


def stream_decode(words, tagger, policy):
    """Run a whole word list through the streaming decoder; returns
    (emitted triples, state), the state with the complete revision log."""
    state = StreamState()
    for _ in stream_frames(state, words, tagger, policy):
        pass
    return state.emitted, state


def rescore_decode(words, tagger, frame_rate, deadline=None):
    """Baseline: re-tag the entire history after every arrival, never
    truncating. Returns (triples, completed).

    `deadline` (time.perf_counter value) aborts a run whose cost is already
    decided; used by benchmarks since the quadratic buffer growth makes long
    streams impractical to finish.
    """
    buffer = []
    punct = disf = []
    for i in range(0, len(words), frame_rate):
        buffer.extend(words[i:i + frame_rate])
        punct, disf = tagger.tag(buffer)
        if deadline is not None and time.perf_counter() > deadline:
            return [], False
    return list(zip(buffer, punct, disf)), True
