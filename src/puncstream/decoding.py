"""Offline tagging, the low-latency streaming decoder, and a chunk baseline.

The streaming decoder keeps an input buffer, re-tags it after every arrival
of up to `frame_rate` new words, and freezes a sentence once at least
`lookahead_words` words have arrived after its first end-of-sentence mark.
Emitted triples are final and never revised.
"""

import time
from dataclasses import dataclass, field
from itertools import islice

from .data import TokenSequence
from .model import predict, unpack_params


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

    The parameters are checked against the config and unpacked once, here
    (model.unpack_params), so `tag` runs the encoder's kernels on plain
    arrays. A tagger keeps the parameters it was built with: a tensor later
    replaced in `params` does not reach it; build a new tagger instead.
    """

    def __init__(self, config, params, vocab, scheme):
        self.config = config
        self.params = unpack_params(config, params)
        self.vocab = vocab
        self.scheme = scheme

    def tag(self, words):
        ids = [self.vocab.id_of(w) for w in words]
        punct_ids, disf_ids = predict(ids, self.config, self.params)
        return ([self.scheme.punct_labels[i] for i in punct_ids],
                [self.scheme.disf_labels[i] for i in disf_ids])


def tag_offline(words, tagger):
    """Single inference over the whole sequence."""
    if not words:
        raise ValueError("tag_offline: empty input")
    punct, disf = tagger.tag(list(words))
    return TokenSequence(list(words), punct, disf, strict_bio=False)


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
    changed = None
    for i, old in enumerate(state.buffer_punct):
        if old is not None and punct[i] != old:
            changed = state.offset + i
            break
    if changed is not None:
        state.revision_log.append((state.offset + len(state.buffer_words) - 1,
                                   changed))
    state.buffer_punct = list(punct)
    state.buffer_disf = list(disf)


def _emit(state, upto):
    """Freeze and remove buffer[:upto] (inclusive end-of-sentence word)."""
    triples = [(state.buffer_words[i], state.buffer_punct[i], state.buffer_disf[i])
               for i in range(upto)]
    state.emitted.extend(triples)
    del state.buffer_words[:upto]
    del state.buffer_punct[:upto]
    del state.buffer_disf[:upto]
    state.offset += upto
    return triples


def stream_step(state, new_words, tagger, policy):
    """Consume up to frame_rate new words; returns newly frozen triples.

    After re-tagging the grown buffer, if the first predicted end-of-sentence
    mark has at least `lookahead_words` words after it, the sentence up to
    and including the marked word is emitted and dropped from the buffer
    (one sentence per step).
    """
    if state.finished:
        raise StreamError("stream_step after finish")
    if not 1 <= len(new_words) <= policy.frame_rate:
        raise StreamError(
            f"expected 1..{policy.frame_rate} new words, got {len(new_words)}")
    state.buffer_words.extend(w for w in new_words)
    state.buffer_punct.extend([None] * len(new_words))
    state.buffer_disf.extend([None] * len(new_words))
    _retag(state, tagger)
    for i, label in enumerate(state.buffer_punct):
        if label in policy.eos_labels:
            if len(state.buffer_punct) - i - 1 >= policy.lookahead_words:
                return _emit(state, i + 1)
            break
    return []


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
    frozen triples as soon as it returns."""
    words = iter(words)
    while frame := list(islice(words, policy.frame_rate)):
        yield stream_step(state, frame, tagger, policy)
    yield finish(state, tagger)


def stream_decode(words, tagger, policy):
    """Run a whole word list through the streaming decoder.

    Returns (emitted triples, state) with the complete revision log.
    """
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


def chunk_decode(words, tagger, chunk=30, window=15, min_words_cut=10):
    """Overlapped-chunk baseline: decode fixed chunks advancing by `window`;
    in each overlap the earlier chunk keeps its first (chunk - min_words_cut)
    labels and the later chunk supplies the rest."""
    if not words:
        raise ValueError("chunk_decode: empty input")
    n = len(words)
    punct = [None] * n
    disf = [None] * n
    keep = chunk - min_words_cut
    start = 0
    while True:
        cw = words[start:start + chunk]
        cp, cd = tagger.tag(cw)
        last = start + chunk >= n
        limit = len(cw) if last else keep
        for i in range(limit):
            pos = start + i
            if pos < n and punct[pos] is None:
                punct[pos] = cp[i]
                disf[pos] = cd[i]
        if last:
            break
        start += window
    return TokenSequence(list(words), punct, disf, strict_bio=False)
