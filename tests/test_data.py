import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puncstream import data as dt

FLIGHT_WORDS = "i want a flight to boston um to denver".split()
FLIGHT_PUNCT = ["O"] * 8 + ["PERIOD"]
FLIGHT_DISF = ["O", "O", "O", "O", "B-RM", "I-RM", "B-IM", "O", "O"]


def test_flight_example_round_trips_byte_identically(tmp_path):
    seq = dt.TokenSequence(FLIGHT_WORDS, FLIGHT_PUNCT, FLIGHT_DISF)
    path = tmp_path / "one.tsv"
    with open(path, "w", encoding="utf-8") as f:
        dt.write_corpus(f, [seq])
    first = path.read_bytes()
    parsed = dt.parse_corpus(path)
    assert len(parsed) == 1
    assert parsed[0].words == FLIGHT_WORDS
    assert parsed[0].punct == FLIGHT_PUNCT
    assert parsed[0].disf == FLIGHT_DISF
    with open(path, "w", encoding="utf-8") as f:
        dt.write_corpus(f, parsed)
    assert path.read_bytes() == first


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert dt.parse_corpus(path) == []


def test_bare_inside_tag_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("hello\tO\tI-RM\n\n")
    with pytest.raises(dt.ParseError, match="bad.tsv:1"):
        dt.parse_corpus(path)


def test_wrong_column_count_reports_line(tmp_path):
    path = tmp_path / "cols.tsv"
    path.write_text("a\tO\tO\nb\tO\n")
    with pytest.raises(dt.ParseError, match="cols.tsv:2"):
        dt.parse_corpus(path)


@pytest.mark.parametrize("text, line_no", [
    ("i\tO\tO\nwant\nflights\tPERIOD\tO\n\n", 2),
    ("a\tO\tO\n\nhello\nworld\tPERIOD\tO\n\n", 4)])
def test_mixed_labeled_and_unlabeled_lines_report_the_line(tmp_path, text,
                                                          line_no):
    path = tmp_path / "mixed.tsv"
    path.write_text(text)
    with pytest.raises(dt.ParseError) as info:
        dt.parse_corpus(path)
    assert str(info.value) == f"{path}:{line_no}: mixed labeled and unlabeled lines"


@pytest.mark.parametrize("word", ["new york", "", "new\u00a0york"])
def test_word_that_is_empty_or_holds_whitespace_rejected(tmp_path, word):
    # the vocabulary is saved space-separated; such a word would give a
    # checkpoint that cannot be loaded
    path = tmp_path / "words.tsv"
    path.write_text(f"i\tO\tO\n{word}\tO\tO\n", encoding="utf-8")
    with pytest.raises(dt.ParseError, match="words.tsv:2"):
        dt.parse_corpus(path)


def test_unlabeled_corpus(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text("hello\nworld\n\nagain\n\n")
    seqs = dt.parse_corpus(path)
    assert [s.words for s in seqs] == [["hello", "world"], ["again"]]
    assert seqs[0].punct is None and seqs[0].disf is None


def test_unknown_label_rejected_on_encode():
    vocab = dt.Vocabulary(["hi"])
    seq = dt.TokenSequence(["hi"], ["SEMICOLON"], ["O"])
    with pytest.raises(dt.EncodeError, match="SEMICOLON"):
        dt.encode(seq, vocab, dt.LabelScheme())
    seq = dt.TokenSequence(["hi"], ["O"], ["B-FOO"])
    with pytest.raises(dt.EncodeError, match="unknown disfluency label 'B-FOO'"):
        dt.encode(seq, vocab, dt.LabelScheme())


@pytest.mark.parametrize("rows, message", [
    ((["O"], ["O", "O"]), "1 punct labels for 2 words"),
    ((["O", "O", "O"], ["O", "O"]), "3 punct labels for 2 words"),
    ((["O", "O"], ["O"]), "1 disf labels for 2 words"),
    ((["O", "O"], ["O", "O", "O"]), "3 disf labels for 2 words"),
])
def test_label_rows_of_the_wrong_length_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        dt.TokenSequence(["hi", "there"], *rows)


def test_bio_validation():
    dt.validate_bio(["O", "B-RM", "I-RM", "B-IM", "I-IM", "O"])
    with pytest.raises(dt.BioError):
        dt.validate_bio(["O", "I-RM"])
    with pytest.raises(dt.BioError):
        dt.validate_bio(["B-IM", "I-RM"])


@pytest.mark.parametrize("build, message", [
    (lambda: dt.Vocabulary(["a", "b", "a"]), "vocabulary word 'a' is repeated"),
    (lambda: dt.LabelScheme(("O", "PERIOD", "PERIOD", "QUESTION")),
     "punctuation label 'PERIOD' is repeated"),
    (lambda: dt.LabelScheme(disf_labels=("O", "B-RM", "O")),
     "disfluency label 'O' is repeated"),
])
def test_a_repeated_word_or_label_rejected(build, message):
    # a repeated name would stand for two ids, and only the last is read
    with pytest.raises(ValueError, match=message):
        build()


def test_scheme_requires_o_first():
    with pytest.raises(ValueError):
        dt.LabelScheme(punct_labels=("COMMA", "O"))
    with pytest.raises(ValueError):
        dt.LabelScheme(disf_labels=())


def test_synth_zero_probabilities_is_fluent():
    seqs = dt.synth_generate(3, 50, dt.GrammarConfig())
    for seq in seqs:
        assert set(seq.disf) == {"O"}
        assert seq.punct[-1] in ("PERIOD", "QUESTION")


@pytest.fixture
def insertions(monkeypatch):
    """The (rule, words inserted) of every disfluency that the generator's
    _insert_repair, _insert_repetition and _insert_filler insert, in order,
    recorded by wrapping them."""
    log = []
    for rule in ("repair", "repetition", "filler"):
        def spy(words, *args, rule=rule, insert=getattr(dt, f"_insert_{rule}")):
            out = insert(words, *args)
            if len(out[0]) > len(words):
                log.append((rule, len(out[0]) - len(words)))
            return out
        monkeypatch.setattr(dt, f"_insert_{rule}", spy)
    return log


def test_synth_deterministic_and_counts_match_log(insertions):
    grammar = dt.GrammarConfig(p_filler=0.3, p_repetition=0.3, p_repair=0.3)
    a = dt.synth_generate(11, 300, grammar)
    log = list(insertions)
    b = dt.synth_generate(11, 300, grammar)
    assert [(s.words, s.punct, s.disf) for s in a] == \
        [(s.words, s.punct, s.disf) for s in b]
    # independent recount: B- tags across the corpus equal logged insertions
    begins = sum(lab.startswith("B-") for s in a for lab in s.disf)
    rm_tokens = sum(lab.endswith("RM") for s in a for lab in s.disf)
    logged_im_inside_repairs = sum(
        1 for kind, k in log if kind == "repair" and k > 2)
    assert begins == len(log) + logged_im_inside_repairs
    # repair insertions of length > 2 include a 2-word reparandum + filler
    assert rm_tokens == sum(min(k, 2) if kind == "repair" else k
                            for kind, k in log if kind != "filler")


def test_repetition_rule_by_construction(insertions):
    words = ["i", "fly", "to", "boston"]
    punct = ["O", "O", "O", "PERIOD"]
    disf = ["O"] * 4
    rng = random.Random(0)
    w, p, d = dt._insert_repetition(words, punct, disf, rng)
    ((_, span),) = insertions
    start = next(i for i, lab in enumerate(d) if lab == "B-RM")
    assert w[start:start + span] == w[start + span:start + 2 * span]
    assert d[start:start + span] == ["B-RM"] + ["I-RM"] * (span - 1)
    assert p[start:start + span] == ["O"] * span


def test_every_generated_sequence_passes_bio():
    grammar = dt.GrammarConfig(p_filler=0.4, p_repetition=0.4, p_repair=0.4)
    for seq in dt.synth_generate(5, 500, grammar):
        dt.validate_bio(seq.disf)


# SHA-256 of write_corpus's UTF-8 output. The first two are the set-up
# corpus and dev set perfbench and the acceptance tests train and score
# on; the third inserts repairs too. The generator draws only from
# Python's `random`, so these depend on no numpy or BLAS version.
@pytest.mark.parametrize("seed, count, p_repair, digest", [
    (7, 5000, 0.0,
     "84c9c1099727d2abcd8641b33b736a4cb5f35c7b56b5e9d22290b66bb8f0ea03"),
    (9, 100, 0.0,
     "8304e3a0e1e5209df852fe09a5495cdb38e6cbfed3a9de9ba1739cab4cc982e6"),
    (7, 500, 0.3,
     "dc85426ec7bbb90020b78ed6d08b2d7d57e525b5748c7c89795923a258f29cbd"),
])
def test_synthetic_corpus_bytes_are_pinned(seed, count, p_repair, digest):
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10,
                               p_repair=p_repair)
    f = io.StringIO()
    dt.write_corpus(f, dt.synth_generate(seed, count, grammar))
    assert hashlib.sha256(f.getvalue().encode("utf-8")).hexdigest() == digest


class FixedDraw(random.Random):
    """A seeded Random whose `random()` always returns `value`, so that
    truncation_augment augments every utterance (below one half) or none.
    Its integer draws are the seeded Random's own: binding `getrandbits`
    keeps Random.__init_subclass__ from routing `randrange` and `randint`
    through the overridden `random()`."""

    getrandbits = random.Random.getrandbits

    def __init__(self, seed, value):
        super().__init__(seed)
        self.value = value

    def random(self):
        return self.value


def test_truncation_augment_identity_at_zero_probability():
    batch = dt.synth_generate(6, 20, dt.GrammarConfig())
    out = dt.truncation_augment(batch, FixedDraw(0, 0.5), 512)
    assert out == batch


def test_truncation_augment_lengths_and_final_punct():
    batch = dt.synth_generate(7, 40, dt.GrammarConfig())
    rng = FixedDraw(1, 0.0)
    out = dt.truncation_augment(batch, rng, 512)
    for before, after in zip(batch, out):
        extra = len(after.words) - len(before.words)
        assert 1 <= extra
        assert after.words[:len(before.words)] == before.words
        assert after.punct[-1] == "O"
        dt.validate_bio(after.disf)


def test_truncation_augment_cuts_the_prefix_to_max_positions():
    # the same draws as with no limit, each appended prefix cut to the room
    # left under the limit, and an utterance with no room left as it is
    batch = dt.synth_generate(7, 40, dt.GrammarConfig())
    limit = sorted(len(seq.words) for seq in batch)[len(batch) // 2] + 2
    free, capped = FixedDraw(4, 0.0), FixedDraw(4, 0.0)
    long = dt.truncation_augment(batch, free, 10 ** 6)
    short = dt.truncation_augment(batch, capped, limit)
    assert free.getstate() == capped.getstate()
    for before, a, b in zip(batch, long, short):
        n = min(len(a.words), limit)
        if n <= len(before.words):
            assert b is before
            continue
        assert b.words == a.words[:n] and b.disf == a.disf[:n]
        assert b.punct == a.punct[:n - 1] + ["O"]
        dt.validate_bio(b.disf)
    assert any(b is before for before, b in zip(batch, short))
    assert any(len(b.words) == limit < len(a.words) for a, b in zip(long, short))


def test_truncation_augment_rate_monte_carlo():
    batch = dt.synth_generate(8, 100, dt.GrammarConfig())
    rng = random.Random(2)
    augmented = 0
    trials = 100
    for _ in range(trials):
        out = dt.truncation_augment(batch, rng, 512)
        augmented += sum(len(a.words) != len(b.words)
                         for a, b in zip(out, batch))
    rate = augmented / (trials * len(batch))
    assert abs(rate - 0.5) < 0.02


def test_vocabulary_min_frequency_and_unk():
    seqs = [dt.TokenSequence(["aa", "aa", "bb"])]
    vocab = dt.Vocabulary.from_corpus(seqs, min_freq=2)
    assert vocab.id_of("aa") > 1
    assert vocab.id_of("bb") == vocab.unk_id
    assert vocab.id_of("zz") == vocab.unk_id


def test_encode_decode_round_trip():
    grammar = dt.GrammarConfig(p_filler=0.3, p_repetition=0.2)
    seqs = dt.synth_generate(9, 30, grammar)
    vocab = dt.Vocabulary.from_corpus(seqs, min_freq=1)
    scheme = dt.LabelScheme()
    for seq in seqs:
        ids, p_ids, d_ids = dt.encode(seq, vocab, scheme)
        assert vocab.unk_id not in ids  # min_freq=1: everything known
        assert [vocab.words[i] for i in ids] == seq.words
        assert [scheme.punct_labels[i] for i in p_ids] == seq.punct
        assert [scheme.disf_labels[i] for i in d_ids] == seq.disf


def test_encode_maps_oov_to_unk():
    vocab = dt.Vocabulary(["known"])
    seq = dt.TokenSequence(["known", "mystery"], ["O", "PERIOD"], ["O", "O"])
    ids, _, _ = dt.encode(seq, vocab, dt.LabelScheme())
    assert ids == [vocab.id_of("known"), vocab.unk_id]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_generate_write_parse_round_trip(seed, count):
    import os
    import tempfile
    grammar = dt.GrammarConfig(p_filler=0.3, p_repetition=0.3, p_repair=0.3)
    seqs = dt.synth_generate(seed, count, grammar)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.tsv")
        with open(path, "w", encoding="utf-8") as f:
            dt.write_corpus(f, seqs)
        parsed = dt.parse_corpus(path)
    assert [(s.words, s.punct, s.disf) for s in parsed] == \
        [(s.words, s.punct, s.disf) for s in seqs]


@pytest.mark.parametrize("kwargs, message", [
    ({"p_filler": 1.5}, "p_filler must be in"),
    ({"p_repetition": -0.1}, "p_repetition must be in"),
    ({"p_repair": float("nan")}, "p_repair must be in"),
    ({"domain": "mars"}, "unknown grammar domain 'mars'"),
])
def test_grammar_config_rejects_out_of_range_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        dt.GrammarConfig(**kwargs)


def test_grammar_config_accepts_the_closed_unit_interval():
    dt.GrammarConfig(p_filler=0.0, p_repetition=1.0, p_repair=1.0)


@pytest.mark.parametrize("min_freq", [0, -5])
def test_vocabulary_rejects_min_freq_below_one(min_freq):
    seqs = dt.synth_generate(3, 5, dt.GrammarConfig())
    with pytest.raises(ValueError, match="min_freq must be >= 1"):
        dt.Vocabulary.from_corpus(seqs, min_freq=min_freq)
