"""Tokenization, label schemes, corpus files, and the synthetic generator.

Corpus file format: UTF-8, one token per line as "word<TAB>punct<TAB>disf",
blank line between utterances. Files without gold labels use "word" only.

The synthetic generator draws fluent sentences from a small template grammar
with deterministic punctuation, then inserts disfluencies with configured
probabilities: fillers (interregnum), span repetitions, and repairs where a
place name is replaced by a sibling.
"""

import random
from collections import Counter
from dataclasses import InitVar, dataclass

PAD_WORD = "<pad>"
UNK_WORD = "<unk>"


class ParseError(ValueError):
    pass


class BioError(ValueError):
    pass


class EncodeError(ValueError):
    pass


def _check_names(what, names):
    """Refuse, as ValueError, a word or label in `names` that is empty or
    holds whitespace: a checkpoint stores the vocabulary and the label
    names space-separated, and streams split their input on whitespace."""
    for name in names:
        if name.split() != [name]:
            raise ValueError(f"{what} {name!r} is empty or contains whitespace")


@dataclass(frozen=True)
class LabelScheme:
    """The punctuation and disfluency label names, "O" first in each. A
    name that is empty or holds whitespace raises ValueError (_check_names)."""

    punct_labels: tuple = ("O", "COMMA", "PERIOD", "QUESTION")
    disf_labels: tuple = ("O", "B-RM", "I-RM", "B-IM", "I-IM")

    def __post_init__(self):
        if self.punct_labels[:1] != ("O",) or self.disf_labels[:1] != ("O",):
            raise ValueError("label O must have index 0 in both schemes")
        _check_names("punctuation label", self.punct_labels)
        _check_names("disfluency label", self.disf_labels)

    def label_problem(self, seq):
        """Why `seq` cannot be trained on or scored with this scheme ("has
        no labels", or its first label outside the scheme), or None."""
        if not seq.has_gold():
            return "has no labels"
        for kind, labels, known in (("punctuation", seq.punct, self.punct_labels),
                                    ("disfluency", seq.disf, self.disf_labels)):
            for label in labels:
                if label not in known:
                    return f"has unknown {kind} label {label!r}"
        return None


def validate_bio(labels):
    """Every I-X must follow a B-X or I-X of the same span type."""
    prev = "O"
    for i, lab in enumerate(labels):
        if lab.startswith("I-"):
            kind = lab[2:]
            if prev not in (f"B-{kind}", f"I-{kind}"):
                raise BioError(
                    f"token {i}: {lab} not preceded by B-{kind}/I-{kind}")
        prev = lab


@dataclass
class TokenSequence:
    """An utterance: lowercase words plus optional gold label rows."""

    words: list
    punct: list = None
    disf: list = None
    # model predictions are not forced through BIO validation
    strict_bio: InitVar[bool] = True

    def __post_init__(self, strict_bio):
        n = len(self.words)
        if self.punct is not None and len(self.punct) != n:
            raise ValueError(f"{len(self.punct)} punct labels for {n} words")
        if self.disf is not None:
            if len(self.disf) != n:
                raise ValueError(f"{len(self.disf)} disf labels for {n} words")
            if strict_bio:
                validate_bio(self.disf)

    def has_gold(self):
        return self.punct is not None and self.disf is not None


class Vocabulary:
    """Word <-> id map with reserved PAD (id 0) and UNK (id 1) ids. A word
    that is empty or holds whitespace raises ValueError (_check_names)."""

    def __init__(self, words):
        self.words = [PAD_WORD, UNK_WORD] + [w for w in words
                                             if w not in (PAD_WORD, UNK_WORD)]
        _check_names("vocabulary word", self.words[2:])
        self._ids = {w: i for i, w in enumerate(self.words)}
        self.unk_id = 1

    @classmethod
    def from_corpus(cls, seqs, min_freq=2):
        if min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {min_freq}")
        counts = Counter(w for seq in seqs for w in seq.words)
        kept = sorted(w for w, c in counts.items() if c >= min_freq)
        return cls(kept)

    def id_of(self, word):
        return self._ids.get(word, self.unk_id)

    def __len__(self):
        return len(self.words)


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------


def parse_corpus(path, strict_bio=True):
    """Read the tab-separated corpus format; reports line numbers on failure.

    `strict_bio=False` skips BIO validation (model prediction files).
    """
    seqs = []
    words, punct, disf = [], [], []
    start_line = 1

    def flush(line_no):
        nonlocal words, punct, disf
        if not words:
            return
        has_labels = any(p is not None for p in punct)
        try:
            seq = TokenSequence(
                words,
                punct if has_labels else None,
                disf if has_labels else None,
                strict_bio=strict_bio,
            )
        except (ValueError, BioError) as e:
            raise ParseError(f"{path}:{start_line}: {e}") from None
        seqs.append(seq)
        words, punct, disf = [], [], []

    line_no = 0
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(line_no)
                start_line = line_no + 1
                continue
            cols = line.split("\t")
            if len(cols) not in (1, 3):
                raise ParseError(
                    f"{path}:{line_no}: expected 1 or 3 tab-separated columns, "
                    f"got {len(cols)}")
            try:
                _check_names("word", cols[:1])
            except ValueError as e:
                raise ParseError(f"{path}:{line_no}: {e}") from None
            words.append(cols[0].lower())
            punct.append(cols[1] if len(cols) == 3 else None)
            disf.append(cols[2] if len(cols) == 3 else None)
            if (punct[-1] is None) != (punct[0] is None):
                raise ParseError(
                    f"{path}:{line_no}: mixed labeled and unlabeled lines")
    flush(line_no)
    return seqs


def write_corpus(path, seqs):
    with open(path, "w", encoding="utf-8") as f:
        for seq in seqs:
            for i, w in enumerate(seq.words):
                if seq.has_gold():
                    f.write(f"{w}\t{seq.punct[i]}\t{seq.disf[i]}\n")
                else:
                    f.write(f"{w}\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# Synthetic grammar
# ---------------------------------------------------------------------------

# Per travel domain: its (statements, questions, objects, cities). Statement
# clauses end in "{prep} {city}" so sentence boundaries are lexically cued;
# cities never appear mid-clause.
_TRAVEL_GRAMMARS = {
    "travel": (
        [("i", "want", "a", "{obj}", "to", "{city}"),
         ("i", "need", "a", "{obj}", "to", "{city}"),
         ("please", "book", "a", "{obj}", "in", "{city}"),
         ("she", "wants", "a", "{obj}", "from", "{city}"),
         ("we", "booked", "a", "{obj}", "near", "{city}")],
        [("do", "you", "have", "a", "{obj}", "in", "{city}"),
         ("can", "i", "get", "a", "{obj}", "to", "{city}")],
        ["flight", "hotel", "car", "ticket", "room", "cab"],
        ["boston", "denver", "seattle", "austin", "chicago", "portland",
         "miami", "dallas"]),
    "travel-shifted": (
        [("they", "reserved", "a", "{obj}", "at", "{city}"),
         ("he", "found", "a", "{obj}", "at", "{city}"),
         ("please", "arrange", "a", "{obj}", "in", "{city}"),
         ("we", "kept", "a", "{obj}", "near", "{city}")],
        [("could", "we", "find", "a", "{obj}", "at", "{city}"),
         ("do", "they", "have", "a", "{obj}", "in", "{city}")],
        ["van", "boat", "bike", "suite", "tour", "ferry"],
        ["oslo", "madrid", "lisbon", "dublin", "prague", "vienna", "athens",
         "berlin"]),
}

_FILLERS = [("um",), ("uh",), ("you", "know")]

# Late-cue grammar: a trailing "right" turns the whole utterance into a
# question, so clause-end punctuation depends on a word far in the future.
_LATE_Q_CLAUSES = [
    ("you", "want", "a", "{obj}", "in", "{city}"),
    ("you", "need", "a", "{obj}", "in", "{city}"),
]
_LATE_Q_TAILS = [
    ("for", "your", "long", "trip", "home"),
    ("for", "the", "big", "game", "tonight"),
    ("with", "all", "of", "your", "friends"),
]


GRAMMAR_DOMAINS = (*_TRAVEL_GRAMMARS, "late-question")


@dataclass
class GrammarConfig:
    domain: str = "travel"  # one of GRAMMAR_DOMAINS
    p_filler: float = 0.0
    p_repetition: float = 0.0
    p_repair: float = 0.0

    def __post_init__(self):
        if self.domain not in GRAMMAR_DOMAINS:
            raise ValueError(f"unknown grammar domain {self.domain!r}")
        for name in ("p_filler", "p_repetition", "p_repair"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


_P_JOIN = 0.3  # two statement clauses joined by "then"
_P_QUESTION = 0.25
_MAX_SENTENCES = 2
_P_LATE_QUESTION = 0.3  # late-question domain only


def _fill(template, rng, objects, cities):
    return [w.format(obj=rng.choice(objects), city=rng.choice(cities))
            for w in template]


def _travel_sentence(rng, statements, questions, objects, cities):
    """One fluent sentence: (words, punct). COMMA joins clauses via "then"."""
    if rng.random() < _P_JOIN:
        a = _fill(rng.choice(statements), rng, objects, cities)
        b = _fill(rng.choice(statements), rng, objects, cities)
        words = a + ["then"] + b
        punct = ["O"] * len(words)
        punct[len(a) - 1] = "COMMA"
        punct[-1] = "PERIOD"
    elif rng.random() < _P_QUESTION:
        words = _fill(rng.choice(questions), rng, objects, cities)
        punct = ["O"] * len(words)
        punct[-1] = "QUESTION"
    else:
        words = _fill(rng.choice(statements), rng, objects, cities)
        punct = ["O"] * len(words)
        punct[-1] = "PERIOD"
    return words, punct


def _late_question_utterance(rng):
    objects, cities = _TRAVEL_GRAMMARS["travel"][2:]
    clauses = []
    for _ in range(2):
        clause = _fill(rng.choice(_LATE_Q_CLAUSES), rng, objects, cities)
        clause += list(rng.choice(_LATE_Q_TAILS))
        clauses.append(clause)
    is_question = rng.random() < _P_LATE_QUESTION
    words, punct = [], []
    for clause in clauses:
        words += clause
        punct += ["O"] * (len(clause) - 1)
        punct.append("QUESTION" if is_question else "PERIOD")
    if is_question:
        words.append("right")
        punct.append("QUESTION")
    return TokenSequence(words, punct, ["O"] * len(words))


def _insert_repair(words, punct, disf, rng, cities):
    """Duplicate a clause-final "{prep} {city}" with a different city first.

    "to denver" -> "to boston (um) to denver", first pair B-RM I-RM.
    """
    spots = [i for i in range(len(words) - 1)
             if words[i + 1] in cities and disf[i] == "O" and disf[i + 1] == "O"]
    if not spots:
        return words, punct, disf
    i = rng.choice(spots)
    alt = rng.choice([c for c in cities if c != words[i + 1]])
    ins_words = [words[i], alt]
    ins_punct = ["O", "O"]
    ins_disf = ["B-RM", "I-RM"]
    if rng.random() < 0.5:
        filler = rng.choice(_FILLERS)
        ins_words += list(filler)
        ins_punct += ["O"] * len(filler)
        ins_disf += ["B-IM"] + ["I-IM"] * (len(filler) - 1)
    return (words[:i] + ins_words + words[i:],
            punct[:i] + ins_punct + punct[i:],
            disf[:i] + ins_disf + disf[i:])


def _insert_repetition(words, punct, disf, rng):
    """Duplicate a 1-3 word span; the first copy is the reparandum."""
    fluent = [i for i in range(len(words)) if disf[i] == "O"]
    if not fluent:
        return words, punct, disf
    start = rng.choice(fluent)
    span = 1
    while (span < 3 and start + span < len(words)
           and disf[start + span] == "O" and rng.random() < 0.5):
        span += 1
    copy = words[start:start + span]
    rm = ["B-RM"] + ["I-RM"] * (span - 1)
    return (words[:start] + copy + words[start:],
            punct[:start] + ["O"] * span + punct[start:],
            disf[:start] + rm + disf[start:])


def _insert_filler(words, punct, disf, rng):
    filler = rng.choice(_FILLERS)
    # never split an existing B-/I- span
    spots = [i for i in range(len(words) + 1)
             if i == len(words) or not disf[i].startswith("I-")]
    i = rng.choice(spots)
    im = ["B-IM"] + ["I-IM"] * (len(filler) - 1)
    return (words[:i] + list(filler) + words[i:],
            punct[:i] + ["O"] * len(filler) + punct[i:],
            disf[:i] + im + disf[i:])


def synth_generate(seed, n_utterances, grammar=None):
    """Generate labeled utterances; deterministic for a fixed seed."""
    if n_utterances < 1:
        raise ValueError("n_utterances must be >= 1")
    cfg = grammar or GrammarConfig()
    rng = random.Random(seed)
    if cfg.domain == "late-question":
        return [_late_question_utterance(rng) for _ in range(n_utterances)]
    statements, questions, objects, cities = _TRAVEL_GRAMMARS[cfg.domain]

    out = []
    for _ in range(n_utterances):
        words, punct = [], []
        for _ in range(rng.randint(1, _MAX_SENTENCES)):
            sw, sp = _travel_sentence(rng, statements, questions, objects,
                                      cities)
            words += sw
            punct += sp
        disf = ["O"] * len(words)
        if rng.random() < cfg.p_repair:
            words, punct, disf = _insert_repair(words, punct, disf, rng, cities)
        if rng.random() < cfg.p_repetition:
            words, punct, disf = _insert_repetition(words, punct, disf, rng)
        if rng.random() < cfg.p_filler:
            words, punct, disf = _insert_filler(words, punct, disf, rng)
        out.append(TokenSequence(words, punct, disf))
    return out


def truncation_augment(batch, rng, max_positions):
    """Append a random-length prefix of another utterance to each utterance
    with probability one half (`rng.random() < 0.5`).

    The final appended word has its punctuation forced to O: the appended
    sentence is cut mid-stream, so the model cannot rely on always seeing an
    end-of-utterance mark at the last position. The prefix is cut to fit
    `max_positions` after its length is drawn; with no room, none is added.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    out = []
    for seq in batch:
        if rng.random() >= 0.5:
            out.append(seq)
            continue
        other = batch[rng.randrange(len(batch))]
        k = min(rng.randint(1, len(other.words)), max_positions - len(seq.words))
        if k < 1:
            out.append(seq)
            continue
        words = seq.words + other.words[:k]
        punct = list(seq.punct) + list(other.punct[:k])
        punct[-1] = "O"
        disf = list(seq.disf) + list(other.disf[:k])
        if disf[len(seq.words)].startswith("I-"):
            disf[len(seq.words)] = "B-" + disf[len(seq.words)][2:]
        out.append(TokenSequence(words, punct, disf))
    return out


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _label_id(kind, labels, label):
    try:
        return labels.index(label)
    except ValueError:
        raise EncodeError(f"unknown {kind} label {label!r}") from None


def encode(seq, vocab, scheme):
    """Map a sequence to (word ids, punct ids, disf ids); OOV words -> UNK,
    and a label outside `scheme` raises EncodeError."""
    ids = [vocab.id_of(w) for w in seq.words]
    if seq.punct is None:
        return ids, None, None
    return (ids,
            [_label_id("punctuation", scheme.punct_labels, p) for p in seq.punct],
            [_label_id("disfluency", scheme.disf_labels, d) for d in seq.disf])
