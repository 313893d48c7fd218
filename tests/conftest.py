"""Shared fixtures: small random models and session-scoped trained models.

The trained fixtures run real (toy-scale) training once per session and are
shared between the unit tests and the acceptance suite.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from puncstream import data as dt
from puncstream import model as mdl
from puncstream import training as tr
from puncstream.decoding import ModelTagger
from puncstream.masks import MaskSpec


@dataclass
class ModelBundle:
    config: mdl.ModelConfig
    params: mdl.ModelParams
    vocab: dt.Vocabulary
    scheme: dt.LabelScheme
    tagger: ModelTagger
    test: list
    result: tr.TrainResult = None


def small_config(vocab_size=12, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                 lookahead=(0, 9), punct=4, disf=5, max_positions=512):
    return mdl.ModelConfig(vocab_size, d_model, n_layers, n_heads, d_ff,
                           MaskSpec(lookahead), punct, disf,
                           max_positions=max_positions)


def forward_mask(n):
    """Reference causal mask: (i, j) unmasked iff j <= i."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return np.where(j <= i, 0.0, -np.inf)


def full_mask(n):
    """Reference unrestricted mask: all zeros."""
    return np.zeros((n, n))


def seal(raw):
    """A checkpoint's bytes with the CRC-32 of all but their last four
    bytes written over those four."""
    return raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4]))


def rewrite_config_line(path, key, value):
    """Set the `key=` line of a checkpoint's config block to `value` (bytes),
    keeping the block length field and the CRC in step."""
    with open(path, "rb") as f:
        raw = f.read()
    (n,) = struct.unpack_from("<I", raw, 4)
    lines = raw[8:8 + n].split(b"\n")
    assert sum(line.startswith(key + b"=") for line in lines) == 1
    block = b"\n".join(key + b"=" + value if line.startswith(key + b"=") else line
                       for line in lines)
    with open(path, "wb") as f:
        f.write(seal(raw[:4] + struct.pack("<I", len(block)) + block + raw[8 + n:]))


def fill_tensor(path, name, value):
    """Set every value of the checkpoint parameter `name` to `value` (a
    float), in place, and re-seal the CRC, leaving every other byte as it
    was. The parameter's place follows from the file's config, laid out in
    param_shapes order."""
    sizes = {n: math.prod(shape) for n, shape
             in mdl.param_shapes(mdl.load_model(path)[0]).items()}
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    names = list(sizes)
    start = 8 + struct.unpack_from("<I", raw, 4)[0] + 8 * sum(
        sizes[n] for n in names[:names.index(name)])
    count = sizes[name]
    raw[start:start + 8 * count] = struct.pack(f"<{count}d", *[value] * count)
    with open(path, "wb") as f:
        f.write(seal(bytes(raw)))


def every_weight(raw, value):
    """A checkpoint's bytes, `raw`, with every weight set to `value` (a
    float) and the CRC re-sealed: the config block is left as it was."""
    start = 8 + struct.unpack_from("<I", raw, 4)[0]
    count = (len(raw) - start - 4) // 8
    return seal(raw[:start] + struct.pack(f"<{count}d", *[value] * count) + raw[-4:])


def random_bundle(config, seed=0):
    params = mdl.init_params(config, np.random.default_rng(seed))
    scheme = dt.LabelScheme()
    words = [f"w{i}" for i in range(config.vocab_size - 2)]
    vocab = dt.Vocabulary(words)
    return ModelBundle(config, params, vocab, scheme,
                       ModelTagger(config, params, vocab, scheme), [])


@pytest.fixture(scope="session")
def scheme():
    return dt.LabelScheme()


@pytest.fixture(scope="session")
def travel_bundle():
    """Streaming tagger trained on the standard synthetic travel corpus:
    4 layers, total look-ahead 9, 2000 steps, 5000 utterances."""
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
    corpus = dt.synth_generate(7, 5000, grammar)
    dev = dt.synth_generate(9, 100, grammar)
    test = dt.synth_generate(8, 300, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = mdl.ModelConfig(len(vocab), 32, 4, 2, 64, MaskSpec((0, 0, 0, 9)),
                             len(scheme.punct_labels), len(scheme.disf_labels))
    result = tr.train(corpus, tr.TrainConfig(batch_size=8, max_steps=2000,
                                             eval_every=250, seed=1),
                      config, vocab, scheme, dev=dev)
    return ModelBundle(config, result.params, vocab, scheme,
                       ModelTagger(config, result.params, vocab, scheme),
                       test, result)


@pytest.fixture(scope="session")
def repair_bundle():
    """Smaller tagger trained with the repair rule enabled, so repaired
    phrases like "to boston um to denver" carry reparandum labels."""
    grammar = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10,
                               p_repair=0.15)
    corpus = dt.synth_generate(30, 3000, grammar)
    dev = dt.synth_generate(31, 100, grammar)
    test = dt.synth_generate(32, 200, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = mdl.ModelConfig(len(vocab), 32, 2, 2, 64, MaskSpec((0, 9)),
                             len(scheme.punct_labels), len(scheme.disf_labels))
    result = tr.train(corpus, tr.TrainConfig(batch_size=8, max_steps=1500,
                                             eval_every=250, seed=2),
                      config, vocab, scheme, dev=dev)
    return ModelBundle(config, result.params, vocab, scheme,
                       ModelTagger(config, result.params, vocab, scheme),
                       test, result)


@pytest.fixture(scope="session")
def adversarial_bundle():
    """Full-attention tagger trained on the late-question grammar, where a
    trailing particle flips clause-end periods to question marks."""
    grammar = dt.GrammarConfig("late-question")
    corpus = dt.synth_generate(20, 2000, grammar)
    dev = dt.synth_generate(21, 100, grammar)
    test = dt.synth_generate(22, 100, grammar)
    vocab = dt.Vocabulary.from_corpus(corpus)
    scheme = dt.LabelScheme()
    config = mdl.ModelConfig(len(vocab), 32, 2, 2, 64, MaskSpec((256, 256)),
                             len(scheme.punct_labels), len(scheme.disf_labels))
    result = tr.train(corpus, tr.TrainConfig(batch_size=8, max_steps=600,
                                             eval_every=150, seed=3),
                      config, vocab, scheme, dev=dev)
    return ModelBundle(config, result.params, vocab, scheme,
                       ModelTagger(config, result.params, vocab, scheme),
                       test, result)
