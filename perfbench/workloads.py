"""Set-up, inputs, workloads and output checks of the puncstream benchmark.

Every workload drives the public puncstream API. Inputs come from the
synthetic travel grammar with the `puncstream synth` defaults, seeded from
the benchmark's `--seed`; the model comes from the set-up, which trains it
from a fixed seed. Checks run outside the timed region and compare outputs
with the generator's gold labels and with properties the paper guarantees,
never with a stored copy of earlier output.
"""

import math
import os
import platform
import random
import time
from dataclasses import dataclass

import numpy as np

from puncstream import data as dt
from puncstream import decoding as dec
from puncstream import evaluation as ev
from puncstream import model as mdl
from puncstream import training as tr
from puncstream.masks import MaskSpec, build_ct_mask, effective_lookahead

from spans import self_times, totals_by_name

GRAMMAR = dt.GrammarConfig("travel", p_filler=0.15, p_repetition=0.10)
SCHEME = dt.LabelScheme()

# Set-up: the CLI's model and training defaults, but 600 Adam steps. From
# the fixed seed, 600 steps score as well as 1000 (dev punct F1 0.957 against
# 0.962) in 17 s instead of 26 s, which leaves room for longer measurements.
SETUP_STEPS = 600
SETUP_SEED = 0
SAVE_LOAD_REPEATS = 5

# F1 floors, well under what a working tagger scores (stream punct ~0.90,
# dev punct ~0.96); a broken one scores far lower.
STREAM_PUNCT_FLOOR = 0.75
STREAM_DISF_FLOOR = 0.45
DEV_PUNCT_FLOOR = 0.85

POLICY = dec.DecodePolicy(frame_rate=3, lookahead_words=6)
# criterion 9's 50k-word stream, continued by the same generator so that a
# 40-second run at twice today's speed does not reach its end
STREAM_WORDS = 300_000
WARMUP_FRAMES = 300
# emitting steps whose look-ahead guarantee is re-checked
IDENTITY_SAMPLES = 12
IDENTITY_EXTRA_WORDS = 16

# 5% of steps also evaluate on dev, so the median and p90 step latency stay
# among plain steps
TRAIN_STEPS = 100
TRAIN_EVAL_EVERY = 20
TRAIN_CORPUS = 2000
TRAIN_DEV = 20
FD_BATCH = 2
FD_STEP = 1e-6      # along a unit direction: few ReLU kinks are crossed
FD_TOLERANCE = 1e-4


class Checks:
    """Collects failed correctness checks; a run is correct if none failed."""

    def __init__(self):
        self.failures = []
        self.cut = []   # max |logit change| per look-ahead sample cut after i + L_all

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def correct(self):
        return not self.failures


def percentile(values, q):
    """q-th percentile with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment():
    """Machine facts that decide the reference figures. BLAS thread settings
    are recorded as found and never set here."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def f1_scores(pred, gold):
    """Pooled punct F1 and either-disfluency F1 of tagged sequences against
    gold ones (anything with words, punct and disf lists)."""
    report = ev.score(pred, gold, SCHEME)
    return report.punct_overall.f1, report.disf["either"].f1


def as_sequence(triples):
    """(word, punct, disf) triples as one unvalidated TokenSequence."""
    triples = list(triples)
    return dt.TokenSequence([t[0] for t in triples], [t[1] for t in triples],
                            [t[2] for t in triples], strict_bio=False)


def check_lookahead(words, i, model, checks, where):
    """The paper's guarantee: logits at positions <= i do not depend on the
    words after i + L_all. Replacing every one of those words must leave them
    bit-identical, as in acceptance criterion 1. Cutting the input after
    i + L_all must leave the labels at <= i unchanged; whether the logits
    also stay bit-identical under the cut is tallied in `checks.cut`."""
    horizon = effective_lookahead(model.config.mask_spec)
    keep = i + horizon + 1
    ids = [model.vocab.id_of(w) for w in words]
    if keep >= len(ids):
        return
    spare = model.config.vocab_size - 2
    edited = ids[:keep] + [2 + (x + 1) % spare for x in ids[keep:]]
    base = mdl.forward(ids, model.config, model.params)
    far = mdl.forward(edited, model.config, model.params)
    cut = mdl.forward(ids[:keep], model.config, model.params)
    checks.expect(all(np.array_equal(b.data[:i + 1], f.data[:i + 1])
                      for b, f in zip(base, far)),
                  f"{where}: logits up to position {i} change when the "
                  f"{len(ids) - keep} words after position {keep - 1} change")
    checks.expect(all(np.array_equal(np.argmax(b.data[:i + 1], axis=1),
                                     np.argmax(c.data[:i + 1], axis=1))
                      for b, c in zip(base, cut)),
                  f"{where}: labels up to position {i} change when the input "
                  f"is cut after position {keep - 1}")
    diff = max(float(np.max(np.abs(b.data[:i + 1] - c.data[:i + 1])))
               for b, c in zip(base, cut))
    checks.cut.append(diff)


def check_labels_match_model(words, punct, disf, model, checks, where):
    """Labels the decoder returned must be the model's argmax on that input."""
    p, d = mdl.forward([model.vocab.id_of(w) for w in words], model.config,
                       model.params)
    want_p = [SCHEME.punct_labels[k] for k in np.argmax(p.data, axis=1)]
    want_d = [SCHEME.disf_labels[k] for k in np.argmax(d.data, axis=1)]
    n = len(punct)
    checks.expect(list(punct) == want_p[:n] and list(disf) == want_d[:n],
                  f"{where}: returned labels differ from the model's argmax")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# This machine is a share of a host, and its speed drifts by up to 1.5x over
# minutes, for the program and for any other code alike: ten 40-second runs
# of the same code spread by 0.2 of their median in wall time. Timed work is
# therefore cut into windows of about PROBE_EVERY_S, with a run of a fixed
# reference loop before and after each. A window's wall time is scaled by
# the loop's speed around it, relative to REFERENCE_LOOP_RATE, into
# reference seconds: the time the work would take on this machine when the
# loop runs at that rate. End-to-end timings are given in reference seconds.
PROBE_S = 0.05
PROBE_EVERY_S = 1.0
# loop iterations per second when this machine (2 vCPUs of a 2.1 GHz Xeon)
# ran at its fastest; at that speed a reference second is a wall second
REFERENCE_LOOP_RATE = 44_000.0


class SpeedProbe:
    """Measures how fast the machine runs right now, relative to the
    reference speed, with a loop of small numpy ops of the kind the program
    runs. The loop uses no puncstream code, so a change to the program
    cannot change it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((12, 32))
        self.w = rng.standard_normal((32, 32)) / 6
        self.speeds = []

    def measure(self):
        perf = time.perf_counter
        x, w = self.x, self.w
        n = 0
        t0 = perf()
        while True:
            for _ in range(10):
                h = x @ w
                h = h - h.mean(axis=1, keepdims=True)
                h = h / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-5)
                e = np.exp(h - h.max(axis=1, keepdims=True))
                e /= e.sum(axis=1, keepdims=True)
            n += 10
            elapsed = perf() - t0
            if elapsed >= PROBE_S:
                break
        self.speeds.append(n / elapsed / REFERENCE_LOOP_RATE)
        return self.speeds[-1]


@dataclass
class Windows:
    """Timed work cut by speed probes: each window's first unit (stream step
    or training step) and wall time, and the probe speeds, one more than the
    windows. Without a probe there is one window at speed 1."""
    first: list
    wall_s: list
    speeds: list

    def speed(self, k):
        return (self.speeds[k] + self.speeds[k + 1]) / 2

    def reference_s(self):
        return sum(w * self.speed(k) for k, w in enumerate(self.wall_s))

    def scale(self, durations):
        """Per-unit durations in reference seconds."""
        ends = self.first[1:] + [len(durations)]
        return [d * self.speed(k)
                for k, (a, b) in enumerate(zip(self.first, ends))
                for d in durations[a:b]]


class StepClock(list):
    """Training corpus that stamps the time each batch starts being read.

    `training.train` reads `batch_size` sequences per step by index, so every
    `batch_size`-th read starts a step; the stamps give per-step latencies
    without touching the program. `start` and `stop` go around the training
    call. With a probe, the machine's speed is measured at `start`, at the
    first step start after every PROBE_EVERY_S, and at `stop`; probe time is
    left out of the step latencies and of the windows."""

    def __init__(self, seqs, batch_size, probe=None):
        super().__init__(seqs)
        self.batch_size = batch_size
        self.probe = probe
        self.reads = 0
        self.words = 0
        self.stamps = []
        self.pauses = []    # probe time just before each stamp
        self.windows = Windows([0], [], [])
        self._window_start = self._end = None

    def _measure(self):
        self.windows.speeds.append(self.probe.measure() if self.probe else 1.0)

    def start(self):
        self._measure()
        self._window_start = time.perf_counter()

    def stop(self):
        self._end = time.perf_counter()
        self.windows.wall_s.append(self._end - self._window_start)
        self._measure()

    def __getitem__(self, index):
        if self.reads % self.batch_size == 0:
            now = time.perf_counter()
            pause = 0.0
            if self.probe is not None and now - self._window_start >= PROBE_EVERY_S:
                self.windows.wall_s.append(now - self._window_start)
                self._measure()
                self.windows.first.append(len(self.stamps))
                resumed = time.perf_counter()
                pause = resumed - now
                now = self._window_start = resumed
            self.stamps.append(now)
            self.pauses.append(pause)
        self.reads += 1
        seq = list.__getitem__(self, index)
        self.words += len(seq.words)
        return seq

    @property
    def step_s(self):
        """Per-step latencies; the last step ends at `stop`."""
        ends = [t - p for t, p in zip(self.stamps[1:], self.pauses[1:])] + [self._end]
        return [b - a for a, b in zip(self.stamps, ends)]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def cli_model_config(vocab):
    """The model `puncstream train` builds with its default settings."""
    return mdl.ModelConfig(
        vocab_size=len(vocab), d_model=32, n_layers=4, n_heads=2, d_ff=64,
        mask_spec=MaskSpec.from_string("0,0,0,9"),
        punct_label_count=len(SCHEME.punct_labels),
        disf_label_count=len(SCHEME.disf_labels), max_positions=512)


@dataclass
class Model:
    config: object
    params: object
    vocab: object
    tagger: object
    setup_s: float
    setup_reference_s: float
    train_s: float
    save_ms: float
    load_ms: float
    dev_punct_f1: float
    dev_disf_f1: float


def set_up(path, checks, probe):
    """Train the tagger as `puncstream train` does with its defaults (but
    600 steps), then save and load it. Vocabulary, training, and the median
    save and load times make the set-up time, also given in reference
    seconds."""
    train_config = tr.TrainConfig(max_steps=SETUP_STEPS, seed=SETUP_SEED)
    corpus = StepClock(dt.synth_generate(7, 5000, GRAMMAR), train_config.batch_size,
                       probe)
    dev = dt.synth_generate(9, 100, GRAMMAR)
    corpus.start()
    vocab = dt.Vocabulary.from_corpus(corpus, min_freq=2)
    config = cli_model_config(vocab)
    result = tr.train(corpus, train_config, config, vocab, SCHEME, dev=dev)
    corpus.stop()
    train_s = sum(corpus.windows.wall_s)
    saves, loads = [], []
    for _ in range(SAVE_LOAD_REPEATS):
        t0 = time.perf_counter()
        mdl.save_model(path, config, result.params, vocab, SCHEME)
        t1 = time.perf_counter()
        loaded_config, params, loaded_vocab, scheme = mdl.load_model(path)
        loads.append(time.perf_counter() - t1)
        saves.append(t1 - t0)
    save_s, load_s = percentile(saves, 50), percentile(loads, 50)
    setup_s = train_s + save_s + load_s
    setup_reference_s = (corpus.windows.reference_s()
                         + (save_s + load_s) * corpus.windows.speeds[-1])

    checks.expect(loaded_config == config and loaded_vocab.words == vocab.words
                  and scheme == SCHEME, "set-up: checkpoint round trip changed "
                  "the config, vocabulary or labels")
    checks.expect(all(np.array_equal(params[n].data, t.data)
                      for n, t in result.params.items())
                  and sorted(params.names()) == sorted(result.params.names()),
                  "set-up: checkpoint round trip changed the parameters")
    tagger = dec.ModelTagger(loaded_config, params, loaded_vocab, scheme)
    outputs = [dec.tag_offline(seq.words, tagger) for seq in dev]
    punct_f1, disf_f1 = f1_scores(outputs, dev)
    checks.expect(punct_f1 >= DEV_PUNCT_FLOOR,
                  f"set-up: dev punct F1 {punct_f1:.4f} < {DEV_PUNCT_FLOOR}")
    checks.expect(len(corpus.stamps) == result.steps_run,
                  f"set-up: {len(corpus.stamps)} steps stamped for "
                  f"{result.steps_run} run")
    return Model(loaded_config, params, loaded_vocab, tagger, setup_s,
                 setup_reference_s, train_s, save_s * 1e3, load_s * 1e3,
                 punct_f1, disf_f1)


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

MODEL_FNS = ("predict", "forward", "encoder_forward", "heads_forward",
             "sinusoidal_positions")
TRAIN_PER_STEP = (("training.batch_gradients", "self"),
                  ("model.forward.taped", "incl"),
                  ("numcore.backward", "incl"),
                  ("training.clip_gradients", "incl"),
                  ("training.Adam.step", "incl"),
                  ("data.truncation_augment", "incl"),
                  ("data.encode", "incl"),
                  ("evaluation.score", "incl"))


class SpanTable:
    """Self time, inclusive time and calls per span name."""

    def __init__(self, tracer):
        self.names = tracer.names
        nid, parent, start, end = tracer.arrays()
        n = len(tracer.names)
        self.self_s = totals_by_name(nid, self_times(parent, start, end), n)
        self.incl_s = totals_by_name(nid, end - start, n)
        self.calls = totals_by_name(nid, np.ones(len(nid)), n)

    def get(self, column, name):
        """Total over spans `name` and, for model.forward, its taped calls."""
        values = getattr(self, column)
        return float(sum(values[i] for i, nm in enumerate(self.names)
                         if nm == name or nm == name + ".taped"))

    def numcore(self, column):
        values = getattr(self, column)
        return float(sum(values[i] for i, nm in enumerate(self.names)
                         if nm.startswith("numcore.") and nm != "numcore.backward"))

    def as_dict(self):
        return {nm: {"self_s": float(self.self_s[i]), "incl_s": float(self.incl_s[i]),
                     "calls": int(self.calls[i])}
                for i, nm in enumerate(self.names) if self.calls[i]}


def per_layer_metrics(tracer, words, model, overhead, *, steps=0, revisions=0,
                      mask_misses=0):
    """Every per-layer metric; layers a workload never calls read 0."""
    table = SpanTable(tracer)
    us = 1e6 / words
    m = {
        "decoding.stream_step.us_per_word":
            table.get("self_s", "decoding.stream_step") * us,
        "decoding.ModelTagger.tag.us_per_word":
            table.get("self_s", "decoding.ModelTagger.tag") * us,
        "decoding.positions_per_word": tracer.tag_positions / words,
        "decoding.buffer_words.mean":
            tracer.tag_positions / tracer.tag_calls if tracer.tag_calls else 0.0,
        "decoding.buffer_words.max": float(tracer.tag_max_words),
        "decoding.revisions": revisions / words,
        "masks.build_ct_mask.us_per_word":
            table.get("self_s", "masks.build_ct_mask") * us,
        "masks.build_ct_mask.misses": float(mask_misses),
    }
    m.update({f"model.{fn}.us_per_word": table.get("self_s", f"model.{fn}") * us
              for fn in MODEL_FNS})
    matmul = table.get("self_s", "numcore.matmul")
    softmax = table.get("self_s", "numcore.masked_softmax_rows")
    norm = table.get("self_s", "numcore.layer_norm")
    m.update({
        "numcore.ops_per_word": table.numcore("calls") / words,
        "numcore.matmul.calls_per_word": table.get("calls", "numcore.matmul") / words,
        "numcore.matmul.us_per_word": matmul * us,
        "numcore.masked_softmax_rows.us_per_word": softmax * us,
        "numcore.layer_norm.us_per_word": norm * us,
        "numcore.other.us_per_word": (table.numcore("self_s") - matmul - softmax
                                      - norm) * us,
    })
    ms = 1e3 / steps if steps else 0.0
    for name, column in TRAIN_PER_STEP:
        key = name.replace(".taped", "") + ".ms_per_step"
        m[key] = table.get(column + "_s", name) * ms
    m["numcore.tape_entries_per_step"] = tracer.tape_entries / steps if steps else 0.0
    m["training.train.s"] = model.train_s
    m["model.save_model.ms"] = model.save_ms
    m["model.load_model.ms"] = model.load_ms
    m["trace.overhead_s"] = overhead[0]
    m["trace.overhead_ratio"] = overhead[1]
    return m, table


# ---------------------------------------------------------------------------
# stream: one closed-loop 50k-word stream through stream_step
# ---------------------------------------------------------------------------


def stream_inputs(seed):
    """Concatenated travel utterances with their gold labels, aligned word
    by word. For seed 0 the first 50k words are criterion 9's stream."""
    words, punct, disf = [], [], []
    synth_seed = 900 + 100 * seed
    while len(words) < STREAM_WORDS:
        for seq in dt.synth_generate(synth_seed, 2000, GRAMMAR):
            words += seq.words
            punct += seq.punct
            disf += seq.disf
        synth_seed += 1
    return words[:STREAM_WORDS], punct[:STREAM_WORDS], disf[:STREAM_WORDS]


@dataclass
class StreamRun:
    state: object
    fed: int
    step_s: list
    emissions: list     # (words fed after the step, state.offset before it, triples)
    tail: list          # what finish() returned
    windows: Windows

    @property
    def units(self):
        return len(self.step_s)

    @property
    def wall_s(self):
        """Wall time of the loop, `finish` included and probes left out."""
        return sum(self.windows.wall_s)


def stream_loop(tagger, frames, policy, seconds=None, max_frames=None, probe=None):
    """Feed frames to stream_step as fast as it returns, then finish().

    Stops after `max_frames` frames, or after the first step that ends past
    `seconds`, or at the end of the input. With a `probe`, the machine's
    speed is measured before the first step, about every PROBE_EVERY_S, and
    after `finish`."""
    frames = frames if max_frames is None else frames[:max_frames]
    state = dec.StreamState()
    step_s, emissions = [], []
    windows = Windows([0], [], [probe.measure() if probe else 1.0])
    fed = 0
    perf = time.perf_counter
    begin = window_start = perf()
    deadline = math.inf if seconds is None else begin + seconds
    for frame in frames:
        offset = state.offset
        t0 = perf()
        out = dec.stream_step(state, frame, tagger, policy)
        t1 = perf()
        fed += len(frame)
        step_s.append(t1 - t0)
        if out:
            emissions.append((fed, offset, out))
        if t1 >= deadline:
            break
        if probe is not None and t1 - window_start >= PROBE_EVERY_S:
            windows.wall_s.append(perf() - window_start)
            windows.speeds.append(probe.measure())
            windows.first.append(len(step_s))
            window_start = perf()
    tail = dec.finish(state, tagger)
    windows.wall_s.append(perf() - window_start)
    windows.speeds.append(probe.measure() if probe else 1.0)
    return StreamRun(state, fed, step_s, emissions, tail, windows)


def emission_delays(emissions):
    """Words fed after each word before stream_step froze it."""
    return [fed - (offset + k) - 1
            for fed, offset, out in emissions for k in range(len(out))]


def check_emissions(run, words, policy, checks):
    """Order, finality and emission-rule checks that need no model."""
    emitted = run.state.emitted
    checks.expect([w for w, _, _ in emitted] == words[:run.fed],
                  "stream: emitted words differ from the words fed")
    returned = [t for _, _, out in run.emissions for t in out] + list(run.tail)
    checks.expect(returned == emitted,
                  "stream: stream_step/finish returns differ from state.emitted")
    done = 0
    for fed, offset, out in run.emissions:
        last = offset + len(out) - 1
        checks.expect(offset == done, f"stream: emission at word {offset} "
                      f"does not continue the previous one at {done}")
        checks.expect(out[-1][1] in policy.eos_labels,
                      f"stream: emission ending at word {last} has no end mark")
        checks.expect(fed - last - 1 >= policy.lookahead_words,
                      f"stream: word {last} frozen after {fed - last - 1} "
                      f"look-ahead words")
        done += len(out)


class StreamWorkload:
    name = "stream"

    def __init__(self, model, seed):
        self.model, self.seed = model, seed
        self.words, self.punct, self.disf = stream_inputs(seed)
        self.frames = [self.words[i:i + POLICY.frame_rate]
                       for i in range(0, len(self.words), POLICY.frame_rate)]
        # untimed warm-up on a stream of its own, so that first-call costs
        # (mask cache misses at new buffer sizes) fall outside the timing
        stream_loop(model.tagger, self.frames, POLICY, max_frames=WARMUP_FRAMES)

    def run(self, seconds=None, units=None, probe=None):
        return stream_loop(self.model.tagger, self.frames, POLICY, seconds, units,
                           probe)

    def counts(self, run):
        return len(run.step_s) + 1, 0  # stream_step calls plus finish

    def check(self, run, checks):
        if not checks.expect(len(self.words) == len(self.punct) == len(self.disf),
                             "stream: gold labels not aligned with the words"):
            return
        check_emissions(run, self.words, POLICY, checks)
        rng = random.Random(self.seed)
        horizon = effective_lookahead(self.model.config.mask_spec)
        for fed, offset, out in rng.sample(run.emissions,
                                           min(IDENTITY_SAMPLES, len(run.emissions))):
            where = f"stream step ending at word {fed}"
            check_labels_match_model(self.words[offset:fed], [p for _, p, _ in out],
                                     [d for _, _, d in out], self.model, checks, where)
            # the emitted sentence's last word, with the stream's next words
            i = len(out) - 1
            check_lookahead(self.words[offset:offset + i + horizon + 1
                                       + IDENTITY_EXTRA_WORDS],
                            i, self.model, checks, where)
        punct_f1, disf_f1 = self.f1(run)
        checks.expect(punct_f1 >= STREAM_PUNCT_FLOOR,
                      f"stream: punct F1 {punct_f1:.4f} < {STREAM_PUNCT_FLOOR}")
        checks.expect(disf_f1 >= STREAM_DISF_FLOOR,
                      f"stream: disfluency F1 {disf_f1:.4f} < {STREAM_DISF_FLOOR}")

    def f1(self, run):
        n = len(run.state.emitted)
        gold = list(zip(self.words[:n], self.punct[:n], self.disf[:n]))
        return f1_scores([as_sequence(run.state.emitted)], [as_sequence(gold)])

    def end_to_end(self, run):
        punct_f1, disf_f1 = self.f1(run)
        delays = emission_delays(run.emissions)
        ms = [s * 1e3 for s in run.step_s]
        reference_ms = [s * 1e3 for s in run.windows.scale(run.step_s)]
        report = {
            "stream_words_per_s": (run.fed / run.wall_s, "words/s"),
            "stream_step_p50_ms": (percentile(ms, 50), "ms"),
            "stream_step_p90_ms": (percentile(ms, 90), "ms"),
            "stream_step_p99_ms": (percentile(ms, 99), "ms"),
            "stream_delay_p50_words": (percentile(delays or [math.nan], 50), "words"),
            "stream_delay_p99_words": (percentile(delays or [math.nan], 99), "words"),
            "stream_punct_f1": (punct_f1, "F1"),
            "stream_disf_f1": (disf_f1, "F1"),
            "stream_steps": (len(ms), "count"),
        }
        return {
            "words_per_s": run.fed / run.windows.reference_s(),
            "call_p50_ms": percentile(reference_ms, 50),
            "punct_f1": punct_f1,
            "disf_f1": disf_f1,
        }, report

    def per_layer(self, tracer, run, mask_misses, overhead):
        return per_layer_metrics(tracer, run.fed, self.model, overhead,
                                 mask_misses=mask_misses,
                                 revisions=len(run.state.revision_log))


# ---------------------------------------------------------------------------
# train: short training runs from scratch, batch 8, augmentation, dev eval
# ---------------------------------------------------------------------------


@dataclass
class TrainRun:
    wall_s: float
    results: list
    clocks: list        # one StepClock per round

    @property
    def units(self):
        return len(self.results)

    @property
    def train_s(self):
        """Time inside `train`, probes left out."""
        return sum(sum(c.windows.wall_s) for c in self.clocks)

    @property
    def words(self):
        return sum(c.words for c in self.clocks)

    @property
    def step_s(self):
        return [s for c in self.clocks for s in c.step_s]


class TrainWorkload:
    name = "train"

    def __init__(self, model, seed):
        self.model, self.seed = model, seed
        self.corpus = dt.synth_generate(f"train/{seed}", TRAIN_CORPUS, GRAMMAR)
        self.dev = dt.synth_generate(f"train-dev/{seed}", TRAIN_DEV, GRAMMAR)
        self.vocab = dt.Vocabulary.from_corpus(self.corpus, min_freq=2)
        self.config = cli_model_config(self.vocab)
        self.train_config = tr.TrainConfig(max_steps=TRAIN_STEPS,
                                           eval_every=TRAIN_EVAL_EVERY, seed=seed)

    def run(self, seconds=None, units=None, probe=None):
        """Training rounds, each on a StepClock with the `probe`."""
        results, clocks = [], []
        perf = time.perf_counter
        begin = perf()
        while True:
            clock = StepClock(self.corpus, self.train_config.batch_size, probe)
            clock.start()
            result = tr.train(clock, self.train_config, self.config, self.vocab,
                              SCHEME, dev=self.dev)
            clock.stop()
            clocks.append(clock)
            results.append(result)
            # two rounds at least, so the same-seed runs can be compared
            if len(results) >= 2 and ((units is not None and len(results) >= units)
                                      or (units is None and perf() - begin >= seconds)):
                break
        return TrainRun(perf() - begin, results, clocks)

    def counts(self, run):
        return sum(r.steps_run for r in run.results), 0

    def check(self, run, checks):
        steps_seen = [len(c.stamps) for c in run.clocks]
        checks.expect(steps_seen == [r.steps_run for r in run.results],
                      f"train: {steps_seen} steps stamped for "
                      f"{[r.steps_run for r in run.results]} run; training no "
                      "longer reads the corpus one sequence at a time")
        first = run.results[0]
        for k, r in enumerate(run.results[1:], 1):
            checks.expect(all(np.array_equal(r.params[n].data, t.data)
                              for n, t in first.params.items()),
                          f"train: round {k} params differ from round 0 with "
                          "the same seed")
        checks.expect(all(np.all(np.isfinite(t.data)) for _, t in first.params.items()),
                      "train: non-finite parameters")
        losses = [first.initial_loss] + [h[1] for h in first.history]
        head, tail = np.mean(losses[:2]), np.mean(losses[-2:])
        checks.expect(tail < head, f"train: loss rose from {head:.4f} to {tail:.4f}")
        self.check_gradient(first.params, checks)

    def check_gradient(self, params, checks):
        """Central finite difference of the joint loss along a random
        direction against batch_gradients."""
        batch = self.corpus[:FD_BATCH]
        _, grads = tr.batch_gradients(batch, self.config, params, self.vocab, SCHEME)
        rng = np.random.default_rng(self.seed)
        direction = {n: rng.standard_normal(t.shape) for n, t in params.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        direction = {n: d / norm for n, d in direction.items()}
        analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items())

        def loss_at(sign):
            shifted = params.copy()
            for n, d in direction.items():
                shifted[n] = mdl.Tensor(params[n].data + sign * FD_STEP * d)
            total = 0.0
            for seq in batch:
                ids, p_ids, d_ids = dt.encode(seq, self.vocab, SCHEME)
                p, d = mdl.forward(ids, self.config, shifted)
                total += tr.joint_loss(p, d, p_ids, d_ids).item()
            return total / len(batch)

        numeric = (loss_at(1) - loss_at(-1)) / (2 * FD_STEP)
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
        checks.expect(err < FD_TOLERANCE,
                      f"train: directional derivative {analytic:.8g} vs finite "
                      f"difference {numeric:.8g} (relative error {err:.2e})")

    def end_to_end(self, run):
        ms = [s * 1e3 for s in run.step_s]
        reference_ms = [s * 1e3 for c in run.clocks for s in c.windows.scale(c.step_s)]
        reference_s = sum(c.windows.reference_s() for c in run.clocks)
        report = {
            "train_words_per_s": (run.words / run.train_s, "words/s"),
            "train_ms_per_step": (run.train_s * 1e3 / len(ms), "ms"),
            "train_step_p50_ms": (percentile(ms, 50), "ms"),
            "train_step_p90_ms": (percentile(ms, 90), "ms"),
            "train_dev_punct_f1": (self.model.dev_punct_f1, "F1"),
            "train_steps": (len(ms), "count"),
        }
        return {
            "words_per_s": run.words / reference_s,
            "call_p50_ms": percentile(reference_ms, 50),
            "punct_f1": self.model.dev_punct_f1,
            "disf_f1": self.model.dev_disf_f1,
        }, report

    def per_layer(self, tracer, run, mask_misses, overhead):
        return per_layer_metrics(tracer, run.words, self.model, overhead,
                                 steps=len(run.step_s), mask_misses=mask_misses)


WORKLOADS = {w.name: w for w in (StreamWorkload, TrainWorkload)}


def mask_misses():
    return build_ct_mask.cache_info().misses

