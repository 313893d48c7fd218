"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with `PYTHONPATH=src python -m pytest perfbench`.
"""

import json
import os
import time

import numpy as np
import pytest

import puncstream
from puncstream import data as dt
from puncstream import decoding as dec
from puncstream import model as mdl
from puncstream.masks import MaskSpec

import spans
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)[kind]}


# ---------------------------------------------------------------------------
# percentiles and self time
# ---------------------------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert wl.percentile(xs, 0) == 1.0
    assert wl.percentile(xs, 50) == 2.5
    assert wl.percentile(xs, 90) == pytest.approx(3.7)   # rank 2.7 of 0..3
    assert wl.percentile(xs, 100) == 4.0
    assert wl.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        wl.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    got = spans.self_times(parent, start, end)
    assert got.tolist() == [3.0, 2.0, 1.0, 4.0]
    name_id = np.array([0, 1, 1, 2])
    assert spans.totals_by_name(name_id, got, 3).tolist() == [3.0, 3.0, 4.0]


def test_tracer_records_nesting_and_survives_exceptions():
    tracer = spans.Tracer()

    def leaf():
        return 1

    def fails():
        raise KeyError("x")

    leaf_t = tracer.wrap("leaf", leaf)
    fails_t = tracer.wrap("fails", fails)

    def outer():
        leaf_t()
        with pytest.raises(KeyError):
            fails_t()
        return leaf_t()

    assert tracer.wrap("outer", outer)() == 1
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["outer", "leaf", "fails", "leaf"]
    assert parent.tolist() == [-1, 0, 0, 0]
    assert np.all(end >= start)
    own = spans.self_times(parent, start, end)
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_install_wraps_by_calling_name_and_uninstall_restores():
    original_ct = mdl.build_ct_mask
    original_tag = dec.ModelTagger.tag
    tracer = spans.Tracer()
    tracer.install(puncstream)
    try:
        assert mdl.build_ct_mask is not original_ct
        assert dec.ModelTagger.tag is not original_tag
        config = mdl.ModelConfig(12, 8, 2, 2, 16, MaskSpec((0, 3)), 4, 5)
        params = mdl.init_params(config, np.random.default_rng(0))
        mdl.predict([2, 3, 4], config, params)
    finally:
        tracer.uninstall()
    assert mdl.build_ct_mask is original_ct
    assert dec.ModelTagger.tag is original_tag
    names = {tracer.names[i] for i in tracer.arrays()[0]}
    assert {"model.predict", "model.forward", "model.encoder_forward",
            "masks.build_ct_mask", "numcore.matmul"} <= names


# ---------------------------------------------------------------------------
# stream emissions
# ---------------------------------------------------------------------------

class _FifthWordStub:
    """Marks every fifth buffered word with PERIOD."""

    def tag(self, words):
        punct = ["PERIOD" if (i + 1) % 5 == 0 else "O" for i in range(len(words))]
        return punct, ["O"] * len(words)


def _stub_run(frame_rate=3, lookahead=2):
    words = [f"w{i + 1}" for i in range(12)]
    policy = dec.DecodePolicy(frame_rate=frame_rate, lookahead_words=lookahead)
    frames = [words[i:i + frame_rate] for i in range(0, len(words), frame_rate)]
    return words, policy, wl.stream_loop(_FifthWordStub(), frames, policy)


def test_emission_delays_match_hand_trace():
    # frame 3, look-ahead 2: w1..w5 are frozen once 9 words are in, w6..w10
    # once 12 are in; w11, w12 are flushed by finish()
    _, _, run = _stub_run()
    assert [(fed, offset, len(out)) for fed, offset, out in run.emissions] == \
        [(9, 0, 5), (12, 5, 5)]
    assert wl.emission_delays(run.emissions) == [8, 7, 6, 5, 4, 6, 5, 4, 3, 2]
    assert len(run.tail) == 2


def test_check_emissions_accepts_decoder_and_rejects_tampering():
    words, policy, run = _stub_run()
    checks = wl.Checks()
    wl.check_emissions(run, words, policy, checks)
    assert checks.correct, checks.failures

    checks = wl.Checks()
    strict = dec.DecodePolicy(frame_rate=3, lookahead_words=5)
    wl.check_emissions(run, words, strict, checks)   # froze w10 after 2 words
    assert not checks.correct

    run.state.emitted[3] = ("w4", "COMMA", "O")
    checks = wl.Checks()
    wl.check_emissions(run, words, policy, checks)
    assert any("state.emitted" in f for f in checks.failures)


class _FixedProbe:
    """Reports speed 2 and takes `pause` seconds to do so."""

    def __init__(self, pause=0.0):
        self.pause = pause
        self.speeds = []

    def measure(self):
        time.sleep(self.pause)
        self.speeds.append(2.0)
        return 2.0


def test_stream_loop_probes_before_after_and_between_windows(monkeypatch):
    monkeypatch.setattr(wl, "PROBE_EVERY_S", 0.0)   # a window per step
    words, policy, _ = _stub_run()
    frames = [words[i:i + 3] for i in range(0, len(words), 3)]
    probe = _FixedProbe()
    run = wl.stream_loop(_FifthWordStub(), frames, policy, probe=probe)
    # four steps, then a last window that holds only finish()
    assert run.windows.first == [0, 1, 2, 3, 4]
    assert len(run.windows.wall_s) == 5
    assert run.windows.speeds == probe.speeds == [2.0] * 6
    assert run.windows.reference_s() == pytest.approx(2 * run.wall_s)
    assert run.windows.scale(run.step_s) == [2 * s for s in run.step_s]


def test_step_clock_leaves_probe_time_out_of_the_steps(monkeypatch):
    monkeypatch.setattr(wl, "PROBE_EVERY_S", 0.0)   # a probe at every step
    probe = _FixedProbe(pause=0.02)
    clock = wl.StepClock(dt.synth_generate(1, 6, wl.GRAMMAR), 2, probe)
    clock.start()
    for i in range(6):
        clock[i]
    clock.stop()
    # window 0 holds what precedes the first step; then one per step
    assert len(clock.stamps) == 3
    assert clock.windows.first == [0, 0, 1, 2]
    assert len(clock.windows.wall_s) == 4 and len(probe.speeds) == 5
    assert all(s < probe.pause for s in clock.step_s)
    assert sum(clock.windows.wall_s) < probe.pause
    assert clock.windows.scale(clock.step_s) == [2 * s for s in clock.step_s]


def test_windows_scale_by_the_mean_of_the_probes_around_each():
    # steps 0 and 1 in window 0 (speeds 1.0, 0.5), step 2 in window 1 (0.5, 1.5)
    windows = wl.Windows([0, 2], [3.0, 2.0], [1.0, 0.5, 1.5])
    assert (windows.speed(0), windows.speed(1)) == (0.75, 1.0)
    assert windows.reference_s() == 3.0 * 0.75 + 2.0 * 1.0
    assert windows.scale([1.0, 2.0, 4.0]) == [0.75, 1.5, 4.0]


def test_speed_probe_runs_for_its_length_and_records_each_speed():
    probe = wl.SpeedProbe()
    t0 = time.perf_counter()
    speed = probe.measure()
    assert time.perf_counter() - t0 >= wl.PROBE_S
    assert speed > 0 and probe.speeds == [speed]


# ---------------------------------------------------------------------------
# gold labels
# ---------------------------------------------------------------------------

def test_stream_gold_labels_stay_aligned_with_words():
    words, punct, disf = wl.stream_inputs(0)
    assert len(words) == len(punct) == len(disf) == wl.STREAM_WORDS
    pos = 0
    for seq in dt.synth_generate(900, 2000, wl.GRAMMAR):
        if pos + len(seq.words) > len(words):
            break
        assert words[pos:pos + len(seq.words)] == seq.words
        assert punct[pos:pos + len(seq.words)] == seq.punct
        assert disf[pos:pos + len(seq.words)] == seq.disf
        pos += len(seq.words)
    assert pos > 20_000


def test_labels_shifted_by_one_fall_below_the_floors():
    words, punct, disf = (x[:3000] for x in wl.stream_inputs(1))
    gold = [wl.as_sequence(zip(words, punct, disf))]
    assert wl.f1_scores(gold, gold) == (1.0, 1.0)
    shifted = wl.as_sequence(zip(words, ["O"] + punct[:-1], ["O"] + disf[:-1]))
    punct_f1, disf_f1 = wl.f1_scores([shifted], gold)
    assert punct_f1 < wl.STREAM_PUNCT_FLOOR
    assert disf_f1 < wl.STREAM_DISF_FLOOR


# ---------------------------------------------------------------------------
# model checks and metric names, on a small random model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_model():
    corpus = dt.synth_generate(1, 200, wl.GRAMMAR)
    vocab = dt.Vocabulary.from_corpus(corpus)
    config = mdl.ModelConfig(len(vocab), 8, 2, 2, 16, MaskSpec((0, 3)), 4, 5)
    params = mdl.init_params(config, np.random.default_rng(0))
    tagger = dec.ModelTagger(config, params, vocab, wl.SCHEME)
    return wl.Model(config, params, vocab, tagger, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.6)


def test_model_checks_pass_on_model_and_fail_on_shifted_labels(small_model):
    words = dt.synth_generate(2, 10, wl.GRAMMAR)
    words = [w for seq in words for w in seq.words][:40]
    punct, disf = small_model.tagger.tag(words)
    checks = wl.Checks()
    wl.check_labels_match_model(words, punct, disf, small_model, checks, "doc")
    wl.check_lookahead(words, 10, small_model, checks, "doc")
    assert checks.correct, checks.failures
    assert len(checks.cut) == 1
    wl.check_labels_match_model(words, punct[1:] + ["O"], disf, small_model,
                                checks, "doc")
    assert len(checks.failures) == 1


def test_stream_workload_reports_every_benchmark_metric(small_model):
    workload = wl.StreamWorkload(small_model, 0)
    run = workload.run(units=40)
    assert run.units == 40 and run.fed == 120
    metrics, _ = workload.end_to_end(run)
    assert set(metrics) | {"setup_s"} == benchmark_names("end_to_end")
    tracer = spans.Tracer()
    tracer.install(puncstream)
    try:
        traced = workload.run(units=40)
    finally:
        tracer.uninstall()
    layers, _ = workload.per_layer(tracer, traced, 0, (0.1, 1.1))
    assert set(layers) == benchmark_names("per_layer")
    assert layers["decoding.positions_per_word"] >= 1.0
    assert layers["numcore.matmul.calls_per_word"] > 0
