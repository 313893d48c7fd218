import contextlib
import io
import os
import signal
import struct
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (every_weight, fill_tensor, random_bundle, rewrite_config_line, seal,
                      small_config)
from puncstream import cli
from puncstream import data as dt
from puncstream import decoding as dec
from puncstream import model as mdl
from puncstream import numcore as nc
from puncstream import training as tr


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        code, _, _ = run(["synth", "--seed", "5", "--count", "40",
                          "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_different_seeds_differ(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    run(["synth", "--seed", "1", "--count", "40", "--out", str(a)], capsys)
    run(["synth", "--seed", "2", "--count", "40", "--out", str(b)], capsys)
    assert a.read_bytes() != b.read_bytes()


def test_full_pipeline_synth_train_tag_eval(tmp_path, capsys):
    corpus = tmp_path / "train.tsv"
    gold = tmp_path / "gold.tsv"
    ckpt = tmp_path / "model.ctt"
    pred = tmp_path / "pred.tsv"

    code, _, _ = run(["synth", "--seed", "3", "--count", "120",
                      "--out", str(corpus)], capsys)
    assert code == 0
    code, _, _ = run(["synth", "--seed", "4", "--count", "20",
                      "--out", str(gold)], capsys)
    assert code == 0

    code, out, err = run(
        ["train", "--corpus", str(corpus), "--out", str(ckpt), "--seed", "0",
         "--set", "max_steps=25", "--set", "d_model=8", "--set", "n_layers=2",
         "--set", "n_heads=2", "--set", "d_ff=16", "--set", "lookahead=0,9"],
        capsys)
    assert code == 0, err
    assert "trained 25 steps" in out
    assert ckpt.exists()

    code, _, err = run(["tag", "--checkpoint", str(ckpt), "--input", str(gold),
                        "--out", str(pred)], capsys)
    assert code == 0, err
    pred_seqs = dt.parse_corpus(pred, strict_bio=False)
    gold_seqs = dt.parse_corpus(gold)
    assert len(pred_seqs) == len(gold_seqs)
    assert all(p.words == g.words for p, g in zip(pred_seqs, gold_seqs))

    code, out, _ = run(["eval", "--pred", str(pred), "--gold", str(gold),
                        "--dump"], capsys)
    assert code == 0
    assert "OVERALL" in out
    assert "punct.overall.f1=" in out


def test_eval_perfect_prediction_scores_one(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    run(["synth", "--seed", "6", "--count", "15", "--out", str(gold)], capsys)
    code, out, _ = run(["eval", "--pred", str(gold), "--gold", str(gold),
                        "--dump"], capsys)
    assert code == 0
    assert "punct.overall.f1=1.000000" in out
    assert "disf.either.f1=1.000000" in out


def test_tag_to_stdout(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "7", "--count", "60", "--out", str(corpus)], capsys)
    run(["train", "--corpus", str(corpus), "--out", str(ckpt),
         "--set", "max_steps=5", "--set", "d_model=8", "--set", "n_layers=1",
         "--set", "d_ff=16", "--set", "lookahead=9"], capsys)
    code, out, _ = run(["tag", "--checkpoint", str(ckpt),
                        "--input", str(corpus)], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(len(ln.split("\t")) == 3 for ln in lines)


def test_stream_reads_stdin(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "8", "--count", "60", "--out", str(corpus)], capsys)
    run(["train", "--corpus", str(corpus), "--out", str(ckpt),
         "--set", "max_steps=5", "--set", "d_model=8", "--set", "n_layers=1",
         "--set", "d_ff=16", "--set", "lookahead=9"], capsys)
    words = "i want a flight to boston i need a car to denver"
    monkeypatch.setattr("sys.stdin", io.StringIO(words + "\n"))
    code, out, err = run(["stream", "--checkpoint", str(ckpt),
                          "--frame-rate", "3", "--lookahead-words", "2"],
                         capsys)
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln]
    assert [ln.split("\t")[0] for ln in lines] == words.split()


def test_bench_prints_histogram(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "9", "--count", "40", "--out", str(corpus)], capsys)
    run(["train", "--corpus", str(corpus), "--out", str(ckpt),
         "--set", "max_steps=5", "--set", "d_model=8", "--set", "n_layers=1",
         "--set", "d_ff=16", "--set", "lookahead=9"], capsys)
    bench_in = tmp_path / "bench.tsv"
    run(["synth", "--seed", "10", "--count", "10", "--out", str(bench_in)],
        capsys)
    code, out, _ = run(["bench", "--checkpoint", str(ckpt),
                        "--corpus", str(bench_in), "--runs", "1"], capsys)
    assert code == 0
    assert "total_seconds\t" in out
    assert "words_per_second\t" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    run(["synth", "--seed", "11", "--count", "10", "--out", str(corpus)],
        capsys)
    code, _, err = run(["train", "--corpus", str(corpus),
                        "--out", str(tmp_path / "m.ctt"),
                        "--set", "learning_rate=0.1"], capsys)
    assert code == 1
    assert "unknown config key" in err


def test_config_file_merge_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nd_model=16\nmax_steps=50\n")
    cfg = cli.load_run_config(str(cfg_file), ["max_steps=10"])
    assert cfg["d_model"] == 16
    assert cfg["max_steps"] == 10          # --set wins over the file
    assert cfg["n_layers"] == 4            # untouched default
    with pytest.raises(cli.ConfigError, match="expected key=value"):
        cli.load_run_config(None, ["oops"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("d_model=abc\n")
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.load_run_config(str(bad))
    bad.write_text("# comment\nd_model 16\n")
    with pytest.raises(cli.ConfigError, match="bad.cfg:2: expected key=value"):
        cli.load_run_config(str(bad))


def test_missing_file_exits_1(capsys):
    code, _, err = run(["tag", "--checkpoint", "/nonexistent.ctt",
                        "--input", "/nonexistent.tsv"], capsys)
    assert code == 1
    assert "error:" in err


def test_tag_with_zero_head_checkpoint_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "12", "--count", "20", "--out", str(corpus)], capsys)
    run(["train", "--corpus", str(corpus), "--out", str(ckpt),
         "--set", "max_steps=1", "--set", "d_model=8", "--set", "n_layers=1",
         "--set", "d_ff=16", "--set", "lookahead=9"], capsys)
    raw = ckpt.read_bytes()
    assert raw.count(b"\nn_heads=2\n") == 1
    ckpt.write_bytes(raw.replace(b"\nn_heads=2\n", b"\nn_heads=0\n"))
    code, out, err = run(["tag", "--checkpoint", str(ckpt),
                          "--input", str(corpus)], capsys)
    assert code == 1
    assert err.startswith("error:") and "n_heads must be positive" in err
    assert "Traceback" not in err and out == ""


def test_tag_with_empty_label_names_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "m.ctt"
    corpus = tmp_path / "c.tsv"
    corpus.write_text("i\nwant\n\n")
    golden = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")
    with open(golden, "rb") as f:
        ckpt.write_bytes(f.read())
    rewrite_config_line(ckpt, b"punct_labels", b"")
    code, out, err = run(["tag", "--checkpoint", str(ckpt),
                          "--input", str(corpus)], capsys)
    assert code == 1
    assert err.startswith("error:") and "label O" in err
    assert "Traceback" not in err and out == ""


def test_train_on_word_with_whitespace_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("i\tO\tO\nnew york\tPERIOD\tO\n\n")
    code, out, err = run(["train", "--corpus", str(corpus),
                          "--out", str(tmp_path / "m.ctt")], capsys)
    assert code == 1
    assert err.startswith("error:") and "c.tsv:2" in err
    assert not (tmp_path / "m.ctt").exists()


def test_train_on_mixed_labeled_and_unlabeled_lines_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("i\tO\tO\nwant\nflights\tPERIOD\tO\n\n")
    code, out, err = run(["train", "--corpus", str(corpus),
                          "--out", str(tmp_path / "m.ctt")], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: {corpus}:2: mixed labeled and unlabeled lines"]
    assert not (tmp_path / "m.ctt").exists()


@pytest.mark.parametrize("dev_text", ["", "\n  \n\n"])
def test_train_with_an_empty_dev_file_exits_1(tmp_path, capsys, dev_text):
    corpus, dev = tmp_path / "c.tsv", tmp_path / "dev.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "15", "--count", "10", "--out", str(corpus)],
        capsys)
    dev.write_text(dev_text)
    code, out, err = run(["train", "--corpus", str(corpus), "--dev", str(dev),
                          "--out", str(ckpt), "--set", "max_steps=6",
                          "--set", "eval_every=2"], capsys)
    assert code == 1
    assert err.startswith("error:") and "dev set is empty" in err
    assert "Traceback" not in err and out == ""
    assert not ckpt.exists()


def test_train_that_cannot_allocate_its_model_exits_1(tmp_path, capsys):
    # d_ff=10**12 asks for petabytes of parameters, which numpy refuses at
    # once; nothing of that size is ever allocated
    corpus, ckpt = tmp_path / "c.tsv", tmp_path / "m.ctt"
    run(["synth", "--seed", "15", "--count", "10", "--out", str(corpus)],
        capsys)
    code, out, err = run(["train", "--corpus", str(corpus), "--out", str(ckpt),
                          "--set", "d_ff=1000000000000"], capsys)
    assert code == 1
    assert err.startswith("error: out of memory: ") and "PiB" in err
    assert err.count("\n") == 1 and "Traceback" not in err and out == ""
    assert not ckpt.exists()


_FOUR_UTTERANCES = ("i\tO\tO\nwant\tO\tO\nflights\tPERIOD\tO\n\n"
                    "uh\tO\tB-IM\nyes\tPERIOD\tO\n\n"
                    "to\tO\tO\nto\tO\tO\nboston\tPERIOD\tO\n\n"
                    "hello\tCOMMA\tO\nthere\tQUESTION\tO\n\n")


@pytest.mark.parametrize("setting, message", [
    # counts above sys.maxsize, refused before the first step: a warm-up too
    # long for a float, and more gradient rows than a mapping can hold
    ("warmup_steps=1" + "0" * 400, "warmup_steps must be <= "),
    ("batch_size=1" + "0" * 30, "batch_size must be <= "),
    # below sys.maxsize, but too many rows for a mapping's C size
    ("batch_size=1" + "0" * 15, "too large to convert"),
    # a C size, but more bytes than the address space: the kernel refuses
    # the mapping at once, so nothing is allocated
    ("batch_size=1" + "0" * 13, "out of memory: cannot map "),
    # a stream cap no buffer would ever reach, refused before the corpus is read
    ("max_positions=1" + "0" * 19, " is above 2048, the most a stored model may have"),
], ids=["warmup_steps=1e400", "batch_size=1e30", "batch_size=1e15",
        "batch_size=1e13", "max_positions=1e19"])
def test_train_with_an_astronomical_count_exits_1(tmp_path, capsys, setting,
                                                   message):
    corpus, ckpt = tmp_path / "c.tsv", tmp_path / "m.ctt"
    corpus.write_text(_FOUR_UTTERANCES)
    code, out, err = run(["train", "--corpus", str(corpus), "--out", str(ckpt),
                          "--set", "max_steps=1", "--set", setting], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not ckpt.exists()


# Never mid-sized values such as d_model=5000 or batch_size=1000000: those
# allocate gigabytes instead of failing.
_ANY_VALUE = st.one_of(
    st.integers(1, 12).map(str),
    st.sampled_from(["0", "0.5", "2.5", "1e-300", "nan", "inf", ""]),
    st.integers(max_value=-1).map(str),
    st.text(max_size=12),
    st.integers(10 ** 19, 10 ** 400).map(str),
)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(cli._DEFAULTS)), value=_ANY_VALUE)
@example(key="warmup_steps", value=str(10 ** 400))
@example(key="batch_size", value=str(10 ** 30))
@example(key="n_layers", value=str(10 ** 400))
def test_train_with_any_one_setting_exits_0_or_1_with_one_error_line(
        tmp_path_factory, key, value):
    # one step on four utterances, unless the step count is what is drawn
    root = tmp_path_factory.mktemp("setting")
    corpus, ckpt = root / "c.tsv", root / "m.ctt"
    corpus.write_text(_FOUR_UTTERANCES)
    argv = ["train", "--corpus", str(corpus), "--dev", str(corpus),
            "--out", str(ckpt), "--set", f"{key}={value}"]
    if key != "max_steps":
        argv += ["--set", "max_steps=1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == "" and ckpt.exists()
    else:
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) <= 240
        assert "Traceback" not in err.getvalue() and not ckpt.exists()


# Every --set/config-file key and its default, as the CLI has always had them.
_KEYS_AND_DEFAULTS = {
    "d_model": 32, "n_layers": 4, "n_heads": 2, "d_ff": 64,
    "lookahead": "0,0,0,9", "max_positions": 512, "min_freq": 2,
    "batch_size": 8, "warmup_steps": 400, "max_steps": 2000,
    "clip_norm": 1.0, "augment": True, "eval_every": 100,
}


def test_config_keys_and_defaults_unchanged():
    cfg = cli.load_run_config()
    assert cfg == _KEYS_AND_DEFAULTS
    assert [type(cfg[k]) for k in _KEYS_AND_DEFAULTS] == \
        [type(v) for v in _KEYS_AND_DEFAULTS.values()]


def test_config_values_parse_by_default_type():
    cfg = cli.load_run_config(None, ["clip_norm=2", "augment=OFF",
                                     "lookahead=1,2", "max_positions=64"])
    assert cfg["clip_norm"] == 2.0 and isinstance(cfg["clip_norm"], float)
    assert cfg["augment"] is False
    assert cfg["lookahead"] == "1,2"
    assert cfg["max_positions"] == 64
    for text in ("1", "true", "Yes", "on"):
        assert cli.load_run_config(None, [f"augment={text}"])["augment"] is True
    for text in ("0", "false", "No", "off"):
        assert cli.load_run_config(None, [f"augment={text}"])["augment"] is False
    with pytest.raises(cli.ConfigError, match="bad value for batch_size"):
        cli.load_run_config(None, ["batch_size=8.0"])


class _Captured(Exception):
    pass


def test_train_defaults_reach_the_library(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.tsv"
    run(["synth", "--seed", "13", "--count", "10", "--out", str(corpus)],
        capsys)
    calls = []

    def fake_train(corpus, config, model_config, vocab, scheme, **kw):
        calls.append((config, model_config, kw))
        raise _Captured

    monkeypatch.setattr(tr, "train", fake_train)
    with pytest.raises(_Captured):
        cli.main(["train", "--corpus", str(corpus),
                  "--out", str(tmp_path / "m.ctt")])
    (config, model_config, kw), = calls
    assert config == tr.TrainConfig(seed=0)
    assert (model_config.d_model, model_config.n_layers, model_config.n_heads,
            model_config.d_ff) == (32, 4, 2, 64)
    assert model_config.mask_spec.to_string() == "0,0,0,9"
    assert model_config.max_positions == 512
    assert kw == {"dev": None, "init_params": None}


def test_seed_is_a_flag_not_a_config_key(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    run(["synth", "--seed", "14", "--count", "10", "--out", str(corpus)],
        capsys)
    code, _, err = run(["train", "--corpus", str(corpus),
                        "--out", str(tmp_path / "m.ctt"),
                        "--set", "seed=1"], capsys)
    assert code == 1
    assert "unknown config key 'seed'" in err


@pytest.mark.parametrize("sets, dev, message", [
    (["max_steps=0"], False, "max_steps must be >= 1"),
    (["eval_every=0"], True, "eval_every must be >= 1"),
    (["batch_size=0", "augment=0"], False, "batch_size must be >= 1"),
    (["augment=ture"], False, "bad value for augment: 'ture'"),
    (["clip_norm=nan"], False, "clip_norm must be finite and > 0, got nan"),
    (["clip_norm=inf"], False, "clip_norm must be finite and > 0, got inf"),
    (["min_freq=0"], False, "min_freq must be >= 1, got 0"),
])
def test_train_rejects_bad_settings(tmp_path, capsys, sets, dev, message):
    corpus = tmp_path / "c.tsv"
    ckpt = tmp_path / "m.ctt"
    run(["synth", "--seed", "15", "--count", "10", "--out", str(corpus)],
        capsys)
    argv = ["train", "--corpus", str(corpus), "--out", str(ckpt),
            "--set", "max_steps=2", "--set", "d_model=8", "--set", "n_layers=1",
            "--set", "d_ff=16", "--set", "lookahead=9"]
    if dev:
        argv += ["--dev", str(corpus)]
    for item in sets:
        argv += ["--set", item]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and out == ""
    assert not ckpt.exists()


@pytest.mark.parametrize("sets, lines, named", [
    (["d_model=16"], None, "--set: d_model"),
    (["max_steps=2", "lookahead=0,9", "n_heads=1"], None, "--set: lookahead"),
    ([], "max_positions=64\nmin_freq=1\n", "run.cfg:1: max_positions"),
    (["d_ff=64"], "# sizes\nn_layers=3\n", "run.cfg:2: n_layers"),
])
def test_train_with_init_checkpoint_refuses_model_settings(tmp_path, capsys,
                                                          sets, lines, named):
    # the checkpoint fixes the model and its vocabulary; a setting of either
    # would be ignored, so it is refused before anything is read or trained
    corpus, ckpt, out = tmp_path / "c.tsv", tmp_path / "init.ctt", tmp_path / "m.ctt"
    run(["synth", "--seed", "16", "--count", "10", "--out", str(corpus)], capsys)
    bundle = random_bundle(small_config())
    mdl.save_model(str(ckpt), bundle.config, bundle.params, bundle.vocab,
                   bundle.scheme)
    argv = ["train", "--corpus", str(corpus), "--out", str(out),
            "--init-checkpoint", str(ckpt), "--set", "max_steps=2"]
    if lines is not None:
        (tmp_path / "run.cfg").write_text(lines)
        argv += ["--config", str(tmp_path / "run.cfg")]
    for item in sets:
        argv += ["--set", item]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and \
        f"{named} cannot be set with --init-checkpoint" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()
    code, stdout, err = run(argv[:9], capsys)
    assert code == 0, err
    assert "trained 2 steps" in stdout
    assert mdl.load_model(str(out))[0] == bundle.config


class _EveryCityEndsASentence:
    def tag(self, words):
        return (["PERIOD" if w in ("boston", "denver") else "O" for w in words],
                ["O"] * len(words))


@pytest.mark.parametrize("flags, policy", [
    ([], dec.DecodePolicy()),
    (["--frame-rate", "2", "--lookahead-words", "1"], dec.DecodePolicy(2, 1)),
])
def test_stream_prints_the_triples_of_stream_decode(capsys, monkeypatch,
                                                    flags, policy):
    text = ("i want a Flight to\nBOSTON um\n\ni need a car to denver "
            "and a hotel please")
    monkeypatch.setattr(cli, "_load_tagger",
                        lambda path: _EveryCityEndsASentence())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(["stream", "--checkpoint", "unused.ctt"] + flags,
                         capsys)
    assert code == 0, err
    words = text.lower().split()
    assert len(words) % policy.frame_rate != 0     # ends in a partial frame
    triples, _ = dec.stream_decode(words, _EveryCityEndsASentence(), policy)
    assert out == "".join(f"{w}\t{p}\t{d}\n" for w, p, d in triples)
    assert [t[0] for t in triples] == words


def test_bench_with_zero_runs_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("i\tO\tO\nwant\tPERIOD\tO\n\n")
    golden = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")
    code, out, err = run(["bench", "--checkpoint", golden,
                          "--corpus", str(corpus), "--runs", "0"], capsys)
    assert code == 1
    assert err.startswith("error:") and "runs must be >= 1" in err
    assert "Traceback" not in err and out == ""


def test_tag_with_nan_weights_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "m.ctt"
    corpus = tmp_path / "c.tsv"
    corpus.write_text("boston\tO\tO\nflight\tPERIOD\tO\n\n")
    golden = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")
    with open(golden, "rb") as f:
        ckpt.write_bytes(f.read())
    fill_tensor(ckpt, "embed", float("nan"))
    code, out, err = run(["tag", "--checkpoint", str(ckpt),
                          "--input", str(corpus)], capsys)
    assert code == 1
    assert err.startswith("error:") and "non-finite values in embed" in err
    assert "Traceback" not in err and out == ""


def test_tag_with_a_ctt2_checkpoint_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("boston\nflight\n\n")
    old = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt2.ctt")
    code, out, err = run(["tag", "--checkpoint", old, "--input", str(corpus)],
                         capsys)
    assert code == 1
    assert err.startswith("error:") and "CTT2 checkpoint" in err
    assert "retrain to get a CTT3 checkpoint" in err
    assert "Traceback" not in err and out == ""


def test_bench_on_an_empty_corpus_exits_1(tmp_path, capsys):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("")
    golden = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")
    code, out, err = run(["bench", "--checkpoint", golden,
                          "--corpus", str(corpus)], capsys)
    assert code == 1
    assert err.startswith("error:") and "empty word list" in err
    assert "Traceback" not in err and out == ""


_GOLD = ("i\tO\tO\nwant\tO\tB-RM\nwant\tO\tO\num\tCOMMA\tB-IM\na\tO\tO\n"
         "flight\tPERIOD\tO\n\nis\tO\tB-RM\nis\tO\tO\nit\tO\tO\n"
         "far\tQUESTION\tO\n\n")
_PRED = ("i\tO\tO\nwant\tCOMMA\tB-RM\nwant\tO\tB-IM\num\tCOMMA\tB-IM\na\tO\tO\n"
         "flight\tPERIOD\tO\n\nis\tO\tO\nis\tO\tO\nit\tPERIOD\tO\n"
         "far\tO\tB-RM\n\n")
_EVAL_DUMP = """\
class           P       R       F1
COMMA         0.5000  1.0000  0.6667
PERIOD        0.5000  1.0000  0.6667
QUESTION      0.0000  0.0000  0.0000
OVERALL       0.5000  0.6667  0.5714
interregnum   0.5000  1.0000  0.6667
reparandum    0.5000  0.5000  0.5000
either        0.5000  0.6667  0.5714
punct.COMMA.p=0.500000
punct.COMMA.r=1.000000
punct.COMMA.f1=0.666667
punct.PERIOD.p=0.500000
punct.PERIOD.r=1.000000
punct.PERIOD.f1=0.666667
punct.QUESTION.p=0.000000
punct.QUESTION.r=0.000000
punct.QUESTION.f1=0.000000
punct.overall.p=0.500000
punct.overall.r=0.666667
punct.overall.f1=0.571429
disf.interregnum.p=0.500000
disf.interregnum.r=1.000000
disf.interregnum.f1=0.666667
disf.reparandum.p=0.500000
disf.reparandum.r=0.500000
disf.reparandum.f1=0.500000
disf.either.p=0.500000
disf.either.r=0.666667
disf.either.f1=0.571429
"""


def test_eval_dump_output_is_pinned(tmp_path, capsys):
    gold, pred = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
    gold.write_text(_GOLD)
    pred.write_text(_PRED)
    code, out, err = run(["eval", "--pred", str(pred), "--gold", str(gold),
                          "--dump"], capsys)
    assert code == 0, err
    assert out == _EVAL_DUMP
    code, out, _ = run(["eval", "--pred", str(pred), "--gold", str(gold)],
                       capsys)
    assert code == 0
    assert out == _EVAL_DUMP[:_EVAL_DUMP.index("punct.COMMA.p")]


def test_synth_rejects_a_probability_above_one(tmp_path, capsys):
    out_path = tmp_path / "c.tsv"
    code, out, err = run(["synth", "--p-filler", "5", "--out", str(out_path)],
                         capsys)
    assert code == 1
    assert err.startswith("error:") and "p_filler must be in [0, 1], got 5.0" in err
    assert out == "" and not out_path.exists()


def _save_model_that_never_ends_a_sentence(path, max_positions):
    """A small random model whose punctuation head always says O, so only
    the buffer cap can make its stream freeze words."""
    bundle = random_bundle(small_config(max_positions=max_positions))
    bundle.params["punct.b"] = nc.Tensor(np.array([50.0, 0.0, 0.0, 0.0]))
    mdl.save_model(path, bundle.config, bundle.params, bundle.vocab,
                   bundle.scheme)


def test_stream_of_700_fillers_prints_700_triples(tmp_path, capsys,
                                                  monkeypatch):
    ckpt = tmp_path / "m.ctt"
    _save_model_that_never_ends_a_sentence(ckpt, max_positions=512)
    monkeypatch.setattr("sys.stdin", io.StringIO("um " * 700 + "\n"))
    code, out, err = run(["stream", "--checkpoint", str(ckpt)], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 700
    assert all(ln.split("\t")[:2] == ["um", "O"] for ln in lines)


def test_tag_accepts_an_utterance_longer_than_max_positions(tmp_path, capsys):
    ckpt = tmp_path / "m.ctt"
    corpus = tmp_path / "long.tsv"
    _save_model_that_never_ends_a_sentence(ckpt, max_positions=16)
    words = [f"w{i % 10}" for i in range(50)]
    corpus.write_text("".join(f"{w}\n" for w in words) + "\n")
    code, out, err = run(["tag", "--checkpoint", str(ckpt),
                          "--input", str(corpus)], capsys)
    assert code == 0, err
    assert [ln.split("\t")[0] for ln in out.splitlines() if ln] == words


def test_stream_with_a_frame_rate_above_the_cap_exits_1(tmp_path, capsys,
                                                        monkeypatch):
    ckpt = tmp_path / "m.ctt"
    _save_model_that_never_ends_a_sentence(ckpt, max_positions=16)
    monkeypatch.setattr("sys.stdin", io.StringIO("i want a flight\n"))
    code, out, err = run(["stream", "--checkpoint", str(ckpt),
                          "--frame-rate", "17"], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "frame_rate 17 exceeds the tagger's max_positions 16" in err
    assert "Traceback" not in err and out == ""


_LABELED = "i\tO\tO\nwant\tO\tO\nit\tPERIOD\tO\n\n"


@pytest.mark.parametrize("corpus, dev, message", [
    (_LABELED + "hello\nthere\n\n", None, "corpus utterance 1 has no labels"),
    (_LABELED, _LABELED + "hello\nthere\n\n", "dev utterance 1 has no labels"),
    ("i\tO\tO\nwant\tEXCLAIM\tO\n\n", None,
     "corpus utterance 0 has unknown punctuation label 'EXCLAIM'"),
    (_LABELED, "um\tO\tB-XX\n\n",
     "dev utterance 0 has unknown disfluency label 'B-XX'"),
])
def test_train_refuses_unlabeled_or_unknown_labels(tmp_path, capsys, corpus,
                                                   dev, message):
    ckpt = tmp_path / "m.ctt"
    (tmp_path / "c.tsv").write_text(corpus)
    argv = ["train", "--corpus", str(tmp_path / "c.tsv"), "--out", str(ckpt),
            "--set", "max_steps=2", "--set", "d_model=8", "--set", "n_layers=1",
            "--set", "d_ff=16", "--set", "lookahead=9", "--set", "eval_every=1"]
    if dev is not None:
        (tmp_path / "dev.tsv").write_text(dev)
        argv += ["--dev", str(tmp_path / "dev.tsv")]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and out == ""
    assert not ckpt.exists()


@pytest.mark.parametrize("pred, gold, message", [
    ("i\nwant\n\n", _LABELED, "predicted utterance 0 has no labels"),
    (_LABELED, "i\nwant\nit\n\n", "gold utterance 0 has no labels"),
    ("i\tO\tO\nwant\tO\tO\nit\tEXCLAIM\tO\n\n", _LABELED,
     "predicted utterance 0 has unknown punctuation label 'EXCLAIM'"),
    (_LABELED, "i\tO\tO\nwant\tDASH\tO\nit\tPERIOD\tO\n\n",
     "gold utterance 0 has unknown punctuation label 'DASH'"),
    ("i\tO\tB-XX\nwant\tO\tO\nit\tPERIOD\tO\n\n", _LABELED,
     "predicted utterance 0 has unknown disfluency label 'B-XX'"),
    (_LABELED, "i\tO\tO\nwant\tO\tB-XX\nit\tPERIOD\tO\n\n",
     "gold utterance 0 has unknown disfluency label 'B-XX'"),
])
def test_eval_refuses_unlabeled_or_unknown_labels(tmp_path, capsys, pred,
                                                  gold, message):
    (tmp_path / "pred.tsv").write_text(pred)
    (tmp_path / "gold.tsv").write_text(gold)
    code, out, err = run(["eval", "--pred", str(tmp_path / "pred.tsv"),
                          "--gold", str(tmp_path / "gold.tsv")], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and out == ""


def _utterances(*lengths):
    """Corpus text: one utterance per length, its last word ending in a period."""
    return "".join("".join(f"w{i % 7}\t{'PERIOD' if i == n - 1 else 'O'}\tO\n"
                           for i in range(n)) + "\n" for n in lengths)


@pytest.mark.parametrize("lengths, code, message", [
    ((12, 12, 12, 12), 0, None),
    ((12, 20, 12), 1, "corpus utterance 1 has 20 words, more than max_positions 16"),
])
def test_train_with_max_positions_16(tmp_path, capsys, lengths, code, message):
    # augmentation appends up to twelve words to a twelve-word utterance,
    # but never past max_positions
    ckpt = tmp_path / "m.ctt"
    (tmp_path / "c.tsv").write_text(_utterances(*lengths))
    got, out, err = run(["train", "--corpus", str(tmp_path / "c.tsv"),
                         "--out", str(ckpt), "--set", "max_positions=16",
                         "--set", "max_steps=4", "--set", "d_model=8",
                         "--set", "n_layers=1", "--set", "d_ff=16",
                         "--set", "lookahead=9"], capsys)
    assert got == code
    assert "Traceback" not in err
    if message is None:
        assert out.startswith("trained 4 steps") and ckpt.exists()
    else:
        assert err.startswith("error:") and message in err
        assert out == "" and not ckpt.exists()


class _EndsBeforeEveryI:
    """Ends a sentence at each word followed by "i" in the buffer, so a
    word's label can change when its next word arrives."""

    def tag(self, words):
        return (["PERIOD" if nxt == "i" else "O" for nxt in words[1:] + [None]],
                ["O"] * len(words))


def test_stream_keeps_its_state_bounded_on_a_long_stdin(capsys, monkeypatch):
    # the command drops each step's frozen triples and revisions once it has
    # printed them, so at every step the state holds only that step's
    text = "i want a flight to boston um " * 600
    tagger = _EndsBeforeEveryI()
    monkeypatch.setattr(cli, "_load_tagger", lambda path: tagger)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    triples, state = dec.stream_decode(text.split(), tagger, dec.DecodePolicy())
    stream_frames, held = dec.stream_frames, []

    def watched(state, words, tagger, policy):
        for triples in stream_frames(state, words, tagger, policy):
            held.append((len(state.emitted) - len(triples),
                         len(state.revision_log), len(state.buffer_words)))
            yield triples

    monkeypatch.setattr(dec, "stream_frames", watched)
    code, out, err = run(["stream", "--checkpoint", "unused.ctt"], capsys)
    assert code == 0, err
    assert out == "".join(f"{w}\t{p}\t{d}\n" for w, p, d in triples)
    assert len(triples) == 4200 and len(state.revision_log) >= 100
    assert len(held) == 1401
    assert all(old == 0 and revisions <= 1 and buffered <= 16
               for old, revisions, buffered in held)


def _words_and_frozen(ckpt, count):
    """`count` words, and the triples that `stream` freezes from them with
    the default policy before it sees the end of its input."""
    tagger = cli._load_tagger(ckpt)
    words = [f"w{i % 10}" for i in range(count)]
    state, policy, frozen = dec.StreamState(), dec.DecodePolicy(), []
    for i in range(0, count, policy.frame_rate):
        frozen += dec.stream_step(state, words[i:i + policy.frame_rate], tagger,
                                  policy)
    assert frozen and state.buffer_words
    return words, [f"{w}\t{p}\t{d}\n" for w, p, d in frozen]


@contextlib.contextmanager
def _stream_process(ckpt):
    """`puncstream stream` on the checkpoint `ckpt` in a child process,
    with text pipes for stdin, stdout and stderr, and SIGINT at its default
    (a parent may have ignored it), so the child's Python handles Ctrl-C.
    A child that runs on for a minute is killed."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
            [sys.executable, "-m", "puncstream.cli", "stream", "--checkpoint",
             str(ckpt)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)) as proc:
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            yield proc
        finally:
            timer.cancel()
            proc.kill()


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_ctrl_c_ends_stream_with_exit_130_and_no_traceback(tmp_path):
    # Ctrl-C stops at once: what was frozen is printed, the words still in
    # the buffer are not, and stderr stays empty
    ckpt = tmp_path / "m.ctt"
    _save_model_that_never_ends_a_sentence(ckpt, max_positions=16)
    words, frozen = _words_and_frozen(ckpt, 24)
    with _stream_process(ckpt) as proc:
        proc.stdin.write(" ".join(words) + "\n")
        proc.stdin.flush()
        printed = [proc.stdout.readline() for _ in frozen]
        proc.send_signal(signal.SIGINT)  # while it waits for more words
        code = proc.wait()
        rest, err = proc.stdout.read(), proc.stderr.read()
    assert printed == frozen
    assert (code, rest, err) == (130, "", "")


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX pipes")
def test_a_closed_stdout_ends_stream_with_exit_141_and_empty_stderr(tmp_path):
    # a reader that stops after two lines, as `head -2` does
    ckpt = tmp_path / "m.ctt"
    _save_model_that_never_ends_a_sentence(ckpt, max_positions=16)
    words, frozen = _words_and_frozen(ckpt, 24)
    with _stream_process(ckpt) as proc:
        proc.stdin.write(" ".join(words) + "\n")
        proc.stdin.flush()
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        proc.stdin.write(" ".join(words) + "\n")  # more lines to print
        proc.stdin.close()
        code, err = proc.wait(), proc.stderr.read()
    assert head == frozen[:2]
    assert (code, err) == (141, "")


# Generated inputs through cli.main: each run exits 0, or exits 1 with one
# bounded `error:` line and no traceback.
_TINY = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt3.ctt")


def _main(argv, stdin=None):
    """cli.main(argv) with the text file `stdin`, by default an empty one,
    as its standard input: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", stdin or io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exited_0_or_1_with_one_error_line(code, err):
    assert code in (0, 1), err
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) <= 240 and "Traceback" not in err


def _printed_words(out):
    return [line.split("\t")[0] for line in out.split("\n")[:-1]]


with open(_TINY, "rb") as _f:
    _TINY_BYTES = _f.read()
_TINY_BLOCK_END = 8 + struct.unpack_from("<I", _TINY_BYTES, 4)[0]
_TINY_LINES = _TINY_BYTES[8:_TINY_BLOCK_END].decode().splitlines()


def _with_block(lines):
    """tiny_ctt3.ctt's bytes with `lines` for its config block and the old
    CRC."""
    block = "".join(f"{line}\n" for line in lines).encode("utf-8", "surrogatepass")
    return (_TINY_BYTES[:4] + struct.pack("<I", len(block)) + block
            + _TINY_BYTES[_TINY_BLOCK_END:])


_CONFIG_VALUE = st.one_of(
    st.integers(-2, 20).map(str),
    st.sampled_from(["2048", "2049", str(10 ** 19), str(10 ** 400), "0,9",
                     "2,2", "O PERIOD", "boston flight to um"]),
    st.text(max_size=8),
)


@st.composite
def _checkpoint_bytes(draw):
    """tiny_ctt3.ctt as it is, truncated, with bytes changed or appended, or
    with its config block swapped for a drawn one; then, if drawn, sealed
    with a matching CRC, so a mutation also reaches the checks behind it."""
    raw = _TINY_BYTES
    kind = draw(st.sampled_from(["as is", "truncated", "changed", "appended",
                                 "config swapped"]))
    if kind == "truncated":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif kind == "changed":
        data = bytearray(raw)
        for i, byte in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                               st.integers(0, 255)),
                                     min_size=1, max_size=4)):
            data[i] = byte
        raw = bytes(data)
    elif kind == "appended":
        raw += draw(st.binary(min_size=1, max_size=16))
    elif kind == "config swapped":
        lines = list(_TINY_LINES)
        for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=3)):
            key = lines[i].partition("=")[0]
            lines[i] = f"{key}={draw(_CONFIG_VALUE)}"
        raw = _with_block(draw(st.permutations(lines)))
    return seal(raw) if kind != "as is" and draw(st.booleans()) else raw


@settings(max_examples=60, deadline=None)
@given(raw=_checkpoint_bytes())
@example(raw=seal(_with_block(line.replace("n_layers=1", f"n_layers={10 ** 400}")
                              for line in _TINY_LINES)))
@example(raw=every_weight(_TINY_BYTES, 1e100))
def test_tag_and_stream_on_any_checkpoint_bytes_exit_0_or_1_with_one_error_line(
        tmp_path_factory, raw):
    root = tmp_path_factory.mktemp("checkpoint")
    ckpt, corpus = root / "m.ctt", root / "c.tsv"
    ckpt.write_bytes(raw)
    words = "i want a flight to boston um to denver " * 3
    corpus.write_text(words.replace(" ", "\n") + "\n")
    code, out, err = _main(["tag", "--checkpoint", str(ckpt), "--input",
                            str(corpus)])
    _exited_0_or_1_with_one_error_line(code, err)
    code, out, err = _main(["stream", "--checkpoint", str(ckpt)], io.StringIO(words))
    _exited_0_or_1_with_one_error_line(code, err)
    if code == 0:
        assert _printed_words(out) == words.split()
    if raw == _TINY_BYTES:
        assert code == 0


@pytest.mark.parametrize("command", ["tag", "stream"])
def test_weights_a_forward_could_overflow_exit_1(tmp_path, command):
    ckpt, corpus = tmp_path / "m.ctt", tmp_path / "c.tsv"
    ckpt.write_bytes(every_weight(_TINY_BYTES, 1e100))
    corpus.write_text("boston\nflight\n")
    argv = ["tag", "--input", str(corpus)] if command == "tag" else ["stream"]
    code, out, err = _main(argv + ["--checkpoint", str(ckpt)], io.StringIO("to boston"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "so large that a forward could overflow" in err
    assert err.startswith("error: ") and "Traceback" not in err


_ANY_CELL = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=200, max_size=400))


@st.composite
def _corpus_text(draw):
    """Corpus text: 0 to 4 utterances of 1 to 8 lines, each followed by a
    blank or whitespace-only line or by none. Without drawn faults every
    line holds a word, a punctuation label and a B- or O disfluency label;
    each fault drawn breaks that: any column count from 1 to 4 per line,
    unlabeled utterances, any unicode in any cell (unknown labels and
    over-long cells among it), and I- labels (BIO errors among them)."""
    faults = draw(st.sets(st.sampled_from(["columns", "unlabeled", "text", "bio"])))
    words = ["i", "want", "a", "flight", "to", "Boston", "um", "<unk>", "<pad>"]
    punct = ["O", "COMMA", "PERIOD", "QUESTION"]
    disf = ["O", "B-RM", "B-IM"] + (["I-RM", "I-IM"] if "bio" in faults else [])
    cells = [st.sampled_from(words), st.sampled_from(punct),
             st.sampled_from(disf), st.sampled_from(words)]
    if "text" in faults:
        cells = [st.one_of(cell, _ANY_CELL) for cell in cells]
    utterances = []
    for _ in range(draw(st.integers(0, 4))):
        labeled = "unlabeled" not in faults or draw(st.booleans())
        lines = []
        for _ in range(draw(st.integers(1, 8))):
            count = draw(st.integers(1, 4)) if "columns" in faults else 3 if labeled else 1
            lines.append("\t".join(draw(cell) for cell in cells[:count]))
        utterances.append("\n".join(lines) + "\n")
    return "".join(utterance + draw(st.sampled_from(["\n", " \n", "\t\n", ""]))
                   for utterance in utterances)


@settings(max_examples=40, deadline=None)
@given(text=_corpus_text(), other=_corpus_text())
@example(text=f"i\tO\tO\nwant\t{'PERIOD ' * 40}\tO\n", other="")
def test_train_tag_and_eval_on_any_corpus_text_exit_0_or_1_with_one_error_line(
        tmp_path_factory, text, other):
    root = tmp_path_factory.mktemp("corpus")
    corpus, pred, ckpt = root / "c.tsv", root / "p.tsv", root / "m.ctt"
    corpus.write_text(text, encoding="utf-8")
    pred.write_text(other, encoding="utf-8")
    code, _, err = _main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                          "--set", "max_steps=1", "--set", "d_model=8",
                          "--set", "n_layers=1", "--set", "d_ff=16",
                          "--set", "lookahead=9"])
    _exited_0_or_1_with_one_error_line(code, err)
    assert ckpt.exists() == (code == 0)
    for argv in (["tag", "--checkpoint", _TINY, "--input", str(corpus)],
                 ["eval", "--pred", str(pred), "--gold", str(corpus)],
                 ["eval", "--pred", str(corpus), "--gold", str(corpus)]):
        code, _, err = _main(argv)
        _exited_0_or_1_with_one_error_line(code, err)


_TOKEN = st.one_of(
    st.sampled_from(["i", "want", "a", "flight", "to", "Boston", "um", "UH"]),
    st.text(max_size=5),
    st.text(min_size=300, max_size=2000),  # over-long tokens
)


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(_TOKEN, max_size=60),
       breaks=st.lists(st.sampled_from([" ", "\n", "\t", "  ", " \n "]),
                       min_size=60, max_size=60),
       frame_rate=st.one_of(st.none(), st.integers(-1, 20)),
       lookahead_words=st.one_of(st.none(), st.integers(-1, 20)))
@example(tokens=["i"] * 17, breaks=[" "] * 60, frame_rate=17, lookahead_words=None)
@example(tokens=[], breaks=[" "] * 60, frame_rate=17, lookahead_words=None)
def test_stream_on_any_stdin_prints_every_word_once_in_order(
        tokens, breaks, frame_rate, lookahead_words):
    # up to 60 words through a 16-position model: runs past the cap, empty
    # input, and frame rates above the cap among them
    text = "".join(token + sep for token, sep in zip(tokens, breaks))
    argv = ["stream", "--checkpoint", _TINY]
    if frame_rate is not None:
        argv += ["--frame-rate", str(frame_rate)]
    if lookahead_words is not None:
        argv += ["--lookahead-words", str(lookahead_words)]
    stdin = io.StringIO(text)
    code, out, err = _main(argv, stdin)
    _exited_0_or_1_with_one_error_line(code, err)
    frame_rate = 3 if frame_rate is None else frame_rate
    lookahead_words = 6 if lookahead_words is None else lookahead_words
    assert (code == 0) == (1 <= frame_rate <= 16 and lookahead_words >= 0)
    if code == 0:
        assert _printed_words(out) == [w.lower() for w in text.split()]
    else:  # refused before a word is read, even from an endless stdin
        assert stdin.tell() == 0 and out == ""


# Config-file values: small counts and flags, values holding "=", and text
# without decimal digits, so that no drawn count allocates gigabytes.
_FILE_VALUE = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["0.5", "yes", "off", "9", "0,9", "a=b", "=", "1=1", ""]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
)


@st.composite
def _config_file(draw):
    """A config file's bytes: comments, blank and whitespace-only lines,
    key=value lines (keys repeated, values holding "=", spaces around
    either), lines of any text, and bytes that are not UTF-8."""
    key = st.sampled_from(sorted(cli._DEFAULTS))
    line = st.one_of(
        st.sampled_from([b"", b"   ", b"\t", b"# a comment", b"  # max_steps=x"]),
        st.builds(lambda k, v: f"{k}={v}".encode(), key, _FILE_VALUE),
        st.builds(lambda k, v: f" {k} = {v} ".encode(), key, _FILE_VALUE),
        st.text(max_size=12).map(lambda t: t.encode("utf-8", "surrogatepass")),
        st.binary(min_size=1, max_size=4),
    )
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return b"".join(text + newline for text in draw(st.lists(line, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(raw=_config_file())
@example(raw=b"# sizes\n\nbatch_size=3\n  batch_size = 2 \nclip_norm=0.5\n")
@example(raw=b"batch_size=2\nlookahead=0=9\n")
@example(raw=b"augment=no\n\xff\xfe\n")
def test_train_on_any_config_file_exits_0_or_1_with_one_error_line(
        tmp_path_factory, raw):
    # one step of a tiny model: the sizes are set on the command line, which
    # wins over the file, but the file's values for them are still parsed
    root = tmp_path_factory.mktemp("config")
    corpus, config, ckpt = root / "c.tsv", root / "run.cfg", root / "m.ctt"
    corpus.write_text(_FOUR_UTTERANCES)
    config.write_bytes(raw)
    code, _, err = _main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                          "--config", str(config), "--set", "max_steps=1",
                          "--set", "d_model=8", "--set", "n_layers=1",
                          "--set", "d_ff=16", "--set", "lookahead=9"])
    _exited_0_or_1_with_one_error_line(code, err)
    assert ckpt.exists() == (code == 0)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 1
