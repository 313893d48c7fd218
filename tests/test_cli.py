import io
import os

import pytest

from conftest import rewrite_config_line
from puncstream import cli
from puncstream import data as dt


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
    golden = os.path.join(os.path.dirname(__file__), "data", "tiny_ctt2.ctt")
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
