"""Command-line front end: synth / train / tag / stream / eval / bench.

All randomness flows from --seed; every subcommand is reproducible from its
inputs, seed, and config. Exit codes: 0 success, 1 runtime error, 2 usage.
"""

import argparse
import sys

from . import data as dt
from . import decoding as dec
from . import evaluation as ev
from . import model as mdl
from . import training as tr
from .masks import MaskSpec

# Config file keys (flat key=value) and their parsers. Command-line --set
# overrides file values; unknown keys are rejected.
_CONFIG_KEYS = {
    "d_model": int,
    "n_layers": int,
    "n_heads": int,
    "d_ff": int,
    "lookahead": str,
    "max_positions": int,
    "min_freq": int,
    "batch_size": int,
    "warmup_steps": int,
    "max_steps": int,
    "clip_norm": float,
    "augment": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "eval_every": int,
}

_DEFAULTS = {
    "d_model": 32,
    "n_layers": 4,
    "n_heads": 2,
    "d_ff": 64,
    "lookahead": "0,0,0,9",
    "max_positions": 512,
    "min_freq": 2,
    "batch_size": 8,
    "warmup_steps": 400,
    "max_steps": 2000,
    "clip_norm": 1.0,
    "augment": True,
    "eval_every": 100,
}


class ConfigError(ValueError):
    pass


def load_run_config(path=None, overrides=()):
    """Merge defaults, an optional key=value file, and --set overrides."""
    cfg = dict(_DEFAULTS)

    def apply(key, value, where):
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{where}: bad value for {key}: {value!r}") from None

    if path:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                apply(key.strip(), value.strip(), f"{path}:{line_no}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, value = item.partition("=")
        apply(key, value, "--set")
    return cfg


def _build_parser():
    p = argparse.ArgumentParser(
        prog="puncstream",
        description="Streaming joint punctuation prediction and disfluency "
                    "detection")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--domain", default="travel",
                   choices=["travel", "travel-shifted", "late-question"])
    s.add_argument("--p-filler", type=float, default=0.15)
    s.add_argument("--p-repetition", type=float, default=0.10)
    s.add_argument("--p-repair", type=float, default=0.0)

    s = sub.add_parser("train", help="train a model")
    s.add_argument("--corpus", required=True)
    s.add_argument("--dev")
    s.add_argument("--config")
    s.add_argument("--init-checkpoint")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    s = sub.add_parser("tag", help="tag a corpus file offline")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--out")

    s = sub.add_parser("stream", help="tag a word stream from stdin")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--frame-rate", type=int, default=3)
    s.add_argument("--lookahead-words", type=int, default=6)

    s = sub.add_parser("eval", help="score predictions against gold labels")
    s.add_argument("--pred", required=True)
    s.add_argument("--gold", required=True)
    s.add_argument("--dump", action="store_true",
                   help="also print machine-readable key=value lines")

    s = sub.add_parser("bench", help="report throughput and revision histogram")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--corpus", required=True)
    s.add_argument("--frame-rate", type=int, default=3)
    s.add_argument("--lookahead-words", type=int, default=6)
    s.add_argument("--runs", type=int, default=5)
    return p


def _cmd_synth(args):
    grammar = dt.GrammarConfig(domain=args.domain, p_filler=args.p_filler,
                               p_repetition=args.p_repetition,
                               p_repair=args.p_repair)
    seqs = dt.synth_generate(args.seed, args.count, grammar)
    dt.write_corpus(args.out, seqs)
    print(f"wrote {len(seqs)} utterances to {args.out}")
    return 0


def _cmd_train(args):
    cfg = load_run_config(args.config, args.set)
    corpus = dt.parse_corpus(args.corpus)
    dev = dt.parse_corpus(args.dev) if args.dev else None
    scheme = dt.LabelScheme()
    init = None
    if args.init_checkpoint:
        model_config, init, vocab, scheme = mdl.load_model(args.init_checkpoint)
    else:
        vocab = dt.Vocabulary.from_corpus(corpus, min_freq=cfg["min_freq"])
        model_config = mdl.ModelConfig(
            vocab_size=len(vocab),
            d_model=cfg["d_model"],
            n_layers=cfg["n_layers"],
            n_heads=cfg["n_heads"],
            d_ff=cfg["d_ff"],
            mask_spec=MaskSpec.from_string(cfg["lookahead"]),
            punct_label_count=len(scheme.punct_labels),
            disf_label_count=len(scheme.disf_labels),
            max_positions=cfg["max_positions"],
        )
    train_config = tr.TrainConfig(
        batch_size=cfg["batch_size"],
        warmup_steps=cfg["warmup_steps"],
        max_steps=cfg["max_steps"],
        clip_norm=cfg["clip_norm"],
        seed=args.seed,
        augment=cfg["augment"],
        eval_every=cfg["eval_every"],
    )
    result = tr.train(corpus, train_config, model_config, vocab, scheme,
                      dev=dev, init_params=init)
    mdl.save_model(args.out, model_config, result.params, vocab, scheme)
    print(f"trained {result.steps_run} steps; "
          f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f}; "
          f"checkpoint {args.out}")
    return 0


def _load_tagger(path):
    config, params, vocab, scheme = mdl.load_model(path)
    return dec.ModelTagger(config, params, vocab, scheme)


def _cmd_tag(args):
    tagger = _load_tagger(args.checkpoint)
    seqs = dt.parse_corpus(args.input)
    tagged = [dec.tag_offline(seq.words, tagger) for seq in seqs]
    if args.out:
        dt.write_corpus(args.out, tagged)
    else:
        for seq in tagged:
            for w, p, d in zip(seq.words, seq.punct, seq.disf):
                sys.stdout.write(f"{w}\t{p}\t{d}\n")
            sys.stdout.write("\n")
    return 0


def _cmd_stream(args):
    tagger = _load_tagger(args.checkpoint)
    policy = dec.DecodePolicy(frame_rate=args.frame_rate,
                              lookahead_words=args.lookahead_words)
    state = dec.StreamState()
    pending = []

    def push(triples):
        for w, p, d in triples:
            sys.stdout.write(f"{w}\t{p}\t{d}\n")
        if triples:
            sys.stdout.flush()

    for line in sys.stdin:
        for word in line.split():
            pending.append(word.lower())
            if len(pending) == policy.frame_rate:
                push(dec.stream_step(state, pending, tagger, policy))
                pending = []
    if pending:
        push(dec.stream_step(state, pending, tagger, policy))
    push(dec.finish(state, tagger))
    return 0


def _cmd_eval(args):
    pred = dt.parse_corpus(args.pred, strict_bio=False)
    gold = dt.parse_corpus(args.gold)
    report = ev.score(pred, gold, dt.LabelScheme())
    print(ev.format_report(report))
    if args.dump:
        for k, v in ev.report_keyvalues(report).items():
            print(f"{k}={v:.6f}")
    return 0


def _cmd_bench(args):
    tagger = _load_tagger(args.checkpoint)
    policy = dec.DecodePolicy(frame_rate=args.frame_rate,
                              lookahead_words=args.lookahead_words)
    seqs = dt.parse_corpus(args.corpus)
    words = [w for seq in seqs for w in seq.words]
    report, revision_log = ev.bench_streaming(tagger, words, policy,
                                              runs=args.runs)
    hist = ev.position_change_histogram([revision_log]).histogram
    print(f"total_seconds\t{report.total_seconds:.4f}")
    print(f"words_per_second\t{report.words_per_second:.1f}")
    for bucket in sorted(hist):
        print(f"{bucket}\t{hist[bucket]}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "tag": _cmd_tag,
    "stream": _cmd_stream,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
