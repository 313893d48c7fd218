"""Command-line front end: synth / train / tag / stream / eval / bench.

All randomness flows from --seed; every subcommand is reproducible from its
inputs, seed, and config. A new model has one encoder layer per budget of
its `lookahead` setting. Corpus and config files are read by
`data.text_lines`, and `stream`'s stdin, as `<stdin>`, by `data.text_words`
as its bytes arrive; both name the file and line of a byte that is not
UTF-8. Run as a program, stdout is UTF-8 whatever the locale too, and a
closed stdin is an empty stream.
Exit codes: 0 success, 1 runtime error (an OSError, ValueError,
RuntimeError, OverflowError or MemoryError, printed as one `error:` line of
at most 240 characters), 2 usage, 130 Ctrl-C and 141 closed stdout (128 +
SIGINT, SIGPIPE), both silent.
"""

import argparse
import os
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import fields

from . import data as dt
from . import decoding as dec
from . import evaluation as ev
from . import model as mdl
from . import training as tr
from .masks import MaskSpec

# Config file keys (flat key=value) with their defaults: every TrainConfig
# field but `seed` (a flag), ModelConfig's `max_positions`, and the sizes,
# look-ahead budgets and vocabulary cut-off of a new model. The budget list
# sets the layer count: one layer per budget. A value is parsed by its
# default's type. Command-line --set overrides file values; unknown keys are
# rejected. A checkpoint fixes the keys of _MODEL_DEFAULTS, so
# `train --init-checkpoint` refuses them.
_MODEL_DEFAULTS = {"d_model": 32, "n_heads": 2, "d_ff": 64,
                   "lookahead": "0,0,0,9", "min_freq": 2,
                   "max_positions": mdl.ModelConfig.max_positions}
_DEFAULTS = {**_MODEL_DEFAULTS, **{f.name: f.default for f in fields(tr.TrainConfig)
                                   if f.name != "seed"}}
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _fields_of(cls, cfg):
    """The entries of `cfg` that name fields of the dataclass `cls`."""
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


class ConfigError(ValueError):
    pass


def load_run_config(path=None, overrides=(), fixed=()):
    """Merge defaults, an optional key=value file, and --set overrides; a
    key in `fixed`, one an --init-checkpoint fixes, may not be set. An error
    in the file, a byte that is not UTF-8 included, names its path:line."""
    cfg = dict(_DEFAULTS)

    def apply(key, value, where):
        if key not in _DEFAULTS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in fixed:
            raise ConfigError(f"{where}: {key} cannot be set with "
                              "--init-checkpoint, whose checkpoint fixes it")
        default = _DEFAULTS[key]
        try:
            cfg[key] = (_BOOLS[value.lower()] if isinstance(default, bool)
                        else type(default)(value))
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: bad value for {key}: {value!r}") from None

    for line_no, line in dt.text_lines(path) if path else ():
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
    s.set_defaults(run=_cmd_synth)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--domain", default="travel", choices=dt.GRAMMAR_DOMAINS)
    s.add_argument("--p-filler", type=float, default=0.15)
    s.add_argument("--p-repetition", type=float, default=0.10)
    s.add_argument("--p-repair", type=float, default=0.0)

    s = sub.add_parser("train", help="train a model")
    s.set_defaults(run=_cmd_train)
    s.add_argument("--corpus", required=True)
    s.add_argument("--dev")
    s.add_argument("--config")
    s.add_argument("--init-checkpoint")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    s = sub.add_parser("tag", help="tag a corpus file offline")
    s.set_defaults(run=_cmd_tag)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--out")

    stream = sub.add_parser("stream", help="tag a word stream from stdin")
    stream.set_defaults(run=_cmd_stream)
    stream.add_argument("--checkpoint", required=True)

    s = sub.add_parser("eval", help="score predictions against gold labels")
    s.set_defaults(run=_cmd_eval)
    s.add_argument("--pred", required=True)
    s.add_argument("--gold", required=True)
    s.add_argument("--dump", action="store_true",
                   help="also print machine-readable key=value lines")

    bench = sub.add_parser("bench", help="report throughput and revision histogram")
    bench.set_defaults(run=_cmd_bench)
    bench.add_argument("--checkpoint", required=True)
    bench.add_argument("--corpus", required=True)
    bench.add_argument("--runs", type=int, default=5)
    for s in (stream, bench):
        s.add_argument("--frame-rate", type=int,
                       default=dec.DecodePolicy.frame_rate)
        s.add_argument("--lookahead-words", type=int,
                       default=dec.DecodePolicy.lookahead_words)
    return p


def _cmd_synth(args):
    grammar = dt.GrammarConfig(domain=args.domain, p_filler=args.p_filler,
                               p_repetition=args.p_repetition,
                               p_repair=args.p_repair)
    seqs = dt.synth_generate(args.seed, args.count, grammar)
    with open(args.out, "w", encoding="utf-8") as f:
        dt.write_corpus(f, seqs)
    print(f"wrote {len(seqs)} utterances to {args.out}")
    return 0


def _cmd_train(args):
    cfg = load_run_config(args.config, args.set,
                          _MODEL_DEFAULTS if args.init_checkpoint else ())
    mdl.check_max_positions(cfg["max_positions"])
    corpus = dt.parse_corpus(args.corpus)
    dev = dt.parse_corpus(args.dev) if args.dev else None
    scheme = dt.LabelScheme()
    init = None
    if args.init_checkpoint:
        model_config, init, vocab, scheme = mdl.load_model(args.init_checkpoint)
    else:
        vocab = dt.Vocabulary.from_corpus(corpus, min_freq=cfg["min_freq"])
        mask_spec = MaskSpec.from_string(cfg["lookahead"])
        model_config = mdl.ModelConfig(
            vocab_size=len(vocab),
            n_layers=len(mask_spec),
            mask_spec=mask_spec,
            punct_label_count=len(scheme.punct_labels),
            disf_label_count=len(scheme.disf_labels),
            **_fields_of(mdl.ModelConfig, cfg),
        )
    train_config = tr.TrainConfig(seed=args.seed,
                                  **_fields_of(tr.TrainConfig, cfg))
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
    tagged = [dec.tag_offline(seq.words, tagger) for seq in dt.parse_corpus(args.input)]
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as f:
        dt.write_corpus(f, tagged)
    return 0


def _cmd_stream(args):
    tagger = _load_tagger(args.checkpoint)
    policy = dec.DecodePolicy(args.frame_rate, args.lookahead_words)
    # a closed stdin, None, is an empty stream
    words = dt.text_words("<stdin>", sys.stdin.buffer) if sys.stdin else ()
    state = dec.StreamState()
    for triples in dec.stream_frames(state, words, tagger, policy):
        for w, p, d in triples:
            sys.stdout.write(f"{w}\t{p}\t{d}\n")
        if triples:
            sys.stdout.flush()
        state.emitted.clear()  # printed: an endless stdin keeps them bounded
        state.revision_log.clear()
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
    policy = dec.DecodePolicy(args.frame_rate, args.lookahead_words)
    seqs = dt.parse_corpus(args.corpus)
    words = [w for seq in seqs for w in seq.words]
    seconds, revision_log = ev.bench_streaming(tagger, words, policy,
                                               runs=args.runs)
    hist = Counter(end - pos for end, pos in revision_log)
    print(f"total_seconds\t{seconds:.4f}")
    print(f"words_per_second\t{len(words) / seconds:.1f}")
    for distance in sorted(hist):  # revisions that many words back
        print(f"{distance}\t{hist[distance]}")
    return 0


# The longest `error:` line `main` prints. A message may echo a value in
# full, and a 401-digit setting made a 443-character line.
_ERROR_LINE_CHARS = 240


def _error(message):
    """Print `message` as one `error:` line of at most _ERROR_LINE_CHARS
    characters, and return exit code 1. A longer line keeps its start and
    its end and loses its middle, such as most of a 401-digit value."""
    line = f"error: {message}"
    if len(line) > _ERROR_LINE_CHARS:
        keep = (_ERROR_LINE_CHARS - 3) // 2
        line = f"{line[:keep]}...{line[-keep:]}"
    print(line, file=sys.stderr)
    return 1


def main(argv=None):
    if argv is None:  # UTF-8 whatever the locale
        for stream, errors in ((sys.stdout, "strict"),
                               (sys.stderr, "backslashreplace")):
            if stream:  # None if the process started with it closed
                stream.reconfigure(encoding="utf-8", errors=errors, newline=None)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:  # words still in a stream buffer are not printed
        return 130
    except BrokenPipeError:  # Python's SIGPIPE recipe: flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError, RuntimeError, OverflowError) as e:
        return _error(str(e))
    except MemoryError as e:  # numpy's names the size it could not allocate
        return _error(f"out of memory: {e}" if str(e) else "out of memory")


if __name__ == "__main__":
    sys.exit(main())
