"""Run one workload of the puncstream benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload stream --seed 0 --seconds 6 --trace 0

Every run first sets up the model (trains it, saves and loads it), then runs
the workload for `--seconds`, checks its outputs, and prints `metric` lines
and, as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` the run measures a quarter of `--seconds`
untraced, repeats the same work with span wrappers installed, prints the
per-layer ones, and writes spans and a per-layer table to `perfbench/out/`.
The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stream", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None):
    args = parse_args(argv)
    package_dir = os.path.join(SRC, "puncstream")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"error: no puncstream sources in {package_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import puncstream
    if os.path.dirname(os.path.abspath(puncstream.__file__)) != package_dir:
        print(f"error: puncstream imported from {puncstream.__file__}, "
              f"not {package_dir}", file=sys.stderr)
        return 2
    import workloads as wl
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    env = wl.environment()
    for key, value in env.items():
        print(f"env {key} {value}")
    checks = wl.Checks()
    probe = wl.SpeedProbe()
    model = wl.set_up(os.path.join(OUT, "model.ctt"), checks, probe)
    workload = wl.WORKLOADS[args.workload](model, args.seed)

    if args.trace:
        # a quarter: tracing slows the small stream ops 1.3-1.7x, and the
        # spans of a longer stretch would take hundreds of MB
        run = workload.run(seconds=args.seconds / 4)
        misses = wl.mask_misses()
        tracer = Tracer()
        tracer.install(puncstream)
        try:
            traced = workload.run(units=run.units)
        finally:
            tracer.uninstall()
        overhead = (traced.wall_s - run.wall_s, traced.wall_s / run.wall_s)
        metrics, table = workload.per_layer(tracer, traced, wl.mask_misses() - misses,
                                            overhead)
        attempted, failed = (a + b for a, b in zip(workload.counts(run),
                                                    workload.counts(traced)))
        units = metric_units("per_layer")
        print(f"metric trace.untraced_s {run.wall_s} s")
        print(f"metric trace.traced_s {traced.wall_s} s")
        print(f"metric trace.spans {len(tracer)} count")
        name_id, parent, start, end = tracer.arrays()
        with open(os.path.join(OUT, f"spans-{args.workload}.npz"), "wb") as f:
            np.savez(f, names=np.array(tracer.names), name_id=name_id,
                     parent=parent, start=start, end=end)
        with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "environment": env,
                       "metrics": metrics, "spans": table.as_dict()}, f, indent=1)
    else:
        run = workload.run(seconds=args.seconds, probe=probe)
        metrics, report = workload.end_to_end(run)
        metrics["setup_s"] = model.setup_reference_s
        report["setup_wall_s"] = (model.setup_s, "s")
        speeds = probe.speeds
        report["machine.speed.min"] = (min(speeds), "ratio")
        report["machine.speed.median"] = (wl.percentile(speeds, 50), "ratio")
        report["machine.speed.max"] = (max(speeds), "ratio")
        report["machine.probes"] = (len(speeds), "count")
        attempted, failed = workload.counts(run)
        units = metric_units("end_to_end")
        for name, (value, unit) in report.items():
            print(f"metric {name} {value} {unit}")
        print(f"metric training.train.s {model.train_s} s")
        print(f"metric model.save_model.ms {model.save_ms} ms")
        print(f"metric model.load_model.ms {model.load_ms} ms")

    workload.check(run, checks)
    if checks.cut:
        # cutting the input after i + L_all should leave logits at <= i
        # bit-identical; reported, since BLAS results depend on matrix shape
        print(f"metric lookahead.cut_samples {len(checks.cut)} count")
        print(f"metric lookahead.cut_samples_not_bitwise "
              f"{sum(d > 0 for d in checks.cut)} count")
        print(f"metric lookahead.cut_max_logit_change {max(checks.cut)} logit")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
