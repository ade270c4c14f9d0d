"""One workload in one fresh process; started by run.py, not by hand.

The process imports numpy, scipy and the ``stochnewton`` sources of the
checkout it sits in, builds the workload's inputs and reference values,
and reports how long that took since ``--spawned`` (the wall-clock time
at which run.py started it). With ``--setup-only`` it stops there.
Otherwise it runs whole repetitions of the workload, checks each one
outside the timed region, and prints one JSON line.

A repetition starts only if it is expected to end within ``--seconds``
of measured time (judged by the last repetition), and at least one
always runs. With ``--trace 1`` untraced and traced repetitions
alternate, and only the traced ones feed the per-layer numbers.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _import_program():
    sys.path.insert(0, str(SRC))
    import stochnewton

    where = Path(stochnewton.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"stochnewton was imported from {where}, not from {SRC}")


def _timed(workload, tracer=None):
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        raw = workload.run_once()
        return time.perf_counter() - t0, raw


def main(argv=None):
    args = _parse(argv)
    _import_program()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.out_dir)
    setup_s = time.time() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import tracer as tracing

    plain_s, traced_s, layers = [], [], []
    attempted = failed = steps = 0
    correct = True
    try:
        while True:
            # The previous repetition's outputs are dropped before the next
            # one starts, so that peak_rss_mib holds one repetition's memory.
            dt, raw = _timed(workload)
            attempted += workload.operations
            rep = workload.check(raw)
            raw = None
            plain_s.append(dt)
            failed, steps = failed + rep.failed, rep.steps
            last = dt
            if args.trace:
                tr = tracing.Tracer()
                dt, raw = _timed(workload, tr)
                attempted += workload.operations
                spans, counts = tr.totals()
                rep = workload.check(raw)
                raw = None
                traced_s.append(dt)
                layers.append(tracing.layer_values(spans, counts, rep.csv_bytes))
                failed += rep.failed
                last += dt
            if sum(plain_s) + sum(traced_s) + last > args.seconds:
                break
        workload.check_once()
    except workloads.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        correct = False

    if not correct:
        metrics = {}
    elif args.trace:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(traced_s) - statistics.median(plain_s)
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
    else:
        run_s = statistics.median(plain_s)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "steps_per_s": {"value": steps / run_s, "unit": "steps/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "repetitions": len(plain_s)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
