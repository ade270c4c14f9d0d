"""The stochnewton benchmark: one workload per call, each in fresh processes.

    python3 snbench/run.py --workload paired-d2 --seed 0 --seconds 40 --trace 0

Run from anywhere; it benchmarks the ``src/stochnewton`` sources of the
checkout that holds this directory. With ``--trace 0`` it prints the
end-to-end metrics (set-up time, run time, step rate, peak memory),
with ``--trace 1`` the per-layer metrics of a traced pass. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Set-up time is timed in SETUP_SAMPLES fresh processes that stop once
the workload is ready, plus the process that then runs it; the median
is reported. Every process runs with one BLAS thread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".snbench_runs"
WORKLOADS = ("paired-d2", "paired-wide", "logistic-long")   # as in workloads.make
SETUP_SAMPLES = 4
DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(workload, args, out_dir, deadline, setup_only=False):
    """Run worker.py to its end and return its JSON line and exit code."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--spawned", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: worker did not finish within {DEADLINE_S} s")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: worker exited with {proc.returncode} and no result")
    return json.loads(lines[-1]), proc.returncode


def run_workload(workload, args):
    """Set-up samples, then the measured process; returns (result, exit code)."""
    deadline = time.monotonic() + DEADLINE_S
    RUNS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                sample, code = _child(workload, args, out_dir, deadline, setup_only=True)
                if code != 0:
                    raise SystemExit(f"{workload}: set-up failed")
                setups.append(sample["setup_s"])
        result, code = _child(workload, args, out_dir, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    metrics = result["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"{workload} seed {args.seed}: {result['repetitions']} repetition(s), "
          f"{result['failed']} of {result['attempted']} operations failed, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    return result, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochnewton" / "__init__.py").is_file():
        raise SystemExit(f"no stochnewton sources under {ROOT / 'src'}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, codes = zip(*(run_workload(name, args) for name in names))
    if len(names) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{name}.{key}": value
                   for name, result in zip(names, results) for key, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
