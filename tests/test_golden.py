"""Golden outputs: the benchmark's results must not move unnoticed.

``tests/golden/`` holds the two CSVs of ``run-paired`` at the
``paired-d2`` settings (n 100, d 2, batch 5, 1000 trials), at the
``paired-wide`` settings (n 2000, d 20, batch 100, 100 trials) and at
the ``ridge-d2`` settings (n 20, d 2, batch 2, 200 trials, where the
ridge fires on a few hundred steps of each method), at seeds 0 and
4242, and ``digests.json`` with:

- a SHA-256 of each run's decision arrays (``decision_digest``);
- the record digest of the first four ``logistic-long`` trials at
  seed 0 (``logistic_digests``) and a SHA-256 of their step lengths;
- the numpy version and machine the files were made on.

On the machine and numpy the files were made with, every output must
come back byte for byte. Elsewhere BLAS and libm may round differently,
so the CSVs are compared at 1e-12 relative and only the decision
digests must be equal. A failure says how many cells differ, by how much
at most, and whether any decision moved, which is what a change that
drifts on purpose records when it regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from stochnewton import filtering, objectives, optim, streams
from stochnewton.experiment import ExperimentConfig, emit_csv, run_paired_trials

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

PAIRED = {
    "paired-d2": dict(n=100, d=2, batch_size=5, trials=1000),
    "paired-wide": dict(n=2000, d=20, batch_size=100, trials=100),
    "ridge-d2": dict(n=20, d=2, batch_size=2, trials=200),
}
SEEDS = (0, 4242)
CASES = [f"{name}-seed{seed}" for name in PAIRED for seed in SEEDS]
DECISIONS = ("step_lengths", "armijo_satisfied", "fallback", "ridge_eps", "failed_step")
CSVS = ("table1", "curves")


def _platform():
    return {"numpy": np.__version__, "machine": platform.machine()}


def decision_digest(result):
    """SHA-256 of both methods' decision arrays, in a fixed order."""
    digest = hashlib.sha256()
    for trace in (result.unfiltered, result.filtered):
        for name in DECISIONS:
            digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return digest.hexdigest()


def run_paired_case(case, out_dir):
    """``run-paired`` at a case's settings: its CSV bytes and decision digest.

    The same run as ``stochnewton run-paired --n .. --d .. --batch ..
    --trials .. --seed ..`` with the other flags at their defaults
    (30 steps, alpha 0.9, beta 0.2).
    """
    name, seed = case.rsplit("-seed", 1)
    result = run_paired_trials(ExperimentConfig(master_seed=int(seed), **PAIRED[name]))
    prefix = Path(out_dir) / case
    emit_csv(result.stats, result.curves, prefix)
    csvs = {kind: Path(f"{prefix}.{kind}.csv").read_bytes() for kind in CSVS}
    return csvs, decision_digest(result)


def logistic_digests(trials=4, seed=0):
    """The ``logistic-long`` record digest of the first ``trials`` trials.

    Logistic regression on n 1000, d 5: x ~ N(0, I) and y ~ Bernoulli of
    the logistic of theta_true.x, theta_true = linspace(1, -1, 5), from
    ``default_rng(seed)``. Each trial runs 300 steps at batch 20 from
    theta 0 without and with the filter (alpha 0.9, beta 0.2), both on
    the trial's batch stream. The record digest hashes every record's
    direction, theta_after and batch; the decision digest every step
    length.
    """
    n, d = 1000, 5
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    eta = xs @ np.linspace(1.0, -1.0, d)
    ys = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    obj = objectives.GlmObjective(
        objectives.GlmData(xs=xs, ys=ys, family=objectives.bernoulli_scalar_family()))
    configs = (
        optim.OptimizerConfig(batch_size=20, max_steps=300),
        optim.OptimizerConfig(batch_size=20, max_steps=300,
                              filter=filtering.FilterConfig(alpha=0.9, beta=0.2, dim=d)),
    )
    records, decisions = hashlib.sha256(), hashlib.sha256()
    for trial in range(trials):
        for cfg in configs:
            rng = streams.derive_stream(seed, streams.BATCH_STREAM, trial)
            try:
                trace = optim.run(obj, np.zeros(d), cfg, rng)
            except optim.StepError:
                records.update(b"failed|")
                decisions.update(b"failed|")
                continue
            for rec in trace.records:
                records.update(rec.direction.tobytes() + rec.theta_after.tobytes()
                               + rec.batch.tobytes())
                decisions.update(np.float64(rec.step_length).tobytes())
            records.update(b"|")
            decisions.update(b"|")
    return {"records": records.hexdigest(), "decisions": decisions.hexdigest()}


def _cells(data):
    return [line.split(",") for line in data.decode().splitlines()]


def csv_drift(got, want):
    """Cells that differ between two CSVs and the largest relative gap among them.

    The gap is inf where a cell is not a number in both files, or where
    the files differ in shape.
    """
    rows_got, rows_want = _cells(got), _cells(want)
    if [len(r) for r in rows_got] != [len(r) for r in rows_want]:
        return max(len(rows_got), len(rows_want)), float("inf")
    differing, worst = 0, 0.0
    for row_got, row_want in zip(rows_got, rows_want):
        for a, b in zip(row_got, row_want):
            if a == b:
                continue
            differing += 1
            try:
                x, y = float(a), float(b)
            except ValueError:
                worst = float("inf")
                continue
            gap = abs(x - y) / max(abs(y), np.finfo(float).tiny)
            worst = max(worst, gap if np.isfinite(gap) else float("inf"))
    return differing, worst


def _load():
    return json.loads((GOLDEN / "digests.json").read_text())


def _same_platform(golden):
    return golden["made_with"] == _platform()


@pytest.mark.parametrize("case", CASES)
def test_run_paired_matches_golden(case, tmp_path):
    golden = _load()
    csvs, decisions = run_paired_case(case, tmp_path)
    moved = decisions != golden["decision_digest"][case]
    exact = _same_platform(golden)
    problems = []
    for kind in CSVS:
        want = (GOLDEN / f"{case}.{kind}.csv").read_bytes()
        if csvs[kind] == want:
            continue
        differing, worst = csv_drift(csvs[kind], want)
        if exact or worst > RTOL:
            problems.append(f"{kind}.csv: {differing} cells differ, worst relative gap {worst:.3g}")
    if moved:
        problems.append("the decision digest moved")
    elif problems:
        problems.append("the decision digest did not move")
    assert not problems, f"{case} against tests/golden: " + "; ".join(problems)


def test_logistic_long_matches_golden():
    golden = _load()
    got = logistic_digests()
    want = golden["logistic_digests"]
    moved = got["decisions"] != want["decisions"]
    assert not moved, "logistic-long: the step lengths moved"
    if _same_platform(golden):
        assert got["records"] == want["records"], (
            "logistic-long: the record digest moved; the step lengths did not")


def write():
    """Regenerate every golden file from the program as it stands."""
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for case in CASES:
        _, digests[case] = run_paired_case(case, GOLDEN)
    out = {"made_with": _platform(), "decision_digest": digests,
           "logistic_digests": logistic_digests()}
    (GOLDEN / "digests.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write()
