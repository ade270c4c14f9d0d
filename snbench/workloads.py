"""The benchmark's workloads: inputs made from the seed, one timed repetition, checks.

Each workload builds its inputs and its reference values in
``__init__`` (that is the set-up the benchmark times) and runs one
repetition in ``run_once`` (the only timed call). ``check`` checks the
first repetition's outputs in full and requires every later repetition
to repeat them bit for bit; ``check_once`` holds the checks that are
made once per process. Reference values are computed here with plain
numpy, apart from the program; the other checks test properties the
method must have.
"""

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stochnewton import cli, experiment, filtering, objectives, optim, streams

ALPHA = 0.9
BETA = 0.2
STEP_LENGTHS = tuple(2.0 ** -k for k in range(5))   # armijo_backtrack's defaults


class CheckFailed(Exception):
    """A program output disagrees with its reference or with a property of the method."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Rep:
    """What one repetition did, as the report counts it."""

    failed: int
    steps: int          # optimizer steps completed, all trials, both methods
    csv_bytes: int


def _philox(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _close(actual, expected, rtol):
    """Max-norm agreement relative to the size of ``expected``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) <= rtol * scale


# ---------------------------------------------------------------------------
# Paired workloads: the ``run-paired`` command
# ---------------------------------------------------------------------------

class PairedWorkload:
    """``stochnewton run-paired`` on the synthetic regression problem."""

    def __init__(self, seed, out_dir, n, d, batch, trials, steps=30):
        self.seed = seed
        self.n, self.d, self.batch, self.steps = n, d, batch, steps
        self.operations = trials      # trials per repetition
        self.prefix = str(Path(out_dir) / "rep")
        self.argv = [
            "run-paired", "--n", str(n), "--d", str(d), "--batch", str(batch),
            "--steps", str(steps), "--trials", str(trials), "--alpha", repr(ALPHA),
            "--beta", repr(BETA), "--seed", str(seed), "--workers", "1", "--out", self.prefix,
        ]
        # The dataset as documented: Philox keyed by (seed, DATA_STREAM=0),
        # x ~ N(0, cov) with unit variances and 0.1 correlations,
        # y = theta_true.x + N(1, 1) with theta_true all ones.
        cov = np.full((d, d), 0.1)
        np.fill_diagonal(cov, 1.0)
        rng = _philox(seed, 0)
        self.xs = rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
        self.ys = self.xs @ np.ones(d) + (1.0 + rng.standard_normal(n))
        self.theta_star = np.linalg.lstsq(self.xs, self.ys, rcond=None)[0]
        resid = self.xs @ self.theta_star - self.ys
        self.obj_star = 0.5 * float(np.mean(resid * resid))
        self.theta0 = np.where(np.arange(d) % 2 == 0, 4.0, -2.0)
        self.first_csv = None

    def run_once(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, raw):
        code, out = raw
        require(code == 0, f"run-paired exited with {code}: {out[-500:]}")
        counts = re.search(r"trials: (\d+) \((\d+) failed and excluded\)", out)
        require(counts is not None, "run-paired did not report its trial count")
        reported, failed = int(counts.group(1)), int(counts.group(2))
        require(reported == self.operations, f"{reported} trials reported, {self.operations} asked for")
        printed = re.search(r"exact optimum: \[([^\]]*)\]", out)
        require(printed is not None, "run-paired did not print the exact optimum")
        # numpy prints 8 digits after the point.
        require(_close(np.array(printed.group(1).split(), dtype=float), self.theta_star, 1e-7),
                "printed optimum differs from numpy lstsq")

        csv = (Path(f"{self.prefix}.table1.csv").read_bytes(),
               Path(f"{self.prefix}.curves.csv").read_bytes())
        if self.first_csv is None:
            self.first_csv = csv
            self._check_tables(*csv)
        require(csv == self.first_csv, "a repetition wrote CSVs with other bytes than the first")
        return Rep(failed=failed, steps=2 * self.steps * (reported - failed),
                   csv_bytes=len(csv[0]) + len(csv[1]))

    def _check_tables(self, table_bytes, curve_bytes):
        table = [line.split(",") for line in table_bytes.decode().splitlines()]
        require(table[0] == ["step", "mse_unfiltered", "mse_filtered", "bias2_unfiltered",
                             "bias2_filtered", "var_unfiltered", "var_filtered"],
                "table1 header")
        require(len(table) == self.steps + 1, "table1 row count")
        require(table[1][1] == table[1][2], "step-1 mse differs between the methods")
        for row in table[1:]:
            mse_u, mse_f, b2_u, b2_f, var_u, var_f = (float(x) for x in row[1:])
            for mse, b2, var in ((mse_u, b2_u, var_u), (mse_f, b2_f, var_f)):
                require(abs(mse - (b2 + var)) <= 1e-12 * mse, f"mse != bias2 + var at step {row[0]}")

        curves = [line.split(",") for line in curve_bytes.decode().splitlines()]
        require(curves[0] == ["step", "method", "mean_dist", "sd_dist", "mean_obj", "sd_obj",
                              "mean_displacement", "sd_displacement", "mean_rho", "max_rho"],
                "curves header")
        require(len(curves) == 2 * self.steps + 1, "curves row count")
        start_dist = float(np.linalg.norm(self.theta0 - self.theta_star))
        for i, row in enumerate(curves[1:]):
            method = "unfiltered" if i < self.steps else "filtered"
            step = i % self.steps + 1
            require(row[:2] == [str(step), method], f"curves row {i + 1} out of order")
            require(float(row[4]) >= self.obj_star * (1.0 - 1e-12),
                    f"{method} mean_obj below the optimum's objective at step {step}")
            if step == self.steps:
                require(float(row[2]) < start_dist, f"{method} final mean_dist not below the start")
            if method == "unfiltered" or step == 1:
                require(row[8:] == ["", ""], f"{method} rho columns not empty at step {step}")
            else:
                mean_rho, max_rho = float(row[8]), float(row[9])
                require(0.0 < mean_rho <= max_rho < 1.0 / ALPHA, f"rho out of range at step {step}")
        self.max_rho = [float(r[9]) if r[9] else None for r in curves[1 + self.steps:]]

    def check_once(self):
        """Dataset, optimum and momentum matrices, through the library."""
        cfg = experiment.ExperimentConfig(n=self.n, d=self.d, batch_size=self.batch,
                                          steps=self.steps, trials=self.operations, alpha=ALPHA,
                                          beta=BETA, master_seed=self.seed)
        data = experiment.generate_data(cfg, streams.derive_stream(self.seed, streams.DATA_STREAM))
        require(_close(data.xs, self.xs, 1e-12) and _close(data.ys, self.ys, 1e-12),
                "generate_data differs from the documented recipe")
        require(_close(experiment.exact_mle(data), self.theta_star, 1e-9),
                "exact_mle differs from numpy lstsq")
        obj = objectives.LeastSquaresObjective(data)
        fcfg = cfg.filter_config()
        trace = optim.run(obj, cfg.theta0, cfg.optimizer_config(filtered=True),
                          streams.derive_stream(self.seed, streams.BATCH_STREAM, 0))
        belief = None
        for i, rec in enumerate(trace.records):
            obs = objectives.evaluate_batch(obj, rec.theta_before, rec.batch)
            if belief is None:
                belief = filtering.init_belief(obs)
                continue
            lam = np.linalg.eigvalsh(belief.sigma)
            upd = filtering.dkf_update_info(fcfg, belief, obs)
            m = upd.momentum.m
            require(_close(m, m.T, 1e-10), f"M_t not symmetric at step {rec.t}")
            expected = np.sort(ALPHA * lam / (ALPHA ** 2 * lam + BETA))
            require(_close(np.linalg.eigvalsh(0.5 * (m + m.T)), expected, 1e-9),
                    f"M_t eigenvalues differ from alpha*lam/(alpha^2*lam+beta) at step {rec.t}")
            require(upd.momentum.rho == rec.rho_m < 1.0 / ALPHA, f"rho_m at step {rec.t}")
            require(rec.rho_m <= self.max_rho[i], f"trial 0 rho above the CSV max_rho at step {rec.t}")
            require(_close(rec.direction, -np.linalg.solve(upd.belief.sigma, upd.belief.mu), 1e-9),
                    f"filtered direction is not -Sigma^-1 mu at step {rec.t}")
            belief = upd.belief


# ---------------------------------------------------------------------------
# logistic-long: the library's optim.run on a canonical GLM
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logistic_obs(xs, ys, theta, batch):
    """Batch-mean gradient and Hessian of the logistic loss, in plain numpy.

    ``theta`` is (k, d) and ``batch`` (k, b): one observation per row.
    """
    x = xs[batch]                                   # (k, b, d)
    p = _sigmoid(np.einsum("kbd,kd->kb", x, theta))
    f = np.einsum("kbd,kb->kd", x, p - ys[batch]) / batch.shape[1]
    q = np.einsum("kbd,kbe,kb->kde", x, x, p * (1.0 - p)) / batch.shape[1]
    return f, q


class LogisticWorkload:
    """20 paired trials x 300 steps of logistic regression through ``optim.run``."""

    n, d, batch, steps, trials = 1000, 5, 20, 300, 20
    operations = 2 * trials           # optim.run calls per repetition

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((self.n, self.d))
        theta_true = np.linspace(1.0, -1.0, self.d)
        ys = (rng.random(self.n) < _sigmoid(xs @ theta_true)).astype(float)
        self.xs, self.ys = xs, ys
        self.theta_mle = self._newton_mle()
        self.theta0 = np.zeros(self.d)
        self.obj = objectives.GlmObjective(
            objectives.GlmData(xs=xs, ys=ys, family=objectives.bernoulli_scalar_family()))
        self.configs = (
            optim.OptimizerConfig(batch_size=self.batch, max_steps=self.steps),
            optim.OptimizerConfig(batch_size=self.batch, max_steps=self.steps,
                                  filter=filtering.FilterConfig(alpha=ALPHA, beta=BETA, dim=self.d)),
        )
        self.first_digest = None

    def _newton_mle(self):
        theta = np.zeros(self.d)
        everything = np.arange(self.n)[None, :]
        for _ in range(50):
            f, q = _logistic_obs(self.xs, self.ys, theta[None, :], everything)
            if np.linalg.norm(f[0]) < 1e-10:
                return theta
            theta = theta - np.linalg.solve(q[0], f[0])
        raise CheckFailed("full-batch Newton did not reach a gradient norm below 1e-10")

    def run_once(self):
        """Both methods on each trial's batch stream; a failed run is None."""
        pairs = []
        for trial in range(self.trials):
            pair = []
            for cfg in self.configs:
                rng = streams.derive_stream(self.seed, streams.BATCH_STREAM, trial)
                try:
                    pair.append(optim.run(self.obj, self.theta0, cfg, rng))
                except optim.StepError:
                    pair.append(None)
            pairs.append(pair)
        return pairs

    def check(self, pairs):
        """Full checks on the first repetition; later ones must repeat it bit for bit."""
        done = [trace for pair in pairs for trace in pair if trace is not None]
        digest = hashlib.sha256()
        for pair in pairs:
            for trace in pair:
                for rec in [] if trace is None else trace.records:
                    digest.update(rec.direction.tobytes() + rec.theta_after.tobytes() + rec.batch.tobytes())
                digest.update(b"|" if trace is not None else b"failed|")
        if self.first_digest is None:
            self._check_runs(pairs, done)
            self.first_digest = digest.digest()
        require(digest.digest() == self.first_digest, "a repetition took other steps than the first")
        return Rep(failed=self.operations - len(done),
                   steps=sum(len(t.records) for t in done), csv_bytes=0)

    def _check_runs(self, pairs, done):
        for trace in done:
            require(len(trace.records) == self.steps, "a run returned too few records")
            for rec in trace.records:
                require(rec.step_length in STEP_LENGTHS, f"step length {rec.step_length}")
                require(np.array_equal(rec.theta_after, rec.theta_before + rec.step_length * rec.direction),
                        "theta_after != theta_before + lambda * direction")
        for plain, filtered in pairs:
            if plain is None or filtered is None:
                continue
            a, b = plain.records[0], filtered.records[0]
            require(np.array_equal(a.direction, b.direction) and np.array_equal(a.theta_after, b.theta_after)
                    and a.step_length == b.step_length, "step 1 differs between the methods")
            self._check_unfiltered(plain)
            self._check_filtered(filtered)

        start = float(np.linalg.norm(self.theta0 - self.theta_mle))
        for k, name in enumerate(("unfiltered", "filtered")):
            finals = [pair[k].records[-1].theta_after for pair in pairs if pair[k] is not None]
            mean_dist = float(np.mean(np.linalg.norm(np.array(finals) - self.theta_mle, axis=1)))
            require(mean_dist < 0.5 * start, f"{name} mean final distance {mean_dist} not below half of {start}")

    def check_once(self):
        """Every check of this workload is made by ``check``."""

    def _observations(self, trace):
        thetas = np.array([rec.theta_before for rec in trace.records])
        batches = np.array([np.sort(rec.batch) for rec in trace.records])
        return _logistic_obs(self.xs, self.ys, thetas, batches)

    def _check_unfiltered(self, trace):
        f, q = self._observations(trace)
        expected = -np.linalg.solve(q, f[..., None])[..., 0]
        for rec, want in zip(trace.records, expected):
            require(_close(rec.direction, want, 1e-8), f"unfiltered direction is not -Q^-1 f at step {rec.t}")

    def _check_filtered(self, trace):
        """Covariance-form filter, as in filtering.py's docstring, in plain numpy."""
        f, q = self._observations(trace)
        eye = np.eye(self.d)
        s_inv = (1.0 - ALPHA ** 2) / BETA
        mu, sigma = f[0], q[0]
        for t, rec in enumerate(trace.records):
            if t > 0:
                r_inv = np.linalg.inv(ALPHA ** 2 * sigma + BETA * eye)
                q_inv = np.linalg.inv(q[t])
                if np.linalg.eigvalsh(q_inv - s_inv * eye)[0] <= 0.0:
                    q_inv = q_inv + s_inv * eye
                sigma = np.linalg.inv(q_inv + r_inv - s_inv * eye)
                mu = sigma @ (q_inv @ f[t] + ALPHA * (r_inv @ mu))
            require(_close(rec.direction, -np.linalg.solve(sigma, mu), 1e-8),
                    f"filtered direction differs from the numpy filter at step {rec.t}")


def make(name, seed, out_dir):
    """The workload called ``name``, with its inputs made from ``seed``."""
    if name == "paired-d2":
        return PairedWorkload(seed, out_dir, n=100, d=2, batch=5, trials=1000)
    if name == "paired-wide":
        return PairedWorkload(seed, out_dir, n=2000, d=20, batch=100, trials=100)
    if name == "logistic-long":
        return LogisticWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
