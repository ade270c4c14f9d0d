"""Acceptance suite.

Each test prints one ``ACCEPTANCE n [...]: PASS/FAIL`` line (run with
``pytest -s`` to see them as they complete). Criteria 1-3 share a
100-seed benchmark sweep computed once per session in a small process
pool; set STOCHNEWTON_ACCEPT_SEEDS to shrink the sweep during
development.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stochnewton.experiment import (
    ExperimentConfig,
    emit_csv,
    rho_monitor_summary,
    run_paired_trials,
)
from stochnewton.filtering import (
    FilterConfig,
    GaussianBelief,
    check_contraction_bound,
    dkf_update,
    dkf_update_info,
    init_belief,
    momentum_matrix,
    unrolled_direction,
)
from stochnewton.linalg import solve_spd, spectral_norm
from stochnewton.objectives import (
    BatchObservation,
    ExpFamilyObjective,
    GlmData,
    GlmObjective,
    LeastSquaresData,
    LeastSquaresObjective,
    bernoulli_family,
    bernoulli_scalar_family,
    fisher_identity_check,
    gaussian_family,
    gaussian_scalar_family,
)
from stochnewton.optim import OptimizerConfig, filtered_step, unfiltered_step

from helpers import (
    finite_difference_gradient,
    finite_difference_hessian,
    random_spd,
)

REFERENCE_MSE_UNFILTERED = np.array([0.041, 0.050, 0.081, 0.178, 0.408])
REFERENCE_MSE_FILTERED = np.array([0.041, 0.043, 0.060, 0.093, 0.231])

N_SEEDS = int(os.environ.get("STOCHNEWTON_ACCEPT_SEEDS", "100"))


def _report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} [{name}]: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return passed


def _smallest_margin(margins):
    """``margins`` maps seed -> margin; the smallest, with its seed, as report text."""
    seed = min(margins, key=margins.get, default=None)
    return "no winning seed" if seed is None else f"smallest margin {margins[seed]:.3f} at seed {seed}"


def _seed_summary(seed):
    """Compact per-seed statistics for criteria 1-3."""
    result = run_paired_trials(ExperimentConfig(master_seed=seed))
    med_unf = float(np.median(
        [np.linalg.norm(theta - result.theta_star) for theta in result.unfiltered.thetas[:, 10]]))
    med_fil = float(np.median(
        [np.linalg.norm(theta - result.theta_star) for theta in result.filtered.thetas[:, 10]]))
    monitor = rho_monitor_summary(result.filtered.rho)
    return {
        "seed": seed,
        "step1_equal": bool(result.stats.mse_unfiltered[0] == result.stats.mse_filtered[0]),
        "mse_unfiltered": result.stats.mse_unfiltered[:5].tolist(),
        "mse_filtered": result.stats.mse_filtered[:5].tolist(),
        "median10_unfiltered": med_unf,
        "median10_filtered": med_fil,
        "rho_violations": list(monitor.violations),
        "max_rho_late": float(np.nanmax(monitor.step_max[5:])),
        "failures": len(result.failures),
    }


@pytest.fixture(scope="session")
def seed_sweep():
    seeds = list(range(N_SEEDS))
    workers = min(os.cpu_count() or 1, 4)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        summaries = list(pool.map(_seed_summary, seeds))
    return summaries


def test_criterion_1_reference_mse_reproduction(seed_sweep):
    t0 = time.perf_counter()
    timed = run_paired_trials(ExperimentConfig(master_seed=0), workers=1)
    runtime = time.perf_counter() - t0
    # Companion invariant: squared bias of the angular error stays small
    # over the first five steps for both methods.
    assert np.all(timed.stats.bias2_unfiltered[:5] <= 0.010)
    assert np.all(timed.stats.bias2_filtered[:5] <= 0.010)

    step1_equal = all(s["step1_equal"] for s in seed_sweep)
    wins = [s for s in seed_sweep
            if all(f < u for f, u in zip(s["mse_filtered"][1:5], s["mse_unfiltered"][1:5]))]
    ordering_wins = len(wins)
    # A winner's margin is its smallest relative gap (u - f) / u over steps 2-5.
    margins = {s["seed"]: min((u - f) / u for f, u in zip(s["mse_filtered"][1:5], s["mse_unfiltered"][1:5]))
               for s in wins}
    mean_unf = np.mean([s["mse_unfiltered"] for s in seed_sweep], axis=0)
    mean_fil = np.mean([s["mse_filtered"] for s in seed_sweep], axis=0)
    ratio_unf = mean_unf[1:5] / REFERENCE_MSE_UNFILTERED[1:5]
    ratio_fil = mean_fil[1:5] / REFERENCE_MSE_FILTERED[1:5]
    in_band = bool(np.all((ratio_unf >= 0.4) & (ratio_unf <= 1.6))
                   and np.all((ratio_fil >= 0.4) & (ratio_fil <= 1.6)))

    need = int(np.ceil(0.95 * len(seed_sweep)))
    passed = (step1_equal and ordering_wins >= need and in_band and runtime < 60.0)
    _report(
        1, "reference angular-MSE reproduction", passed,
        f"step1 equal: {step1_equal}; filtered<unfiltered steps 2-5 in "
        f"{ordering_wins}/{len(seed_sweep)} seeds; band ratios unfiltered "
        f"{np.round(ratio_unf, 2).tolist()}, filtered {np.round(ratio_fil, 2).tolist()}; "
        f"runtime {runtime:.1f}s; "
        + _smallest_margin(margins),
    )
    assert step1_equal, "step-1 MSEs differ between methods on some seed"
    assert ordering_wins >= need
    assert in_band
    assert runtime < 60.0


def test_criterion_2_convergence_ordering(seed_sweep):
    wins = sum(s["median10_filtered"] < s["median10_unfiltered"] for s in seed_sweep)
    need = int(np.ceil(0.95 * len(seed_sweep)))
    passed = wins >= need
    margins = {s["seed"]: (s["median10_unfiltered"] - s["median10_filtered"]) / s["median10_unfiltered"]
               for s in seed_sweep if s["median10_filtered"] < s["median10_unfiltered"]}
    _report(2, "median distance at step 10, filtered below unfiltered", passed,
            f"{wins}/{len(seed_sweep)} seeds; {_smallest_margin(margins)}")
    assert passed


def test_criterion_3_rho_monitor(seed_sweep):
    clean = sum(not s["rho_violations"] for s in seed_sweep)
    need = int(np.ceil(0.95 * len(seed_sweep)))
    passed = clean >= need
    worst = max(seed_sweep, key=lambda s: s["max_rho_late"])
    # The smallest margin is the clean seed whose late peak is closest to 0.8.
    peaks = {s["seed"]: s["max_rho_late"] for s in seed_sweep if not s["rho_violations"]}
    closest = max(peaks, key=peaks.get, default=None)
    margin = ("no clean seed" if closest is None
              else f"smallest margin at seed {closest}, peak {peaks[closest]:.6f}")
    _report(
        3, "max rho(M_t) < 0.8 for t > 5", passed,
        f"{clean}/{len(seed_sweep)} seeds clean; worst seed {worst['seed']} "
        f"peak {worst['max_rho_late']:.4f} at steps {worst['rho_violations']}; "
        + margin,
    )
    # The per-seed max-over-trials statistic straddles the 0.8 threshold
    # under these dynamics (the early steps inherit a large initial
    # covariance), so a sizable fraction of seeds exceeds it. Asserted as
    # stated, without loosening.
    assert passed


def test_criterion_4_momentum_contraction_properties():
    rng = np.random.default_rng(2024)
    checked_products = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        lam_min = float(rng.uniform(0.05, 1.5))
        lam_max = lam_min * float(rng.uniform(1.0, 4.0))
        alpha = float(rng.uniform(0.05, 0.95))
        floor = alpha * lam_max - alpha ** 2 * lam_min
        beta = float(max(floor, 0.0) * rng.uniform(1.001, 2.0) + rng.uniform(1e-3, 0.2))
        cfg = FilterConfig(alpha=alpha, beta=beta, dim=d)
        check = check_contraction_bound(cfg, lam_min, lam_max)
        assert check.satisfied, "construction should enforce the contraction condition"
        bound = check.bound

        length = int(rng.integers(2, 7))
        sigmas = [random_spd(rng, d, lam_min, lam_max) for _ in range(length)]
        momenta = [momentum_matrix(cfg, s) for s in sigmas]
        for mm in momenta:
            assert mm.rho <= bound + 1e-9
        # Backward products M_t ... M_{i+1} decay geometrically in the bound.
        for start in range(len(momenta)):
            prod = np.eye(d)
            for k in range(start, len(momenta)):
                prod = momenta[k].m @ prod
                checked_products += 1
                assert spectral_norm(prod) <= bound ** (k - start + 1) + 1e-9
    _report(4, "momentum contraction property suite", True,
            f"1000 instances, {checked_products} products checked")


def test_criterion_5_recursion_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 6))
        cfg = FilterConfig(alpha=float(rng.uniform(0.15, 0.95)),
                           beta=float(rng.uniform(0.05, 1.5)), dim=d)
        length = int(rng.integers(1, 21))
        seq = [
            BatchObservation(f=rng.standard_normal(d),
                             q=random_spd(rng, d, 0.3, 3.0), value=0.0)
            for _ in range(length)
        ]
        belief = init_belief(seq[0])
        for obs in seq[1:]:
            belief = dkf_update(cfg, belief, obs)
        recursive = solve_spd(belief.sigma, belief.mu)
        unrolled = unrolled_direction(seq, cfg)
        rel = np.linalg.norm(unrolled - recursive) / max(1.0, np.linalg.norm(recursive))
        worst = max(worst, rel)
        assert rel <= 1e-8
    _report(5, "unrolled vs recursive direction", True,
            f"500 sequences, worst relative gap {worst:.2e}")


def test_criterion_6_gaussian_product_oracle():
    rng = np.random.default_rng(6)
    branch_counts = {True: 0, False: 0}
    worst = 0.0
    for i in range(500):
        d = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 0.95))
        beta = float(rng.uniform(0.1, 1.2))
        cfg = FilterConfig(alpha=alpha, beta=beta, dim=d)
        prev = GaussianBelief(mu=rng.standard_normal(d),
                              sigma=random_spd(rng, d, 0.3, 2.0))
        # Alternate small and large observation covariances so both the
        # plain branch and the replacement branch are exercised.
        if i % 2 == 0:
            q = random_spd(rng, d, 0.05 * cfg.s_scalar, 0.8 * cfg.s_scalar)
        else:
            q = random_spd(rng, d, 1.2 * cfg.s_scalar, 3.0 * cfg.s_scalar)
        obs = BatchObservation(f=rng.standard_normal(d), q=q, value=0.0)
        upd = dkf_update_info(cfg, prev, obs)
        branch_counts[upd.fallback_fired] += 1

        # Oracle: explicit density multiplication in information form via
        # plain LU inverses, with an eigenvalue-based replacement test.
        eye = np.eye(d)
        s_inv = (1.0 / cfg.s_scalar) * eye
        q_inv = np.linalg.inv(q)
        if np.min(np.linalg.eigvalsh(q_inv - s_inv)) <= 0.0:
            q_inv = q_inv + s_inv
        r = alpha ** 2 * prev.sigma + beta * eye
        r_inv = np.linalg.inv(r)
        precision = q_inv + r_inv - s_inv
        sigma = np.linalg.inv(precision)
        sigma = 0.5 * (sigma + sigma.T)
        mu = np.linalg.solve(precision, q_inv @ obs.f + r_inv @ (alpha * prev.mu))

        scale = max(1.0, float(np.max(np.abs(sigma))), float(np.max(np.abs(mu))))
        gap = max(float(np.max(np.abs(upd.belief.sigma - sigma))),
                  float(np.max(np.abs(upd.belief.mu - mu)))) / scale
        worst = max(worst, gap)
        assert gap <= 1e-9
    assert branch_counts[True] >= 100 and branch_counts[False] >= 100
    _report(6, "density-multiplication oracle", True,
            f"500 instances (fallback fired {branch_counts[True]}x), "
            f"worst gap {worst:.2e}")


def test_criterion_7_derivative_correctness():
    rng = np.random.default_rng(7)

    ls = LeastSquaresObjective(LeastSquaresData(
        xs=rng.standard_normal((40, 3)),
        ys=rng.standard_normal(40),
    ))
    expfam = ExpFamilyObjective(bernoulli_family(),
                                rng.integers(0, 2, size=(40, 1)).astype(float))
    gauss = ExpFamilyObjective(gaussian_family(2), rng.standard_normal((40, 2)))
    glm_logit = GlmObjective(GlmData(xs=rng.standard_normal((40, 2)),
                                     ys=rng.integers(0, 2, size=40).astype(float),
                                     family=bernoulli_scalar_family()))
    glm_gauss = GlmObjective(GlmData(xs=rng.standard_normal((40, 2)),
                                     ys=rng.standard_normal(40),
                                     family=gaussian_scalar_family()))

    for obj in (ls, expfam, gauss, glm_logit, glm_gauss):
        for _ in range(100):
            theta = rng.uniform(-1.5, 1.5, size=obj.d)
            j = int(rng.integers(obj.n))
            _, grad, hess = obj.value_grad_hess(theta, j)
            fd_grad = finite_difference_gradient(lambda th: obj.value(th, j), theta)
            fd_hess = finite_difference_hessian(lambda th: obj.grad_hess(th, j)[0], theta)
            gscale = max(1.0, float(np.max(np.abs(grad))))
            hscale = max(1.0, float(np.max(np.abs(hess))))
            assert np.max(np.abs(grad - fd_grad)) <= 1e-5 * gscale
            assert np.max(np.abs(hess - fd_hess)) <= 1e-4 * hscale

    gauss_report = fisher_identity_check(gaussian_family(1), np.array([0.3]),
                                         10 ** 6, np.random.default_rng(71))
    bern_report = fisher_identity_check(bernoulli_family(), np.array([-0.2]),
                                        10 ** 6, np.random.default_rng(72))
    assert gauss_report.within(3.0)
    assert bern_report.within(3.0)
    _report(7, "derivatives vs finite differences and MC variance", True,
            "5 objectives x 100 points; Fisher checks within 3 SE")


def test_criterion_8_stationarity_and_step1_identity():
    # Stationary prior: the posterior covariance returns Q exactly.
    worst = 0.0
    for alpha, beta, d, qscale in [(0.9, 0.2, 1, 0.4), (0.7, 0.5, 3, 0.3), (0.5, 1.0, 2, 1.2)]:
        cfg = FilterConfig(alpha=alpha, beta=beta, dim=d)
        q = qscale * np.eye(d)
        prev = GaussianBelief(mu=np.ones(d), sigma=cfg.s_scalar * np.eye(d))
        upd = dkf_update_info(cfg, prev, BatchObservation(f=np.ones(d), q=q, value=0.0))
        assert not upd.fallback_fired
        worst = max(worst, float(np.max(np.abs(upd.belief.sigma - q))))
    assert worst <= 1e-12

    # Step 1: filtered and unfiltered directions coincide bit for bit.
    rng = np.random.default_rng(8)
    data = LeastSquaresData(xs=rng.standard_normal((50, 2)),
                            ys=rng.standard_normal(50))
    obj = LeastSquaresObjective(data)
    theta0 = np.array([4.0, -2.0])
    batch = rng.integers(0, 50, size=5)
    ucfg = OptimizerConfig(batch_size=5, max_steps=1)
    fcfg = OptimizerConfig(batch_size=5, max_steps=1,
                           filter=FilterConfig(alpha=0.9, beta=0.2, dim=2))
    urec = unfiltered_step(obj, theta0, batch, ucfg)
    frec, _ = filtered_step(obj, theta0, batch, None, fcfg)
    bit_identical = (np.array_equal(urec.direction, frec.direction)
                     and urec.step_length == frec.step_length)
    assert bit_identical
    _report(8, "stationarity and step-1 identities", True,
            f"stationary gap {worst:.2e}; step-1 directions bit-identical")


def test_criterion_9_determinism_across_workers(tmp_path):
    cfg_kwargs = dict(master_seed=31)
    files = {}
    for label, workers in (("a", 1), ("b", 1), ("c", 4), ("d", 8)):
        result = run_paired_trials(ExperimentConfig(**cfg_kwargs), workers=workers)
        out = tmp_path / label
        emit_csv(result.stats, result.curves, out)
        files[label] = tuple(
            (tmp_path / f"{label}.{suffix}.csv").read_bytes()
            for suffix in ("table1", "curves")
        )
    identical = files["a"] == files["b"] == files["c"] == files["d"]
    _report(9, "byte-identical CSV across reruns and 1/4/8 workers", identical)
    assert identical
