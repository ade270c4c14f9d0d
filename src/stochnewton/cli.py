"""Command-line interface.

Subcommands:

* ``run-paired``  -- paired benchmark, CSV output.
* ``check-prop1`` -- evaluate the momentum contraction bound.
* ``trace``       -- verbose single-trial trace to stdout.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

import argparse
import sys

import numpy as np

from .experiment import (
    RHO_MONITOR_MIN_STEP,
    RHO_MONITOR_THRESHOLD,
    ExperimentConfig,
    TooManyFailuresError,
    emit_csv,
    rho_monitor_summary,
    run_paired_trials,
)
from .filtering import FilterConfig, FilterDivergenceError, check_contraction_bound
from .linalg import PositiveDefiniteError
from .objectives import NumericalError
from .optim import StepError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Argument problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _vector(text):
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from err


def _nonnegative_int(text):
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_problem_flags(parser, with_trials=True):
    # Every default is ExperimentConfig's, and so is the type it parses
    # as, but for the seed: a stream key is a non-negative integer.
    default = ExperimentConfig()
    for flag, name, text in (("n", "n", "sample count"), ("d", "d", "parameter dimension"),
                             ("batch", "batch_size", "batch size"),
                             ("steps", "steps", "steps per trial"),
                             ("trials", "trials", "paired trials"),
                             ("alpha", "alpha", "state-model alpha"),
                             ("beta", "beta", "state-model beta"),
                             ("seed", "master_seed", "master seed")):
        if with_trials or flag != "trials":
            value = getattr(default, name)
            kind = _nonnegative_int if flag == "seed" else type(value)
            parser.add_argument(f"--{flag}", type=kind, default=value,
                                help=f"{text} (default %(default)s)")
    parser.add_argument("--theta0", type=_vector, default=None,
                        help="start point, comma-separated (default 4.0,-2.0 pattern)")
    parser.add_argument("--theta-true", type=_vector, default=None,
                        help="data-generating parameter (default all ones)")


def _experiment_config(args, trials=None):
    return ExperimentConfig(
        n=args.n,
        d=args.d,
        batch_size=args.batch,
        steps=args.steps,
        trials=args.trials if trials is None else trials,
        alpha=args.alpha,
        beta=args.beta,
        master_seed=args.seed,
        theta0=args.theta0,
        theta_true=args.theta_true,
    )


def _cmd_run_paired(args):
    cfg = _experiment_config(args)
    result = run_paired_trials(cfg, workers=args.workers)
    emit_csv(result.stats, result.curves, args.out)
    print(f"exact optimum: {result.theta_star}")
    print(f"trials: {cfg.trials} ({len(result.failures)} failed and excluded)")
    head = min(5, result.stats.steps)
    print("step  mse_unfiltered  mse_filtered")
    for i in range(head):
        print(f"{i + 1:4d}  {result.stats.mse_unfiltered[i]:14.6f}  "
              f"{result.stats.mse_filtered[i]:12.6f}")
    monitor = rho_monitor_summary(result.filtered.rho)
    late = monitor.step_max[RHO_MONITOR_MIN_STEP:]
    if late.size and not np.isnan(late).all():
        print(f"max rho(M_t) for t > {RHO_MONITOR_MIN_STEP}: {np.nanmax(late):.6f} "
              f"({len(monitor.violations)} steps at or above {RHO_MONITOR_THRESHOLD})")
    print(f"wrote {args.out}.table1.csv and {args.out}.curves.csv")
    return 0


def _cmd_check_prop1(args):
    cfg = FilterConfig(alpha=args.alpha, beta=args.beta, dim=1)
    check = check_contraction_bound(cfg, args.lambda_min, args.lambda_max)
    print(f"bound = {check.bound!r}")
    if check.satisfied:
        print("satisfied: every momentum matrix is a contraction (rho < 1)")
    else:
        print("not satisfied: the bound does not guarantee rho(M_t) < 1")
    return 0


def _cmd_trace(args):
    from .objectives import LeastSquaresObjective
    from .optim import run
    from .streams import BATCH_STREAM, DATA_STREAM, derive_stream
    from .experiment import exact_mle, generate_data, signed_angular_error

    cfg = _experiment_config(args, trials=1)
    data = generate_data(cfg, derive_stream(cfg.master_seed, DATA_STREAM))
    theta_star = exact_mle(data)
    obj = LeastSquaresObjective(data)
    print(f"exact optimum: {theta_star}")
    for name, filtered in (("unfiltered", False), ("filtered", True)):
        rng = derive_stream(cfg.master_seed, BATCH_STREAM, args.trial)
        trace = run(obj, cfg.theta0, cfg.optimizer_config(filtered=filtered), rng)
        print(f"-- {name} --")
        for rec in trace.records:
            angle = signed_angular_error(rec.direction, rec.theta_before, theta_star)
            rho = "      -" if rec.rho_m is None else f"{rec.rho_m:7.4f}"
            fallback = "-" if rec.fallback_fired is None else str(int(rec.fallback_fired))
            theta = ", ".join(f"{v: .6f}" for v in rec.theta_after)
            print(f"t={rec.t:3d} lambda={rec.step_length:7.4f} angle={angle: .4f} "
                  f"rho={rho} fallback={fallback} theta=[{theta}]")
    return 0


def build_parser():
    parser = _Parser(prog="stochnewton",
                     description="Batch Newton optimization benchmark tools")
    sub = parser.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run-paired", help="run the paired benchmark and write CSV")
    _add_problem_flags(rp)
    rp.add_argument("--out", default="paired", help="output path prefix (default 'paired')")
    rp.add_argument("--workers", type=int, default=1,
                    help="contiguous stacks the trials are split into, run one after "
                         "another; the output does not depend on it (default 1)")
    rp.set_defaults(func=_cmd_run_paired)

    cp = sub.add_parser("check-prop1", help="evaluate the momentum contraction bound")
    cp.add_argument("--alpha", type=float, required=True)
    cp.add_argument("--beta", type=float, required=True)
    cp.add_argument("--lambda-min", type=float, required=True, dest="lambda_min")
    cp.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")
    cp.set_defaults(func=_cmd_check_prop1)

    tr = sub.add_parser("trace", help="print a verbose single-trial trace")
    _add_problem_flags(tr, with_trials=False)
    tr.add_argument("--trial", type=_nonnegative_int, default=0,
                    help="trial index for the batch stream")
    tr.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Numerical types first: PositiveDefiniteError is a ValueError (via LinAlgError).
    except (PositiveDefiniteError, NumericalError, FilterDivergenceError,
            StepError, TooManyFailuresError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
