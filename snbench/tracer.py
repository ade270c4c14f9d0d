"""Per-layer spans recorded from outside the library.

The library modules bind each other's functions at import time
(``from .linalg import try_cholesky`` in ``filtering`` and
``objectives``, ``from .objectives import evaluate_batch`` in ``optim``
and ``experiment``, and so on). A wrapper on ``linalg.try_cholesky``
alone would miss every call made through those copies, so ``Tracer``
replaces the function under every module attribute that holds it, and
the objective classes' methods on the classes that define them.

Spans are kept on a stack per thread: a span's self time is its
duration minus the time of the wrapped spans it directly encloses in
the same thread, so worker threads of ``run_paired_trials`` never
charge their time to a span of another thread.
"""

import threading
from collections import defaultdict
from time import perf_counter

import stochnewton
from stochnewton import cli, experiment, filtering, line_search, linalg, objectives, optim, streams

_MODULES = (stochnewton, linalg, objectives, line_search, filtering, optim, streams, experiment, cli)


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [calls, total_s, child_s]
        self.counts = defaultdict(int)
        self.ridge_pending = False


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._undo = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn, before=None, after=None):
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            if before is not None:
                args = before(st, args)
            frame = [0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                rec = st.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
            if after is not None:
                after(st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, module, attr, hooks=None):
        """Wrap ``module.attr`` under every module attribute bound to it.

        ``hooks`` maps the short name of a binding module (or None, for
        all bindings) to a (before, after) pair.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        hooks = hooks or {}
        for mod in _MODULES:
            for key, value in list(vars(mod).items()):
                if value is not original:
                    continue
                binding = mod.__name__.rsplit(".", 1)[-1]
                before, after = hooks.get(binding, hooks.get(None, (None, None)))
                self._undo.append((mod, key, value))
                setattr(mod, key, self._wrap(name, original, before, after))

    def _patch_methods(self, attr):
        for cls in vars(objectives).values():
            if (isinstance(cls, type) and issubclass(cls, objectives.SubsampledObjective)
                    and attr in vars(cls)):
                original = vars(cls)[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"objectives.{attr}", original))

    def __enter__(self):
        self._patch_function(linalg, "try_cholesky", {"objectives": (None, _after_objectives_cholesky)})
        for attr in ("solve_spd", "cholesky_solve", "spectral_norm"):
            self._patch_function(linalg, attr)
        self._patch_function(objectives, "evaluate_batch", {
            None: (_before_evaluate_batch, _after_evaluate_batch),
            "experiment": (_before_evaluate_batch, _after_comparison_eval),
        })
        self._patch_methods("value_grad_hess")
        self._patch_methods("batch_value")
        self._patch_function(line_search, "armijo_backtrack", {None: (_count_h, _after_armijo)})
        self._patch_function(filtering, "dkf_update_info")
        self._patch_function(optim, "run", {None: (None, _after_run)})
        self._patch_function(optim, "filtered_step")
        self._patch_function(optim, "unfiltered_step")
        self._patch_function(streams, "derive_stream")
        for attr in ("run_paired_trials", "signed_angular_error", "rho_monitor_summary", "emit_csv"):
            self._patch_function(experiment, attr)
        self._patch_function(cli, "main")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def totals(self):
        """(spans, counts) summed over every thread that made a wrapped call."""
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, child) in st.spans.items():
                rec = spans[name]
                rec[0] += calls
                rec[1] += total
                rec[2] += child
            for name, value in st.counts.items():
                counts[name] += value
        return spans, counts


def _before_evaluate_batch(st, args):
    st.ridge_pending = True
    return args


def _after_evaluate_batch(st, args, kwargs, result):
    st.ridge_pending = False


def _after_comparison_eval(st, args, kwargs, result):
    st.ridge_pending = False
    st.counts["comparison_evals"] += 1


def _after_objectives_cholesky(st, args, kwargs, result):
    # The first factorisation inside evaluate_batch is the PD test of the
    # batch Hessian; None there means a ridge is added.
    if st.ridge_pending:
        st.ridge_pending = False
        if result is None:
            st.counts["ridge_applied"] += 1


def _count_h(st, args):
    h = args[0]

    def counted(theta):
        st.counts["h_evals"] += 1
        return h(theta)

    return (counted,) + tuple(args[1:])


def _after_armijo(st, args, kwargs, result):
    halvings = kwargs.get("max_halvings", args[5] if len(args) > 5 else line_search.DEFAULT_MAX_HALVINGS)
    if result == 2.0 ** (-halvings):
        st.counts["min_step"] += 1


def _after_run(st, args, kwargs, result):
    for rec in result.records:
        if rec.fallback_fired is not None:
            st.counts["filter_updates"] += 1
            st.counts["fallback"] += int(rec.fallback_fired)


# (metric, unit, better); the order here is the order of the report.
PER_LAYER = [
    ("linalg.try_cholesky.calls", "count", "lower"),
    ("linalg.try_cholesky.self_s", "s", "lower"),
    ("linalg.solve_spd.calls", "count", "lower"),
    ("linalg.solve_spd.total_s", "s", "lower"),
    ("linalg.cholesky_solve.calls", "count", "lower"),
    ("linalg.cholesky_solve.self_s", "s", "lower"),
    ("linalg.spectral_norm.calls", "count", "lower"),
    ("linalg.spectral_norm.self_s", "s", "lower"),
    ("objectives.evaluate_batch.calls", "count", "lower"),
    ("objectives.evaluate_batch.total_s", "s", "lower"),
    ("objectives.evaluate_batch.self_s", "s", "lower"),
    ("objectives.value_grad_hess.calls", "count", "lower"),
    ("objectives.value_grad_hess.self_s", "s", "lower"),
    ("objectives.batch_value.calls", "count", "lower"),
    ("objectives.batch_value.self_s", "s", "lower"),
    ("objectives.ridge_applied", "count", "lower"),
    ("line_search.armijo_backtrack.calls", "count", "lower"),
    ("line_search.armijo_backtrack.total_s", "s", "lower"),
    ("line_search.armijo_backtrack.self_s", "s", "lower"),
    ("line_search.h_evals_per_call", "evals/call", "lower"),
    ("line_search.min_step_share", "ratio", "lower"),
    ("filtering.dkf_update_info.calls", "count", "lower"),
    ("filtering.dkf_update_info.total_s", "s", "lower"),
    ("filtering.dkf_update_info.self_s", "s", "lower"),
    ("filtering.fallback_share", "ratio", "lower"),
    ("optim.run.calls", "count", "lower"),
    ("optim.run.total_s", "s", "lower"),
    ("optim.filtered_step.calls", "count", "lower"),
    ("optim.filtered_step.self_s", "s", "lower"),
    ("optim.unfiltered_step.calls", "count", "lower"),
    ("optim.unfiltered_step.self_s", "s", "lower"),
    ("streams.derive_stream.calls", "count", "lower"),
    ("streams.derive_stream.total_s", "s", "lower"),
    ("experiment.run_paired_trials.total_s", "s", "lower"),
    ("experiment.run_paired_trials.self_s", "s", "lower"),
    ("experiment.comparison_evals", "count", "lower"),
    ("experiment.signed_angular_error.calls", "count", "lower"),
    ("experiment.signed_angular_error.total_s", "s", "lower"),
    ("experiment.rho_monitor_summary.total_s", "s", "lower"),
    ("experiment.emit_csv.total_s", "s", "lower"),
    ("experiment.csv_bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(spans, counts, csv_bytes):
    """Every per-layer metric of one traced repetition except trace.overhead_s."""

    def share(num, den):
        return num / den if den else 0.0

    values = {}
    for metric, _, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        calls, total, child = spans.get(layer, (0, 0.0, 0.0))
        if field == "calls":
            values[metric] = calls
        elif field == "total_s":
            values[metric] = total
        elif field == "self_s":
            values[metric] = total - child
    searches = spans.get("line_search.armijo_backtrack", (0, 0.0, 0.0))[0]
    values["objectives.ridge_applied"] = counts["ridge_applied"]
    values["line_search.h_evals_per_call"] = share(counts["h_evals"], searches)
    values["line_search.min_step_share"] = share(counts["min_step"], searches)
    values["filtering.fallback_share"] = share(counts["fallback"], counts["filter_updates"])
    values["experiment.comparison_evals"] = counts["comparison_evals"]
    values["experiment.csv_bytes"] = csv_bytes
    return values
