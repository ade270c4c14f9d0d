"""The benchmark's per-layer tracer still finds every name it wraps.

``snbench/tracer.py`` replaces library functions by name when it is
entered, so deleting or renaming one of them breaks only traced
benchmark runs; this test enters it the same way.
"""

import importlib.util
from pathlib import Path

import numpy as np

from stochnewton import filtering, line_search, objectives, optim
from stochnewton.filtering import FilterConfig
from stochnewton.objectives import LeastSquaresData, LeastSquaresObjective
from stochnewton.optim import OptimizerConfig
from stochnewton.streams import derive_stream

TRACER = Path(__file__).resolve().parent.parent / "snbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("snbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_names_it_binds():
    tracer = _load_tracer()
    originals = (optim.run, filtering.dkf_update_info, objectives.evaluate_batch)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((30, 2))
    obj = LeastSquaresObjective(LeastSquaresData(xs=xs, ys=xs @ np.ones(2)))
    cfg = OptimizerConfig(batch_size=5, max_steps=4, filter=FilterConfig(alpha=0.9, beta=0.2, dim=2))
    with tracer.Tracer() as traced:
        assert optim.run is not originals[0]
        optim.run(obj, np.zeros(2), cfg, derive_stream(0, 1, 0))
    assert (optim.run, filtering.dkf_update_info, objectives.evaluate_batch) == originals
    spans, counts = traced.totals()
    assert spans["optim.run"][0] == 1
    assert counts["filter_updates"] == cfg.max_steps - 1


def test_tracer_counts_a_search_that_takes_the_last_step_length():
    # The tracer counts a search that returns the smallest step length,
    # 2 ** -DEFAULT_MAX_HALVINGS, as one that ran out of halvings.
    tracer = _load_tracer()
    with tracer.Tracer() as traced:
        lam = line_search.armijo_backtrack(lambda th: 0.5 * th[:, 0] ** 2, np.array([1.0]),
                                           np.array([-1.0]), np.array([1.0]))
    assert lam == 1.0 / 16.0
    spans, counts = traced.totals()
    assert spans["line_search.armijo_backtrack"][0] == 1
    assert counts["min_step"] == 1
    assert counts["h_evals"] == 1
