"""The benchmark's per-layer tracer still finds every name it wraps.

``snbench/tracer.py`` replaces library functions by name when it is
entered, so deleting or renaming one of them breaks only traced
benchmark runs; this test enters it the same way.
"""

import importlib.util
from pathlib import Path

import numpy as np

from stochnewton import filtering, objectives, optim
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
