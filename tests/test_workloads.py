"""The benchmark's paired checks still pass against the library.

``snbench/workloads.py`` checks each run of ``run-paired`` against
numpy references through library names (``cli.main``,
``experiment.generate_data``, ``experiment.exact_mle``, ``optim.run``,
``objectives.evaluate_batch``, ``filtering.init_belief``,
``filtering.dkf_update_info``), so removing or reshaping one of them
would otherwise fail only the benchmark. This test runs those checks on
small settings, loading the module by file path as the benchmark does.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "snbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("snbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d, batch", [(2, 5), (5, 10)])
def test_paired_workload_checks_pass(tmp_path, d, batch):
    workload = _load_workloads().PairedWorkload(0, tmp_path, n=100, d=d, batch=batch, trials=50)
    workload.check(workload.run_once())
    workload.check_once()
