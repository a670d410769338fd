"""The benchmark's seed-1 reference check, run as a tier-1 test.

A benchmark repetition fails when a workload's manifest ``summary`` gains a
key or moves beyond rtol 1e-5 against ``bench/reference.json``. This test
runs each workload's scenario the same way and applies the benchmark's own
``check_outputs`` and ``mismatches``, so such a change fails here first.
It only reads ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tlfsim.cli import cli_main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_run():
    """``bench/run.py`` by path; it imports its siblings, so ``bench/`` leads ``sys.path``."""
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved
    return run


RUN = _load_bench_run()


@pytest.mark.parametrize("workload", list(RUN.WORKLOADS))
def test_workload_summary_matches_bench_reference(workload, tmp_path):
    seed = RUN.DEFAULT_SEED
    scenario = RUN.write_scenario(workload, seed, tmp_path / "scenario.yaml")
    out = tmp_path / "out"
    assert cli_main(["run", str(scenario), "--deterministic", "--out-dir", str(out)]) == 0
    check = RUN.check_outputs(out, RUN.WORKLOADS[workload]["steps"])
    assert check["problems"] == []
    ref = RUN.load_reference()["workloads"][workload]
    assert ref["scenario"] == RUN.scenario_dict(workload, seed)
    assert RUN.mismatches(check["summary"], ref["summary"]) == []
