"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest bench``. They use a tiny
two-fluctuator gate scenario, so they take seconds.
"""

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench  # noqa: E402
from tracing import PATCH_POINTS, Tracer, layer_metrics, self_times  # noqa: E402
from worker import run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "schema_version": 1,
    "kind": "gate",
    "gate": {"kind": "xxyy"},
    "model": {"n_tlf": 2, "ratio_eps": 1.0, "seed": 1},
    "duration": 1.0,
    "trace_step_cycles": 0.01,
}
TINY_STEPS = 3 * 100  # ideal register plus two noisy points, 100 steps each


def scenario_file(tmp_path, name="tiny", **changes) -> Path:
    path = tmp_path / f"{name}.yaml"
    path.write_text(json.dumps({**TINY, **changes}), encoding="utf-8")
    return path


def patched_objects():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in PATCH_POINTS
    }


def test_wrappers_restore_originals_and_keep_table_digests(tmp_path):
    scenario = scenario_file(tmp_path)
    plain = run_once(scenario, tmp_path / "plain")
    originals = patched_objects()
    tracer = Tracer("t")
    traced = run_once(scenario, tmp_path / "traced", tracer)

    assert plain["exit_code"] == traced["exit_code"] == 0
    assert tracer.missing == []
    assert patched_objects() == originals
    plain_out = bench.check_outputs(tmp_path / "plain", TINY_STEPS)
    traced_out = bench.check_outputs(tmp_path / "traced", TINY_STEPS)
    assert plain_out["problems"] == traced_out["problems"] == []
    assert plain_out["digests"] == traced_out["digests"]
    layers = layer_metrics(tracer.spans)
    assert layers["dynamics.steps"] == TINY_STEPS
    assert layers["linalg.partial_trace_calls"] == layers["observables.samples"] == TINY_STEPS + 3


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, "r", {}],
        ["a", 1.0, 4.0, 0, "r", {}],
        ["b", 2.0, 3.0, 1, "r", {}],
        ["c", 5.0, 6.0, 0, "r", {}],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_span_self_times_sum_to_parent_duration(tmp_path):
    tracer = Tracer("t")
    result = run_once(scenario_file(tmp_path), tmp_path / "out", tracer)
    spans = tracer.spans
    own = self_times(spans)
    duration = [end - start for _, start, end, *_ in spans]
    children = defaultdict(list)
    for i, (_, start, end, parent, run_id, _) in enumerate(spans):
        assert run_id == "t"
        assert own[i] >= -1e-9
        if parent is not None:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            children[parent].append(i)
    for parent, kids in children.items():
        assert own[parent] + sum(duration[k] for k in kids) == pytest.approx(duration[parent])
        intervals = sorted(spans[k][1:3] for k in kids)
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
    roots = [i for i, span in enumerate(spans) if span[3] is None]
    assert [spans[i][0] for i in roots] == ["cli.main"]
    assert sum(own) == pytest.approx(duration[roots[0]], rel=1e-9)
    assert duration[roots[0]] <= result["wall_s"]


def _raise_propagation_error(*args, **kwargs):
    from tlfsim.dynamics import PropagationError

    raise PropagationError("forced for the test")


@pytest.mark.parametrize(
    "changes, patch, expected",
    [
        ({"colour": "blue"}, False, "cli_main returned 1"),
        ({}, True, "cli_main returned 2"),
        ({"trace_step_cycles": 0.3}, False, "exception escaped cli_main: ValueError"),
    ],
    ids=["exit-1", "exit-2", "raw-exception"],
)
def test_failing_scenarios_are_failed_runs(tmp_path, monkeypatch, changes, patch, expected):
    if patch:
        monkeypatch.setattr("tlfsim.scenarios.propagate", _raise_propagation_error)
    result = run_once(scenario_file(tmp_path, **changes), tmp_path / "out")
    problems = bench.run_problems(result)
    assert len(problems) == 1 and problems[0].startswith(expected)


def test_runner_counts_a_failing_worker_and_carries_on(tmp_path):
    runner = bench.Runner("gate_xxyy", tmp_path, started=time.perf_counter())
    bad_key = runner.run_file(scenario_file(tmp_path, "bad", colour="blue"), 1)
    raw = runner.run_file(scenario_file(tmp_path, "raw", trace_step_cycles=0.3), 2)
    assert not bad_key["ok"] and "cli_main returned 1" in bad_key["problems"][0]
    assert not raw["ok"] and "ValueError" in raw["problems"][0]


def test_summary_comparison_uses_the_golden_tolerance():
    want = {"lifetimes": {"mu0.00": [1.0, None]}, "bell_state": "phi+", "plateau": True}
    assert bench.mismatches({"lifetimes": {"mu0.00": [1.0 + 5e-6, None]},
                             "bell_state": "phi+", "plateau": True}, want) == []
    assert bench.mismatches({"lifetimes": {"mu0.00": [1.0 + 5e-5, None]},
                             "bell_state": "phi+", "plateau": True}, want)
    assert bench.mismatches({"lifetimes": {"mu0.00": [1.0, 2.0]},
                             "bell_state": "phi+", "plateau": True}, want)
    assert bench.mismatches({"lifetimes": {"mu0.00": [1.0]},
                             "bell_state": "phi+", "plateau": True}, want)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(bench.per_layer_samples([], []))
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
