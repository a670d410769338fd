"""The benchmark's workloads: one generated scenario file each.

Every workload uses n_tlf=4 and tan_theta_bar=1/3 and writes the benchmark
seed into ``model.seed``. Sizes are cut down from the shipped scenario files
so that several repetitions fit in one measured run, while each keeps the
layer shares that it was chosen for; README.md says why each was chosen.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 1

_MODEL = {"n_tlf": 4, "tan_theta_bar": 1.0 / 3.0}

WORKLOADS = {
    "spectrum": {
        "scenario": {
            "kind": "spectrum_sweep",
            "model": {**_MODEL, "ratio_eps": 3.0},
            "sweep": [0.0, 1.0],
            "n_samples": 800,
            "sample_step": 0.05,
        },
        # two sweep points plus the isolated-probe control
        "steps": 3 * 799,
    },
    "bell_decay": {
        "scenario": {
            "kind": "bell_decay",
            "bell": "phi+",
            "model": {**_MODEL, "ratio_eps": 3.0},
            "duration": 50.0,
            "bell_step_cycles": 0.05,
        },
        # mu/nu = 0 and 1
        "steps": 2 * 1000,
    },
    "gate_xxyy": {
        "scenario": {
            "kind": "gate",
            "gate": {"kind": "xxyy"},
            "model": {**_MODEL, "ratio_eps": 1.0},
            "duration": 3.0,
            "trace_step_cycles": 0.01,
        },
        # the ideal register plus mu/nu = 0 and 1
        "steps": 3 * 300,
    },
}


def scenario_dict(name: str, seed: int) -> dict:
    """The scenario of workload ``name`` with ``seed`` as its model seed."""
    spec = WORKLOADS[name]["scenario"]
    return {
        "schema_version": 1,
        **spec,
        "model": {**spec["model"], "seed": int(seed)},
        "output": "runs/bench",
    }


def write_scenario(name: str, seed: int, path: Path) -> Path:
    """Write the scenario file; JSON is valid YAML, so the CLI reads it as is."""
    path.write_text(json.dumps(scenario_dict(name, seed), indent=1) + "\n", encoding="utf-8")
    return path
