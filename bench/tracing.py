"""Spans around the public entry points of each tlfsim layer.

The tracer patches each name where its caller looks it up (the modules
import these names directly, so patching the defining module would miss
them). Spans are kept in memory as ``(name, start, end, parent, run_id,
counts)`` and written out when the run ends. Nothing under ``src/`` is
edited; :meth:`Tracer.install` returns a function that puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _propagate_counts(args, result):
    return {"steps": len(result.t_grid) - 1, "eig_checks": int(result.stats["eig_checks"])}


def _sectors_counts(args, result):
    return {"sectors": len(result)}


def _block_counts(args, result):
    return {"dim": int(args[0].shape[0])}


def _samples_counts(args, result):
    return {"samples": len(result.t_grid)}


# (module where the caller looks the name up, attribute, span name, counts)
PATCH_POINTS = [
    ("tlfsim.cli", "cli_main", "cli.main", None),
    ("tlfsim.cli", "run_scenario", "scenarios.run", None),
    ("tlfsim.scenarios", "detect_peaks", "scenarios.peaks", None),
    ("tlfsim.scenarios", "sample_ensemble", "model.sample", None),
    ("tlfsim.scenarios", "build_operators", "model.operators", None),
    ("tlfsim.scenarios", "add_gate", "model.operators", None),
    ("tlfsim.scenarios", "probe_only_operators", "model.operators", None),
    ("tlfsim.scenarios", "tlf_ground_state", "model.operators", None),
    ("tlfsim.scenarios", "initial_state", "model.operators", None),
    ("tlfsim.scenarios", "propagate", "dynamics.propagate", _propagate_counts),
    ("tlfsim.dynamics", "find_invariant_sectors", "dynamics.sectors", _sectors_counts),
    ("tlfsim.dynamics", "step_propagator", "dynamics.step_propagator", _block_counts),
    ("tlfsim.dynamics", "expm", "linalg.expm", None),
    ("tlfsim.dynamics", "partial_trace", "linalg.partial_trace", None),
    ("tlfsim.scenarios", "entanglement_trace", "observables.entanglement_trace", _samples_counts),
    ("tlfsim.scenarios", "magnetization_series", "observables.spectrum", None),
    ("tlfsim.scenarios", "power_spectrum", "observables.spectrum", None),
]


class Tracer:
    """In-memory span recorder for one serial run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run_id, counts]
        self.missing: list[str] = []  # patch points absent from this tlfsim
        self._open: list[int] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, self.run_id, {}]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span[5] = counts(args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self):
        """Patch every available patch point; return the function that undoes it."""
        saved = []
        for module_name, attr, name, counts in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counts))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and counts of one traced run."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    count_sum = defaultdict(int)
    count_max = defaultdict(int)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _, _, counts = span
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        for key, value in counts.items():
            count_sum[f"{name}.{key}"] += value
            count_max[f"{name}.{key}"] = max(count_max[f"{name}.{key}"], value)
    steps = count_sum["dynamics.propagate.steps"]
    return {
        "cli.self_s": own["cli.main"],
        "scenarios.self_s": own["scenarios.run"],
        "scenarios.peaks_s": total["scenarios.peaks"],
        "model.sample_s": total["model.sample"],
        "model.operators_s": total["model.operators"],
        "dynamics.self_s": own["dynamics.propagate"],
        "dynamics.self_us_per_step": 1e6 * own["dynamics.propagate"] / steps if steps else 0.0,
        "dynamics.steps": steps,
        "dynamics.step_propagator_s": total["dynamics.step_propagator"],
        "dynamics.blocks_built": calls["dynamics.step_propagator"],
        "dynamics.block_dim_max": count_max["dynamics.step_propagator.dim"],
        "dynamics.sectors_s": total["dynamics.sectors"],
        "dynamics.sectors": count_sum["dynamics.sectors.sectors"],
        "dynamics.eig_checks": count_sum["dynamics.propagate.eig_checks"],
        "linalg.expm_s": total["linalg.expm"],
        "linalg.partial_trace_s": total["linalg.partial_trace"],
        "linalg.partial_trace_calls": calls["linalg.partial_trace"],
        "observables.entanglement_trace_s": total["observables.entanglement_trace"],
        "observables.samples": count_sum["observables.entanglement_trace.samples"],
        "observables.spectrum_s": total["observables.spectrum"],
    }
