"""Scenario runners: seeded figure-style experiments with file outputs.

A scenario couples a model configuration to one experiment kind:

* ``spectrum_sweep``   -- magnetization time series and periodogram per
  TLF-TLF coupling value, plus an isolated-probe control and a peak table;
* ``entanglement_sweep`` / ``bound_compare`` -- probe log-negativity and its
  correlator lower bound along the sweep;
* ``bell_decay``       -- decay of an initially entangled register state,
  threshold-crossing lifetimes and the exchange-probability law;
* ``gate``             -- an entangling gate run ideally (no fluctuators)
  and in the noisy environment.

Every output file starts with a ``#``-commented header block carrying the
scenario hash, seed and resolved parameters; a YAML manifest accompanies
each run. CSV columns are fixed per kind: time series (t, value), spectra
(omega, power), entanglement traces (t, E_P, C2prime), decay tables
(epsilon, t_eps, p_t_eps, neg_log_eps). Time columns are in units of
1/omega_p; cycle counts refer to the probe period 2*pi/omega_p.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.signal
import yaml

from . import __version__
from .dynamics import LindbladGenerator, _grid_steps, propagate
from .model import (
    ConfigurationError,
    GATE_GENERATORS,
    ModelConfig,
    add_gate,
    build_operators,
    initial_state,
    probe_only_operators,
    probe_state_vector,
    sample_ensemble,
    tlf_ground_state,
)
from .observables import (
    SpectrumEstimate,
    entanglement_lifetime,
    entanglement_trace,
    magnetization_series,
    p_of_t,
    power_spectrum,
)

SCHEMA_VERSION = 1
KINDS = ("spectrum_sweep", "entanglement_sweep", "bound_compare", "bell_decay", "gate")
BELL_STATES = ("phi+", "phi-", "psi+", "psi-")
FORMATS = ("csv", "jsonl")

DEFAULT_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
DEFAULT_DURATIONS = {
    "entanglement_sweep": 50.0,
    "bound_compare": 50.0,
    "bell_decay": 150.0,
    "gate": 25.0,
}

_MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)}


@dataclass(frozen=True)
class GateSpec:
    kind: str
    strength: float | None = None  # defaults to the sampled probe-TLF coupling


@dataclass(frozen=True)
class Scenario:
    """Validated experiment description (see the module docstring for files)."""

    kind: str
    model: ModelConfig = field(default_factory=ModelConfig)
    sweep: tuple = DEFAULT_SWEEP
    duration: float | None = None  # probe cycles; per-kind default when None
    gate: GateSpec | None = None
    bell: str | None = None
    epsilons: tuple = DEFAULT_EPSILONS
    output: str = "runs"
    n_samples: int = 4000          # spectrum sampling: number of samples
    sample_step: float = 0.05      # spectrum sampling: t_s in 1/omega_p units
    trace_step_cycles: float = 0.01  # entanglement/gate trace step, cycles
    bell_step_cycles: float = 0.05   # decay trace step, cycles

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown scenario kind {self.kind!r}")
        if any(not 0.0 <= v <= 1.2 for v in self.sweep):
            raise ConfigurationError("sweep values must lie in [0, 1.2]")
        if len(self.sweep) == 0:
            raise ConfigurationError("sweep must be non-empty")
        if self.resolved_duration() <= 0:
            raise ConfigurationError("duration must be positive")
        if self.kind == "gate":
            if self.gate is None:
                raise ConfigurationError("gate scenarios need a gate section")
            if self.gate.kind not in GATE_GENERATORS:
                raise ConfigurationError(f"unknown gate kind {self.gate.kind!r}")
            if self.gate.strength is not None and self.gate.strength <= 0:
                raise ConfigurationError("gate strength must be positive")
        if self.kind == "bell_decay":
            if self.bell not in BELL_STATES:
                raise ConfigurationError(
                    f"bell_decay scenarios need bell set to one of {BELL_STATES}"
                )
            if any(not 0 < e <= 1 for e in self.epsilons):
                raise ConfigurationError("epsilons must lie in (0, 1]")
        if self.n_samples < 16:
            raise ConfigurationError("n_samples must be at least 16")
        if self.sample_step <= 0 or self.trace_step_cycles <= 0 or self.bell_step_cycles <= 0:
            raise ConfigurationError("sampling steps must be positive")
        try:
            _grid_steps(*self.time_grid())
        except ValueError as exc:
            raise ConfigurationError(f"time grid: {exc}") from exc

    def resolved_duration(self) -> float:
        if self.duration is not None:
            return float(self.duration)
        if self.kind == "spectrum_sweep":
            # set by the sampling parameters instead
            return (self.n_samples - 1) * self.sample_step / (2 * np.pi)
        return DEFAULT_DURATIONS[self.kind]

    def time_grid(self) -> tuple[float, float]:
        """(t_end, dt) of every propagation of this scenario, in 1/omega_p units."""
        if self.kind == "spectrum_sweep":
            return (self.n_samples - 1) * self.sample_step, self.sample_step
        step = self.bell_step_cycles if self.kind == "bell_decay" else self.trace_step_cycles
        cycle = 2 * np.pi / self.model.omega_p
        return self.resolved_duration() * cycle, step * cycle

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigurationError("scenario file must hold a mapping")
        data = dict(raw)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
        if "model" in data:
            model_raw = data["model"]
            if not isinstance(model_raw, dict):
                raise ConfigurationError("model section must be a mapping")
            bad = set(model_raw) - _MODEL_KEYS
            if bad:
                raise ConfigurationError(f"unknown model keys: {sorted(bad)}")
            data["model"] = ModelConfig(**model_raw)
        if "gate" in data and data["gate"] is not None:
            gate_raw = data["gate"]
            if not isinstance(gate_raw, dict) or set(gate_raw) - {"kind", "strength"}:
                raise ConfigurationError("gate section takes only kind and strength")
            data["gate"] = GateSpec(**gate_raw)
        for key in ("sweep", "epsilons"):
            if key in data:
                data[key] = tuple(float(v) for v in data[key])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc

    def canonical_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "model": dataclasses.asdict(self.model),
            "sweep": list(self.sweep),
            "duration": self.resolved_duration(),
            "gate": None if self.gate is None else dataclasses.asdict(self.gate),
            "bell": self.bell,
            "epsilons": list(self.epsilons),
            "output": self.output,
            "n_samples": self.n_samples,
            "sample_step": self.sample_step,
            "trace_step_cycles": self.trace_step_cycles,
            "bell_step_cycles": self.bell_step_cycles,
        }
        return out

    def hash(self) -> str:
        payload = self.canonical_dict()
        payload.pop("output", None)  # relocating a run keeps its identity
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunRecord:
    """Provenance manifest written next to the output files."""

    scenario_hash: str
    seed: int
    scenario: dict
    ensembles: dict
    files: list
    summary: dict
    wall_clock_s: float
    deterministic: bool
    library_version: str = __version__

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(dataclasses.asdict(self), fh, sort_keys=False)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_table(path, fmt: str, header_lines: list[str], columns: list[str], rows) -> None:
    """Write one table with a commented provenance header."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if fmt == "csv":
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])
    elif fmt == "jsonl":
        for row in rows:
            buf.write(json.dumps(dict(zip(columns, row))) + "\n")
    else:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _header(scenario: Scenario, extra: dict | None = None) -> list[str]:
    lines = [
        f"scenario_hash: {scenario.hash()}",
        f"seed: {scenario.model.seed}",
        f"resolved: {json.dumps(scenario.canonical_dict(), sort_keys=True)}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key}: {val}")
    return lines


def detect_peaks(
    spec: SpectrumEstimate,
    prominence_frac: float = 0.05,
    min_separation_bins: int = 3,
) -> list[tuple[float, float]]:
    """Local maxima above a prominence threshold, strongest first.

    The threshold is a fraction of the global maximum; peaks closer than the
    minimum separation collapse onto the stronger one.
    """
    power = np.asarray(spec.power)
    if power.max() <= 0:
        return []
    idx, _ = scipy.signal.find_peaks(
        power,
        prominence=prominence_frac * power.max(),
        distance=min_separation_bins,
    )
    order = np.argsort(power[idx])[::-1]
    return [(float(spec.omega[i]), float(power[i])) for i in idx[order]]


def _mu_label(mu_over_nu: float) -> str:
    return f"mu{mu_over_nu:.2f}"


def _ext(fmt: str) -> str:
    return "jsonl" if fmt == "jsonl" else "csv"


def _spectrum_point(scenario_dict: dict, mu_over_nu: float, out_dir: str, fmt: str) -> dict:
    """One spectrum-sweep point; separate function so a worker pool can run it."""
    scenario = Scenario.from_dict(scenario_dict)
    cfg = dataclasses.replace(scenario.model, mu_over_nu=mu_over_nu)
    ens = sample_ensemble(cfg)
    ops = build_operators(ens, cfg)
    gen = LindbladGenerator.from_system(ops)
    rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
    t_end, dt = scenario.time_grid()
    traj = propagate(gen, rho0, t_end, dt=dt, record={"M_x": ops.m_x})
    series = magnetization_series(traj)
    spec = power_spectrum(series)
    label = _mu_label(mu_over_nu)
    header = _header(scenario, {"mu_over_nu": mu_over_nu, "time_unit": "1/omega_p"})
    ts_file = f"timeseries_{label}.{_ext(fmt)}"
    sp_file = f"spectrum_{label}.{_ext(fmt)}"
    _write_table(
        Path(out_dir) / ts_file, fmt, header, ["t", "value"],
        zip(series.t_grid.tolist(), series.values.tolist()),
    )
    _write_table(
        Path(out_dir) / sp_file, fmt, header, ["omega", "power"],
        zip(spec.omega.tolist(), spec.power.tolist()),
    )
    peaks = detect_peaks(spec)
    return {
        "label": label,
        "mu_over_nu": mu_over_nu,
        "files": [ts_file, sp_file],
        "peaks": peaks,
        "ensemble": ens.as_dict(),
        "stats": traj.stats,
    }


def run_spectrum_sweep(
    scenario: Scenario,
    out_dir=None,
    fmt: str = "csv",
    deterministic: bool = True,
    jobs: int | None = None,
) -> RunRecord:
    """Magnetization spectra across the TLF-TLF coupling sweep plus a control."""
    t0 = time.monotonic()
    out = _prepare_out_dir(scenario, out_dir)
    results = []
    sdict = scenario.canonical_dict()
    point_args = [(sdict, float(mu), str(out), fmt) for mu in scenario.sweep]
    if deterministic or (jobs is not None and jobs <= 1) or len(point_args) == 1:
        for args in point_args:
            results.append(_spectrum_point(*args))
    else:
        workers = jobs or min(len(point_args), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_spectrum_point, *zip(*point_args)))

    control = _spectrum_control(scenario, out, fmt)
    results.append(control)

    peak_rows = []
    for res in results:
        for omega, power in res["peaks"]:
            peak_rows.append((res["label"], res["mu_over_nu"], omega, power))
    peaks_file = f"peaks.{_ext(fmt)}"
    _write_table(
        out / peaks_file, fmt, _header(scenario),
        ["run", "mu_over_nu", "omega", "power"], peak_rows,
    )

    record = RunRecord(
        scenario_hash=scenario.hash(),
        seed=scenario.model.seed,
        scenario=sdict,
        ensembles={r["label"]: r["ensemble"] for r in results if r["ensemble"]},
        files=sorted(f for r in results for f in r["files"]) + [peaks_file],
        summary={
            "peaks": {r["label"]: r["peaks"] for r in results},
            "cptp": {r["label"]: _stats_plain(r["stats"]) for r in results},
        },
        wall_clock_s=time.monotonic() - t0,
        deterministic=deterministic,
    )
    record.write(out / "manifest.yaml")
    return record


def _spectrum_control(scenario: Scenario, out: Path, fmt: str) -> dict:
    """Isolated-probe control run: same sampling, no fluctuators."""
    cfg = scenario.model
    ops = probe_only_operators(cfg)
    gen = LindbladGenerator.from_system(ops)
    v = probe_state_vector("plus_plus")
    rho0 = np.outer(v, v.conj())
    t_end, dt = scenario.time_grid()
    traj = propagate(gen, rho0, t_end, dt=dt, record={"M_x": ops.m_x})
    series = magnetization_series(traj)
    spec = power_spectrum(series)
    header = _header(scenario, {"control": "isolated probe", "time_unit": "1/omega_p"})
    ts_file = f"timeseries_control.{_ext(fmt)}"
    sp_file = f"spectrum_control.{_ext(fmt)}"
    _write_table(out / ts_file, fmt, header, ["t", "value"],
                 zip(series.t_grid.tolist(), series.values.tolist()))
    _write_table(out / sp_file, fmt, header, ["omega", "power"],
                 zip(spec.omega.tolist(), spec.power.tolist()))
    return {
        "label": "control",
        "mu_over_nu": None,
        "files": [ts_file, sp_file],
        "peaks": detect_peaks(spec),
        "ensemble": None,
        "stats": traj.stats,
    }


def _entanglement_point(scenario_dict: dict, mu_over_nu: float, out_dir: str, fmt: str) -> dict:
    scenario = Scenario.from_dict(scenario_dict)
    cfg = dataclasses.replace(scenario.model, mu_over_nu=mu_over_nu)
    ens = sample_ensemble(cfg)
    ops = build_operators(ens, cfg)
    gen = LindbladGenerator.from_system(ops)
    rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
    t_end, dt = scenario.time_grid()
    traj = propagate(gen, rho0, t_end, dt=dt, marginal_keep=(0, 1), layout=ops.layout)
    et = entanglement_trace(traj.t_grid, traj.marginals)
    label = _mu_label(mu_over_nu)
    fname = f"entanglement_{label}.{_ext(fmt)}"
    header = _header(scenario, {"mu_over_nu": mu_over_nu, "time_unit": "1/omega_p"})
    _write_table(
        Path(out_dir) / fname, fmt, header, ["t", "E_P", "C2prime"],
        zip(et.t_grid.tolist(), et.log_negativity.tolist(), et.c2prime.tolist()),
    )
    gap = et.log_negativity - et.c2prime
    i_max = int(np.argmax(et.log_negativity))
    return {
        "label": label,
        "mu_over_nu": mu_over_nu,
        "files": [fname],
        "ensemble": ens.as_dict(),
        "stats": traj.stats,
        "max_E_P": float(et.log_negativity[i_max]),
        "t_at_max": float(et.t_grid[i_max]),
        "mean_bound_gap": float(np.mean(gap)),
        "max_bound_violation": float(np.max(et.c2prime - et.log_negativity)),
    }


def run_entanglement_sweep(
    scenario: Scenario,
    out_dir=None,
    fmt: str = "csv",
    deterministic: bool = True,
    jobs: int | None = None,
) -> RunRecord:
    """Probe entanglement traces across the sweep (also the bound comparison)."""
    t0 = time.monotonic()
    out = _prepare_out_dir(scenario, out_dir)
    sdict = scenario.canonical_dict()
    point_args = [(sdict, float(mu), str(out), fmt) for mu in scenario.sweep]
    if deterministic or (jobs is not None and jobs <= 1) or len(point_args) == 1:
        results = [_entanglement_point(*args) for args in point_args]
    else:
        workers = jobs or min(len(point_args), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_entanglement_point, *zip(*point_args)))
    record = RunRecord(
        scenario_hash=scenario.hash(),
        seed=scenario.model.seed,
        scenario=scenario.canonical_dict(),
        ensembles={r["label"]: r["ensemble"] for r in results},
        files=sorted(f for r in results for f in r["files"]),
        summary={
            "max_E_P": {r["label"]: r["max_E_P"] for r in results},
            "t_at_max": {r["label"]: r["t_at_max"] for r in results},
            "mean_bound_gap": {r["label"]: r["mean_bound_gap"] for r in results},
            "max_bound_violation": {r["label"]: r["max_bound_violation"] for r in results},
            "cptp": {r["label"]: _stats_plain(r["stats"]) for r in results},
        },
        wall_clock_s=time.monotonic() - t0,
        deterministic=deterministic,
    )
    record.write(out / "manifest.yaml")
    return record


def _linear_fit(x: np.ndarray, y: np.ndarray) -> dict:
    a = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(residual[0]) if len(residual) else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": r2}


def run_bell_decay(
    scenario: Scenario,
    out_dir=None,
    fmt: str = "csv",
    deterministic: bool = True,
    jobs: int | None = None,
) -> RunRecord:
    """Entanglement decay of a register Bell state, for unconnected and
    fully connected fluctuators, with lifetimes and the exchange-probability
    law.

    The probability column uses the mean dressed emission rate of the
    sampled ensemble as the energy-exchange clock; the raw lifetimes are
    emitted alongside so the underlying lifetime-threshold law can be
    refit under any convention.
    """
    t0 = time.monotonic()
    out = _prepare_out_dir(scenario, out_dir)
    state = scenario.bell
    state_tag = state.replace("+", "_plus").replace("-", "_minus")
    results = []
    for mu_over_nu in (0.0, 1.0):
        cfg = dataclasses.replace(scenario.model, mu_over_nu=mu_over_nu)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state(state, tlf_ground_state(ens, cfg), ops.layout)
        t_end, dt = scenario.time_grid()
        traj = propagate(gen, rho0, t_end, dt=dt, marginal_keep=(0, 1), layout=ops.layout)
        et = entanglement_trace(traj.t_grid, traj.marginals)
        if abs(et.log_negativity[0] - 1.0) > 1e-8:
            raise ConfigurationError(
                f"initial register entanglement is {et.log_negativity[0]!r}, not 1"
            )
        label = _mu_label(mu_over_nu)
        header = _header(
            scenario,
            {
                "bell_state": state,
                "mu_over_nu": mu_over_nu,
                "time_unit": "1/omega_p",
                "t_eps_resolution": dt,
            },
        )
        trace_file = f"bell_{state_tag}_{label}.{_ext(fmt)}"
        _write_table(
            out / trace_file, fmt, header, ["t", "E_P", "C2prime"],
            zip(et.t_grid.tolist(), et.log_negativity.tolist(), et.c2prime.tolist()),
        )
        gamma_char = float(np.mean(ens.Gamma_minus))
        rows = []
        t_eps_list = []
        for eps in scenario.epsilons:
            t_eps = entanglement_lifetime(et, eps)
            t_eps_list.append(t_eps)
            if t_eps is None:
                rows.append((eps, "", "", float(-np.log(eps))))
            else:
                rows.append(
                    (
                        eps,
                        float(t_eps),
                        p_of_t(t_eps, gamma=gamma_char, nbar=cfg.nbar),
                        float(-np.log(eps)),
                    )
                )
        decay_file = f"decay_{state_tag}_{label}.{_ext(fmt)}"
        decay_header = header + [
            f"gamma_char: {gamma_char!r} (mean dressed emission rate; "
            "p = 1 - exp(-gamma_char (2 nbar + 1) t_eps / 2))"
        ]
        _write_table(
            out / decay_file, fmt, decay_header,
            ["epsilon", "t_eps", "p_t_eps", "neg_log_eps"], rows,
        )
        fit = None
        fit_raw = None
        if all(t is not None for t in t_eps_list):
            x = -np.log(np.asarray(scenario.epsilons))
            te = np.asarray(t_eps_list, dtype=float)
            p = np.array([p_of_t(t, gamma=gamma_char, nbar=cfg.nbar) for t in te])
            fit = _linear_fit(x, p)
            fit_raw = _linear_fit(x, te)
        results.append(
            {
                "label": label,
                "files": [trace_file, decay_file],
                "ensemble": ens.as_dict(),
                "stats": traj.stats,
                "gamma_char": gamma_char,
                "t_eps": [None if t is None else float(t) for t in t_eps_list],
                "fit_p_vs_neg_log_eps": fit,
                "fit_t_eps_vs_neg_log_eps": fit_raw,
                "final_E_P": float(et.log_negativity[-1]),
                "min_E_P": float(np.min(et.log_negativity)),
            }
        )

    record = RunRecord(
        scenario_hash=scenario.hash(),
        seed=scenario.model.seed,
        scenario=scenario.canonical_dict(),
        ensembles={r["label"]: r["ensemble"] for r in results},
        files=sorted(f for r in results for f in r["files"]),
        summary={
            "bell_state": state,
            "lifetimes": {r["label"]: r["t_eps"] for r in results},
            "fits": {r["label"]: r["fit_p_vs_neg_log_eps"] for r in results},
            "fits_raw_lifetime": {r["label"]: r["fit_t_eps_vs_neg_log_eps"] for r in results},
            "gamma_char": {r["label"]: r["gamma_char"] for r in results},
            "cptp": {r["label"]: _stats_plain(r["stats"]) for r in results},
        },
        wall_clock_s=time.monotonic() - t0,
        deterministic=deterministic,
    )
    record.write(out / "manifest.yaml")
    return record


def _first_local_max(t: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    idx, _ = scipy.signal.find_peaks(values)
    if len(idx) == 0:
        i = int(np.argmax(values))
    else:
        i = int(idx[0])
    return float(t[i]), float(values[i])


def _plateau_report(t: np.ndarray, values: np.ndarray) -> dict:
    """Steady-state detector over the final tenth of the run."""
    n_tail = max(2, len(t) // 10)
    tail_t, tail_v = t[-n_tail:], values[-n_tail:]
    rates = np.abs(np.diff(tail_v) / np.diff(tail_t))
    plateau = bool(np.max(rates) < 1e-6)
    return {
        "plateau": plateau,
        "max_abs_slope": float(np.max(rates)),
        "steady_value": float(np.mean(tail_v)) if plateau else None,
    }


def run_gate(
    scenario: Scenario,
    out_dir=None,
    fmt: str = "csv",
    deterministic: bool = True,
    jobs: int | None = None,
) -> RunRecord:
    """Entangling-gate performance: ideal register vs the noisy environment."""
    t0 = time.monotonic()
    out = _prepare_out_dir(scenario, out_dir)
    gate = scenario.gate
    base_cfg = scenario.model
    ens0 = sample_ensemble(base_cfg)
    g = gate.strength if gate.strength is not None else float(ens0.nu)

    t_end, dt = scenario.time_grid()
    results = []
    ensembles = {}

    # ideal register: no fluctuators at all
    ops_ideal = probe_only_operators(base_cfg, gate=gate.kind, gate_strength=g)
    v = probe_state_vector("plus_plus")
    rho0 = np.outer(v, v.conj())
    traj = propagate(
        LindbladGenerator.from_system(ops_ideal), rho0, t_end, dt=dt,
        marginal_keep=(0, 1), layout=ops_ideal.layout,
    )
    et = entanglement_trace(traj.t_grid, traj.marginals)
    results.append(("ideal", None, et, traj.stats))

    for mu_over_nu in (0.0, 1.0):
        cfg = dataclasses.replace(base_cfg, mu_over_nu=mu_over_nu)
        ens = sample_ensemble(cfg)
        ops = add_gate(build_operators(ens, cfg), gate.kind, g)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
        traj = propagate(gen, rho0, t_end, dt=dt, marginal_keep=(0, 1), layout=ops.layout)
        et = entanglement_trace(traj.t_grid, traj.marginals)
        results.append((_mu_label(mu_over_nu), mu_over_nu, et, traj.stats))
        ensembles[_mu_label(mu_over_nu)] = ens.as_dict()

    files = []
    summary = {"gate": gate.kind, "gate_strength": g, "first_max": {}, "plateau": {}, "cptp": {}}
    for label, mu_over_nu, et, stats in results:
        fname = f"gate_{gate.kind}_{label}.{_ext(fmt)}"
        header = _header(
            scenario,
            {"gate": gate.kind, "gate_strength": g, "run": label, "time_unit": "1/omega_p"},
        )
        _write_table(
            out / fname, fmt, header, ["t", "E_P", "C2prime"],
            zip(et.t_grid.tolist(), et.log_negativity.tolist(), et.c2prime.tolist()),
        )
        files.append(fname)
        t_max, v_max = _first_local_max(et.t_grid, et.log_negativity)
        summary["first_max"][label] = {"t": t_max, "E_P": v_max}
        summary["plateau"][label] = _plateau_report(et.t_grid, et.log_negativity)
        summary["cptp"][label] = _stats_plain(stats)

    record = RunRecord(
        scenario_hash=scenario.hash(),
        seed=scenario.model.seed,
        scenario=scenario.canonical_dict(),
        ensembles=ensembles,
        files=sorted(files),
        summary=summary,
        wall_clock_s=time.monotonic() - t0,
        deterministic=deterministic,
    )
    record.write(out / "manifest.yaml")
    return record


RUNNERS = {
    "spectrum_sweep": run_spectrum_sweep,
    "entanglement_sweep": run_entanglement_sweep,
    "bound_compare": run_entanglement_sweep,
    "bell_decay": run_bell_decay,
    "gate": run_gate,
}


def expand_grid(raw: dict) -> list[tuple[str, Scenario]]:
    """Expand an optional ``grid`` section into labelled scenarios.

    ``grid`` maps model field names to value lists; the cross product is
    enumerated and each combination becomes its own scenario (outputs land
    in a correspondingly named subdirectory). Without a grid the file
    describes a single anonymous scenario.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario file must hold a mapping")
    data = dict(raw)
    grid = data.pop("grid", None)
    if grid is None:
        return [("", Scenario.from_dict(data))]
    if not isinstance(grid, dict) or not grid:
        raise ConfigurationError("grid section must be a non-empty mapping")
    bad = set(grid) - _MODEL_KEYS
    if bad:
        raise ConfigurationError(f"unknown grid keys: {sorted(bad)}")
    keys = sorted(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    out = []
    for combo in combos:
        entry = dict(data)
        model = dict(entry.get("model") or {})
        model.update(dict(zip(keys, combo)))
        entry["model"] = model
        label = "__".join(f"{k}={v:g}" for k, v in zip(keys, combo))
        out.append((label, Scenario.from_dict(entry)))
    return out


def load_scenario_file(path) -> list[tuple[str, Scenario]]:
    """Parse a scenario file into its (label, scenario) expansions."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse scenario file: {exc}") from exc
    return expand_grid(raw)


def run_scenario(
    scenario: Scenario,
    out_dir=None,
    fmt: str = "csv",
    deterministic: bool = True,
    jobs: int | None = None,
) -> RunRecord:
    runner = RUNNERS[scenario.kind]
    return runner(scenario, out_dir=out_dir, fmt=fmt, deterministic=deterministic, jobs=jobs)


def _prepare_out_dir(scenario: Scenario, out_dir) -> Path:
    out = Path(out_dir) if out_dir is not None else Path(scenario.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stats_plain(stats: dict) -> dict:
    return {
        k: (None if v is None else float(v)) if not isinstance(v, int) else v
        for k, v in stats.items()
    }
