"""Scenario runs: seeded figure-style experiments with file outputs.

Every experiment kind runs one pipeline per point. :func:`run_scenario` calls
:func:`simulate` once per point, with its kind's probe state, gate and
recording: it samples the fluctuators, assembles the operators (plus a gate
term), builds the initial state and propagates it, or does the same for the
isolated probe. The kind's point function only observes the trajectory and
returns the point's tables and manifest entries; :func:`run_scenario` writes
every table and the manifest. The points are mu/nu values of the TLF-TLF
coupling:

* ``spectrum_sweep``   -- magnetization time series and periodogram at each
  ``sweep`` value and for an isolated-probe control, plus a peak table;
* ``entanglement_sweep`` / ``bound_compare`` -- probe log-negativity and its
  correlator lower bound at each ``sweep`` value;
* ``bell_decay``       -- decay of an entangled register state at 0 and 1,
  with threshold-crossing lifetimes and the exchange-probability law;
* ``gate``             -- an entangling gate on the ideal register (no
  fluctuators), then in the noisy environment at 0 and 1.

Every output file starts with a ``#``-commented header block carrying the
scenario hash, seed and resolved parameters; a YAML manifest accompanies
each run. CSV columns are fixed per kind: time series (t, value), spectra
(omega, power), entanglement traces (t, E_P, C2prime), decay tables
(epsilon, t_eps, p_t_eps, neg_log_eps). Time columns are in units of
1/omega_p, the inverse probe splitting (omega_p = 1, the unit of energy);
cycle counts refer to the probe period 2*pi.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import time
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import __version__
from .dynamics import TRACE_ABORT_TOL, PropagationError, _grid_steps, propagate
from .model import (
    ConfigurationError,
    GATE_TERMS,
    ModelConfig,
    TlfEnsemble,
    add_gate,
    build_operators,
    change_probe_basis,
    check_field_types,
    check_value,
    initial_state,
    probe_magnetization,
    probe_only_operators,
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
BELL_STATES = ("phi+", "phi-", "psi+", "psi-")
FORMATS = ("csv", "jsonl")

PEAK_PROMINENCE_FRAC = 0.05  # of the spectrum's global maximum
PEAK_MIN_SEPARATION_BINS = 3

DEFAULT_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)

# ceilings on the work one file may ask for: the largest block Liouvillian's
# dimension, as n_tlf=6 gives, and far more steps per point than the longest
# shipped trace
MAX_BLOCK_DIM = 4096
MAX_GRID_STEPS = 10**6


class Kind(NamedTuple):
    """A scenario kind: the ``fields`` it reads besides kind, model and output (a
    file may set any other field, and model.mu_over_nu, only to its default),
    its default ``duration`` in probe cycles (None: set by the sampling), and
    the mu/nu of its ``points`` in run order: SWEEP is the sweep's values, None
    the point without fluctuators, whose file label is ``bare``."""

    fields: tuple
    duration: float | None
    points: tuple
    bare: str = ""


SWEEP = "sweep"
KINDS = {
    "spectrum_sweep": Kind(("sweep", "n_samples", "sample_step"), None, (SWEEP, None), "control"),
    "entanglement_sweep": Kind(("sweep", "duration", "trace_step_cycles"), 50.0, (SWEEP,)),
    "bound_compare": Kind(("sweep", "duration", "trace_step_cycles"), 50.0, (SWEEP,)),
    "bell_decay": Kind(("bell", "duration", "epsilons", "bell_step_cycles"), 150.0, (0.0, 1.0)),
    "gate": Kind(("gate", "duration", "trace_step_cycles"), 25.0, (None, 0.0, 1.0), "ideal"),
}


def _file_mapping(cls, raw, what: str, extra=()) -> dict:
    """A copy of the file mapping ``raw`` for the dataclass ``cls``, once checked:
    it is a mapping, each key names a field of ``cls`` or is in ``extra``, and
    each field without a default is given."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} must be a mapping, got {raw!r}")
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields} - set(extra)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))}")
    missing = [
        f.name for f in fields
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigurationError(f"{what} needs {', '.join(missing)}")
    return dict(raw)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    strength: float | None = None  # defaults to the sampled probe-TLF coupling

    def __post_init__(self):
        check_field_types(self)


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
        check_field_types(self)
        for key in ("sweep", "epsilons"):
            if len(getattr(self, key)) == 0:
                raise ConfigurationError(f"{key} must be non-empty")
            for v in getattr(self, key):
                check_value(f"{key} entry", v, "float")
            object.__setattr__(self, key, tuple(float(v) for v in getattr(self, key)))
        if any(not 0.0 <= v <= 1.2 for v in self.sweep):
            raise ConfigurationError("sweep values must lie in [0, 1.2]")
        repeated = _repeated([label for label, _ in self.points()])
        if repeated:
            raise ConfigurationError(f"sweep values share the file label {', '.join(repeated)}")
        ignored = [
            f.name for f in dataclasses.fields(self)
            if f.name not in ("kind", "model", "output", *KINDS[self.kind].fields)
            and getattr(self, f.name) != f.default
        ]
        if self.model.mu_over_nu != ModelConfig.mu_over_nu:
            ignored.append("model.mu_over_nu")
        if ignored:
            raise ConfigurationError(f"{self.kind} does not read {', '.join(ignored)}; drop it")
        if self.n_samples < 16:
            raise ConfigurationError("n_samples must be at least 16")
        for key in ("sample_step", "trace_step_cycles", "bell_step_cycles"):
            if getattr(self, key) <= 0:
                raise ConfigurationError(f"{key} must be positive")
        if self.resolved_duration() <= 0:
            raise ConfigurationError("duration must be positive")
        if self.kind == "gate":
            if self.gate is None:
                raise ConfigurationError("gate scenarios need a gate section")
            if self.gate.kind not in GATE_TERMS:
                raise ConfigurationError(f"unknown gate kind {self.gate.kind!r}")
            if self.gate.strength is not None and self.gate.strength <= 0:
                raise ConfigurationError("gate strength must be positive")
        # each sector holds one probe state (in the singlet-triplet basis) and all
        # 2^n_tlf fluctuator states; its block Liouvillian's dimension is that squared
        n_max = int(np.log2(MAX_BLOCK_DIM)) // 2
        if self.model.n_tlf > n_max:
            raise ConfigurationError(
                f"n_tlf must be at most {n_max}, got {self.model.n_tlf}: "
                f"a block Liouvillian would exceed {MAX_BLOCK_DIM}^2"
            )
        if self.kind == "bell_decay":
            if self.bell not in BELL_STATES:
                raise ConfigurationError(
                    f"bell_decay scenarios need bell set to one of {BELL_STATES}"
                )
            if any(not 0 < e <= 1 for e in self.epsilons):
                raise ConfigurationError("epsilons must lie in (0, 1]")
            repeated = _repeated([repr(e) for e in self.epsilons])
            if repeated:
                raise ConfigurationError(f"epsilons repeat {', '.join(repeated)}")
        t_end, dt = self.time_grid()
        try:
            n_steps = _grid_steps(t_end, dt)
        except (ValueError, OverflowError) as exc:
            raise ConfigurationError(f"time grid: {exc}") from exc
        if n_steps > MAX_GRID_STEPS:
            raise ConfigurationError(
                f"time grid: {n_steps} steps per point, more than {MAX_GRID_STEPS}"
            )
        # each step's exponential keeps the trace to about eps * omega * dt, with
        # omega the fastest frequency (the probe's is 1), and the drift adds up
        # over the steps
        omega = max(1.0, float(np.max(self.ensemble.omega)))
        if np.finfo(float).eps * omega * dt * n_steps > TRACE_ABORT_TOL:
            raise ConfigurationError(
                f"frequency {omega:.3g} times the step {dt:.3g} over {n_steps} steps: "
                f"rounding would drift the trace past {TRACE_ABORT_TOL:g}"
            )
        # pi/(4 g) is the ideal gate's time to maximal entanglement from |++>
        g = self.gate_strength() if self.kind == "gate" else 0.0
        if g * dt > np.pi / 4:
            raise ConfigurationError(
                f"gate strength {g!r} times the trace step exceeds pi/4: "
                "the step cannot resolve the gate"
            )

    @functools.cached_property
    def ensemble(self) -> TlfEnsemble:
        """Every point's fluctuators up to mu, which a point's mu/nu scales; drawn on
        construction, so a model that cannot be sampled is refused before any compute."""
        return sample_ensemble(self.model)

    def gate_strength(self) -> float:
        """The strength the gate runs at: the file's, else the sampled probe-TLF coupling."""
        return self.gate.strength if self.gate.strength is not None else float(self.ensemble.nu)

    def points(self) -> list[tuple[str, float | None]]:
        """(file label, mu/nu) of each point, in run order; mu/nu None is the point
        without fluctuators (the spectrum's isolated probe, the gate's ideal register)."""
        kind = KINDS[self.kind]
        mus = [mu for p in kind.points for mu in (self.sweep if p == SWEEP else [p])]
        return [(kind.bare if mu is None else f"mu{mu:.2f}", mu) for mu in mus]

    def resolved_duration(self) -> float:
        if self.kind == "spectrum_sweep":  # set by the sampling parameters instead
            return (self.n_samples - 1) * self.sample_step / (2 * np.pi)
        return float(self.duration if self.duration is not None else KINDS[self.kind].duration)

    def time_grid(self) -> tuple[float, float]:
        """(t_end, dt) of every propagation of this scenario, in 1/omega_p units."""
        if self.kind == "spectrum_sweep":
            return (self.n_samples - 1) * self.sample_step, self.sample_step
        step = self.bell_step_cycles if self.kind == "bell_decay" else self.trace_step_cycles
        return self.resolved_duration() * 2 * np.pi, step * 2 * np.pi

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        data = _file_mapping(cls, raw, "scenario", extra=("schema_version",))
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        if "model" in data:
            data["model"] = ModelConfig(**_file_mapping(ModelConfig, data["model"], "model"))
        if data.get("gate") is not None:
            data["gate"] = GateSpec(**_file_mapping(GateSpec, data["gate"], "gate"))
        return cls(**data)

    def canonical_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(self)}
        out.update(
            sweep=list(self.sweep), duration=self.resolved_duration(), epsilons=list(self.epsilons)
        )
        if self.kind == "spectrum_sweep":
            del out["duration"]  # n_samples and sample_step set it; from_dict rejects the key
        return out

    def hash(self) -> str:
        payload = self.canonical_dict()
        payload["duration"] = self.resolved_duration()  # every kind hashes it, as it always has
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
    library_version: str = __version__


def _write_table(path, fmt: str, header_lines: list[str], columns: list[str], rows) -> None:
    """Write one table with a commented provenance header."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    if fmt == "csv":
        # None is written as an empty field, and a float as its repr
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        for row in rows:
            buf.write(json.dumps(dict(zip(columns, row))) + "\n")
    _write(path, buf.getvalue())


# libyaml's emitter where PyYAML was built with it: the same text as yaml.safe_dump,
# 2-4 times faster
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write(path, text: str) -> None:
    """Write one output file; a path that cannot be written is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output: {exc}") from exc


def _header(scenario: Scenario, extra: dict | None = None) -> list[str]:
    return [
        f"scenario_hash: {scenario.hash()}",
        f"seed: {scenario.model.seed}",
        f"resolved: {json.dumps(scenario.canonical_dict(), sort_keys=True)}",
        *(f"{key}: {val}" for key, val in (extra or {}).items()),
    ]


def _find_peaks(
    x: np.ndarray, prominence: float | None = None, distance: int | None = None
) -> np.ndarray:
    """Indices of the local maxima of ``x``, ascending.

    A maximum is a run of equal samples whose neighbours on both sides are
    strictly lower, taken at its midpoint ``(left + right) // 2``; the
    endpoints never are one. ``distance`` then visits the maxima from the
    highest down, in the reverse of numpy's default ``argsort`` of their
    heights (not a stable sort, so it also orders equal heights), and each
    one not yet dropped drops those less than ``distance`` samples away.
    Last, a maximum is kept if its prominence is at least ``prominence``:
    its height minus the higher of two minima, each over the samples no
    higher than it that run from it to one side. These are the rules of
    ``scipy.signal.find_peaks`` with these two arguments.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])  # runs of equal samples
    ends = np.r_[starts[1:], len(x)] - 1
    level = x[starts]
    inner = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = (starts[1:-1][inner] + ends[1:-1][inner]) // 2
    if distance is not None:
        keep = np.ones(len(peaks), dtype=bool)
        for j in np.argsort(x[peaks])[::-1]:
            if keep[j]:
                keep[np.abs(peaks - peaks[j]) < distance] = False
                keep[j] = True
        peaks = peaks[keep]
    if prominence is not None:
        prom = np.empty(len(peaks))
        for n, p in enumerate(peaks):
            wall = ~(x <= x[p])  # a base run stops at a higher sample (or a NaN)
            left, right = np.flatnonzero(wall[:p]), np.flatnonzero(wall[p:])
            lo = left[-1] + 1 if len(left) else 0
            hi = p + right[0] if len(right) else len(x)
            prom[n] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min())
        peaks = peaks[prom >= prominence]
    return peaks


def detect_peaks(spec: SpectrumEstimate) -> list[tuple[float, float]]:
    """Local maxima above a prominence threshold, strongest first.

    The threshold is ``PEAK_PROMINENCE_FRAC`` of the global maximum; peaks
    closer than ``PEAK_MIN_SEPARATION_BINS`` collapse onto the stronger one.
    """
    power = np.asarray(spec.power)
    if power.max() <= 0:
        return []
    idx = _find_peaks(
        power,
        prominence=PEAK_PROMINENCE_FRAC * power.max(),
        distance=PEAK_MIN_SEPARATION_BINS,
    )
    order = np.argsort(power[idx])[::-1]
    return [(float(spec.omega[i]), float(power[i])) for i in idx[order]]


def _repeated(labels: list[str]) -> list[str]:
    """The labels that occur more than once, sorted: their outputs would overwrite each other."""
    return sorted({x for x in labels if labels.count(x) > 1})


def simulate(
    cfg: ModelConfig,
    t_end: float,
    dt: float,
    probe: str = "plus_plus",
    gate: str | None = None,
    g: float | None = None,
    fluctuators: bool = True,
    magnetization: bool = False,
):
    """Propagate one probe-plus-fluctuator system; return ``(ensemble, trajectory)``.

    The fluctuators are sampled from ``cfg`` and start in their ground state,
    the probe in ``probe``. ``fluctuators=False`` runs the isolated probe
    instead and returns no ensemble. ``gate`` adds a static gate term of
    strength ``g``. The system is propagated in the singlet-triplet probe basis.
    The trajectory records ``M_x`` when ``magnetization`` is set and the probe
    marginals otherwise, taken back to the computational basis.
    """
    if fluctuators:
        ens = sample_ensemble(cfg)
        gen = build_operators(ens, cfg)
        tlf = tlf_ground_state(ens, cfg)
    else:
        ens, gen, tlf = None, probe_only_operators(), np.eye(1)
    if gate is not None:
        gen = add_gate(gen, gate, g)
    rho0 = initial_state(probe, tlf, gen)
    if magnetization:
        traj = propagate(gen, rho0, t_end, dt=dt, record={"M_x": probe_magnetization(gen.layout)})
    else:
        traj = propagate(gen, rho0, t_end, dt=dt, marginal_keep=(0, 1))
        # log-negativity needs the product basis
        traj.marginals = change_probe_basis(traj.marginals, (1, 2))
    return ens, traj


def _entanglement_table(stem: str, extra: dict, et) -> tuple:
    rows = zip(et.t_grid.tolist(), et.log_negativity.tolist(), et.c2prime.tolist())
    return stem, extra, ["t", "E_P", "C2prime"], list(rows)


def _spectrum_point(scenario: Scenario, label: str, mu_over_nu: float | None, ens, traj):
    """Magnetization series and spectrum; ``None`` is the isolated-probe control."""
    series = magnetization_series(traj)
    spec = power_spectrum(series)
    point = {"control": "isolated probe"} if mu_over_nu is None else {"mu_over_nu": mu_over_nu}
    extra = {**point, "time_unit": "1/omega_p"}
    tables = [
        (f"timeseries_{label}", extra, ["t", "value"],
         list(zip(series.t_grid.tolist(), series.values.tolist()))),
        (f"spectrum_{label}", extra, ["omega", "power"],
         list(zip(spec.omega.tolist(), spec.power.tolist()))),
    ]
    return tables, {"peaks": detect_peaks(spec)}


def _entanglement_point(scenario: Scenario, label: str, mu_over_nu: float, ens, traj):
    """Probe entanglement trace from a separable start (also the bound comparison)."""
    et = entanglement_trace(traj.t_grid, traj.marginals)
    extra = {"mu_over_nu": mu_over_nu, "time_unit": "1/omega_p"}
    gap = et.log_negativity - et.c2prime
    i_max = int(np.argmax(et.log_negativity))
    return [_entanglement_table(f"entanglement_{label}", extra, et)], {
        "max_E_P": float(et.log_negativity[i_max]),
        "t_at_max": float(et.t_grid[i_max]),
        "mean_bound_gap": float(np.mean(gap)),
        "max_bound_violation": float(np.max(et.c2prime - et.log_negativity)),
    }


def _linear_fit(x: np.ndarray, y: np.ndarray) -> dict:
    a = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(residual[0]) if len(residual) else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": r2}


def _bell_point(scenario: Scenario, label: str, mu_over_nu: float, ens, traj):
    """Entanglement decay of a register Bell state, with lifetimes and the
    exchange-probability law.

    The probability column uses the mean dressed emission rate of the
    sampled ensemble as the energy-exchange clock; the raw lifetimes are
    emitted alongside so the underlying lifetime-threshold law can be
    refit under any convention.
    """
    state = scenario.bell
    state_tag = state.replace("+", "_plus").replace("-", "_minus")
    et = entanglement_trace(traj.t_grid, traj.marginals)
    if abs(et.log_negativity[0] - 1.0) > 1e-8:
        raise PropagationError(
            f"initial register entanglement is {et.log_negativity[0]!r}, not 1"
        )
    extra = {
        "bell_state": state,
        "mu_over_nu": mu_over_nu,
        "time_unit": "1/omega_p",
        "t_eps_resolution": traj.step,
    }
    gamma_char = float(np.mean(ens.Gamma_minus))
    t_eps = [entanglement_lifetime(et, eps) for eps in scenario.epsilons]
    nbar = scenario.model.nbar
    p_t_eps = [None if t is None else p_of_t(t, gamma=gamma_char, nbar=nbar) for t in t_eps]
    rows = [
        (eps, t, p, float(-np.log(eps)))
        for eps, t, p in zip(scenario.epsilons, t_eps, p_t_eps)
    ]
    decay_extra = {
        **extra,
        "gamma_char": f"{gamma_char!r} (mean dressed emission rate; "
        "p = 1 - exp(-gamma_char (2 nbar + 1) t_eps / 2))",
    }
    tables = [
        _entanglement_table(f"bell_{state_tag}_{label}", extra, et),
        (f"decay_{state_tag}_{label}", decay_extra,
         ["epsilon", "t_eps", "p_t_eps", "neg_log_eps"], rows),
    ]
    fit = fit_raw = None
    if None not in t_eps and len(t_eps) > 1:  # a line through one threshold is undefined
        x = -np.log(np.asarray(scenario.epsilons))
        fit = _linear_fit(x, np.array(p_t_eps))
        fit_raw = _linear_fit(x, np.array(t_eps))
    return tables, {
        "lifetimes": t_eps, "fits": fit, "fits_raw_lifetime": fit_raw, "gamma_char": gamma_char,
    }


def _first_local_max(t: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    idx = _find_peaks(values)
    i = int(idx[0]) if len(idx) else int(np.argmax(values))
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


def _gate_point(scenario: Scenario, label: str, mu_over_nu: float | None, ens, traj):
    """Entangling gate among the fluctuators; ``None`` is the ideal register,
    with no fluctuators at all."""
    gate, g = scenario.gate.kind, scenario.gate_strength()
    et = entanglement_trace(traj.t_grid, traj.marginals)
    extra = {"gate": gate, "gate_strength": g, "run": label, "time_unit": "1/omega_p"}
    t_max, v_max = _first_local_max(et.t_grid, et.log_negativity)
    return [_entanglement_table(f"gate_{gate}_{label}", extra, et)], {
        "first_max": {"t": t_max, "E_P": v_max},
        "plateau": _plateau_report(et.t_grid, et.log_negativity),
    }


# each kind's point function, which observes one point's trajectory and returns its
# tables, each (file stem, header extras, columns, rows), and its manifest entries
_OBSERVE = {"spectrum_sweep": _spectrum_point, "bell_decay": _bell_point, "gate": _gate_point}


def expand_grid(raw: dict, seed: int | None = None) -> list[tuple[str, Scenario]]:
    """Expand an optional ``grid`` section into labelled scenarios.

    ``grid`` maps model field names to value lists; the cross product is
    enumerated and each combination becomes its own scenario (outputs land
    in a correspondingly named subdirectory; two combinations that would
    share one are refused). Without a grid the file describes a single
    anonymous scenario. ``seed``, when given, replaces every member's model
    seed; a grid over ``seed`` refuses it, since the member directories name
    their seeds.
    """
    data = _file_mapping(Scenario, raw, "scenario", extra=("schema_version", "grid"))
    grid = data.pop("grid", None)
    model = _file_mapping(ModelConfig, data.get("model", {}), "model")
    if seed is not None:
        model["seed"] = seed
    if grid is None:
        return [("", Scenario.from_dict({**data, "model": model}))]
    grid = _file_mapping(ModelConfig, grid, "grid")
    keys = sorted(grid)
    if not keys or any(not isinstance(grid[k], list) or not grid[k] for k in keys):
        raise ConfigurationError("grid must map model fields to non-empty lists")
    if seed is not None and "seed" in grid:
        raise ConfigurationError("--seed cannot override a grid over seed")
    out = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        scenario = Scenario.from_dict({**data, "model": {**model, **dict(zip(keys, combo))}})
        label = "__".join(
            f"{k}={v}" if isinstance(v, str) else f"{k}={v:g}" for k, v in zip(keys, combo)
        )
        out.append((label, scenario))
    repeated = _repeated([label for label, _ in out])
    if repeated:
        raise ConfigurationError(f"grid members share the directory {', '.join(repeated)}")
    return out


def load_scenario_file(path, seed: int | None = None) -> list[tuple[str, Scenario]]:
    """Parse a scenario file into its (label, scenario) expansions; ``seed``
    replaces the model seed of each (see :func:`expand_grid`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse scenario file: {exc}") from exc
    return expand_grid(raw, seed)


def run_scenario(scenario: Scenario, out_dir=None, fmt: str = "csv") -> RunRecord:
    """Run every point of the scenario, write its tables and its manifest.

    Each table is written as ``<stem>.<fmt>`` under the output directory.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    t0 = time.monotonic()
    out = Path(out_dir if out_dir is not None else scenario.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output: {exc}") from exc
    # what every point runs with; only the model's mu/nu, and whether there are
    # fluctuators at all, change from point to point
    gate = None if scenario.gate is None else scenario.gate.kind
    g = None if scenario.gate is None else scenario.gate_strength()
    observe = _OBSERVE.get(scenario.kind, _entanglement_point)

    def run_point(label: str, mu: float | None) -> dict:
        # a function of its own, so that no trajectory outlives its point
        model = scenario.model if mu is None else dataclasses.replace(scenario.model, mu_over_nu=mu)
        ens, traj = simulate(
            model, *scenario.time_grid(), probe=scenario.bell or "plus_plus", gate=gate, g=g,
            fluctuators=mu is not None, magnetization=scenario.kind == "spectrum_sweep",
        )
        tables, summary = observe(scenario, label, mu, ens, traj)
        ensemble = None if ens is None else ens.as_dict()
        return {"tables": tables, "ensemble": ensemble, "stats": traj.stats, "summary": summary}

    points = scenario.points()
    results = {label: run_point(label, mu) for label, mu in points}

    tables = [t for r in results.values() for t in r["tables"]]
    tables.sort(key=lambda t: f"{t[0]}.{fmt}")
    if scenario.kind == "spectrum_sweep":
        peak_rows = [
            (label, mu, omega, power)
            for label, mu in points
            for omega, power in results[label]["summary"]["peaks"]
        ]
        tables.append(("peaks", {}, ["run", "mu_over_nu", "omega", "power"], peak_rows))
    files = []
    for stem, extra, columns, rows in tables:
        files.append(f"{stem}.{fmt}")
        _write_table(out / files[-1], fmt, _header(scenario, extra), columns, rows)
    head = {"bell_state": scenario.bell, "gate": gate, "gate_strength": g}
    summary = {key: value for key, value in head.items() if value is not None}
    for label, r in results.items():
        for key, value in r["summary"].items():
            summary.setdefault(key, {})[label] = value
    summary["cptp"] = {label: r["stats"] for label, r in results.items()}
    record = RunRecord(
        scenario_hash=scenario.hash(),
        seed=scenario.model.seed,
        scenario=scenario.canonical_dict(),
        ensembles={label: r["ensemble"] for label, r in results.items() if r["ensemble"]},
        files=files,
        summary=summary,
        wall_clock_s=time.monotonic() - t0,
    )
    text = yaml.dump(dataclasses.asdict(record), Dumper=_YAML_DUMPER, sort_keys=False)
    _write(out / "manifest.yaml", text)
    return record
