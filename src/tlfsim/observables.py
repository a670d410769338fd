"""Measurements on propagated trajectories.

Covers the transverse-magnetization time series and its mean-removed
periodogram, two-qubit logarithmic negativity, the 3x3 Pauli correlation
matrix with its entanglement lower bound, threshold-crossing entanglement
lifetimes, and the energy-exchange probability map used to parameterize
entanglement decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import PropagationError
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SubsystemLayout,
    dag,
    is_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm,
)

PROBE_LAYOUT = SubsystemLayout((2, 2))
_PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
M_X_PROBE = kron(SIGMA_X, np.eye(2)) + kron(np.eye(2), SIGMA_X)

EIG_CLIP_FLOOR = -1e-7


@dataclass(frozen=True)
class TimeSeries:
    """Real samples on a uniform time grid."""

    t_grid: np.ndarray
    values: np.ndarray
    step: float

    def __post_init__(self):
        if len(self.t_grid) != len(self.values):
            raise ValueError("time grid and values must have equal length")
        if len(self.t_grid) >= 2:
            spacings = np.diff(self.t_grid)
            if np.max(np.abs(spacings - self.step)) > 1e-12:
                raise ValueError("time grid is not uniform")


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided power spectrum on the angular-frequency grid.

    ``resolution_df`` and ``nyquist_f`` are the cycle-unit sampling
    parameters 1/(N ts) and 1/(2 ts); the frequency axis itself is angular,
    omega_k = 2 pi k / (N ts).
    """

    omega: np.ndarray
    power: np.ndarray
    resolution_df: float
    nyquist_f: float


@dataclass(frozen=True)
class EntanglementTrace:
    """Entanglement record along a trajectory."""

    t_grid: np.ndarray
    log_negativity: np.ndarray
    c2prime: np.ndarray | None = None
    correlators: np.ndarray | None = None  # (n, 3, 3)


def magnetization_series(traj, layout: SubsystemLayout | None = None) -> TimeSeries:
    """Transverse probe magnetization <X_A + X_B> along a trajectory.

    Uses a recorded "M_x" expectation channel when present, otherwise
    contracts recorded probe marginals, otherwise retained full states
    (which then require the trajectory's layout).
    """
    if "M_x" in traj.expectations:
        values = np.asarray(traj.expectations["M_x"], dtype=float)
    elif traj.marginals is not None and traj.marginals.shape[1] == 4:
        values = np.einsum("ij,nji->n", M_X_PROBE, traj.marginals).real
    elif traj.states is not None:
        if layout is None:
            raise ValueError("magnetization from full states requires a layout")
        values = np.array(
            [
                np.einsum("ij,ji->", M_X_PROBE, partial_trace(s, (0, 1), layout)).real
                for s in traj.states
            ]
        )
    else:
        raise ValueError("trajectory carries no magnetization record")
    return TimeSeries(t_grid=np.asarray(traj.t_grid), values=values, step=float(traj.step))


def power_spectrum(series: TimeSeries, window: str | None = None) -> SpectrumEstimate:
    """Mean-removed periodogram of a uniform real time series.

    S(omega_k) = (ts / N) |sum_n (x_n - mean) exp(-i omega_k n ts)|^2 at
    omega_k = 2 pi k / (N ts), reported one-sided for k = 0..N/2. Summing
    S * d_omega over the full two-sided grid gives 2 pi times the sample
    variance (the one-sided sum carries half of that, plus edge bins).
    No window is applied by default; ``window="hann"`` is available for
    qualitative leakage suppression.
    """
    values = np.asarray(series.values, dtype=float)
    n = len(values)
    if n < 16:
        raise ValueError("need at least 16 samples for a spectrum estimate")
    ts = float(series.step)
    x = values - values.mean()
    if window is not None:
        if window != "hann":
            raise ValueError(f"unknown window {window!r}")
        x = x * np.hanning(n)
    spec = np.fft.rfft(x)
    power = (ts / n) * np.abs(spec) ** 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=ts)
    return SpectrumEstimate(
        omega=omega,
        power=power,
        resolution_df=1.0 / (n * ts),
        nyquist_f=1.0 / (2.0 * ts),
    )


def _clip_small_negatives(rho: np.ndarray) -> np.ndarray:
    """Zero out tiny negative populations from rounding; renormalize."""
    w, v = np.linalg.eigh(0.5 * (rho + dag(rho)))
    if np.min(w) < EIG_CLIP_FLOOR:
        raise PropagationError(f"state has negative population {np.min(w):.3e}")
    if np.min(w) >= 0:
        return rho
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ dag(v)
    return rho / np.trace(rho).real


def log_negativity(rho_p: np.ndarray) -> float:
    """log2 of the trace norm of the partially transposed two-qubit state."""
    rho_p = np.asarray(rho_p, dtype=complex)
    if rho_p.shape != (4, 4):
        raise ValueError("log-negativity expects a 4x4 probe state")
    if abs(np.trace(rho_p).real - 1.0) > 1e-6:
        raise PropagationError("probe state trace deviates from one")
    rho_p = _clip_small_negatives(rho_p)
    value = np.log2(trace_norm(partial_transpose(rho_p, 0, PROBE_LAYOUT)))
    return max(0.0, float(value))


def correlation_matrix(rho_p: np.ndarray) -> np.ndarray:
    """3x3 matrix of two-qubit Pauli correlators <s_i^A s_j^B>."""
    rho_p = np.asarray(rho_p, dtype=complex)
    if rho_p.shape != (4, 4):
        raise ValueError("correlation matrix expects a 4x4 probe state")
    out = np.empty((3, 3))
    for i, si in enumerate("xyz"):
        for j, sj in enumerate("xyz"):
            val = np.einsum("ij,ji->", kron(_PAULIS[si], _PAULIS[sj]), rho_p)
            if abs(val.imag) > 1e-10:
                raise PropagationError(
                    f"correlator <{si}{sj}> has imaginary part {val.imag:.3e}"
                )
            out[i, j] = val.real
    return out


def lower_bound_c2prime(lambda_mat: np.ndarray) -> float:
    """Entanglement lower bound from the correlator matrix eigenvalues.

    The matrix is symmetric for the states produced here; mild asymmetry is
    symmetrized away, anything larger falls back to singular values with a
    warning.
    """
    lam = np.asarray(lambda_mat, dtype=float)
    if lam.shape != (3, 3):
        raise ValueError("expected a 3x3 correlator matrix")
    asym = float(np.max(np.abs(lam - lam.T)))
    if asym <= 1e-8:
        eigs = np.linalg.eigvalsh(0.5 * (lam + lam.T))
    else:
        warnings.warn(
            f"correlator matrix asymmetry {asym:.3e}; using singular values",
            RuntimeWarning,
        )
        eigs = np.linalg.svd(lam, compute_uv=False)
    return max(0.0, float(np.log2(1.0 + np.sum(np.abs(eigs))) - 1.0))


def entanglement_trace(t_grid: np.ndarray, marginals: np.ndarray, step: float | None = None) -> EntanglementTrace:
    """Per-sample log-negativity, correlators and lower bound from marginals."""
    n = len(t_grid)
    e_p = np.empty(n)
    c2 = np.empty(n)
    corr = np.empty((n, 3, 3))
    for i in range(n):
        rho_p = marginals[i]
        e_p[i] = log_negativity(rho_p)
        corr[i] = correlation_matrix(rho_p)
        c2[i] = lower_bound_c2prime(corr[i])
    return EntanglementTrace(t_grid=np.asarray(t_grid), log_negativity=e_p, c2prime=c2, correlators=corr)


def entanglement_lifetime(trace: EntanglementTrace, epsilon: float) -> float | None:
    """First time the log-negativity falls below epsilon times its start value.

    Linear interpolation between the bracketing grid samples; None when the
    threshold is never crossed within the trace.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    e = np.asarray(trace.log_negativity, dtype=float)
    t = np.asarray(trace.t_grid, dtype=float)
    e0 = e[0]
    if e0 <= 0.0:
        raise ValueError("lifetime undefined: trace starts with zero entanglement")
    level = epsilon * e0
    below = np.nonzero(e < level)[0]
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(t[0])
    frac = (e[i - 1] - level) / (e[i - 1] - e[i])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def p_of_t(t: float, gamma: float = 1.0, nbar: float = 0.0) -> float:
    """Probability of exchanging a quantum with a damping bath by time t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    return float(1.0 - np.exp(-gamma * (2.0 * nbar + 1.0) * t / 2.0))
