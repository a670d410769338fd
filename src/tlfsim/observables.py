"""Measurements on propagated trajectories.

Covers the transverse-magnetization time series and its mean-removed
periodogram, two-qubit logarithmic negativity, the 3x3 Pauli correlation
matrix with its entanglement lower bound, threshold-crossing entanglement
lifetimes, and the energy-exchange probability map used to parameterize
entanglement decay.

The entanglement quantities are computed over a whole (n, 4, 4) stack of
probe marginals at once; the single-state functions are the same kernels
on a stack of one. Each quantity has one formula, a trace norm taken as the
sum of singular values: of the partial transpose for the log-negativity, of
the correlator matrix for its lower bound. The stack is audited for its
trace and its populations, never repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TRACE_ABORT_TOL, PropagationError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z

# _PAULI_PAIRS[i, j] = s_i kron s_j for s = (x, y, z)
_PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULIS, _PAULIS).reshape(3, 3, 4, 4)

POPULATION_ABORT_TOL = -1e-7


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
    """One-sided power spectrum on the angular-frequency grid omega_k = 2 pi k / (N ts)."""

    omega: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class EntanglementTrace:
    """Entanglement record along a trajectory."""

    t_grid: np.ndarray
    log_negativity: np.ndarray
    c2prime: np.ndarray | None = None


def magnetization_series(traj) -> TimeSeries:
    """Transverse probe magnetization <X_A + X_B> along a trajectory, read from
    its recorded "M_x" expectation channel."""
    if "M_x" not in traj.expectations:
        raise ValueError("trajectory carries no magnetization record")
    values = np.asarray(traj.expectations["M_x"], dtype=float)
    return TimeSeries(t_grid=np.asarray(traj.t_grid), values=values, step=float(traj.step))


def power_spectrum(series: TimeSeries) -> SpectrumEstimate:
    """Mean-removed periodogram of a uniform real time series.

    S(omega_k) = (ts / N) |sum_n (x_n - mean) exp(-i omega_k n ts)|^2 at
    omega_k = 2 pi k / (N ts), reported one-sided for k = 0..N/2. Summing
    S * d_omega over the full two-sided grid gives 2 pi times the sample
    variance (the one-sided sum carries half of that, plus edge bins).
    No window is applied, so an on-grid sinusoid lands in a single bin.
    """
    values = np.asarray(series.values, dtype=float)
    n = len(values)
    if n < 16:
        raise ValueError("need at least 16 samples for a spectrum estimate")
    ts = float(series.step)
    x = values - values.mean()
    spec = np.fft.rfft(x)
    power = (ts / n) * np.abs(spec) ** 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=ts)
    return SpectrumEstimate(omega=omega, power=power)


def _one(a, shape: tuple, message: str, dtype=complex) -> np.ndarray:
    """``a`` as a stack of one, after checking that it has ``shape``."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(message)
    return a[None]


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm ||A||_1, the sum of the singular values, of each matrix of a stack."""
    return np.sum(np.linalg.svd(stack, compute_uv=False), axis=1)


def _log_negativities(states: np.ndarray) -> np.ndarray:
    """log2 trace norm of the partial transpose of each state of an (n, 4, 4) stack.

    The stack is audited, not repaired: the first sample whose trace is off
    one, or whose smallest population lies below ``POPULATION_ABORT_TOL``,
    raises, and rounding-level negative populations pass through as they are.
    """
    dev = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    herm = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    w_min = np.linalg.eigvalsh(herm)[:, 0]
    bad = (dev > TRACE_ABORT_TOL) | (w_min < POPULATION_ABORT_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if dev[i] > TRACE_ABORT_TOL:
            raise PropagationError("probe state trace deviates from one")
        raise PropagationError(f"state has negative population {w_min[i]:.3e}")
    # transpose the first qubit: (n, a, b, a', b') -> (n, a', b, a, b')
    pt = herm.reshape(-1, 2, 2, 2, 2).swapaxes(1, 3).reshape(-1, 4, 4)
    return np.maximum(0.0, np.log2(_trace_norms(pt)))


def _correlators(states: np.ndarray) -> np.ndarray:
    """(n, 3, 3) Pauli correlators <s_i^A s_j^B> of an (n, 4, 4) stack."""
    corr = np.einsum("ijab,nba->nij", _PAULI_PAIRS, states)
    bad = np.abs(corr.imag) > 1e-10
    if bad.any():
        n, i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise PropagationError(
            f"correlator <{'xyz'[i]}{'xyz'[j]}> has imaginary part {corr.imag[n, i, j]:.3e}"
        )
    return corr.real.copy()


def _c2primes(lam: np.ndarray) -> np.ndarray:
    """Entanglement lower bound max(0, log2(1 + ||L||_1) - 1) of each correlator
    matrix L of an (n, 3, 3) stack."""
    return np.maximum(0.0, np.log2(1.0 + _trace_norms(lam)) - 1.0)


def log_negativity(rho_p: np.ndarray) -> float:
    """log2 of the trace norm of the partially transposed two-qubit state."""
    rho = _one(rho_p, (4, 4), "log-negativity expects a 4x4 probe state")
    return float(_log_negativities(rho)[0])


def correlation_matrix(rho_p: np.ndarray) -> np.ndarray:
    """3x3 matrix of two-qubit Pauli correlators <s_i^A s_j^B>."""
    rho = _one(rho_p, (4, 4), "correlation matrix expects a 4x4 probe state")
    return _correlators(rho)[0]


def lower_bound_c2prime(lambda_mat: np.ndarray) -> float:
    """Entanglement lower bound from the correlator matrix's singular values."""
    lam = _one(lambda_mat, (3, 3), "expected a 3x3 correlator matrix", dtype=float)
    return float(_c2primes(lam)[0])


def entanglement_trace(t_grid: np.ndarray, marginals: np.ndarray) -> EntanglementTrace:
    """Log-negativity and correlator lower bound of every probe marginal, in one pass."""
    states = np.asarray(marginals, dtype=complex)
    if states.shape != (len(t_grid), 4, 4):
        raise ValueError("entanglement trace expects one 4x4 probe marginal per time")
    e_p = _log_negativities(states)
    return EntanglementTrace(
        t_grid=np.asarray(t_grid), log_negativity=e_p, c2prime=_c2primes(_correlators(states))
    )


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
    i = int(below[0])  # >= 1: e[0] < epsilon * e[0] fails for 0 < epsilon <= 1
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
