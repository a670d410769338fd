"""Dense complex matrix primitives for small multi-qubit open systems.

Operators are plain complex ndarrays. Composite Hilbert spaces are
described by a :class:`SubsystemLayout` (ordered subsystem dimensions).
All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

HERM_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |1> -> |0>
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0> -> |1>

_PAULI_TABLE = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions of a tensor-product Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0 or any(d < 1 for d in self.dims):
            raise ValueError(f"invalid subsystem dimensions {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def is_hermitian(a: np.ndarray, atol: float = HERM_ATOL) -> bool:
    return bool(np.max(np.abs(a - dag(a))) <= atol)


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"ZIX"`` -> Z kron I kron X."""
    try:
        mats = [_PAULI_TABLE[c] for c in label]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli label character in {label!r}") from exc
    return reduce(np.kron, mats)


def embed(op: np.ndarray, site: int, layout: SubsystemLayout) -> np.ndarray:
    """Lift a single-site operator to the full space: I x ... x op x ... x I."""
    if not 0 <= site < layout.n_sites:
        raise ValueError(f"site {site} out of range for {layout.n_sites} sites")
    d = layout.dims[site]
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} != site dimension {d}")
    left = np.eye(int(np.prod(layout.dims[:site])), dtype=complex)
    right = np.eye(int(np.prod(layout.dims[site + 1:])), dtype=complex)
    return np.kron(np.kron(left, op), right)


def partial_trace(rho: np.ndarray, keep, layout: SubsystemLayout) -> np.ndarray:
    """Reduced matrix on the ``keep`` sites; trace over the rest.

    ``keep`` is a sequence of site indices; the result orders kept sites
    as in the layout. Trace is preserved.
    """
    keep = sorted(set(int(k) for k in keep))
    if len(keep) == 0:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= layout.n_sites:
        raise ValueError(f"keep sites {keep} out of range")
    n = layout.n_sites
    if rho.shape != (layout.total_dim, layout.total_dim):
        raise ValueError(f"state shape {rho.shape} != layout dim {layout.total_dim}")
    traced = [s for s in range(n) if s not in keep]
    k = math.prod(layout.dims[s] for s in keep)
    r = math.prod(layout.dims[s] for s in traced)
    # (rows, cols) -> (kept, traced, kept', traced'), then one trace over traced
    order = keep + traced + [n + s for s in keep] + [n + s for s in traced]
    t = rho.reshape(layout.dims + layout.dims).transpose(order).reshape(k, r, k, r)
    return np.trace(t, axis1=1, axis2=3)


def herm_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and the matrix of orthonormal
    eigenvectors (columns). Raises on input that is not Hermitian within
    the absolute max-entry tolerance ``HERM_ATOL``.
    """
    dev = float(np.max(np.abs(a - dag(a))))
    if dev > HERM_ATOL:
        raise ValueError(f"matrix not Hermitian: max |a - a^dag| = {dev:.3e}")
    w, v = np.linalg.eigh(a)
    return w, v


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade core); real input stays real."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm expects a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm input has non-finite entries")
    return scipy.linalg.expm(np.asarray(a, dtype=complex if np.iscomplexobj(a) else float))

