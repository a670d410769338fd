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


# (m, theta_m): Taylor degree m, and the largest ||A||_1 at which T_m(A) = sum_(k<=m) A^k/k!
# has a relative backward error of at most 2^-53: the root of h(x)/x = 2^-53, h the series
# of log(e^-x T_m(x)) with its coefficients' magnitudes. Al-Mohy and Higham, SIAM J. Sci.
# Comput. 33 (2011) 488-511, table 3.1; recomputed with mpmath to 16 digits.
_TAYLOR = ((2, 2.580956802971767e-8), (4, 3.397168839976962e-4), (6, 9.065656407595102e-3),
           (9, 8.957760203223343e-2), (12, 2.99615891381158e-1), (16, 7.802874256626574e-1),
           (20, 1.438252596804337), (25, 2.428582524442826), (30, 3.539666348743689))
_MAX_HALVINGS = 1022  # 2^-s stays a normal double


def _norm1(a: np.ndarray) -> np.float64:
    return np.abs(a).sum(axis=0).max()  # a numpy float: it overflows to inf, not raise


def _block_size(m: int) -> int:
    """Paterson-Stockmeyer's block size k for degree m; k divides every degree of _TAYLOR."""
    return math.isqrt(m - 1) + 1


def _degree_and_halvings(norm: float) -> tuple[int, int]:
    """The degree m and halvings s with ||A||_1 / 2^s <= theta_m that take the fewest
    products: k - 1 powers, m/k - 1 Horner steps and s squarings; at a tie, fewer
    halvings. s is capped at ``_MAX_HALVINGS``; a norm that overflowed takes m = 30."""

    def plan(m, theta):
        s = max(np.ceil(np.log2(norm / theta)), 0.0)  # inf for an overflowed norm
        k = _block_size(m)
        return k + m // k - 2 + s, s, -m  # no two degrees cost the same

    _, s, m = min(plan(m, theta) for m, theta in _TAYLOR)
    return -m, int(min(s, _MAX_HALVINGS))


def _taylor(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """T_m(A / 2^s) by Paterson and Stockmeyer, with block size k and r = m / k blocks:

        T_m(X) = B_0 + X^k (B_1 + ... + X^k (B_(r-2) + X^k B_(r-1))),

    B_j = sum_(i<k) X^i / (jk + i)!, and B_(r-1) takes the last term X^k / m! too.
    The powers X, ..., X^k sit in one stack, so each block sum is one product of its
    coefficients with the flattened stack, written into a buffer that is then reused.
    """
    n, k = len(a), _block_size(m)
    c = 1.0 / np.array([math.factorial(i) for i in range(m + 1)])
    powers = np.empty((k, n, n), dtype=a.dtype)
    np.multiply(a, 2.0**-s, out=powers[0])
    for i in range(1, k):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    flat, diag = powers.reshape(k, n * n), np.s_[:: n + 1]
    x, y = np.empty_like(powers[0]), np.empty_like(powers[0])
    np.matmul(c[m - k + 1 :].astype(a.dtype), flat, out=x.reshape(-1))
    x.flat[diag] += c[m - k]
    for j in range(m // k - 2, -1, -1):
        np.matmul(x, powers[-1], out=y)
        np.matmul(c[j * k + 1 : j * k + k].astype(a.dtype), flat[:-1], out=x.reshape(-1))
        x += y
        x.flat[diag] += c[j * k]
    return x


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential; real input stays real.

    Scaling and squaring with a truncated Taylor series, as in Al-Mohy and
    Higham, "Computing the action of the matrix exponential", SIAM J. Sci.
    Comput. 33 (2011) 488-511: exp(A) = T_m(A / 2^s)^(2^s), with the degree
    m (2, 4, 6, 9, 12, 16, 20, 25 or 30) and the halvings s that together
    take the fewest matrix products, subject to ||A||_1 / 2^s <= theta_m, so
    that the backward error stays at the unit roundoff. T_m is evaluated by
    Paterson-Stockmeyer in 1 to 9 products and no linear solve, then squared
    s times. Overflow in the products or squarings leaves non-finite
    entries, with no warning, and stops the squarings; the caller checks for
    them.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm expects a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm input has non-finite entries")
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, s = _degree_and_halvings(_norm1(a))
        x = _taylor(a, m, s)
        y = np.empty_like(x)
        for _ in range(s):
            if not np.isfinite(x).all():
                break
            np.matmul(x, x, out=y)
            x, y = y, x
        return x
