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


# Pade coefficients b_0..b_m of r_m(A) = q_m(A)^-1 p_m(A), p_m(x) = sum_k b_k x^k
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# theta_m: r_m has backward error at most the unit roundoff u where eta <= theta_m;
# c_m: the leading coefficient of that error's series, for ell(m)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 4.25}
_C_LEAD = {3: 1 / 100800, 5: 1 / 10059033600, 7: 1 / 4487938430976000,
           9: 1 / 5914384781877411840000, 13: 1 / 113250775606021113483283660800000000}
_UNIT_ROUNDOFF = 2.0**-53
_MAX_HALVINGS = 1022  # 2^-s stays a normal double


def _norm1(a: np.ndarray) -> np.float64:
    return np.abs(a).sum(axis=0).max()  # a numpy float: its powers overflow to inf, not raise


def _ell(a: np.ndarray, m: int) -> int:
    """The squarings ell(m) that keep the rounding of r_m(A) at the unit roundoff.

    alpha = |c_m| ||abs(A)^(2m+1)||_1 / ||A||_1, and ell(m) = ceil(log2(alpha / u) / 2m)
    when positive. The 1-norm of the non-negative abs(A)^(2m+1) is the largest
    entry of 1^T abs(A)^(2m+1), from 2m + 1 vector products, each scaled to a
    largest entry of 1 so that nothing overflows.
    """
    norm = _norm1(a)
    if _C_LEAD[m] * norm ** (2 * m) <= _UNIT_ROUNDOFF:  # ||abs(A)^p||_1 <= ||A||_1^p
        return 0
    abs_a, v, log2_norm = np.abs(a), np.ones(len(a)), 0.0
    for _ in range(2 * m + 1):
        v = v @ abs_a
        top = v.max()
        if top == 0.0:  # abs(A) is nilpotent
            return 0
        if not np.isfinite(top):
            return _MAX_HALVINGS
        log2_norm += np.log2(top)
        v /= top
    log2_alpha = np.log2(_C_LEAD[m] / norm) + log2_norm
    return max(int(np.ceil((log2_alpha - np.log2(_UNIT_ROUNDOFF)) / (2 * m))), 0)


def _pade(a: np.ndarray, powers: list, m: int) -> np.ndarray:
    """r_m(A) from A and its even powers A^2, A^4, ... as in N. J. Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005) 1179-1193, section 2.

    ``powers`` is emptied as it is used, so that the solve runs with the fewest
    buffers alive.
    """
    b = _PADE[m]
    diag = np.s_[:: len(a) + 1]
    if m == 13:
        a2, a4, a6 = powers
        powers.clear()
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        u += b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        v += b[6] * a6 + b[4] * a4 + b[2] * a2
        del a2, a4, a6
    else:
        # u = sum_k b_(2k+1) A^2k and v = sum_k b_2k A^2k, the highest power's buffer reused for u
        k = len(powers)
        u = powers.pop()
        v = b[2 * k] * u
        u *= b[2 * k + 1]
        tmp = np.empty_like(u)
        while powers:
            k -= 1
            p = powers.pop()
            v += np.multiply(p, b[2 * k], out=tmp)
            u += np.multiply(p, b[2 * k + 1], out=tmp)
            del p
        del tmp
    u.flat[diag] += b[1]
    v.flat[diag] += b[0]
    u = a @ u
    q = v + u
    v -= u
    del u
    # q and v are polynomials in A and commute, so v^-1 q = (v^-T q^T)^T; LAPACK
    # takes the transposes, which are Fortran-ordered, without a transposing copy
    return np.linalg.solve(v.T, q.T).T


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential; real input stays real.

    The scaling and squaring algorithm of Al-Mohy and Higham, "A New Scaling
    and Squaring Algorithm for the Matrix Exponential", SIAM J. Matrix Anal.
    Appl. 31 (2009) 970-989 (Algorithm 6.1), with exact 1-norms in place of
    norm estimates. The Pade order m (3, 5, 7, 9, or 13 after s halvings of
    A) is chosen from d_p = ||A^p||_1^(1/p) of the even powers A^2, A^4 and
    A^6. Where a power is not formed, a bound stands in for its norm: d_6 <=
    (||A^2||_1 ||A^4||_1)^(1/6) for m = 3 and 5, d_8 <= min(d_4,
    (||A^2||_1 ||A^6||_1)^(1/8)) and d_10 <= (||A^4||_1 ||A^6||_1)^(1/10);
    so A^6 is formed only for m >= 7, A^8 only for m = 9, and A^10 never. A
    bound can only raise the order, so the backward error stays at the unit
    roundoff. r_m comes from one ``np.linalg.solve``. Overflow in the products
    or squarings leaves non-finite entries, with no warning, and stops the
    squarings; the caller checks for them.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm expects a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm input has non-finite entries")
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = [a @ a]
        powers.append(powers[0] @ powers[0])
        n2, n4 = map(_norm1, powers)
        d4 = n4 ** (1 / 4)
        eta = max(d4, (n2 * n4) ** (1 / 6))  # d_6 <= (||A^2||_1 ||A^4||_1)^(1/6)
        for m in (3, 5):
            if eta <= _THETA[m] and _ell(a, m) == 0:
                del powers[m // 2 :]
                return _pade(a, powers, m)
        powers.append(powers[0] @ powers[1])
        n6 = _norm1(powers[2])
        d6 = n6 ** (1 / 6)
        d8 = min(d4, (n2 * n6) ** (1 / 8))
        eta = max(d6, d8)
        for m in (7, 9):
            if eta <= _THETA[m] and _ell(a, m) == 0:
                if m == 9:
                    powers.append(powers[1] @ powers[1])
                return _pade(a, powers, m)
        eta = min(max(d6, d8), max(d8, (n4 * n6) ** (1 / 10)))
        norm = _norm1(a)
        if not eta <= norm:  # the powers overflowed; every d_p is at most ||A||_1
            eta = norm
        s = int(np.clip(np.ceil(np.log2(eta / _THETA[13])), 0, _MAX_HALVINGS))
        s = min(s + _ell(a * 2.0**-s, 13), _MAX_HALVINGS)
        if s:  # the powers of the halved A, formed from it: none overflowed or underflowed
            del powers[:]
            a = a * 2.0**-s
            powers.append(a @ a)
            powers.append(powers[0] @ powers[0])
            powers.append(powers[0] @ powers[1])
        x = _pade(a, powers, 13)
        for _ in range(s):
            if not np.isfinite(x).all():
                break
            x = x @ x
        return x
