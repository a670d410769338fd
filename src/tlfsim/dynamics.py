"""Lindblad propagation on a uniform time grid.

The generator is held as a Hamiltonian plus its jump rates and jump operators.
Two independent evaluation routes are provided and cross-validated in the
test suite:

* a vectorized superoperator (column stacking) whose exponential is computed
  once per (generator, step) and applied repeatedly. When H and every jump
  share a block structure, the state splits into sector pairs (row sector,
  column sector), each mapped into itself by the flow, and the exponential
  is taken per live pair. The model's systems take the probe pair in a basis
  in which each probe state spans a sector under every gate (see
  :mod:`tlfsim.model`). Block Liouvillians are assembled from the effective
  Hamiltonians G = -iH - 1/2 sum_k rate_k J_k^dagger J_k, and a diagonal
  (a, a) pair is stepped in real arithmetic in a Hermitian basis.
  :class:`_BlockStepper` holds the state as its live pairs and records every
  observable as a linear functional of them, a whole state as the marginal on
  every site; the full state is assembled only for the strided eigenvalue
  check and the final state.
  The loop runs in chunks of B grid points: one product of the stacked rows
  ``weights P^j`` (j < B) with the state records all B of them, trace
  included, and one mat-vec per pair with ``P^B`` reaches the next
  chunk start; a tail of fewer than B steps takes single steps. B comes from
  a cost rule (:func:`_chunk_size`) and divides ``EIG_CHECK_STRIDE``; with
  B = 1 the loop is one step per grid point.
  This is ``method="sector"``, the default; ``method="dense"`` takes the
  one-sector route through the same engine and is its oracle. The engine runs
  on numpy alone: the sectors are a transitive closure of the operators'
  joint sparsity pattern, the Hermitian basis W is applied by index
  arithmetic on the diagonal and each (ij, ji) pair of vec entries (never
  built), and the exponential is :func:`tlfsim.linalg.expm`;
* a classic fixed-step fourth-order Runge-Kutta integrator on the operator
  form of the equation of motion, one precomputed step map applied to the full
  state, which it records from; kept as an independent oracle.

The initial state is Hermitized and normalized once; nothing repairs it after.
The block engine is Hermitian by construction (a complex real-basis propagator
is refused at build, so ``max_herm_dev`` is 0) and audits every grid point's
trace as one more recorded functional; RK4 audits the Hermiticity and trace
of its full state each step.
Positivity is never enforced, only checked every ``EIG_CHECK_STRIDE`` steps
and at the end. ``Trajectory.stats`` carries these hygiene figures and, from
:func:`propagate`, the engine's counters: ``sectors``, ``pairs_live``,
``pairs_stepped`` (unordered pairs, each with the propagator built for it),
``propagators_real`` (those taken in the real basis), ``block_dim_max`` (the
largest block Liouvillian's dimension) and ``chunk`` (B).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import SubsystemLayout, dag, expm, is_hermitian, partial_trace

TRACE_ABORT_TOL = 1e-6
HERM_ABORT_TOL = 1e-6
EIG_ABORT_TOL = -1e-5
EIG_CHECK_STRIDE = 100  # steps between full-state eigenvalue checks


class PropagationError(RuntimeError):
    """A state invariant passed its abort tolerance, in propagation or in an observable."""


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus weighted jump operators on one Hilbert space.

    Built from ``(rate, operator)`` pairs, held as the rates ``(k,)`` and the
    operators stacked as ``(k, dim, dim)``. ``layout`` splits the space into
    the sites that recorded marginals keep; by default it is one site of size
    ``dim``.
    """

    h: np.ndarray
    jumps: InitVar[list]  # (rate, operator) pairs
    layout: SubsystemLayout | None = None
    rates: np.ndarray = field(init=False)
    jump_ops: np.ndarray = field(init=False)

    def __post_init__(self, jumps):
        h = np.asarray(self.h, dtype=complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        dim = h.shape[0]
        layout = SubsystemLayout((dim,)) if self.layout is None else self.layout
        if layout.total_dim != dim:
            raise ValueError(f"layout dim {layout.total_dim} != Hamiltonian dim {dim}")
        object.__setattr__(self, "layout", layout)
        if not is_hermitian(h):
            raise ValueError("Hamiltonian is not Hermitian")
        rates = np.array([rate for rate, _ in jumps], dtype=float)
        if np.any(rates < 0):
            raise ValueError("jump rates must be non-negative")
        ops = [np.asarray(op, dtype=complex) for _, op in jumps]
        if any(op.shape != (dim, dim) for op in ops):
            raise ValueError("jump operator dimension mismatch")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "jump_ops", np.array(ops, dtype=complex).reshape(-1, dim, dim))

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def norm_bound(self) -> float:
        """Cheap upper bound on the superoperator spectral norm."""
        op_norms = np.linalg.norm(self.jump_ops, 2, axis=(1, 2))
        return float(2.0 * np.linalg.norm(self.h, 2) + np.sum(2.0 * self.rates * op_norms**2))


def _effective_hamiltonian(h: np.ndarray, rates: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """G = -iH - 1/2 sum_k rate_k J_k^dagger J_k, with the jumps stacked on axis 0."""
    return -1j * h - 0.5 * np.einsum("k,kji,kjl->il", rates, jumps.conj(), jumps)


def _liouvillian_block(h_row, h_col, rates, jumps_row, jumps_col) -> np.ndarray:
    """Generator of d/dt rho_block for one (row sector, column sector) pair.

    With column stacking, vec(A X B) = (B^T kron A) vec(X), so

        L = I kron G_row + conj(G_col) kron I + sum_k rate_k conj(J_col,k) kron J_row,k

    with G the effective Hamiltonians of the two sectors and the jumps
    stacked as ``(k, n, n)``. L is written through its ``(nc, nr, nc, nr)``
    view: the jump terms in one product over the stacked jumps, the two
    Kronecker sums added along the diagonal index pairs.
    """
    nr, nc, k = h_row.shape[0], h_col.shape[0], len(rates)
    l = np.empty((nc * nr, nc * nr), dtype=complex)
    l4 = l.reshape(nc, nr, nc, nr)
    weighted = (rates[:, None, None] * jumps_col.conj()).reshape(k, nc * nc)
    jumps = (weighted.T @ jumps_row.reshape(k, nr * nr)).reshape(nc, nc, nr, nr)
    l4[...] = jumps.transpose(0, 2, 1, 3)
    ic, ir = np.arange(nc), np.arange(nr)
    l4[ic, :, ic, :] += _effective_hamiltonian(h_row, rates, jumps_row)
    l4[:, ir, :, ir] += _effective_hamiltonian(h_col, rates, jumps_col).conj()
    return l


def build_liouvillian(gen: LindbladGenerator) -> np.ndarray:
    """Dense superoperator L with vec(rho') = L vec(rho), column stacking."""
    return _liouvillian_block(gen.h, gen.h, gen.rates, gen.jump_ops, gen.jump_ops)


def step_propagator(l: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt), for repeated application on a uniform grid.

    A rate or coupling too large for floating point leaves L dt or its
    exponential with non-finite entries; that raises PropagationError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    l_dt = l * dt
    if not np.isfinite(l_dt).all():
        raise PropagationError("L dt has non-finite entries")
    p = expm(l_dt)
    if not np.isfinite(p).all():
        raise PropagationError("exp(L dt) has non-finite entries")
    return p


def find_invariant_sectors(gen: LindbladGenerator) -> list[np.ndarray]:
    """Basis partition into sectors preserved by H and every jump operator.

    Two basis indices belong to the same sector when any operator connects
    them; the returned index arrays are sorted and cover the whole space.
    A single sector means no usable block structure.
    """
    pattern = (gen.h != 0) | np.any(gen.jump_ops != 0, axis=0)
    reach = pattern | pattern.T | np.eye(gen.dim, dtype=bool)
    while True:  # transitive closure by squaring: paths of length 2^k
        longer = reach @ reach
        if np.array_equal(longer, reach):
            break
        reach = longer
    # row i of the closure is i's sector, listed once, at its first index
    firsts = np.flatnonzero(np.argmax(reach, axis=1) == np.arange(gen.dim))
    return [np.nonzero(reach[i])[0] for i in firsts]


_REAL_BASIS_TOL = 1e-12  # largest |Im| of W^dagger L W, relative to its largest entry

# W on one pair of entries: rows E_ij, E_ji (i < j) of vec, columns the coordinates
# of (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2)
_W_PAIR = np.sqrt(0.5) * np.array([[1.0, 1.0j], [1.0, -1.0j]])


def _hermitian_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vec positions of E_ij and E_ji, i < j, of n x n matrices (column stacking).

    They define the unitary W whose columns are vec of an orthonormal
    Hermitian basis of n x n matrices, in vec order: E_ii at i + i n,
    (E_ij + E_ji)/sqrt(2) at i + j n and i(E_ij - E_ji)/sqrt(2) at j + i n.
    W is the identity on the diagonal and ``_W_PAIR`` on each pair, so it is
    applied by :func:`_mix_pairs`, never built.
    """
    i, j = np.triu_indices(n, 1)
    return i + j * n, j + i * n


def _mix_pairs(x: np.ndarray, pairs: tuple | None, m: np.ndarray) -> np.ndarray:
    """Map each pair (x[..., ij], x[..., ji]) of the last axis by the 2 x 2 ``m``, in place.

    With ``m`` = ``_W_PAIR`` this is W x, with its adjoint W^dagger x, and
    with its transpose x W (on rows x). ``pairs=None`` stands for the
    identity basis and leaves x as it is.
    """
    if pairs is None:
        return x
    ij, ji = pairs
    a, b = x[..., ij], x[..., ji]
    x[..., ij] = m[0, 0] * a + m[0, 1] * b
    x[..., ji] = m[1, 0] * a + m[1, 1] * b
    return x


def _real_basis_generator(l: np.ndarray, n: int) -> np.ndarray:
    """The real W^dagger L W of a self-adjoint pair's block Liouvillian (n x n sectors).

    It is formed in the buffer of ``l``, whose imaginary part must then be
    rounding: anything larger raises PropagationError.
    """
    pairs = _hermitian_pairs(n)
    _mix_pairs(l, pairs, _W_PAIR.T)  # L W
    _mix_pairs(l.T, pairs, _W_PAIR.conj().T)  # W^dagger (L W), on the rows
    imag = np.max(np.abs(l.imag))
    if imag > _REAL_BASIS_TOL * np.max(np.abs(l)):
        raise PropagationError(
            f"self-adjoint block is not real in the Hermitian basis (|Im| up to {imag:.3e})"
        )
    return l.real.copy()


def _block_propagator(
    ops_r: tuple, ops_c: tuple, rates: np.ndarray, dt: float, self_adjoint: bool
) -> np.ndarray:
    """exp(L dt) for the pair of sectors with restricted (H, jumps) ``ops_r``, ``ops_c``.

    A ``self_adjoint`` pair has one sector on rows and columns, so
    its flow maps Hermitian blocks to Hermitian blocks and L is real in the
    Hermitian basis W. Its propagator is then the real exp(W^dagger L W dt),
    which acts on a block's coordinates W^dagger vec(X), not on vec(X).
    """
    l = _liouvillian_block(ops_r[0], ops_c[0], rates, ops_r[1], ops_c[1])
    if not self_adjoint:
        return step_propagator(l, dt)
    r = _real_basis_generator(l, ops_r[0].shape[0])
    del l  # frees the complex buffer before the exponential
    p = step_propagator(r, dt)
    if np.iscomplexobj(p):  # the steps would no longer keep real coordinates real
        raise PropagationError(
            f"Hermiticity deviation {np.max(np.abs(p.imag)):.3e} in a real-basis propagator"
        )
    return p


class _BlockStepper:
    """Holds the state as the sector pairs that are live in ``rho0``.

    A pair (a, b) is the block of rows in sector a and columns in sector b;
    the flow maps each pair into itself, so pairs that start exactly zero
    stay zero and are never built or stepped. Block (b, a) of the Hermitian
    state is block (a, b)^dagger and Phi(X)^dagger = Phi(X^dagger), so each
    unordered pair is stepped once, as (a, b) with a <= b and with its own
    propagator, and its mirror is read as the conjugate.

    The state is one vector, the stepped pairs end to end, and a step is one
    mat-vec per pair on its slice. A diagonal (a, a) pair is its coordinates
    W^dagger vec(X) in the Hermitian basis, real for the Hermitian block of a
    Hermitian state, which the real propagator then keeps exactly Hermitian;
    any other is its F-order vec. Every recorded scalar
    is real and linear in the state, so it is Re(w v) for one weight row w
    (:meth:`weights`).

    Chunked recording (:meth:`chunk`) moves the propagators onto the rows:
    row ``w P^j`` read on the state at grid point i is ``w`` read at i + j, so
    stacking the rows for j < B records B grid points with one product, and
    the pairs with ``P^B`` in place of ``P`` step from one chunk start to the
    next. A real ``P`` has a real ``P^B``, so real coordinates stay real.
    """

    def __init__(
        self, gen: LindbladGenerator, dt: float, sectors: list[np.ndarray], rho0: np.ndarray
    ):
        self.dim = dim = gen.dim
        # (slice of the state vector, flat indices, mirror, Hermitian pairs or None)
        # per stepped pair
        self.pairs = []
        stepped, v0, start = [], [], 0
        for a, b in zip(*np.triu_indices(len(sectors))):
            rows, cols = sectors[a], sectors[b]
            flat = (rows[:, None] * dim + cols[None, :]).reshape(-1, order="F")
            # an (a, a) pair is held as coordinates in the Hermitian basis, any other as the vec
            pairs = _hermitian_pairs(len(rows)) if a == b else None
            block = _mix_pairs(rho0.reshape(-1)[flat], pairs, _W_PAIR.conj().T)
            if not np.any(block != 0):
                continue
            sl = slice(start, start + len(block))
            start = sl.stop
            mirror = None if a == b else (cols[:, None] * dim + rows[None, :]).reshape(-1)
            self.pairs.append((sl, flat, mirror, pairs))
            stepped.append((a, b))
            v0.append(block)
        self.v0 = np.concatenate(v0)
        # built after the pair loop: interleaved with its small allocations, the
        # exponentials' temporaries left about 1 MB more peak RSS at n_tlf=4
        restricted = [(gen.h[np.ix_(s, s)], gen.jump_ops[:, s[:, None], s]) for s in sectors]
        self.props = [
            _block_propagator(restricted[a], restricted[b], gen.rates, dt, self_adjoint=a == b)
            for a, b in stepped
        ]
        self.stats = {
            "sectors": len(sectors),
            "pairs_live": sum(1 if mirror is None else 2 for _, _, mirror, _ in self.pairs),
            "pairs_stepped": len(self.pairs),
            "propagators_real": sum(mirror is None for _, _, mirror, _ in self.pairs),
            "block_dim_max": max(prop.shape[0] for prop in self.props),
        }

    def step(self, v: np.ndarray, props: list | None = None) -> np.ndarray:
        """Apply each pair's propagator (``props`` may swap in their powers)."""
        out = np.empty_like(v)
        for prop, (sl, *_) in zip(self.props if props is None else props, self.pairs):
            # real coordinates take the real propagator, never cast to complex
            np.matmul(prop, v[sl].real if np.isrealobj(prop) else v[sl], out=out[sl])
        return out

    def weights(self, f: np.ndarray) -> np.ndarray:
        """Rows w with sum_ij f[k, i, j] rho[i, j] = Re(w[k] v), for a ``(k, dim, dim)`` stack
        ``f`` with f[k, j, i] = conj(f[k, i, j]): a mirrored block and what ``f`` reads
        there are the conjugates of the pair's, so the pair's row is 2 f."""
        f = f.reshape(len(f), self.dim * self.dim).astype(complex, copy=False)  # mixed in place
        w = np.empty((len(f), len(self.v0)), dtype=complex)
        for sl, flat, mirror, pairs in self.pairs:
            x = f[:, flat]
            w[:, sl] = 2 * x if mirror is not None else _mix_pairs(x, pairs, _W_PAIR.T)
        return w

    def chunk(self, weights: np.ndarray, b: int) -> tuple[np.ndarray, list]:
        """The rows ``R_j = weights P^j`` for ``j < b``, stacked as ``(b * len(weights), n)``,
        and the propagators' powers ``P^b``.

        ``R @ v`` then records the ``b`` grid points from ``v`` on, and one
        :meth:`step` with the powers reaches the next chunk start. ``R_j`` takes
        ``b - 1`` right products per pair. A real ``P`` acts on real coordinates,
        which only the real part of a row reads, so its products are real.
        """
        if b == 1:
            return weights, self.props
        powers = [np.linalg.matrix_power(p, b) for p in self.props]
        rows = np.empty((b, *weights.shape), dtype=complex)
        rows[0] = weights
        for prop, (sl, *_) in zip(self.props, self.pairs):
            x = weights[:, sl].real if np.isrealobj(prop) else weights[:, sl]
            for j in range(1, b):
                x = x @ prop
                rows[j, :, sl] = x
        return rows.reshape(-1, weights.shape[1]), powers

    def assemble(self, v: np.ndarray) -> np.ndarray:
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        for sl, flat, mirror, pairs in self.pairs:
            rho[flat] = _mix_pairs(v[sl].astype(complex), pairs, _W_PAIR)
            if mirror is not None:
                rho[mirror] = rho[flat].conj()
        return rho.reshape(self.dim, self.dim)


# The cost rule's unit is one multiply-add of a real mat-vec, about 0.2-0.35 ns
# with 2-thread OpenBLAS on 256^2 to 1024^2 blocks. A square product's
# multiply-adds run 7-15 times faster (8-13 on most points), as fast right after
# the exponentials as later, since both run in the same BLAS.
_GEMM_GAIN = 8
_ROWS_GAIN = 2  # the same for a product of the 2 to 17 rows, one per recorded scalar
_PASS_COST = 5e5  # the Python of one pass of the step loop (70-150 us)
_ROWS_BYTES = 8 << 20  # the most the stacked recording rows may take


def _chunk_size(stepper: _BlockStepper, n_rows: int, n_steps: int) -> int:
    """The number of grid points B that one pass of the step loop records.

    B divides ``EIG_CHECK_STRIDE``, so every eigenvalue check falls on a chunk
    start. Of those B, this takes the one with the least modelled work: the
    powers ``P^B`` (squarings and products, per pair), the ``B - 1`` right
    products of the ``n_rows`` recording rows per pair, and one mat-vec per
    pair and one Python pass for each chunk and each step of the tail.
    Candidates whose rows would pass ``_ROWS_BYTES`` are left out.
    """
    props = stepper.props
    step = _PASS_COST + sum(p.shape[0] ** 2 * (2 if np.iscomplexobj(p) else 1) for p in props)
    square = sum(p.shape[0] ** 3 * (4 if np.iscomplexobj(p) else 1) for p in props) / _GEMM_GAIN
    rows = sum(n_rows * p.shape[0] ** 2 * (4 if np.iscomplexobj(p) else 1)
               for p in props) / _ROWS_GAIN
    n = len(stepper.v0)

    def cost(b: int) -> float:
        products = b.bit_length() + b.bit_count() - 2  # squarings, then the products
        passes = n_steps // b + n_steps % b
        return products * square + (b - 1) * rows + passes * step

    candidates = [
        b for b in range(1, EIG_CHECK_STRIDE + 1)
        if EIG_CHECK_STRIDE % b == 0 and (b == 1 or b * n_rows * n * 16 <= _ROWS_BYTES)
    ]
    return min(candidates, key=cost)


@dataclass
class Trajectory:
    """Uniformly sampled propagation record."""

    t_grid: np.ndarray
    step: float
    expectations: dict = field(default_factory=dict)
    marginals: np.ndarray | None = None
    final_state: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def _validate_initial_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"initial state shape {rho0.shape} != generator dim {dim}")
    if abs(np.trace(rho0).real - 1.0) > 1e-9 or not is_hermitian(rho0, atol=1e-9):
        raise ValueError("initial state must be Hermitian with unit trace")
    rho0 = 0.5 * (rho0 + dag(rho0))  # exact: mirrored blocks and real coordinates assume it
    return rho0 / np.trace(rho0).real


def _grid_steps(t_end: float, dt: float) -> int:
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"dt={dt} does not divide t_end={t_end} within rounding")
    return n


class _Recorder:
    """A run's recorded scalars and hygiene figures, and the aborts that guard the
    figures. The recorded scalars are real: Re tr(O rho) for each ``record``
    operator O, then the marginal's coordinates W^dagger vec(m)."""

    def __init__(self, n_rec, record, marginal_keep, layout: SubsystemLayout):
        keep = None if marginal_keep is None else sorted(marginal_keep)
        if keep is not None and (not keep or keep != sorted(set(keep) & set(range(layout.n_sites)))):
            raise ValueError(f"marginal_keep {marginal_keep!r} must name distinct sites of "
                             f"0..{layout.n_sites - 1}, at least one")
        self.record, self.keep, self.layout = record or {}, keep, layout
        for key, op in self.record.items():
            if np.shape(op) != (layout.total_dim,) * 2:
                raise ValueError(f"record {key!r} must be a ({layout.total_dim}, "
                                 f"{layout.total_dim}) operator, got shape {np.shape(op)}")
        self.kd = 0 if keep is None else math.prod(layout.dims[k] for k in keep)
        self.pairs = _hermitian_pairs(self.kd)
        self.values = np.empty((n_rec, len(self.record) + self.kd**2))
        self.max_trace_drift, self.max_herm_dev = 0.0, 0.0
        self.min_eigenvalue, self.eig_checks = np.inf, 0

    def functionals(self) -> np.ndarray:
        """The recorded scalars as a ``(k, dim, dim)`` stack f, each sum_ij f[k, i, j] rho[i, j].

        Re tr(O rho) is sum_ij H[j, i] rho[i, j] for O's Hermitian part H; marginal
        entry (x, y) is the sum over the traced sites' index z of rho[(x, z), (y, z)].
        """
        f = [0.5 * (op + dag(op)).T.reshape(-1) for op in map(np.asarray, self.record.values())]
        dim = self.layout.total_dim
        if self.kd:
            order = self.keep + [s for s in range(self.layout.n_sites) if s not in self.keep]
            full = np.arange(dim).reshape(self.layout.dims).transpose(order).reshape(self.kd, -1)
            x = np.arange(self.kd)
            entries = np.zeros((self.kd, self.kd, dim, dim), dtype=complex)
            # (kept x, kept y, traced z): rho[full[x, z], full[y, z]] adds to entry (x, y)
            entries[x[:, None, None], x[None, :, None], full[:, None], full[None, :]] = 1.0
            entries = entries.reshape(self.kd**2, -1)
            # W^dagger on the entries' axis; vec in C order is vec(m^T), m^T Hermitian too
            f += list(_mix_pairs(entries.T, self.pairs, _W_PAIR.conj().T).T)
        return np.array(f, dtype=complex).reshape(-1, dim, dim)

    def take(self, i: int, rho: np.ndarray) -> None:
        """Record from the full state, for the RK4 oracle."""
        values = [np.einsum("ij,ji->", op, rho).real for op in self.record.values()]
        if self.kd:
            marginal = partial_trace(rho, self.keep, self.layout).reshape(-1)
            values += list(_mix_pairs(marginal, self.pairs, _W_PAIR.conj().T).real)
        self.values[i] = values

    def audit_hermiticity(self, herm_dev: float, t: float) -> None:
        """Record a step's Hermiticity deviation; abort past its tolerance (RK4 only:
        the block engine is Hermitian by construction)."""
        self.max_herm_dev = max(self.max_herm_dev, herm_dev)
        if not herm_dev <= HERM_ABORT_TOL:  # a NaN aborts too
            raise PropagationError(
                f"Hermiticity deviation {herm_dev:.3e} at t={t:.6g} exceeds abort tolerance"
            )

    def audit(self, trace, t) -> None:
        """Record the traces of consecutive grid points at times ``t``; abort at the
        earliest whose drift passes its tolerance."""
        drift = np.abs(trace - 1.0)
        worst = float(drift.max(initial=0.0))
        self.max_trace_drift = max(self.max_trace_drift, worst)
        if not worst <= TRACE_ABORT_TOL:  # a NaN aborts too
            drift, t = np.atleast_1d(drift, t)
            j = int(np.argmax(~(drift <= TRACE_ABORT_TOL)))
            raise PropagationError(
                f"trace drift {drift[j]:.3e} at t={t[j]:.6g} exceeds abort tolerance"
            )

    def check_eigs(self, rho: np.ndarray, t: float) -> None:
        w_min = float(np.min(np.linalg.eigvalsh(rho)))
        self.min_eigenvalue = min(self.min_eigenvalue, w_min)
        self.eig_checks += 1
        if w_min < EIG_ABORT_TOL:
            raise PropagationError(
                f"negative population {w_min:.3e} at t={t:.6g} exceeds abort tolerance"
            )

    def trajectory(self, t_grid, step: float, final_state, stats: dict) -> Trajectory:
        n = len(self.record)
        expect = {name: self.values[:, j].copy() for j, name in enumerate(self.record)}
        vec = _mix_pairs(self.values[:, n:].astype(complex), self.pairs, _W_PAIR)  # vec(m) = W c
        return Trajectory(
            t_grid=t_grid,
            step=step,
            expectations=expect,
            marginals=vec.reshape(-1, self.kd, self.kd) if self.kd else None,
            final_state=final_state,
            stats={
                "max_trace_drift": self.max_trace_drift,
                "max_herm_dev": self.max_herm_dev,
                "min_eigenvalue": None if np.isinf(self.min_eigenvalue) else self.min_eigenvalue,
                "eig_checks": self.eig_checks,
                **stats,
            },
        )


def propagate(
    gen: LindbladGenerator,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record: dict | None = None,
    marginal_keep=None,
    method: str = "sector",
) -> Trajectory:
    """Propagate on the grid 0, dt, ..., t_end with a precomputed step map.

    ``record`` maps names to operators O whose expectation values Re tr(O rho)
    are contracted on the fly; ``marginal_keep`` additionally records the
    reduced state on the kept sites of ``gen.layout`` at every grid point.
    Keeping every site records the whole state (memory grows with the grid).
    ``method="sector"`` steps the invariant sector pairs; ``"dense"`` steps
    the whole state as one sector, the oracle of the sector route. The grid
    is recorded in chunks of ``stats["chunk"]`` points (see the module
    docstring); every grid point's trace is audited and the eigenvalue check
    runs at the same grid points whatever the chunk.
    """
    if method not in ("dense", "sector"):
        raise ValueError(f"unknown propagation method {method!r}")
    rho = _validate_initial_state(rho0, gen.dim)
    n_steps = _grid_steps(t_end, dt)
    rec = _Recorder(n_steps + 1, record, marginal_keep, gen.layout)
    sectors = [np.arange(gen.dim)] if method == "dense" else find_invariant_sectors(gen)
    with np.errstate(over="ignore", invalid="ignore"):  # step_propagator refuses inf/NaN
        stepper = _BlockStepper(gen, dt, sectors, rho)
    # the recorded scalars, then the trace
    weights = stepper.weights(np.concatenate([rec.functionals(), np.eye(gen.dim)[None]]))

    t_grid = dt * np.arange(n_steps + 1)
    b = _chunk_size(stepper, len(weights), n_steps)
    chunk_rows, powers = stepper.chunk(weights, b)

    def record(i: int, rows: np.ndarray, v: np.ndarray) -> None:
        """Record grid points i, i + 1, ... from the state v at i, one per block of rows."""
        w = (rows @ v).real.reshape(-1, len(weights))
        trace, t = w[:, -1], t_grid[i : i + len(w)]
        if i % EIG_CHECK_STRIDE == 0:  # the order of one grid point at a time
            rec.audit(trace[:1], t[:1])
            rec.check_eigs(stepper.assemble(v), t[0])
            trace, t = trace[1:], t[1:]
        rec.audit(trace, t)  # Hermitian by construction: only the trace is audited
        rec.values[i : i + len(w)] = w[:, :-1]

    # chunks of b grid points while a whole one fits, then single steps
    v, i = stepper.v0, 0
    for rows, props in ((chunk_rows, powers), (weights, stepper.props)):
        span = len(rows) // len(weights)
        while i + span <= n_steps:
            record(i, rows, v)
            v = stepper.step(v, props)
            i += span
    record(n_steps, weights, v)
    rho = stepper.assemble(v)
    rec.check_eigs(rho, t_grid[-1])
    return rec.trajectory(t_grid, dt, rho, {**stepper.stats, "chunk": b})


def rk4_reference(
    gen: LindbladGenerator,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record: dict | None = None,
    marginal_keep=None,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 integration of the operator-form equation of motion.

    Independent of the vectorized-superoperator route; intended for
    cross-checks and small instances. Column k of the one-step map is the RK4
    step of the basis matrix E_k, taken for all d^2 at once; the map needs
    O(d^4) memory, so this is meant for d <= 16. ``record_every`` thins the
    recording grid to every k-th integration step.
    """
    rho = _validate_initial_state(rho0, gen.dim)
    n_steps = _grid_steps(t_end, dt)
    if record_every < 1 or n_steps % record_every != 0:
        raise ValueError("record_every must divide the number of steps")
    n_rec = n_steps // record_every + 1
    rec = _Recorder(n_rec, record, marginal_keep, gen.layout)
    if gen.norm_bound() * dt > 0.1:
        warnings.warn(
            "RK4 step looks too coarse for this generator (||L|| dt > 0.1)",
            RuntimeWarning,
        )
    # the operator form G rho + rho G^dagger + sum_k J_k rho J_k^dagger, with
    # sqrt(rate_k) folded into the stacked J_k and G = -iH - 1/2 sum_k J_k^dagger J_k
    jumps = np.sqrt(gen.rates)[:, None, None] * gen.jump_ops
    jumps_dag = jumps.conj().transpose(0, 2, 1)
    g = -1j * gen.h - 0.5 * (jumps_dag @ jumps).sum(axis=0)
    g_dag = dag(g)

    def rhs(r: np.ndarray) -> np.ndarray:  # on a (n, d, d) stack, one jump at a time
        return g @ r + r @ g_dag + sum(j @ r @ j_dag for j, j_dag in zip(jumps, jumps_dag))

    d = gen.dim
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    k1 = rhs(basis)
    k2 = rhs(basis + 0.5 * dt * k1)
    k3 = rhs(basis + 0.5 * dt * k2)
    k4 = rhs(basis + dt * k3)
    step = (basis + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(d * d, d * d).T

    t_grid = (dt * record_every) * np.arange(n_rec)
    rec.take(0, rho)
    rec.check_eigs(rho, 0.0)
    for i in range(1, n_steps + 1):
        rho = (step @ rho.reshape(-1)).reshape(d, d)
        rec.audit_hermiticity(float(np.max(np.abs(rho - dag(rho)))), i * dt)
        rec.audit(np.trace(rho).real, i * dt)
        if i % record_every == 0:
            rec.take(i // record_every, rho)
    rec.check_eigs(rho, t_end)
    return rec.trajectory(t_grid, dt * record_every, rho, {})
