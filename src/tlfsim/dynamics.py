"""Lindblad propagation on a uniform time grid.

The generator is held as a Hamiltonian plus (rate, jump operator) pairs.
Two independent evaluation routes are provided and cross-validated in the
test suite:

* a vectorized superoperator (column-stacking convention) whose matrix
  exponential is computed once per (generator, step) and then applied
  repeatedly. When the Hamiltonian and every jump operator share a common
  block structure, the state splits into sector pairs (row sector, column
  sector), each mapped into itself by the flow, and the exponential is
  taken per pair; this is algebraically identical and much cheaper. Only
  pairs that are nonzero in the initial state are built and stepped (the
  rest stay exactly zero). Sectors whose restricted H and jumps agree to a
  few ulps form a class, and one propagator serves every pair with the
  same pair of classes. Block (b, a) of the state (Hermitized on entry)
  stays the adjoint of block (a, b): each unordered pair is stepped once
  and mirrored. Each block Liouvillian is assembled from the
  effective Hamiltonians G = -iH - 1/2 sum_k rate_k J_k^dagger J_k of its
  row and column sectors, L = I kron G_row + conj(G_col) kron I +
  sum_k rate_k conj(J_col,k) kron J_row,k. A (c, c) pair has the same
  operators on both sides, so its flow preserves Hermiticity and L is real
  in an orthonormal Hermitian basis; its exponential is taken there in real
  arithmetic and mapped back. This is ``method="sector"``, the default;
  ``method="dense"`` takes the one-sector route through the same engine and
  is the sector route's oracle;
* a classic fixed-step fourth-order Runge-Kutta integrator acting on the
  operator form of the equation of motion, kept as an independent oracle.

Recorded states are lightly repaired each step (re-Hermitized, and trace
renormalized only when the drift is within the repair tolerance); positivity
is never enforced here, only checked every ``EIG_CHECK_STRIDE`` steps and at
the end. ``Trajectory.stats`` carries these hygiene figures
and, from :func:`propagate`, the engine's counters: ``sectors``,
``pairs_live``, ``pairs_stepped``, ``propagators`` built, ``propagators_real``
(those taken in the real basis) and ``block_dim_max`` (the largest block
Liouvillian's dimension).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .linalg import SubsystemLayout, dag, expm, is_hermitian, partial_trace

TRACE_REPAIR_TOL = 1e-9
TRACE_ABORT_TOL = 1e-6
HERM_ABORT_TOL = 1e-6
EIG_ABORT_TOL = -1e-5
EIG_CHECK_STRIDE = 100  # steps between full-state eigenvalue checks


class PropagationError(RuntimeError):
    """State invariants broke down beyond repair, in propagation or in an observable."""


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian plus weighted jump operators on one Hilbert space."""

    h: np.ndarray
    jumps: list  # (rate, operator) pairs

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        dim = h.shape[0]
        if not is_hermitian(h):
            raise ValueError("Hamiltonian is not Hermitian")
        cleaned = []
        for rate, op in self.jumps:
            if rate < 0:
                raise ValueError("jump rates must be non-negative")
            op = np.asarray(op, dtype=complex)
            if op.shape != (dim, dim):
                raise ValueError("jump operator dimension mismatch")
            cleaned.append((float(rate), op))
        object.__setattr__(self, "jumps", cleaned)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @classmethod
    def from_system(cls, ops) -> "LindbladGenerator":
        return cls(h=ops.hamiltonian, jumps=list(ops.jumps))

    def norm_bound(self) -> float:
        """Cheap upper bound on the superoperator spectral norm."""
        bound = 2.0 * np.linalg.norm(self.h, 2)
        for rate, op in self.jumps:
            bound += 2.0 * rate * np.linalg.norm(op, 2) ** 2
        return float(bound)


def _effective_hamiltonian(h: np.ndarray, rates: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """G = -iH - 1/2 sum_k rate_k J_k^dagger J_k, with the jumps stacked on axis 0."""
    return -1j * h - 0.5 * np.einsum("k,kji,kjl->il", rates, jumps.conj(), jumps)


def _liouvillian_block(h_row, h_col, rates, jumps_row, jumps_col) -> np.ndarray:
    """Generator of d/dt rho_block for one (row sector, column sector) pair.

    With column stacking, vec(A X B) = (B^T kron A) vec(X), so

        L = I kron G_row + conj(G_col) kron I + sum_k rate_k conj(J_col,k) kron J_row,k

    with G the effective Hamiltonians of the two sectors and the jumps
    stacked as ``(k, n, n)``. L is written through its ``(nc, nr, nc, nr)``
    view: the jump terms in one contraction, the two Kronecker sums added
    along the diagonal index pairs.
    """
    nr, nc = h_row.shape[0], h_col.shape[0]
    l = np.empty((nc * nr, nc * nr), dtype=complex)
    l4 = l.reshape(nc, nr, nc, nr)
    weighted = rates[:, None, None] * jumps_col.conj()
    # not through BLAS: numpy's OpenBLAS threads would then spin against
    # scipy's during the exponential that follows (2x slower on 2 cores)
    np.einsum("kab,kij->aibj", weighted, jumps_row, out=l4)
    ic, ir = np.arange(nc), np.arange(nr)
    l4[ic, :, ic, :] += _effective_hamiltonian(h_row, rates, jumps_row)
    l4[:, ir, :, ir] += _effective_hamiltonian(h_col, rates, jumps_col).conj()
    return l


def _stack_jumps(gen: LindbladGenerator) -> tuple[np.ndarray, np.ndarray]:
    """Rates and jump operators of ``gen`` as arrays of shape (k,) and (k, dim, dim)."""
    rates = np.array([rate for rate, _ in gen.jumps], dtype=float)
    ops = np.array([op for _, op in gen.jumps], dtype=complex).reshape(-1, gen.dim, gen.dim)
    return rates, ops


def build_liouvillian(gen: LindbladGenerator) -> np.ndarray:
    """Dense superoperator L with vec(rho') = L vec(rho), column stacking."""
    rates, ops = _stack_jumps(gen)
    return _liouvillian_block(gen.h, gen.h, rates, ops, ops)


def step_propagator(l: np.ndarray, dt: float) -> np.ndarray:
    """exp(L dt), for repeated application on a uniform grid."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return expm(l * dt)


def find_invariant_sectors(gen: LindbladGenerator) -> list[np.ndarray]:
    """Basis partition into sectors preserved by H and every jump operator.

    Two basis indices belong to the same sector when any operator connects
    them; the returned index arrays are sorted and cover the whole space.
    A single sector means no usable block structure.
    """
    pattern = gen.h != 0
    for _, op in gen.jumps:
        pattern = pattern | (op != 0)
    pattern = pattern | pattern.T
    graph = scipy.sparse.csr_matrix(pattern)
    n_comp, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    return [np.nonzero(labels == c)[0] for c in range(n_comp)]


_CLASS_ULPS = 8  # identical sectors assembled in another term order differ by ~2 ulps


def _same_dynamics(a: tuple, b: tuple) -> bool:
    """Whether two sectors' restricted (H, jumps) agree to a few ulps of each block."""
    (h_a, j_a), (h_b, j_b) = a, b
    if h_a.shape != h_b.shape:
        return False
    for x, y in zip([h_a, *j_a], [h_b, *j_b]):
        scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
        if np.max(np.abs(x - y)) > _CLASS_ULPS * np.finfo(float).eps * scale:
            return False
    return True


_REAL_BASIS_TOL = 1e-12  # largest |Im| of W^dagger L W, relative to its largest entry


def _hermitian_basis(n: int) -> scipy.sparse.csr_array:
    """Unitary W whose columns are vec of an orthonormal Hermitian basis of n x n matrices.

    The basis is E_ii, then (E_ij + E_ji)/sqrt(2), then i(E_ij - E_ji)/sqrt(2)
    for i < j; vec is column stacking, so E_ij sits at i + j n.
    """
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    ij, ji = i + j * n, j + i * n
    sym = n + np.arange(len(i))
    asym = sym + len(i)
    s = np.sqrt(0.5)
    rows = np.concatenate([d * (n + 1), ij, ji, ij, ji])
    cols = np.concatenate([d, sym, sym, asym, asym])
    vals = np.concatenate(
        [np.ones(n), np.full(2 * len(i), s), np.full(len(i), 1j * s), np.full(len(i), -1j * s)]
    )
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n * n, n * n))


def _block_propagator(
    ops_r: tuple, ops_c: tuple, rates: np.ndarray, dt: float, self_adjoint: bool
) -> np.ndarray:
    """exp(L dt) for the pair of sector classes with restricted (H, jumps) ``ops_r``, ``ops_c``.

    A ``self_adjoint`` pair has the same operators on rows and columns, so
    its flow maps Hermitian blocks to Hermitian blocks and L is real in the
    Hermitian basis W: exp(L dt) = W exp(W^dagger L W dt) W^dagger, with a
    real exponential.
    """
    l = _liouvillian_block(ops_r[0], ops_c[0], rates, ops_r[1], ops_c[1])
    if not self_adjoint:
        return step_propagator(l, dt)
    w = _hermitian_basis(ops_r[0].shape[0])
    w_dag = w.conj().T
    r = w_dag @ l @ w
    del l
    imag = np.max(np.abs(r.imag))
    if imag > _REAL_BASIS_TOL * np.max(np.abs(r)):
        raise PropagationError(
            f"self-adjoint block is not real in the Hermitian basis (|Im| up to {imag:.3e})"
        )
    r = r.real.copy()  # frees the complex buffer before the exponential
    return w @ step_propagator(r, dt) @ w_dag


class _BlockStepper:
    """Applies exp(L dt) over the sector pairs that are live in ``rho0``.

    A pair (a, b) is the block of rows in sector a and columns in sector b;
    the flow maps each pair into itself, so pairs that start exactly zero
    stay zero and are never built or stepped. Sectors whose restricted H and
    jumps agree share a class, and a pair's propagator depends only on its
    pair of classes. Block (b, a) of the Hermitian state is block (a, b)^dagger
    and Phi(X)^dagger = Phi(X^dagger), so each unordered pair is stepped once,
    oriented so that its classes run (c1, c2) with c1 <= c2, and its mirror
    is written as the conjugate: (c2, c1) is never built.

    Each step is, per stepped pair, one gather of the block's F-order vec
    through precomputed flat indices, one mat-vec, one scatter back through
    the same indices and, off the diagonal, one conjugate scatter into the
    mirror's C-order indices. (One matrix product per propagator over its
    pairs' stacked columns measured slower for two-column propagators, the
    common case under Bell inputs and the XX+YY gate.)
    """

    def __init__(
        self, gen: LindbladGenerator, dt: float, sectors: list[np.ndarray], rho0: np.ndarray
    ):
        dim = gen.dim
        rates, jumps = _stack_jumps(gen)
        restricted = [(gen.h[np.ix_(s, s)], jumps[:, s[:, None], s]) for s in sectors]
        reps: list[int] = []  # first sector of each class
        classes: list[int] = []
        for a, ops in enumerate(restricted):
            for c, r in enumerate(reps):
                if _same_dynamics(restricted[r], ops):
                    classes.append(c)
                    break
            else:
                classes.append(len(reps))
                reps.append(a)

        users: dict[tuple[int, int], list] = {}  # class pair -> (flat indices, mirror)
        for a, b in zip(*np.triu_indices(len(sectors))):
            if classes[a] > classes[b]:
                a, b = b, a
            rows, cols = sectors[a], sectors[b]
            if not np.any(rho0[np.ix_(rows, cols)] != 0):
                continue
            flat = (rows[:, None] * dim + cols[None, :]).reshape(-1, order="F")
            mirror = None if a == b else (cols[:, None] * dim + rows[None, :]).reshape(-1)
            users.setdefault((classes[a], classes[b]), []).append((flat, mirror))

        self.pairs = []  # (propagator, flat indices, mirror), grouped by propagator
        for (c1, c2), pairs in users.items():
            ops_r, ops_c = restricted[reps[c1]], restricted[reps[c2]]
            prop = _block_propagator(ops_r, ops_c, rates, dt, self_adjoint=c1 == c2)
            self.pairs += [(prop, idx, mirror) for idx, mirror in pairs]
        self.stats = {
            "sectors": len(sectors),
            "pairs_live": sum(1 if mirror is None else 2 for _, _, mirror in self.pairs),
            "pairs_stepped": len(self.pairs),
            "propagators": len(users),
            "propagators_real": sum(c1 == c2 for c1, c2 in users),
            "block_dim_max": max(prop.shape[0] for prop, _, _ in self.pairs),
        }

    def step(self, rho: np.ndarray) -> np.ndarray:
        flat = rho.reshape(-1)
        out = np.zeros_like(flat)
        for prop, idx, mirror in self.pairs:
            y = prop @ flat[idx]
            out[idx] = y
            if mirror is not None:
                out[mirror] = y.conj()
        return out.reshape(rho.shape)


@dataclass
class Trajectory:
    """Uniformly sampled propagation record."""

    t_grid: np.ndarray
    step: float
    expectations: dict = field(default_factory=dict)
    marginals: np.ndarray | None = None
    states: np.ndarray | None = None
    final_state: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def _validate_initial_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"initial state shape {rho0.shape} != generator dim {dim}")
    if abs(np.trace(rho0).real - 1.0) > 1e-9 or not is_hermitian(rho0, atol=1e-9):
        raise ValueError("initial state must be Hermitian with unit trace")
    return 0.5 * (rho0 + dag(rho0))  # exact, as the stepper's mirrored blocks assume


def _grid_steps(t_end: float, dt: float) -> int:
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"dt={dt} does not divide t_end={t_end} within rounding")
    return n


class _Recorder:
    """Per-step observable contraction and state hygiene bookkeeping."""

    def __init__(self, n_rec, record, marginal_keep, layout, keep_states, dim):
        self.record = record or {}
        self.expect = {name: np.empty(n_rec) for name in self.record}
        self.marginal_keep = marginal_keep
        self.layout = layout
        if marginal_keep is not None:
            if layout is None:
                raise ValueError("marginal recording requires a layout")
            kd = int(np.prod([layout.dims[k] for k in marginal_keep]))
            self.marginals = np.empty((n_rec, kd, kd), dtype=complex)
        else:
            self.marginals = None
        self.states = np.empty((n_rec, dim, dim), dtype=complex) if keep_states else None
        self.max_trace_drift = 0.0
        self.max_herm_dev = 0.0
        self.min_eigenvalue = np.inf
        self.eig_checks = 0

    def take(self, i: int, rho: np.ndarray) -> None:
        for name, op in self.record.items():
            self.expect[name][i] = np.einsum("ij,ji->", op, rho).real
        if self.marginals is not None:
            self.marginals[i] = partial_trace(rho, self.marginal_keep, self.layout)
        if self.states is not None:
            self.states[i] = rho

    def check_eigs(self, rho: np.ndarray, t: float) -> None:
        w_min = float(np.min(np.linalg.eigvalsh(rho)))
        self.min_eigenvalue = min(self.min_eigenvalue, w_min)
        self.eig_checks += 1
        if w_min < EIG_ABORT_TOL:
            raise PropagationError(
                f"negative population {w_min:.3e} at t={t:.6g} exceeds abort tolerance"
            )

    def hygiene(self, rho: np.ndarray, t: float) -> np.ndarray:
        herm_dev = float(np.max(np.abs(rho - dag(rho))))
        self.max_herm_dev = max(self.max_herm_dev, herm_dev)
        if herm_dev > HERM_ABORT_TOL:
            raise PropagationError(
                f"Hermiticity deviation {herm_dev:.3e} at t={t:.6g} exceeds abort tolerance"
            )
        rho = 0.5 * (rho + dag(rho))
        drift = abs(np.trace(rho).real - 1.0)
        self.max_trace_drift = max(self.max_trace_drift, drift)
        if drift > TRACE_ABORT_TOL:
            raise PropagationError(
                f"trace drift {drift:.3e} at t={t:.6g} exceeds abort tolerance"
            )
        if drift <= TRACE_REPAIR_TOL:
            rho = rho / np.trace(rho).real
        return rho

    def stats(self) -> dict:
        return {
            "max_trace_drift": self.max_trace_drift,
            "max_herm_dev": self.max_herm_dev,
            "min_eigenvalue": None if np.isinf(self.min_eigenvalue) else self.min_eigenvalue,
            "eig_checks": self.eig_checks,
        }


def propagate(
    gen: LindbladGenerator,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record: dict | None = None,
    marginal_keep=None,
    layout: SubsystemLayout | None = None,
    keep_states: bool = False,
    method: str = "sector",
) -> Trajectory:
    """Propagate on the grid 0, dt, ..., t_end with a precomputed step map.

    ``record`` maps names to Hermitian operators whose expectation values are
    contracted on the fly; ``marginal_keep`` (with ``layout``) additionally
    records the reduced state on the kept sites at every grid point. Full
    states are retained only on request (memory grows with the grid).
    ``method="sector"`` steps the invariant sector pairs; ``"dense"`` steps
    the whole state as one sector, the oracle of the sector route.
    """
    if method not in ("dense", "sector"):
        raise ValueError(f"unknown propagation method {method!r}")
    rho = _validate_initial_state(rho0, gen.dim)
    n_steps = _grid_steps(t_end, dt)
    sectors = [np.arange(gen.dim)] if method == "dense" else find_invariant_sectors(gen)
    stepper = _BlockStepper(gen, dt, sectors, rho)

    rec = _Recorder(n_steps + 1, record, marginal_keep, layout, keep_states, gen.dim)
    t_grid = dt * np.arange(n_steps + 1)
    for i in range(n_steps + 1):
        rec.take(i, rho)
        if i % EIG_CHECK_STRIDE == 0:
            rec.check_eigs(rho, t_grid[i])
        if i < n_steps:
            rho = stepper.step(rho)
            rho = rec.hygiene(rho, t_grid[i + 1])
    rec.check_eigs(rho, t_grid[-1])

    return Trajectory(
        t_grid=t_grid,
        step=dt,
        expectations=rec.expect,
        marginals=rec.marginals,
        states=rec.states,
        final_state=rho,
        stats={**rec.stats(), **stepper.stats},
    )


def rk4_reference(
    gen: LindbladGenerator,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record: dict | None = None,
    marginal_keep=None,
    layout: SubsystemLayout | None = None,
    keep_states: bool = False,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step RK4 integration of the operator-form equation of motion.

    Independent of the vectorized-superoperator route; intended for
    cross-checks and small instances. ``record_every`` thins the recording
    grid to every k-th integration step.
    """
    rho = _validate_initial_state(rho0, gen.dim)
    n_steps = _grid_steps(t_end, dt)
    if record_every < 1 or n_steps % record_every != 0:
        raise ValueError("record_every must divide the number of steps")
    if gen.norm_bound() * dt > 0.1:
        warnings.warn(
            "RK4 step looks too coarse for this generator (||L|| dt > 0.1)",
            RuntimeWarning,
        )
    # the operator form G rho + rho G^dagger + sum_k J_k rho J_k^dagger, with
    # sqrt(rate_k) folded into the stacked J_k and G = -iH - 1/2 sum_k J_k^dagger J_k
    jumps = np.array([np.sqrt(rate) * op for rate, op in gen.jumps], dtype=complex)
    jumps = jumps.reshape(-1, gen.dim, gen.dim)
    jumps_dag = jumps.conj().transpose(0, 2, 1)
    g = -1j * gen.h - 0.5 * (jumps_dag @ jumps).sum(axis=0)
    g_dag = dag(g)

    def rhs(r: np.ndarray) -> np.ndarray:
        return g @ r + r @ g_dag + (jumps @ r @ jumps_dag).sum(axis=0)

    n_rec = n_steps // record_every + 1
    rec = _Recorder(n_rec, record, marginal_keep, layout, keep_states, gen.dim)
    t_grid = (dt * record_every) * np.arange(n_rec)
    rec.take(0, rho)
    rec.check_eigs(rho, 0.0)
    for i in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = rec.hygiene(rho, i * dt)
        if i % record_every == 0:
            rec.take(i // record_every, rho)
    rec.check_eigs(rho, t_end)

    return Trajectory(
        t_grid=t_grid,
        step=dt * record_every,
        expectations=rec.expect,
        marginals=rec.marginals,
        states=rec.states,
        final_state=rho,
        stats=rec.stats(),
    )
