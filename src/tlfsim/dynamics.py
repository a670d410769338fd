"""Lindblad propagation on a uniform time grid.

The generator is held as a Hamiltonian plus (rate, jump operator) pairs.
Two independent evaluation routes are provided and cross-validated in the
test suite:

* a vectorized superoperator (column stacking) whose exponential is computed
  once per (generator, step) and applied repeatedly. When H and every jump
  share a block structure, the state splits into sector pairs (row sector,
  column sector), each mapped into itself by the flow, and the exponential
  is taken per pair of sector classes (sectors whose restricted H and jumps
  agree). Block Liouvillians are assembled from the effective Hamiltonians
  G = -iH - 1/2 sum_k rate_k J_k^dagger J_k, and a (c, c) pair is stepped in
  real arithmetic in a Hermitian basis. :class:`_BlockStepper` holds the
  state as its distinct block evolutions and records every observable as a
  linear functional of them; the full state is assembled only for the
  strided eigenvalue check, the final state and ``keep_states``.
  This is ``method="sector"``, the default; ``method="dense"`` takes the
  one-sector route through the same engine and is its oracle;
* a classic fixed-step fourth-order Runge-Kutta integrator on the operator
  form of the equation of motion, recording from the full state, kept as an
  independent oracle.

The initial state is Hermitized and normalized once; nothing repairs it after.
The block engine is Hermitian by construction (a complex real-basis propagator
is refused at build, so ``max_herm_dev`` is 0) and audits the trace each step
as one more recorded functional; RK4 audits and symmetrizes its full state.
Positivity is never enforced, only checked every ``EIG_CHECK_STRIDE`` steps
and at the end. ``Trajectory.stats`` carries these hygiene figures and, from
:func:`propagate`, the engine's counters: ``sectors``, ``pairs_live``,
``pairs_stepped`` (unordered pairs), ``evolutions`` (the stepped state slices),
``propagators`` built, ``propagators_real`` (those taken in the real basis)
and ``block_dim_max`` (the largest block Liouvillian's dimension).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .linalg import SubsystemLayout, dag, expm, is_hermitian, partial_trace

TRACE_ABORT_TOL = 1e-6
HERM_ABORT_TOL = 1e-6
EIG_ABORT_TOL = -1e-5
EIG_CHECK_STRIDE = 100  # steps between full-state eigenvalue checks


class PropagationError(RuntimeError):
    """A state invariant passed its abort tolerance, in propagation or in an observable."""


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
    Hermitian basis W. Its propagator is then the real exp(W^dagger L W dt),
    which acts on a block's coordinates W^dagger vec(X), not on vec(X).
    """
    l = _liouvillian_block(ops_r[0], ops_c[0], rates, ops_r[1], ops_c[1])
    if not self_adjoint:
        return step_propagator(l, dt)
    w = _hermitian_basis(ops_r[0].shape[0])
    r = w.conj().T @ l @ w
    del l
    imag = np.max(np.abs(r.imag))
    if imag > _REAL_BASIS_TOL * np.max(np.abs(r)):
        raise PropagationError(
            f"self-adjoint block is not real in the Hermitian basis (|Im| up to {imag:.3e})"
        )
    r = r.real.copy()  # frees the complex buffer before the exponential
    p = step_propagator(r, dt)
    if np.iscomplexobj(p):  # the steps would no longer keep real coordinates real
        raise PropagationError(
            f"Hermiticity deviation {np.max(np.abs(p.imag)):.3e} in a real-basis propagator"
        )
    return p


class _BlockStepper:
    """Holds the state as the distinct block evolutions that are live in ``rho0``.

    A pair (a, b) is the block of rows in sector a and columns in sector b;
    the flow maps each pair into itself, so pairs that start exactly zero
    stay zero and are never built or stepped. Sectors whose restricted H and
    jumps agree share a class, and a pair's propagator depends only on its
    pair of classes. Block (b, a) of the Hermitian state is block (a, b)^dagger
    and Phi(X)^dagger = Phi(X^dagger), so each unordered pair is stepped once,
    oriented so that its classes run (c1, c2) with c1 <= c2, and its mirror
    is read as the conjugate. Pairs of one class pair whose initial blocks are
    byte-identical share one evolution (under |++> every block is rho_tlf / 4).

    The state is one vector, the evolutions end to end, and a step is one
    mat-vec per evolution on its slice. A (c, c) evolution is its coordinates
    W^dagger vec(X) in the Hermitian basis, real for a Hermitian block, which
    the real propagator then keeps exactly Hermitian (complex coordinates take
    a second real mat-vec); any other is its F-order vec. Every recorded scalar
    is linear in the state, so it is one weight row on the vector plus one on
    its conjugate (:meth:`weights`).
    """

    def __init__(
        self, gen: LindbladGenerator, dt: float, sectors: list[np.ndarray], rho0: np.ndarray
    ):
        self.dim = dim = gen.dim
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

        slices: dict[tuple, slice] = {}  # (c1, c2, initial coordinates) -> its evolution's
        evolutions = []  # (class pair, slice of the state vector, complex (c, c) coordinates)
        self.pairs = []  # (slice, flat indices, mirror, basis) of every stepped pair
        v0 = []
        for a, b in zip(*np.triu_indices(len(sectors))):
            if classes[a] > classes[b]:
                a, b = b, a
            rows, cols, c = sectors[a], sectors[b], (classes[a], classes[b])
            flat = (rows[:, None] * dim + cols[None, :]).reshape(-1, order="F")
            same = c[0] == c[1]  # held as coordinates in the Hermitian basis, else as the vec
            basis = _hermitian_basis(len(rows)) if same else scipy.sparse.eye_array(len(flat))
            block = basis.conj().T @ rho0.reshape(-1)[flat]
            if not np.any(block != 0):
                continue
            key = (*c, block.tobytes())
            if key not in slices:
                start = sum(map(len, v0))
                slices[key] = slice(start, start + len(block))
                evolutions.append((c, slices[key], same and np.any(block.imag)))
                v0.append(block)
            sl = slices[key]
            mirror = None if a == b else (cols[:, None] * dim + rows[None, :]).reshape(-1)
            self.pairs.append((sl, flat, mirror, basis))
        self.v0 = np.concatenate(v0)
        # built after the pair loop: interleaved with its small allocations, the
        # exponentials' temporaries left about 1 MB more peak RSS at n_tlf=4
        props = {
            (c1, c2): _block_propagator(
                restricted[reps[c1]], restricted[reps[c2]], rates, dt, self_adjoint=c1 == c2
            )
            for c1, c2 in dict.fromkeys(c for c, _, _ in evolutions)
        }
        self.evolutions = [(props[c], sl, imag) for c, sl, imag in evolutions]
        self.stats = {
            "sectors": len(sectors),
            "pairs_live": sum(1 if mirror is None else 2 for _, _, mirror, _ in self.pairs),
            "pairs_stepped": len(self.pairs),
            "evolutions": len(self.evolutions),
            "propagators": len(props),
            "propagators_real": sum(c1 == c2 for c1, c2 in props),
            "block_dim_max": max(prop.shape[0] for prop in props.values()),
        }

    def step(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for prop, sl, imag in self.evolutions:
            np.matmul(prop, v[sl].real if np.isrealobj(prop) else v[sl], out=out[sl])
            if imag:  # never cast a real propagator to complex
                np.matmul(prop, v[sl].imag, out=out[sl].imag)
        return out

    def weights(self, f: np.ndarray) -> np.ndarray:
        """Rows ``(a; b)`` with sum_ij f[k, i, j] rho[i, j] = a[k] v + conj(b[k] v),
        for a ``(k, dim, dim)`` stack ``f``; ``b`` reads the mirrored blocks."""
        f = f.reshape(len(f), self.dim * self.dim)
        w = np.zeros((2, len(f), len(self.v0)), dtype=complex)
        for sl, flat, mirror, basis in self.pairs:
            w[0][:, sl] += f[:, flat] @ basis
            if mirror is not None:
                w[1][:, sl] += f[:, mirror].conj() @ basis
        return w.reshape(2 * len(f), len(self.v0))

    def assemble(self, v: np.ndarray) -> np.ndarray:
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        for sl, flat, mirror, basis in self.pairs:
            rho[flat] = basis @ v[sl]
            if mirror is not None:
                rho[mirror] = rho[flat].conj()
        return rho.reshape(self.dim, self.dim)


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
    """A run's recorded scalars, kept states and hygiene figures, and the aborts
    that guard the figures. The recorded scalars are the expectation of each
    ``record`` operator, then the marginal's entries in C order."""

    def __init__(self, n_rec, record, marginal_keep, layout, keep_states, dim):
        self.record, self.keep, self.layout, self.dim = record or {}, marginal_keep, layout, dim
        self.kd = 0
        if marginal_keep is not None:
            if layout is None:
                raise ValueError("marginal recording requires a layout")
            self.kd = int(np.prod([layout.dims[k] for k in marginal_keep]))
        self.values = np.empty((n_rec, len(self.record) + self.kd**2), dtype=complex)
        self.states = np.empty((n_rec, dim, dim), dtype=complex) if keep_states else None
        self.max_trace_drift, self.max_herm_dev = 0.0, 0.0
        self.min_eigenvalue, self.eig_checks = np.inf, 0

    def functionals(self) -> np.ndarray:
        """The recorded scalars as a ``(k, dim, dim)`` stack f, each sum_ij f[k, i, j] rho[i, j].

        tr(O rho) is sum_ij O[j, i] rho[i, j]; marginal entry (x, y) is the
        sum over the traced sites' index z of rho[(x, z), (y, z)].
        """
        f = [np.asarray(op, dtype=complex).T for op in self.record.values()]
        if self.kd:
            keep = sorted(set(self.keep))
            order = keep + [s for s in range(self.layout.n_sites) if s not in keep]
            dim = self.layout.total_dim
            full = np.arange(dim).reshape(self.layout.dims).transpose(order).reshape(self.kd, -1)
            one_hot = np.eye(dim)[full]  # (kept x, traced z, full index)
            f += list(np.einsum("xzi,yzj->xyij", one_hot, one_hot).reshape(-1, dim, dim))
        return np.array(f, dtype=complex).reshape(-1, self.dim, self.dim)

    def take(self, i: int, rho: np.ndarray) -> None:
        """Record from the full state, for the RK4 oracle."""
        values = [np.einsum("ij,ji->", op, rho) for op in self.record.values()]
        if self.kd:
            values += list(partial_trace(rho, self.keep, self.layout).reshape(-1))
        self.values[i] = values
        if self.states is not None:
            self.states[i] = rho

    def audit(self, herm_dev: float, trace: float, t: float) -> None:
        """Record a step's Hermiticity deviation and trace; abort on either, in that order."""
        self.max_herm_dev = max(self.max_herm_dev, herm_dev)
        if not herm_dev <= HERM_ABORT_TOL:  # a NaN aborts too
            raise PropagationError(
                f"Hermiticity deviation {herm_dev:.3e} at t={t:.6g} exceeds abort tolerance"
            )
        drift = abs(trace - 1.0)
        self.max_trace_drift = max(self.max_trace_drift, drift)
        if not drift <= TRACE_ABORT_TOL:
            raise PropagationError(
                f"trace drift {drift:.3e} at t={t:.6g} exceeds abort tolerance"
            )

    def hygiene(self, rho: np.ndarray, t: float) -> np.ndarray:
        """Audit the full state and symmetrize it, for the RK4 oracle."""
        herm_dev = float(np.max(np.abs(rho - dag(rho))))
        rho = 0.5 * (rho + dag(rho))
        self.audit(herm_dev, np.trace(rho).real, t)
        return rho

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
        expect = {name: self.values[:, j].real.copy() for j, name in enumerate(self.record)}
        return Trajectory(
            t_grid=t_grid,
            step=step,
            expectations=expect,
            marginals=self.values[:, n:].reshape(-1, self.kd, self.kd) if self.kd else None,
            states=self.states,
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
    with np.errstate(over="ignore", invalid="ignore"):  # step_propagator refuses inf/NaN
        stepper = _BlockStepper(gen, dt, sectors, rho)
    rec = _Recorder(n_steps + 1, record, marginal_keep, layout, keep_states, gen.dim)
    # the recorded scalars, then the trace
    weights = stepper.weights(np.concatenate([rec.functionals(), np.eye(gen.dim)[None]]))
    k = len(weights) // 2

    t_grid = dt * np.arange(n_steps + 1)
    v = stepper.v0
    for i in range(n_steps + 1):
        if i:
            v = stepper.step(v)
        w = weights @ v
        w = w[:k] + w[k:].conj()
        rec.audit(0.0, w[-1].real, t_grid[i])  # Hermitian by construction
        rec.values[i] = w[:-1]
        if keep_states:
            rec.states[i] = stepper.assemble(v)
        if i % EIG_CHECK_STRIDE == 0:
            rec.check_eigs(stepper.assemble(v), t_grid[i])
    rho = stepper.assemble(v)
    rec.check_eigs(rho, t_grid[-1])
    return rec.trajectory(t_grid, dt, rho, stepper.stats)


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
    return rec.trajectory(t_grid, dt * record_every, rho, {})
