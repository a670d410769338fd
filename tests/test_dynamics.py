import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy import kron

from tlfsim.linalg import (
    I2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SubsystemLayout,
    embed,
    expm,
    partial_trace,
)
from tlfsim import dynamics
from tlfsim.dynamics import (
    LindbladGenerator,
    PropagationError,
    _block_propagator,
    _W_PAIR,
    _BlockStepper,
    _hermitian_pairs,
    _liouvillian_block,
    _mix_pairs,
    _real_basis_generator,
    build_liouvillian,
    find_invariant_sectors,
    propagate,
    rk4_reference,
    step_propagator,
)
from tlfsim.model import (
    PROBE_STATES,
    ModelConfig,
    add_gate,
    build_operators,
    initial_state,
    sample_ensemble,
    tlf_ground_state,
)

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def vec(m):
    """Column stacking, the convention of tlfsim.dynamics."""
    return np.asarray(m).reshape(-1, order="F")


def damping_generator(rate=1.0):
    return LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_MINUS)])


def random_two_qubit_generator(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    j1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return LindbladGenerator(h=h, jumps=[(0.3, j1), (0.1, kron(SIGMA_Z, I2))])


def kron_liouvillian_block(h_row, h_col, jumps_row_col):
    """Oracle: the block Liouvillian summed term by term from identity Kronecker products."""
    nr, nc = h_row.shape[0], h_col.shape[0]
    ir = np.eye(nr, dtype=complex)
    ic = np.eye(nc, dtype=complex)
    l = -1j * (np.kron(ic, h_row) - np.kron(h_col.T, ir))
    for rate, j_row, j_col in jumps_row_col:
        k_row = j_row.conj().T @ j_row
        k_col = j_col.conj().T @ j_col
        l += rate * (
            np.kron(j_col.conj(), j_row)
            - 0.5 * np.kron(ic, k_row)
            - 0.5 * np.kron(k_col.T, ir)
        )
    return l


def dense_hermitian_basis(n):
    """Oracle: the unitary W, column by column, in vec order: E_ii at i + i n, and for
    i < j (E_ij + E_ji)/sqrt(2) at i + j n and i(E_ij - E_ji)/sqrt(2) at j + i n."""
    s = np.sqrt(0.5)
    w = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            lo, hi = min(i, j), max(i, j)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[lo, hi] = e[hi, lo] = s
            else:
                e[lo, hi], e[hi, lo] = 1j * s, -1j * s
            w[:, i + j * n] = vec(e)
    return w


def random_block_ops(rng, n, n_jumps):
    """Restricted (H, stacked jumps) of one random n-dimensional sector."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    jumps = rng.normal(size=(n_jumps, n, n)) + 1j * rng.normal(size=(n_jumps, n, n))
    return 0.5 * (a + a.conj().T), 0.5 * jumps


class TestGenerator:
    def test_rejects_non_hermitian_h(self):
        with pytest.raises(ValueError):
            LindbladGenerator(h=np.array([[0, 1], [0, 0]], dtype=complex), jumps=[])

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladGenerator(h=np.zeros((2, 2)), jumps=[(-0.1, SIGMA_MINUS)])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LindbladGenerator(h=np.zeros((2, 2)), jumps=[(0.1, np.zeros((3, 3)))])


class TestLiouvillian:
    def test_trace_preservation_row(self):
        gen = random_two_qubit_generator()
        l = build_liouvillian(gen)
        left = vec(np.eye(4)).conj() @ l
        assert np.max(np.abs(left)) < 1e-12

    def test_amplitude_damping_analytic(self):
        rate = 0.8
        l = build_liouvillian(damping_generator(rate))
        prop = step_propagator(l, 0.05)
        rho = EXCITED.copy()
        for step in range(1, 101):
            rho = prop @ vec(rho)
            rho = rho.reshape((2, 2), order="F")
            assert abs(rho[0, 0].real - np.exp(-rate * 0.05 * step)) < 1e-8

    def test_pure_dephasing_analytic(self):
        rate = 0.4
        gen = LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_Z)])
        traj = propagate(gen, np.outer(PLUS, PLUS.conj()), 5.0, dt=0.01, keep_states=True)
        coh = traj.states[:, 0, 1]
        assert np.max(np.abs(coh - 0.5 * np.exp(-2 * rate * traj.t_grid))) < 1e-8


class TestBlockAssembly:
    """The effective-Hamiltonian assembly and the real-basis exponential against the kron oracle."""

    @pytest.mark.parametrize("nr, nc, n_jumps", [(3, 5, 0), (5, 3, 0), (2, 6, 3), (6, 4, 5)])
    def test_matches_kron_oracle(self, nr, nc, n_jumps):
        rng = np.random.default_rng(nr * 100 + nc * 10 + n_jumps)
        h_r, j_r = random_block_ops(rng, nr, n_jumps)
        h_c, j_c = random_block_ops(rng, nc, n_jumps)
        rates = rng.uniform(0.1, 1.0, size=n_jumps)
        l = _liouvillian_block(h_r, h_c, rates, j_r, j_c)
        oracle = kron_liouvillian_block(h_r, h_c, list(zip(rates, j_r, j_c)))
        assert l.shape == (nr * nc, nr * nc)
        assert np.max(np.abs(l - oracle)) < 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hermitian_basis_is_unitary_and_hermitian(self, n):
        w = dense_hermitian_basis(n)
        assert np.max(np.abs(w.conj().T @ w - np.eye(n * n))) < 1e-15
        for col in w.T:
            b = col.reshape((n, n), order="F")
            assert np.array_equal(b, b.conj().T)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pair_arithmetic_matches_dense_basis(self, n):
        # the index arithmetic against the dense W: W^dagger L W, the coordinates
        # W^dagger x, the weight rows f W and the assembly W c
        rng = np.random.default_rng(60 + n)
        w = dense_hermitian_basis(n)
        pairs = _hermitian_pairs(n)
        ops = random_block_ops(rng, n, 2)
        rates = np.array([0.6, 0.3])
        l = _liouvillian_block(ops[0], ops[0], rates, ops[1], ops[1])
        dense = w.conj().T @ l @ w
        r = _real_basis_generator(l.copy(), n)
        assert np.isrealobj(r)
        assert np.max(np.abs(r - dense)) < 1e-14
        assert np.max(np.abs(dense.imag)) < 1e-14
        x = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        f = rng.normal(size=(3, n * n)) + 1j * rng.normal(size=(3, n * n))
        for got, want in [
            (_mix_pairs(x.copy(), pairs, _W_PAIR.conj().T), w.conj().T @ x),
            (_mix_pairs(f.copy(), pairs, _W_PAIR.T), f @ w),
            (_mix_pairs(x.copy(), pairs, _W_PAIR), w @ x),
        ]:
            assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stepper_basis_matches_dense(self, n):
        # a one-sector generator makes the whole state one (c, c) pair: v0 is
        # W^dagger vec(rho0), the weight rows f W, and assemble(c) is W c
        rng = np.random.default_rng(70 + n)
        h, jumps = random_block_ops(rng, n, 2)
        gen = LindbladGenerator(h=h, jumps=list(zip([0.6, 0.3], jumps)))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        stepper = _BlockStepper(gen, 0.1, [np.arange(n)], rho0)
        w = dense_hermitian_basis(n)
        assert np.max(np.abs(stepper.v0 - w.conj().T @ vec(rho0))) < 1e-15
        f = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        rows = stepper.weights(f)
        flat = f.transpose(0, 2, 1).reshape(3, -1)  # f[k, i, j] at the vec position i + j n
        assert np.max(np.abs(rows[:3] - flat @ w)) < 1e-14
        assert not np.any(rows[3:])  # a diagonal pair has no mirror
        c = rng.normal(size=n * n)
        assert np.max(np.abs(vec(stepper.assemble(c)) - w @ c)) < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_real_basis_propagator(self, n):
        rng = np.random.default_rng(40 + n)
        ops = random_block_ops(rng, n, 3)
        rates = np.array([0.7, 0.2, 0.4])
        dt = 0.3
        real = _block_propagator(ops, ops, rates, dt, self_adjoint=True)
        assert np.isrealobj(real)
        # the real propagator acts on coordinates in the Hermitian basis W
        w = dense_hermitian_basis(n)
        prop = w @ real @ w.conj().T
        jumps = list(zip(rates, ops[1], ops[1]))
        exact = scipy.linalg.expm(kron_liouvillian_block(ops[0], ops[0], jumps) * dt)
        assert np.max(np.abs(prop - exact)) < 1e-13
        # a non-Hermitian block has complex coordinates, mapped by the same real propagator
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.max(np.abs(w @ (real @ (w.conj().T @ vec(x))) - exact @ vec(x))) < 1e-13

    def test_complex_block_propagator(self):
        rng = np.random.default_rng(50)
        ops_r, ops_c = random_block_ops(rng, 3, 2), random_block_ops(rng, 4, 2)
        rates = np.array([0.5, 0.3])
        prop = _block_propagator(ops_r, ops_c, rates, 0.2, self_adjoint=False)
        jumps = list(zip(rates, ops_r[1], ops_c[1]))
        exact = scipy.linalg.expm(kron_liouvillian_block(ops_r[0], ops_c[0], jumps) * 0.2)
        assert np.max(np.abs(prop - exact)) < 1e-13

    def test_mismatched_operators_are_not_self_adjoint(self):
        rng = np.random.default_rng(51)
        ops_r, ops_c = random_block_ops(rng, 3, 1), random_block_ops(rng, 3, 1)
        with pytest.raises(PropagationError):
            _block_propagator(ops_r, ops_c, np.array([0.5]), 0.2, self_adjoint=True)

    @pytest.mark.parametrize("n_tlf", [1, 2])
    def test_same_class_off_diagonal_pair(self, n_tlf):
        # under psi+ the |01> and |10> sectors share a class, so the (|01>, |10>)
        # pair is stepped by the real-basis propagator; feed it a non-Hermitian
        # block, inside a Hermitian state as the stepper requires
        gen, _ = probe_tlf_system(n_tlf, "psi+")
        dt = 0.05
        d = 2**n_tlf
        rng = np.random.default_rng(52)
        x = np.zeros((gen.dim, gen.dim), dtype=complex)
        x[d : 2 * d, 2 * d : 3 * d] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        stepper = _BlockStepper(gen, dt, find_invariant_sectors(gen), x)
        assert stepper.stats["propagators"] == stepper.stats["propagators_real"] == 1
        jumps = list(zip(gen.rates, gen.jump_ops, gen.jump_ops))
        exact = scipy.linalg.expm(kron_liouvillian_block(gen.h, gen.h, jumps) * dt) @ vec(x)
        stepped = stepper.assemble(stepper.step(stepper.v0))
        assert np.max(np.abs(vec(stepped) - exact)) < 1e-13


class TestStepPropagator:
    def test_zero_generator(self):
        assert np.allclose(step_propagator(np.zeros((4, 4)), 0.3), np.eye(4), atol=1e-15)

    def test_semigroup(self):
        l = build_liouvillian(random_two_qubit_generator(1))
        dt = 0.02
        p = step_propagator(l, dt)
        p16 = np.linalg.matrix_power(p, 16)
        assert np.max(np.abs(p16 - step_propagator(l, 16 * dt))) < 1e-8

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            step_propagator(np.zeros((4, 4)), 0.0)

    @pytest.mark.parametrize(
        "l, dt, message",
        [
            (np.full((2, 2), 1e308), 10.0, "L dt has non-finite"),
            (np.diag([1e300, 0.0]), 1.0, r"exp\(L dt\) has non-finite"),
        ],
    )
    def test_non_finite_is_propagation_error(self, l, dt, message):
        with np.errstate(over="ignore"), pytest.raises(PropagationError, match=message):
            step_propagator(l, dt)

    def test_larmor_precession(self):
        omega = 1.0
        gen = LindbladGenerator(h=0.5 * omega * SIGMA_Z, jumps=[])
        traj = propagate(gen, np.outer(PLUS, PLUS.conj()), 2 * np.pi * 5, dt=2 * np.pi / 100,
                         record={"sx": SIGMA_X})
        assert np.max(np.abs(traj.expectations["sx"] - np.cos(omega * traj.t_grid))) < 1e-8


class TestPropagate:
    def test_unitary_purity(self):
        gen = random_two_qubit_generator(2)
        gen = LindbladGenerator(h=gen.h, jumps=[])
        psi = np.kron(PLUS, PLUS)
        traj = propagate(gen, np.outer(psi, psi.conj()), 2.0, dt=0.01, keep_states=True)
        purity = np.einsum("nij,nji->n", traj.states, traj.states).real
        assert np.max(np.abs(purity - 1.0)) < 1e-8

    def test_maximally_mixed_stationary(self):
        gen = LindbladGenerator(h=0.7 * SIGMA_X + 0.2 * SIGMA_Z, jumps=[])
        rho0 = np.eye(2, dtype=complex) / 2
        traj = propagate(gen, rho0, 3.0, dt=0.01, keep_states=True)
        assert np.max(np.abs(traj.states - rho0)) < 1e-12

    def test_grid_must_divide(self):
        gen = damping_generator()
        with pytest.raises(ValueError):
            propagate(gen, EXCITED, 1.0, dt=0.3)

    def test_invalid_initial_state(self):
        gen = damping_generator()
        with pytest.raises(ValueError):
            propagate(gen, 2 * EXCITED, 1.0, dt=0.1)

    def test_semigroup_of_runs(self):
        gen = random_two_qubit_generator(3)
        psi = np.kron(PLUS, np.array([1, 0], dtype=complex))
        rho0 = np.outer(psi, psi.conj())
        first = propagate(gen, rho0, 1.0, dt=0.01)
        resumed = propagate(gen, first.final_state, 0.5, dt=0.01)
        direct = propagate(gen, rho0, 1.5, dt=0.01)
        assert np.max(np.abs(resumed.final_state - direct.final_state)) < 1e-8

    def test_expectation_recording_matches_states(self):
        gen = random_two_qubit_generator(4)
        rho0 = np.eye(4, dtype=complex) / 4
        obs = kron(SIGMA_X, SIGMA_X)
        traj = propagate(gen, rho0, 1.0, dt=0.02, record={"xx": obs}, keep_states=True)
        direct = np.einsum("ij,nji->n", obs, traj.states).real
        assert np.allclose(traj.expectations["xx"], direct, atol=1e-12)

    def test_near_hermitian_initial_state(self):
        # the validator accepts a Hermiticity error up to 1e-9; it must not survive
        # into any recorded state, the initial one included
        gen, rho0 = probe_tlf_system(1, "plus_plus")
        rng = np.random.default_rng(54)
        a = rng.normal(size=rho0.shape) + 1j * rng.normal(size=rho0.shape)
        noisy = rho0 + 1e-10 * (a - a.conj().T) / 2
        clean = propagate(gen, rho0, 2.0, dt=0.05, keep_states=True)
        traj = propagate(gen, noisy, 2.0, dt=0.05, keep_states=True)
        assert np.max(np.abs(traj.states - clean.states)) < 1e-14

    def test_cptp_stats_clean(self, monkeypatch):
        monkeypatch.setattr(dynamics, "EIG_CHECK_STRIDE", 50)
        gen = random_two_qubit_generator(5)
        rho0 = np.eye(4, dtype=complex) / 4
        traj = propagate(gen, rho0, 5.0, dt=0.01)
        assert traj.stats["max_trace_drift"] <= 1e-9
        assert traj.stats["max_herm_dev"] <= 1e-9
        assert traj.stats["min_eigenvalue"] >= -1e-7


def assert_sectors_match_scipy(gen):
    """The sectors are the connected components of the operators' joint pattern, in the
    order of their first index, as ``scipy.sparse.csgraph.connected_components`` finds."""
    pattern = (gen.h != 0) | np.any(gen.jump_ops != 0, axis=0)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(pattern | pattern.T), directed=False
    )
    expected = sorted((np.nonzero(labels == c)[0] for c in range(n_comp)), key=lambda s: s[0])
    sectors = find_invariant_sectors(gen)
    assert len(sectors) == len(expected)
    for got, want in zip(sectors, expected):
        assert np.array_equal(got, want)


class TestSectors:
    def make_system(self, mu_over_nu=1.0, n_tlf=2, seed=21):
        cfg = ModelConfig(n_tlf=n_tlf, mu_over_nu=mu_over_nu, seed=seed)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
        return gen, rho0, ops

    def test_probe_sectors_found(self):
        gen, _, _ = self.make_system()
        sectors = find_invariant_sectors(gen)
        assert sorted(len(s) for s in sectors) == [4, 4, 4, 4]

    def test_sector_matches_dense(self):
        gen, rho0, _ = self.make_system()
        t_end, dt = 10.0, 0.05
        dense = propagate(gen, rho0, t_end, dt=dt, method="dense", keep_states=True)
        split = propagate(gen, rho0, t_end, dt=dt, method="sector", keep_states=True)
        assert np.max(np.abs(dense.states - split.states)) < 1e-10

    def test_sector_matches_dense_with_gate(self):
        from tlfsim.model import add_gate

        gen, rho0, ops = self.make_system(seed=22)
        noisy = add_gate(ops, "xxyy", 0.2)
        gen = LindbladGenerator.from_system(noisy)
        sectors = find_invariant_sectors(gen)
        assert sorted(len(s) for s in sectors) == [4, 4, 8]
        dense = propagate(gen, rho0, 5.0, dt=0.05, method="dense", keep_states=True)
        split = propagate(gen, rho0, 5.0, dt=0.05, method="sector", keep_states=True)
        assert np.max(np.abs(dense.states - split.states)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_sectors_match_connected_components_on_random_patterns(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 16, 64):
            for density in (0.0, 0.02, 0.05, 0.2):
                h = np.where(rng.random((n, n)) < density, 1.0, 0.0)
                jump = np.where(rng.random((n, n)) < density, 1.0, 0.0)
                gen = LindbladGenerator(h=h + h.T, jumps=[(0.5, jump)])
                assert_sectors_match_scipy(gen)

    @pytest.mark.parametrize("variant", ["plain", "warm", "halved"])
    def test_sectors_match_connected_components_on_probe_systems(self, variant):
        for n_tlf in (1, 2, 4):
            for state in PROBE_STATES:
                for gate in (None, "zz", "xxyy"):
                    assert_sectors_match_scipy(probe_tlf_system(n_tlf, state, gate, variant)[0])

    def test_unknown_method_rejected(self):
        gen, rho0, _ = self.make_system()
        with pytest.raises(ValueError):
            propagate(gen, rho0, 1.0, dt=0.05, method="magic")


MODEL_VARIANTS = {
    "plain": {},
    "warm": {"nbar": 0.5, "gamma_plus_mode": "sampled"},
    "halved": {"halve_couplings": True},
}


def probe_tlf_system(n_tlf, state, gate=None, variant="plain", seed=21, **model):
    cfg = ModelConfig(n_tlf=n_tlf, mu_over_nu=1.0, seed=seed, **MODEL_VARIANTS[variant], **model)
    ens = sample_ensemble(cfg)
    ops = build_operators(ens, cfg)
    if gate is not None:
        ops = add_gate(ops, gate, float(ens.nu))
    rho0 = initial_state(state, tlf_ground_state(ens, cfg), ops.layout)
    return LindbladGenerator.from_system(ops), rho0


class TestBlockEngine:
    """The live-pair, class-shared block engine against the dense propagator and RK4."""

    @pytest.mark.parametrize(
        "n_tlf, state, gate, variant",
        [
            (n_tlf, state, gate, variant)
            for variant in MODEL_VARIANTS
            # one fluctuator has no ring bond, so halving changes nothing there
            for n_tlf in ((2,) if variant == "halved" else (1, 2))
            for state in PROBE_STATES
            for gate in (None, "zz", "xxyy")
        ],
    )
    def test_sector_matches_dense(self, n_tlf, state, gate, variant):
        gen, rho0 = probe_tlf_system(n_tlf, state, gate, variant)
        dense = propagate(gen, rho0, 5.0, dt=0.05, method="dense", keep_states=True)
        split = propagate(gen, rho0, 5.0, dt=0.05, method="sector", keep_states=True)
        assert np.max(np.abs(dense.states - split.states)) < 1e-10
        assert (dense.stats["sectors"], dense.stats["propagators"]) == (1, 1)
        # the recorded scalars come from weight rows on the evolutions, not from
        # states; check them against the dense states' full-state contractions
        # (M_y, with complex entries, checks the conjugation of the mirrored blocks)
        layout = SubsystemLayout((2,) * (2 + n_tlf))
        record = {
            name: embed(op, 0, layout) + embed(op, 1, layout)
            for name, op in (("M_x", SIGMA_X), ("M_y", SIGMA_Y))
        }
        rec = propagate(gen, rho0, 5.0, dt=0.05, record=record, marginal_keep=(0, 1),
                        layout=layout)
        assert rec.states is None
        for name, op in record.items():
            direct = np.einsum("ij,nji->n", op, dense.states).real
            assert np.max(np.abs(rec.expectations[name] - direct)) < 1e-10
        marginals_dense = np.array([partial_trace(r, (0, 1), layout) for r in dense.states])
        assert np.max(np.abs(rec.marginals - marginals_dense)) < 1e-10

    # (pairs_stepped, evolutions, propagators_real, block_dim_max) of the counter
    # cases below; each adjoint pair of off-diagonal blocks is stepped once, and
    # under |++> pairs of one class pair share an evolution (every block is rho_tlf / 4)
    STEPPED_EVOLUTIONS_REAL_AND_DIM = {
        ("plus_plus", None): (10, 6, 3, 256),
        ("phi+", None): (3, 3, 2, 256),
        ("plus_plus", "xxyy"): (6, 6, 3, 1024),
    }

    @pytest.mark.parametrize(
        "state, gate, sectors, pairs_live, propagators",
        [
            # |01> and |10> carry the same dynamics: 3 classes, 6 class pairs up to adjoints
            ("plus_plus", None, 4, 16, 6),
            # only the |00>,|11> pairs are live
            ("phi+", None, 4, 4, 3),
            # XX+YY merges |01>,|10>; the three sectors all differ
            ("plus_plus", "xxyy", 3, 9, 6),
        ],
    )
    def test_engine_counters(self, state, gate, sectors, pairs_live, propagators):
        gen, rho0 = probe_tlf_system(4, state, gate)
        traj = propagate(gen, rho0, 0.1, dt=0.05)
        names = ("sectors", "pairs_live", "pairs_stepped", "evolutions", "propagators",
                 "propagators_real", "block_dim_max")
        counters = {k: traj.stats[k] for k in names}
        # diagonal class pairs take the real basis; 16-dim sectors give 256-dim
        # blocks, the XX+YY-merged 32-dim sector a 1024-dim one
        stepped, evolutions, real, dim_max = self.STEPPED_EVOLUTIONS_REAL_AND_DIM[(state, gate)]
        assert counters == {
            "sectors": sectors,
            "pairs_live": pairs_live,
            "pairs_stepped": stepped,
            "evolutions": evolutions,
            "propagators": propagators,
            "propagators_real": real,
            "block_dim_max": dim_max,
        }
        assert all(type(v) is int for v in counters.values())

    @pytest.mark.parametrize("n_tlf", [1, 2])
    @pytest.mark.parametrize("gate", [None, "zz"])
    def test_distinct_blocks_are_not_merged(self, n_tlf, gate):
        # a random entangled state: pairs of one class pair start from different
        # blocks, so each stepped pair must be its own evolution
        gen, _ = probe_tlf_system(n_tlf, "plus_plus", gate)
        rng = np.random.default_rng(55)
        a = rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        dense = propagate(gen, rho0, 2.0, dt=0.05, method="dense", keep_states=True)
        split = propagate(gen, rho0, 2.0, dt=0.05, keep_states=True)
        assert split.stats["evolutions"] == split.stats["pairs_stepped"]
        assert split.stats["propagators"] < split.stats["pairs_stepped"]
        assert np.max(np.abs(dense.states - split.states)) < 1e-10

    @pytest.mark.parametrize(
        "state, gate", [("plus_plus", None), ("phi+", None), ("plus_plus", "xxyy")]
    )
    def test_hermitian_by_construction_over_a_long_horizon(self, state, gate):
        # nothing re-Hermitizes the state: the (c, c) blocks are stepped as real
        # coordinates in the Hermitian basis, so 3000 steps leave no rounding there
        gen, rho0 = probe_tlf_system(2, state, gate)
        traj = propagate(gen, rho0, 150.0, dt=0.05, keep_states=True)
        assert len(traj.states) == 3001
        for s in [*traj.states, traj.final_state]:
            assert np.array_equal(s, s.conj().T)
        assert traj.stats["max_herm_dev"] == 0.0

    @given(
        n_tlf=st.sampled_from([1, 2]),
        state=st.sampled_from(PROBE_STATES),
        gate=st.sampled_from([None, "zz", "xxyy"]),
        variant=st.sampled_from(list(MODEL_VARIANTS)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    def test_matches_rk4(self, n_tlf, state, gate, variant, seed):
        gen, rho0 = probe_tlf_system(n_tlf, state, gate, variant, seed)
        a = propagate(gen, rho0, 2.0, dt=0.02, keep_states=True)
        b = rk4_reference(gen, rho0, 2.0, dt=0.002, keep_states=True, record_every=10)
        assert np.max(np.abs(a.states - b.states)) < 1e-7

    @given(
        n_tlf=st.sampled_from([1, 2]),
        state=st.sampled_from(PROBE_STATES),
        gate=st.sampled_from([None, "zz", "xxyy"]),
        nbar=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    def test_cptp_properties(self, n_tlf, state, gate, nbar, seed):
        gen, rho0 = probe_tlf_system(
            n_tlf, state, gate, seed=seed, nbar=nbar, gamma_plus_mode="sampled"
        )
        traj = propagate(gen, rho0, 5.0, dt=0.05, keep_states=True)
        for s in traj.states:
            assert abs(np.trace(s) - 1.0) <= 1e-12
            assert np.array_equal(s, s.conj().T)
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-10


# each breaks the step propagators one way: (propagator fault, abort message)
FAULTS = {
    # an anti-Hermitian part on the real-basis (diagonal) blocks
    "hermiticity": (lambda l, p: p + 1e-4j * np.eye(len(p)) if np.isrealobj(l) else p,
                    "Hermiticity deviation"),
    "trace": (lambda l, p: (1 + 1e-5) * p, "trace drift"),
    # coherences grow while the populations hold
    "positivity": (lambda l, p: 1.5 * p if np.iscomplexobj(l) else p, "negative population"),
    # NaN compares false with every bound, so the aborts are written to trip on it
    "nan": (lambda l, p: np.nan * p, "trace drift nan"),
    # the drift passes the tolerance at step 15, inside a chunk of 10 and not at its start
    "late_trace": (lambda l, p: (1 + 7e-8) * p, r"trace drift 1\.050e-06 at t=0\.75 "),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_trips_its_abort(fault, monkeypatch):
    broken, message = FAULTS[fault]
    exact = dynamics.step_propagator
    monkeypatch.setattr(dynamics, "step_propagator", lambda l, dt: broken(l, exact(l, dt)))
    gen, rho0 = probe_tlf_system(1, "plus_plus")
    with pytest.raises(PropagationError, match=message):
        propagate(gen, rho0, 1.0, dt=0.05)


def force_chunk(monkeypatch, b):
    """Make the cost rule choose B = b (keep_states still forces B = 1)."""
    monkeypatch.setattr(dynamics, "_chunk_size", lambda *args: b)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_message_is_the_same_in_chunks(fault, monkeypatch):
    broken, message = FAULTS[fault]
    exact = dynamics.step_propagator
    monkeypatch.setattr(dynamics, "step_propagator", lambda l, dt: broken(l, exact(l, dt)))
    gen, rho0 = probe_tlf_system(1, "plus_plus")
    messages = []
    for b in (1, 10):
        force_chunk(monkeypatch, b)
        with pytest.raises(PropagationError, match=message) as err:
            propagate(gen, rho0, 1.0, dt=0.05)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# coherences grow 1.5x a step, so the state is far from positive at step 10, and
# the trace gains 7e-8 or 1.05e-7 a step, so its drift passes 1e-6 at step 15 or 10
ORDER_FAULTS = {
    "eigenvalues-before-the-rest": (1 + 7e-8, "negative population .* at t=0.5 "),
    "trace-before-eigenvalues": (1 + 1.05e-7, r"trace drift 1\.050e-06 at t=0\.5 "),
}


@pytest.mark.parametrize("fault", list(ORDER_FAULTS))
def test_audit_order_at_a_chunk_start(fault, monkeypatch):
    # eigenvalue checks every 10 steps: at a chunk start the trace is audited
    # first, then the eigenvalues, then the traces of the rest of the chunk
    gain, message = ORDER_FAULTS[fault]
    monkeypatch.setattr(dynamics, "EIG_CHECK_STRIDE", 10)
    exact = dynamics.step_propagator
    monkeypatch.setattr(
        dynamics, "step_propagator",
        lambda l, dt: gain * (1.5 if np.iscomplexobj(l) else 1.0) * exact(l, dt),
    )
    gen, rho0 = probe_tlf_system(1, "plus_plus")
    for b in (1, 10):
        force_chunk(monkeypatch, b)
        with pytest.raises(PropagationError, match=message):
            propagate(gen, rho0, 1.0, dt=0.05)


class TestChunkedRecording:
    """Chunks of B grid points against the one-step-per-point loop (B = 1), their oracle."""

    # (n_tlf, probe state, model variant, what is recorded)
    CASES = {
        "plus_plus-n2": (2, "plus_plus", "plain", "M_x"),
        "plus_plus-n3": (3, "plus_plus", "plain", "M_x"),
        "plus_plus-n4": (4, "plus_plus", "plain", "M_x"),
        "phi+-marginals": (2, "phi+", "plain", "marginals"),
        "psi--marginals-n3": (3, "psi-", "plain", "marginals"),
        # nbar > 0 with a sampled gamma_plus
        "warm-marginals": (2, "plus_plus", "warm", "marginals"),
    }

    @staticmethod
    def run(case, n_steps, dt=0.05):
        n_tlf, state, variant, what = TestChunkedRecording.CASES[case]
        gen, rho0 = probe_tlf_system(n_tlf, state, variant=variant)
        layout = SubsystemLayout((2,) * (2 + n_tlf))
        if what == "M_x":
            m_x = embed(SIGMA_X, 0, layout) + embed(SIGMA_X, 1, layout)
            return propagate(gen, rho0, n_steps * dt, dt=dt, record={"M_x": m_x})
        return propagate(gen, rho0, n_steps * dt, dt=dt, marginal_keep=(0, 1), layout=layout)

    @staticmethod
    def assert_matches(got, ref, b):
        assert (got.stats["chunk"], ref.stats["chunk"]) == (b, 1)
        assert ref.stats["powers"] == 0
        assert got.stats["powers"] == got.stats["propagators"]
        for name, series in ref.expectations.items():
            assert np.max(np.abs(got.expectations[name] - series)) <= 1e-12
        if ref.marginals is not None:
            assert np.max(np.abs(got.marginals - ref.marginals)) <= 1e-12
        assert np.max(np.abs(got.final_state - ref.final_state)) <= 1e-12
        assert np.array_equal(got.t_grid, ref.t_grid)
        for key, value in ref.stats.items():
            if key in ("max_trace_drift", "min_eigenvalue"):
                assert abs(got.stats[key] - value) <= 1e-12, key
            elif key not in ("chunk", "powers"):
                assert got.stats[key] == value, key

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize(
        "n_steps, b",
        [
            (250, 10),  # eigenvalue checks at 0, 100 and 200, each a chunk start
            (123, 10),  # a tail of 3 single steps
            (101, 25),
            (7, 10),  # fewer steps than one chunk
            (10, 10),  # one chunk, then the last grid point alone
        ],
    )
    def test_matches_one_step_per_point(self, case, n_steps, b, monkeypatch):
        force_chunk(monkeypatch, 1)
        ref = self.run(case, n_steps)
        force_chunk(monkeypatch, b)
        self.assert_matches(self.run(case, n_steps), ref, b)

    @pytest.mark.parametrize("b", [1, 10])
    def test_max_trace_drift_covers_every_grid_point(self, b, monkeypatch):
        # the identity, recorded, is the trace row's twin: every grid point's
        # drift, chunk starts or not, must reach the statistic
        force_chunk(monkeypatch, b)
        gen, rho0 = probe_tlf_system(2, "plus_plus")
        traj = propagate(gen, rho0, 250 * 0.05, dt=0.05, record={"tr": np.eye(gen.dim)})
        drift = np.abs(traj.expectations["tr"] - 1.0)
        assert traj.stats["max_trace_drift"] == np.max(drift) > 0

    def test_stride_of_fifty(self, monkeypatch):
        monkeypatch.setattr(dynamics, "EIG_CHECK_STRIDE", 50)
        force_chunk(monkeypatch, 1)
        ref = self.run("plus_plus-n2", 180)
        assert ref.stats["eig_checks"] == 5  # 0, 50, 100, 150 and the end
        force_chunk(monkeypatch, 25)
        self.assert_matches(self.run("plus_plus-n2", 180), ref, 25)

    @pytest.mark.parametrize("stride", [100, 50, 37])
    def test_rule_divides_the_stride(self, stride, monkeypatch):
        monkeypatch.setattr(dynamics, "EIG_CHECK_STRIDE", stride)
        traj = self.run("plus_plus-n2", 2000)
        assert stride % traj.stats["chunk"] == 0
        assert traj.stats["chunk"] > 1  # 16-dim blocks: the loop's Python dominates

    def test_rule_chunks_a_short_run_on_small_blocks(self):
        # 300 steps of 16-dim blocks: the loop's Python dominates, and chunking
        # has no fixed cost to pay (399-step n_tlf=2 points ran 2.5x faster chunked)
        traj = self.run("plus_plus-n2", 300)
        assert traj.stats["chunk"] > 1

    def test_rule_chunks_a_spectrum_point(self):
        # the acceptance bank's spectrum point: 3999 steps of six 256-dim evolutions
        traj = self.run("plus_plus-n4", 3999)
        assert traj.stats["chunk"] > 1
        assert traj.stats["powers"] == traj.stats["propagators"] == 6

    def test_keep_states_steps_one_point_at_a_time(self):
        gen, rho0 = probe_tlf_system(2, "plus_plus")
        traj = propagate(gen, rho0, 400 * 0.05, dt=0.05, keep_states=True)
        assert (traj.stats["chunk"], traj.stats["powers"]) == (1, 0)

    def test_large_blocks_take_shorter_chunks(self):
        # an XX+YY gate point at the benchmark's size: 300 steps with blocks up to
        # 1024^2, where each power costs about as much as the mat-vecs it saves,
        # so B stays far below the 16-dim blocks' B at the same step count
        gen, rho0 = probe_tlf_system(4, "plus_plus", "xxyy", ratio_eps=1.0)
        layout = SubsystemLayout((2,) * 6)
        traj = propagate(gen, rho0, 3 * 2 * np.pi, dt=0.01 * 2 * np.pi,
                         marginal_keep=(0, 1), layout=layout)
        assert traj.stats["block_dim_max"] == 1024
        small = self.run("plus_plus-n2", 300)
        assert traj.stats["chunk"] < small.stats["chunk"] // 10


def test_trace_drift_is_audited_not_repaired(monkeypatch):
    # a gain of 1e-10 per step lies well inside the trace abort tolerance;
    # nothing divides it away, so it compounds over the 20 steps
    gain = 1 + 1e-10
    exact = dynamics.step_propagator
    monkeypatch.setattr(dynamics, "step_propagator", lambda l, dt: gain * exact(l, dt))
    gen, rho0 = probe_tlf_system(1, "plus_plus")
    traj = propagate(gen, rho0, 1.0, dt=0.05)
    assert abs(np.trace(traj.final_state).real - gain**20) <= 1e-13
    assert abs(traj.stats["max_trace_drift"] - (gain**20 - 1)) <= 1e-13


class TestStationaryBellStates:
    @pytest.mark.parametrize("state", ["psi+", "psi-"])
    def test_probe_marginal_frozen(self, state):
        cfg = ModelConfig(n_tlf=2, mu_over_nu=1.0, seed=23)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state(state, tlf_ground_state(ens, cfg), ops.layout)
        traj = propagate(gen, rho0, 5 * 2 * np.pi, dt=2 * np.pi / 50,
                         marginal_keep=(0, 1), layout=ops.layout)
        assert np.max(np.abs(traj.marginals - traj.marginals[0])) < 1e-8

        from tlfsim.observables import log_negativity

        for marg in traj.marginals[:: len(traj.marginals) // 10]:
            assert abs(log_negativity(marg) - 1.0) < 1e-8


class TestRk4:
    def test_matches_analytic_damping(self):
        gen = damping_generator(1.0)
        traj = rk4_reference(gen, EXCITED, 10.0, dt=1e-3, record={"pe": EXCITED}, record_every=100)
        assert np.max(np.abs(traj.expectations["pe"] - np.exp(-traj.t_grid))) < 1e-8

    def test_matches_step_propagator_random(self):
        gen = random_two_qubit_generator(6)
        rho0 = np.eye(4, dtype=complex) / 4
        a = propagate(gen, rho0, 2.0, dt=0.02, keep_states=True)
        b = rk4_reference(gen, rho0, 2.0, dt=0.002, keep_states=True, record_every=10)
        assert np.max(np.abs(a.states - b.states)) < 1e-7

    def test_fourth_order_convergence(self):
        gen = damping_generator(1.0)

        def max_err(dt):
            traj = rk4_reference(gen, EXCITED, 2.0, dt=dt, record={"pe": EXCITED})
            return np.max(np.abs(traj.expectations["pe"] - np.exp(-traj.t_grid)))

        ratio = max_err(0.05) / max_err(0.025)
        assert 12.0 <= ratio <= 20.0

    def test_coarse_step_warning(self):
        gen = damping_generator(5.0)
        with pytest.warns(RuntimeWarning):
            rk4_reference(gen, EXCITED, 2.0, dt=0.5)

    def test_instability_aborts(self):
        gen = LindbladGenerator(h=4.0 * SIGMA_X, jumps=[(4.0, SIGMA_MINUS)])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(PropagationError):
                rk4_reference(gen, EXCITED, 40.0, dt=1.0)

    @pytest.mark.parametrize("state", ["plus_plus", "phi+"])
    def test_marginals_match_the_block_engine(self, state):
        # RK4 takes each marginal by partial trace of its full state, and shares
        # no code with the block engine's weight rows
        gen, rho0 = probe_tlf_system(2, state, "zz", "warm")
        layout = SubsystemLayout((2,) * 4)
        a = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=(0, 1), layout=layout)
        b = rk4_reference(
            gen, rho0, 2.0, dt=0.002, marginal_keep=(0, 1), layout=layout, record_every=10
        )
        assert a.marginals.shape == b.marginals.shape == (101, 4, 4)
        assert np.max(np.abs(b.marginals[-1] - b.marginals[0])) > 0.1
        assert np.max(np.abs(a.marginals - b.marginals)) < 1e-6

    # the right-hand side keeps Hermiticity for any generator, so only a step that
    # overflows to NaN reaches the Hermiticity abort
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:RK4 step looks too coarse")
    def test_non_finite_step_trips_the_hermiticity_abort(self):
        gen = LindbladGenerator(h=1e300 * SIGMA_X, jumps=[])
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PropagationError, match="Hermiticity deviation nan at t=0.5 "):
            rk4_reference(gen, rho0, 1.0, 0.5)

    def test_record_every_must_divide(self):
        gen = damping_generator()
        with pytest.raises(ValueError):
            rk4_reference(gen, EXCITED, 1.0, dt=0.1, record_every=3)


@pytest.mark.slow
def test_cross_validation_one_qubit_one_tlf():
    # desk instance: one probe spin against a single damped fluctuator
    layout = SubsystemLayout((2, 2))
    theta = np.arctan(1.0 / 3.0)
    omega_t = 0.4
    nu = omega_t / 3
    x_t = np.cos(theta) * embed(SIGMA_Z, 1, layout) - np.sin(theta) * embed(SIGMA_X, 1, layout)
    h = 0.5 * embed(SIGMA_Z, 0, layout) + 0.5 * omega_t * embed(SIGMA_Z, 1, layout) + nu * (
        embed(SIGMA_Z, 0, layout) @ x_t
    )
    jumps = [
        (0.02, embed(SIGMA_Z, 1, layout)),
        (0.005, embed(SIGMA_MINUS, 1, layout)),
    ]
    gen = LindbladGenerator(h=h, jumps=jumps)
    psi = np.kron(PLUS, np.array([0, 1], dtype=complex))
    rho0 = np.outer(psi, psi.conj())
    t_end = 100 * 2 * np.pi
    dt = 2 * np.pi / 50
    a = propagate(gen, rho0, t_end, dt=dt, keep_states=True, method="dense")
    b = rk4_reference(gen, rho0, t_end, dt=dt / 8, keep_states=True, record_every=8)
    assert np.max(np.abs(a.states - b.states)) < 1e-6
