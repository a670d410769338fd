import tracemalloc

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
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SubsystemLayout,
    embed,
    expm,
    partial_trace,
    pauli_string,
)
from tlfsim import dynamics
from tlfsim.dynamics import (
    LindbladGenerator,
    PropagationError,
    _block_propagator,
    _W_PAIR,
    _assemble,
    _hermitian_pairs,
    _liouvillian_block,
    _mix_pairs,
    _pair_propagator,
    _pair_weights,
    _real_basis_generator,
    _stepped_pairs,
    build_liouvillian,
    find_invariant_sectors,
    propagate,
    rk4_reference,
    step_propagator,
)
from tlfsim.model import (
    GATE_TERMS,
    PROBE_STATES,
    ModelConfig,
    add_gate,
    build_operators,
    hamiltonian_terms,
    initial_state,
    probe_magnetization,
    probe_state_vector,
    sample_ensemble,
    tlf_ground_state,
)
from test_model import SINGLET_TRIPLET, to_singlet_triplet

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def vec(m):
    """Column stacking, the convention of tlfsim.dynamics."""
    return np.asarray(m).reshape(-1, order="F")


def every_site(gen):
    """The ``marginal_keep`` that records the whole state: the marginal on every site."""
    return tuple(range(gen.layout.n_sites))


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
        with pytest.raises(ValueError, match="must be square"):
            LindbladGenerator(h=np.zeros((2, 3)), jumps=[])
        with pytest.raises(ValueError, match="layout dim 8 != Hamiltonian dim 4"):
            LindbladGenerator(h=np.zeros((4, 4)), jumps=[], layout=SubsystemLayout((2, 2, 2)))


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
        traj = propagate(gen, np.outer(PLUS, PLUS.conj()), 5.0, dt=0.01,
                         marginal_keep=every_site(gen))
        coh = traj.marginals[:, 0, 1]
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
        # one sector makes the whole state one (c, c) pair: v0 is
        # W^dagger vec(rho0), the weight rows f W, and the assembly of c is W c
        rng = np.random.default_rng(70 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        pairs = _stepped_pairs([np.arange(n)], rho0)
        w = dense_hermitian_basis(n)
        assert len(pairs) == 1
        assert np.max(np.abs(pairs[0].v0 - w.conj().T @ vec(rho0))) < 1e-15
        f = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        rows = _pair_weights(f.reshape(3, -1), pairs[0])
        flat = f.transpose(0, 2, 1).reshape(3, -1)  # f[k, i, j] at the vec position i + j n
        assert rows.shape == (3, n * n)  # one row per functional
        assert np.max(np.abs(rows - flat @ w)) < 1e-14
        c = rng.normal(size=n * n)
        assert np.max(np.abs(vec(_assemble(pairs, [c], n)) - w @ c)) < 1e-15

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
    def test_t0_s_pair_is_complex(self, n_tlf):
        # the |T0> and |S> sectors carry the same restricted dynamics, but their pair
        # is off-diagonal, so it is stepped by its own complex propagator; feed it a
        # non-Hermitian block, inside a Hermitian state as the pair records require
        gen, _ = probe_tlf_system(n_tlf, "psi+")
        dt = 0.05
        d = 2**n_tlf
        t0, s = slice(d, 2 * d), slice(2 * d, 3 * d)
        assert np.array_equal(gen.h[t0, t0], gen.h[s, s])
        rng = np.random.default_rng(52)
        x = np.zeros((gen.dim, gen.dim), dtype=complex)
        x[t0, s] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        sectors = find_invariant_sectors(gen)
        pairs = _stepped_pairs(sectors, x)
        # pairs_live 2, pairs_stepped 1, propagators_real 0: one complex pair and its mirror
        assert len(pairs) == 1 and pairs[0].mirror is not None
        prop = _pair_propagator(gen, dt, sectors, pairs[0])
        assert np.iscomplexobj(prop)
        jumps = list(zip(gen.rates, gen.jump_ops, gen.jump_ops))
        exact = scipy.linalg.expm(kron_liouvillian_block(gen.h, gen.h, jumps) * dt) @ vec(x)
        stepped = _assemble(pairs, [prop @ pairs[0].v0], gen.dim)  # the pair is the whole state
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
        traj = propagate(gen, np.outer(psi, psi.conj()), 2.0, dt=0.01,
                         marginal_keep=every_site(gen))
        purity = np.einsum("nij,nji->n", traj.marginals, traj.marginals).real
        assert np.max(np.abs(purity - 1.0)) < 1e-8

    def test_maximally_mixed_stationary(self):
        gen = LindbladGenerator(h=0.7 * SIGMA_X + 0.2 * SIGMA_Z, jumps=[])
        rho0 = np.eye(2, dtype=complex) / 2
        traj = propagate(gen, rho0, 3.0, dt=0.01, marginal_keep=every_site(gen))
        assert np.max(np.abs(traj.marginals - rho0)) < 1e-12

    def test_grid_must_divide(self):
        gen = damping_generator()
        with pytest.raises(ValueError):
            propagate(gen, EXCITED, 1.0, dt=0.3)
        for t_end, dt in ((0.0, 0.1), (1.0, -0.1)):
            with pytest.raises(ValueError, match="must be positive"):
                propagate(gen, EXCITED, t_end, dt=dt)

    def test_invalid_initial_state(self):
        gen = damping_generator()
        with pytest.raises(ValueError):
            propagate(gen, 2 * EXCITED, 1.0, dt=0.1)
        with pytest.raises(ValueError, match="initial state shape"):
            propagate(gen, np.eye(4) / 4, 1.0, dt=0.1)

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
        traj = propagate(gen, rho0, 1.0, dt=0.02, record={"xx": obs},
                         marginal_keep=every_site(gen))
        direct = np.einsum("ij,nji->n", obs, traj.marginals).real
        assert np.allclose(traj.expectations["xx"], direct, atol=1e-12)

    def test_near_hermitian_initial_state(self):
        # the validator accepts a Hermiticity error up to 1e-9; it must not survive
        # into any recorded state, the initial one included
        gen, rho0 = probe_tlf_system(1, "plus_plus")
        rng = np.random.default_rng(54)
        a = rng.normal(size=rho0.shape) + 1j * rng.normal(size=rho0.shape)
        noisy = rho0 + 1e-10 * (a - a.conj().T) / 2
        clean = propagate(gen, rho0, 2.0, dt=0.05, marginal_keep=every_site(gen))
        traj = propagate(gen, noisy, 2.0, dt=0.05, marginal_keep=every_site(gen))
        assert np.max(np.abs(traj.marginals - clean.marginals)) < 1e-14

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
        gen = build_operators(ens, cfg)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), gen)
        return gen, rho0

    def test_probe_sectors_found(self):
        gen, _ = self.make_system()
        sectors = find_invariant_sectors(gen)
        assert sorted(len(s) for s in sectors) == [4, 4, 4, 4]

    def test_sector_matches_dense(self):
        gen, rho0 = self.make_system()
        t_end, dt = 10.0, 0.05
        dense = propagate(gen, rho0, t_end, dt=dt, marginal_keep=every_site(gen), method="dense")
        split = propagate(gen, rho0, t_end, dt=dt, marginal_keep=every_site(gen), method="sector")
        assert np.max(np.abs(dense.marginals - split.marginals)) < 1e-10

    @pytest.mark.parametrize("n_tlf", [1, 2, 3, 4, 5])
    def test_xxyy_sectors_are_the_probe_states(self, n_tlf):
        # the singlet-triplet tables cancel the cross entries to exact zeros, so the
        # sparsity pattern alone, with no tolerance, splits off each probe state
        for seed in (1, 2, 3, 21):
            cfg = ModelConfig(n_tlf=n_tlf, mu_over_nu=1.0, seed=seed)
            ens = sample_ensemble(cfg)
            gen = add_gate(build_operators(ens, cfg), "xxyy", float(ens.nu))
            sectors = find_invariant_sectors(gen)
            size = 2**n_tlf
            assert [list(s) for s in sectors] == [
                list(range(p * size, (p + 1) * size)) for p in range(4)
            ]

    def test_sector_matches_dense_with_gate(self):
        # in the singlet-triplet probe basis XX+YY keeps the four probe sectors apart
        cfg = ModelConfig(n_tlf=2, mu_over_nu=1.0, seed=22)
        ens = sample_ensemble(cfg)
        gen = add_gate(build_operators(ens, cfg), "xxyy", 0.2)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), gen)
        sectors = find_invariant_sectors(gen)
        assert sorted(len(s) for s in sectors) == [4, 4, 4, 4]
        dense = propagate(gen, rho0, 5.0, dt=0.05, marginal_keep=every_site(gen), method="dense")
        split = propagate(gen, rho0, 5.0, dt=0.05, marginal_keep=every_site(gen), method="sector")
        assert np.max(np.abs(dense.marginals - split.marginals)) < 1e-10

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
        gen, rho0 = self.make_system()
        with pytest.raises(ValueError):
            propagate(gen, rho0, 1.0, dt=0.05, method="magic")


MODEL_VARIANTS = {
    "plain": {},
    "warm": {"nbar": 0.5, "gamma_plus_mode": "sampled"},
    "halved": {"halve_couplings": True},
}


def probe_tlf_system(n_tlf, state, gate=None, variant="plain", seed=21, computational=False,
                     **model):
    """(generator, initial state) of a probe-TLF system with the probe pair in the
    singlet-triplet basis; ``computational`` takes it in the computational basis
    instead, the Hamiltonian summed from the system's terms as plain Pauli strings
    and the probe state from its computational vector."""
    cfg = ModelConfig(n_tlf=n_tlf, mu_over_nu=1.0, seed=seed, **MODEL_VARIANTS[variant], **model)
    ens = sample_ensemble(cfg)
    gen = build_operators(ens, cfg)
    terms = hamiltonian_terms(ens, cfg)
    if gate is not None:
        gen = add_gate(gen, gate, float(ens.nu))
        terms += [(float(ens.nu), lab + "I" * n_tlf) for lab in GATE_TERMS[gate]]
    tlf = tlf_ground_state(ens, cfg)
    if computational:
        h = sum(c * pauli_string(lab) for c, lab in terms)
        psi = probe_state_vector(state)
        gen = LindbladGenerator(h=h, jumps=list(zip(gen.rates, gen.jump_ops)), layout=gen.layout)
        return gen, np.kron(np.outer(psi, psi.conj()), tlf)
    return gen, initial_state(state, tlf, gen)


class TestBlockEngine:
    """The live-pair block engine against the dense propagator and RK4."""

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
        dense = propagate(gen, rho0, 5.0, dt=0.05, marginal_keep=every_site(gen), method="dense")
        split = propagate(gen, rho0, 5.0, dt=0.05, marginal_keep=every_site(gen), method="sector")
        assert np.max(np.abs(dense.marginals - split.marginals)) < 1e-10
        assert (dense.stats["sectors"], dense.stats["pairs_stepped"]) == (1, 1)
        # the recorded scalars come from weight rows on the stepped pairs, not from
        # states; check them against the dense states' full-state contractions
        # (M_y, with complex entries, checks the conjugation of the mirrored blocks)
        layout = SubsystemLayout((2,) * (2 + n_tlf))
        record = {
            name: to_singlet_triplet(embed(op, 0, layout) + embed(op, 1, layout))
            for name, op in (("M_x", SIGMA_X), ("M_y", SIGMA_Y))
        }
        rec = propagate(gen, rho0, 5.0, dt=0.05, record=record, marginal_keep=(0, 1))
        for name, op in record.items():
            direct = np.einsum("ij,nji->n", op, dense.marginals).real
            assert np.max(np.abs(rec.expectations[name] - direct)) < 1e-10
        marginals_dense = np.array([partial_trace(r, (0, 1), layout) for r in dense.marginals])
        assert np.max(np.abs(rec.marginals - marginals_dense)) < 1e-10

    # (propagators_real, block_dim_max) of the counter cases below: diagonal pairs
    # take the real basis, and 16-dim sectors give 256-dim blocks
    REAL_AND_DIM = {
        ("plus_plus", None): (3, 256),
        ("plus_plus", "zz"): (3, 256),
        ("phi+", None): (2, 256),
        ("plus_plus", "xxyy"): (3, 256),
        ("psi-", None): (1, 256),
    }

    @pytest.mark.parametrize(
        "state, gate, sectors, pairs_live, pairs_stepped",
        [
            # |++> leaves |S> empty: 9 live pairs of |00>, |T0>, |11>, each adjoint
            # pair of off-diagonal blocks stepped once
            ("plus_plus", None, 4, 9, 6),
            ("plus_plus", "zz", 4, 9, 6),
            # only the |00>,|11> pairs are live
            ("phi+", None, 4, 4, 3),
            ("plus_plus", "xxyy", 4, 9, 6),
            # the singlet alone
            ("psi-", None, 4, 1, 1),
        ],
    )
    def test_engine_counters(self, state, gate, sectors, pairs_live, pairs_stepped):
        gen, rho0 = probe_tlf_system(4, state, gate)
        traj = propagate(gen, rho0, 0.1, dt=0.05)
        names = ("sectors", "pairs_live", "pairs_stepped", "propagators_real", "block_dim_max")
        counters = {k: traj.stats[k] for k in names}
        real, dim_max = self.REAL_AND_DIM[(state, gate)]
        assert counters == {
            "sectors": sectors,
            "pairs_live": pairs_live,
            "pairs_stepped": pairs_stepped,
            "propagators_real": real,
            "block_dim_max": dim_max,
        }
        assert all(type(v) is int for v in counters.values())
        hygiene = ("max_trace_drift", "max_herm_dev", "min_eigenvalue", "eig_checks")
        assert set(traj.stats) == {*hygiene, *names, "chunk"}

    @pytest.mark.parametrize("n_tlf", [1, 2, 3])
    def test_xxyy_from_plus_plus_steps_probe_state_blocks(self, n_tlf):
        # |++> leaves the singlet empty: 9 of the 16 pairs are live, each block
        # 2^n_tlf square, so the block Liouvillians are 4^n_tlf square (n_tlf=4
        # is a case of test_engine_counters)
        gen, rho0 = probe_tlf_system(n_tlf, "plus_plus", "xxyy")
        traj = propagate(gen, rho0, 0.05, dt=0.05)
        assert (traj.stats["sectors"], traj.stats["pairs_live"]) == (4, 9)
        assert traj.stats["block_dim_max"] == 4**n_tlf

    @pytest.mark.parametrize("n_tlf", [1, 2])
    @pytest.mark.parametrize("gate", [None, "zz"])
    def test_distinct_blocks_are_not_merged(self, n_tlf, gate):
        # a random full-rank state: all 16 pairs are live, and each of the 10
        # unordered ones is stepped on its own, the 4 diagonal ones in the real basis
        gen, _ = probe_tlf_system(n_tlf, "plus_plus", gate)
        rng = np.random.default_rng(55)
        a = rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        dense = propagate(gen, rho0, 2.0, dt=0.05, marginal_keep=every_site(gen), method="dense")
        split = propagate(gen, rho0, 2.0, dt=0.05, marginal_keep=every_site(gen))
        counters = [split.stats[k] for k in ("pairs_live", "pairs_stepped", "propagators_real")]
        assert counters == [16, 10, 4]
        assert np.max(np.abs(dense.marginals - split.marginals)) < 1e-10

    @pytest.mark.parametrize(
        "state, gate", [("plus_plus", None), ("phi+", None), ("plus_plus", "xxyy")]
    )
    def test_hermitian_by_construction_over_a_long_horizon(self, state, gate):
        # nothing re-Hermitizes the state: the (a, a) blocks are stepped as real
        # coordinates in the Hermitian basis, so 3000 steps leave no rounding there
        # (the final state is assembled from those coordinates)
        gen, rho0 = probe_tlf_system(2, state, gate)
        traj = propagate(gen, rho0, 150.0, dt=0.05)
        assert np.array_equal(traj.final_state, traj.final_state.conj().T)
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
        # the whole state, recorded in chunks of grid points by the block engine
        gen, rho0 = probe_tlf_system(n_tlf, state, gate, variant, seed)
        a = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=every_site(gen))
        b = rk4_reference(gen, rho0, 2.0, dt=0.002, marginal_keep=every_site(gen), record_every=10)
        assert a.stats["chunk"] > 1
        assert np.max(np.abs(a.marginals - b.marginals)) < 1e-7

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
        traj = propagate(gen, rho0, 5.0, dt=0.05, marginal_keep=every_site(gen))
        for s in traj.marginals:
            assert abs(np.trace(s) - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-10
        assert np.array_equal(traj.final_state, traj.final_state.conj().T)
        assert traj.stats["max_herm_dev"] == 0.0


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
    """Make the cost rule choose B = b."""
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
            m_x = to_singlet_triplet(embed(SIGMA_X, 0, layout) + embed(SIGMA_X, 1, layout))
            return propagate(gen, rho0, n_steps * dt, dt=dt, record={"M_x": m_x})
        return propagate(gen, rho0, n_steps * dt, dt=dt, marginal_keep=(0, 1))

    @staticmethod
    def assert_matches(got, ref, b):
        assert (got.stats["chunk"], ref.stats["chunk"]) == (b, 1)
        for name, series in ref.expectations.items():
            assert np.max(np.abs(got.expectations[name] - series)) <= 1e-12
        if ref.marginals is not None:
            assert np.max(np.abs(got.marginals - ref.marginals)) <= 1e-12
        assert np.max(np.abs(got.final_state - ref.final_state)) <= 1e-12
        assert np.array_equal(got.t_grid, ref.t_grid)
        for key, value in ref.stats.items():
            if key in ("max_trace_drift", "min_eigenvalue"):
                assert abs(got.stats[key] - value) <= 1e-12, key
            elif key != "chunk":
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
            (99, 10),  # the last chunk ends on the last grid point, 9 steps past its start
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
        # the acceptance bank's spectrum point: 3999 steps of six 256-dim pairs
        traj = self.run("plus_plus-n4", 3999)
        assert traj.stats["chunk"] > 1 and 100 % traj.stats["chunk"] == 0
        assert traj.stats["pairs_stepped"] == 6

    def test_large_blocks_take_shorter_chunks(self):
        # an XX+YY gate point at the benchmark's size, with the probe pair in the
        # computational basis, where |01> and |10> share one 32-state sector: 300
        # steps with blocks up to 1024^2, where each power costs about as much as
        # the mat-vecs it saves, so B stays far below the 16-dim blocks' B at the
        # same step count
        gen, rho0 = probe_tlf_system(4, "plus_plus", "xxyy", ratio_eps=1.0, computational=True)
        traj = propagate(gen, rho0, 3 * 2 * np.pi, dt=0.01 * 2 * np.pi, marginal_keep=(0, 1))
        assert traj.stats["block_dim_max"] == 1024
        small = self.run("plus_plus-n2", 300)
        assert traj.stats["chunk"] < small.stats["chunk"] // 10


@pytest.mark.parametrize("workload", ["spectrum", "gate_xxyy"])
def test_one_pair_is_live_at_a_time(workload):
    # six stepped pairs of 256^2 blocks from |++> at n_tlf=4: the propagators,
    # their powers, the chunk rows and the exponential's workspace of one pair
    # at a time stay under 10 MiB, where all six pairs' at once took over 11 MiB
    if workload == "spectrum":
        gen, rho0 = probe_tlf_system(4, "plus_plus", seed=3, ratio_eps=3.0)
        run = dict(t_end=799 * 0.05, dt=0.05, record={"M_x": probe_magnetization(gen.layout)})
    else:
        gen, rho0 = probe_tlf_system(4, "plus_plus", "xxyy", seed=3, ratio_eps=1.0)
        dt = 0.01 * 2 * np.pi
        run = dict(t_end=300 * dt, dt=dt, marginal_keep=(0, 1))
    tracemalloc.start()
    try:
        traj = propagate(gen, rho0, **run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (traj.stats["pairs_stepped"], traj.stats["block_dim_max"]) == (6, 256)
    assert peak < 10 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("b", [1, 10])
def test_held_states_in_batches(b, monkeypatch):
    # a held-state budget of 3 or 7 states makes every pair's chunk starts span
    # several batches, the last of them holding the chunk that runs past the grid;
    # the records and the checked states must not move
    gen, rho0 = probe_tlf_system(2, "phi+", "xxyy")
    force_chunk(monkeypatch, b)
    run = dict(t_end=253 * 0.05, dt=0.05, marginal_keep=(0, 1))
    ref = propagate(gen, rho0, **run)
    for held in (3, 7):
        monkeypatch.setattr(dynamics, "_HELD_BYTES", held * 16 * 8)
        got = propagate(gen, rho0, **run)
        assert np.max(np.abs(got.marginals - ref.marginals)) <= 1e-14
        assert np.array_equal(got.final_state, ref.final_state)
        assert got.stats == ref.stats


def test_non_hermitian_record_operator_reads_the_real_part(monkeypatch):
    # sigma+ on probe A: Re tr(O rho), read through O's Hermitian part, by the
    # block engine in one step per point and in chunks, and by RK4
    gen, rho0 = probe_tlf_system(2, "plus_plus")
    layout = SubsystemLayout((2,) * 4)
    op = to_singlet_triplet(embed(SIGMA_PLUS, 0, layout))
    assert not np.allclose(op, op.conj().T)
    dense = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=every_site(gen), method="dense")
    want = np.einsum("ij,nji->n", op, dense.marginals).real
    assert np.max(np.abs(want)) > 0.1
    for b in (1, 10):
        force_chunk(monkeypatch, b)
        traj = propagate(gen, rho0, 2.0, dt=0.02, record={"s+": op})
        assert traj.stats["chunk"] == b
        assert np.max(np.abs(traj.expectations["s+"] - want)) < 1e-12
    rk4 = rk4_reference(gen, rho0, 2.0, dt=0.002, record={"s+": op}, record_every=10)
    assert np.max(np.abs(rk4.expectations["s+"] - want)) < 1e-7


@pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
def test_marginals_of_other_kept_sites(keep):
    # one fluctuator: sites 0 and 1 hold the probe pair, 2 the fluctuator; each
    # route's recorded marginals against the partial traces of the dense states
    gen, rho0 = probe_tlf_system(1, "plus_plus", "xxyy")
    layout = SubsystemLayout((2,) * 3)
    dense = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=every_site(gen), method="dense")
    want = np.array([partial_trace(r, keep, layout) for r in dense.marginals])
    kd = 2 ** len(keep)
    for method in ("sector", "dense"):
        traj = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=keep, method=method)
        assert traj.marginals.shape == (101, kd, kd)
        assert np.max(np.abs(traj.marginals - want)) < 1e-12
    rk4 = rk4_reference(gen, rho0, 2.0, dt=0.002, marginal_keep=keep, record_every=10)
    whole = rk4_reference(gen, rho0, 2.0, dt=0.002, marginal_keep=every_site(gen),
                          record_every=10)
    own = np.array([partial_trace(r, keep, layout) for r in whole.marginals])
    assert np.max(np.abs(rk4.marginals - own)) < 1e-14
    assert np.max(np.abs(rk4.marginals - want)) < 1e-7


@pytest.mark.parametrize("keep", [(0, 1), (1,), (0, 2)])
@pytest.mark.parametrize("n_tlf", [1, 2])
def test_marginal_rows_are_the_one_hot_contraction(n_tlf, keep):
    # the reference: entry (x, y) as the contraction over the traced index z of
    # one-hot rows, which the rows filled by index must reproduce bit for bit
    layout = SubsystemLayout((2,) * (2 + n_tlf))
    rows = dynamics._Recorder(1, None, keep, layout).functionals()
    dim, kd = layout.total_dim, 2 ** len(keep)
    order = list(keep) + [s for s in range(layout.n_sites) if s not in keep]
    full = np.arange(dim).reshape(layout.dims).transpose(order).reshape(kd, -1)
    one_hot = np.eye(dim, dtype=complex)[full]
    entries = np.einsum("xzi,yzj->xyij", one_hot, one_hot).reshape(kd**2, -1)
    want = _mix_pairs(entries.T, _hermitian_pairs(kd), _W_PAIR.conj().T).T.reshape(-1, dim, dim)
    assert rows.dtype == want.dtype and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("keep", [(0, 0), (2,), (-1,), ()])
def test_marginal_keep_is_checked_alike_by_both_integrators(keep):
    # a repeated, out-of-range or empty keep set is refused before any step
    gen = LindbladGenerator(h=kron(SIGMA_Z, I2), jumps=[(0.1, kron(I2, SIGMA_MINUS))],
                            layout=SubsystemLayout((2, 2)))
    rho0 = np.eye(4, dtype=complex) / 4
    for integrate in (propagate, rk4_reference):
        with pytest.raises(ValueError, match="marginal_keep"):
            integrate(gen, rho0, 0.1, 0.01, marginal_keep=keep)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4, 4), (16,)])
def test_record_operators_are_checked_alike_by_both_integrators(shape, monkeypatch):
    # an operator of the wrong shape is refused, by its key, before any step map
    def build(*args, **kwargs):
        raise AssertionError("step map built")

    gen = LindbladGenerator(h=kron(SIGMA_Z, I2), jumps=[(0.1, kron(I2, SIGMA_MINUS))],
                            layout=SubsystemLayout((2, 2)))
    monkeypatch.setattr(dynamics, "find_invariant_sectors", build)
    monkeypatch.setattr(LindbladGenerator, "norm_bound", build)
    rho0 = np.eye(4, dtype=complex) / 4
    record = {"ok": np.eye(4), "bad": np.ones(shape)}
    for integrate in (propagate, rk4_reference):
        with pytest.raises(ValueError, match="record 'bad'"):
            integrate(gen, rho0, 0.1, 0.01, record=record)


def test_gated_point_builds_its_propagators_without_a_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    gen, rho0 = probe_tlf_system(2, "plus_plus", "xxyy")
    monkeypatch.setattr(np.linalg, "solve", solve)
    traj = propagate(gen, rho0, 1.0, dt=0.05, marginal_keep=(0, 1))
    assert traj.stats["pairs_stepped"] > 1 and np.isfinite(traj.marginals).all()


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
        gen = build_operators(ens, cfg)
        rho0 = initial_state(state, tlf_ground_state(ens, cfg), gen)
        traj = propagate(gen, rho0, 5 * 2 * np.pi, dt=2 * np.pi / 50, marginal_keep=(0, 1))
        assert np.max(np.abs(traj.marginals - traj.marginals[0])) < 1e-8

        from tlfsim.observables import log_negativity

        u = SINGLET_TRIPLET
        for marg in traj.marginals[:: len(traj.marginals) // 10]:
            assert abs(log_negativity(u @ marg @ u.T) - 1.0) < 1e-8  # the product basis


class TestRk4:
    def test_matches_analytic_damping(self):
        gen = damping_generator(1.0)
        traj = rk4_reference(gen, EXCITED, 10.0, dt=1e-3, record={"pe": EXCITED}, record_every=100)
        assert np.max(np.abs(traj.expectations["pe"] - np.exp(-traj.t_grid))) < 1e-8

    def test_matches_step_propagator_random(self):
        gen = random_two_qubit_generator(6)
        rho0 = np.eye(4, dtype=complex) / 4
        a = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=every_site(gen))
        b = rk4_reference(gen, rho0, 2.0, dt=0.002, marginal_keep=every_site(gen), record_every=10)
        assert np.max(np.abs(a.marginals - b.marginals)) < 1e-7

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
        a = propagate(gen, rho0, 2.0, dt=0.02, marginal_keep=(0, 1))
        b = rk4_reference(gen, rho0, 2.0, dt=0.002, marginal_keep=(0, 1), record_every=10)
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
    gen = LindbladGenerator(h=h, jumps=jumps, layout=layout)
    psi = np.kron(PLUS, np.array([0, 1], dtype=complex))
    rho0 = np.outer(psi, psi.conj())
    t_end = 100 * 2 * np.pi
    dt = 2 * np.pi / 50
    a = propagate(gen, rho0, t_end, dt=dt, marginal_keep=every_site(gen), method="dense")
    b = rk4_reference(gen, rho0, t_end, dt=dt / 8, marginal_keep=every_site(gen), record_every=8)
    assert np.max(np.abs(a.marginals - b.marginals)) < 1e-6
