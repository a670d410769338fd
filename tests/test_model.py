import dataclasses
import itertools

import numpy as np
import pytest
import scipy.stats
from numpy import kron

from tlfsim.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, SubsystemLayout, embed, pauli_string
from tlfsim.model import (
    GATE_TERMS,
    PROBE_STATES,
    ConfigurationError,
    GroundStateDegeneracyError,
    ModelConfig,
    TlfEnsemble,
    add_gate,
    build_operators,
    dressed_rates,
    hamiltonian_terms,
    initial_state,
    probe_magnetization,
    probe_only_operators,
    probe_state_vector,
    ring_bonds,
    sample_ensemble,
    sample_linear,
    sample_loguniform,
    term_matrix,
    tlf_ground_state,
    tlf_hamiltonian,
)
from tlfsim.dynamics import find_invariant_sectors, propagate


class FixedRng:
    """Returns a preset uniform value for inverse-CDF endpoint checks."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestSamplers:
    def test_linear_law_endpoint(self):
        eps_bar = 2.0
        out = sample_linear(FixedRng(0.0), 0.5 * eps_bar, 1.5 * eps_bar, 3)
        assert np.allclose(out, 0.5 * eps_bar, atol=1e-15)

    def test_linear_law_upper_endpoint(self):
        out = sample_linear(FixedRng(1.0), 1.0, 3.0, 1)
        assert np.allclose(out, 3.0, atol=1e-12)

    def test_loguniform_geometric_midpoint(self):
        a, b = 0.2, 0.8
        out = sample_loguniform(FixedRng(0.5), a, b, 4)
        assert np.allclose(out, np.sqrt(a * b), atol=1e-13)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_linear(FixedRng(0.5), 1.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            sample_loguniform(FixedRng(0.5), 0.0, 1.0, 1)

    def test_linear_law_distribution(self):
        rng = np.random.default_rng(100)
        a, b = 0.5, 1.5
        draws = sample_linear(rng, a, b, 10_000)
        stat = scipy.stats.kstest(draws, lambda x: (x**2 - a**2) / (b**2 - a**2)).statistic
        assert stat < 0.02

    def test_loguniform_distribution(self):
        rng = np.random.default_rng(101)
        a, b = 0.05, 0.15
        draws = sample_loguniform(rng, a, b, 10_000)
        stat = scipy.stats.kstest(draws, lambda x: np.log(x / a) / np.log(b / a)).statistic
        assert stat < 0.02


class TestConfig:
    def test_derived_means(self):
        cfg = ModelConfig(omega_p=1.0, ratio_eps=3.0, tan_theta_bar=1.0 / 3.0)
        assert np.isclose(cfg.eps_bar, 1.0 / 3.0)
        assert np.isclose(cfg.delta_bar, 1.0 / 9.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_p": 0.0},
            {"n_tlf": 0},
            {"ratio_eps": -1.0},
            {"tan_theta_bar": 0.0},
            {"mu_over_nu": -0.1},
            {"nbar": -1.0},
            {"gamma_plus_mode": "bogus"},
            {"omega_p": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelConfig(**kwargs)


class TestEnsemble:
    def test_parameter_ranges(self):
        cfg = ModelConfig(ratio_eps=3.0, tan_theta_bar=1.0 / 3.0, seed=3)
        ens = sample_ensemble(cfg)
        half = 0.5 * min(cfg.omega_p, cfg.delta_bar)
        assert np.all(ens.eps >= 0.5 * cfg.eps_bar) and np.all(ens.eps <= 1.5 * cfg.eps_bar)
        assert np.all(ens.delta >= cfg.delta_bar - half)
        assert np.all(ens.delta <= cfg.delta_bar + half)
        lo, hi = ens.omega_min / 6, ens.omega_min / 2
        for rates in (ens.gamma_z, ens.gamma_minus):
            assert np.all(rates >= lo) and np.all(rates <= hi)
        assert np.all(ens.gamma_plus == 0.0)
        assert np.isclose(ens.nu, ens.omega_min / 3)

    def test_determinism(self):
        cfg = ModelConfig(seed=11)
        a = sample_ensemble(cfg)
        b = sample_ensemble(cfg)
        for name in ("eps", "delta", "gamma_z", "gamma_minus", "gamma_plus"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_sampled_gamma_plus_mode(self):
        cfg = ModelConfig(seed=4, gamma_plus_mode="sampled")
        ens = sample_ensemble(cfg)
        lo, hi = ens.omega_min / 6, ens.omega_min / 2
        assert np.all(ens.gamma_plus >= lo) and np.all(ens.gamma_plus <= hi)

    def test_underdamped_by_construction(self):
        for seed in range(10):
            ens = sample_ensemble(ModelConfig(seed=seed))
            assert np.all(ens.gamma_z < ens.omega)
            assert np.all(ens.gamma_minus < ens.omega)

    def test_overdamped_warning(self):
        # nbar = 10 forces the absorption rate past the slowest TLF frequency
        cfg = ModelConfig(seed=5, nbar=10.0)
        with pytest.warns(RuntimeWarning):
            sample_ensemble(cfg)

    def test_rate_identity(self):
        # dissipation-limited dephasing at zero temperature: the dressed
        # dephasing-to-emission ratio must be cot^2(theta)
        theta = np.array([np.arctan(1.0 / 3.0), 0.4, 1.1])
        gamma_minus = np.array([0.1, 0.2, 0.05])
        big_z, big_minus, _ = dressed_rates(gamma_minus / 2, gamma_minus, 0.0 * gamma_minus, theta)
        assert np.allclose(big_z / big_minus, 1.0 / np.tan(theta) ** 2, rtol=1e-12)

    def test_dressed_rate_formulas(self):
        theta = np.array([0.3])
        gz, gm, gp = np.array([0.12]), np.array([0.07]), np.array([0.02])
        big_z, big_minus, big_plus = dressed_rates(gz, gm, gp, theta)
        assert np.isclose(big_z[0], 0.12 * np.cos(0.3) ** 2 / 2)
        assert np.isclose(big_minus[0], 0.09 * np.sin(0.3) ** 2 / 4)
        assert np.isclose(big_plus[0], 0.02 * np.sin(0.3) ** 2 / 4)


def test_ring_bonds():
    assert ring_bonds(1) == []
    assert ring_bonds(2) == [(0, 1)]
    assert ring_bonds(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]


class TestBuildOperators:
    def test_free_spectrum(self):
        # nu = mu = 0: eigenvalues are every sign combination of half-splittings
        cfg = ModelConfig(n_tlf=2, seed=6)
        ens = dataclasses.replace(sample_ensemble(cfg), nu=0.0, mu=0.0)
        ops = build_operators(ens, cfg)
        expected = sorted(
            s0 * cfg.omega_p / 2 + s1 * cfg.omega_p / 2 + s2 * ens.omega[0] / 2 + s3 * ens.omega[1] / 2
            for s0, s1, s2, s3 in itertools.product((1, -1), repeat=4)
        )
        eigs = np.sort(np.linalg.eigvalsh(ops.h))
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_zero_local_field_is_diagonal(self):
        cfg = ModelConfig(n_tlf=2, mu_over_nu=1.0, seed=7)
        ens = TlfEnsemble.from_bare(
            eps=np.array([0.3, 0.4]),
            delta=np.array([0.0, 0.0]),
            gamma_z=np.array([0.05, 0.05]),
            gamma_minus=np.array([0.05, 0.05]),
            gamma_plus=np.array([0.0, 0.0]),
            mu_over_nu=1.0,
        )
        ops = build_operators(ens, cfg)
        off_diag = ops.h - np.diag(np.diag(ops.h))
        assert np.count_nonzero(off_diag) == 0

    def test_single_tlf_against_hand_assembly(self):
        cfg = ModelConfig(n_tlf=1, seed=8)
        ens = TlfEnsemble.from_bare(
            eps=np.array([0.25]),
            delta=np.array([0.25]),  # mixing angle pi/4
            gamma_z=np.array([0.06]),
            gamma_minus=np.array([0.04]),
            gamma_plus=np.array([0.0]),
            mu_over_nu=0.0,
        )
        assert np.isclose(ens.theta[0], np.pi / 4)
        ops = build_operators(ens, cfg)

        s, c = np.sin(ens.theta[0]), np.cos(ens.theta[0])
        z_a = kron(SIGMA_Z, kron(I2, I2))
        z_b = kron(I2, kron(SIGMA_Z, I2))
        z_t = kron(I2, kron(I2, SIGMA_Z))
        x_t = kron(I2, kron(I2, SIGMA_X))
        h_hand = (
            0.5 * cfg.omega_p * (z_a + z_b)
            + 0.5 * ens.omega[0] * z_t
            + ens.nu * (z_a + z_b) @ (c * z_t - s * x_t)
        )
        assert np.allclose(ops.h, h_hand, atol=1e-13)

    def test_jump_count_and_rates(self):
        cfg = ModelConfig(n_tlf=3, seed=9)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        # absorption dropped at zero temperature: two jumps per fluctuator
        assert len(ops.rates) == len(ops.jump_ops) == 2 * 3
        cfg_hot = ModelConfig(n_tlf=3, seed=9, nbar=0.5)
        ops_hot = build_operators(sample_ensemble(cfg_hot), cfg_hot)
        assert len(ops_hot.rates) == len(ops_hot.jump_ops) == 3 * 3

    def test_halve_couplings_flag(self):
        cfg = ModelConfig(n_tlf=2, mu_over_nu=1.0, seed=10)
        cfg_half = dataclasses.replace(cfg, halve_couplings=True)
        h_full = build_operators(sample_ensemble(cfg), cfg).h
        h_half = build_operators(sample_ensemble(cfg_half), cfg_half).h
        ens = sample_ensemble(cfg)
        cfg0 = dataclasses.replace(cfg, mu_over_nu=0.0)
        h_base = build_operators(dataclasses.replace(ens, mu=0.0), cfg0).h
        assert np.allclose(h_half - h_base, 0.5 * (h_full - h_base), atol=1e-13)

    def test_decoupled_probe_precesses(self):
        # nu = 0 leaves the probe marginal precessing at the bare frequency
        cfg = ModelConfig(n_tlf=2, seed=12)
        ens = dataclasses.replace(sample_ensemble(cfg), nu=0.0, mu=0.0)
        gen = build_operators(ens, cfg)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), gen)
        sx_a = to_singlet_triplet(kron(SIGMA_X, np.eye(8, dtype=complex)))
        traj = propagate(gen, rho0, t_end=4 * 2 * np.pi, dt=2 * np.pi / 200, record={"sx_a": sx_a})
        assert np.max(np.abs(traj.expectations["sx_a"] - np.cos(cfg.omega_p * traj.t_grid))) < 1e-8


PAULI = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# columns: the singlet-triplet probe states |00>, |T0>, |S>, |11> in the computational basis
SINGLET_TRIPLET = np.array(
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]]
) * np.sqrt([1.0, 0.5, 0.5, 1.0])


def to_singlet_triplet(op):
    """The computational-basis operator ``op`` (probe pair first) with its probe pair
    taken to the singlet-triplet basis, as a dense product."""
    u = kron(SINGLET_TRIPLET, np.eye(len(op) // 4))
    return u.T @ op @ u


@pytest.mark.parametrize("gate", sorted(GATE_TERMS))
def test_gated_isolated_probe_against_kron(gate):
    s = 0.37
    ops = add_gate(probe_only_operators(), gate, s)
    h = 0.5 * (kron(SIGMA_Z, I2) + kron(I2, SIGMA_Z))
    for a, b in GATE_TERMS[gate]:
        h = h + s * kron(PAULI[a], PAULI[b])
    m_x = kron(SIGMA_X, I2) + kron(I2, SIGMA_X)
    assert np.max(np.abs(ops.h - to_singlet_triplet(h))) <= 1e-15
    assert np.max(np.abs(probe_magnetization(ops.layout) - to_singlet_triplet(m_x))) <= 1e-15
    assert ops.rates.shape == (0,) and ops.jump_ops.shape == (0, 4, 4)


@pytest.mark.parametrize("gate", sorted(GATE_TERMS))
def test_add_gate_returns_a_new_generator(gate):
    cfg = ModelConfig(n_tlf=2, seed=3, nbar=0.5)
    gen = build_operators(sample_ensemble(cfg), cfg)
    h, rates, jump_ops = gen.h.copy(), gen.rates.copy(), gen.jump_ops.copy()
    gated = add_gate(gen, gate, 0.37)
    # the input is left as it was
    for got, want in ((gen.h, h), (gen.rates, rates), (gen.jump_ops, jump_ops)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the jumps and layout are carried over bit for bit, and the gate's terms are
    # added to the Hamiltonian one at a time
    want_h = h
    for lab in GATE_TERMS[gate]:
        want_h = want_h + 0.37 * term_matrix(lab + "II")
    for got, want in ((gated.h, want_h), (gated.rates, rates), (gated.jump_ops, jump_ops)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert gated.layout == gen.layout


def test_unknown_gate_rejected():
    with pytest.raises(ConfigurationError, match="unknown gate 'cnot'"):
        add_gate(probe_only_operators(), "cnot", 0.1)


@pytest.mark.parametrize("strength", [None, float("nan"), float("inf"), True])
def test_gate_strength_must_be_a_finite_number(strength):
    with pytest.raises(ConfigurationError, match="gate strength"):
        add_gate(probe_only_operators(), "zz", strength)


@pytest.mark.parametrize("label", ["II", "ZI", "IZ", "ZZ", "XX", "YY"])
def test_singlet_triplet_paulis_are_exact(label):
    # with the unnormalized |00>, |01> + |10>, |01> - |10>, |11> every product is an
    # exact integer: the table's (T0, S) block is half of it, the rest equal
    u = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
    scale = np.array([[1, 1, 1, 1], [1, 2, 2, 1], [1, 2, 2, 1], [1, 1, 1, 1]])
    p = kron(PAULI[label[0]], PAULI[label[1]])
    assert np.array_equal(u.T @ p @ u, scale * term_matrix(label))
    assert np.array_equal(term_matrix(label + "XZ"),
                          kron(term_matrix(label), kron(SIGMA_X, SIGMA_Z)))


@pytest.mark.parametrize("n_tlf", [1, 2, 4])
@pytest.mark.parametrize("gate", [None, "zz", "xxyy"])
def test_computational_hamiltonian_is_the_pauli_sum(n_tlf, gate):
    # the plain sum of the scaled Pauli strings, taken to the singlet-triplet basis
    # as a dense product, is the assembled Hamiltonian; and there the sparsity
    # pattern alone, with no tolerance, splits off each probe state
    for seed in (1, 2, 3):
        cfg = ModelConfig(n_tlf=n_tlf, seed=seed, mu_over_nu=1.0)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        terms = hamiltonian_terms(ens, cfg)
        if gate is not None:
            ops = add_gate(ops, gate, float(ens.nu))
            terms += [(float(ens.nu), lab + "I" * n_tlf) for lab in GATE_TERMS[gate]]
        h_pauli = sum(c * pauli_string(lab) for c, lab in terms)
        assert np.max(np.abs(to_singlet_triplet(h_pauli) - ops.h)) <= 1e-15
        sectors = find_invariant_sectors(ops)
        assert [len(s) for s in sectors] == [2**n_tlf] * 4


@pytest.mark.parametrize("state", PROBE_STATES)
def test_singlet_triplet_initial_state(state):
    # the probe vector is (psi_01 +- psi_10) sqrt(1/2) in the T0 and S places: |++>
    # and the triplets leave |S> exactly empty, the singlet fills it alone
    cfg = ModelConfig(n_tlf=2, seed=17)
    ens = sample_ensemble(cfg)
    tlf = tlf_ground_state(ens, cfg)
    rho = initial_state(state, tlf, build_operators(ens, cfg)).reshape(4, 4, 4, 4)
    psi = SINGLET_TRIPLET.T @ probe_state_vector(state)
    expected = np.kron(np.outer(psi, psi.conj()), tlf).reshape(4, 4, 4, 4)
    assert np.max(np.abs(rho - expected)) <= 1e-15
    singlet = np.abs(rho[2]).max() + np.abs(rho[:, :, 2]).max()
    assert (singlet > 0) == (state == "psi-")
    if state == "psi-":
        assert not rho[[0, 1, 3]].any() and not rho[:, :, [0, 1, 3]].any()


def embedded_register_hamiltonian(ens, cfg):
    """Oracle: the register Hamiltonian from embedded single-site operators,
    with each ring bond a product of the two charge operators."""
    layout = SubsystemLayout((2,) * ens.n_tlf)
    cos_t, sin_t = np.cos(ens.theta), np.sin(ens.theta)
    h = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for j in range(ens.n_tlf):
        h += (ens.omega[j] / 2.0) * embed(SIGMA_Z, j, layout)
    mu_eff = ens.mu / 2.0 if cfg.halve_couplings else ens.mu
    for j, k in ring_bonds(ens.n_tlf):
        xj = cos_t[j] * embed(SIGMA_Z, j, layout) - sin_t[j] * embed(SIGMA_X, j, layout)
        xk = cos_t[k] * embed(SIGMA_Z, k, layout) - sin_t[k] * embed(SIGMA_X, k, layout)
        h += mu_eff * (xj @ xk)
    return h


@pytest.mark.parametrize("n_tlf", [1, 2, 3, 4, 5])
def test_register_hamiltonian_against_embedded_oracle(n_tlf):
    for seed, mu_over_nu, halve in itertools.product((1, 2, 7), (0.0, 1.0), (False, True)):
        cfg = ModelConfig(n_tlf=n_tlf, seed=seed, mu_over_nu=mu_over_nu, halve_couplings=halve)
        ens = sample_ensemble(cfg)
        h = tlf_hamiltonian(ens, cfg)
        assert np.max(np.abs(h - embedded_register_hamiltonian(ens, cfg))) <= 1e-15


class TestGroundState:
    def test_uncoupled_product_state(self):
        cfg = ModelConfig(n_tlf=3, mu_over_nu=0.0, seed=13)
        ens = sample_ensemble(cfg)
        rho = tlf_ground_state(ens, cfg)
        expected = np.zeros((8, 8), dtype=complex)
        expected[7, 7] = 1.0  # all fluctuators in the lower eigenstate
        assert np.allclose(rho, expected, atol=1e-12)

    def test_single_tlf_any_angle(self):
        cfg = ModelConfig(n_tlf=1, seed=14)
        ens = TlfEnsemble.from_bare(
            eps=np.array([0.1]),
            delta=np.array([0.4]),
            gamma_z=np.array([0.02]),
            gamma_minus=np.array([0.02]),
            gamma_plus=np.array([0.0]),
            mu_over_nu=0.0,
        )
        rho = tlf_ground_state(ens, cfg)
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)

    def test_coupled_pair_against_brute_force(self):
        # theta = pi/2 pair: charge operators reduce to transverse spin flips
        cfg = ModelConfig(n_tlf=2, mu_over_nu=1.0, seed=15)
        ens = TlfEnsemble.from_bare(
            eps=np.array([0.0, 0.0]),
            delta=np.array([0.3, 0.3]),
            gamma_z=np.array([0.03, 0.03]),
            gamma_minus=np.array([0.03, 0.03]),
            gamma_plus=np.array([0.0, 0.0]),
            mu_over_nu=1.0,
        )
        rho = tlf_ground_state(ens, cfg)
        omega = ens.omega[0]
        h_hand = 0.5 * omega * (kron(SIGMA_Z, I2) + kron(I2, SIGMA_Z)) + ens.mu * kron(
            SIGMA_X, SIGMA_X
        )
        w, v = np.linalg.eigh(h_hand)
        expected = np.outer(v[:, 0], v[:, 0].conj())
        assert np.allclose(rho, expected, atol=1e-10)

    def test_degenerate_ground_space_reported(self, monkeypatch):
        cfg = ModelConfig(n_tlf=2, seed=16)
        ens = sample_ensemble(cfg)
        degenerate = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        monkeypatch.setattr("tlfsim.model.tlf_hamiltonian", lambda e, c: degenerate)
        with pytest.raises(GroundStateDegeneracyError):
            tlf_ground_state(ens, cfg)


class TestInitialState:
    def setup_method(self):
        self.cfg = ModelConfig(n_tlf=2, seed=17)
        self.ens = sample_ensemble(self.cfg)
        self.ops = build_operators(self.ens, self.cfg)
        self.layout = self.ops.layout
        self.tlf = tlf_ground_state(self.ens, self.cfg)

    def test_plus_plus_magnetization(self):
        rho = initial_state("plus_plus", self.tlf, self.ops)
        from tlfsim.linalg import embed, partial_trace

        for qubit in (0, 1):
            sx = to_singlet_triplet(embed(SIGMA_X, qubit, self.layout))
            assert np.isclose(np.trace(sx @ rho).real, 1.0, atol=1e-12)

    def test_bell_marginal_maximally_entangled(self):
        from tlfsim.observables import log_negativity
        from tlfsim.linalg import partial_trace

        rho = initial_state("phi+", self.tlf, self.ops)
        u = SINGLET_TRIPLET
        probe = u @ partial_trace(rho, (0, 1), self.layout) @ u.T  # the product basis
        assert np.isclose(log_negativity(probe), 1.0, atol=1e-12)

    def test_singlet_annihilated_by_total_z(self):
        psi = probe_state_vector("psi-")
        total_z = kron(SIGMA_Z, I2) + kron(I2, SIGMA_Z)
        assert np.allclose(total_z @ psi, 0.0, atol=1e-15)

    def test_unit_trace_hermitian_psd(self):
        rho = initial_state("psi+", self.tlf, self.ops)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_malformed_tlf_state_rejected(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(ValueError):
            initial_state("plus_plus", bad, self.ops)
        for bad, message in [
            (np.eye(2) / 2, "shape"),
            (np.diag([1.0, 0, 0, 0]) + 0.1j * np.eye(4, k=1), "not Hermitian"),
            (np.diag([1.2, -0.2, 0, 0]), "not positive semidefinite"),
        ]:
            with pytest.raises(ValueError, match=message):
                initial_state("plus_plus", bad.astype(complex), self.ops)
        with pytest.raises(ConfigurationError):
            probe_state_vector("nope")
