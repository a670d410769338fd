import numpy as np
import pytest

from tlfsim.linalg import (
    I2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SubsystemLayout,
    embed,
    expm,
    kron,
    vec,
)
from tlfsim.dynamics import (
    LindbladGenerator,
    PropagationError,
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


def damping_generator(rate=1.0):
    return LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_MINUS)])


def random_two_qubit_generator(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    j1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return LindbladGenerator(h=h, jumps=[(0.3, j1), (0.1, kron(SIGMA_Z, I2))])


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

    def test_cptp_stats_clean(self):
        gen = random_two_qubit_generator(5)
        rho0 = np.eye(4, dtype=complex) / 4
        traj = propagate(gen, rho0, 5.0, dt=0.01, check_stride=50)
        assert traj.stats["max_trace_drift"] <= 1e-9
        assert traj.stats["max_herm_dev"] <= 1e-9
        assert traj.stats["min_eigenvalue"] >= -1e-7


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

    def test_unknown_method_rejected(self):
        gen, rho0, _ = self.make_system()
        with pytest.raises(ValueError):
            propagate(gen, rho0, 1.0, dt=0.05, method="magic")


MODEL_VARIANTS = {
    "plain": {},
    "warm": {"nbar": 0.5, "gamma_plus_mode": "sampled"},
    "halved": {"halve_couplings": True},
}


def probe_tlf_system(n_tlf, state, gate=None, variant="plain", seed=21):
    cfg = ModelConfig(n_tlf=n_tlf, mu_over_nu=1.0, seed=seed, **MODEL_VARIANTS[variant])
    ens = sample_ensemble(cfg)
    ops = build_operators(ens, cfg)
    if gate is not None:
        ops = add_gate(ops, gate, float(ens.nu))
    rho0 = initial_state(state, tlf_ground_state(ens, cfg), ops.layout)
    return LindbladGenerator.from_system(ops), rho0


class TestBlockEngine:
    """The live-pair, class-shared block engine against the dense propagator."""

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
        counters = {k: traj.stats[k] for k in ("sectors", "pairs_live", "propagators")}
        assert counters == {
            "sectors": sectors, "pairs_live": pairs_live, "propagators": propagators
        }
        assert all(type(v) is int for v in counters.values())


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
