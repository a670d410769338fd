import warnings

import numpy as np
import pytest
from numpy import kron

from test_linalg import partial_transpose, trace_norm
from tlfsim.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SubsystemLayout,
    herm_eig,
)
from tlfsim.dynamics import LindbladGenerator, PropagationError, propagate
from tlfsim.model import ModelConfig, build_operators, initial_state, probe_only_operators, probe_state_vector, sample_ensemble, tlf_ground_state
from tlfsim.observables import (
    EntanglementTrace,
    TimeSeries,
    correlation_matrix,
    entanglement_lifetime,
    entanglement_trace,
    log_negativity,
    lower_bound_c2prime,
    magnetization_series,
    p_of_t,
    power_spectrum,
    _correlators,
)

PHI_PLUS = probe_state_vector("phi+")
PLUS_PLUS = probe_state_vector("plus_plus")


def dm(psi):
    return np.outer(psi, psi.conj())


class TestTimeSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(t_grid=np.arange(3.0), values=np.zeros(4), step=1.0)

    def test_non_uniform_grid(self):
        t = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError):
            TimeSeries(t_grid=t, values=np.zeros(3), step=1.0)


class TestMagnetization:
    def test_plus_plus_is_two(self):
        ops = probe_only_operators()
        gen = LindbladGenerator.from_system(ops)
        traj = propagate(gen, dm(PLUS_PLUS), 0.1, dt=0.1, record={"M_x": ops.m_x})
        series = magnetization_series(traj)
        assert np.isclose(series.values[0], 2.0, atol=1e-12)

    def test_maximally_mixed_is_zero(self):
        ops = probe_only_operators()
        gen = LindbladGenerator.from_system(ops)
        traj = propagate(gen, np.eye(4, dtype=complex) / 4, 0.1, dt=0.1, record={"M_x": ops.m_x})
        assert np.allclose(magnetization_series(traj).values, 0.0, atol=1e-12)

    def test_isolated_probe_precession(self):
        ops = probe_only_operators()
        gen = LindbladGenerator.from_system(ops)
        traj = propagate(gen, dm(PLUS_PLUS), 4 * 2 * np.pi, dt=2 * np.pi / 100,
                         record={"M_x": ops.m_x})
        series = magnetization_series(traj)
        assert np.max(np.abs(series.values - 2 * np.cos(traj.t_grid))) < 1e-8
        assert np.all(np.abs(series.values) <= 2 + 1e-12)

    def test_from_marginals(self):
        cfg = ModelConfig(n_tlf=2, seed=30)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
        traj = propagate(gen, rho0, 1.0, dt=0.05, record={"M_x": ops.m_x},
                         marginal_keep=(0, 1), layout=ops.layout)
        m_x = kron(SIGMA_X, I2) + kron(I2, SIGMA_X)
        from_marginal = np.einsum("ij,nji->n", m_x, traj.marginals).real
        assert np.allclose(magnetization_series(traj).values, from_marginal, atol=1e-12)

    def test_missing_record_raises(self):
        ops = probe_only_operators()
        gen = LindbladGenerator.from_system(ops)
        traj = propagate(gen, dm(PLUS_PLUS), 0.1, dt=0.1)
        with pytest.raises(ValueError):
            magnetization_series(traj)


class TestPowerSpectrum:
    def test_constant_series_is_silent(self):
        n, ts = 64, 0.05
        series = TimeSeries(t_grid=ts * np.arange(n), values=np.full(n, 3.7), step=ts)
        spec = power_spectrum(series)
        assert np.allclose(spec.power, 0.0, atol=1e-20)

    def test_on_grid_cosine_single_bin(self):
        # closed form: an on-grid cosine of amplitude A puts ts*N*A^2/4 into
        # its bin and nothing elsewhere
        n, ts, k0, amp = 256, 0.05, 16, 1.5
        t = ts * np.arange(n)
        omega0 = 2 * np.pi * k0 / (n * ts)
        series = TimeSeries(t_grid=t, values=amp * np.cos(omega0 * t), step=ts)
        spec = power_spectrum(series)
        expected_peak = ts * n * amp**2 / 4
        assert np.argmax(spec.power) == k0
        assert np.isclose(spec.power[k0], expected_peak, rtol=1e-9)
        others = np.delete(spec.power, k0)
        assert np.max(others) < 1e-12
        assert np.isclose(spec.omega[k0], omega0, atol=1e-12)

    def test_parseval(self):
        # summing over the full two-sided grid: sum S * d_omega = 2 pi var
        rng = np.random.default_rng(31)
        n, ts = 200, 0.1
        values = rng.normal(size=n)
        series = TimeSeries(t_grid=ts * np.arange(n), values=values, step=ts)
        spec = power_spectrum(series)
        d_omega = 2 * np.pi / (n * ts)
        two_sided = 2 * np.sum(spec.power[1:-1]) + spec.power[0] + spec.power[-1]
        variance = np.var(values)
        assert np.isclose(two_sided * d_omega, 2 * np.pi * variance, rtol=1e-9)

    def test_sampling_parameters(self):
        n, ts = 4000, 0.05
        series = TimeSeries(t_grid=ts * np.arange(n), values=np.sin(np.arange(n)), step=ts)
        spec = power_spectrum(series)
        assert len(spec.power) == n // 2 + 1

    def test_too_short_rejected(self):
        series = TimeSeries(t_grid=0.1 * np.arange(8), values=np.zeros(8), step=0.1)
        with pytest.raises(ValueError):
            power_spectrum(series)


class TestLogNegativity:
    def test_bell_state(self):
        assert np.isclose(log_negativity(dm(PHI_PLUS)), 1.0, atol=1e-12)

    def test_product_state(self):
        psi = np.kron([1, 0], [1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert log_negativity(dm(psi)) == 0.0

    def test_werner_state(self):
        # eigenvalues of the partially transposed state give log2(5/4)
        p = 0.5
        rho = p * dm(PHI_PLUS) + (1 - p) * np.eye(4) / 4
        assert np.isclose(log_negativity(rho), np.log2(1.25), atol=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(32)
        base = 0.7 * dm(PHI_PLUS) + 0.3 * np.eye(4) / 4
        e0 = log_negativity(base)
        for _ in range(100):
            ha = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            _, ua = herm_eig((ha + ha.conj().T) / 2)
            _, ub = herm_eig((hb + hb.conj().T) / 2)
            u = kron(ua, ub)
            assert abs(log_negativity(u @ base @ u.conj().T) - e0) <= 1e-9

    def test_trace_deviation_rejected(self):
        with pytest.raises(PropagationError):
            log_negativity(1.01 * dm(PHI_PLUS))

    def test_negative_population_rejected(self):
        rho = dm(PHI_PLUS) - 1e-5 * np.diag([1.0, -1.0 / 3, -1.0 / 3, -1.0 / 3])
        with pytest.raises(PropagationError):
            log_negativity(rho)

    def test_small_negative_clipped(self):
        rho = (1 + 4e-8) * dm(PHI_PLUS) - 1e-8 * np.eye(4)
        value = log_negativity(rho)
        assert np.isclose(value, 1.0, atol=1e-6)


class TestCorrelationMatrix:
    def test_bell_state(self):
        lam = correlation_matrix(dm(PHI_PLUS))
        assert np.allclose(lam, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(correlation_matrix(np.eye(4) / 4), 0.0, atol=1e-14)

    def test_plus_plus(self):
        lam = correlation_matrix(dm(PLUS_PLUS))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(lam, expected, atol=1e-12)

    def test_imaginary_correlator_rejected(self):
        rho = dm(PHI_PLUS) + 1e-6j * kron(SIGMA_X, SIGMA_X)
        with pytest.raises(PropagationError):
            correlation_matrix(rho)


class TestLowerBound:
    def test_bell_value(self):
        assert np.isclose(lower_bound_c2prime(np.diag([1.0, -1.0, 1.0])), 1.0, atol=1e-12)

    def test_zero_matrix(self):
        assert lower_bound_c2prime(np.zeros((3, 3))) == 0.0

    def test_separable_plus_plus(self):
        lam = correlation_matrix(dm(PLUS_PLUS))
        assert lower_bound_c2prime(lam) == 0.0

    def test_asymmetric_falls_back_to_singular_values(self):
        lam = np.zeros((3, 3))
        lam[0, 1] = 0.5  # strongly asymmetric
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = lower_bound_c2prime(lam)
        assert np.isclose(value, max(0.0, np.log2(1.5) - 1), atol=1e-12)

    def test_dominated_by_log_negativity_along_trajectory(self):
        cfg = ModelConfig(n_tlf=2, mu_over_nu=0.5, seed=33)
        ens = sample_ensemble(cfg)
        ops = build_operators(ens, cfg)
        gen = LindbladGenerator.from_system(ops)
        rho0 = initial_state("plus_plus", tlf_ground_state(ens, cfg), ops.layout)
        traj = propagate(gen, rho0, 20 * 2 * np.pi, dt=2 * np.pi / 50,
                         marginal_keep=(0, 1), layout=ops.layout)
        et = entanglement_trace(traj.t_grid, traj.marginals)
        assert np.all(et.c2prime <= et.log_negativity + 1e-8)


def reference_trace(marginals):
    """Per-sample oracle: SVD trace norms of the partial transpose and of the correlator matrix."""
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    e_p, corr, c2 = [], [], []
    for rho in marginals:
        lam = np.array([[np.trace(kron(a, b) @ rho).real for b in paulis] for a in paulis])
        pt = partial_transpose(rho, 0, SubsystemLayout((2, 2)))
        e_p.append(max(0.0, np.log2(trace_norm(pt))))
        corr.append(lam)
        c2.append(max(0.0, np.log2(1.0 + np.sum(np.linalg.svd(lam, compute_uv=False))) - 1.0))
    return np.array(e_p), np.array(corr), np.array(c2)


SWAP = np.eye(4)[[0, 2, 1, 3]]


def random_probe_states(rng, n):
    """Swap-symmetrized random states, so each correlator matrix is symmetric."""
    out = []
    for i in range(n):
        a = rng.normal(size=(4, 1 + i % 4)) + 1j * rng.normal(size=(4, 1 + i % 4))
        rho = a @ a.conj().T
        rho = rho + SWAP @ rho @ SWAP
        out.append(rho / np.trace(rho).real)
    return np.array(out)


def probe_batch(n=9):
    return np.array([0.5 * dm(PHI_PLUS) + 0.5 * dm(PLUS_PLUS)] * n)


class TestBatchedEntanglement:
    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(40)
        states = random_probe_states(rng, 240)
        # rounding-level negative populations, which pass through unrepaired
        for i in range(0, 240, 8):
            states[i] = (1 + 4e-9) * dm(PHI_PLUS if i % 16 else PLUS_PLUS) - 1e-9 * np.eye(4)
        # one state whose correlator matrix is asymmetric
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        states[101] = a @ a.conj().T / np.trace(a @ a.conj().T).real
        e_ref, corr_ref, c2_ref = reference_trace(states)
        assert np.max(np.abs(corr_ref[101] - corr_ref[101].T)) > 1e-8
        assert np.sum(e_ref > 0.1) > 40 and np.sum(e_ref == 0.0) > 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            et = entanglement_trace(np.arange(240.0), states)
        assert np.max(np.abs(et.log_negativity - e_ref)) <= 1e-12
        assert np.max(np.abs(_correlators(states) - corr_ref)) <= 1e-12
        assert np.max(np.abs(et.c2prime - c2_ref)) <= 1e-12

    def test_single_sample_views_match_batch(self):
        states = random_probe_states(np.random.default_rng(41), 20)
        et = entanglement_trace(np.arange(20.0), states)
        for i, rho in enumerate(states):
            assert log_negativity(rho) == et.log_negativity[i]
            assert lower_bound_c2prime(correlation_matrix(rho)) == et.c2prime[i]
        assert np.array_equal(np.array([correlation_matrix(r) for r in states]), _correlators(states))

    @pytest.mark.parametrize(
        "bad, single",
        [
            (1.01 * dm(PHI_PLUS), log_negativity),
            (dm(PHI_PLUS) - 1e-5 * np.diag([1.0, -1.0 / 3, -1.0 / 3, -1.0 / 3]), log_negativity),
            (dm(PHI_PLUS) + 1e-6j * kron(SIGMA_X, SIGMA_X), correlation_matrix),
        ],
        ids=["trace", "population", "imaginary"],
    )
    def test_guard_fires_mid_batch(self, bad, single):
        with pytest.raises(PropagationError) as alone:
            single(bad)
        states = probe_batch()
        states[4] = bad
        with pytest.raises(PropagationError) as batched:
            entanglement_trace(np.arange(9.0), states)
        assert str(batched.value) == str(alone.value)

    def test_asymmetry_fallback_changes_only_flagged_sample(self):
        states = random_probe_states(np.random.default_rng(42), 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = entanglement_trace(np.arange(9.0), states)
        a = np.random.default_rng(43).normal(size=(4, 4))
        states[4] = a @ a.T / np.trace(a @ a.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = entanglement_trace(np.arange(9.0), states)
        others = np.arange(9) != 4
        assert np.array_equal(mixed.c2prime[others], clean.c2prime[others])
        lam = correlation_matrix(states[4])
        assert np.max(np.abs(lam - lam.T)) > 1e-8
        sv = np.linalg.svd(lam, compute_uv=False)
        assert np.isclose(mixed.c2prime[4], max(0.0, np.log2(1.0 + sv.sum()) - 1.0), atol=1e-15)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            entanglement_trace(np.arange(3.0), probe_batch(4))


class TestLifetime:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 5.0, 501)
        trace = EntanglementTrace(t_grid=t, log_negativity=np.exp(-t))
        t_eps = entanglement_lifetime(trace, np.exp(-1.0))
        assert abs(t_eps - 1.0) <= t[1] - t[0]

    def test_never_crossed(self):
        t = np.linspace(0.0, 5.0, 50)
        trace = EntanglementTrace(t_grid=t, log_negativity=np.ones_like(t))
        assert entanglement_lifetime(trace, 0.5) is None

    def test_threshold_at_start(self):
        t = np.linspace(0.0, 5.0, 50)
        trace = EntanglementTrace(t_grid=t, log_negativity=np.exp(-t))
        assert entanglement_lifetime(trace, 1.0) == 0.0

    def test_zero_start_undefined(self):
        t = np.linspace(0.0, 5.0, 50)
        trace = EntanglementTrace(t_grid=t, log_negativity=np.zeros_like(t))
        with pytest.raises(ValueError):
            entanglement_lifetime(trace, 0.5)

    def test_epsilon_range(self):
        t = np.linspace(0.0, 5.0, 50)
        trace = EntanglementTrace(t_grid=t, log_negativity=np.exp(-t))
        with pytest.raises(ValueError):
            entanglement_lifetime(trace, 0.0)
        with pytest.raises(ValueError):
            entanglement_lifetime(trace, 1.5)


class TestExchangeProbability:
    def test_starts_at_zero(self):
        assert p_of_t(0.0, gamma=1.0, nbar=0.0) == 0.0

    def test_asymptote(self):
        assert np.isclose(p_of_t(1e6, gamma=1.0, nbar=0.0), 1.0, atol=1e-12)

    def test_half_life(self):
        assert np.isclose(p_of_t(2 * np.log(2.0), gamma=1.0, nbar=0.0), 0.5, atol=1e-12)

    def test_nbar_speedup(self):
        assert p_of_t(1.0, gamma=1.0, nbar=1.0) > p_of_t(1.0, gamma=1.0, nbar=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            p_of_t(-1.0)
        with pytest.raises(ValueError):
            p_of_t(1.0, gamma=0.0)
        with pytest.raises(ValueError):
            p_of_t(1.0, gamma=1.0, nbar=-0.5)
