import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy import kron

from tlfsim import linalg
from tlfsim.dynamics import (
    LindbladGenerator,
    _liouvillian_block,
    _real_basis_generator,
    find_invariant_sectors,
)
from tlfsim.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SubsystemLayout,
    dag,
    embed,
    expm,
    herm_eig,
    partial_trace,
    pauli_string,
)
from tlfsim.model import ModelConfig, add_gate, build_operators, sample_ensemble

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
LAYOUT_2Q = SubsystemLayout((2, 2))


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    _, v = herm_eig(random_hermitian(rng, n))
    return v


# Oracles of tests/test_observables.py's per-sample reference, tested below.


def partial_transpose(rho: np.ndarray, part: int, layout: SubsystemLayout) -> np.ndarray:
    """Transpose the row/column indices of site ``part`` only."""
    if not 0 <= part < layout.n_sites:
        raise ValueError(f"site {part} out of range")
    if rho.shape != (layout.total_dim, layout.total_dim):
        raise ValueError(f"state shape {rho.shape} != layout dim {layout.total_dim}")
    n = layout.n_sites
    t = rho.reshape(layout.dims + layout.dims)
    t = np.swapaxes(t, part, part + n)
    return t.reshape(layout.total_dim, layout.total_dim)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("trace norm expects a square matrix")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


class TestLayout:
    def test_total_dim(self):
        assert SubsystemLayout((2, 3, 4)).total_dim == 24

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            SubsystemLayout((2, 0))
        with pytest.raises(ValueError):
            SubsystemLayout(())


class TestEmbed:
    def test_first_site(self):
        assert np.allclose(embed(SIGMA_Z, 0, LAYOUT_2Q), kron(SIGMA_Z, I2), atol=1e-15)

    def test_identity_any_site(self):
        layout = SubsystemLayout((2, 2, 2))
        for site in range(3):
            assert np.allclose(embed(I2, site, layout), np.eye(8), atol=1e-15)

    def test_disjoint_sites_commute(self):
        a = embed(SIGMA_X, 1, LAYOUT_2Q)
        b = embed(SIGMA_Z, 0, LAYOUT_2Q)
        assert np.allclose(a @ b - b @ a, 0.0, atol=1e-14)

    def test_errors(self):
        with pytest.raises(ValueError):
            embed(SIGMA_Z, 2, LAYOUT_2Q)
        with pytest.raises(ValueError):
            embed(np.eye(3), 0, LAYOUT_2Q)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        reduced = partial_trace(kron(rho_a, rho_b), (0,), LAYOUT_2Q)
        assert np.allclose(reduced, rho_a, atol=1e-13)

    def test_bell_marginal(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert np.allclose(partial_trace(rho, (0,), LAYOUT_2Q), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(2)
        layout = SubsystemLayout((2, 2, 2))
        for _ in range(20):
            rho = random_density(rng, 8)
            for keep in ((0,), (1, 2), (0, 2)):
                reduced = partial_trace(rho, keep, layout)
                assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    @pytest.mark.parametrize("keep", [(0, 2), (1,), (0, 1), (0, 1, 2)])
    def test_matches_index_sum(self, keep):
        dims = (2, 3, 2)
        rho = random_density(np.random.default_rng(4), 12).reshape(dims + dims)
        traced = [s for s in range(3) if s not in keep]
        kept_dims = [dims[s] for s in keep]
        expected = np.zeros((int(np.prod(kept_dims)),) * 2, dtype=complex)
        for row, col in itertools.product(np.ndindex(*kept_dims), repeat=2):
            for env in np.ndindex(*[dims[s] for s in traced]):
                r, c = [0] * 3, [0] * 3
                for s, i, j in zip(keep, row, col):
                    r[s], c[s] = i, j
                for s, e in zip(traced, env):
                    r[s] = c[s] = e
                at = np.ravel_multi_index(row, kept_dims), np.ravel_multi_index(col, kept_dims)
                expected[at] += rho[tuple(r + c)]
        reduced = partial_trace(rho.reshape(12, 12), keep, SubsystemLayout(dims))
        assert np.allclose(reduced, expected, atol=1e-15, rtol=0)

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, (), LAYOUT_2Q)
        with pytest.raises(ValueError):
            partial_trace(rho, (3,), LAYOUT_2Q)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        twice = partial_transpose(partial_transpose(rho, 0, LAYOUT_2Q), 0, LAYOUT_2Q)
        assert np.allclose(twice, rho, atol=1e-15)

    def test_bell_eigenvalues(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho, 0, LAYOUT_2Q)))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(4)
        rho = kron(random_density(rng, 2), random_density(rng, 2))
        eigs = np.linalg.eigvalsh(partial_transpose(rho, 1, LAYOUT_2Q))
        assert eigs.min() > -1e-13

    def test_transpose_on_traced_part_invisible(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        direct = partial_trace(rho, (0,), LAYOUT_2Q)
        via_pt = partial_trace(partial_transpose(rho, 1, LAYOUT_2Q), (0,), LAYOUT_2Q)
        assert np.allclose(direct, via_pt, atol=1e-12)

    def test_bad_site(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4) / 4, 5, LAYOUT_2Q)


class TestHermEig:
    def test_sigma_z(self):
        w, _ = herm_eig(SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_sigma_x_eigenvectors(self):
        w, v = herm_eig(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-15)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(v[:, 0], minus)) - 1) < 1e-12
        assert abs(abs(np.vdot(v[:, 1], plus)) - 1) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 16)
        w, v = herm_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((v * w) @ dag(v), a, atol=1e-9)
        assert np.allclose(dag(v) @ v, np.eye(16), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(7)
        assert abs(trace_norm(random_density(rng, 6)) - 1.0) < 1e-12

    def test_partial_transpose_of_bell(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert abs(trace_norm(partial_transpose(rho, 0, LAYOUT_2Q)) - 2.0) < 1e-12

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = random_unitary(rng, 6)
        v = random_unitary(rng, 6)
        assert abs(trace_norm(u @ a @ v) - trace_norm(a)) < 1e-9


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_diagonal_phase(self):
        theta = 0.7
        expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.allclose(expm(1j * theta * SIGMA_Z), expected, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a *= 5.0 / np.linalg.norm(a, 2)
        assert np.allclose(expm(a) @ expm(-a), np.eye(8), atol=1e-9)

    def test_anti_hermitian_gives_unitary(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 8)
        u = expm(-1j * h)
        assert np.max(np.abs(dag(u) @ u - np.eye(8))) <= 1e-9

    def test_non_finite_rejected(self):
        bad = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            expm(bad)

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        out = expm(a)
        assert out.dtype == np.float64
        exact = scipy.linalg.expm(a)
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_complex_input_unchanged(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        out = expm(a)
        assert out.dtype == np.complex128
        exact = scipy.linalg.expm(a)
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    # the 1-norm of a random 6 x 6 input that reaches each Pade order; 13 with squarings
    ORDER_NORMS = {3: 0.01, 5: 0.2, 7: 0.9, 9: 2.0, 13: 12.0}

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", sorted(ORDER_NORMS))
    def test_matches_scipy_at_each_order(self, monkeypatch, m, dtype):
        rng = np.random.default_rng(13 + m)
        a = rng.normal(size=(6, 6)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(6, 6))
        a *= self.ORDER_NORMS[m] / np.abs(a).sum(axis=0).max()
        taken = []
        pade = linalg._pade
        monkeypatch.setattr(
            linalg, "_pade", lambda x, powers, order: taken.append((order, x)) or pade(x, powers, order)
        )
        out = expm(a)
        assert [order for order, _ in taken] == [m]
        if m == 13:  # r_13 was taken of a halved A, then squared
            assert np.abs(taken[0][1]).max() <= np.abs(a).max() / 2
        assert out.dtype == (np.complex128 if dtype is complex else np.float64)
        exact = scipy.linalg.expm(a)
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_matches_scipy_on_gate_block_liouvillian(self):
        # the real 1024 x 1024 step generator of the merged |01>,|10> sector of an
        # XX+YY gate point at n_tlf=4, in the Hermitian basis, as the engine takes it
        cfg = ModelConfig(n_tlf=4, ratio_eps=1.0, mu_over_nu=1.0, seed=1)
        ens = sample_ensemble(cfg)
        gen = LindbladGenerator.from_system(add_gate(build_operators(ens, cfg), "xxyy", float(ens.nu)))
        s = max(find_invariant_sectors(gen), key=len)
        h, jumps = gen.h[np.ix_(s, s)], gen.jump_ops[:, s[:, None], s]
        l = _liouvillian_block(h, h, gen.rates, jumps, jumps)
        a = _real_basis_generator(l, len(s)) * (0.01 * 2 * np.pi)
        assert a.shape == (1024, 1024) and a.dtype == np.float64
        out = expm(a)
        assert out.dtype == np.float64
        exact = scipy.linalg.expm(a)
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_nilpotent_input(self):
        # A^2 = 0 picks order 3, whose squaring count stops at abs(A)^2 = 0
        a = np.array([[0.0, 1e3], [0.0, 0.0]])
        out = expm(a)
        for exact in (np.eye(2) + a, scipy.linalg.expm(a)):
            assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize(
        "a", [np.diag([1e300, 0.0]), np.full((3, 3), 1e308), np.full((3, 3), 1e308 + 1e308j)]
    )
    def test_overflow_is_non_finite_without_warnings(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expm(a)
        assert not np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_rejected_for_both_dtypes(self, dtype):
        bad = np.zeros((3, 3), dtype=dtype)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            expm(bad)


class TestVec:
    def test_column_stacking_identity(self):
        # the convention of tlfsim.dynamics: vec(A X B) = (B^T kron A) vec(X)
        def vec(m):
            return m.reshape(-1, order="F")

        rng = np.random.default_rng(11)
        a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_pauli_string():
    assert np.allclose(pauli_string("ZZ"), kron(SIGMA_Z, SIGMA_Z), atol=1e-15)
    assert np.allclose(pauli_string("IXY"), kron(I2, kron(SIGMA_X, SIGMA_Y)), atol=1e-15)
    with pytest.raises(ValueError):
        pauli_string("IQ")
