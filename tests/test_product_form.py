"""An exact oracle for independent fluctuators: at mu/nu = 0 every point is a product
of single-fluctuator factors.

With the ring coupling off, each probe state a of the singlet-triplet basis
``|00>, |T0>, |S>, |11>`` fixes ``Z_A + Z_B`` to ``c_a = (2, 0, 0, -2)``. Fluctuator
j then sees ``h_j^a = omega_j/2 Z + c_a nu (cos theta_j Z - sin theta_j X)``, its
jumps act on it alone, and it starts in its lower eigenstate ``|1>``. Block (a, b)
of the state is ``rho_p[a, b] e^{-i (E_a - E_b) t}`` times the product over j of
``exp(L_j^{ab} t) |1><1|``, with ``E_a`` the probe energies (a gate only shifts
them), so each probe-marginal entry is that amplitude times
``prod_j tr(exp(L_j^{ab} t) |1><1|)``.

The oracle is built here from the ``TlfEnsemble`` fields and 2 x 2 matrices, with
``scipy.linalg.expm``: none of the model's Pauli tables, builders, Liouvillians or
exponential enter it.
"""

import numpy as np
import pytest
import scipy.linalg

from tlfsim.model import ModelConfig
from tlfsim.scenarios import simulate

TOL = 1e-11

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
LOWER = np.array([[0, 0], [1, 0]], dtype=complex)  # |0> -> |1>, the upper state first
RAISE = LOWER.T.copy()
C = np.array([2.0, 0.0, 0.0, -2.0])  # Z_A + Z_B on |00>, |T0>, |S>, |11>

# columns: |00>, |T0>, |S>, |11> in the computational basis
ST = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]]) * np.sqrt(
    [1.0, 0.5, 0.5, 1.0]
)
S = np.sqrt(0.5)
PROBES = {
    "plus_plus": np.array([0.5, 0.5, 0.5, 0.5]),
    "phi+": np.array([S, 0, 0, S]),
    "psi-": np.array([0, S, -S, 0]),
}
M_X = np.kron(X, np.eye(2)) + np.kron(np.eye(2), X)


def probe_energies(gate, g):
    if gate is None:
        return np.array([1.0, 0.0, 0.0, -1.0])
    if gate == "zz":
        return np.array([1 + g, -g, -g, -1 + g])
    return np.array([1.0, 2 * g, -2 * g, -1.0])  # xxyy


def single_tlf_generator(h_row, h_col, jumps):
    """The 4 x 4 generator of X -> -i (h_row X - X h_col) + sum_k D[J_k](X), on the
    row-major vec of a 2 x 2 block: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(2)
    l = -1j * (np.kron(h_row, eye) - np.kron(eye, h_col.T))
    for j in jumps:
        jj = j.conj().T @ j
        l += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    return l


def product_form_marginals(ens, probe, gate, g, t):
    """The probe marginals in the computational basis at times ``t``, as ``(n, 4, 4)``."""
    psi = ST.T @ PROBES[probe]
    rho_p = np.outer(psi, psi.conj())
    e = probe_energies(gate, g)
    marg = rho_p * np.exp(-1j * np.subtract.outer(e, e) * t[:, None, None])
    start = np.array([0, 0, 0, 1.0])  # vec |1><1|
    trace = np.array([1, 0, 0, 1.0])  # vec I
    for j in range(ens.n_tlf):
        charge = np.cos(ens.theta[j]) * Z - np.sin(ens.theta[j]) * X
        h = [ens.omega[j] / 2 * Z + c * ens.nu * charge for c in C]
        jumps = [np.sqrt(rate) * op for rate, op in (
            (ens.Gamma_z[j], Z), (ens.Gamma_minus[j], LOWER), (ens.Gamma_plus[j], RAISE))]
        for a in range(4):
            for b in range(4):
                l = single_tlf_generator(h[a], h[b], jumps)
                factors = scipy.linalg.expm(t[:, None, None] * l) @ start @ trace
                marg[:, a, b] *= factors
    return ST @ marg @ ST.T


def engine_and_oracle(n_tlf, probe, gate, model, cycles, steps_per_cycle, every):
    cfg = ModelConfig(n_tlf=n_tlf, **{"seed": 1, **model})
    t_end, dt = cycles * 2 * np.pi, 2 * np.pi / steps_per_cycle
    g = 0.05 if gate is not None else None
    ens, traj = simulate(cfg, t_end, dt, probe=probe, gate=gate, g=g)
    t = traj.t_grid[::every]
    return traj.marginals[::every], product_form_marginals(ens, probe, gate, g, t)


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("gate", [None, "zz", "xxyy"])
def test_probe_marginals_every_gate_and_probe(gate, probe):
    got, want = engine_and_oracle(2, probe, gate, {}, cycles=5, steps_per_cycle=100, every=25)
    # the singlet is stationary; every other start moves
    assert (np.max(np.abs(want[-1] - want[0])) > 0.05) == (probe != "psi-")
    assert np.max(np.abs(got - want)) <= TOL


WARM = {"nbar": 0.5}
SAMPLED = {"nbar": 0.5, "gamma_plus_mode": "sampled", "seed": 4}


@pytest.mark.parametrize(
    "n_tlf, probe, gate, model",
    [
        (1, "phi+", "zz", WARM),
        (1, "plus_plus", None, SAMPLED),
        (2, "psi-", "xxyy", SAMPLED),
        (3, "plus_plus", "xxyy", WARM),
        (3, "phi+", None, SAMPLED),
        (3, "psi-", "zz", SAMPLED),
        (4, "phi+", "xxyy", SAMPLED),
        (4, "plus_plus", "zz", WARM),
    ],
)
def test_probe_marginals_warm_baths_and_register_sizes(n_tlf, probe, gate, model):
    got, want = engine_and_oracle(n_tlf, probe, gate, model, cycles=3, steps_per_cycle=50, every=10)
    assert np.max(np.abs(got - want)) <= TOL


def test_probe_marginals_at_five_fluctuators():
    got, want = engine_and_oracle(5, "phi+", "zz", {}, cycles=1, steps_per_cycle=20, every=2)
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("n_tlf, gate, model", [(1, None, {}), (3, "zz", SAMPLED), (4, "xxyy", WARM)])
def test_magnetization(n_tlf, gate, model):
    cfg = ModelConfig(n_tlf=n_tlf, **{"seed": 2, **model})
    g = None if gate is None else 0.05
    ens, traj = simulate(cfg, 3 * 2 * np.pi, 0.05 * 2 * np.pi, gate=gate, g=g, magnetization=True)
    want = np.einsum("ij,nji->n", M_X, product_form_marginals(ens, "plus_plus", gate, g,
                                                                 traj.t_grid)).real
    assert np.max(np.abs(traj.expectations["M_x"] - want)) <= TOL
