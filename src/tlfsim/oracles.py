"""Closed-form and brute-force checks of the propagation machinery.

Each check pits a simulated quantity against an independently computed
expectation: textbook decay laws, a hand-exponentiated two-qubit unitary,
or the second integrator. These back the ``oracle`` CLI subcommand and the
acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SubsystemLayout,
    embed,
    expm,
)
from .model import ModelConfig, sample_ensemble
from .dynamics import LindbladGenerator, propagate, rk4_reference
from .observables import log_negativity

EXCITED_POP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PLUS_PLUS = np.kron(PLUS, PLUS)


@dataclass(frozen=True)
class OracleResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, err: float, tol: float, extra: str = "") -> OracleResult:
    detail = f"max deviation {err:.3e} (tolerance {tol:.1e})"
    if extra:
        detail += f"; {extra}"
    return OracleResult(name=name, passed=bool(err <= tol), detail=detail)


def amplitude_damping(integrator: str = "expm") -> OracleResult:
    """Excited population must follow exp(-rate * t) under a lowering jump."""
    rate = 1.0
    gen = LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_MINUS)])
    rho0 = EXCITED_POP.copy()
    t_end = 10.0 / rate
    if integrator == "expm":
        traj = propagate(gen, rho0, t_end, dt=0.01 / rate, record={"pe": EXCITED_POP})
    else:
        traj = rk4_reference(
            gen, rho0, t_end, dt=1e-3 / rate, record={"pe": EXCITED_POP}, record_every=10
        )
    err = float(np.max(np.abs(traj.expectations["pe"] - np.exp(-rate * traj.t_grid))))
    return _result(f"amplitude damping ({integrator})", err, 1e-8)


def pure_dephasing(integrator: str = "expm") -> OracleResult:
    """Coherence must follow exp(-2 * rate * t) under a Z jump."""
    rate = 0.5
    gen = LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_Z)])
    rho0 = np.outer(PLUS, PLUS.conj())
    t_end = 8.0
    if integrator == "expm":
        traj = propagate(gen, rho0, t_end, dt=0.01, record={"sx": SIGMA_X})
    else:
        traj = rk4_reference(
            gen, rho0, t_end, dt=1e-3, record={"sx": SIGMA_X}, record_every=10
        )
    err = float(np.max(np.abs(traj.expectations["sx"] - np.exp(-2.0 * rate * traj.t_grid))))
    return _result(f"pure dephasing ({integrator})", err, 1e-8)


def larmor_precession() -> OracleResult:
    """An uncoupled probe spin precesses as cos(omega t) with fixed amplitude."""
    omega = 1.0
    gen = LindbladGenerator(h=0.5 * omega * SIGMA_Z, jumps=[])
    rho0 = np.outer(PLUS, PLUS.conj())
    t_end = 10 * 2 * np.pi / omega
    traj = propagate(gen, rho0, t_end, dt=2 * np.pi / 200, record={"sx": SIGMA_X})
    err = float(np.max(np.abs(traj.expectations["sx"] - np.cos(omega * traj.t_grid))))
    return _result("Larmor precession", err, 1e-8)


def ideal_zz_gate() -> OracleResult:
    """A bare ZZ gate entangles |++> maximally after a quarter phase."""
    g = 0.3
    layout = SubsystemLayout((2, 2))
    h = 0.5 * (embed(SIGMA_Z, 0, layout) + embed(SIGMA_Z, 1, layout))
    h = h + g * np.kron(SIGMA_Z, SIGMA_Z)
    gen = LindbladGenerator(h=h, jumps=[])
    rho0 = np.outer(PLUS_PLUS, PLUS_PLUS.conj())
    t_star = (np.pi / 4.0) / g
    traj = propagate(gen, rho0, t_star, dt=t_star / 128)
    e_sim = log_negativity(traj.final_state)

    u = expm(-1j * h * t_star)
    psi = u @ PLUS_PLUS
    e_closed = log_negativity(np.outer(psi, psi.conj()))

    err = max(abs(e_sim - 1.0), abs(e_sim - e_closed))
    return _result(
        "ideal ZZ gate", err, 1e-6, extra=f"simulated {e_sim:.9f}, closed form {e_closed:.9f}"
    )


def _one_probe_two_tlf_generator() -> LindbladGenerator:
    """Single probe qubit coupled to two damped fluctuators (desk instance); the
    model's ``nbar`` is 0 in ``scaled-by-nbar`` mode, so there is no raising jump."""
    cfg = ModelConfig(n_tlf=2, ratio_eps=3.0, tan_theta_bar=1.0 / 3.0, mu_over_nu=0.5, seed=7)
    ens = sample_ensemble(cfg)
    layout = SubsystemLayout((2, 2, 2))
    h = 0.5 * embed(SIGMA_Z, 0, layout)
    x_ops = []
    for j in range(2):
        site = 1 + j
        h = h + 0.5 * ens.omega[j] * embed(SIGMA_Z, site, layout)
        x_j = np.cos(ens.theta[j]) * embed(SIGMA_Z, site, layout) - np.sin(
            ens.theta[j]
        ) * embed(SIGMA_X, site, layout)
        x_ops.append(x_j)
        h = h + ens.nu * (embed(SIGMA_Z, 0, layout) @ x_j)
    h = h + ens.mu * (x_ops[0] @ x_ops[1])
    jumps = []
    for j in range(2):
        site = 1 + j
        jumps.append((float(ens.Gamma_z[j]), embed(SIGMA_Z, site, layout)))
        jumps.append((float(ens.Gamma_minus[j]), embed(SIGMA_MINUS, site, layout)))
    return LindbladGenerator(h=h, jumps=jumps, layout=layout)


def integrator_cross_check() -> OracleResult:
    """The production route (sectors, chunked recording) against RK4 on one probe
    qubit plus two TLFs, over 100 probe cycles, as the whole state: the marginal
    on every site."""
    gen = _one_probe_two_tlf_generator()
    tlf_ground = np.zeros(4)
    tlf_ground[3] = 1.0  # both fluctuators in their lower eigenstate
    psi = np.kron(PLUS, tlf_ground)
    rho0 = np.outer(psi, psi.conj())

    t_end = 100 * 2 * np.pi
    dt = 2 * np.pi / 100
    every_site = (0, 1, 2)
    traj_a = propagate(gen, rho0, t_end, dt=dt, marginal_keep=every_site)
    traj_b = rk4_reference(
        gen, rho0, t_end, dt=dt / 16, marginal_keep=every_site, record_every=16
    )
    err = float(np.max(np.abs(traj_a.marginals - traj_b.marginals)))
    return _result(
        "integrator cross-validation (1 qubit + 2 TLFs)", err, 1e-6,
        extra=f"chunk {traj_a.stats['chunk']}",
    )


def rk4_convergence() -> OracleResult:
    """Halving the RK4 step must shrink the damping error about sixteenfold."""
    rate = 1.0
    gen = LindbladGenerator(h=np.zeros((2, 2)), jumps=[(rate, SIGMA_MINUS)])
    rho0 = EXCITED_POP.copy()
    t_end = 2.0

    def max_err(dt):
        traj = rk4_reference(gen, rho0, t_end, dt=dt, record={"pe": EXCITED_POP})
        return float(np.max(np.abs(traj.expectations["pe"] - np.exp(-rate * traj.t_grid))))

    e_coarse = max_err(0.05)
    e_fine = max_err(0.025)
    ratio = e_coarse / e_fine
    passed = 12.0 <= ratio <= 20.0
    return OracleResult(
        name="RK4 fourth-order convergence",
        passed=passed,
        detail=f"error ratio on step halving {ratio:.2f} (expected 12-20); "
        f"errors {e_coarse:.3e} -> {e_fine:.3e}",
    )


def run_all() -> list[OracleResult]:
    return [
        amplitude_damping("expm"),
        amplitude_damping("rk4"),
        pure_dephasing("expm"),
        pure_dephasing("rk4"),
        larmor_precession(),
        ideal_zz_gate(),
        rk4_convergence(),
        integrator_cross_check(),
    ]
