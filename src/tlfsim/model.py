"""System construction for a two-qubit probe coupled to damped fluctuators.

The probe is two identical, non-interacting qubits with purely longitudinal
splitting ``omega_p``. It is the unit of energy: every other energy the model
draws is a ratio to it, so ``omega_p`` is 1 and no formula reads it. The
environment is a small ring of two-level fluctuators (TLFs), each damped by
its own bath. TLF bias energies follow a linear density, local fields a
log-uniform density, and bath rates a log-uniform density; all couplings are
referenced to the slowest fluctuator frequency.

Conventions: hbar = 1 and omega_p = 1, so one probe cycle is 2*pi. In each
eigenbasis the Pauli ``Z`` has the upper state first, so a free spin's ground
state is the second basis vector. The charge operator of a TLF with mixing angle
``theta`` (tan(theta) = local field / bias) reads
``cos(theta) Z - sin(theta) X`` in its eigenbasis.

Every system holds the probe pair in the singlet-triplet basis ``|00>, |T0>,
|S>, |11>``, with ``|T0>, |S> = (|01> +- |10>)/sqrt(2)``. There the probe
splitting, the probe-TLF coupling ``(Z_A + Z_B) x_j`` and both gates
(``GATE_TERMS``) are diagonal on the probe pair, so each probe state spans its
own invariant sector; in the computational basis the XX+YY gate would join
``|01>`` and ``|10>`` into one sector of twice the size.
:func:`change_probe_basis` takes probe vectors and matrices to and from the
computational basis ``|00>, |01>, |10>, |11>``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import LindbladGenerator
from .linalg import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    SubsystemLayout,
    embed,
    herm_eig,
    is_hermitian,
    pauli_string,
)

GAMMA_PLUS_MODES = ("scaled-by-nbar", "sampled")

PROBE_STATES = ("plus_plus", "phi+", "phi-", "psi+", "psi-")

# two-qubit Pauli terms of each gate Hamiltonian, on the probe pair
GATE_TERMS = {"zz": ("ZZ",), "xxyy": ("XX", "YY")}

_SQRT_HALF = np.sqrt(0.5)

# The probe Paulis the model uses, in the singlet-triplet basis |00>, |T0>, |S>, |11>.
# Their entries are exact, so that in the sums the model forms the (T0, S) entries
# of Z_A and Z_B, and the (00, 11) entries of XX and YY, cancel to exact zeros: no
# threshold decides the sectors.
_SINGLET_TRIPLET = {
    label: np.array(m, dtype=complex)
    for label, m in {
        "II": np.eye(4),
        "ZI": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
        "IZ": [[1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, -1]],
        "ZZ": np.diag([1, -1, -1, 1]),
        "XX": [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]],
        "YY": [[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, -1, 0], [-1, 0, 0, 0]],
    }.items()
}


class ConfigurationError(ValueError):
    """Invalid model or scenario configuration."""


class GroundStateDegeneracyError(RuntimeError):
    """The fluctuator register has a (near-)degenerate ground space."""


_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "float | None": ((numbers.Real, type(None)), "a number or null"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "tuple": ((list, tuple), "a list of numbers"),
}


def check_value(name: str, v, kind: str) -> None:
    """Raise ConfigurationError unless ``v`` is a value of ``kind`` (an int,
    float, bool, str or tuple, or an optional float or str, as annotated); a
    list passes for a tuple, and a bool is not taken for a number, nor a NaN
    or infinity."""
    types, what = _FIELD_KINDS.get(kind, (object, ""))
    if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
        raise ConfigurationError(f"{name} must be {what}, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigurationError(f"{name} must be finite, got {v!r}")


def check_field_types(obj) -> None:
    """:func:`check_value` on each field of the frozen dataclass ``obj``, for its
    annotation. An integer given for a float field is stored as that float, so
    that ``3`` and ``3.0`` make one value, one canonical form and one hash."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        check_value(f.name, v, f.type)
        if f.type.startswith("float") and isinstance(v, numbers.Integral):
            object.__setattr__(obj, f.name, float(v))


@dataclass(frozen=True)
class ModelConfig:
    """User-facing knobs of the probe + fluctuator model.

    ``omega_p`` is the unit of energy and must be 1. ``ratio_eps`` is probe
    splitting over mean TLF bias; ``tan_theta_bar`` is mean TLF local field
    over mean TLF bias. ``mu_over_nu`` sets the TLF-TLF coupling relative to
    the probe-TLF coupling. ``nbar`` is the mean bath occupation used by the
    default absorption-rate mode.
    """

    omega_p: float = 1.0
    n_tlf: int = 4
    ratio_eps: float = 3.0
    tan_theta_bar: float = 1.0 / 3.0
    mu_over_nu: float = 0.0
    nbar: float = 0.0
    seed: int = 0
    gamma_plus_mode: str = "scaled-by-nbar"
    halve_couplings: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.omega_p != 1.0:
            raise ConfigurationError(
                f"omega_p must be 1, got {self.omega_p!r}: it is the unit of energy, "
                "so scale ratio_eps instead"
            )
        if self.n_tlf < 1:
            raise ConfigurationError("n_tlf must be at least 1")
        if self.ratio_eps <= 0:
            raise ConfigurationError("ratio_eps must be positive")
        if self.tan_theta_bar <= 0:
            raise ConfigurationError("tan_theta_bar must be positive")
        if self.mu_over_nu < 0:
            raise ConfigurationError("mu_over_nu must be non-negative")
        if self.nbar < 0:
            raise ConfigurationError("nbar must be non-negative")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.gamma_plus_mode not in GAMMA_PLUS_MODES:
            raise ConfigurationError(
                f"gamma_plus_mode must be one of {GAMMA_PLUS_MODES}"
            )

    @property
    def eps_bar(self) -> float:
        """Mean TLF bias energy."""
        return 1.0 / self.ratio_eps

    @property
    def delta_bar(self) -> float:
        """Mean TLF local field."""
        return self.tan_theta_bar * self.eps_bar


def sample_linear(rng, a: float, b: float, size: int) -> np.ndarray:
    """Inverse-CDF draw from density proportional to x on [a, b]."""
    if not 0 <= a < b:
        raise ConfigurationError(f"degenerate sampling range [{a}, {b}]")
    u = rng.random(size)
    return np.sqrt(a * a + u * (b * b - a * a))


def sample_loguniform(rng, a: float, b: float, size: int) -> np.ndarray:
    """Inverse-CDF draw from density proportional to 1/x on [a, b]."""
    if not 0 < a < b:
        raise ConfigurationError(f"degenerate sampling range [{a}, {b}]")
    u = rng.random(size)
    return a * (b / a) ** u


def dressed_rates(
    gamma_z: np.ndarray,
    gamma_minus: np.ndarray,
    gamma_plus: np.ndarray,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jump rates in the TLF eigenbasis from bare bath rates.

    Dephasing picks up cos^2(theta)/2, emission and absorption sin^2(theta)/4;
    emission is additionally fed by the absorption rate.
    """
    big_z = gamma_z * np.cos(theta) ** 2 / 2.0
    big_minus = (gamma_minus + gamma_plus) * np.sin(theta) ** 2 / 4.0
    big_plus = gamma_plus * np.sin(theta) ** 2 / 4.0
    return big_z, big_minus, big_plus


@dataclass(frozen=True)
class TlfEnsemble:
    """Sampled fluctuator parameters plus everything derived from them."""

    eps: np.ndarray
    delta: np.ndarray
    gamma_z: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    theta: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    Gamma_z: np.ndarray = field(repr=False)
    Gamma_minus: np.ndarray = field(repr=False)
    Gamma_plus: np.ndarray = field(repr=False)
    omega_min: float
    nu: float
    mu: float

    @property
    def n_tlf(self) -> int:
        return len(self.eps)

    @classmethod
    def from_bare(
        cls,
        eps: np.ndarray,
        delta: np.ndarray,
        gamma_z: np.ndarray,
        gamma_minus: np.ndarray,
        gamma_plus: np.ndarray,
        mu_over_nu: float,
    ) -> "TlfEnsemble":
        """Fill in angles, frequencies, dressed rates and couplings."""
        eps = np.asarray(eps, dtype=float)
        delta = np.asarray(delta, dtype=float)
        theta = np.arctan2(delta, eps)
        omega = np.sqrt(eps**2 + delta**2)
        omega_min = float(np.min(omega))
        big_z, big_minus, big_plus = dressed_rates(
            np.asarray(gamma_z, float),
            np.asarray(gamma_minus, float),
            np.asarray(gamma_plus, float),
            theta,
        )
        nu = omega_min / 3.0
        return cls(
            eps=eps,
            delta=delta,
            gamma_z=np.asarray(gamma_z, float),
            gamma_minus=np.asarray(gamma_minus, float),
            gamma_plus=np.asarray(gamma_plus, float),
            theta=theta,
            omega=omega,
            Gamma_z=big_z,
            Gamma_minus=big_minus,
            Gamma_plus=big_plus,
            omega_min=omega_min,
            nu=nu,
            mu=mu_over_nu * nu,
        )

    def as_dict(self) -> dict:
        """Plain-type view for manifests and provenance records."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def sample_ensemble(cfg: ModelConfig) -> TlfEnsemble:
    """Draw a fluctuator ensemble.

    Biases are drawn first (linear density on (1 +/- 0.5) * eps_bar), then
    local fields (log-uniform on delta_bar +/- 0.5 * min(1, delta_bar)).
    Spin frequencies fix the slowest fluctuator, after which all bath rates
    are drawn log-uniform on [omega_min/6, omega_min/2] in blocks: all
    dephasing rates, then all emission rates, then (in "sampled" mode) all
    absorption rates. In "scaled-by-nbar" mode absorption is nbar times
    emission instead. The probe-TLF coupling is omega_min/3.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_tlf

    eps = sample_linear(rng, 0.5 * cfg.eps_bar, 1.5 * cfg.eps_bar, n)
    half_width = 0.5 * min(1.0, cfg.delta_bar)
    delta = sample_loguniform(
        rng, cfg.delta_bar - half_width, cfg.delta_bar + half_width, n
    )

    omega = np.sqrt(eps**2 + delta**2)
    omega_min = float(np.min(omega))
    lo, hi = omega_min / 6.0, omega_min / 2.0
    gamma_z = sample_loguniform(rng, lo, hi, n)
    gamma_minus = sample_loguniform(rng, lo, hi, n)
    if cfg.gamma_plus_mode == "sampled":
        gamma_plus = sample_loguniform(rng, lo, hi, n)
    else:
        gamma_plus = cfg.nbar * gamma_minus

    ens = TlfEnsemble.from_bare(
        eps, delta, gamma_z, gamma_minus, gamma_plus, cfg.mu_over_nu
    )
    _warn_on_regime_violations(ens)
    return ens


def _warn_on_regime_violations(ens: TlfEnsemble) -> None:
    # Underdamped requirement: every bath rate below its TLF frequency.
    for name, rates in (
        ("gamma_z", ens.gamma_z),
        ("gamma_minus", ens.gamma_minus),
        ("gamma_plus", ens.gamma_plus),
    ):
        bad = np.nonzero(rates >= ens.omega)[0]
        if bad.size:
            warnings.warn(
                f"{name} >= TLF frequency for fluctuator(s) {bad.tolist()}; "
                "the two-level description is overdamped there",
                RuntimeWarning,
            )
    # Weak-coupling heuristic: frequencies should stay at or above three times
    # the couplings. The probe-TLF coupling nu = omega_min/3 meets it by
    # construction; the TLF-TLF coupling mu = mu_over_nu * nu only up to
    # mu_over_nu = 1, where equality holds (so only strict violations count).
    if ens.mu > 0 and ens.omega_min < 3.0 * ens.mu * (1.0 - 1e-12):
        warnings.warn(
            "TLF-TLF coupling is not weak against all TLF frequencies",
            RuntimeWarning,
        )


def ring_bonds(n: int) -> list[tuple[int, int]]:
    """Nearest-neighbour ring bonds, deduplicated for tiny rings."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(j, (j + 1) % n) for j in range(n)]


def hamiltonian_terms(ens: TlfEnsemble, cfg: ModelConfig) -> list[tuple[float, str]]:
    """Scaled Pauli-string terms of the full Hamiltonian.

    The one place the model's Hamiltonian is written: :func:`build_operators`
    assembles all of it, :func:`tlf_hamiltonian` the fluctuator register.
    """
    n = ens.n_tlf
    n_sites = 2 + n

    def label(ops: dict[int, str]) -> str:
        return "".join(ops.get(s, "I") for s in range(n_sites))

    cos_t = np.cos(ens.theta)
    sin_t = np.sin(ens.theta)
    terms = _probe_terms(n_sites)
    for j in range(n):
        terms.append((ens.omega[j] / 2.0, label({2 + j: "Z"})))
    # Probe-TLF coupling: nu * (Z_A + Z_B) * charge operator of each TLF.
    for j in range(n):
        for q in (0, 1):
            terms.append((ens.nu * cos_t[j], label({q: "Z", 2 + j: "Z"})))
            terms.append((-ens.nu * sin_t[j], label({q: "Z", 2 + j: "X"})))
    # TLF-TLF ring coupling between charge operators.
    mu_eff = ens.mu / 2.0 if cfg.halve_couplings else ens.mu
    for j, k in ring_bonds(n):
        cj, sj = cos_t[j], sin_t[j]
        ck, sk = cos_t[k], sin_t[k]
        terms.append((mu_eff * cj * ck, label({2 + j: "Z", 2 + k: "Z"})))
        terms.append((-mu_eff * cj * sk, label({2 + j: "Z", 2 + k: "X"})))
        terms.append((-mu_eff * sj * ck, label({2 + j: "X", 2 + k: "Z"})))
        terms.append((mu_eff * sj * sk, label({2 + j: "X", 2 + k: "X"})))
    return [(c, lab) for c, lab in terms if c != 0.0]


def build_operators(ens: TlfEnsemble, cfg: ModelConfig) -> LindbladGenerator:
    """The generator of the joint system, its Hamiltonian from :func:`hamiltonian_terms`.

    Site order is probe A, probe B, TLF 1..N, with the probe pair in the
    singlet-triplet basis. Jumps are the per-fluctuator dephasing, emission and
    absorption operators with their dressed rates; zero-rate entries are dropped.
    """
    layout = SubsystemLayout((2,) * (2 + ens.n_tlf))
    jumps = [
        (float(rate), embed(op, 2 + j, layout))
        for j in range(ens.n_tlf)
        for rate, op in ((ens.Gamma_z[j], SIGMA_Z), (ens.Gamma_minus[j], SIGMA_MINUS),
                         (ens.Gamma_plus[j], SIGMA_PLUS))
        if rate > 0.0
    ]
    return _system(hamiltonian_terms(ens, cfg), jumps, layout)


def tlf_hamiltonian(ens: TlfEnsemble, cfg: ModelConfig) -> np.ndarray:
    """Fluctuator-register Hamiltonian: the terms of :func:`hamiltonian_terms`
    that act on neither probe qubit (free terms plus ring coupling)."""
    terms = [(c, lab[2:]) for c, lab in hamiltonian_terms(ens, cfg) if lab[:2] == "II"]
    dim = 2**ens.n_tlf
    return _plus_terms(np.zeros((dim, dim), dtype=complex), terms, pauli_string)


def tlf_ground_state(ens: TlfEnsemble, cfg: ModelConfig) -> np.ndarray:
    """Pure ground state of the fluctuator register as a density matrix."""
    h = tlf_hamiltonian(ens, cfg)
    w, v = herm_eig(h)
    if len(w) > 1 and (w[1] - w[0]) < 1e-10 * ens.omega_min:
        raise GroundStateDegeneracyError(
            f"ground-state gap {w[1] - w[0]:.3e} below resolution; "
            "perturb the seed to lift the degeneracy"
        )
    g = v[:, 0]
    return np.outer(g, g.conj())


def probe_state_vector(kind: str) -> np.ndarray:
    """Two-qubit probe state: product |++> or one of the four Bell states."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "plus_plus": np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
        "phi+": np.array([s, 0, 0, s], dtype=complex),
        "phi-": np.array([s, 0, 0, -s], dtype=complex),
        "psi+": np.array([0, s, s, 0], dtype=complex),
        "psi-": np.array([0, s, -s, 0], dtype=complex),
    }
    if kind not in table:
        raise ConfigurationError(f"unknown probe state {kind!r}; use one of {PROBE_STATES}")
    return table[kind]


def initial_state(probe: str, tlf: np.ndarray, gen: LindbladGenerator) -> np.ndarray:
    """Joint initial state of the system ``gen``: the chosen probe state, in the
    singlet-triplet basis, tensored with a TLF state."""
    n_tlf_dim = int(np.prod(gen.layout.dims[2:]))
    if tlf.shape != (n_tlf_dim, n_tlf_dim):
        raise ValueError(f"TLF state shape {tlf.shape} != register dim {n_tlf_dim}")
    if not is_hermitian(tlf, atol=1e-9):
        raise ValueError("TLF state is not Hermitian")
    if abs(np.trace(tlf).real - 1.0) > 1e-9:
        raise ValueError("TLF state is not unit trace")
    if np.min(np.linalg.eigvalsh(tlf)) < -1e-9:
        raise ValueError("TLF state is not positive semidefinite")
    psi = change_probe_basis(probe_state_vector(probe), (0,))
    probe_dm = np.outer(psi, psi.conj())
    return np.kron(probe_dm, tlf)


def change_probe_basis(x: np.ndarray, axes) -> np.ndarray:
    """A copy of ``x`` with each of its probe ``axes`` (of length 4) taken from the
    computational basis to the singlet-triplet basis, or back: the change is its
    own inverse.

    It maps entries 1 and 2 (``|01>``, ``|10>``) to their sum and difference
    times sqrt(1/2). It is written out rather than taken as a matrix product,
    so that equal entries leave an exact zero (the ``|S>`` amplitude of ``|++>``).
    """
    x = np.array(x, dtype=complex)
    for axis in axes:
        y = np.moveaxis(x, axis, 0)  # a view: the change is written into x
        y[1], y[2] = (y[1] + y[2]) * _SQRT_HALF, (y[1] - y[2]) * _SQRT_HALF
    return x


def term_matrix(label: str) -> np.ndarray:
    """The Pauli string ``label`` (probe A, probe B, TLF 1..N) with the probe pair
    in the singlet-triplet basis, from the exact tables of ``_SINGLET_TRIPLET``."""
    rest = label[2:]
    return np.kron(_SINGLET_TRIPLET[label[:2]], pauli_string(rest) if rest else 1)


def _plus_terms(h: np.ndarray, terms, matrix=term_matrix) -> np.ndarray:
    """``h`` plus each scaled ``matrix(label)`` of ``terms``, added one at a time."""
    for coeff, lab in terms:
        h = h + coeff * matrix(lab)
    return h


def _system(terms, jumps, layout: SubsystemLayout) -> LindbladGenerator:
    """The generator of Hamiltonian ``terms`` and ``jumps`` on ``layout``."""
    h = _plus_terms(np.zeros((layout.total_dim, layout.total_dim), dtype=complex), terms)
    return LindbladGenerator(h=h, jumps=jumps, layout=layout)


def _probe_terms(n_sites: int) -> list[tuple[float, str]]:
    """The probe splitting, (Z_A + Z_B)/2, as Pauli terms on ``n_sites`` sites."""
    rest = "I" * (n_sites - 2)
    return [(0.5, "ZI" + rest), (0.5, "IZ" + rest)]


def probe_magnetization(layout: SubsystemLayout) -> np.ndarray:
    """Transverse probe magnetization M_x = X_A + X_B on ``layout``, with the probe
    pair in the singlet-triplet basis."""
    rest = "I" * (layout.n_sites - 2)
    m = pauli_string("XI" + rest) + pauli_string("IX" + rest)
    d = layout.total_dim // 4
    return change_probe_basis(m.reshape(4, d, 4, d), (0, 2)).reshape(m.shape)


def probe_only_operators() -> LindbladGenerator:
    """Isolated two-qubit probe (no fluctuators)."""
    return _system(_probe_terms(2), [], SubsystemLayout((2, 2)))


def add_gate(gen: LindbladGenerator, gate: str, gate_strength: float) -> LindbladGenerator:
    """A new generator: ``gen`` with the static two-qubit gate's terms added to its
    Hamiltonian one at a time, and the same jumps and layout."""
    if gate not in GATE_TERMS:
        raise ConfigurationError(f"unknown gate {gate!r}; use one of {tuple(GATE_TERMS)}")
    check_value("gate strength", gate_strength, "float")
    rest = "I" * (gen.layout.n_sites - 2)
    terms = [(gate_strength, lab + rest) for lab in GATE_TERMS[gate]]
    return LindbladGenerator(
        h=_plus_terms(gen.h, terms), jumps=list(zip(gen.rates, gen.jump_ops)), layout=gen.layout
    )
