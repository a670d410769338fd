"""Two-qubit probe of a damped two-level-fluctuator environment."""

from .linalg import SubsystemLayout
from .model import (
    ConfigurationError,
    GroundStateDegeneracyError,
    ModelConfig,
    TlfEnsemble,
    build_operators,
    initial_state,
    probe_only_operators,
    sample_ensemble,
    tlf_ground_state,
)
from .dynamics import (
    LindbladGenerator,
    PropagationError,
    Trajectory,
    build_liouvillian,
    propagate,
    rk4_reference,
    step_propagator,
)
from .observables import (
    EntanglementTrace,
    SpectrumEstimate,
    TimeSeries,
    correlation_matrix,
    entanglement_lifetime,
    entanglement_trace,
    log_negativity,
    lower_bound_c2prime,
    magnetization_series,
    p_of_t,
    power_spectrum,
)

__version__ = "0.1.0"

from .scenarios import (  # noqa: E402  (depends on __version__)
    GateSpec,
    RunRecord,
    Scenario,
    detect_peaks,
    load_scenario_file,
    run_scenario,
)

__all__ = [
    "SubsystemLayout",
    "ConfigurationError",
    "GroundStateDegeneracyError",
    "ModelConfig",
    "TlfEnsemble",
    "build_operators",
    "initial_state",
    "probe_only_operators",
    "sample_ensemble",
    "tlf_ground_state",
    "LindbladGenerator",
    "PropagationError",
    "Trajectory",
    "build_liouvillian",
    "propagate",
    "rk4_reference",
    "step_propagator",
    "EntanglementTrace",
    "SpectrumEstimate",
    "TimeSeries",
    "correlation_matrix",
    "entanglement_lifetime",
    "entanglement_trace",
    "log_negativity",
    "lower_bound_c2prime",
    "magnetization_series",
    "p_of_t",
    "power_spectrum",
    "GateSpec",
    "RunRecord",
    "Scenario",
    "detect_peaks",
    "load_scenario_file",
    "run_scenario",
    "__version__",
]
