"""Identification and adaptive control bench for a simulated butterfly valve.

The package covers the full loop of a classic identification-to-control
workflow: a stiction/hysteresis valve simulator with discrete presets, PRBS
excitation design, spectral (ETFE) and parametric (LS/RLS) identification,
RST pole-placement design with sensitivity analysis, closed-loop output-error
identification, and the iterative identify/re-design protocol.  The `cli`
module exposes all of it as runnable scenarios.
"""

from .adapt import (
    AdaptiveRun,
    EvalScenario,
    ExcitationSpec,
    IterationRecord,
    RstDesignSpec,
    adaptive_run,
    iterate,
    tracking_cost,
    tracking_run,
)
from .cloe import ClosedLoopPredictor, CloeRun, cl_identify
from .control import (
    HR_NYQUIST_ZERO,
    HS_INTEGRATOR,
    ControllerRuntime,
    DelayPolynomial,
    PoleSpec,
    ReferenceModel,
    RstController,
    SensitivityAnalysis,
    bezout_design,
    check_pole_placement,
    closed_loop_polynomial,
    desired_poles,
    pi_design,
    sensitivity,
)
from .errors import ConfigError, DesignError, DivergenceError, IdentifiabilityError, ValveBenchError
from .ident import (
    AdaptationState,
    RlsRun,
    batch_least_squares,
    build_regressors,
    initial_adaptation_state,
    order_scan,
    rls_run,
    rls_step,
)
from .plant import (
    DiscretePlantModel,
    HysteresisMap,
    LinearSimulator,
    ValveParams,
    ValveSimulator,
    ValveState,
    linear_run,
    measure_rise_time,
    static_sweep,
    valve_run,
    valve_step,
)
from .presets import PRESET_NAMES, PRESETS, default_preset, get_preset
from .signals import (
    PrbsConfig,
    check_prbs_constraint,
    prbs_bits,
    prbs_deviation,
    prbs_generate,
    step_sequence,
    sweep_profile,
)
from .spectral import FrequencyResponse, corner_from_asymptotes, etfe, slope_fit, smooth

__version__ = "0.1.0"

__all__ = [
    "AdaptationState",
    "AdaptiveRun",
    "ClosedLoopPredictor",
    "CloeRun",
    "ConfigError",
    "ControllerRuntime",
    "DelayPolynomial",
    "DesignError",
    "DiscretePlantModel",
    "DivergenceError",
    "EvalScenario",
    "ExcitationSpec",
    "FrequencyResponse",
    "HR_NYQUIST_ZERO",
    "HS_INTEGRATOR",
    "HysteresisMap",
    "IdentifiabilityError",
    "IterationRecord",
    "LinearSimulator",
    "PRESETS",
    "PRESET_NAMES",
    "PoleSpec",
    "PrbsConfig",
    "ReferenceModel",
    "RlsRun",
    "RstController",
    "RstDesignSpec",
    "SensitivityAnalysis",
    "ValveBenchError",
    "ValveParams",
    "ValveSimulator",
    "ValveState",
    "adaptive_run",
    "batch_least_squares",
    "bezout_design",
    "build_regressors",
    "check_pole_placement",
    "check_prbs_constraint",
    "cl_identify",
    "closed_loop_polynomial",
    "corner_from_asymptotes",
    "default_preset",
    "desired_poles",
    "etfe",
    "get_preset",
    "initial_adaptation_state",
    "iterate",
    "linear_run",
    "measure_rise_time",
    "order_scan",
    "pi_design",
    "prbs_bits",
    "prbs_deviation",
    "prbs_generate",
    "rls_run",
    "rls_step",
    "sensitivity",
    "slope_fit",
    "smooth",
    "static_sweep",
    "step_sequence",
    "sweep_profile",
    "tracking_cost",
    "tracking_run",
    "valve_run",
    "valve_step",
]
