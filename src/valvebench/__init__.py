"""Identification and adaptive control bench for a simulated butterfly valve.

The package covers the full loop of a classic identification-to-control
workflow: a stiction/hysteresis valve simulator with discrete presets, PRBS
excitation design, spectral (ETFE) and parametric (LS/RLS) identification,
RST pole-placement design with sensitivity analysis, closed-loop output-error
identification, and the iterative identify/re-design protocol.  The `cli`
module exposes all of it as runnable scenarios.

`import valvebench` loads no layer module.  Each exported name is looked
up in its module at every access, which imports that module the first time;
no name is bound into the package namespace, so it always reads what its
module holds now.  A submodule read as an attribute is imported the same way.
"""

import importlib

__version__ = "0.1.0"

# Module -> the names it exports.
_EXPORTS = {
    "adapt": (
        "AdaptiveRun",
        "EvalScenario",
        "ExcitationSpec",
        "IterationRecord",
        "RstDesignSpec",
        "adaptive_run",
        "iterate",
        "tracking_cost",
        "tracking_run",
    ),
    "cloe": ("ClosedLoopPredictor", "CloeRun", "cl_identify"),
    "control": (
        "HR_NYQUIST_ZERO",
        "HS_INTEGRATOR",
        "ControllerRuntime",
        "DelayPolynomial",
        "PoleSpec",
        "RstController",
        "SensitivityAnalysis",
        "bezout_design",
        "check_pole_placement",
        "closed_loop_polynomial",
        "desired_poles",
        "pi_design",
        "sensitivity",
    ),
    "errors": ("ConfigError", "DesignError", "DivergenceError", "IdentifiabilityError", "ValveBenchError"),
    "ident": (
        "AdaptationState",
        "RlsRun",
        "arx_least_squares",
        "batch_least_squares",
        "build_regressors",
        "initial_adaptation_state",
        "order_scan",
        "rls_run",
        "rls_step",
    ),
    "plant": (
        "DiscretePlantModel",
        "HysteresisMap",
        "LinearSimulator",
        "ValveParams",
        "ValveSimulator",
        "ValveState",
        "linear_run",
        "measure_rise_time",
        "static_sweep",
        "valve_run",
    ),
    "presets": ("PRESET_NAMES", "PRESETS", "get_preset"),
    "signals": (
        "PrbsConfig",
        "check_prbs_constraint",
        "prbs_bits",
        "prbs_deviation",
        "prbs_generate",
        "step_sequence",
    ),
    "spectral": ("FrequencyResponse", "corner_from_asymptotes", "etfe", "slope_fit", "smooth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"_kernels", "cli", "fileio"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
