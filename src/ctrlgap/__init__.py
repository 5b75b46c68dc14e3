"""Gap solutions and critical feasibility bounds for box-constrained linear
optimal control under forward-Euler transcription. Each public name loads its
submodule on first use (PEP 562); importing ``ctrlgap.cli`` loads every module."""

__version__ = "0.1.0"

_EXPORTS = {  # each submodule and the public names it defines
    "analyze": "SwitchingProfile extract_switchings", "cli": "", "csvtext": "",
    "controllability": "CtrbReport gramian_report kalman_rank",
    "critical": "CriticalResult DICriticalSolution critical_bound di_critical_analytic",
    "discretize": "AffineData ControlTrajectory StateTrajectory build_affine l2_norm simulate "
                  "weighted_norm",
    "errors": "AnalyticCaseError BracketError ConfigError ConsistencyError CtrlGapError "
              "InfeasibleIntersectionError OracleSizeError SimulationOverflowError "
              "UncontrollableGridError",
    "exchange": "", "figures": "", "gapsolve": "GapResult SolveOptions solve_gap",
    "model": "BUILTIN_NAMES BoundarySpec Bounds Grid LinearSystem ProblemInstance "
             "builtin_instance instance_from_config",
    "oracle": "brute_force_gap", "project": "ProjectionStats dykstra_min_energy",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # __import__, unlike importlib.import_module, shows in -X importtime
    if name in _EXPORTS:
        return __import__(f"{__name__}.{name}", fromlist=[name])  # the submodule
    if name in _HOME:
        return globals().setdefault(name, getattr(__getattr__(_HOME[name]), name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
