"""Gap solutions and critical feasibility bounds for box-constrained
linear optimal control under forward-Euler transcription."""

from .analyze import SwitchingProfile, extract_switchings
from .controllability import CtrbReport, gramian_report, kalman_rank
from .critical import (CriticalResult, DICriticalSolution, critical_bound,
                       di_critical_analytic)
from .discretize import (AffineData, ControlTrajectory, StateTrajectory,
                         build_affine, l2_norm, simulate, weighted_norm)
from .errors import (AnalyticCaseError, BracketError, ConfigError, ConsistencyError,
                     CtrlGapError, InfeasibleIntersectionError, OracleSizeError,
                     SimulationOverflowError, UncontrollableGridError)
from .gapsolve import GapResult, SolveOptions, solve_gap
from .model import (BUILTIN_NAMES, BoundarySpec, Bounds, Grid, LinearSystem,
                    ProblemInstance, builtin_instance, instance_from_config,
                    make_lti_system, make_ltv_system)
from .oracle import brute_force_gap
from .project import ProjectionStats, dykstra_min_energy

__version__ = "0.1.0"

__all__ = [
    "AffineData", "AnalyticCaseError", "BoundarySpec", "Bounds", "BracketError",
    "BUILTIN_NAMES", "ConfigError", "ConsistencyError", "ControlTrajectory",
    "CriticalResult", "CtrbReport", "CtrlGapError", "DICriticalSolution", "GapResult",
    "Grid", "InfeasibleIntersectionError", "LinearSystem", "OracleSizeError",
    "ProblemInstance", "ProjectionStats", "SimulationOverflowError",
    "SolveOptions", "StateTrajectory", "SwitchingProfile",
    "UncontrollableGridError", "brute_force_gap",
    "build_affine", "builtin_instance", "critical_bound",
    "di_critical_analytic", "dykstra_min_energy", "extract_switchings",
    "gramian_report", "instance_from_config", "kalman_rank", "l2_norm",
    "make_lti_system", "make_ltv_system", "simulate", "solve_gap",
    "weighted_norm",
]
