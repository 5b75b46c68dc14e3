"""Gap solutions and critical feasibility bounds for box-constrained
linear optimal control under forward-Euler transcription."""

from .analyze import (BangBangReport, SwitchingProfile, check_bang_bang,
                      extract_switchings)
from .controllability import (CtrbReport, discrete_gramian, gramian_report,
                              kalman_rank, ltv_rank)
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
from .project import ProjectionStats, dykstra_min_energy, project_affine, project_box

__version__ = "0.1.0"

__all__ = [
    "AffineData", "AnalyticCaseError", "BangBangReport",
    "BoundarySpec", "Bounds", "BracketError", "BUILTIN_NAMES", "ConfigError",
    "ConsistencyError", "ControlTrajectory", "CriticalResult",
    "CtrbReport", "CtrlGapError", "DICriticalSolution", "GapResult", "Grid",
    "InfeasibleIntersectionError", "LinearSystem", "OracleSizeError",
    "ProblemInstance", "ProjectionStats", "SimulationOverflowError",
    "SolveOptions", "StateTrajectory", "SwitchingProfile",
    "UncontrollableGridError", "brute_force_gap",
    "build_affine", "builtin_instance", "check_bang_bang", "critical_bound",
    "di_critical_analytic", "discrete_gramian",
    "dykstra_min_energy", "extract_switchings", "gramian_report",
    "instance_from_config", "kalman_rank", "l2_norm", "ltv_rank",
    "make_lti_system", "make_ltv_system", "project_affine", "project_box",
    "simulate", "solve_gap", "weighted_norm",
]
