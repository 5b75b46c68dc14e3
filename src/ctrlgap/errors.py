"""Exception types shared across the package."""


class CtrlGapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CtrlGapError):
    """Malformed configuration document or CLI usage."""


class UncontrollableGridError(CtrlGapError):
    """The discrete reachability map lacks full row rank at working
    precision (``gramian_report``), so projection onto the boundary-value
    set is unavailable on this grid."""


class SimulationOverflowError(CtrlGapError):
    """Non-finite values appeared during forward integration, which
    signals instability of the explicit scheme at this step size."""


class InfeasibleIntersectionError(CtrlGapError):
    """A dual multiplier separates the box from the boundary-value set,
    which proves that the two constraint sets do not intersect.  When a
    minimum-energy solve raises it, ``multiplier`` is that multiplier y in
    the basis (Qt, c) of ``AffineData.basis``."""


class BracketError(CtrlGapError):
    """The critical bound has no bracket: the zero control already reaches
    the endpoint, so a_c = 0 and no box with interior is critical."""


class OracleSizeError(CtrlGapError):
    """Problem too large for exhaustive active-set enumeration."""


class AnalyticCaseError(CtrlGapError):
    """The analytic critical solution's case dispatch failed to produce a
    verifiable switching time."""


class ConsistencyError(CtrlGapError):
    """A computed result violates a property that holds in exact
    arithmetic (some activity pattern of a gap problem is stationary), so
    it cannot be trusted."""
