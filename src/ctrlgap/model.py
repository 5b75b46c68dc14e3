"""Systems, grids, bounds, boundary data and the built-in benchmark instances.

The records here, as everywhere in the package but ``AffineData``, are
``typing.NamedTuple`` classes: immutable tuples that can be shared freely
across threads or processes.  One that checks or normalises its fields
does so in ``__new__`` of a subclass over the fields; ``_replace`` builds
the tuple directly and skips those checks.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigError

MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]
BoundLike = Union[float, Sequence[float], np.ndarray]

BUILTIN_NAMES = ("double_integrator", "damped_oscillator", "machine_tool")


def _as_matrix(value, rows=None, cols=None, name="matrix") -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _as_vector(value, size=None, name="vector") -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if size is not None and arr.size != size:
        raise ValueError(f"{name} must have length {size}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class _GridFields(NamedTuple):
    N: int
    t0: float
    tf: float


class Grid(_GridFields):
    """Uniform time grid with ``N`` forward-Euler steps on ``[t0, tf]``.

    Controls live on the ``N`` left nodes (value at node k applies on
    ``[t_k, t_{k+1})``); states live on all ``N + 1`` nodes.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.N < 1:
            raise ValueError(f"grid needs at least one step, got N={self.N}")
        if not (np.isfinite(self.t0) and np.isfinite(self.tf)):
            raise ValueError("grid endpoints must be finite")
        if self.tf <= self.t0:
            raise ValueError(f"tf must exceed t0, got [{self.t0}, {self.tf}]")
        return self

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.N

    @property
    def nodes(self) -> np.ndarray:
        """All N+1 node times."""
        return self.t0 + self.h * np.arange(self.N + 1)

    @property
    def left_nodes(self) -> np.ndarray:
        """The N node times carrying control values."""
        return self.t0 + self.h * np.arange(self.N)


class _LinearSystemFields(NamedTuple):
    n: int
    m: int
    A: MatrixLike
    B: MatrixLike
    t0: float
    tf: float


class LinearSystem(_LinearSystemFields):
    """Linear time-varying dynamics ``x' = A(t) x + B(t) u`` on ``[t0, tf]``.

    ``A`` and ``B`` are either constant matrices or callables returning the
    matrix sampled at a given time; derivatives, where needed, are always
    taken from samples, never symbolically.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be at least 1")
        if self.tf <= self.t0:
            raise ValueError(f"tf must exceed t0, got [{self.t0}, {self.tf}]")
        if isinstance(self.A, np.ndarray):
            _as_matrix(self.A, self.n, self.n, "A")
        if isinstance(self.B, np.ndarray):
            _as_matrix(self.B, self.n, self.m, "B")
        return self

    @property
    def is_lti(self) -> bool:
        return isinstance(self.A, np.ndarray) and isinstance(self.B, np.ndarray)

    def a_at(self, t: float) -> np.ndarray:
        if isinstance(self.A, np.ndarray):
            return self.A
        return _as_matrix(self.A(t), self.n, self.n, f"A({t})")

    def b_at(self, t: float) -> np.ndarray:
        if isinstance(self.B, np.ndarray):
            return self.B
        return _as_matrix(self.B(t), self.n, self.m, f"B({t})")

    def grid(self, N: int) -> Grid:
        return Grid(N=N, t0=self.t0, tf=self.tf)


def make_lti_system(A, B, t0: float, tf: float) -> LinearSystem:
    """Build a constant-matrix system, validating shapes and finiteness.

    ``B`` given as a flat length-n sequence is treated as a single column.
    """
    A = _as_matrix(A, name="A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"A must be square, got {A.shape}")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    B = _as_matrix(B, rows=n, name="B")
    return LinearSystem(n=n, m=B.shape[1], A=A, B=B, t0=float(t0), tf=float(tf))


def make_ltv_system(A: Callable[[float], np.ndarray], B: Callable[[float], np.ndarray],
                    n: int, m: int, t0: float, tf: float) -> LinearSystem:
    """Build a sampled time-varying system from matrix-valued callables."""
    sys = LinearSystem(n=n, m=m, A=A, B=B, t0=float(t0), tf=float(tf))
    sys.a_at(t0)  # validate shape/finiteness at one sample
    sys.b_at(t0)
    return sys


class _BoundaryFields(NamedTuple):
    x0: np.ndarray
    xf: np.ndarray


class BoundarySpec(_BoundaryFields):
    """Fixed endpoint data x(t0) = x0 and x(tf) = xf, kept as read-only
    copies."""

    __slots__ = ()

    def __new__(cls, x0, xf):
        x0, xf = _as_vector(x0, name="x0"), _as_vector(xf, name="xf")
        if x0.size != xf.size:
            raise ValueError("x0 and xf must have equal length")
        return super().__new__(cls, x0, xf)

    @property
    def n(self) -> int:
        return self.x0.size


class Bounds(NamedTuple):
    """Per-channel, per-node control bounds.

    ``lower`` and ``upper`` may each be a scalar, a length-m sequence of
    per-channel constants, or an (N, m) array of values at a grid's left
    nodes (a length-N vector when m = 1).  The strict inequality
    lower < upper is enforced at every node and channel.
    """

    lower: BoundLike
    upper: BoundLike

    @classmethod
    def symmetric(cls, a: float) -> "Bounds":
        """Box |u_i(t)| <= a; requires a > 0 so the box has interior."""
        a = float(a)
        if not np.isfinite(a) or a <= 0.0:
            raise ValueError(f"symmetric bound must be a positive finite scalar, got {a}")
        return cls(lower=-a, upper=a)

    def _sample_one(self, spec, grid: Grid, m: int, name: str) -> np.ndarray:
        base = np.asarray(spec, dtype=float)
        if base.ndim == 0:
            arr = np.full((grid.N, m), float(base))
        elif base.ndim == 1 and base.size == m:
            arr = np.tile(base, (grid.N, 1))
        elif base.ndim == 1 and base.size == grid.N and m == 1:
            arr = base.reshape(-1, 1)
        elif base.ndim == 1:
            raise ValueError(f"{name} bound vector of length {base.size} matches neither "
                             f"m={m} nor N={grid.N}")
        elif base.shape == (grid.N, m):
            arr = base.copy()
        else:
            raise ValueError(f"{name} bound array must have shape {(grid.N, m)}, "
                             f"got {base.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} bound contains non-finite samples")
        return arr

    def sample(self, grid: Grid, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (lower, upper) as N-by-m arrays sampled at left nodes."""
        lo = self._sample_one(self.lower, grid, m, "lower")
        hi = self._sample_one(self.upper, grid, m, "upper")
        if not np.all(lo < hi):
            k, i = np.unravel_index(int(np.argmin(hi - lo)), lo.shape)
            raise ValueError(
                f"bounds must satisfy lower < upper at every node; violated at "
                f"node {k}, channel {i}: [{lo[k, i]}, {hi[k, i]}]")
        return lo, hi


class _ProblemFields(NamedTuple):
    system: LinearSystem
    boundary: BoundarySpec
    bounds: Bounds | None = None
    label: str = ""


class ProblemInstance(_ProblemFields):
    """One benchmark: a system, its endpoint data and (optionally) bounds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.boundary.n != self.system.n:
            raise ValueError(
                f"boundary dimension {self.boundary.n} does not match state "
                f"dimension {self.system.n}")
        return self


def _machine_tool_matrices() -> tuple[np.ndarray, np.ndarray]:
    A = np.zeros((7, 7))
    A[0, 3] = 1.0
    A[1, 4] = 1.0
    A[2, 5] = 1.0
    A[3, 0] = -4.441e7 / 450.0
    A[3, 3] = -8500.0 / 450.0
    A[3, 6] = -1.0 / 450.0
    A[4, 6] = 1.0 / 750.0
    A[5, 2] = -8.2e6 / 40.0
    A[5, 5] = -1800.0 / 40.0
    A[5, 6] = 0.25 / 40.0
    A[6, 6] = -1.0 / 0.0025
    b = np.zeros((7, 1))
    b[6, 0] = 1.0 / 0.0025
    return A, b


def builtin_instance(name: str) -> ProblemInstance:
    """Return one of the three built-in benchmark instances.

    ``double_integrator``: two states on [0, 1], steer (0, 1) to (0, 0).
    ``damped_oscillator``: natural frequency 20, damping ratio 0.1, same
    horizon and endpoints as the double integrator.
    ``machine_tool``: seven-state manipulator model on [0, 0.0522].

    Bounds are left unset; callers supply the box (usually a symmetric
    scalar) when posing a particular feasibility or gap question.
    """
    if name == "double_integrator":
        system = make_lti_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.0, 1.0)
        boundary = BoundarySpec(x0=np.array([0.0, 1.0]), xf=np.array([0.0, 0.0]))
    elif name == "damped_oscillator":
        omega, zeta = 20.0, 0.1
        system = make_lti_system(
            [[0.0, 1.0], [-omega ** 2, -2.0 * zeta * omega]], [[0.0], [1.0]], 0.0, 1.0)
        boundary = BoundarySpec(x0=np.array([0.0, 1.0]), xf=np.array([0.0, 0.0]))
    elif name == "machine_tool":
        A, b = _machine_tool_matrices()
        system = make_lti_system(A, b, 0.0, 0.0522)
        boundary = BoundarySpec(
            x0=np.zeros(7),
            xf=np.array([0.0, 0.0027, 0.0, 0.0, 0.1, 0.0, 0.0]))
    else:
        raise ValueError(f"unknown builtin instance {name!r}; "
                         f"choose one of {', '.join(BUILTIN_NAMES)}")
    return ProblemInstance(system=system, boundary=boundary, bounds=None, label=name)


def instance_from_config(doc: Mapping) -> ProblemInstance:
    """Build a ProblemInstance from a JSON-compatible mapping.

    Recognised keys: ``system`` (builtin name, or a mapping with row-major
    ``A`` and ``B`` arrays), ``t0``, ``tf``, ``x0``, ``xf``, and either
    ``bound`` (symmetric scalar) or ``bounds`` with ``lower``/``upper``
    arrays (scalars or per-channel constants).  For a builtin system any
    of t0/tf/x0/xf may be omitted and default to the builtin values.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration must be a mapping of keys to values")
    if "system" not in doc:
        raise ConfigError("configuration is missing the 'system' key")
    spec = doc["system"]
    try:
        if isinstance(spec, str):
            base = builtin_instance(spec)
            system, boundary, label = base.system, base.boundary, base.label
            t0 = float(doc.get("t0", system.t0))
            tf = float(doc.get("tf", system.tf))
            if (t0, tf) != (system.t0, system.tf):
                system = make_lti_system(system.A, system.B, t0, tf)
            x0 = np.asarray(doc.get("x0", boundary.x0), dtype=float)
            xf = np.asarray(doc.get("xf", boundary.xf), dtype=float)
        elif isinstance(spec, Mapping):
            if "A" not in spec or "B" not in spec:
                raise ConfigError("inline system needs 'A' and 'B' matrices")
            for key in ("t0", "tf", "x0", "xf"):
                if key not in doc:
                    raise ConfigError(f"inline system requires the '{key}' key")
            system = make_lti_system(spec["A"], spec["B"], float(doc["t0"]), float(doc["tf"]))
            x0 = np.asarray(doc["x0"], dtype=float)
            xf = np.asarray(doc["xf"], dtype=float)
            label = str(doc.get("label", "custom"))
        else:
            raise ConfigError("'system' must be a builtin name or an inline matrix mapping")
        boundary = BoundarySpec(x0=x0, xf=xf)
        bounds = None
        if "bound" in doc and "bounds" in doc:
            raise ConfigError("give either 'bound' or 'bounds', not both")
        if "bound" in doc:
            bounds = Bounds.symmetric(float(doc["bound"]))
        elif "bounds" in doc:
            bspec = doc["bounds"]
            if not isinstance(bspec, Mapping) or "lower" not in bspec or "upper" not in bspec:
                raise ConfigError("'bounds' must be a mapping with 'lower' and 'upper'")
            bounds = Bounds(lower=np.asarray(bspec["lower"], dtype=float)
                            if not np.isscalar(bspec["lower"]) else float(bspec["lower"]),
                            upper=np.asarray(bspec["upper"], dtype=float)
                            if not np.isscalar(bspec["upper"]) else float(bspec["upper"]))
        return ProblemInstance(system=system, boundary=boundary, bounds=bounds, label=label)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
