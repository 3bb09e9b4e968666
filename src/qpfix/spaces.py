"""Quasi-pseudometric spaces: asymmetric distances, conjugates, symmetrization.

A quasi-pseudometric d on a carrier X satisfies d(x, x) = 0 and the
triangle inequality, but is not required to be symmetric.  Two carrier
kinds are supported: closed real intervals (points are floats) and finite
sets (points are integer indices into a dense distance matrix).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Optional, Sequence, Union

import numpy as np

Point = Union[int, float]

DEFAULT_AXIOM_SLACK = 1e-12
DEFAULT_GRID_POINTS = 21


def is_finite_number(value) -> bool:
    """A finite number as JSON gives one: an int or a float (or a numpy scalar
    of one), never a bool, a string, NaN, Infinity or an int beyond float range."""
    value = value.item() if isinstance(value, np.generic) else value
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class DomainError(ValueError):
    """A point does not belong to the space's carrier."""


class UnsupportedError(RuntimeError):
    """Requested operation needs a finite carrier."""


@dataclass(frozen=True)
class IntervalCarrier:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FiniteCarrier:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("finite carrier needs at least one point")


Carrier = Union[IntervalCarrier, FiniteCarrier]

# Containment grace for interval carriers: map images may overshoot an
# endpoint by rounding noise and must not raise DomainError for that.
_CONTAINS_EPS = 1e-9


@dataclass(frozen=True)
class BallQuery:
    center: Point
    radius: float
    kind: str = "open"  # "open" | "closed"

    def __post_init__(self):
        if self.kind not in ("open", "closed"):
            raise ValueError(f"unknown ball kind {self.kind!r}")
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.kind == "open" and self.radius == 0:
            raise ValueError("open ball requires radius > 0")


@dataclass(frozen=True, eq=False)
class QPSpace:
    """A carrier plus an evaluable asymmetric distance.

    ``dist_fn`` is the raw evaluator; use :meth:`dist` for the checked
    entry point.  ``matrix`` is set for finite spaces (row-major, so
    ``matrix[i, j] = d(i, j)``) and gives exhaustive scans O(1) lookup.
    ``cross_fn``, when present, vectorizes distances over point arrays.
    ``sign`` tags the interval family d(x, y) = max(sign * (x - y), 0)
    (+1 upper, -1 lower), on which Cauchy scans have exact O(N) kernels.
    """

    carrier: Carrier
    dist_fn: Callable[[Point, Point], float]
    name: str = "space"
    matrix: Optional[np.ndarray] = None
    cross_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sign: Optional[int] = None

    # -- carrier ------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return isinstance(self.carrier, FiniteCarrier)

    def contains(self, x: Point) -> bool:
        if isinstance(self.carrier, FiniteCarrier):
            return (
                isinstance(x, (int, np.integer))
                and not isinstance(x, bool)
                and 0 <= int(x) < self.carrier.size
            )
        if not isinstance(x, (int, float, np.floating, np.integer)):
            return False
        try:
            xf = float(x)
        except OverflowError:  # an integer beyond float range
            return False
        if not math.isfinite(xf):
            return False
        return self.carrier.lo - _CONTAINS_EPS <= xf <= self.carrier.hi + _CONTAINS_EPS

    def require(self, x: Point) -> Point:
        if not self.contains(x):
            raise DomainError(f"point {x!r} is not in the carrier of {self.name}")
        return x

    def first_outside(self, points: Sequence[Point]) -> Optional[int]:
        """Position of the first point that :meth:`contains` rejects, or None.

        A batch of ints and numpy integers (finite carrier), or of ints,
        floats and numpy reals (interval), is tested as one array; any
        other batch goes point by point, so the answer is always that of a
        loop over contains.  Bools are never finite-carrier points, though
        numpy would read them as 0 and 1.
        """
        finite, c = self.is_finite, self.carrier
        plain, numeric = ({int}, np.integer) if finite else ({int, float}, (np.integer, np.floating))
        if all(k in plain or issubclass(k, numeric) for k in set(map(type, points))):
            lo, hi = (0, c.size - 1) if finite else (c.lo - _CONTAINS_EPS, c.hi + _CONTAINS_EPS)
            try:  # each point read as contains reads it, by int() or float(), never in float32
                arr = np.fromiter(points, np.int64 if finite else np.float64, len(points))
            except OverflowError:  # beyond int64 or float64: point by point
                pass
            else:
                ok = (arr >= lo) & (arr <= hi)
                return None if ok.all() else int(np.argmin(ok))
        return next((i for i, p in enumerate(points) if not self.contains(p)), None)

    def require_all(self, points: Iterable[Point]) -> list[Point]:
        """The points as a list, after one batch test that agrees with
        :meth:`require`: DomainError names the first point outside."""
        pts = list(points)
        bad = self.first_outside(pts)
        if bad is not None:
            self.require(pts[bad])  # raises, naming the point
        return pts

    def points(self) -> list[Point]:
        """All carrier points; finite spaces only."""
        if not self.is_finite:
            raise UnsupportedError("points() needs a finite carrier")
        return list(range(self.carrier.size))

    def grid(self, k: int = DEFAULT_GRID_POINTS) -> list[Point]:
        """Uniform sample: all points (finite) or k grid points (interval)."""
        if self.is_finite:
            return self.points()
        return [float(v) for v in np.linspace(self.carrier.lo, self.carrier.hi, k)]

    # -- distances ----------------------------------------------------

    def dist(self, x: Point, y: Point) -> float:
        self.require(x)
        self.require(y)
        return float(self.dist_fn(x, y))

    def cross(self, left: Sequence[Point], right: Sequence[Point]) -> np.ndarray:
        """Matrix of d(left[i], right[j]) without per-pair domain checks."""
        if self.matrix is not None:
            li = np.asarray(left, dtype=int)
            ri = np.asarray(right, dtype=int)
            return self.matrix[np.ix_(li, ri)]
        if self.cross_fn is not None:
            la = np.asarray(left, dtype=float)
            ra = np.asarray(right, dtype=float)
            return np.asarray(self.cross_fn(la, ra), dtype=float)
        return np.array([[float(self.dist_fn(a, b)) for b in right] for a in left])

    def pairwise(self, points: Sequence[Point]) -> np.ndarray:
        return self.cross(points, points)

    # -- derived spaces -----------------------------------------------

    def conjugate(self) -> "QPSpace":
        """Same carrier with the argument order reversed pointwise."""
        name = f"conj({self.name})"
        if self.matrix is not None:
            return _matrix_space(self.matrix.T, name)
        if self.sign is not None:
            return _signed_interval(self.carrier.lo, self.carrier.hi, -self.sign, name)
        base, inner = self.dist_fn, self.cross_fn
        cross = None if inner is None else (lambda a, b: np.asarray(inner(b, a)).T)
        return QPSpace(self.carrier, lambda x, y: base(y, x), name=name, cross_fn=cross)

    def sup_metric(self) -> "QPSpace":
        """Pointwise max of the distance and its conjugate (symmetric)."""
        name = f"sup({self.name})"
        if self.matrix is not None:
            return _matrix_space(np.maximum(self.matrix, self.matrix.T), name)
        base, inner = self.dist_fn, self.cross_fn
        cross = None if inner is None else (
            lambda a, b: np.maximum(inner(a, b), np.asarray(inner(b, a)).T))
        return QPSpace(self.carrier, lambda x, y: max(base(x, y), base(y, x)), name=name,
                       cross_fn=cross)

    def sup_dist(self, x: Point, y: Point) -> float:
        self.require(x)
        self.require(y)
        return max(float(self.dist_fn(x, y)), float(self.dist_fn(y, x)))

    # -- balls ---------------------------------------------------------

    def in_ball(self, query: BallQuery, y: Point) -> bool:
        d = self.dist(query.center, y)
        if query.kind == "open":
            return d < query.radius
        return d <= query.radius


# -- constructors ------------------------------------------------------


def interval_space(
    lo: float,
    hi: float,
    dist_fn: Callable[[float, float], float],
    name: str = "interval",
    cross_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> QPSpace:
    return QPSpace(IntervalCarrier(float(lo), float(hi)), dist_fn, name=name, cross_fn=cross_fn)


def _signed_interval(lo: float, hi: float, sign: int, name: Optional[str] = None) -> QPSpace:
    """[lo, hi] with d(x, y) = max(sign * (x - y), 0): the upper quasi-metric
    for sign 1, the lower for -1.  The difference is taken in that order, not
    negated, so that d(x, x) is 0.0 and never -0.0."""
    lo, hi = float(lo), float(hi)
    if sign > 0:
        dist = lambda x, y: max(x - y, 0.0)
        cross = lambda a, b: np.maximum(a[:, None] - b[None, :], 0.0)
    else:
        dist = lambda x, y: max(y - x, 0.0)
        cross = lambda a, b: np.maximum(b[None, :] - a[:, None], 0.0)
    name = name or f"{'upper' if sign > 0 else 'lower'}_interval[{lo},{hi}]"
    return QPSpace(IntervalCarrier(lo, hi), dist, name=name, sign=sign, cross_fn=cross)


def finite_space(matrix: Iterable[Iterable[float]], name: str = "finite") -> QPSpace:
    numeric = isinstance(matrix, np.ndarray) and matrix.dtype.kind in "iuf"
    # numpy would take "0.5" and true as numbers: other input is read entry by entry
    m = np.asarray(matrix, dtype=None if numeric else object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("finite space needs a square distance matrix")
    if not numeric:
        bad = [v for v in m.flat if not is_finite_number(v)]
        if bad:
            raise ValueError(f"distance matrix entries must be finite numbers, got {bad[0]!r}")
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("distance matrix entries must be finite")
    if (m < 0).any():
        raise ValueError("distance matrix entries must be nonnegative")
    return _matrix_space(m, name)


def _matrix_space(m: np.ndarray, name: str) -> QPSpace:
    """The finite space of a checked distance matrix.  It keeps a read-only
    copy, so that the matrix cannot drift from the rows that dist reads."""
    m = np.array(m, dtype=float, order="C")
    m.flags.writeable = False
    rows = m.tolist()  # Python lists index faster than numpy scalars
    return QPSpace(FiniteCarrier(m.shape[0]), lambda x, y: rows[int(x)][int(y)], name=name,
                   matrix=m)


# -- axiom checks ------------------------------------------------------


def resolve_sample(
    space: QPSpace,
    sample: Union[str, Sequence[Point]] = "default",
    grid: int = DEFAULT_GRID_POINTS,
) -> list[Point]:
    """Turn a sample spec ("default" | "exhaustive" | explicit list) into points."""
    if isinstance(sample, str):
        if sample == "exhaustive":
            if not space.is_finite:
                raise UnsupportedError("exhaustive sampling needs a finite carrier")
            return space.points()
        if sample == "default":
            return space.grid(grid)
        raise ValueError(f"unknown sample spec {sample!r}")
    return space.require_all(sample)


@dataclass
class Report:
    """A check's findings: it passes when each field named in ``findings``
    is empty, and its JSON form is ``passed`` plus every field, with each
    tuple inside a list field read as a list."""

    findings: ClassVar[tuple]

    @property
    def passed(self) -> bool:
        return not any(getattr(self, name) for name in self.findings)

    def as_dict(self) -> dict:
        out = {"passed": self.passed}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                v = [list(e) if isinstance(e, tuple) else e for e in v]
            out[f.name] = v
        return out


@dataclass
class AxiomReport(Report):
    findings = ("identity_violations", "triangle_violations")
    identity_violations: list  # (point, d(x,x))
    triangle_violations: list  # (x, y, z, d(x,z), d(x,y)+d(y,z))
    sample_size: int
    slack: float


@dataclass
class T0Report(Report):
    findings = ("violations",)
    violations: list  # (x, y, d(x,y), d(y,x)) with x != y and both ~0
    sample_size: int
    slack: float


# Cells of the triangle-excess tensor built at once by check_axioms.
_AXIOM_BLOCK_CELLS = 1 << 20


def check_axioms(
    space: QPSpace,
    sample: Union[str, Sequence[Point]] = "default",
    slack: float = DEFAULT_AXIOM_SLACK,
) -> AxiomReport:
    """Check d(x,x)=0 and the triangle inequality on a sample.

    Every violating point / triple is reported with its witnessing values.
    """
    pts = resolve_sample(space, sample)
    d = space.pairwise(pts)
    n = len(pts)

    identity = [
        (pts[i], float(d[i, i])) for i in range(n) if abs(d[i, i]) > slack
    ]

    # excess[i,j,k] = d(i,k) - d(i,j) - d(j,k); positive beyond slack is a
    # violation.  Blocks of i keep the tensor O(n^2) and the report row-major.
    triangle = []
    step = max(1, _AXIOM_BLOCK_CELLS // max(1, n * n))
    for a in range(0, n, step):
        rows = d[a : a + step]
        excess = rows[:, None, :] - rows[:, :, None] - d[None, :, :]
        triangle += [
            (pts[i], pts[j], pts[k], float(d[i, k]), float(d[i, j] + d[j, k]))
            for i, j, k in np.argwhere(excess > slack) + (a, 0, 0)
        ]
    return AxiomReport(identity, triangle, n, slack)


def check_T0(
    space: QPSpace,
    sample: Union[str, Sequence[Point]] = "default",
    slack: float = DEFAULT_AXIOM_SLACK,
) -> T0Report:
    """List pairs x != y that the distance cannot separate in either direction."""
    pts = resolve_sample(space, sample)
    d = space.pairwise(pts)
    both_zero = (d <= slack) & (d.T <= slack)
    np.fill_diagonal(both_zero, False)
    viols = [
        (pts[i], pts[j], float(d[i, j]), float(d[j, i]))
        for i, j in np.argwhere(both_zero)
        if i < j
    ]
    return T0Report(viols, len(pts), slack)


# -- JSON wire format --------------------------------------------------


def space_to_json(space: QPSpace) -> dict:
    if space.is_finite:
        return {
            "kind": "finite",
            "n": space.carrier.size,
            "matrix": [[float(v) for v in row] for row in space.matrix],
        }
    if space.sign is not None:
        return {
            "kind": "interval",
            "lo": space.carrier.lo,
            "hi": space.carrier.hi,
            "dist": "upper" if space.sign > 0 else "lower",
        }
    raise ValueError(f"space {space.name!r} has no JSON form")


# the required and the optional fields of an inline space of each kind
_SPACE_FIELDS = {"interval": ({"kind", "lo", "hi"}, {"dist"}),
                 "finite": ({"kind", "matrix"}, {"n"})}


def space_from_json(obj: dict) -> QPSpace:
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SPACE_FIELDS:  # a list is no key
        raise ValueError(f"unknown space kind {kind!r}")
    required, optional = _SPACE_FIELDS[kind]
    unknown, missing = set(obj) - required - optional, required - set(obj)
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ValueError(f"{problem} space fields: {sorted(names)}")
    if kind == "finite":
        space = finite_space(obj["matrix"])
        n, size = obj.get("n", space.carrier.size), space.carrier.size
        if type(n) is not int or n != size:
            raise ValueError(f"n must be the integer size of the matrix, {size}, got {n!r}")
        return space
    dist = obj.get("dist", "upper")
    if dist not in ("upper", "lower"):
        raise ValueError(f"unknown interval distance {dist!r}")
    for key in ("lo", "hi"):
        if not is_finite_number(obj[key]):
            raise ValueError(f"{key} must be a finite number, got {obj[key]!r}")
    return _signed_interval(obj["lo"], obj["hi"], 1 if dist == "upper" else -1)
