"""The preorder induced by a bounded real-valued function.

Given a quasi-pseudometric d and a function phi on the carrier, declare
x below y whenever d(x, y) <= phi(y) - phi(x).  The relation is always
reflexive and transitive; on a T0 space the symmetrized variant (using
the sup metric in place of d) is additionally antisymmetric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .spaces import Point, QPSpace, UnsupportedError, resolve_sample

DEFAULT_ORDER_SLACK = 1e-12
ISOTONE_GRID_POINTS = 11


@dataclass(frozen=True)
class PhiFn:
    """Order-inducing function with a declared bound.

    The bound is documentation until :func:`check_phi_bound` confirms it
    on a sample; ``bound_direction`` "above" means values must not exceed
    ``declared_bound``, "below" means they must not fall under it.
    """

    fn: Callable[[Point], float]
    bound_direction: str = "above"
    declared_bound: float = 0.0
    name: str = "phi"

    def __post_init__(self):
        if self.bound_direction not in ("above", "below"):
            raise ValueError(f"unknown bound direction {self.bound_direction!r}")

    def __call__(self, x: Point) -> float:
        return float(self.fn(x))


@dataclass(frozen=True)
class CoupledMap:
    fn: Callable[[Point, Point], Point]
    name: str = "F"

    def __call__(self, x: Point, y: Point) -> Point:
        return self.fn(x, y)


@dataclass(frozen=True)
class SelfMap:
    fn: Callable[[Point], Point]
    name: str = "g"

    def __call__(self, x: Point) -> Point:
        return self.fn(x)


@dataclass(frozen=True)
class PreorderCtx:
    """A space, an order-inducing function, and comparison parameters.

    ``metric_mode`` "plain" compares with d, "symmetrized" with the sup
    metric (the partial-order variant on T0 spaces).  ``slack`` is added
    to the right-hand side of the order inequality; use 0 for exact
    work on finite rational instances.
    """

    space: QPSpace
    phi: PhiFn
    metric_mode: str = "plain"
    slack: float = DEFAULT_ORDER_SLACK

    def __post_init__(self):
        if self.metric_mode not in ("plain", "symmetrized"):
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")
        if not self.slack >= 0:  # negated, so that NaN is rejected too
            raise ValueError("slack must be nonnegative")

    def order_dist(self, x: Point, y: Point) -> float:
        if self.metric_mode == "symmetrized":
            return self.space.sup_dist(x, y)
        return self.space.dist(x, y)

    def order_cross(self, left: Sequence[Point], right: Sequence[Point]) -> np.ndarray:
        d = self.space.cross(left, right)
        if self.metric_mode == "symmetrized":
            return np.maximum(d, self.space.cross(right, left).T)
        return d


def induced_leq(ctx: PreorderCtx, x: Point, y: Point) -> bool:
    """True when x is below y in the induced relation."""
    return ctx.order_dist(x, y) <= ctx.phi(y) - ctx.phi(x) + ctx.slack


def relation_matrix(ctx: PreorderCtx, points: Sequence[Point]) -> np.ndarray:
    """Boolean matrix R[i, j] = (points[i] below points[j])."""
    d = ctx.order_cross(points, points)
    phi = np.array([ctx.phi(p) for p in points])
    return d <= phi[None, :] - phi[:, None] + ctx.slack


@dataclass
class LawReport:
    reflexivity_violations: list  # points
    transitivity_violations: list  # (x, y, z)
    checked_points: int

    @property
    def passed(self) -> bool:
        return not self.reflexivity_violations and not self.transitivity_violations

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked_points": self.checked_points,
            "reflexivity_violations": list(self.reflexivity_violations),
            "transitivity_violations": [list(v) for v in self.transitivity_violations],
        }


def check_preorder_laws(
    ctx: PreorderCtx, sample: Union[str, Sequence[Point]] = "default"
) -> LawReport:
    """Verify reflexivity on all sampled points and transitivity on all
    sampled triples whose first two pairs are related."""
    pts = resolve_sample(ctx.space, sample)
    rel = relation_matrix(ctx, pts)
    refl = [pts[i] for i in range(len(pts)) if not rel[i, i]]
    # composable[i, k]: some j with i<=j and j<=k exists but i<=k fails
    reach = rel @ rel
    bad = np.argwhere(reach & ~rel)
    trans = []
    for i, k in bad:
        j = int(np.argmax(rel[i] & rel[:, k]))
        trans.append((pts[i], pts[j], pts[k]))
    return LawReport(refl, trans, len(pts))


@dataclass
class IsotoneReport:
    counterexamples: list  # dicts with the tuple and both image points
    checked: int
    applicable: int  # tuples whose premises held

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "applicable": self.applicable,
            "counterexamples": self.counterexamples,
        }


def isotone_sample(
    ctx: PreorderCtx, grid: int = ISOTONE_GRID_POINTS
) -> Iterable[tuple[Point, Point, Point, Point]]:
    """Full 4-fold product of the default grid, row-major."""
    pts = ctx.space.grid(grid)
    return itertools.product(pts, repeat=4)


def check_isotone(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    sample: Union[str, Iterable[tuple[Point, Point, Point, Point]]] = "grid",
) -> IsotoneReport:
    """Check order preservation of a two-argument map.

    For every sampled tuple (x, z, y, w) with x below z and y below w,
    the images F(x, y) and F(z, w) must be related the same way.
    """
    if isinstance(sample, str):
        if sample not in ("grid", "exhaustive"):
            raise ValueError(f"unknown isotone sample spec {sample!r}")
        if sample == "exhaustive" and not ctx.space.is_finite:
            raise UnsupportedError("exhaustive sampling needs a finite carrier")
        tuples = isotone_sample(ctx)
    else:
        tuples = sample
    counterexamples = []
    checked = applicable = 0
    for x, z, y, w in tuples:
        checked += 1
        if not (induced_leq(ctx, x, z) and induced_leq(ctx, y, w)):
            continue
        applicable += 1
        fxy = coupled(x, y)
        fzw = coupled(z, w)
        if not induced_leq(ctx, fxy, fzw):
            counterexamples.append(
                {"tuple": (x, z, y, w), "image_lo": fxy, "image_hi": fzw}
            )
    return IsotoneReport(counterexamples, checked, applicable)


def directed_leq(ctx: PreorderCtx, direction: str, a: Point, b: Point) -> bool:
    """a below b for "forward" iteration, a above b for "reverse"."""
    return induced_leq(ctx, a, b) if direction == "forward" else induced_leq(ctx, b, a)


def admissible_seed(
    ctx: PreorderCtx, coupled: CoupledMap, x0: Point, y0: Point, direction: str = "forward"
) -> bool:
    """Both starting inequalities: x0 below F(x0, y0) and y0 below
    F(y0, x0) for "forward"; both flipped for "reverse"."""
    fx, fy = coupled(x0, y0), coupled(y0, x0)
    return directed_leq(ctx, direction, x0, fx) and directed_leq(ctx, direction, y0, fy)


def seed_search(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    candidates: Union[Sequence[Point], Sequence[tuple[Point, Point]]],
    direction: str = "forward",
) -> Optional[tuple[Point, Point]]:
    """First candidate pair that is an :func:`admissible_seed`.

    Candidates may be pairs, or single points whose row-major product is
    searched.  Absence is None, not an error.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    cand = list(candidates)
    if not cand:
        raise ValueError("candidate list must be nonempty")
    if not isinstance(cand[0], (tuple, list)):
        cand = [(a, b) for a in cand for b in cand]
    return next(
        ((x0, y0) for x0, y0 in cand if admissible_seed(ctx, coupled, x0, y0, direction)), None
    )


@dataclass
class BoundReport:
    direction: str
    declared_bound: float
    max_attained: float
    min_attained: float
    violations: list  # (point, value)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "direction": self.direction,
            "declared_bound": self.declared_bound,
            "max_attained": self.max_attained,
            "min_attained": self.min_attained,
            "violations": [list(v) for v in self.violations],
        }


def check_phi_bound(
    phi: PhiFn, sample: Sequence[Point]
) -> BoundReport:
    """Confirm the declared bound on a sample and report the range attained."""
    pts = list(sample)
    if not pts:
        raise ValueError("sample must be nonempty")
    vals = [phi(p) for p in pts]
    if phi.bound_direction == "above":
        viols = [(p, v) for p, v in zip(pts, vals) if v > phi.declared_bound]
    else:
        viols = [(p, v) for p, v in zip(pts, vals) if v < phi.declared_bound]
    return BoundReport(
        phi.bound_direction,
        phi.declared_bound,
        max(vals),
        min(vals),
        viols,
    )
