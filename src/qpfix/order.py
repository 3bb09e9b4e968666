"""The preorder induced by a bounded real-valued function.

Given a quasi-pseudometric d and a function phi on the carrier, declare
x below y whenever d(x, y) <= phi(y) - phi(x).  The relation is always
reflexive and transitive; on a T0 space the symmetrized variant (using
the sup metric in place of d) is additionally antisymmetric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
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


def _index_points(space: QPSpace, points: Iterable[Point]) -> tuple[list, np.ndarray]:
    """The distinct points in first-seen order, required at once, and the
    position of every input point among them.  Points are told apart by
    type and repr, so 1 and 1.0, or 0.0 and -0.0, stay distinct and a report
    can quote the objects it was given."""
    index: dict = {}
    distinct: list = []
    pos = []
    for p in points:
        key = (type(p), repr(p))
        i = index.get(key)
        if i is None:
            i = index[key] = len(distinct)
            distinct.append(p)
        pos.append(i)
    return space.require_all(distinct), np.array(pos, dtype=np.intp)


# Cells of the applicability mask built at once.  Whole rows of the first
# coordinate are batched, so a large finite carrier needs O(n^3) memory.
_ISOTONE_BLOCK_CELLS = 1 << 20


def check_isotone(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    sample: Union[str, Iterable[tuple[Point, Point, Point, Point]]] = "grid",
) -> IsotoneReport:
    """Check order preservation of a two-argument map.

    For every sampled tuple (x, z, y, w) with x below z and y below w,
    the images F(x, y) and F(z, w) must be related the same way.  The
    string specs sample the 4-fold row-major product of the default grid.
    Both relations are read from relation matrices, one over the sample
    points and one over the images, and F is evaluated once per distinct
    argument pair, in the order a row-major scan first needs it.
    """
    space = ctx.space
    if isinstance(sample, str):
        if sample not in ("grid", "exhaustive"):
            raise ValueError(f"unknown isotone sample spec {sample!r}")
        if sample == "exhaustive" and not space.is_finite:
            raise UnsupportedError("exhaustive sampling needs a finite carrier")
        pts = space.require_all(space.grid(ISOTONE_GRID_POINTS))
        rel = relation_matrix(ctx, pts)
        n = len(pts)
        checked = n**4
        step = max(1, _ISOTONE_BLOCK_CELLS // n**3)

        def applicable_tuples():
            for a in range(0, n, step):
                x, z, y, w = np.nonzero(rel[a : a + step, :, None, None] & rel[None, None])
                yield x + a, z, y, w

    else:
        rows = [(x, z, y, w) for x, z, y, w in sample]
        pts, pos = _index_points(space, itertools.chain.from_iterable(rows))
        rel = relation_matrix(ctx, pts)
        X, Z, Y, W = pos.reshape(-1, 4).T
        checked = len(rows)

        def applicable_tuples():
            t = np.flatnonzero(rel[X, Z] & rel[Y, W])
            yield X[t], Z[t], Y[t], W[t]

    # Pass 1: the argument pairs (x, y) and (z, w) of the applicable
    # tuples, numbered in the order the scan first reaches them.
    m = len(pts)
    slot: dict = {}
    applicable = 0
    for x, z, y, w in applicable_tuples():
        applicable += len(x)
        reached = np.column_stack([x * m + y, z * m + w]).ravel()
        ids, first = np.unique(reached, return_index=True)
        for pair in ids[np.argsort(first)].tolist():
            slot.setdefault(pair, len(slot))
    pairs = np.fromiter(slot, dtype=np.int64, count=len(slot))
    images = [coupled(pts[p // m], pts[p % m]) for p in pairs.tolist()]
    image_pts, image_pos = _index_points(space, images)
    image_rel = relation_matrix(ctx, image_pts)

    # Pass 2: the applicable tuples whose images are unrelated, row-major.
    by_pair = np.argsort(pairs)
    sorted_pairs = pairs[by_pair]
    counterexamples = []
    for x, z, y, w in applicable_tuples():
        lo = by_pair[np.searchsorted(sorted_pairs, x * m + y)]
        hi = by_pair[np.searchsorted(sorted_pairs, z * m + w)]
        bad = ~image_rel[image_pos[lo], image_pos[hi]]
        for *t, a, b in zip(*(v[bad].tolist() for v in (x, z, y, w, lo, hi))):
            counterexamples.append(
                {"tuple": tuple(pts[i] for i in t), "image_lo": images[a], "image_hi": images[b]}
            )
    return IsotoneReport(counterexamples, checked, applicable)


def dual(ctx: PreorderCtx) -> PreorderCtx:
    """ctx with its relation reversed, exactly (float negation is exact):
    the conjugate space, under ctx's space name so that carrier errors read
    the same, and the negated phi with its bound flipped (Cobzaş 2013).  On
    a finite carrier it copies the matrix: build it once per check or run."""
    phi = ctx.phi
    flip = {"above": "below", "below": "above"}[phi.bound_direction]
    negated = PhiFn(lambda p: -phi(p), flip, -phi.declared_bound, name=f"-{phi.name}")
    return replace(ctx, space=replace(ctx.space.conjugate(), name=ctx.space.name), phi=negated)


def oriented(ctx: PreorderCtx, direction: str) -> PreorderCtx:
    """The context in which a run in ``direction`` climbs: ctx for
    "forward", :func:`dual` for "reverse"."""
    if direction == "forward":
        return ctx
    if direction == "reverse":
        return dual(ctx)
    raise ValueError(f"unknown direction {direction!r}")


def admissible_seed(ctx: PreorderCtx, coupled: CoupledMap, x0: Point, y0: Point) -> bool:
    """Both starting inequalities: x0 below F(x0, y0) and y0 below
    F(y0, x0).  A reverse run tests them on :func:`oriented`."""
    fx, fy = coupled(x0, y0), coupled(y0, x0)
    return induced_leq(ctx, x0, fx) and induced_leq(ctx, y0, fy)


def seed_search(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    candidates: Union[Sequence[Point], Sequence[tuple[Point, Point]]],
    direction: str = "forward",
) -> Optional[tuple[Point, Point]]:
    """First candidate pair that is an :func:`admissible_seed` in ``direction``.

    Candidates may be pairs, or single points whose row-major product is
    searched.  Absence is None, not an error.
    """
    octx = oriented(ctx, direction)
    cand = list(candidates)
    if not cand:
        raise ValueError("candidate list must be nonempty")
    if not isinstance(cand[0], (tuple, list)):
        cand = [(a, b) for a in cand for b in cand]
    return next(((x0, y0) for x0, y0 in cand if admissible_seed(octx, coupled, x0, y0)), None)


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


def check_phi_bound(phi: PhiFn, sample: Sequence[Point]) -> BoundReport:
    """Confirm the declared bound on a sample and report the range attained."""
    pts = list(sample)
    if not pts:
        raise ValueError("sample must be nonempty")
    vals = [phi(p) for p in pts]
    # a bound below is the bound above of -phi; negation is exact
    s, bound = (1.0 if phi.bound_direction == "above" else -1.0), phi.declared_bound
    viols = [(p, v) for p, v in zip(pts, vals) if s * v > s * bound]
    return BoundReport(phi.bound_direction, bound, max(vals), min(vals), viols)
