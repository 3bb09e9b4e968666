"""Weak relatedness of a coupled map with a self map, and empirical
sequential continuity.

A pair {F, g} is weakly left-related when, for every (x, y):

  C1:  F(x, y) below g(F(x, y))   and   g(x) below F(g(x), g(y))
  C2:  F(y, x) below g(F(y, x))   and   g(y) below F(g(y), g(x))

Weak right-relatedness (D1/D2) reverses every inequality.  These are
universally quantified hypotheses; on interval carriers the checkers
report grid evidence only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .order import CoupledMap, PreorderCtx, SelfMap, induced_leq
from .sequences import SequenceWindow, detect_limit
from .spaces import Point, QPSpace

RELATION_GRID_POINTS = 11


@dataclass(frozen=True)
class RelViolation:
    condition: str  # "C1" | "C2" | "D1" | "D2"
    part: int  # 1 = image inequality, 2 = seed-type inequality
    pair: tuple
    lhs: Point
    rhs: Point

    def as_dict(self, slack: float) -> dict:
        return {
            "condition": self.condition,
            "part": self.part,
            "pair": list(self.pair),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": slack,
        }


@dataclass
class RelReport:
    kind: str  # "left" | "right"
    violations: list
    checked: int
    slack: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "checked": self.checked,
            "violations": [v.as_dict(self.slack) for v in self.violations],
        }


def pair_sample(ctx: PreorderCtx, grid: int = RELATION_GRID_POINTS):
    pts = ctx.space.grid(grid)
    return itertools.product(pts, repeat=2)


def _resolve_pairs(ctx: PreorderCtx, sample) -> Iterable[tuple[Point, Point]]:
    if isinstance(sample, str):
        if sample == "exhaustive":
            pts = ctx.space.points()
            return itertools.product(pts, repeat=2)
        if sample == "grid":
            return pair_sample(ctx)
        raise ValueError(f"unknown pair sample spec {sample!r}")
    return sample


def _relate_pair(
    side: str, ctx: PreorderCtx, coupled: CoupledMap, g: SelfMap, x: Point, y: Point
) -> Optional[RelViolation]:
    """First failing sub-condition of C1/C2 ("left") or D1/D2 ("right").

    Each step yields (a, b) for the left inequality a below b; the right
    side tests b below a.  Maps are evaluated lazily, in step order.
    """
    first, second = ("C1", "C2") if side == "left" else ("D1", "D2")

    def steps():
        fxy = coupled(x, y)
        yield first, 1, fxy, g(fxy)
        gx, gy = g(x), g(y)
        yield first, 2, gx, coupled(gx, gy)
        fyx = coupled(y, x)
        yield second, 1, fyx, g(fyx)
        yield second, 2, gy, coupled(gy, gx)

    for condition, part, a, b in steps():
        lhs, rhs = (a, b) if side == "left" else (b, a)
        if not induced_leq(ctx, lhs, rhs):
            return RelViolation(condition, part, (x, y), lhs, rhs)
    return None


def relate_pair_left(
    ctx: PreorderCtx, coupled: CoupledMap, g: SelfMap, x: Point, y: Point
) -> Optional[RelViolation]:
    """C1/C2 at a single pair; first failing sub-condition, or None."""
    return _relate_pair("left", ctx, coupled, g, x, y)


def relate_pair_right(
    ctx: PreorderCtx, coupled: CoupledMap, g: SelfMap, x: Point, y: Point
) -> Optional[RelViolation]:
    """D1/D2 at a single pair; mirror image of the left check."""
    return _relate_pair("right", ctx, coupled, g, x, y)


def _check_weakly_related(side, ctx, coupled, g, sample) -> RelReport:
    relate = relate_pair_left if side == "left" else relate_pair_right
    violations = []
    checked = 0
    for x, y in _resolve_pairs(ctx, sample):
        checked += 1
        v = relate(ctx, coupled, g, x, y)
        if v is not None:
            violations.append(v)
    return RelReport(side, violations, checked, ctx.slack)


def check_weakly_left_related(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    sample: Union[str, Iterable[tuple[Point, Point]]] = "grid",
) -> RelReport:
    return _check_weakly_related("left", ctx, coupled, g, sample)


def check_weakly_right_related(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    sample: Union[str, Iterable[tuple[Point, Point]]] = "grid",
) -> RelReport:
    return _check_weakly_related("right", ctx, coupled, g, sample)


# -- sequential continuity ----------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A sequence together with its (separately detected) limit.

    A probe without a limit cannot test anything and is skipped.
    """

    points: tuple
    limit: Optional[Point]


@dataclass
class ContinuityResult:
    verdict: str  # "pass" | "fail" | "skipped"
    expected: Optional[Point] = None
    detail: str = ""


@dataclass
class ContinuityReport:
    mode: str
    results: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(r.verdict != "fail" for r in self.results)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.results if r.verdict != "skipped")

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "tol": self.tol,
            "passed": self.passed,
            "checked": self.checked,
            "results": [
                {"verdict": r.verdict, "expected": r.expected, "detail": r.detail}
                for r in self.results
            ],
        }


def check_sequential_continuity(
    space: QPSpace,
    mapping: Union[SelfMap, CoupledMap],
    probes: Sequence,
    mode: str = "left",
    tol: float = 1e-6,
) -> ContinuityReport:
    """Test a map against convergent probe sequences.

    For a self map each probe is a :class:`Probe`; for a coupled map each
    probe is a (Probe, Probe) pair.  The image sequence must admit the
    image of the probe's limit as a mode-limit within tol.  A pass is
    evidence of continuity, never proof; a fail is a concrete witness of
    discontinuity.
    """
    # checked here too, since detect_limit never sees them when every probe is skipped
    if mode not in ("left", "right", "symmetric"):
        raise ValueError(f"unknown limit mode {mode!r}")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    results = []
    for probe in probes:
        if isinstance(mapping, CoupledMap):
            px, py = probe
            if px.limit is None or py.limit is None:
                results.append(ContinuityResult("skipped", detail="probe without a limit"))
                continue
            image = tuple(mapping(a, b) for a, b in zip(px.points, py.points))
            expected = mapping(px.limit, py.limit)
        else:
            if probe.limit is None:
                results.append(ContinuityResult("skipped", detail="probe without a limit"))
                continue
            image = tuple(mapping(p) for p in probe.points)
            expected = mapping(probe.limit)
        window = SequenceWindow(image, space)
        hit = detect_limit(window, [expected], mode=mode, tol=tol)
        if hit is None:
            results.append(
                ContinuityResult(
                    "fail",
                    expected=expected,
                    detail="image sequence does not settle on the image of the limit",
                )
            )
        else:
            results.append(ContinuityResult("pass", expected=expected))
    return ContinuityReport(mode, results, tol)
