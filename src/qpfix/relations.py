"""Weak relatedness of a coupled map with a self map, and empirical
sequential continuity.

A pair {F, g} is weakly left-related when, for every (x, y):

  C1:  F(x, y) below g(F(x, y))   and   g(x) below F(g(x), g(y))
  C2:  F(y, x) below g(F(y, x))   and   g(y) below F(g(y), g(x))

Weak right-relatedness (D1/D2) reverses every inequality, so it is C1/C2
on ``order.dual(ctx)``, read back by :func:`mirrored` with lhs and rhs
swapped.  A compared image outside the carrier raises DomainError naming
the image its step produces first (F(x, y), or g(x)), on either side.
These are universally quantified hypotheses; on interval carriers the
checkers report grid evidence only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .order import CoupledMap, PreorderCtx, SelfMap, dual, induced_leq
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


def _resolve_pairs(ctx: PreorderCtx, sample) -> Iterable[tuple[Point, Point]]:
    if isinstance(sample, str):
        if sample not in ("grid", "exhaustive"):
            raise ValueError(f"unknown pair sample spec {sample!r}")
        space = ctx.space
        pts = space.points() if sample == "exhaustive" else space.grid(RELATION_GRID_POINTS)
        return itertools.product(pts, repeat=2)
    return sample


def relate_pair_left(
    ctx: PreorderCtx, coupled: CoupledMap, g: SelfMap, x: Point, y: Point
) -> Optional[RelViolation]:
    """C1/C2 at a single pair; first failing sub-condition, or None.

    Each step tests a below b.  Maps are evaluated lazily, in step order.
    """

    def steps():
        fxy = coupled(x, y)
        yield "C1", 1, fxy, g(fxy)
        gx, gy = g(x), g(y)
        yield "C1", 2, gx, coupled(gx, gy)
        fyx = coupled(y, x)
        yield "C2", 1, fyx, g(fyx)
        yield "C2", 2, gy, coupled(gy, gx)

    for condition, part, a, b in steps():
        if not induced_leq(ctx, a, b):
            return RelViolation(condition, part, (x, y), a, b)
    return None


def mirrored(v: Optional[RelViolation]) -> Optional[RelViolation]:
    """A C1/C2 violation found on dual(ctx), read back on ctx as D1/D2 of
    the same part and pair, with lhs and rhs swapped; None stays None."""
    return None if v is None else RelViolation("D" + v.condition[1:], v.part, v.pair, v.rhs, v.lhs)


def relate_pair_right(
    ctx: PreorderCtx, coupled: CoupledMap, g: SelfMap, x: Point, y: Point
) -> Optional[RelViolation]:
    """D1/D2 at a single pair: C1/C2 on dual(ctx), mirrored."""
    return mirrored(relate_pair_left(dual(ctx), coupled, g, x, y))


def _left_violations(ctx: PreorderCtx, coupled, g, pairs) -> tuple[list, int]:
    """The C1/C2 violations over pairs, and the number of pairs checked."""
    violations, checked = [], 0
    for checked, (x, y) in enumerate(pairs, 1):
        v = relate_pair_left(ctx, coupled, g, x, y)
        if v is not None:
            violations.append(v)
    return violations, checked


def check_weakly_left_related(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    sample: Union[str, Iterable[tuple[Point, Point]]] = "grid",
) -> RelReport:
    violations, checked = _left_violations(ctx, coupled, g, _resolve_pairs(ctx, sample))
    return RelReport("left", violations, checked, ctx.slack)


def check_weakly_right_related(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    sample: Union[str, Iterable[tuple[Point, Point]]] = "grid",
) -> RelReport:
    """D1/D2 over the sample: C1/C2 on dual(ctx), built once, mirrored."""
    pairs = _resolve_pairs(ctx, sample)
    violations, checked = _left_violations(dual(ctx), coupled, g, pairs)
    return RelReport("right", [mirrored(v) for v in violations], checked, ctx.slack)


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
        parts = probe if isinstance(mapping, CoupledMap) else (probe,)  # one probe per argument
        if any(p.limit is None for p in parts):
            results.append(ContinuityResult("skipped", detail="probe without a limit"))
            continue
        image = tuple(mapping(*args) for args in zip(*(p.points for p in parts)))
        expected = mapping(*(p.limit for p in parts))
        if detect_limit(SequenceWindow(image, space), [expected], mode=mode, tol=tol) is None:
            detail = "image sequence does not settle on the image of the limit"
            results.append(ContinuityResult("fail", expected=expected, detail=detail))
        else:
            results.append(ContinuityResult("pass", expected=expected))
    return ContinuityReport(mode, results, tol)
