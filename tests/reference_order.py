"""The direction-switched order tests as they stood before reverse runs and
right-relatedness were run as forward runs and left checks on
``order.dual``.  Each branches on the direction or side and swaps the
arguments of ``induced_leq`` itself; they are kept verbatim as the
reference that the dual rewrite must reproduce.
"""

from typing import Optional

from qpfix.order import CoupledMap, PhiFn, PreorderCtx, SelfMap, induced_leq
from qpfix.relations import RelViolation
from qpfix.spaces import Point


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


def _phi_ok(phi: PhiFn, direction: str, slack: float, prev: Point, cur: Point) -> bool:
    if direction == "forward":
        return phi(cur) >= phi(prev) - slack
    return phi(cur) <= phi(prev) + slack


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
