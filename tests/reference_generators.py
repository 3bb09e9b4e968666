"""The chain-map generators as they stood before they read each point's
chain position from one helper.  Each computes the phi levels, draws the
sorted chain positions of every level, and fills its table in a Python
loop; they are kept verbatim as the reference that the array rewrite in
``qpfix.oracle`` must reproduce, table for table and draw for draw.
"""

from typing import Optional

import numpy as np

from qpfix.oracle import order_chain
from qpfix.order import CoupledMap, PreorderCtx, SelfMap


def _monotone_levels(ctx: PreorderCtx) -> list[int]:
    # level(i) = rank of phi(i) among distinct values; below implies
    # phi no larger, hence level no larger
    vals = [ctx.phi(i) for i in ctx.space.points()]
    distinct = sorted(set(vals))
    rank = {v: r for r, v in enumerate(distinct)}
    return [rank[v] for v in vals]


def random_isotone_coupled(
    rng: np.random.Generator, ctx: PreorderCtx, chain: Optional[list] = None
) -> CoupledMap:
    """Random order-preserving coupled table map.

    Values live on an order chain, indexed by a map that is nondecreasing
    in the phi levels of both arguments, which makes isotonicity hold by
    construction (and checkable exhaustively).
    """
    if chain is None:
        chain = order_chain(ctx)
    levels = _monotone_levels(ctx)
    n_levels = max(levels) + 1
    c = len(chain)
    mx = np.sort(rng.integers(0, c, size=n_levels))
    my = np.sort(rng.integers(0, c, size=n_levels))
    combine = rng.choice(["max", "min", "first"])
    table = np.empty((len(levels), len(levels)), dtype=int)
    for i, li in enumerate(levels):
        for j, lj in enumerate(levels):
            if combine == "max":
                k = max(mx[li], my[lj])
            elif combine == "min":
                k = min(mx[li], my[lj])
            else:
                k = mx[li]
            table[i, j] = chain[k]
    rows = table.tolist()
    return CoupledMap(lambda a, b: rows[int(a)][int(b)], name="F_table")


def random_chain_selfmap(
    rng: np.random.Generator,
    ctx: PreorderCtx,
    chain: Optional[list] = None,
    name: str = "g_table",
) -> SelfMap:
    if chain is None:
        chain = order_chain(ctx)
    levels = _monotone_levels(ctx)
    n_levels = max(levels) + 1
    mg = np.sort(rng.integers(0, len(chain), size=n_levels))
    values = [chain[mg[l]] for l in levels]
    return SelfMap(lambda a: values[int(a)], name=name)
