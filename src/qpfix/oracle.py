"""Brute-force ground truth on finite spaces.

Everything here scans all n^2 carrier pairs, so it is exact and
independent of the iteration machinery: solver outputs are validated
against these sets, and random instances are generated so that the
iteration hypotheses are satisfiable by construction (distance matrices
are min-plus closed, coupled maps take values on an order chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .order import CoupledMap, PhiFn, PreorderCtx, SelfMap, admissible_seed, induced_leq
from .solvers import (
    SolverConfig,
    SolverReport,
    _unique_names,
    couple_iterate,  # noqa: F401 -- bench/test_bench.py reads qpfix.oracle.couple_iterate
    run_scheme,
    scheme_for,
    scheme_phases,
)
from .spaces import QPSpace, UnsupportedError, finite_space

ORACLE_POINT_CAP = 64

ENTRY_GRID = tuple(0.25 * k for k in range(9))  # 0, 0.25, ..., 2


@dataclass
class OracleReport:
    e1: list
    e2: dict
    e3: dict
    d1: list
    d2: list
    tol: float

    def as_dict(self) -> dict:
        pair = lambda ps: [list(p) for p in ps]
        return {
            "E1": pair(self.e1),
            "E2": {k: pair(v) for k, v in self.e2.items()},
            "E3": {k: pair(v) for k, v in self.e3.items()},
            "D1": pair(self.d1),
            "D2": pair(self.d2),
        }


def enumerate_points(
    space: QPSpace,
    coupled: CoupledMap,
    maps: Sequence[SelfMap] = (),
    tol: float = 0.0,
    cap: int = ORACLE_POINT_CAP,
) -> OracleReport:
    """Scan all pairs of a finite space for every fixed-point notion.

    With tol 0 (the default for table maps) equality is exact; a
    positive tol compares under the sup metric.  D1/D2 quantify over all
    supplied maps simultaneously and are empty with fewer than two.
    """
    if not space.is_finite:
        raise UnsupportedError("enumeration needs a finite carrier")
    n = space.carrier.size
    if n > cap:
        raise UnsupportedError(f"carrier size {n} exceeds the cap {cap}")

    if tol == 0.0:
        eq = lambda a, b: a == b
    else:
        eq = lambda a, b: space.sup_dist(a, b) <= tol

    named = list(zip(_unique_names(maps), maps))
    e1, d1, d2 = [], [], []
    e2 = {name: [] for name, _ in named}
    e3 = {name: [] for name, _ in named}
    for x in range(n):
        for y in range(n):
            fxy, fyx = coupled(x, y), coupled(y, x)
            is_e1 = eq(fxy, x) and eq(fyx, y)
            if is_e1:
                e1.append((x, y))
            all_e2 = bool(named)
            all_e3 = bool(named)
            for name, m in named:
                mx, my = m(x), m(y)
                is_e2 = eq(fxy, mx) and eq(fyx, my)
                fixes = eq(mx, x) and eq(my, y)
                if is_e2:
                    e2[name].append((x, y))
                if is_e1 and is_e2 and fixes:
                    e3[name].append((x, y))
                else:
                    all_e3 = False
                all_e2 = all_e2 and is_e2
            if len(named) >= 2:
                if all_e2:
                    d1.append((x, y))
                if is_e1 and all_e3:
                    d2.append((x, y))
    return OracleReport(e1, e2, e3, d1, d2, tol)


# -- random instances ----------------------------------------------------


def random_finite_space(
    rng: np.random.Generator,
    n: int,
    t0: bool = True,
    name: str = "fuzz",
) -> QPSpace:
    """Random finite space with the triangle inequality by construction.

    Off-diagonal entries come from a quarter-step rational grid, then the
    matrix is min-plus closed and the diagonal zeroed.  With t0 the grid
    excludes zero, so distinct points stay separated in both directions.
    """
    grid = np.array(ENTRY_GRID[1:] if t0 else ENTRY_GRID)
    m = grid[rng.integers(0, len(grid), size=(n, n))]
    np.fill_diagonal(m, 0.0)
    for k in range(n):
        m = np.minimum(m, m[:, [k]] + m[[k], :])
    np.fill_diagonal(m, 0.0)
    return finite_space(m, name=name)


def random_phi_table(rng: np.random.Generator, n: int) -> PhiFn:
    """Random potential table on quarter-step values (exact in binary)."""
    values = tuple(0.25 * int(v) for v in rng.integers(0, 13, size=n))
    return PhiFn(
        lambda i: values[int(i)],
        bound_direction="above",
        declared_bound=max(values),
        name="phi_table",
    )


def order_chain(ctx: PreorderCtx) -> list[int]:
    """A chain of the induced preorder, greedily extended in phi order.

    Never empty: the first point in the sweep always starts the chain.
    """
    pts = ctx.space.points()
    pts.sort(key=lambda i: (ctx.phi(i), i))
    chain: list[int] = []
    for p in pts:
        if not chain or induced_leq(ctx, chain[-1], p):
            chain.append(p)
    return chain


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
    return CoupledMap(lambda a, b: int(table[int(a), int(b)]), name="F_table")


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
    table = np.array([chain[mg[l]] for l in levels], dtype=int)
    return SelfMap(lambda a: int(table[int(a)]), name=name)


# -- solver agreement ----------------------------------------------------

SolverFn = Callable[[PreorderCtx, CoupledMap, Sequence[SelfMap], tuple, SolverConfig], SolverReport]


def _default_solver(ctx, coupled, maps, seed, cfg) -> SolverReport:
    return run_scheme(scheme_for(len(maps)), ctx, coupled, maps, seed, cfg)


@dataclass
class AgreementReport:
    scheme: str
    seeds: list
    runs: int
    converged: int
    disagreements: list
    no_seeds: bool

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "passed": self.passed,
            "seeds": [list(s) for s in self.seeds],
            "runs": self.runs,
            "converged": self.converged,
            "no_seeds": self.no_seeds,
            "disagreements": self.disagreements,
        }


def oracle_vs_solver(
    space: QPSpace,
    ctx: PreorderCtx,
    coupled: CoupledMap,
    maps: Sequence[SelfMap] = (),
    cfg: SolverConfig = SolverConfig(),
    solver_fn: Optional[SolverFn] = None,
) -> AgreementReport:
    """Run the matching solver from every admissible seed and validate
    every converged run against the exhaustive enumeration.

    A disagreement is either a converged candidate outside the oracle's
    target set, or a trace row that differs from the scheme's defining
    recurrence replayed independently of the solver (this is what
    catches interleaving bugs, since any stalled limit of a mutated
    scheme still lands in the target set).
    """
    maps = list(maps)
    scheme = scheme_for(len(maps))
    oracle = enumerate_points(space, coupled, maps, tol=0.0)
    if scheme == "single":
        target = set(map(tuple, oracle.e1))
    elif scheme == "pair":
        target = set(map(tuple, oracle.e3[_unique_names(maps)[0]]))
    else:
        target = set(map(tuple, oracle.d2))

    run = solver_fn if solver_fn is not None else _default_solver
    cycle, phase_map = scheme_phases(scheme, maps)
    pts = space.points()
    seeds = [
        (x0, y0) for x0 in pts for y0 in pts
        if admissible_seed(ctx, coupled, x0, y0, cfg.direction)
    ]

    disagreements = []
    converged = 0
    for seed in seeds:
        report = run(ctx, coupled, maps, seed, cfg)
        if report.status != "converged":
            continue
        converged += 1
        if tuple(report.candidate) not in target:
            disagreements.append(
                {
                    "kind": "candidate",
                    "seed": list(seed),
                    "candidate": list(report.candidate),
                }
            )
        rows = report.trace.rows
        for prev, cur in zip(rows, rows[1:]):
            label = cycle[(cur.n - 1) % len(cycle)]
            if label == "F":
                ex, ey = coupled(prev.x, prev.y), coupled(prev.y, prev.x)
            else:
                m = phase_map[label]
                ex, ey = m(prev.x), m(prev.y)
            if ex != cur.x or ey != cur.y or cur.phase != label:
                disagreements.append(
                    {
                        "kind": "trace",
                        "seed": list(seed),
                        "index": cur.n,
                        "expected_phase": label,
                        "got_phase": cur.phase,
                        "expected": [ex, ey],
                        "got": [cur.x, cur.y],
                    }
                )
                break
    return AgreementReport(
        scheme, seeds, len(seeds), converged, disagreements, no_seeds=not seeds
    )


@dataclass
class CampaignReport:
    instances: int
    total_seeds: int
    total_converged: int
    no_seed_instances: int
    disagreements: list

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "instances": self.instances,
            "total_seeds": self.total_seeds,
            "total_converged": self.total_converged,
            "no_seed_instances": self.no_seed_instances,
            "disagreements": self.disagreements,
        }


def run_agreement_campaign(
    seed: int,
    instances: int = 100,
    min_points: int = 2,
    max_points: int = 6,
    map_counts: Sequence[int] = (0, 1, 2),
    cfg: Optional[SolverConfig] = None,
    solver_fn: Optional[SolverFn] = None,
) -> CampaignReport:
    """Fuzz campaign: random finite T0 instances, every admissible seed,
    oracle agreement required throughout."""
    rng = np.random.default_rng(seed)
    if cfg is None:
        cfg = SolverConfig(tol=1e-9, max_iter=200)
    total_seeds = total_converged = no_seed = 0
    disagreements = []
    for idx in range(instances):
        n = int(rng.integers(min_points, max_points + 1))
        space = random_finite_space(rng, n, t0=True, name=f"fuzz{idx}")
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        chain = order_chain(ctx)
        coupled = random_isotone_coupled(rng, ctx, chain)
        k = int(rng.choice(list(map_counts)))
        maps = [
            random_chain_selfmap(rng, ctx, chain, name=f"g{j + 1}") for j in range(k)
        ]
        report = oracle_vs_solver(space, ctx, coupled, maps, cfg, solver_fn=solver_fn)
        total_seeds += report.runs
        total_converged += report.converged
        if report.no_seeds:
            no_seed += 1
        for d in report.disagreements:
            disagreements.append({"instance": idx, **d})
    return CampaignReport(instances, total_seeds, total_converged, no_seed, disagreements)
