"""Brute-force ground truth on finite spaces.

Everything here scans all n^2 carrier pairs, so it is exact and
independent of the iteration machinery.  The maps are tabulated once per
instance, every image checked against the carrier, and the scans are
array operations on those tables.  Solver outputs are validated
against these sets, and random instances are generated so that the
iteration hypotheses are satisfiable by construction (distance matrices
are min-plus closed, coupled maps take values on an order chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .order import CoupledMap, PhiFn, PreorderCtx, SelfMap, induced_leq, relation_matrix
from .solvers import (
    SolverConfig,
    SolverReport,
    _prepare,
    _unique_names,
    couple_iterate,  # noqa: F401 -- bench/test_bench.py reads qpfix.oracle.couple_iterate
    run_contexts,
    scheme_for,
    scheme_phases,
)
from .spaces import DomainError, QPSpace, Report, UnsupportedError, finite_space

ORACLE_POINT_CAP = 1024

ENTRY_GRID = tuple(0.25 * k for k in range(9))  # 0, 0.25, ..., 2


@dataclass
class OracleReport:
    e1: list
    e2: dict
    e3: dict
    d1: list
    d2: list
    tol: float
    # the tabulated maps the scan read: T[x, y] = F(x, y), and one vector
    # per self map
    table: np.ndarray = field(repr=False, compare=False)
    vectors: list = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        pair = lambda ps: [list(p) for p in ps]
        return {
            "E1": pair(self.e1),
            "E2": {k: pair(v) for k, v in self.e2.items()},
            "E3": {k: pair(v) for k, v in self.e3.items()},
            "D1": pair(self.d1),
            "D2": pair(self.d2),
        }


def _tabulate(space: QPSpace, coupled: CoupledMap, maps: Sequence[SelfMap], cap: int):
    """The coupled map as an n x n int array T[x, y] = F(x, y), and each
    self map as a length-n int vector.  Raises UnsupportedError unless
    the carrier is finite with at most cap points, and DomainError for an
    image outside the carrier."""
    if not space.is_finite:
        raise UnsupportedError("enumeration needs a finite carrier")
    n = space.carrier.size
    if n > cap:
        raise UnsupportedError(f"carrier size {n} exceeds the cap {cap}")
    pairs = [(x, y) for x in range(n) for y in range(n)]
    tables = []
    for m, args in [(coupled, pairs)] + [(g, [(x,) for x in range(n)]) for g in maps]:
        images = [m(*a) for a in args]
        bad = space.first_outside(images)
        if bad is not None:
            call = f"{m.name}({', '.join(map(repr, args[bad]))})"
            raise DomainError(f"{call} = {images[bad]!r} is not in the carrier of {space.name}")
        tables.append(np.array(images, dtype=int))
    return tables[0].reshape(n, n), tables[1:]


def _pairs(mask: np.ndarray) -> list:
    """The (x, y) where mask holds, in row-major order."""
    return [tuple(p) for p in np.argwhere(mask).tolist()]


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
    The maps are tabulated once, and the report keeps the tables; an
    image outside the carrier raises DomainError.
    """
    maps = list(maps)
    table, vectors = _tabulate(space, coupled, maps, cap)
    n = len(table)
    idx = np.arange(n)
    if tol == 0.0:
        eq = np.equal
    else:
        s = space.pairwise(range(n))
        close = np.maximum(s, s.T) <= tol
        eq = lambda a, b: close[a, b]

    # rows index x, columns y: F(x, y) is table, F(y, x) is table.T
    xs, ys = idx[:, None], idx[None, :]
    e1 = eq(table, xs) & eq(table.T, ys)
    e2, e3 = {}, {}
    for name, g in zip(_unique_names(maps), vectors):
        gx, gy = g[:, None], g[None, :]
        e2[name] = eq(table, gx) & eq(table.T, gy)
        e3[name] = e1 & e2[name] & eq(gx, xs) & eq(gy, ys)
    if len(maps) >= 2:
        d1 = np.logical_and.reduce(list(e2.values()))
        d2 = np.logical_and.reduce(list(e3.values()))
    else:
        d1 = d2 = np.zeros((n, n), dtype=bool)
    return OracleReport(
        _pairs(e1),
        {k: _pairs(v) for k, v in e2.items()},
        {k: _pairs(v) for k, v in e3.items()},
        _pairs(d1),
        _pairs(d2),
        tol,
        table,
        vectors,
    )


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


def _chain_positions(rng: np.random.Generator, ctx: PreorderCtx, length: int):
    """Each point's position on a chain of the given length: one sorted
    draw per distinct phi value, read at the point's rank among them.  A
    point below another has phi no larger, hence position no larger."""
    _, rank = np.unique([ctx.phi(i) for i in ctx.space.points()], return_inverse=True)
    return np.sort(rng.integers(0, length, size=rank.max() + 1))[rank]


def random_isotone_coupled(
    rng: np.random.Generator, ctx: PreorderCtx, chain: Optional[list] = None
) -> CoupledMap:
    """Random order-preserving coupled table map.

    Values live on an order chain, at positions nondecreasing in the phi
    ranks of both arguments (their max, their min, or the first's), which
    makes isotonicity hold by construction (and checkable exhaustively).
    """
    if chain is None:
        chain = order_chain(ctx)
    px = _chain_positions(rng, ctx, len(chain))
    py = _chain_positions(rng, ctx, len(chain))
    combine = rng.choice(["max", "min", "first"])
    outer = {"max": np.maximum.outer, "min": np.minimum.outer}.get(combine)
    pos = outer(px, py) if outer else np.broadcast_to(px[:, None], (len(px), len(py)))
    rows = np.asarray(chain)[pos].tolist()
    return CoupledMap(lambda a, b: rows[int(a)][int(b)], name="F_table")


def random_chain_selfmap(
    rng: np.random.Generator,
    ctx: PreorderCtx,
    chain: Optional[list] = None,
    name: str = "g_table",
) -> SelfMap:
    if chain is None:
        chain = order_chain(ctx)
    values = np.asarray(chain)[_chain_positions(rng, ctx, len(chain))].tolist()
    return SelfMap(lambda a: values[int(a)], name=name)


# -- solver agreement ----------------------------------------------------

SolverFn = Callable[[PreorderCtx, CoupledMap, Sequence[SelfMap], tuple, SolverConfig], SolverReport]


@dataclass
class AgreementReport(Report):
    findings = ("disagreements",)
    scheme: str
    seeds: list
    runs: int
    converged: int
    disagreements: list
    no_seeds: bool


def _fate(step, cycle: list, target: set, seed: tuple) -> dict:
    """Where the round-start orbit of seed goes, one round being the
    scheme's whole cycle of maps: it reaches the common fixed point
    "point" at round "round", or it enters a cycle of "period" rounds at
    round "round".  Each state is visited once."""
    seen = {}
    state = seed
    while state not in target and state not in seen:
        seen[state] = len(seen)
        x, y = state
        for label in cycle:
            x, y = step(label, x, y)
        state = (x, y)
    if state in target:
        return {"status": "converged", "point": list(state), "round": len(seen)}
    return {"status": "periodic", "round": seen[state], "period": len(seen) - seen[state]}


def _matches_fate(report, fate: dict, length: int, cfg: SolverConfig) -> bool:
    """Whether a run's outcome is one its fate allows, a round being
    `length` indices.

    A converged run ends on the fate's point, within the round that
    reaches it.  The solver keys its cycle check on (x, y, stall), and the
    stall counter at the cycle's first round start may still count steps
    from before the cycle, so a periodic run may start one round after
    the fate's cycle does.  max_iter is allowed only when the latest stop
    the fate allows is not before max_iter.
    """
    status, r = report.status, fate["round"]
    if status == "converged":
        return (fate["status"] == "converged" and list(report.candidate) == fate["point"]
                and (r - 1) * length < report.iterations <= r * length)
    if status == "periodic":
        start, period = report.cycle
        return (fate["status"] == "periodic" and period == fate["period"] * length
                and start % length == 0 and r * length <= start <= (r + 1) * length
                and report.iterations == start + period)
    if status == "max_iter":
        last = r if fate["status"] == "converged" else r + 1 + fate["period"]
        return last * length >= cfg.max_iter
    return status == "hypothesis_violated" and cfg.verify_hypotheses


def oracle_vs_solver(
    space: QPSpace,
    ctx: PreorderCtx,
    coupled: CoupledMap,
    maps: Sequence[SelfMap] = (),
    cfg: SolverConfig = SolverConfig(),
    solver_fn: Optional[SolverFn] = None,
) -> AgreementReport:
    """Run the matching solver from every admissible seed and check every
    run against the exhaustive enumeration.

    Each seed's fate comes from the oracle's own tables: its round-start
    orbit either reaches a common fixed point or enters a cycle.  A
    disagreement is a converged candidate outside the oracle's target set,
    a run whose status, iteration count, cycle or candidate its fate does
    not allow (kind "fate"; see _matches_fate), or a trace row of a
    converged or periodic run that differs from the scheme's defining
    recurrence replayed independently of the solver (this is what catches
    interleaving bugs, since any stalled limit of a mutated scheme still
    lands in the target set).  Like the candidate check, the fates are
    exact: they assume a T0 carrier and a tol below every nonzero
    distance.  A tol at or above the smallest nonzero sup distance raises
    ValueError, since a correct solver may then stall on a point that is
    no fixed point.
    """
    maps = list(maps)
    scheme = scheme_for(len(maps))
    names = _unique_names(maps)
    oracle = enumerate_points(space, coupled, maps)
    sup = np.maximum(space.matrix, space.matrix.T)
    if (sup > 0).any() and cfg.tol >= sup[sup > 0].min():
        raise ValueError(
            f"tol {cfg.tol!r} is not below the smallest nonzero distance "
            f"{float(sup[sup > 0].min())!r}, so the exact oracle cannot judge the runs"
        )
    table, vectors = oracle.table, oracle.vectors
    if scheme == "single":
        target = set(oracle.e1)
    elif scheme == "pair":
        target = set(oracle.e3[names[0]])
    else:
        target = set(oracle.d2)

    # without a solver_fn, every seed runs through one prepared instance,
    # which calls each map once per distinct argument
    if solver_fn is None:
        run = _prepare(scheme, ctx, coupled, maps, cfg)
    else:
        run = lambda seed: solver_fn(ctx, coupled, maps, seed, cfg)
    # the admissible seeds, a gather: below[x, y] = x below F(x, y) in the run's order
    rel = relation_matrix(run_contexts(ctx, cfg)[2], space.points())
    below = rel[np.arange(len(table))[:, None], table]
    seeds = _pairs(below & below.T)

    # the fates and the replay read the oracle's own tables; scheme_phases
    # pairs each phase label with the vector of its self map
    cycle, phase_table = scheme_phases(scheme, [v.tolist() for v in vectors])
    coupled_rows = table.tolist()

    def step(label, x, y):
        if label == "F":
            return coupled_rows[x][y], coupled_rows[y][x]
        g = phase_table[label]
        return g[x], g[y]

    disagreements = []
    converged = 0
    for seed in seeds:
        report = run(seed)
        fate = _fate(step, cycle, target, seed)
        if report.status == "converged":
            converged += 1
            if tuple(report.candidate) not in target:
                disagreements.append(
                    {
                        "kind": "candidate",
                        "seed": list(seed),
                        "candidate": list(report.candidate),
                    }
                )
        if not _matches_fate(report, fate, len(cycle), cfg):
            disagreements.append(
                {
                    "kind": "fate",
                    "seed": list(seed),
                    "fate": fate,
                    "status": report.status,
                }
            )
        if report.status not in ("converged", "periodic"):
            continue
        rows = report.trace.rows
        for prev, cur in zip(rows, rows[1:]):
            label = cycle[(cur.n - 1) % len(cycle)]
            ex, ey = step(label, prev.x, prev.y)
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
class CampaignReport(Report):
    findings = ("disagreements",)
    instances: int
    total_seeds: int
    total_converged: int
    no_seed_instances: int
    disagreements: list


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
