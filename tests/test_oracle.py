from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_generators
from mutants import mutant_never_converges, mutant_pair_solver
from qpfix import catalog, oracle
from qpfix.oracle import (
    ENTRY_GRID,
    ORACLE_POINT_CAP,
    enumerate_points,
    oracle_vs_solver,
    order_chain,
    random_chain_selfmap,
    random_finite_space,
    random_isotone_coupled,
    random_phi_table,
    run_agreement_campaign,
)
from qpfix.order import (
    CoupledMap,
    PreorderCtx,
    SelfMap,
    check_isotone,
    dual,
    induced_leq,
    seed_search,
)
from qpfix.solvers import SolverConfig, _unique_names, couple_iterate, verify_point
from qpfix.spaces import UnsupportedError, check_axioms, check_T0, finite_space
from reference_order import admissible_seed


def test_constant_map_enumeration():
    space = finite_space([[0, 1], [1, 0]])
    const_b = CoupledMap(lambda x, y: 1, name="const_b")
    report = enumerate_points(space, const_b)
    assert report.e1 == [(1, 1)]


def test_projection_enumeration():
    space = finite_space([[0, 1], [1, 0]])
    proj = CoupledMap(lambda x, y: x, name="proj")
    report = enumerate_points(space, proj)
    assert report.e1 == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_e3_with_identity_map():
    space = finite_space(np.ones((3, 3)) - np.eye(3))
    const_a = CoupledMap(lambda x, y: 0, name="const_a")
    ident = SelfMap(lambda x: x, name="identity")
    report = enumerate_points(space, const_a, [ident])
    assert report.e3["identity"] == [(0, 0)]
    assert report.e2["identity"] == [(0, 0)]


def test_enumeration_cap():
    space = finite_space(np.zeros((3, 3)))
    with pytest.raises(UnsupportedError):
        enumerate_points(space, CoupledMap(lambda x, y: x), cap=2)


def test_oracle_set_inclusions_and_verify_point_agreement():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        space = random_finite_space(rng, n, t0=True)
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        chain = order_chain(ctx)
        coupled = random_isotone_coupled(rng, ctx, chain)
        maps = [
            random_chain_selfmap(rng, ctx, chain, name=f"g{j}") for j in range(2)
        ]
        report = enumerate_points(space, coupled, maps)
        names = _unique_names(maps)
        assert set(report.d2) <= set(report.d1)
        for name in names:
            assert set(report.e3[name]) <= set(report.e2[name])
            assert set(report.e3[name]) <= set(report.e1)
        # pointwise agreement with the residual-based classifier at tol 0
        for x in space.points():
            for y in space.points():
                vp = verify_point(ctx, coupled, maps, x, y, tol=0.0)
                assert vp.e1 == ((x, y) in report.e1)
                for name in names:
                    assert vp.e2[name] == ((x, y) in report.e2[name])
                    assert vp.e3[name] == ((x, y) in report.e3[name])
                assert vp.d1 == ((x, y) in report.d1)
                assert vp.d2 == ((x, y) in report.d2)


def test_generator_entries_stay_on_grid():
    rng = np.random.default_rng(29)
    for _ in range(20):
        space = random_finite_space(rng, int(rng.integers(2, 8)))
        assert check_axioms(space, "exhaustive", slack=0.0).passed
        assert check_T0(space, "exhaustive", slack=0.0).passed
        flat = set(float(v) for v in space.matrix.ravel())
        assert flat <= set(ENTRY_GRID)


def _typed_table(m, n):
    """Every value of a generated map on n points, with its type."""
    args = [(a, b) for a in range(n) for b in range(n)] if isinstance(m, CoupledMap) else \
        [(a,) for a in range(n)]
    return [(type(v), v) for v in (m(*a) for a in args)]


def test_generators_match_the_loops_they_replace_table_for_table_and_draw_for_draw():
    rng = np.random.default_rng(47)
    for trial in range(240):
        n = int(rng.integers(1, 13))
        space = random_finite_space(rng, n, t0=bool(trial % 2))
        ctx = PreorderCtx(space, random_phi_table(rng, n), slack=0.0)
        chain = order_chain(ctx) if trial % 3 else None
        new, old = np.random.default_rng(trial), np.random.default_rng(trial)
        for name in ("random_isotone_coupled", "random_chain_selfmap"):
            got = getattr(oracle, name)(new, ctx, chain)
            want = getattr(reference_generators, name)(old, ctx, chain)
            assert got.name == want.name
            assert _typed_table(got, n) == _typed_table(want, n)
            assert new.bit_generator.state == old.bit_generator.state


def test_generated_coupled_maps_are_isotone_with_seeds():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        space = random_finite_space(rng, n)
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        coupled = random_isotone_coupled(rng, ctx)
        assert check_isotone(ctx, coupled, "exhaustive").passed
        assert seed_search(ctx, coupled, space.points()) is not None


def test_order_chain_is_a_chain():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        space = random_finite_space(rng, n)
        ctx = PreorderCtx(space, random_phi_table(rng, n), slack=0.0)
        chain = order_chain(ctx)
        assert chain
        for a, b in zip(chain, chain[1:]):
            assert induced_leq(ctx, a, b)


def test_agreement_campaign_small():
    camp = run_agreement_campaign(seed=7, instances=25)
    assert camp.passed
    assert camp.total_converged > 0


def test_agreement_report_flags_missing_seeds():
    # two separated points, flat potential: only equal pairs are related,
    # and the argument swap never satisfies the seed inequality
    space = finite_space([[0, 1], [1, 0]])
    phi = catalog.get_phi("table", values=[0, 0])
    ctx = PreorderCtx(space, phi, slack=0.0)
    swap = CoupledMap(lambda x, y: 1 - x, name="swap")
    report = oracle_vs_solver(space, ctx, swap)
    assert report.no_seeds
    assert report.passed


def test_interleaving_mutation_is_caught():
    camp = run_agreement_campaign(
        seed=42, instances=100, map_counts=(1,), solver_fn=mutant_pair_solver
    )
    assert not camp.passed
    kinds = {d["kind"] for d in camp.disagreements}
    assert "trace" in kinds


def test_agreement_campaign_covers_kmap_schedules():
    camp = run_agreement_campaign(seed=5, instances=30, map_counts=(3, 4))
    assert camp.passed
    assert camp.total_converged > 0


def test_campaign_is_deterministic():
    a = run_agreement_campaign(seed=11, instances=15)
    b = run_agreement_campaign(seed=11, instances=15)
    assert a.as_dict() == b.as_dict()


def test_oracle_report_json_shape():
    space = finite_space([[0, 1], [1, 0]])
    proj = CoupledMap(lambda x, y: x, name="proj")
    g = SelfMap(lambda x: x, name="identity")
    payload = enumerate_points(space, proj, [g]).as_dict()
    assert set(payload) == {"E1", "E2", "E3", "D1", "D2"}
    # F(x, y) = x = identity(x) holds identically here
    assert payload["E1"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert payload["E2"] == {"identity": [[0, 0], [0, 1], [1, 0], [1, 1]]}
    assert payload["D1"] == []  # needs at least two maps


# -- the tabulated oracle against plain double loops -----------------------


def _instance(seed, n, k, metric_mode="plain"):
    rng = np.random.default_rng(seed)
    space = random_finite_space(rng, n)
    ctx = PreorderCtx(space, random_phi_table(rng, n), metric_mode=metric_mode, slack=0.0)
    chain = order_chain(ctx)
    coupled = random_isotone_coupled(rng, ctx, chain)
    maps = [random_chain_selfmap(rng, ctx, chain, name=f"g{j + 1}") for j in range(k)]
    return space, ctx, coupled, maps


def _enumerate_reference(space, coupled, maps, tol):
    """Every fixed-point notion by a scan of all pairs, map by map."""
    eq = (lambda a, b: a == b) if tol == 0.0 else (lambda a, b: space.sup_dist(a, b) <= tol)
    names = _unique_names(maps)
    e1, d1, d2 = [], [], []
    e2 = {name: [] for name in names}
    e3 = {name: [] for name in names}
    for x in space.points():
        for y in space.points():
            fxy, fyx = coupled(x, y), coupled(y, x)
            is_e1 = eq(fxy, x) and eq(fyx, y)
            if is_e1:
                e1.append((x, y))
            for name, m in zip(names, maps):
                is_e2 = eq(fxy, m(x)) and eq(fyx, m(y))
                if is_e2:
                    e2[name].append((x, y))
                    if is_e1 and eq(m(x), x) and eq(m(y), y):
                        e3[name].append((x, y))
            if len(maps) >= 2:
                if all((x, y) in e2[name] for name in names):
                    d1.append((x, y))
                if all((x, y) in e3[name] for name in names):
                    d2.append((x, y))
    return {"E1": e1, "E2": e2, "E3": e3, "D1": d1, "D2": d2}


def _as_lists(report):
    return {"E1": report.e1, "E2": report.e2, "E3": report.e3, "D1": report.d1, "D2": report.d2}


def _seeds_reference(ctx, coupled, direction):
    pts = ctx.space.points()
    return [(a, b) for a in pts for b in pts if admissible_seed(ctx, coupled, a, b, direction)]


@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(0, 3),
       st.sampled_from([0.0, 0.25]))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_double_loop(seed, n, k, tol):
    space, _, coupled, maps = _instance(seed, n, k)
    got = enumerate_points(space, coupled, maps, tol=tol)
    assert _as_lists(got) == _enumerate_reference(space, coupled, maps, tol)


@given(st.integers(0, 2**32 - 1), st.integers(2, 9),
       st.sampled_from(["forward", "reverse"]), st.sampled_from(["plain", "symmetrized"]))
@settings(max_examples=60, deadline=None)
def test_seed_gather_matches_admissible_seed(seed, n, direction, metric_mode):
    space, ctx, coupled, _ = _instance(seed, n, 0, metric_mode)
    ran = []

    def record(ctx, coupled, maps, seed, cfg):  # the seeds, without running them
        ran.append(seed)
        return SimpleNamespace(status="max_iter")

    cfg = SolverConfig(direction=direction)
    report = oracle_vs_solver(space, ctx, coupled, [], cfg, solver_fn=record)
    want = _seeds_reference(ctx, coupled, direction)
    assert report.seeds == ran == want


def test_oracle_on_256_points_matches_double_loop():
    assert ORACLE_POINT_CAP >= 256
    space, ctx, coupled, _ = _instance(5, 256, 0)
    report = enumerate_points(space, coupled)
    assert _as_lists(report) == _enumerate_reference(space, coupled, [], 0.0)
    for direction in ("forward", "reverse"):
        cfg = SolverConfig(max_iter=200, direction=direction)
        agreement = oracle_vs_solver(space, ctx, coupled, [], cfg)
        assert agreement.seeds == _seeds_reference(ctx, coupled, direction)
        assert agreement.runs == len(agreement.seeds) > 0
        assert agreement.passed


# -- duality: a reverse run is a forward run on the dual context ---------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 2), st.booleans(),
       st.booleans(), st.sampled_from(["plain", "symmetrized"]), st.sampled_from([0.0, 0.25]))
@settings(max_examples=100, deadline=None)
def test_reverse_is_forward_on_the_dual(seed, n, k, t0, verify, metric_mode, slack):
    rng = np.random.default_rng(seed)
    space = random_finite_space(rng, n, t0=t0)
    ctx = PreorderCtx(space, random_phi_table(rng, n), metric_mode=metric_mode, slack=slack)
    chain = order_chain(ctx)
    coupled = random_isotone_coupled(rng, ctx, chain)
    maps = [random_chain_selfmap(rng, ctx, chain, name=f"g{j + 1}") for j in range(k)]
    dctx = dual(ctx)
    cfg = SolverConfig(max_iter=200, verify_hypotheses=verify)
    reverse = oracle_vs_solver(space, ctx, coupled, maps, replace(cfg, direction="reverse"))
    forward = oracle_vs_solver(dctx.space, dctx, coupled, maps, cfg)
    assert reverse.as_dict() == forward.as_dict()
    pts = space.points()
    first = next(iter(_seeds_reference(ctx, coupled, "reverse")), None)
    assert seed_search(ctx, coupled, pts, "reverse") == seed_search(dctx, coupled, pts) == first
    # F preserves the order exactly when it preserves the dual order: the
    # tuple (x, z, y, w) on ctx is (z, x, w, y) on the dual, images swapped
    rows = rng.integers(0, n, size=(n, n)).tolist()
    for f in (coupled, CoupledMap(lambda a, b: rows[a][b])):
        iso, diso = check_isotone(ctx, f, "exhaustive"), check_isotone(dctx, f, "exhaustive")
        assert (diso.checked, diso.applicable) == (iso.checked, iso.applicable)
        flip = [((z, x, w, y), c["image_hi"], c["image_lo"])
                for c in diso.counterexamples for x, z, y, w in [c["tuple"]]]
        assert sorted(flip) == sorted((c["tuple"], c["image_lo"], c["image_hi"])
                                      for c in iso.counterexamples)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 2), st.booleans(),
       st.sampled_from(["forward", "reverse"]))
@settings(max_examples=60, deadline=None)
def test_solver_metric_mode_is_the_runs_order(seed, n, k, verify, direction):
    # a symmetrized cfg on a plain context runs, seeds included, as a
    # symmetrized context with the cfg's mode unset
    space, ctx, coupled, maps = _instance(seed, n, k)
    cfg = SolverConfig(max_iter=200, verify_hypotheses=verify, direction=direction)
    by_cfg = oracle_vs_solver(space, ctx, coupled, maps, replace(cfg, metric_mode="symmetrized"))
    by_ctx = oracle_vs_solver(space, replace(ctx, metric_mode="symmetrized"), coupled, maps, cfg)
    assert by_cfg.as_dict() == by_ctx.as_dict()


# -- fates: every run's outcome against the oracle's orbit -----------------------


def test_never_converging_solver_is_caught():
    space, ctx, coupled, maps = _instance(3, 6, 1)
    cfg = SolverConfig(max_iter=200)
    assert oracle_vs_solver(space, ctx, coupled, maps, cfg).converged > 0
    report = oracle_vs_solver(space, ctx, coupled, maps, cfg, solver_fn=mutant_never_converges)
    assert not report.passed
    assert report.converged == 0
    assert {d["kind"] for d in report.disagreements} == {"fate"}
    first = report.disagreements[0]
    assert first["status"] == "max_iter"
    assert first["fate"]["status"] == "converged"
    camp = run_agreement_campaign(seed=42, instances=30, solver_fn=mutant_never_converges)
    assert not camp.passed
    assert {d["kind"] for d in camp.disagreements} == {"fate"}


def test_periodic_runs_match_their_fates():
    # slack 1 relates every pair, so every seed is admissible, and the flip
    # cycles through (0, 0), (1, 1) or (0, 1), (1, 0) forever
    space = finite_space([[0, 1], [1, 0]])
    ctx = PreorderCtx(space, catalog.get_phi("table", values=[0, 0]), slack=1.0)
    flip = CoupledMap(lambda x, y: 1 - x, name="flip")
    honest = oracle_vs_solver(space, ctx, flip)
    assert honest.passed and honest.runs == 4 and honest.converged == 0

    def doubled(ctx, coupled, maps, seed, cfg):  # claims twice the true period
        report = couple_iterate(ctx, coupled, seed, cfg)
        start, period = report.cycle
        report.cycle, report.iterations = (start, 2 * period), start + 2 * period
        return report

    report = oracle_vs_solver(space, ctx, flip, solver_fn=doubled)
    assert [d["kind"] for d in report.disagreements] == ["fate"] * 4
    assert report.disagreements[0]["fate"] == {"status": "periodic", "round": 0, "period": 2}
    assert report.disagreements[0]["status"] == "periodic"

    def scrambled(ctx, coupled, maps, seed, cfg):  # the true cycle, a wrong trace row
        report = couple_iterate(ctx, coupled, seed, cfg)
        report.trace.rows[1].x = 1 - report.trace.rows[1].x
        return report

    report = oracle_vs_solver(space, ctx, flip, solver_fn=scrambled)
    assert [(d["kind"], d["index"]) for d in report.disagreements] == [("trace", 1)] * 4


def test_runs_call_each_map_once_per_distinct_argument():
    space, ctx, coupled, maps = _instance(8, 8, 2)
    calls = Counter()

    def counted(m, arity):
        def fn(*args):
            calls[(m.name, *args)] += 1
            return m(*args)
        return (CoupledMap if arity == 2 else SelfMap)(fn, name=m.name)

    report = oracle_vs_solver(space, ctx, counted(coupled, 2), [counted(g, 1) for g in maps],
                              SolverConfig(max_iter=200))
    assert report.passed and report.runs >= 10
    tabulated = 8 * 8 + 2 * 8  # the oracle's own tables call every argument once
    assert sum(calls.values()) > tabulated  # so the runs called some maps too
    assert max(calls.values()) <= 2  # once for the tables, at most once for all runs


def test_tol_above_a_distance_is_rejected():
    # at tol 0.6 the flip stalls on non-fixed points after steps of 0.25,
    # which the exact oracle would report as 8 false disagreements
    space = finite_space([[0, 0.25], [0.25, 0]])
    ctx = PreorderCtx(space, catalog.get_phi("table", values=[0, 0]), slack=1.0)
    flip = CoupledMap(lambda x, y: 1 - x, name="flip")
    with pytest.raises(ValueError, match="smallest nonzero distance 0.25"):
        oracle_vs_solver(space, ctx, flip, cfg=SolverConfig(tol=0.6))
    with pytest.raises(ValueError):
        oracle_vs_solver(space, ctx, flip, cfg=SolverConfig(tol=0.25))
    assert oracle_vs_solver(space, ctx, flip, cfg=SolverConfig(tol=0.2)).passed


# -- the generator's spaces --------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_space_conjugate_swaps_and_returns(seed, n, t0):
    space = random_finite_space(np.random.default_rng(seed), n, t0=t0)
    conj = space.conjugate()
    twice = conj.conjugate()
    pts = space.points()
    for a in pts:
        for b in pts:
            assert conj.dist(a, b) == space.dist(b, a)
            assert twice.dist(a, b) == space.dist(a, b)
    assert np.array_equal(conj.pairwise(pts), space.pairwise(pts).T)
    assert np.array_equal(twice.pairwise(pts), space.pairwise(pts))


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_space_is_triangle_closed(seed, n, t0):
    m = random_finite_space(np.random.default_rng(seed), n, t0=t0).matrix
    assert np.all(np.diag(m) == 0.0)
    # d(i, k) <= d(i, j) + d(j, k) exactly, for every i, j, k
    assert np.all(m[:, None, :] <= m[:, :, None] + m[None, :, :])
