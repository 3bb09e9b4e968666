import itertools

import numpy as np
import pytest

from qpfix import catalog, order
from qpfix.oracle import random_finite_space, random_isotone_coupled, random_phi_table
from qpfix.order import (
    ISOTONE_GRID_POINTS,
    CoupledMap,
    IsotoneReport,
    PhiFn,
    PreorderCtx,
    check_isotone,
    check_phi_bound,
    check_preorder_laws,
    induced_leq,
    relation_matrix,
    seed_search,
)
from qpfix.spaces import DomainError, UnsupportedError, finite_space


def test_induced_leq_on_unit_interval(unit_ctx):
    assert induced_leq(unit_ctx, 0.2, 0.7)
    assert not induced_leq(unit_ctx, 0.7, 0.2)
    for x in unit_ctx.space.grid(11):
        assert induced_leq(unit_ctx, x, x)


def test_preorder_laws_on_unit_grid(unit_ctx):
    report = check_preorder_laws(unit_ctx)
    assert report.passed
    assert report.checked_points == 21


def test_preorder_laws_hold_for_every_random_instance():
    # the induced relation is a preorder for any distance and any phi
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        space = random_finite_space(rng, n, t0=bool(rng.integers(0, 2)))
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        assert check_preorder_laws(ctx, "exhaustive").passed


def test_negative_slack_comparator_breaks_reflexivity(unit_space):
    # deliberately bypass ctx validation to plant a broken comparator:
    # d(x,x)=0 > -0.1 kills reflexivity at every point
    broken = PreorderCtx(unit_space, catalog.get_phi("identity", bound=1.0))
    object.__setattr__(broken, "slack", -0.1)
    report = check_preorder_laws(broken)
    assert report.reflexivity_violations
    assert not report.passed


def test_inflated_slack_comparator_breaks_transitivity():
    # an over-generous slack admits hops whose composition it rejects
    space = finite_space([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]])
    phi = catalog.get_phi("table", values=[0, 0, 0])
    ctx = PreorderCtx(space, phi, slack=0.1)
    report = check_preorder_laws(ctx, "exhaustive")
    assert (0, 1, 2) in report.transitivity_violations


def test_isotone_max_on_full_grid(unit_ctx):
    F = catalog.get_map("coupled_max")
    report = check_isotone(unit_ctx, F, "grid")
    assert report.passed
    assert report.checked == 11**4


def test_isotone_counterexample(unit_ctx):
    F = CoupledMap(lambda x, y: 1 - x, name="flip")
    report = check_isotone(unit_ctx, F, [(0.0, 1.0, 0.5, 0.5)])
    assert not report.passed
    [ce] = report.counterexamples
    assert ce["image_lo"] == 1.0 and ce["image_hi"] == 0.0


def test_isotone_affine(unit_ctx):
    F = catalog.get_map("coupled_affine")
    assert check_isotone(unit_ctx, F, "grid").passed


def test_isotone_exhaustive_needs_finite_carrier(unit_ctx):
    # as resolve_sample does: no silent fall-back to the grid
    F = catalog.get_map("coupled_max")
    with pytest.raises(UnsupportedError):
        check_isotone(unit_ctx, F, "exhaustive")


def reference_check_isotone(ctx, coupled, sample="grid"):
    """The tuple-by-tuple loop check_isotone used to run, kept as the
    reference its relation-matrix kernel must reproduce."""
    if isinstance(sample, str):
        if sample not in ("grid", "exhaustive"):
            raise ValueError(f"unknown isotone sample spec {sample!r}")
        if sample == "exhaustive" and not ctx.space.is_finite:
            raise UnsupportedError("exhaustive sampling needs a finite carrier")
        tuples = itertools.product(ctx.space.grid(ISOTONE_GRID_POINTS), repeat=4)
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


def assert_isotone_matches_reference(ctx, coupled, sample):
    got = check_isotone(ctx, coupled, sample)
    want = reference_check_isotone(ctx, coupled, sample)
    assert (got.checked, got.applicable) == (want.checked, want.applicable)
    assert got.counterexamples == want.counterexamples
    # repr tells np.float64 from float, int from np.int64 and -0.0 from 0.0
    assert repr(got.counterexamples) == repr(want.counterexamples)
    return got


def test_isotone_matches_reference_on_random_finite_instances(monkeypatch):
    rng = np.random.default_rng(17)
    found = 0
    for trial in range(40):
        n = int(rng.integers(1, 7))
        space = random_finite_space(rng, n, t0=bool(trial % 2))
        mode = ("plain", "symmetrized")[int(rng.integers(0, 2))]
        ctx = PreorderCtx(space, random_phi_table(rng, n), metric_mode=mode, slack=0.0)
        rows = rng.integers(0, n, size=(n, n)).tolist()
        table = CoupledMap(lambda a, b: rows[int(a)][int(b)], name="F_any")
        for coupled in (random_isotone_coupled(rng, ctx), table):
            found += len(assert_isotone_matches_reference(ctx, coupled, "exhaustive").counterexamples)
    assert found  # the arbitrary tables must break isotonicity somewhere
    # one mask row at a time: blocking over the first coordinate keeps the order
    monkeypatch.setattr(order, "_ISOTONE_BLOCK_CELLS", 1)
    assert_isotone_matches_reference(ctx, table, "grid")


EXTRA_COUPLED = (
    CoupledMap(lambda x, y: 1.0 - x, name="flip"),
    CoupledMap(lambda x, y: np.minimum(y, 1.0 - x), name="np_min_flip"),
)


@pytest.mark.parametrize("phi_id", ["identity", "arctan", "neg_exp"])
@pytest.mark.parametrize("mode", ["plain", "symmetrized"])
def test_isotone_matches_reference_on_the_interval_grid(unit_space, phi_id, mode):
    ctx = PreorderCtx(unit_space, catalog.get_phi(phi_id), metric_mode=mode)
    ids = ("coupled_max", "coupled_min", "coupled_affine", "coupled_product",
           "coupled_projection")
    for coupled in [catalog.get_map(i) for i in ids] + list(EXTRA_COUPLED):
        assert_isotone_matches_reference(ctx, coupled, "grid")


def test_isotone_matches_reference_on_explicit_tuples_with_repeats(unit_ctx):
    rng = np.random.default_rng(4)
    pool = [0.0, -0.0, 0.5, 1, 1.0, np.float64(0.25), 0.75, 0.5]
    tuples = [tuple(pool[i] for i in rng.integers(0, len(pool), 4)) for _ in range(300)]
    maps = [catalog.get_map("coupled_max"), *EXTRA_COUPLED]
    for coupled in maps:
        report = assert_isotone_matches_reference(unit_ctx, coupled, tuples)
        assert report.checked == 300
    assert not check_isotone(unit_ctx, EXTRA_COUPLED[0], [list(t) for t in tuples]).passed


def test_isotone_empty_sample(unit_ctx):
    report = assert_isotone_matches_reference(unit_ctx, catalog.get_map("coupled_max"), [])
    assert (report.checked, report.applicable, report.counterexamples) == (0, 0, [])


@pytest.mark.parametrize("sample", ["grid", [(0.0, 0.5, 0.25, 1.0), (0.0, 0.5, 0.0, 0.5)] * 3])
def test_isotone_calls_the_map_once_per_distinct_pair_in_loop_order(unit_ctx, sample):
    calls = []
    F = CoupledMap(lambda x, y: calls.append((x, y)) or max(x, y), name="counted_max")
    reference_check_isotone(unit_ctx, F, sample)
    loop_calls, calls[:] = list(dict.fromkeys(calls)), []
    report = check_isotone(unit_ctx, F, sample)
    assert report.applicable > len(calls)
    assert calls == loop_calls  # each pair once, where the loop first needed it


@pytest.mark.parametrize("sample", ["grid", [(0.0, 0.5, 0.0, 0.5), (0.5, 1.0, 0.5, 1.0)]])
def test_isotone_escaping_image_raises_the_loops_domain_error(unit_ctx, sample):
    # F(x, y) = x + y leaves [0, 1] at many pairs; both must name the same first one
    F = CoupledMap(lambda x, y: x + y, name="sum")
    with pytest.raises(DomainError) as want:
        reference_check_isotone(unit_ctx, F, sample)
    with pytest.raises(DomainError) as got:
        check_isotone(unit_ctx, F, sample)
    assert str(got.value) == str(want.value)
    assert "is not in the carrier" in str(got.value)


def test_seed_search_max(unit_ctx):
    F = catalog.get_map("coupled_max")
    assert seed_search(unit_ctx, F, [0.0, 0.5, 1.0]) == (0.0, 0.0)


def test_seed_search_product(unit_ctx):
    F = catalog.get_map("coupled_product")
    assert seed_search(unit_ctx, F, [0.0, 0.5, 1.0]) == (0.0, 0.0)


def test_seed_search_none_when_impossible(unit_ctx):
    F = CoupledMap(lambda x, y: x / 2, name="halve_x")
    assert seed_search(unit_ctx, F, [0.5, 1.0]) is None


def test_seed_search_reverse_direction(unit_ctx):
    F = CoupledMap(lambda x, y: x / 2, name="halve_x")
    assert seed_search(unit_ctx, F, [0.5, 1.0], direction="reverse") == (0.5, 0.5)


def test_seed_search_accepts_explicit_pairs(unit_ctx):
    F = catalog.get_map("coupled_max")
    assert seed_search(unit_ctx, F, [(0.3, 0.9)]) == (0.3, 0.9)
    with pytest.raises(ValueError):
        seed_search(unit_ctx, F, [])


def test_seed_is_reproducible(unit_ctx):
    # any returned seed satisfies both inequalities under re-evaluation
    F = catalog.get_map("coupled_affine")
    seed = seed_search(unit_ctx, F, unit_ctx.space.grid(5))
    x0, y0 = seed
    assert induced_leq(unit_ctx, x0, F(x0, y0))
    assert induced_leq(unit_ctx, y0, F(y0, x0))


def test_phi_bound_identity():
    phi = catalog.get_phi("identity", bound=1.0)
    report = check_phi_bound(phi, [0.0, 0.5, 1.0])
    assert report.passed
    assert report.max_attained == 1.0


def test_phi_bound_arctan():
    phi = catalog.get_phi("arctan")
    assert check_phi_bound(phi, [0.0, 1.0, 10.0, 1000.0]).passed


def test_phi_bound_violation():
    phi = PhiFn(lambda x: x, "above", 0.5, name="too_low")
    report = check_phi_bound(phi, [0.0, 0.6, 1.0])
    assert not report.passed
    assert (0.6, 0.6) in report.violations


def test_phi_bound_rejects_empty_sample():
    phi = catalog.get_phi("identity", bound=1.0)
    with pytest.raises(ValueError, match="sample must be nonempty"):
        check_phi_bound(phi, [])


def test_phi_bound_below_direction():
    phi = PhiFn(lambda x: x, "below", 0.0, name="id_below")
    assert check_phi_bound(phi, [0.0, 0.5, 1.0]).passed
    assert not check_phi_bound(phi, [-0.25, 0.5]).passed


def test_leq_implies_phi_order():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        space = random_finite_space(rng, n)
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        rel = relation_matrix(ctx, space.points())
        for i, j in np.argwhere(rel):
            assert phi(int(i)) <= phi(int(j))


def test_symmetrized_mode_is_antisymmetric_on_t0():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        space = random_finite_space(rng, n, t0=True)
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, metric_mode="symmetrized", slack=0.0)
        rel = relation_matrix(ctx, space.points())
        both = rel & rel.T
        assert not (both & ~np.eye(n, dtype=bool)).any()


def test_ctx_validation(unit_space):
    phi = catalog.get_phi("identity", bound=1.0)
    with pytest.raises(ValueError):
        PreorderCtx(unit_space, phi, metric_mode="other")
    with pytest.raises(ValueError):
        PreorderCtx(unit_space, phi, slack=-1e-9)
    with pytest.raises(ValueError):
        PreorderCtx(unit_space, phi, slack=float("nan"))
    with pytest.raises(ValueError):
        PhiFn(lambda x: x, "sideways", 0.0)
