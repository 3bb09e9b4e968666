import numpy as np
import pytest

from qpfix import catalog
from qpfix.oracle import random_finite_space, random_phi_table
from qpfix.order import (
    CoupledMap,
    PhiFn,
    PreorderCtx,
    check_isotone,
    check_phi_bound,
    check_preorder_laws,
    induced_leq,
    relation_matrix,
    seed_search,
)
from qpfix.spaces import UnsupportedError, finite_space


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
