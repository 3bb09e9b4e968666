import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpfix import catalog
from qpfix.oracle import random_chain_selfmap, random_finite_space, random_isotone_coupled, random_phi_table
from qpfix.order import CoupledMap, PreorderCtx, SelfMap, dual, induced_leq
from qpfix.relations import (
    Probe,
    RelReport,
    check_sequential_continuity,
    check_weakly_left_related,
    check_weakly_right_related,
    mirrored,
    relate_pair_left,
    relate_pair_right,
)
from qpfix.solvers import SolverConfig, pair_iterate
from qpfix.spaces import DomainError
from reference_order import _relate_pair


F_MAX = catalog.get_map("coupled_max")
F_MIN = catalog.get_map("coupled_min")
PULL = catalog.get_map("affine_pull")
HALVE = catalog.get_map("halve")


def test_left_related_max_with_affine_pull(unit_ctx):
    report = check_weakly_left_related(unit_ctx, F_MAX, PULL, "grid")
    assert report.passed
    assert report.checked == 121


def test_left_related_fails_for_halve(unit_ctx):
    report = check_weakly_left_related(unit_ctx, F_MAX, HALVE, [(0.5, 0.5)])
    assert not report.passed
    [v] = report.violations
    assert v.condition == "C1" and v.part == 1
    assert v.lhs == 0.5 and v.rhs == 0.25


def test_left_related_sqrt(unit_ctx):
    report = check_weakly_left_related(
        unit_ctx, F_MAX, catalog.get_map("sqrt_pull"), "grid"
    )
    assert report.passed


def test_right_related_min_with_halve(unit_ctx):
    report = check_weakly_right_related(unit_ctx, F_MIN, HALVE, "grid")
    assert report.passed


def test_right_related_fails_for_affine_pull(unit_ctx):
    report = check_weakly_right_related(unit_ctx, F_MAX, PULL, [(0.0, 0.0)])
    assert not report.passed
    assert report.violations[0].condition == "D1"


def test_identity_reduces_to_seed_inequalities(unit_space):
    # with g the identity, the image inequalities are reflexive, so the
    # check passes at a pair exactly when it satisfies the seed pattern
    ctx = PreorderCtx(unit_space, catalog.get_phi("identity", bound=1.0), slack=0.0)
    ident = catalog.get_map("identity")
    for x, y in itertools.product(ctx.space.grid(7), repeat=2):
        fine = relate_pair_left(ctx, F_MIN, ident, x, y) is None
        seeded = induced_leq(ctx, x, F_MIN(x, y)) and induced_leq(
            ctx, y, F_MIN(y, x)
        )
        assert fine == seeded


def test_violations_are_stable_under_recheck(unit_ctx):
    report = check_weakly_left_related(unit_ctx, F_MAX, HALVE, "grid")
    for v in report.violations[:10]:
        again = relate_pair_left(unit_ctx, F_MAX, HALVE, *v.pair)
        assert (again.condition, again.part) == (v.condition, v.part)


def test_left_and_right_checks_are_dual():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        space = random_finite_space(rng, n)
        phi = random_phi_table(rng, n)
        ctx = PreorderCtx(space, phi, slack=0.0)
        coupled = random_isotone_coupled(rng, ctx)
        g = random_chain_selfmap(rng, ctx)
        dctx = dual(ctx)
        for x, y in itertools.product(space.points(), repeat=2):
            right = relate_pair_right(ctx, coupled, g, x, y)
            left = relate_pair_left(dctx, coupled, g, x, y)
            assert (right is None) == (left is None)


def _reference_right(ctx, coupled, g, pairs):
    """The old right check pair by pair: its violations, or the DomainError
    that stopped it."""
    try:
        return [v for x, y in pairs if (v := _relate_pair("right", ctx, coupled, g, x, y))]
    except DomainError as exc:
        return exc


def _right(ctx, coupled, g, pairs):
    try:
        return check_weakly_right_related(ctx, coupled, g, pairs).violations
    except DomainError as exc:
        return exc


# F(x, y) = x / 4 + y / 4 + 2 leaves [0, 1] everywhere, so every check stops
INTERVAL_COUPLED = [catalog.get_map(m) for m in ("coupled_max", "coupled_min", "coupled_affine",
                                                "coupled_product", "coupled_projection")]
INTERVAL_COUPLED.append(catalog.get_map("coupled_affine", c=2.0))
INTERVAL_SELF = [catalog.get_map(m) for m in ("affine_pull", "halve", "sqrt_pull", "cbrt_pull",
                                             "identity", "step")]


@pytest.mark.parametrize("mode", ["plain", "symmetrized"])
@pytest.mark.parametrize("phi_id", ["identity", "arctan", "neg_exp"])
@pytest.mark.parametrize("space_id", ["upper_interval", "lower_interval"])
def test_right_check_matches_the_reference_on_catalog_grids(space_id, phi_id, mode):
    ctx = PreorderCtx(catalog.get_space(space_id), catalog.get_phi(phi_id), metric_mode=mode)
    pairs = list(itertools.product(ctx.space.grid(11), repeat=2))
    for coupled, g in itertools.product(INTERVAL_COUPLED, INTERVAL_SELF):
        want, got = _reference_right(ctx, coupled, g, pairs), _right(ctx, coupled, g, pairs)
        if isinstance(want, DomainError):  # both stop; the point named may differ
            assert isinstance(got, DomainError)
        else:
            assert got == want  # condition, part, pair, lhs and rhs


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans(), st.booleans(),
       st.sampled_from(["plain", "symmetrized"]), st.sampled_from([0.0, 0.25]))
@settings(max_examples=100, deadline=None)
def test_right_check_is_the_mirrored_left_check_on_the_dual(seed, n, t0, isotone, mode, slack):
    rng = np.random.default_rng(seed)
    space = random_finite_space(rng, n, t0=t0)
    ctx = PreorderCtx(space, random_phi_table(rng, n), metric_mode=mode, slack=slack)
    if isotone:
        coupled, g = random_isotone_coupled(rng, ctx), random_chain_selfmap(rng, ctx)
    else:  # arbitrary tables, which break the conditions often
        rows, values = rng.integers(0, n, size=(n, n)).tolist(), rng.integers(0, n, n).tolist()
        coupled = CoupledMap(lambda a, b: rows[a][b])
        g = SelfMap(lambda a: values[a])
    right = check_weakly_right_related(ctx, coupled, g, "exhaustive")
    left = check_weakly_left_related(dual(ctx), coupled, g, "exhaustive")
    mirror = RelReport("right", [mirrored(v) for v in left.violations], left.checked, left.slack)
    assert right.as_dict() == mirror.as_dict()
    pairs = itertools.product(range(n), repeat=2)
    assert right.violations == _reference_right(ctx, coupled, g, pairs)


def test_right_check_names_the_image_produced_first(unit_ctx):
    # F(0.5, 0.5) = 2.25 and g(2.25) = 1.125 both leave [0, 1]; the left
    # check names 2.25, and the right check now does too
    F = catalog.get_map("coupled_affine", c=2.0)
    first = r"point 2\.25 is not in the carrier of upper_interval\[0\.0,1\.0\]"
    for check in (relate_pair_left, relate_pair_right):
        with pytest.raises(DomainError, match=first):
            check(unit_ctx, F, HALVE, 0.5, 0.5)
    with pytest.raises(DomainError, match=first):
        check_weakly_right_related(unit_ctx, F, HALVE, [(0.5, 0.5)])
    with pytest.raises(DomainError, match=r"point 1\.125 "):  # the reference named the second
        _relate_pair("right", unit_ctx, F, HALVE, 0.5, 0.5)
    # so does a verified reverse run: at (0.5, 0.5) the seed and part 1
    # hold, then g(0.5) = 2 and F(2, 2) = 3 both leave (the reference named 3)
    F = CoupledMap(lambda a, b: 0.0 if a <= 1 else 3.0, name="F")
    g = SelfMap(lambda a: 2.0 if a > 0.25 else a, name="g")
    cfg = SolverConfig(direction="reverse", verify_hypotheses=True)
    report = pair_iterate(unit_ctx, F, g, (0.5, 0.5), cfg)
    assert (report.status, report.violation.index) == ("domain_escape", 0)
    assert report.violation.detail == "point 2.0 is not in the carrier of upper_interval[0.0,1.0]"


def test_an_escaping_image_raises_where_it_is_produced(unit_ctx):
    # at (0.5, 1.0) part 1 holds and g(1.0) = 2.0 leaves [0, 1]; the
    # reference read on to a part 2 violation, F(0.5, 2.0) = 0.0, and
    # would have named 2.0 only at part 4
    F = CoupledMap(lambda a, b: a if b <= 1 else 0.0, name="F")
    g = SelfMap(lambda a: 2.0 if a > 0.75 else a, name="g")
    v = _relate_pair("left", unit_ctx, F, g, 0.5, 1.0)
    assert (v.condition, v.part, v.lhs, v.rhs) == ("C1", 2, 0.5, 0.0)
    with pytest.raises(DomainError, match=r"point 2\.0 is not in the carrier"):
        relate_pair_left(unit_ctx, F, g, 0.5, 1.0)
    # an image a map reads next is checked before the map reads it
    sqrt = catalog.get_map("sqrt_pull")
    F = catalog.get_map("coupled_affine", a=0.25, b=0.25, c=-0.5)
    for relate in (relate_pair_left, relate_pair_right):
        with pytest.raises(DomainError, match=r"point -0\.5 is not in the carrier"):
            relate(unit_ctx, F, sqrt, 0.0, 0.0)


@pytest.mark.parametrize("check", [check_weakly_left_related, check_weakly_right_related])
@pytest.mark.parametrize("pairs, outside", [([(5.0, 0.5), (0.2, 0.3)], "5.0"),
                                            ([(0.2, 0.3), (0.5, -1.0)], "-1.0")])
def test_an_explicit_pair_sample_is_read_only_at_carrier_points(unit_ctx, check, pairs, outside):
    # 5.0 used to pass, checked: 2, because every map image fell back in [0, 1]
    calls = []
    F = CoupledMap(lambda a, b: calls.append((a, b)) or min(a, b), name="coupled_min")
    g = catalog.get_map("affine_pull", a=0, b=0.5)
    with pytest.raises(DomainError, match=rf"point {outside} is not in the carrier"):
        check(unit_ctx, F, g, pairs)
    assert calls == []  # no map is called before the sample is read


def test_relation_report_json(unit_ctx):
    report = check_weakly_left_related(unit_ctx, F_MAX, HALVE, [(0.5, 0.5)])
    payload = report.as_dict()
    assert payload["violations"][0] == {
        "condition": "C1",
        "part": 1,
        "pair": [0.5, 0.5],
        "lhs": 0.5,
        "rhs": 0.25,
        "slack": unit_ctx.slack,
    }


# -- sequential continuity ------------------------------------------------


def test_coupled_max_continuity(unit_space):
    xs = tuple(1.0 / k for k in range(1, 21))
    ys = tuple(1.0 - 1.0 / k for k in range(1, 21))
    probes = [(Probe(xs, 0.0), Probe(ys, 1.0))]
    report = check_sequential_continuity(unit_space, F_MAX, probes, mode="right", tol=0.2)
    assert report.passed
    assert report.results[0].expected == 1.0


def test_step_map_discontinuity(unit_space):
    step = catalog.get_map("step", threshold=0.5)
    xs = tuple(0.5 - 1.0 / k for k in range(2, 22))
    report = check_sequential_continuity(
        unit_space, step, [Probe(xs, 0.5)], mode="left", tol=0.5
    )
    assert not report.passed
    assert report.results[0].expected == 1.0


def test_constant_map_continuity(unit_space):
    const = SelfMap(lambda x: 0.25, name="const")
    probes = [
        Probe(tuple(1.0 / k for k in range(1, 11)), 0.0),
        Probe(tuple(0.5 + 1.0 / k for k in range(2, 12)), 0.5),
    ]
    for mode in ("left", "right", "symmetric"):
        assert check_sequential_continuity(unit_space, const, probes, mode=mode).passed


def test_continuity_rejects_a_nan_or_non_positive_tol(unit_space):
    # the image of 0.6, 0.4, ... never settles on 0.5; a NaN tol once passed it
    probes = [Probe((0.6, 0.4) * 10, 0.5)]
    identity = catalog.get_map("identity")
    assert not check_sequential_continuity(unit_space, identity, probes, tol=0.05).passed
    for tol in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            check_sequential_continuity(unit_space, identity, probes, tol=tol)


def test_continuity_checks_its_arguments_when_every_probe_is_skipped(unit_space):
    # with no probe to run, a NaN tol once passed into a report with "tol": nan
    probes = [Probe((0.1, 0.9), None)]
    identity = catalog.get_map("identity")
    for tol in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            check_sequential_continuity(unit_space, identity, probes, tol=tol)
    with pytest.raises(ValueError, match="unknown limit mode"):
        check_sequential_continuity(unit_space, identity, probes, mode="up")
    with pytest.raises(ValueError, match="unknown limit mode"):
        check_sequential_continuity(unit_space, identity, [], mode="up")


def test_probe_without_limit_is_skipped(unit_space):
    probes = [Probe((0.1, 0.9, 0.1, 0.9), None)]
    report = check_sequential_continuity(unit_space, catalog.get_map("identity"), probes)
    assert report.results[0].verdict == "skipped"
    assert report.checked == 0
    assert report.passed  # nothing failed, nothing was shown either


def test_relate_pair_stops_at_the_first_failing_step(unit_ctx):
    # both sides evaluate the maps lazily and in the same order: a pair
    # failing part 1 costs one coupled and one self-map evaluation
    for relate, condition in ((relate_pair_left, "C1"), (relate_pair_right, "D1")):
        calls = []
        coupled = CoupledMap(lambda x, y: calls.append("F") or min(x, y), name="F")
        g = SelfMap(lambda x: calls.append("g") or (x / 2 if condition == "C1" else 1.0))
        v = relate(unit_ctx, coupled, g, 0.5, 0.5)
        assert (v.condition, v.part) == (condition, 1)
        assert calls == ["F", "g"]
        # the violation names the failed inequality lhs below rhs
        assert not induced_leq(unit_ctx, v.lhs, v.rhs)
