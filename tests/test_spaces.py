import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpfix import catalog, spaces
from qpfix.oracle import random_finite_space
from qpfix.spaces import (
    BallQuery,
    DomainError,
    UnsupportedError,
    check_axioms,
    check_T0,
    finite_space,
    interval_space,
    space_from_json,
    space_to_json,
)


def test_upper_interval_dist(unit_space):
    assert unit_space.dist(0.7, 0.2) == pytest.approx(0.5)
    assert unit_space.dist(0.2, 0.7) == 0.0
    for x in unit_space.grid(11):
        assert unit_space.dist(x, x) == 0.0


def test_dist_rejects_foreign_points(unit_space):
    with pytest.raises(DomainError):
        unit_space.dist(1.5, 0.2)
    with pytest.raises(DomainError):
        unit_space.dist(0.2, float("nan"))


def test_conjugate_swaps_arguments(unit_space):
    conj = unit_space.conjugate()
    assert conj.dist(0.7, 0.2) == 0.0
    assert conj.dist(0.2, 0.7) == pytest.approx(0.5)


def test_conjugate_is_involution(unit_space):
    twice = unit_space.conjugate().conjugate()
    for a in unit_space.grid(11):
        for b in unit_space.grid(11):
            assert twice.dist(a, b) == unit_space.dist(a, b)


def test_finite_conjugate_is_transpose():
    space = finite_space([[0, 1], [2, 0]])
    conj = space.conjugate()
    assert conj.matrix.tolist() == [[0, 2], [1, 0]]


def test_sup_metric_symmetric(unit_space):
    sup = unit_space.sup_metric()
    assert sup.dist(0.7, 0.2) == pytest.approx(0.5)
    grid = unit_space.grid(11)
    for a in grid:
        for b in grid:
            assert sup.dist(a, b) == sup.dist(b, a)
            assert sup.dist(a, b) >= unit_space.dist(a, b)


def test_finite_sup_metric_matrix():
    space = finite_space([[0, 1], [2, 0]])
    assert space.sup_metric().matrix.tolist() == [[0, 2], [2, 0]]


def test_in_ball(unit_space):
    assert unit_space.in_ball(BallQuery(0.5, 0.2, "open"), 0.4)
    # asymmetry: the ball extends upward without bound
    assert unit_space.in_ball(BallQuery(0.5, 0.2, "open"), 0.9)
    assert unit_space.in_ball(BallQuery(0.5, 0.0, "closed"), 0.5)
    assert not unit_space.in_ball(BallQuery(0.5, 0.2, "open"), 0.2)


def test_ball_query_validation():
    with pytest.raises(ValueError):
        BallQuery(0.5, 0.0, "open")
    with pytest.raises(ValueError):
        BallQuery(0.5, -1.0, "closed")
    with pytest.raises(ValueError):
        BallQuery(0.5, 0.5, "half-open")


def test_axioms_pass_on_unit_grid(unit_space):
    report = check_axioms(unit_space)
    assert report.passed
    assert report.sample_size == 21


def test_axioms_catch_planted_triangle_violation():
    space = finite_space([[0, 1, 5], [1, 0, 1], [1, 1, 0]])
    report = check_axioms(space, "exhaustive")
    assert not report.passed
    assert (0, 1, 2, 5.0, 2.0) in report.triangle_violations


def reference_triangle_violations(pts, d, slack):
    return [
        (pts[i], pts[j], pts[k], float(d[i, k]), float(d[i, j] + d[j, k]))
        for i in range(len(pts))
        for j in range(len(pts))
        for k in range(len(pts))
        if d[i, k] - d[i, j] - d[j, k] > slack
    ]


@pytest.mark.parametrize("block_cells", [1, 50, 1 << 20])
def test_axioms_triangle_scan_matches_triple_loop(monkeypatch, block_cells):
    monkeypatch.setattr(spaces, "_AXIOM_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = random_finite_space(rng, n).matrix.copy()
        for _ in range(int(rng.integers(1, 4))):  # planted violations
            i, k = rng.integers(0, n, 2)
            m[i, k] += float(rng.integers(1, 5))
        np.fill_diagonal(m, 0.0)
        space = finite_space(m)
        report = check_axioms(space, "exhaustive", slack=0.0)
        want = reference_triangle_violations(space.points(), m, 0.0)
        assert report.triangle_violations == want
        assert [type(v) for row in report.triangle_violations for v in row[3:]] == [float] * (
            2 * len(want)
        )
        found += len(want)
    assert found


def test_axioms_catch_nonzero_diagonal():
    space = finite_space([[0.1, 1], [1, 0]])
    report = check_axioms(space, "exhaustive")
    assert report.identity_violations == [(0, 0.1)]


def test_exhaustive_needs_finite_carrier(unit_space):
    with pytest.raises(UnsupportedError):
        check_axioms(unit_space, "exhaustive")


def test_t0_upper_interval(unit_space):
    assert check_T0(unit_space).passed


def test_t0_planted_violation():
    space = finite_space([[0, 0], [0, 0]])
    report = check_T0(space, "exhaustive")
    assert report.violations == [(0, 1, 0.0, 0.0)]


def test_t0_one_direction_nonzero_passes():
    space = finite_space([[0, 1], [0, 0]])
    assert check_T0(space, "exhaustive").passed


def test_json_round_trip(unit_space, tmp_path):
    finite = finite_space([[0, 1], [2, 0]])
    again = space_from_json(space_to_json(finite))
    assert again.matrix.tolist() == finite.matrix.tolist()

    obj = space_to_json(unit_space)
    assert obj == {"kind": "interval", "lo": 0.0, "hi": 1.0, "dist": "upper"}
    back = space_from_json(obj)
    assert back.dist(0.7, 0.2) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        space_from_json({"kind": "taxicab"})
    with pytest.raises(ValueError):
        space_from_json({"kind": "interval", "lo": 0, "hi": 1, "dist": "euclid"})


@pytest.mark.parametrize(
    "space_id, dist", [("upper_interval", "upper"), ("lower_interval", "lower")]
)
def test_interval_json_round_trip(space_id, dist):
    space = catalog.get_space(space_id, lo=-1.0, hi=2.0)
    obj = space_to_json(space)
    assert obj == {"kind": "interval", "lo": -1.0, "hi": 2.0, "dist": dist}
    back = space_from_json(obj)
    assert (back.name, back.sign) == (space.name, space.sign)
    pts = [-1.0, 0.25, 2.0]
    assert back.cross(pts, pts).tolist() == space.cross(pts, pts).tolist()
    # the conjugate is the other family member, and is written out as such
    flipped = {"upper": "lower", "lower": "upper"}[dist]
    assert space_to_json(space.conjugate())["dist"] == flipped
    with pytest.raises(ValueError, match="has no JSON form"):
        space_to_json(space.sup_metric())


def test_sign_tag_is_set_by_the_constructors_only():
    upper = catalog.get_space("upper_interval")
    assert (upper.sign, catalog.get_space("lower_interval").sign) == (1, -1)
    assert (upper.conjugate().sign, upper.conjugate().conjugate().sign) == (-1, 1)
    assert upper.sup_metric().sign is None
    # a custom interval is untagged, whatever its name says
    custom = interval_space(0, 1, lambda x, y: abs(x - y), name="upper_interval_x")
    assert custom.sign is None
    with pytest.raises(ValueError, match="has no JSON form"):
        space_to_json(custom)


def test_finite_space_validation():
    with pytest.raises(ValueError):
        finite_space([[0, 1]])
    with pytest.raises(ValueError):
        finite_space([[0, -1], [1, 0]])


@pytest.mark.parametrize("matrix", [
    [[0, "0.5"], [1, 0]],
    [[0, 1], [True, 0]],
    [[0, None], [1, 0]],
    [[0, [1]], [1, 0]],
    [[0, 10**400], [1, 0]],
    [[0, float("nan")], [1, 0]],
    np.array([[False, True], [True, False]]),
    np.array([["0", "1"], ["1", "0"]]),
])
def test_finite_matrix_entries_are_not_coerced(matrix):
    # [[0, "0.5"], [true, 0]] used to read as [[0, 0.5], [1, 0]]
    for build in (finite_space, lambda m: space_from_json({"kind": "finite", "matrix": m}),
                  lambda m: catalog.get_space("finite", matrix=m)):
        with pytest.raises(ValueError, match="must be finite"):
            build(matrix)


def test_finite_space_copies_the_matrix_and_freezes_it():
    m = np.array([[0.0, 0.0], [1.0, 0.0]])
    s = finite_space(m)
    m[0, 1] = 5.0  # the caller's array changes; the space does not
    assert s.matrix[0, 1] == s.cross([0], [1])[0, 0] == s.dist(0, 1) == 0.0
    with pytest.raises(ValueError, match="read-only"):
        s.matrix[0, 1] = 5.0
    assert s.dist(0, 1) == 0.0


def test_finite_matrix_takes_python_and_numpy_numbers():
    want = [[0.0, 0.5], [1.0, 0.0]]
    for matrix in ([[0, 0.5], [1, 0]], [[np.int64(0), np.float64(0.5)], [1, 0]], np.array(want)):
        assert finite_space(matrix).matrix.tolist() == want
    assert finite_space(np.array([[0, 1], [2, 0]])).matrix.tolist() == [[0.0, 1.0], [2.0, 0.0]]
    for obj in ({"kind": "finite", "matrix": 3}, {"kind": "finite", "matrix": [[0, 1], [1]]},
                {"kind": "finite", "n": 3, "matrix": want}):
        with pytest.raises(ValueError):
            space_from_json(obj)
    with pytest.raises(ValueError, match="unknown interval distance"):
        space_from_json({"kind": "interval", "lo": 0, "hi": 1, "dist": ["upper"]})


@pytest.mark.parametrize("obj, message", [
    ({"kind": "interval", "lo": "0.5", "hi": 1}, "lo must be a finite number"),
    ({"kind": "interval", "lo": 0, "hi": True}, "hi must be a finite number"),
    ({"kind": "interval", "lo": 0, "hi": float("inf")}, "hi must be a finite number"),
    ({"kind": "interval", "hi": 1}, r"missing space fields: \['lo'\]"),
    ({"kind": "interval", "lo": 0, "hi": 1, "n": 2}, r"unknown space fields: \['n'\]"),
    ({"kind": "finite"}, r"missing space fields: \['matrix'\]"),
    ({"kind": "finite", "n": 2.0, "matrix": [[0, 1], [1, 0]]}, "n must be the integer size"),
    ({"kind": "finite", "n": 3, "matrix": [[0, 1], [1, 0]]}, "n must be the integer size"),
    ({"kind": ["finite"], "matrix": [[0]]}, "unknown space kind"),
])
def test_space_from_json_checks_its_fields(obj, message):
    with pytest.raises(ValueError, match=message):
        space_from_json(obj)


def test_cross_matches_scalar_dist(unit_space):
    pts = unit_space.grid(7)
    mat = unit_space.pairwise(pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert mat[i, j] == unit_space.dist(a, b)


def test_random_spaces_satisfy_axioms_exactly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        space = random_finite_space(rng, n)
        assert check_axioms(space, "exhaustive", slack=0.0).passed
        assert check_T0(space, "exhaustive", slack=0.0).passed
        conj = space.conjugate()
        assert np.array_equal(conj.conjugate().matrix, space.matrix)
        assert np.array_equal(
            space.sup_metric().matrix, np.maximum(space.matrix, conj.matrix)
        )


def test_sup_metric_of_t0_space_is_a_metric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        space = random_finite_space(rng, int(rng.integers(2, 7)))
        sup = space.sup_metric()
        m = sup.matrix
        assert np.array_equal(m, m.T)
        assert check_axioms(sup, "exhaustive", slack=0.0).passed
        # identity of indiscernibles off the diagonal
        off = m + np.eye(m.shape[0])
        assert (off > 0).all()


# -- batch membership against the single-point test ----------------------------

_FLOAT_EDGES = [0.0, -0.0, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, -1e-10, float("nan"), float("inf"),
                -float("inf")]
_FLOATS = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(_FLOAT_EDGES))
_INTS = st.integers(-2, 4)
_POINTS = st.one_of(
    _INTS,
    _INTS.map(np.int64),
    st.integers(0, 4).map(np.uint8),
    st.booleans(),
    _FLOATS,
    st.floats(-0.5, 1.5, width=32).map(np.float32),
    st.sampled_from(["x", "0", None, (0,), (0.5,), np.True_, np.float64(2.0), 2**70]),
)
# uniform batches reach the one-array test, mixed ones its fallback; numpy
# reads numbers mixed with bools as one numeric array, and ints beyond int64
# leave the one-array test
_BATCHES = st.one_of(*(st.lists(s, max_size=8) for s in (
    _INTS, _INTS.map(np.int64), _FLOATS, st.floats(-0.5, 1.5, width=32).map(np.float32),
    st.one_of(_INTS, st.booleans()), st.one_of(_FLOATS, st.just(np.True_)),
    st.one_of(_INTS, st.sampled_from([2**64, -(2**70), np.uint64(2**63 + 5)])), _POINTS)))


@settings(max_examples=400, deadline=None)
@given(_BATCHES, st.sampled_from(["finite", "interval"]))
def test_batch_membership_agrees_with_contains(pts, kind):
    space = (finite_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) if kind == "finite"
             else catalog.get_space("upper_interval", lo=0.0, hi=1.0))
    first = next((i for i, p in enumerate(pts) if not space.contains(p)), None)
    assert space.first_outside(pts) == first
    assert (first is None) == all(map(space.contains, pts))
    if first is None:
        got = space.require_all(iter(pts))
        assert len(got) == len(pts) and all(a is b for a, b in zip(got, pts))
        return
    with pytest.raises(DomainError) as batch:
        space.require_all(pts)
    with pytest.raises(DomainError) as loop:
        for p in pts:
            space.require(p)
    assert str(batch.value) == str(loop.value)



def test_an_integer_beyond_float_range_is_outside_an_interval(unit_space):
    # float(10**400) raises OverflowError, which contains once let through
    for x in (10**400, -(10**400)):
        assert not unit_space.contains(x)
        assert unit_space.first_outside([0.5, x]) == 1
        with pytest.raises(spaces.DomainError):
            unit_space.require_all([x])
