import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpfix import catalog, sequences
from qpfix.oracle import random_finite_space
from qpfix.spaces import DomainError, QPSpace, finite_space, interval_space
from qpfix.sequences import (
    CauchyFlag,
    CauchyVerdict,
    SequenceWindow,
    cauchy_moduli,
    check_implication_chain,
    classify_cauchy,
    classify_ladder,
    default_candidates,
    detect_limit,
)


# -- brute-force oracles (pure double loops, no shared code with the
#    classifier's vectorized scans) ---------------------------------------


def brute_k_start(points, dist, epsilon, cap):
    n = len(points)
    for n0 in range(cap + 1):
        ok = True
        for k in range(n0, n):
            for m in range(k, n):
                if dist(points[k], points[m]) >= epsilon:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return n0
    return None


def brute_d_start(points, candidates, dist, epsilon, cap):
    n = len(points)
    best = None
    for c in candidates:
        n0 = 0
        for m in range(n):
            if dist(c, points[m]) >= epsilon:
                n0 = m + 1
        if n0 <= cap and (best is None or n0 < best):
            best = n0
    return best


def brute_k_witness(points, dist, epsilon, cap):
    """First row-major (k, n) with cap <= k <= n and dist >= epsilon."""
    for k in range(cap, len(points)):
        for m in range(k, len(points)):
            if dist(points[k], points[m]) >= epsilon:
                return (k, m)
    return None


def brute_d_witness(points, candidates, dist, epsilon, cap):
    """The first candidate with the smallest start, and its first
    violation at or past the cap."""
    starts = []
    for c in candidates:
        n0 = 0
        for m in range(len(points)):
            if dist(c, points[m]) >= epsilon:
                n0 = m + 1
        starts.append(n0)
    best = starts.index(min(starts))
    for m in range(cap, len(points)):
        if dist(candidates[best], points[m]) >= epsilon:
            return (best, m)
    return None


def brute_limit(points, candidates, dist, tol, cap):
    """Per-candidate loop: the first candidate whose tail start is <= cap."""
    for c in candidates:
        n0 = 0
        for m in range(len(points)):
            if dist(c, points[m]) >= tol:
                n0 = m + 1
        if n0 <= cap:
            return c, n0
    return None


# -- the N x N matrix-path classifier that the distinct-point and signed
#    kernels replaced, kept (with the window matrix passed in) as their
#    reference ----------------------------------------------------------------


def distance_matrix(seq):
    """Pairwise d(x_k, x_n) over the window (N x N)."""
    return seq.space.pairwise(list(seq.points))


def candidate_distances(seq, candidates):
    """(d(c, x_n), d(x_n, c)) matrices for a candidate list."""
    pts = list(seq.points)
    return seq.space.cross(candidates, pts), seq.space.cross(pts, candidates).T


def _tail_starts(bad: np.ndarray) -> np.ndarray:
    """Per row of a boolean array, one past its last True (0 if none):
    the smallest start from which the row stays good."""
    n = bad.shape[-1]
    return np.where(bad.any(axis=-1), n - np.argmax(bad[..., ::-1], axis=-1), 0)


def _matrix_k_profile(dmat: np.ndarray) -> dict:
    """Per K notion, worst[k]: the largest distance of row k from n = k
    on.  A start n0 works iff worst[k] < epsilon for every k >= n0, so
    this is all the epsilon-free work of the K flags."""
    idx = np.arange(len(dmat))
    upper = idx[None, :] >= idx[:, None]
    left = np.where(upper, dmat, -np.inf).max(axis=1)
    right = np.where(upper, dmat.T, -np.inf).max(axis=1)
    return {"left_K": left, "right_K": right, "d_s": np.maximum(left, right)}


def _matrix_k_flag(dmat, profile, notion, epsilon, cap):
    """(flag, minimal start or None).  A failing flag's witness is the first
    row-major violation (k, n) with k >= cap, which refutes every start."""
    bad = profile[notion] >= epsilon
    n0 = int(_tail_starts(bad))
    if n0 <= cap:
        return CauchyFlag(True), n0
    k = cap + int(np.argmax(bad[cap:]))
    # row k of the notion's matrix from n = k on, read only for the witness
    rows = {"left_K": dmat[k, k:], "right_K": dmat[k:, k]}
    rows["d_s"] = np.maximum(rows["left_K"], rows["right_K"])
    n = k + int(np.argmax(rows[notion] >= epsilon))
    return CauchyFlag(False, (k, n)), None


def _matrix_d_flag(cand_dists, epsilon, cap):
    """Does some candidate row (shape (candidates, N)) stay under epsilon
    from a start <= cap on?  A failing flag's witness is the first best
    candidate with its first violation at or past the cap."""
    bad = cand_dists >= epsilon
    starts = _tail_starts(bad)
    best = int(np.argmin(starts))
    if starts[best] <= cap:
        return CauchyFlag(True)
    return CauchyFlag(False, (best, cap + int(np.argmax(bad[best, cap:]))))


def matrix_classify(seq, epsilon, candidates=None):
    n = len(seq)
    cap = n // 2
    if candidates is None:
        candidates = default_candidates(seq)
    to_seq, from_seq = candidate_distances(seq, list(candidates))
    dmat = distance_matrix(seq)
    profile = _matrix_k_profile(dmat)
    (left_K, n0), (right_K, _), (d_s, _) = (
        _matrix_k_flag(dmat, profile, notion, epsilon, cap)
        for notion in ("left_K", "right_K", "d_s")
    )
    return CauchyVerdict(
        left_d=_matrix_d_flag(to_seq, epsilon, cap),
        left_K=left_K,
        right_d=_matrix_d_flag(from_seq, epsilon, cap),
        right_K=right_K,
        d_s=d_s,
        epsilon=float(epsilon),
        horizon=n,
        n0=n0,
    )


def matrix_detect_limit(seq, cands, mode, tol):
    pts = list(seq.points)
    cap = len(pts) // 2
    if mode == "left":
        dm = seq.space.cross(cands, pts)
    elif mode == "right":
        dm = seq.space.cross(pts, cands).T
    else:
        dm = np.maximum(*candidate_distances(seq, cands))
    starts = _tail_starts(dm >= tol)
    ok = starts <= cap
    if not ok.any():
        return None
    ci = int(np.argmax(ok))
    return cands[ci], int(starts[ci])


def matrix_moduli(seq):
    """Per flag, the critical epsilon read off the full matrices: the K
    flags' largest distance over cap <= k <= n, the d flags' least over
    the default candidates of the largest distance from cap on."""
    cap = len(seq) // 2
    dmat = distance_matrix(seq)[cap:, cap:]
    upper = np.triu(np.ones(dmat.shape, dtype=bool))
    left, right = (float(np.where(upper, m, -np.inf).max()) for m in (dmat, dmat.T))
    to_seq, from_seq = candidate_distances(seq, default_candidates(seq))
    left_d, right_d = (float(m[:, cap:].max(axis=1).min()) for m in (to_seq, from_seq))
    return {"left_d": left_d, "left_K": left, "right_d": right_d, "right_K": right,
            "d_s": max(left, right)}


def _skew(x, y):  # an untagged quasi-metric: the generic kernel on an interval
    return max(x - y, 0.0) + 0.5 * max(y - x, 0.0)


def _spaces_for(kind, seed):
    if kind in ("finite_t0", "finite_non_t0"):
        rng = np.random.default_rng(seed)
        return random_finite_space(rng, int(rng.integers(1, 7)), t0=kind == "finite_t0")
    if kind == "skew":
        return interval_space(0.0, 1.0, _skew, name="skew")
    if kind == "skew_vectorized":
        cross = lambda a, b: (np.maximum(a[:, None] - b[None, :], 0.0)
                              + 0.5 * np.maximum(b[None, :] - a[:, None], 0.0))
        return interval_space(0.0, 1.0, _skew, name="skew", cross_fn=cross)
    space = catalog.get_space(kind.removesuffix("_conj"), lo=0.0, hi=1.0)
    return space.conjugate() if kind.endswith("_conj") else space


# float pool with inexact differences (0.3 - 0.1 != 0.2) and exact ones
_POOL = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 0.5, 0.25, 1 / 3, 0.1 + 0.2)


@st.composite
def _windows(draw):
    kind = draw(st.sampled_from((
        "finite_t0", "finite_non_t0", "upper_interval", "lower_interval",
        "upper_interval_conj", "lower_interval_conj", "skew", "skew_vectorized",
    )))
    space = _spaces_for(kind, draw(st.integers(0, 2**32 - 1)))
    if space.is_finite:
        pool = space.points()
    else:
        extra = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        pool = list(_POOL[: draw(st.integers(1, len(_POOL)))]) + extra
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=40))
    return SequenceWindow(tuple(pool[i] for i in picks), space), pool


@given(_windows(), st.data())
@settings(max_examples=300, deadline=None)
def test_kernels_match_the_matrix_path(drawn, data):
    seq, pool = drawn
    dmat = distance_matrix(seq)
    # epsilons from the window's own distances, so that ties are hit
    own = sorted({float(v) for v in dmat.ravel() if v > 0}) or [0.1]
    eps = data.draw(st.sampled_from(own) | st.sampled_from((0.05, 0.1, 0.5)))
    lists = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    candidates = data.draw(st.none() | lists | lists.map(lambda c: c + list(seq.points)))

    want = matrix_classify(seq, eps, candidates)
    unique = len(set(seq.points))
    n_cands = len(default_candidates(seq) if candidates is None else candidates)
    cells = []
    cross = QPSpace.cross
    with pytest.MonkeyPatch.context() as mp:
        counted = lambda s, a, b: cells.append(len(a) * len(b)) or cross(s, a, b)
        mp.setattr(QPSpace, "cross", counted)
        got = classify_cauchy(SequenceWindow(seq.points, seq.space), eps, candidates)
    assert got.as_dict() == want.as_dict()
    # no N x N matrix: the signed kernel needs no cross call at all
    assert max(cells, default=0) <= max(unique, n_cands) * len(seq)
    for mode in ("left", "right", "symmetric"):
        assert detect_limit(seq, pool, mode, eps) == matrix_detect_limit(seq, pool, mode, eps)


FLAGS = ("left_d", "left_K", "right_d", "right_K", "d_s")


@given(_windows(), st.data())
@settings(max_examples=300, deadline=None)
def test_each_flag_holds_exactly_above_its_critical_epsilon(drawn, data):
    seq, _ = drawn
    for window in (seq, SequenceWindow(seq.points, seq.space.conjugate())):
        moduli = cauchy_moduli(window)
        assert dict(moduli) == matrix_moduli(window)
        # epsilons from the window's own distances, the critical values among
        # them, so that ties are hit
        own = sorted({float(v) for v in distance_matrix(window).ravel() if v > 0})
        eps = data.draw(st.sampled_from(own or [0.1]) | st.sampled_from((0.05, 0.1, 0.5)))
        verdict = classify_cauchy(window, eps)
        for name in FLAGS:
            assert verdict.flag(name).holds == (eps > moduli[name])
    with pytest.raises(TypeError):
        moduli["left_K"] = 0.0  # a read-only view


def _classify_and_watch(seq):
    """Weak references to a classified window, its profile and every array
    of its critical-epsilon cache, once the window itself is dropped."""
    classify_ladder(seq)
    detect_limit(seq, default_candidates(seq), "symmetric")
    cauchy_moduli(seq)
    rows, _ = seq._default_rows
    arrays = [a for _, prefix, suffix in seq._k_moduli.values() for a in (prefix, suffix)]
    arrays += list(rows) if isinstance(rows, tuple) else [rows]
    return [weakref.ref(o) for o in (seq, seq._profile, *arrays)]


def test_a_classified_window_is_freed_by_reference_counting(unit_space):
    # a cache pointing back at its window would make a cycle that only the
    # cyclic collector frees, and windows would pile up between collections
    rng = np.random.default_rng(3)
    finite = random_finite_space(rng, 5)
    windows = (lambda: SequenceWindow(tuple(rng.uniform(0.0, 1.0, 60).tolist()), unit_space),
               lambda: SequenceWindow(tuple(rng.integers(0, 5, 60).tolist()), finite))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in windows:
            refs = _classify_and_watch(make())
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_signed_starts_are_exact_where_the_float_guess_misses():
    # fl(0.7 - 0.1) = 0.6, yet d(0.7, 0.6) = fl(0.7 - 0.6) < 0.1: the float
    # bound overshoots; with one ulp more on 0.3, it undershoots instead
    c = 0.1 + 0.2
    cases = [
        ("upper_interval", (0.6,) * 5 + (0.7,) * 3, 0.7, 0.1, 0),
        ("lower_interval", (0.7,) * 5 + (0.6,) * 3, 0.6, 0.1, 0),
        ("upper_interval", (0.10000000000000005,) * 2 + (c,) * 6, c, 0.2, 2),
    ]
    for space_id, pts, cand, eps, start in cases:
        seq = SequenceWindow(pts, catalog.get_space(space_id))
        assert detect_limit(seq, [cand], "left", eps) == (cand, start)
        assert matrix_detect_limit(seq, [cand], "left", eps) == (cand, start)
        conj = SequenceWindow(pts, seq.space.conjugate())
        assert detect_limit(conj, [cand], "right", eps) == (cand, start)


def _inv_seq():
    space = catalog.get_space("upper_interval", lo=0.0, hi=2.0)
    pts = tuple(1.0 / k for k in range(1, 1001))
    return SequenceWindow(pts, space)


def test_reciprocal_sequence_left_k():
    seq = _inv_seq()
    verdict = classify_cauchy(seq, 0.01)
    assert verdict.left_K.holds
    expected = brute_k_start(seq.points, seq.space.dist, 0.01, len(seq) // 2)
    assert verdict.n0 == expected == 90
    assert verdict.left_d.holds and verdict.d_s.holds and verdict.right_K.holds


def test_oscillation_fails_left_k():
    space = catalog.get_space("upper_interval", lo=-1.0, hi=1.0)
    pts = tuple(float((-1) ** k) for k in range(40))
    verdict = classify_cauchy(SequenceWindow(pts, space), 1.0)
    assert not verdict.left_K.holds
    k, n = verdict.left_K.witness
    assert space.dist(pts[k], pts[n]) >= 1.0
    assert not verdict.d_s.holds


def test_constant_sequence_holds_everything(unit_space):
    pts = (0.4,) * 10
    for eps in (1.0, 0.1, 1e-9):
        verdict = classify_cauchy(SequenceWindow(pts, unit_space), eps)
        for flag in ("left_d", "left_K", "right_d", "right_K", "d_s"):
            assert verdict.flag(flag).holds
        assert verdict.n0 == 0


def test_classifier_matches_brute_force_on_random_windows():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_pts = int(rng.integers(2, 7))
        space = random_finite_space(rng, n_pts, t0=bool(rng.integers(0, 2)))
        length = int(rng.integers(4, 30))
        pts = tuple(int(v) for v in rng.integers(0, n_pts, size=length))
        seq = SequenceWindow(pts, space)
        cap = length // 2
        for eps in (0.1, 0.6, 1.1):
            verdict = classify_cauchy(seq, eps)
            d = space.dist
            assert verdict.left_K.holds == (brute_k_start(pts, d, eps, cap) is not None)
            rd = lambda a, b: d(b, a)
            assert verdict.right_K.holds == (brute_k_start(pts, rd, eps, cap) is not None)
            ds = space.sup_dist
            assert verdict.d_s.holds == (brute_k_start(pts, ds, eps, cap) is not None)
            cands = list(pts) + space.points()
            assert verdict.left_d.holds == (
                brute_d_start(pts, cands, d, eps, cap) is not None
            )
            assert verdict.right_d.holds == (
                brute_d_start(pts, cands, rd, eps, cap) is not None
            )
            # the minimal starts: n0 is the left-K start, and the conjugate
            # window's n0 the right-K start
            assert verdict.n0 == brute_k_start(pts, d, eps, cap)
            conj = classify_cauchy(SequenceWindow(pts, space.conjugate()), eps)
            assert conj.n0 == brute_k_start(pts, rd, eps, cap)
            # every failing flag refutes with the first row-major violation
            uniq = list(dict.fromkeys(cands))  # the default candidates, in order
            for name, dist in (("left_K", d), ("right_K", rd), ("d_s", ds)):
                flag = verdict.flag(name)
                want = None if flag.holds else brute_k_witness(pts, dist, eps, cap)
                assert flag.witness == want
            for name, dist in (("left_d", d), ("right_d", rd)):
                flag = verdict.flag(name)
                want = None if flag.holds else brute_d_witness(pts, uniq, dist, eps, cap)
                assert flag.witness == want
            # the kernel's d starts, minimised over candidate rows
            to_seq, from_seq = candidate_distances(seq, uniq)
            for rows, dist in ((to_seq, d), (from_seq, rd)):
                start = int(_tail_starts(rows >= eps).min())
                want = brute_d_start(pts, uniq, dist, eps, cap)
                assert (start if start <= cap else None) == want
            # detect_limit in all three modes against a per-candidate loop
            for mode, dist in (("left", d), ("right", rd), ("symmetric", ds)):
                got = detect_limit(seq, space.points(), mode=mode, tol=eps)
                assert got == brute_limit(pts, space.points(), dist, eps, cap)


def test_classify_argument_errors(unit_space):
    seq = SequenceWindow((0.1, 0.2, 0.3), unit_space)
    with pytest.raises(ValueError):
        classify_cauchy(seq, 0.0)
    with pytest.raises(ValueError):
        classify_cauchy(SequenceWindow((0.1,), unit_space), 0.1)
    with pytest.raises(ValueError, match="horizon of at least 2"):
        cauchy_moduli(SequenceWindow((0.1,), unit_space))


@pytest.mark.parametrize("window", [
    SequenceWindow((0.1, 0.2, 0.3), catalog.get_space("upper_interval", lo=0.0, hi=1.0)),
    SequenceWindow((0, 1, 0, 1), finite_space([[0, 1], [1, 0]])),
])
def test_an_empty_candidate_list_is_rejected(window):
    # numpy's "zero-size array to reduction operation" once escaped here
    with pytest.raises(ValueError, match="candidate list must be nonempty"):
        classify_cauchy(window, 0.1, candidates=[])
    with pytest.raises(ValueError, match="candidate list must be nonempty"):
        classify_ladder(window, candidates=[])
    with pytest.raises(ValueError, match="candidate list must be nonempty"):
        detect_limit(window, [])
    assert classify_cauchy(window, 0.1).horizon == len(window)  # the default candidates


def test_nan_or_non_positive_epsilon_is_rejected():
    # on an oscillating window a NaN epsilon once made every flag hold, n0 = 0
    space = catalog.get_space("upper_interval", lo=-1.0, hi=1.0)
    seq = SequenceWindow(tuple(float((-1) ** k) for k in range(40)), space)
    for eps in (float("nan"), 0.0, -0.5, float("-inf")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            classify_cauchy(seq, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            classify_ladder(seq, (0.1, eps))


def test_nan_or_non_positive_tol_is_rejected(unit_space):
    # alternating 0.6/0.4 settles on no limit; a NaN tol once found 0.5 at 0
    seq = SequenceWindow((0.6, 0.4) * 10, unit_space)
    for mode in ("left", "right", "symmetric"):
        assert detect_limit(seq, [0.5], mode, tol=0.05) is None
        for tol in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                detect_limit(seq, [0.5], mode, tol=tol)


def test_explicit_candidates_without_the_window_points_are_not_a_bug(unit_space):
    # left_K holds on a constant window, but the only candidate 1.0 is no
    # left-d limit of it: K implies d only through the window's own points
    verdict = classify_cauchy(SequenceWindow((0.5,) * 4, unit_space), 0.1, candidates=[1.0])
    assert verdict.left_K.holds and verdict.right_K.holds and verdict.d_s.holds
    assert not verdict.left_d.holds and verdict.left_d.witness == (0, 2)
    assert verdict.right_d.holds
    assert not verdict.covered and "covered" not in verdict.as_dict()
    # nor is it a chain inconsistency, on either side of the pair
    conj = classify_cauchy(SequenceWindow((0.5,) * 4, unit_space.conjugate()), 0.1, [1.0])
    assert not conj.right_d.holds
    assert check_implication_chain(verdict, conj).passed
    # with the window point among the candidates, K => d is checked again
    covered = classify_cauchy(SequenceWindow((0.5,) * 4, unit_space), 0.1, [1.0, 0.5])
    assert covered.covered and covered.left_d.holds


def test_d_s_implies_k_is_checked_for_any_candidates(unit_space, monkeypatch):
    def planted(seq, notion, epsilon, cap):  # d_s holds, the K flags fail
        return CauchyFlag(True) if notion == "d_s" else CauchyFlag(False, (0, 0))

    monkeypatch.setattr(sequences, "_k_flag", planted)
    seq = SequenceWindow((0.5,) * 4, unit_space)
    for candidates in (None, [1.0], [0.5, 1.0]):
        with pytest.raises(RuntimeError, match="d_s holds but left_K fails"):
            classify_cauchy(seq, 0.1, candidates=candidates)


def test_interval_window_is_validated_in_one_pass(unit_space, monkeypatch):
    calls = []
    require = QPSpace.require
    monkeypatch.setattr(QPSpace, "require", lambda s, x: calls.append(x) or require(s, x))
    SequenceWindow(tuple(np.linspace(0.0, 1.0 + 1e-10, 50)), unit_space)
    assert calls == []
    # a rejected window goes point by point, so the error names the first bad point
    for bad, shown in ((float("nan"), "nan"), (1.5, "1.5"), ("x", "'x'"), (None, "None")):
        with pytest.raises(DomainError, match=f"point {shown} is not in the carrier"):
            SequenceWindow((0.2, bad, 2.0), unit_space)
    with pytest.raises(DomainError, match=r"point \(0.5,\) is not"):
        SequenceWindow((0.2, (0.5,)), unit_space)
    # 2e-9 below the carrier: compared in float32, the bound would round down to it
    f = np.float32(0.3)
    above_f = catalog.get_space("upper_interval", lo=float(f) + 2e-9, hi=1.0)
    with pytest.raises(DomainError, match="is not in the carrier"):
        SequenceWindow((np.float32(0.5), f), above_f)
    finite = finite_space([[0, 1], [1, 0]])
    with pytest.raises(DomainError, match=r"point \(0, 1\) is not"):
        SequenceWindow(((0, 1), (1, 0)), finite)  # index pairs, not indices


def test_finite_window_rejects_bools():
    # numpy reads (True, 1, 0) as an int64 array, but True is no carrier point
    two = finite_space([[0, 1], [1, 0]])
    with pytest.raises(DomainError, match="point True is not in the carrier"):
        SequenceWindow((True, 1, 0), two)
    with pytest.raises(DomainError, match="point False is not in the carrier"):
        SequenceWindow((1, np.int64(0), False), two)


def test_ladder_takes_candidates_once(unit_space):
    seq = SequenceWindow((0.5, 0.4, 0.5, 0.5), unit_space)
    want = classify_ladder(seq, (0.1, 0.01), candidates=[0.5])
    assert classify_ladder(seq, (0.1, 0.01), candidates=(c for c in [0.5])) == want


def test_epsilon_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_pts = int(rng.integers(2, 6))
        space = random_finite_space(rng, n_pts)
        pts = tuple(int(v) for v in rng.integers(0, n_pts, size=20))
        seq = SequenceWindow(pts, space)
        for flag in ("left_d", "left_K", "right_d", "right_K", "d_s"):
            held = False
            for eps in (0.1, 0.3, 0.9, 2.7):
                now = classify_cauchy(seq, eps).flag(flag).holds
                assert now or not held  # once it holds, larger eps keep it
                held = held or now


def test_detect_limit_reciprocal():
    seq = _inv_seq()
    assert detect_limit(seq, [0.0], mode="left", tol=0.01) == (0.0, 0)
    cand, tail = detect_limit(seq, [0.0], mode="right", tol=0.01)
    assert cand == 0.0
    # independent scan: first index from which 1/(i+1) < tol for all later ones
    expected = max(i for i, p in enumerate(seq.points) if p >= 0.01) + 1
    assert tail == expected == 100


def test_detect_limit_none_for_oscillation():
    space = catalog.get_space("upper_interval", lo=-1.0, hi=1.0)
    pts = tuple(float((-1) ** k) for k in range(40))
    seq = SequenceWindow(pts, space)
    for mode in ("left", "right", "symmetric"):
        assert detect_limit(seq, [0.0], mode=mode, tol=0.5) is None


def test_detect_limit_candidate_order_is_deterministic(unit_space):
    pts = (0.5,) * 8
    seq = SequenceWindow(pts, unit_space)
    # 0.25 already qualifies in left mode (d(0.25, 0.5) = 0), so it wins
    assert detect_limit(seq, [0.25, 0.5], mode="left", tol=1e-9) == (0.25, 0)
    assert detect_limit(seq, [0.5, 0.25], mode="symmetric", tol=1e-9) == (0.5, 0)


def test_chain_checker_on_fuzzed_verdict_pairs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n_pts = int(rng.integers(2, 7))
        space = random_finite_space(rng, n_pts, t0=bool(rng.integers(0, 2)))
        pts = tuple(int(v) for v in rng.integers(0, n_pts, size=24))
        seq = SequenceWindow(pts, space)
        conj_seq = SequenceWindow(pts, space.conjugate())
        for eps in (0.1, 0.5):
            v = classify_cauchy(seq, eps)
            cv = classify_cauchy(conj_seq, eps)
            assert check_implication_chain(v, cv).passed


def test_chain_checker_catches_planted_violation():
    holds = CauchyFlag(True)
    fails = CauchyFlag(False, witness=(0, 1))
    bad = CauchyVerdict(
        left_d=fails, left_K=holds, right_d=holds, right_K=holds, d_s=holds,
        epsilon=0.1, horizon=10, n0=0,
    )
    ok = CauchyVerdict(
        left_d=holds, left_K=holds, right_d=holds, right_K=holds, d_s=holds,
        epsilon=0.1, horizon=10, n0=0,
    )
    report = check_implication_chain(bad, ok)
    assert not report.passed
    assert any("left_K holds but left_d fails" in s for s in report.inconsistencies)
    # the duality direction is also flagged
    assert any("duality" in s for s in report.inconsistencies)


def test_chain_checker_rejects_mismatched_pairs():
    holds = CauchyFlag(True)
    v1 = CauchyVerdict(holds, holds, holds, holds, holds, 0.1, 10, 0)
    v2 = CauchyVerdict(holds, holds, holds, holds, holds, 0.1, 12, 0)
    v3 = CauchyVerdict(holds, holds, holds, holds, holds, 0.2, 10, 0)
    with pytest.raises(ValueError):
        check_implication_chain(v1, v2)
    with pytest.raises(ValueError):
        check_implication_chain(v1, v3)


def test_ladder_report_is_json_able():
    seq = _inv_seq()
    report = classify_ladder(seq)
    assert set(report) == {"0.1", "0.01", "0.001"}
    assert report["0.1"]["left_K"]["holds"]
    assert report["0.01"]["n0"] == 90
    # verdicts serialize with witness pairs on failing flags
    space = catalog.get_space("upper_interval", lo=-1.0, hi=1.0)
    osc = SequenceWindow(tuple(float((-1) ** k) for k in range(40)), space)
    payload = classify_cauchy(osc, 1.0).as_dict()
    assert payload["left_K"]["holds"] is False
    assert len(payload["left_K"]["witness"]) == 2


def test_symmetric_limits_unique_on_t0():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n_pts = int(rng.integers(2, 6))
        space = random_finite_space(rng, n_pts, t0=True)
        tail_pt = int(rng.integers(0, n_pts))
        pts = tuple(int(v) for v in rng.integers(0, n_pts, size=5)) + (tail_pt,) * 10
        seq = SequenceWindow(pts, space)
        hits = [
            c for c in space.points()
            if detect_limit(seq, [c], mode="symmetric", tol=1e-9) is not None
        ]
        assert hits == [tail_pt]
