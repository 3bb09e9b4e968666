import numpy as np
import pytest

from qpfix import catalog, sequences
from qpfix.oracle import random_finite_space
from qpfix.spaces import DomainError, QPSpace, finite_space
from qpfix.sequences import (
    CauchyFlag,
    CauchyVerdict,
    SequenceWindow,
    _tail_starts,
    check_implication_chain,
    classify_cauchy,
    classify_ladder,
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
            to_seq, from_seq = seq.candidate_distances(uniq)
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


def test_explicit_candidates_without_the_window_points_are_not_a_bug(unit_space):
    # left_K holds on a constant window, but the only candidate 1.0 is no
    # left-d limit of it: K implies d only through the window's own points
    verdict = classify_cauchy(SequenceWindow((0.5,) * 4, unit_space), 0.1, candidates=[1.0])
    assert verdict.left_K.holds and verdict.right_K.holds and verdict.d_s.holds
    assert not verdict.left_d.holds and verdict.left_d.witness == (0, 2)
    assert verdict.right_d.holds


def test_d_s_implies_k_is_checked_for_any_candidates(unit_space, monkeypatch):
    def planted(seq, notion, epsilon, cap):  # d_s holds, the K flags fail
        return (CauchyFlag(True), 0) if notion == "d_s" else (CauchyFlag(False, (0, 0)), None)

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
