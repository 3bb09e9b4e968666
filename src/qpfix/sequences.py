"""Finite-horizon Cauchy classification and limit detection.

Asymmetric distances split the classical Cauchy property into several
inequivalent notions (left/right, d-style with a limit point vs K-style
over index pairs, plus the symmetrized one).  All checks here are
operational: a window of N points is scanned exhaustively, with the
start index n0 capped at N//2 so a tiny tail cannot produce a vacuous
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .spaces import _CONTAINS_EPS, Point, QPSpace


@dataclass(frozen=True)
class SequenceWindow:
    points: tuple
    space: QPSpace

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("sequence window must be nonempty")
        if not self._in_carrier_at_once():
            for p in self.points:  # names the first point outside the carrier
                self.space.require(p)

    def _in_carrier_at_once(self) -> bool:
        """One array test that passes windows of in-range integer indices
        (finite) or of finite in-range floats (interval, with the carrier's
        rounding grace); False sends the window through the per-point check."""
        try:
            arr = np.asarray(self.points)
        except (TypeError, ValueError):  # ragged or unconvertible points
            return False
        if arr.ndim != 1:
            return False
        carrier = self.space.carrier
        if self.space.is_finite:
            return arr.dtype.kind == "i" and bool(((arr >= 0) & (arr < carrier.size)).all())
        if arr.dtype.kind != "f":
            return False
        arr = arr.astype(np.float64, copy=False)  # compare as contains() does, in float
        return bool(((arr >= carrier.lo - _CONTAINS_EPS) & (arr <= carrier.hi + _CONTAINS_EPS)).all())

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _dmat(self) -> np.ndarray:
        return self.space.pairwise(list(self.points))

    def distance_matrix(self) -> np.ndarray:
        """Pairwise d(x_k, x_n) over the window, memoized."""
        return self._dmat

    def candidate_distances(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """(d(c, x_n), d(x_n, c)) matrices for a candidate list."""
        pts = list(self.points)
        to_seq = self.space.cross(candidates, pts)
        from_seq = self.space.cross(pts, candidates).T
        return to_seq, from_seq

    @cached_property
    def _default_candidate_distances(self) -> tuple[np.ndarray, np.ndarray]:
        return self.candidate_distances(default_candidates(self))

    @cached_property
    def _k_profile(self) -> dict:
        """Per K notion, worst[k]: the largest distance of row k from n = k
        on.  A start n0 works iff worst[k] < epsilon for every k >= n0, so
        this is all the epsilon-free work of the K flags."""
        dmat = self._dmat
        idx = np.arange(len(self))
        upper = idx[None, :] >= idx[:, None]
        left = np.where(upper, dmat, -np.inf).max(axis=1)
        right = np.where(upper, dmat.T, -np.inf).max(axis=1)
        return {"left_K": left, "right_K": right, "d_s": np.maximum(left, right)}


@dataclass(frozen=True)
class CauchyFlag:
    holds: bool
    # Index-pair witness of failure: (k, n) for K-style flags,
    # (candidate index, n) for d-style flags.  None when the flag holds.
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class CauchyVerdict:
    left_d: CauchyFlag
    left_K: CauchyFlag
    right_d: CauchyFlag
    right_K: CauchyFlag
    d_s: CauchyFlag
    epsilon: float
    horizon: int
    n0: Optional[int]  # minimal start index witnessing left_K, when it holds

    def flag(self, name: str) -> CauchyFlag:
        return getattr(self, name)

    def as_dict(self) -> dict:
        out = {"epsilon": self.epsilon, "horizon": self.horizon, "n0": self.n0}
        for name in ("left_d", "left_K", "right_d", "right_K", "d_s"):
            f = self.flag(name)
            out[name] = {
                "holds": f.holds,
                "witness": None if f.witness is None else list(f.witness),
            }
        return out


def _tail_starts(bad: np.ndarray) -> np.ndarray:
    """Per row of a boolean array, one past its last True (0 if none):
    the smallest start from which the row stays good."""
    n = bad.shape[-1]
    return np.where(bad.any(axis=-1), n - np.argmax(bad[..., ::-1], axis=-1), 0)


def _k_flag(seq: SequenceWindow, notion: str, epsilon: float, cap: int):
    """(flag, minimal start or None).  A failing flag's witness is the first
    row-major violation (k, n) with k >= cap, which refutes every start."""
    bad = seq._k_profile[notion] >= epsilon
    n0 = int(_tail_starts(bad))
    if n0 <= cap:
        return CauchyFlag(True), n0
    k = cap + int(np.argmax(bad[cap:]))
    # row k of the notion's matrix from n = k on, read only for the witness
    rows = {"left_K": seq._dmat[k, k:], "right_K": seq._dmat[k:, k]}
    rows["d_s"] = np.maximum(rows["left_K"], rows["right_K"])
    n = k + int(np.argmax(rows[notion] >= epsilon))
    return CauchyFlag(False, (k, n)), None


def _d_flag(cand_dists: np.ndarray, epsilon: float, cap: int) -> CauchyFlag:
    """Does some candidate row (shape (candidates, N)) stay under epsilon
    from a start <= cap on?  A failing flag's witness is the first best
    candidate with its first violation at or past the cap."""
    bad = cand_dists >= epsilon
    starts = _tail_starts(bad)
    best = int(np.argmin(starts))
    if starts[best] <= cap:
        return CauchyFlag(True)
    return CauchyFlag(False, (best, cap + int(np.argmax(bad[best, cap:]))))


def default_candidates(seq: SequenceWindow) -> list[Point]:
    """Candidate limits: the window's own points, plus the whole carrier
    (finite) or the default grid (interval).  Including the window points
    is what makes the K-style flags imply the d-style flags at any
    horizon.  Duplicates are dropped (they contribute identical rows)."""
    extra = seq.space.points() if seq.space.is_finite else seq.space.grid()
    return list(dict.fromkeys(list(seq.points) + list(extra)))


def classify_cauchy(
    seq: SequenceWindow,
    epsilon: float,
    candidates: Optional[Sequence[Point]] = None,
) -> CauchyVerdict:
    """Classify a window against the five Cauchy notions at one epsilon.

    Failing flags carry a refuting witness valid for every admissible
    start index.  The verdict's n0 is the minimal left-K start.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(seq) < 2:
        raise ValueError("classification needs a horizon of at least 2")
    n = len(seq)
    cap = n // 2
    if candidates is not None:
        candidates = list(candidates)
        to_seq, from_seq = seq.candidate_distances(candidates)
    else:
        to_seq, from_seq = seq._default_candidate_distances
    (left_K, n0), (right_K, _), (d_s, _) = (
        _k_flag(seq, notion, epsilon, cap) for notion in ("left_K", "right_K", "d_s")
    )
    verdict = CauchyVerdict(
        left_d=_d_flag(to_seq, epsilon, cap),
        left_K=left_K,
        right_d=_d_flag(from_seq, epsilon, cap),
        right_K=right_K,
        d_s=d_s,
        epsilon=float(epsilon),
        horizon=n,
        n0=n0,
    )
    # K implies d only through the window's own points as candidate limits
    covered = candidates is None or set(seq.points).issubset(candidates)
    broken = _broken_implications(verdict, IMPLICATIONS if covered else IMPLICATIONS[:2])
    if broken:
        # Structural guarantee of the scan; a failure here is a classifier bug.
        raise RuntimeError(f"classifier inconsistency: {broken[0]}")
    return verdict


# (stronger, weaker): the first flag implies the second, d_s => K on any
# window, K => d when the window's points are among the candidates
IMPLICATIONS = (
    ("d_s", "left_K"),
    ("d_s", "right_K"),
    ("left_K", "left_d"),
    ("right_K", "right_d"),
)


def _broken_implications(v: CauchyVerdict, implications=IMPLICATIONS) -> list[str]:
    return [
        f"{a} holds but {b} fails"
        for a, b in implications
        if v.flag(a).holds and not v.flag(b).holds
    ]


EPSILON_LADDER = (0.1, 0.01, 0.001)


def classify_ladder(
    seq: SequenceWindow,
    epsilons: Sequence[float] = EPSILON_LADDER,
    candidates: Optional[Sequence[Point]] = None,
) -> dict:
    """Classification across a ladder of scales, as one JSON-able report.

    Shows how stable the verdict is as epsilon tightens.
    """
    return {
        repr(float(eps)): classify_cauchy(seq, eps, candidates).as_dict()
        for eps in epsilons
    }


def detect_limit(
    seq: SequenceWindow,
    candidates: Sequence[Point],
    mode: str = "left",
    tol: float = 1e-9,
) -> Optional[tuple[Point, int]]:
    """First candidate that the window settles on, with the smallest
    tail index from which every distance stays under tol.

    "left" measures d(candidate, x_n), "right" d(x_n, candidate),
    "symmetric" the max of both.  As in :func:`classify_cauchy`, the
    tail must start by the window's midpoint, so a last-moment dip
    cannot qualify; None when no candidate qualifies.
    """
    if mode not in ("left", "right", "symmetric"):
        raise ValueError(f"unknown limit mode {mode!r}")
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate list must be nonempty")
    pts = list(seq.points)
    cap = len(pts) // 2
    if mode == "left":
        dm = seq.space.cross(cands, pts)
    elif mode == "right":
        dm = seq.space.cross(pts, cands).T
    else:
        dm = np.maximum(*seq.candidate_distances(cands))
    starts = _tail_starts(dm >= tol)
    ok = starts <= cap
    if not ok.any():
        return None
    ci = int(np.argmax(ok))
    return cands[ci], int(starts[ci])


@dataclass
class ChainReport:
    inconsistencies: list

    @property
    def passed(self) -> bool:
        return not self.inconsistencies

    def as_dict(self) -> dict:
        return {"passed": self.passed, "inconsistencies": list(self.inconsistencies)}


def check_implication_chain(
    verdict: CauchyVerdict, conjugate_verdict: CauchyVerdict
) -> ChainReport:
    """Cross-check a verdict pair computed from one sequence, the second
    on the conjugate space.

    Within each verdict the symmetrized flag must imply the K flags and
    each K flag its d flag; across the pair, left and right notions must
    swap roles exactly.  Any inconsistency is a classifier bug.
    """
    if verdict.horizon != conjugate_verdict.horizon:
        raise ValueError("verdict pair has mismatched horizons")
    if verdict.epsilon != conjugate_verdict.epsilon:
        raise ValueError("verdict pair has mismatched epsilons")
    out = [f"base: {s}" for s in _broken_implications(verdict)]
    out += [f"conjugate: {s}" for s in _broken_implications(conjugate_verdict)]

    duals = [
        ("left_K", "right_K"),
        ("right_K", "left_K"),
        ("left_d", "right_d"),
        ("right_d", "left_d"),
        ("d_s", "d_s"),
    ]
    for here, there in duals:
        if verdict.flag(here).holds != conjugate_verdict.flag(there).holds:
            out.append(f"duality broken: {here}(d) != {there}(d^-1)")
    return ChainReport(out)
