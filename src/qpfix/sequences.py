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
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .spaces import Point, QPSpace, Report


@dataclass(frozen=True)
class SequenceWindow:
    points: tuple
    space: QPSpace

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("sequence window must be nonempty")
        self.space.require_all(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _profile(self):
        """The epsilon-free work of the Cauchy flags, memoized."""
        return (_DistinctProfile if self.space.sign is None else _SignedProfile)(self)

    @cached_property
    def _k_moduli(self) -> dict:
        """Per K notion, from the profile's worst[k] (the largest distance of
        row k from n = k on): the critical epsilon max(worst[cap:]), the prefix
        maxima of worst[cap:] (a failing flag's k) and the ascending suffix
        maxima of worst (n0, one past the last worst[k] >= epsilon).  Nothing
        here refers back to the window: reference counting alone frees it."""
        cap = len(self) // 2
        return {notion: (float(w[cap:].max()), np.maximum.accumulate(w[cap:]),
                         np.maximum.accumulate(w[::-1]))
                for notion, w in self._profile.k.items()}

    @cached_property
    def _default_rows(self) -> tuple:
        """The default candidates' rows and the critical epsilons of the d flags."""
        rows = self._profile.rows(default_candidates(self))
        return rows, self._profile.d_moduli(rows, len(self) // 2)


class _DistinctProfile:
    """Kernels over the window's U distinct points, placed in time by their
    last occurrences: O(U^2 + N) for the U x U matrix and K profiles, then
    O(C * U) per candidate list."""

    def __init__(self, seq: SequenceWindow):
        last = {}
        for k, p in enumerate(seq.points):
            last[p] = k  # keys stay in first-seen order
        self.space, self.uniq = seq.space, list(last)
        rank = {p: u for u, p in enumerate(last)}
        self.at = np.array([rank[p] for p in seq.points])  # x_k is uniq[at[k]]
        self.tail = np.fromiter(last.values(), dtype=int, count=len(last)) + 1
        # tail[u] is one past u's last occurrence; latest first, the points
        # seen at some n >= k are the first seen[k], where worst[k] looks
        desc = np.argsort(-self.tail)
        seen = len(desc) - np.searchsorted(np.sort(self.tail), np.arange(len(self.at)), "right")
        dmat = self.space.pairwise(self.uniq)
        self.own = dmat, dmat.T  # the distinct points' own rows, as candidates
        worst = lambda m: np.maximum.accumulate(m[:, desc], axis=1)[self.at, seen - 1]
        left, right = map(worst, self.own)
        self.k = {"left_K": left, "right_K": right, "d_s": np.maximum(left, right)}

    def rows(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """Per side, d(c, u) and d(u, c) over the distinct points u."""
        return self.space.cross(candidates, self.uniq), self.space.cross(self.uniq, candidates).T

    def d_moduli(self, rows, cap: int) -> tuple[float, ...]:
        """Per side, the least over candidates of the largest distance from cap on."""
        return tuple(float(r[:, self.tail > cap].max(axis=1).min()) for r in rows)

    def starts(self, rows, side: int, epsilon: float) -> np.ndarray:
        """Per candidate, the first start from which its distances on the side
        stay under epsilon: one past the last bad occurrence."""
        return np.where(rows[side] >= epsilon, self.tail, 0).max(axis=1)

    def row(self, rows, c: int, side: int, start: int) -> np.ndarray:
        """Candidate c's distances on the side to x_n for n >= start."""
        return rows[side][c, self.at[start:]]


class _SignedProfile:
    """Kernels for d(x, y) = max(sign * (x - y), 0).  Float subtraction is
    monotone in each argument, so the farthest point of a tail x[t:] is its
    minimum or maximum, and each value compared is one the full matrix
    holds: O(N) K profiles, O(log N) steps per candidate start."""

    def __init__(self, seq: SequenceWindow):
        self.own = np.asarray(seq.points, dtype=float)  # x, the points as candidate values
        self.at = range(len(self.own))
        # per side, max(s * c - ext[t], 0) is the largest distance from c to x[t:], for ext
        # the suffix minima of s * x (hi - c is exactly -c - (-hi)) and +inf at t = N
        suffix_min = lambda v: np.append(np.minimum.accumulate(v[::-1])[::-1], np.inf)
        forms = tuple((s, suffix_min(s * self.own)) for s in (1, -1))
        self.forms = forms[::-1] if seq.space.sign < 0 else forms  # lower swaps them
        left, right = (np.maximum(s * self.own - ext[:-1], 0.0) for s, ext in self.forms)
        self.k = {"left_K": left, "right_K": right, "d_s": np.maximum(left, right)}

    rows = staticmethod(lambda candidates: np.asarray(candidates, dtype=float))

    def d_moduli(self, c: np.ndarray, cap: int) -> tuple[float, ...]:
        """Per side, the nearest candidate's largest distance from cap on."""
        return tuple(max(float((s * c).min() - ext[cap]), 0.0) for s, ext in self.forms)

    def starts(self, c: np.ndarray, side: int, epsilon: float) -> np.ndarray:
        return _signed_starts(self.forms[side][0] * c, self.forms[side][1], epsilon)

    def row(self, c: np.ndarray, i: int, side: int, start: int) -> np.ndarray:
        s = self.forms[side][0]  # s * (c - x) is exactly s * c - s * x
        return np.maximum(s * (c[i] - self.own[start:]), 0.0)


def _signed_starts(c: np.ndarray, lo: np.ndarray, epsilon: float) -> np.ndarray:
    """Per candidate, the first t with max(c - lo[t], 0) < epsilon, for lo
    nondecreasing with lo[-1] = inf (t = len(lo) - 1 if none).  A float
    search for the bound c - epsilon guesses each start; the guess is
    checked exactly and a miss is bisected."""
    good = lambda t: ~(np.maximum(c - lo[t], 0.0) >= epsilon)  # as the matrix compares
    guess = np.searchsorted(lo[:-1], c - epsilon, "right")
    ok, before = good(guess), (guess > 0) & good(guess - 1)
    low = np.where(ok, np.where(before, 0, guess), guess + 1)
    high = np.where(ok, guess, len(lo) - 1)
    while (low < high).any():
        mid = (low + high) // 2
        ok = good(mid)
        low, high = np.where(ok, low, mid + 1), np.where(ok, mid, high)
    return high


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
    # candidates held the window's points, so K implies d; not in as_dict
    covered: bool = True

    def flag(self, name: str) -> CauchyFlag:
        return getattr(self, name)

    def as_dict(self) -> dict:
        out = {"epsilon": self.epsilon, "horizon": self.horizon, "n0": self.n0}
        for name in ("left_d", "left_K", "right_d", "right_K", "d_s"):
            f = self.flag(name)
            out[name] = {"holds": f.holds, "witness": None if f.witness is None else list(f.witness)}
        return out


def _k_flag(seq: SequenceWindow, notion: str, epsilon: float, cap: int) -> CauchyFlag:
    """A failing flag's witness is the first row-major violation (k, n)
    with k >= cap, which refutes every start."""
    critical, prefix, _ = seq._k_moduli[notion]
    if epsilon > critical:
        return CauchyFlag(True)
    k = cap + int(np.searchsorted(prefix, epsilon))  # the first worst[k] >= epsilon
    sides = {"left_K": (0,), "right_K": (1,), "d_s": (0, 1)}[notion]
    p = seq._profile
    row = reduce(np.maximum, (p.row(p.own, p.at[k], side, k) for side in sides))
    return CauchyFlag(False, (k, k + int(np.argmax(row >= epsilon))))


def _d_flag(profile, rows, side: int, critical: float, epsilon: float, cap: int) -> CauchyFlag:
    """Does some candidate stay under epsilon from a start <= cap on?  side
    0 reads d(c, x_n), 1 d(x_n, c).  A failing flag's witness is the first
    best candidate with its first violation at or past the cap."""
    if epsilon > critical:
        return CauchyFlag(True)
    best = int(np.argmin(profile.starts(rows, side, epsilon)))
    row = profile.row(rows, best, side, cap)
    return CauchyFlag(False, (best, cap + int(np.argmax(row >= epsilon))))


def default_candidates(seq: SequenceWindow) -> list[Point]:
    """Candidate limits: the window's own points, plus the default grid
    (the whole carrier, when finite).  Including the window points is what
    makes the K-style flags imply the d-style flags at any horizon.
    Duplicates are dropped (they contribute identical rows)."""
    return list(dict.fromkeys(list(seq.points) + seq.space.grid()))


def cauchy_moduli(seq: SequenceWindow) -> Mapping[str, float]:
    """Per flag, with the default candidates, its critical epsilon: the
    flag holds at epsilon exactly when epsilon > the critical value.  A
    read-only view of what the window caches for :func:`classify_cauchy`."""
    if len(seq) < 2:
        raise ValueError("classification needs a horizon of at least 2")
    left_d, right_d = seq._default_rows[1]
    k = {notion: moduli[0] for notion, moduli in seq._k_moduli.items()}
    return MappingProxyType({"left_d": left_d, "right_d": right_d, **k})


def classify_cauchy(
    seq: SequenceWindow,
    epsilon: float,
    candidates: Optional[Sequence[Point]] = None,
) -> CauchyVerdict:
    """Classify a window against the five Cauchy notions at one epsilon.

    Failing flags carry a refuting witness valid for every admissible
    start index.  The verdict's n0 is the minimal left-K start.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    if len(seq) < 2:
        raise ValueError("classification needs a horizon of at least 2")
    n, cap, profile = len(seq), len(seq) // 2, seq._profile
    if candidates is None:
        (rows, d_moduli), covered = seq._default_rows, True
    else:
        candidates = list(candidates)
        if not candidates:
            raise ValueError("candidate list must be nonempty")
        rows, covered = profile.rows(candidates), set(seq.points).issubset(candidates)
        d_moduli = profile.d_moduli(rows, cap)
    left_d, right_d = (_d_flag(profile, rows, side, critical, epsilon, cap)
                       for side, critical in enumerate(d_moduli))
    left_K, right_K, d_s = (_k_flag(seq, notion, epsilon, cap)
                            for notion in ("left_K", "right_K", "d_s"))
    n0 = n - int(np.searchsorted(seq._k_moduli["left_K"][2], epsilon)) if left_K.holds else None
    verdict = CauchyVerdict(left_d, left_K, right_d, right_K, d_s, float(epsilon), n, n0, covered)
    broken = _broken_implications(verdict)
    if broken:
        # Structural guarantee of the scan; a failure here is a classifier bug.
        raise RuntimeError(f"classifier inconsistency: {broken[0]}")
    return verdict


# (stronger, weaker): the first flag implies the second, d_s => K on any
# window, K => d when the window's points are among the candidates
IMPLICATIONS = (("d_s", "left_K"), ("d_s", "right_K"), ("left_K", "left_d"), ("right_K", "right_d"))


def _broken_implications(v: CauchyVerdict) -> list[str]:
    # K implies d only through the window's own points as candidate limits
    implications = IMPLICATIONS if v.covered else IMPLICATIONS[:2]
    return [f"{a} holds but {b} fails" for a, b in implications
            if v.flag(a).holds and not v.flag(b).holds]


EPSILON_LADDER = (0.1, 0.01, 0.001)


def classify_ladder(
    seq: SequenceWindow,
    epsilons: Sequence[float] = EPSILON_LADDER,
    candidates: Optional[Sequence[Point]] = None,
) -> dict:
    """Classification across a ladder of scales, as one JSON-able report:
    how stable the verdict is as epsilon tightens."""
    candidates = None if candidates is None else list(candidates)  # once, for every rung
    return {repr(float(eps)): classify_cauchy(seq, eps, candidates).as_dict()
            for eps in epsilons}


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
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate list must be nonempty")
    cap, profile = len(seq) // 2, seq._profile
    rows, sides = profile.rows(cands), {"left": (0,), "right": (1,), "symmetric": (0, 1)}[mode]
    starts = reduce(np.maximum, (profile.starts(rows, side, tol) for side in sides))
    ok = starts <= cap
    if not ok.any():
        return None
    ci = int(np.argmax(ok))
    return cands[ci], int(starts[ci])


@dataclass
class ChainReport(Report):
    findings = ("inconsistencies",)
    inconsistencies: list


def check_implication_chain(
    verdict: CauchyVerdict, conjugate_verdict: CauchyVerdict
) -> ChainReport:
    """Cross-check a verdict pair computed from one sequence, the second
    on the conjugate space.

    Within each verdict d_s must imply the K flags and, if its candidates
    covered the window, each K flag its d flag; across the pair, left and
    right notions must swap roles exactly.  Any inconsistency is a bug.
    """
    if verdict.horizon != conjugate_verdict.horizon:
        raise ValueError("verdict pair has mismatched horizons")
    if verdict.epsilon != conjugate_verdict.epsilon:
        raise ValueError("verdict pair has mismatched epsilons")
    out = [f"base: {s}" for s in _broken_implications(verdict)]
    out += [f"conjugate: {s}" for s in _broken_implications(conjugate_verdict)]

    duals = (("left_K", "right_K"), ("right_K", "left_K"), ("left_d", "right_d"),
             ("right_d", "left_d"), ("d_s", "d_s"))
    for here, there in duals:
        if verdict.flag(here).holds != conjugate_verdict.flag(there).holds:
            out.append(f"duality broken: {here}(d) != {there}(d^-1)")
    return ChainReport(out)
