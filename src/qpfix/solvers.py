"""Successive-approximation schemes for coupled fixed points.

Four schemes share one driver, differing only in the cycle of maps
applied per index:

  single:  x_{n+1} = F(x_n, y_n),            y mirrored with swapped args
  pair:    odd indices apply F, even apply the self map G
  triple:  indices cycle through H, F, G (H first)
  k-map:   indices cycle through G_K, ..., G_2, F, G_1 (experimental
           round-robin generalization of the triple scheme)

Stopping is by stalling: stall_window consecutive index steps whose
symmetrized displacement stays under tol, confirmed by a residual check
at the stalled point.  A cycle that moves nothing at all converges
immediately without appending duplicate rows.

A run ends with one of these statuses:

  converged            the stall (or a stationary cycle) was confirmed
  periodic             finite carriers only: a round started from a state
                       (x, y, stall counter) seen at an earlier round
                       start, so the run repeats forever and can never
                       converge; the report names the cycle's start
                       index and period
  max_iter             max_iter indices ran without either of the above
  hypothesis_violated  verify_hypotheses found a broken hypothesis
  domain_escape        a map left the carrier

Each image is checked against the carrier once, when its map produces
it.  An image outside the carrier ends the run with status
domain_escape, whose violation names the index the image would have
taken, the map, and the preimage and image.

On a finite carrier a run's steps and rounds are memoized once per prepared
instance and shared by every seed; each map is called once per distinct
argument.  An escape is never memoized: each run that meets it reports it.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .order import CoupledMap, PreorderCtx, SelfMap, admissible_seed, induced_leq, oriented
from .relations import mirrored, relate_pair_left
from .spaces import DomainError, Point, QPSpace

# The phase label of each self map a scheme takes, in the order the maps
# are passed; kmap (None) takes any number K, labelled G1, ..., GK.  One
# cycle applies G_K, ..., G_2, F, G_1, so pair runs [F, G] and triple
# [H, F, G].
SCHEMES = {"single": (), "pair": ("G",), "triple": ("G", "H"), "kmap": None}


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9
    max_iter: int = 10000
    stall_window: int = 3
    direction: str = "forward"  # "forward" | "reverse"
    metric_mode: Optional[str] = None  # None runs the context's mode
    verify_hypotheses: bool = False

    def __post_init__(self):
        # negated comparisons, so that NaN is rejected too
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")
        if not self.stall_window >= 1:
            raise ValueError("stall_window must be at least 1")
        if self.direction not in ("forward", "reverse"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.metric_mode not in (None, "plain", "symmetrized"):
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")


@dataclass
class TraceRow:
    n: int
    x: Point
    y: Point
    phi_x: float
    phi_y: float
    step_x: float  # d(x_n, x_{n+1}); filled once the next point is known
    step_y: float
    phase: str  # producing map: "seed" for row 0, else F/G/H/G_i


@dataclass
class IterationTrace:
    rows: list
    scheme: str

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "x", "y", "phi_x", "phi_y", "step_x", "step_y", "scheme_phase"])
            for r in self.rows:
                w.writerow(
                    [r.n, repr(r.x), repr(r.y), repr(r.phi_x), repr(r.phi_y),
                     repr(r.step_x), repr(r.step_y), r.phase]
                )


@dataclass(frozen=True)
class SolverViolation:
    condition: str  # "seed" | "C1" | "C2" | "D1" | "D2" | "chain" | "phi_monotone" | "domain"
    index: int
    witness: tuple
    map_name: Optional[str] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "index": self.index,
            "witness": list(self.witness),
            "map": self.map_name,
            "detail": self.detail,
        }


@dataclass
class SolverReport:
    # "converged" | "periodic" | "max_iter" | "hypothesis_violated" | "domain_escape"
    status: str
    scheme: str
    candidate: Optional[tuple]
    residual_d: dict
    residual_dinv: dict
    residual_ds: dict
    iterations: int
    trace: IterationTrace
    config: SolverConfig
    violation: Optional[SolverViolation] = None
    experimental: bool = False
    cycle: Optional[tuple] = None  # (start index, period) of a periodic run

    def as_dict(self, trace_ref: Optional[str] = None) -> dict:
        out = {
            "status": self.status,
            "scheme": self.scheme,
            "experimental": self.experimental,
            "candidate": None if self.candidate is None else list(self.candidate),
            "residual_d": dict(self.residual_d),
            "residual_dinv": dict(self.residual_dinv),
            "residual_ds": dict(self.residual_ds),
            "iterations": self.iterations,
            "trace_ref": trace_ref if trace_ref is not None else len(self.trace.rows),
            "violation": None if self.violation is None else self.violation.as_dict(),
            "config": asdict(self.config),
        }
        if self.cycle is not None:
            out["cycle"] = {"start": self.cycle[0], "period": self.cycle[1]}
        return out


class _RoundEscape(Exception):
    """An image left the carrier in a round: (offset, label, x, y, DomainError)."""


def _unique_names(maps: Sequence[SelfMap]) -> list[str]:
    names = []
    for i, m in enumerate(maps):
        base = m.name or f"g{i}"
        name = base
        k = 2
        while name in names:
            name = f"{base}#{k}"
            k += 1
        names.append(name)
    return names


def _residuals(space: QPSpace, images, x: Point, y: Point):
    """Per-map residuals of the fixed-point equations at (x, y), under
    d, its conjugate, and the sup metric.  images yields each map's name
    with its images of x and y, already checked against the carrier."""
    dist = space.dist_fn
    res_d, res_dinv, res_ds = {}, {}, {}
    for name, fx, fy in images:
        fw = max(float(dist(fx, x)), float(dist(fy, y)))
        bw = max(float(dist(x, fx)), float(dist(y, fy)))
        res_d[name], res_dinv[name], res_ds[name] = fw, bw, max(fw, bw)
    return res_d, res_dinv, res_ds


def scheme_for(k: int) -> str:
    """The scheme that takes k self maps."""
    return next((s for s, labels in SCHEMES.items() if labels is not None and len(labels) == k),
                "kmap")


def check_scheme(scheme: str, k: int) -> None:
    """Raise ValueError unless scheme is known and takes k self maps."""
    if not isinstance(scheme, str) or scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    labels = SCHEMES[scheme]
    if labels is not None and len(labels) != k:
        raise ValueError(f"scheme {scheme!r} needs {len(labels)} self map(s), got {k}")


def scheme_phases(scheme: str, maps: Sequence[SelfMap]) -> tuple[list, dict]:
    """The cycle of phase labels of one round, and the self map of each label."""
    labels = list(SCHEMES[scheme] or (f"G{i + 1}" for i in range(len(maps))))
    return labels[:0:-1] + ["F"] + labels[:1], dict(zip(labels, maps))


def run_contexts(ctx: PreorderCtx, cfg: SolverConfig) -> tuple:
    """A run's metric mode, decided once: cfg with its mode set (the context's
    when cfg sets none, so the report names it), ctx in that mode (ectx: steps,
    residuals, trace rows) and ectx oriented in cfg's direction (octx: order tests)."""
    if cfg.metric_mode is None:
        cfg = replace(cfg, metric_mode=ctx.metric_mode)
    ectx = ctx if ctx.metric_mode == cfg.metric_mode else replace(ctx, metric_mode=cfg.metric_mode)
    return cfg, ectx, oriented(ectx, cfg.direction)


def _prepare(
    scheme: str,
    ctx: PreorderCtx,
    coupled: CoupledMap,
    selfmaps: Sequence[SelfMap],
    cfg: SolverConfig,
    strict_seed: bool = False,
) -> Callable[[tuple], SolverReport]:
    """The part of a run that depends only on the instance, built once;
    returns the function that runs one seed.  On a finite carrier its runs
    share each map image, phi value, residual table, step and round."""
    cycle, phase_maps = scheme_phases(scheme, selfmaps)
    cfg, ectx, octx = run_contexts(ctx, cfg)
    read = (lambda v: v) if octx is ectx else mirrored
    space = ectx.space
    dist, require = space.dist_fn, space.require
    names = _unique_names(selfmaps)
    named = list(zip(names, selfmaps))
    labelled = [(coupled.name, "F")] + list(zip(names, phase_maps))
    # The seed must be below its image under the cycle's first map, when
    # that map is F or strict_seed is set: an admissible seed of seed_fn,
    # that map read as a coupled map (a self map reads its first argument).
    seed_map = cycle[0] if cycle[0] == "F" or strict_seed else None
    seed_fn = None if seed_map is None else CoupledMap(lambda a, b: raw(seed_map, a, b))
    seed_blame = ((None, "starting pair is not below its image") if seed_map == "F" else
                  (seed_map, "strict mode: starting pair is not below its first image"))
    # On a finite carrier the run is a deterministic map on the round-start
    # state (x, y, stall), so a repeated state proves that it cycles
    # forever.  Round 0 is left out when nothing has checked the link
    # from the seed to its first image, since a later pass would check it.
    tol, window, max_iter, verify = cfg.tol, cfg.stall_window, cfg.max_iter, cfg.verify_hypotheses
    first_link_checked = not verify or seed_map is not None
    # On a finite carrier each map image (checked when produced), phi value,
    # residual table, step and round is cached, keyed on the points and their
    # types; a raised escape is never cached.  An interval's points seldom
    # repeat, and 0.0 and -0.0 would share a key.
    cache = lru_cache(maxsize=None, typed=True) if space.is_finite else (lambda f: f)
    checked = {label: cache(lambda *args, m=m: require(m(*args)))
               for label, m in [("F", coupled), *phase_maps.items()]}
    phi, member = cache(ectx.phi), cache(require)

    def raw(label: str, a: Point, b: Point) -> Point:  # label's map at a, or F at (a, b)
        return coupled(a, b) if label == "F" else phase_maps[label](a)

    def image(label, a, b):  # raw, checked against the carrier
        return checked[label](a, b) if label == "F" else checked[label](a)

    @cache
    def residuals_at(px, py):
        return _residuals(space, [(name, image(label, px, py), image(label, py, px))
                                  for name, label in labelled], px, py)

    @cache
    def advance(label, a, b):  # label's image a' of a (F's of (a, b)), d(a, a'), sup distance
        na = image(label, a, b)
        step = float(dist(a, na))
        return na, step, max(step, float(dist(na, a)))

    @cache
    def round_from(x, y):
        """One cycle from the round start (x, y): its rows (label, x', y',
        step_x, step_y, sum of the sup steps), and whether no image moved."""
        rows, px, py, stationary = [], x, y, True
        for label in cycle:
            try:
                nx, step_x, sup_x = advance(label, px, py)
                ny, step_y, sup_y = advance(label, py, px)
            except DomainError as exc:
                raise _RoundEscape(len(rows), label, px, py, exc)
            if sup_x != 0.0 or sup_y != 0.0:
                stationary = False
            rows.append((label, nx, ny, step_x, step_y, sup_x + sup_y))
            px, py = nx, ny
        return tuple(rows), stationary

    # Each returns the first hypothesis broken at index n as a violation, or None.
    def broken_at_round(n, x, y):  # the seed at round 0, then C1/C2 (D1/D2) per self map
        if n == 0 and seed_fn is not None and not admissible_seed(octx, seed_fn, x, y):
            return SolverViolation("seed", 0, (x, y), *seed_blame)
        for name, m in named:
            if (v := read(relate_pair_left(octx, coupled, m, x, y))) is not None:
                return SolverViolation(v.condition, n, v.pair, name,
                                       f"part {v.part}: {v.lhs!r} not below {v.rhs!r}")
        return None

    def broken_at_link(n, px, x, py, y):  # the order chain, then phi, from row n - 1 to row n
        if not (induced_leq(octx, px, x) and induced_leq(octx, py, y)):
            return SolverViolation("chain", n, (px, x, py, y), None, "trace broke the order chain")
        if not (octx.phi(x) >= octx.phi(px) - octx.slack
                and octx.phi(y) >= octx.phi(py) - octx.slack):
            return SolverViolation("phi_monotone", n, (px, x, py, y), None,
                                   "phi moved the wrong way beyond slack")
        return None

    def run(seed: tuple) -> SolverReport:
        x, y = seed
        try:
            member(x), member(y)
        except TypeError:  # unhashable, so no carrier point: require names it
            require(x), require(y)
        rows = [TraceRow(0, x, y, phi(x), phi(y), 0.0, 0.0, "seed")]
        status = violation = cycle_at = None
        n, stall, final_steps_set = 0, 0, False
        seen = {} if space.is_finite else None
        residuals = ({}, {}, {})
        try:
            while status is None:
                if seen is not None and (n or first_link_checked):
                    start = seen.setdefault((x, y, stall), n)
                    if start != n:
                        status = "periodic"
                        cycle_at = (start, n - start)
                        break
                if verify and (violation := broken_at_round(n, x, y)):
                    status = "hypothesis_violated"
                    break
                try:
                    payload, stationary = round_from(x, y)
                except _RoundEscape as esc:
                    offset, label, px, py, exc = esc.args
                    status = "domain_escape"
                    witness = (px, raw(label, px, py), py, raw(label, py, px))
                    violation = SolverViolation("domain", n + offset + 1, witness, label, str(exc))
                    break
                # an exactly stationary cycle converges now, its last row's steps 0
                if stationary and max((residuals := residuals_at(x, y))[2].values()) <= tol:
                    final_steps_set = True
                    status = "converged"
                    break

                for label, nx, ny, step_x, step_y, sstep in payload:
                    last = rows[-1]
                    last.step_x, last.step_y = step_x, step_y
                    n += 1
                    rows.append(TraceRow(n, nx, ny, phi(nx), phi(ny), 0.0, 0.0, label))
                    prev_x, prev_y, x, y = x, y, nx, ny
                    if (verify and n >= 2
                            and (violation := broken_at_link(n, prev_x, x, prev_y, y))):
                        status = "hypothesis_violated"
                        break
                    stall = stall + 1 if sstep < tol else 0
                    if stall >= window:
                        if max((residuals := residuals_at(x, y))[2].values()) <= tol:
                            status = "converged"
                            break
                        stall = 0
                    if n >= max_iter:
                        status = "max_iter"
                        break

            if status != "domain_escape":
                if not final_steps_set:
                    # fill the final row's forward step with one lookahead evaluation
                    label = cycle[n % len(cycle)]
                    rows[-1].step_x = advance(label, x, y)[1]
                    rows[-1].step_y = advance(label, y, x)[1]
                if status != "converged":  # a converged run has just computed them here
                    residuals = residuals_at(x, y)
        except DomainError as exc:  # an image checked outside a round left the carrier
            residuals = ({}, {}, {})
            # a hypothesis violation or a cycle found earlier stays the reported outcome
            if status in (None, "max_iter"):
                status = "domain_escape"
                violation = SolverViolation("domain", n, (x, y), None, str(exc))

        # copies, since the runs of one instance share the memoised tables
        res_d, res_dinv, res_ds = ({}, {}, {}) if status == "domain_escape" else map(dict, residuals)
        return SolverReport(
            status=status,
            scheme=scheme,
            candidate=(x, y) if status == "converged" else None,
            residual_d=res_d,
            residual_dinv=res_dinv,
            residual_ds=res_ds,
            iterations=n,
            trace=IterationTrace(rows, scheme),
            config=cfg,
            violation=violation,
            experimental=scheme == "kmap" and len(selfmaps) >= 3,  # the paper covers K <= 2
            cycle=cycle_at,
        )

    return run


def couple_iterate(
    ctx: PreorderCtx, coupled: CoupledMap, seed: tuple, cfg: SolverConfig = SolverConfig()
) -> SolverReport:
    """Iterate the single-map scheme from a seed pair.

    With hypothesis verification on, the seed must be below its image in
    both coordinates and the trace must keep climbing (trace-local
    isotonicity of the coupled map); any break aborts the run with
    status hypothesis_violated.
    """
    return _prepare("single", ctx, coupled, [], cfg)(seed)


def pair_iterate(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    seed: tuple,
    cfg: SolverConfig = SolverConfig(),
) -> SolverReport:
    """Alternate the coupled map (odd indices) and g (even indices).

    Hypothesis verification checks the seed inequalities and the weak
    relatedness conditions at every visited pair.
    """
    return _prepare("pair", ctx, coupled, [g], cfg)(seed)


def triple_iterate(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    g: SelfMap,
    h: SelfMap,
    seed: tuple,
    cfg: SolverConfig = SolverConfig(),
    strict_seed: bool = False,
) -> SolverReport:
    """Cycle h, then the coupled map, then g, starting with h.

    The order chain is only checked from index 1 on: nothing relates the
    seed to its first image in this scheme.  Pass strict_seed=True to
    require that link as well.
    """
    return _prepare("triple", ctx, coupled, [g, h], cfg, strict_seed)(seed)


def kmap_round_robin(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    gs: Sequence[SelfMap],
    seed: tuple,
    cfg: SolverConfig = SolverConfig(),
    strict_seed: bool = False,
) -> SolverReport:
    """EXPERIMENTAL round-robin for K self maps.

    Each cycle applies G_K, ..., G_2, then the coupled map, then G_1,
    generalizing the triple scheme's pattern.  An empty map list
    degenerates to :func:`couple_iterate`; a single map matches the pair
    scheme up to index bookkeeping.
    """
    gs = list(gs)
    return _prepare("kmap" if gs else "single", ctx, coupled, gs, cfg, strict_seed)(seed)


def run_scheme(
    scheme: str,
    ctx: PreorderCtx,
    coupled: CoupledMap,
    maps: Sequence[SelfMap],
    seed: tuple,
    cfg: SolverConfig = SolverConfig(),
    strict_seed: bool = False,
) -> SolverReport:
    """Run a scheme by name on its self maps, passed in label order.

    Every run enters through the scheme's public function above.
    ``strict_seed`` applies to the schemes whose cycle does not start
    with F.  Raises ValueError for an unknown scheme or a wrong map count.
    """
    maps = list(maps)
    check_scheme(scheme, len(maps))
    if scheme == "single":
        return couple_iterate(ctx, coupled, seed, cfg)
    if scheme == "pair":
        return pair_iterate(ctx, coupled, maps[0], seed, cfg)
    if scheme == "triple":
        return triple_iterate(ctx, coupled, maps[0], maps[1], seed, cfg, strict_seed)
    return kmap_round_robin(ctx, coupled, maps, seed, cfg, strict_seed)


# -- point classification -----------------------------------------------


@dataclass
class VerifyReport:
    """Residual table and labels for a candidate pair.

    Labels, strongest first: D2 (the coupled equations hold and every
    supplied self map fixes both coordinates; needs >= 2 maps), E3 (same
    for one map), E1 (coupled equations only), D1 (all maps agree with
    the coupled images without fixing them), E2 (one map agrees).
    """

    e1: bool
    e2: dict
    e3: dict
    d1: Optional[bool]
    d2: Optional[bool]
    residuals: dict
    tol: float

    @property
    def strongest(self) -> Optional[str]:
        if self.d2:
            return "D2"
        if any(self.e3.values()):
            return "E3"
        if self.e1:
            return "E1"
        if self.d1:
            return "D1"
        if any(self.e2.values()):
            return "E2"
        return None

    def as_dict(self) -> dict:
        return {
            "strongest": self.strongest,
            "E1": self.e1,
            "E2": dict(self.e2),
            "E3": dict(self.e3),
            "D1": self.d1,
            "D2": self.d2,
            "tol": self.tol,
            "residuals": dict(self.residuals),
        }


def verify_point(
    ctx: PreorderCtx,
    coupled: CoupledMap,
    maps: Sequence[SelfMap],
    x: Point,
    y: Point,
    tol: float = 1e-9,
) -> VerifyReport:
    """Classify (x, y) against every fixed/coincidence notion at tol.

    All residuals use the sup metric, which pins points uniquely on T0
    spaces.  E2 tests agreement of the coupled images with the map's
    images (the coincidence reading), E3 additionally requires both to
    be fixed.
    """
    space = ctx.space
    space.require_all((x, y))
    named = list(zip(_unique_names(maps), maps))
    fxy, fyx = coupled(x, y), coupled(y, x)

    res = {
        "F:x": space.sup_dist(fxy, x),
        "F:y": space.sup_dist(fyx, y),
    }
    e1 = res["F:x"] <= tol and res["F:y"] <= tol
    e2, e3 = {}, {}
    for name, m in named:
        mx, my = m(x), m(y)
        res[f"{name}:x"] = space.sup_dist(mx, x)
        res[f"{name}:y"] = space.sup_dist(my, y)
        res[f"F~{name}:x"] = space.sup_dist(fxy, mx)
        res[f"F~{name}:y"] = space.sup_dist(fyx, my)
        e2[name] = res[f"F~{name}:x"] <= tol and res[f"F~{name}:y"] <= tol
        e3[name] = (
            e1
            and e2[name]
            and res[f"{name}:x"] <= tol
            and res[f"{name}:y"] <= tol
        )
    if len(named) >= 2:
        d1 = all(e2.values())
        d2 = e1 and all(e3.values())
    else:
        d1 = d2 = None
    return VerifyReport(e1, e2, e3, d1, d2, res, tol)
