"""Prepared runs against the one-seed-at-a-time engine they replaced.

``reference_run_scheme`` and ``reference_residuals`` are the solver loop and
its residual table as they stood before a run was split into a part built
once per instance and a part run per seed.  They call every map at every
step and check every image again; the prepared engine remembers images,
phi values and residual tables across the seeds of one instance, and must
reproduce the reference report for report: status, violation, cycle,
residuals and every trace row, compared by repr so that int and np.int64,
or 0.0 and -0.0, stay apart.
"""

from collections import Counter
from dataclasses import fields, replace
from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpfix import catalog, oracle
from qpfix.oracle import (
    oracle_vs_solver,
    order_chain,
    random_chain_selfmap,
    random_finite_space,
    random_isotone_coupled,
    random_phi_table,
)
from qpfix.order import CoupledMap, PreorderCtx, SelfMap
from qpfix.relations import relate_pair_left, relate_pair_right
from qpfix.solvers import (
    IterationTrace,
    SolverConfig,
    SolverReport,
    SolverViolation,
    TraceRow,
    _prepare,
    _unique_names,
    run_scheme,
    scheme_for,
    scheme_phases,
    triple_iterate,
)
from qpfix.spaces import DomainError, Point, QPSpace, finite_space
from reference_order import _phi_ok, admissible_seed, directed_leq

# -- the reference: the solver loop before runs were prepared, verbatim ----------


def reference_residuals(space: QPSpace, coupled: CoupledMap, named_maps, x: Point, y: Point):
    """Per-map residuals of the fixed-point equations at (x, y), under
    d, its conjugate, and the sup metric."""
    res_d, res_dinv, res_ds = {}, {}, {}

    def put(name, pairs):
        fw = max(space.dist(a, b) for a, b in pairs)
        bw = max(space.dist(b, a) for a, b in pairs)
        res_d[name] = fw
        res_dinv[name] = bw
        res_ds[name] = max(fw, bw)

    put(coupled.name, [(coupled(x, y), x), (coupled(y, x), y)])
    for name, m in named_maps:
        put(name, [(m(x), x), (m(y), y)])
    return res_d, res_dinv, res_ds


def reference_run_scheme(
    scheme: str,
    ctx: PreorderCtx,
    coupled: CoupledMap,
    selfmaps: Sequence[SelfMap],
    seed: tuple,
    cfg: SolverConfig,
    strict_seed: bool = False,
) -> SolverReport:
    cycle, phase_maps = scheme_phases(scheme, selfmaps)
    if cfg.metric_mode is None:  # run the context's mode, and report it
        cfg = replace(cfg, metric_mode=ctx.metric_mode)
    ectx = ctx if ctx.metric_mode == cfg.metric_mode else replace(ctx, metric_mode=cfg.metric_mode)
    space = ectx.space
    dist = space.dist_fn
    phi = ectx.phi
    x, y = seed
    space.require(x)
    space.require(y)

    named = list(zip(_unique_names(selfmaps), selfmaps))
    rows = [TraceRow(0, x, y, phi(x), phi(y), 0.0, 0.0, "seed")]
    status: Optional[str] = None
    violation: Optional[SolverViolation] = None
    n = 0
    stall = 0
    final_steps_set = False

    def apply_phase(label: str, px: Point, py: Point) -> tuple:
        if label == "F":
            return coupled(px, py), coupled(py, px)
        m = phase_maps[label]
        return m(px), m(py)

    def fail(cond, witness, map_name=None, detail=""):
        nonlocal status, violation
        status = "hypothesis_violated"
        violation = SolverViolation(cond, n, witness, map_name, detail)

    def residual_pass(px, py):
        nonlocal residuals
        residuals = reference_residuals(space, coupled, named, px, py)
        return max(residuals[2].values()) <= cfg.tol

    def escape(exc, index, witness, map_name=None):
        nonlocal status, violation
        status = "domain_escape"
        violation = SolverViolation("domain", index, witness, map_name, str(exc))

    # On a finite carrier the run is a deterministic map on the round-start
    # state (x, y, stall), so a repeated state proves that it cycles
    # forever.  Round 0 is left out when nothing has checked the link
    # from the seed to its first image, since a later pass would check it.
    seen = {} if space.is_finite else None
    first_link_checked = not cfg.verify_hypotheses or cycle[0] == "F" or strict_seed
    cycle_at = None
    residuals = ({}, {}, {})
    try:
        if cfg.verify_hypotheses:
            # the seed hypothesis ties the seed to F, so it binds only when F
            # comes first in the cycle
            if cycle[0] == "F":
                if not admissible_seed(ectx, coupled, x, y, cfg.direction):
                    fail("seed", (x, y), detail="starting pair is not below its image")
            elif strict_seed:
                nx, ny = apply_phase(cycle[0], x, y)
                if not (directed_leq(ectx, cfg.direction, x, nx)
                        and directed_leq(ectx, cfg.direction, y, ny)):
                    fail("seed", (x, y), map_name=cycle[0],
                         detail="strict mode: starting pair is not below its first image")

        while status is None:
            if seen is not None and (n or first_link_checked):
                start = seen.setdefault((x, y, stall), n)
                if start != n:
                    status = "periodic"
                    cycle_at = (start, n - start)
                    break
            if cfg.verify_hypotheses:
                for name, m in named:
                    v = relate_pair_left(ectx, coupled, m, x, y) if cfg.direction == "forward" \
                        else relate_pair_right(ectx, coupled, m, x, y)
                    if v is not None:
                        fail(v.condition, v.pair, map_name=name,
                             detail=f"part {v.part}: {v.lhs!r} not below {v.rhs!r}")
                        break
                if status is not None:
                    break

            # probe one full cycle, checking and measuring each image once;
            # an exactly stationary cycle converges now
            probe = []
            px, py = x, y
            stationary = True
            for label in cycle:
                nx, ny = apply_phase(label, px, py)
                try:
                    space.require(nx)
                    space.require(ny)
                except DomainError as exc:
                    escape(exc, n + len(probe) + 1, (px, nx, py, ny), label)
                    break
                step_x, back_x = float(dist(px, nx)), float(dist(nx, px))
                step_y, back_y = float(dist(py, ny)), float(dist(ny, py))
                sup_x, sup_y = max(step_x, back_x), max(step_y, back_y)
                if sup_x != 0.0 or sup_y != 0.0:
                    stationary = False
                probe.append((label, nx, ny, step_x, step_y, sup_x + sup_y))
                px, py = nx, ny
            if status is not None:
                break
            if stationary and residual_pass(x, y):
                rows[-1].step_x = 0.0
                rows[-1].step_y = 0.0
                final_steps_set = True
                status = "converged"
                break

            for label, nx, ny, step_x, step_y, sstep in probe:
                rows[-1].step_x = step_x
                rows[-1].step_y = step_y
                n += 1
                rows.append(TraceRow(n, nx, ny, phi(nx), phi(ny), 0.0, 0.0, label))
                prev_x, prev_y = x, y
                x, y = nx, ny
                if cfg.verify_hypotheses and n >= 2:
                    if not (directed_leq(ectx, cfg.direction, prev_x, x)
                            and directed_leq(ectx, cfg.direction, prev_y, y)):
                        fail("chain", (prev_x, x, prev_y, y),
                             detail="trace broke the order chain")
                        break
                    if not (_phi_ok(phi, cfg.direction, ectx.slack, prev_x, x)
                            and _phi_ok(phi, cfg.direction, ectx.slack, prev_y, y)):
                        fail("phi_monotone", (prev_x, x, prev_y, y),
                             detail="phi moved the wrong way beyond slack")
                        break
                stall = stall + 1 if sstep < cfg.tol else 0
                if stall >= cfg.stall_window:
                    if residual_pass(x, y):
                        status = "converged"
                        break
                    stall = 0
                if n >= cfg.max_iter:
                    status = "max_iter"
                    break

        if status != "domain_escape":
            if not final_steps_set:
                # fill the final row's forward step with one lookahead evaluation
                label = cycle[n % len(cycle)]
                nx, ny = apply_phase(label, x, y)
                rows[-1].step_x = space.dist(x, nx)
                rows[-1].step_y = space.dist(y, ny)
            if status != "converged":  # a converged run has just computed them here
                residuals = reference_residuals(space, coupled, named, x, y)
    except DomainError as exc:  # an image checked outside the probe left the carrier
        residuals = ({}, {}, {})
        # a hypothesis violation or a cycle found earlier stays the reported outcome
        if status in (None, "max_iter"):
            escape(exc, n, (x, y))

    res_d, res_dinv, res_ds = ({}, {}, {}) if status == "domain_escape" else residuals
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


# -- comparisons -----------------------------------------------------------------

ROW_FIELDS = [f.name for f in fields(TraceRow)]


def fingerprint(report: SolverReport) -> tuple:
    """Everything a report says, by repr."""
    rows = [tuple(repr(getattr(row, name)) for name in ROW_FIELDS) for row in report.trace.rows]
    return repr(report.as_dict()), repr(report.violation), repr(report.cycle), rows


def table_coupled(rows, name="F"):
    return CoupledMap(lambda a, b: rows[int(a)][int(b)], name=name)


def table_selfmap(values, name):
    return SelfMap(lambda a: values[int(a)], name=name)


def leaky(m, p, outside):
    """m, except that it sends p (as its first argument) and the point
    outside the carrier to that point, which hypothesis checks may pass on."""
    if isinstance(m, CoupledMap):
        return CoupledMap(lambda a, b: outside if outside in (a, b) or a == p else m(a, b),
                          name=m.name)
    return SelfMap(lambda a: outside if a in (outside, p) else m(a), name=m.name)


SCHEMES_FOR = {0: ["single", "kmap"], 1: ["pair", "kmap"], 2: ["triple", "kmap"], 3: ["kmap"]}


def random_instance(data, n, k, escape):
    """A finite instance: isotone chain maps or arbitrary tables, T0 or not."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    space = random_finite_space(rng, n, t0=data.draw(st.booleans(), label="t0"))
    ctx = PreorderCtx(space, random_phi_table(rng, n),
                      metric_mode=data.draw(st.sampled_from(["plain", "symmetrized"])),
                      slack=data.draw(st.sampled_from([0.0, 1.0]), label="slack"))
    if data.draw(st.booleans(), label="isotone"):
        chain = order_chain(ctx)
        coupled = random_isotone_coupled(rng, ctx, chain)
        maps = [random_chain_selfmap(rng, ctx, chain, name=f"g{j + 1}") for j in range(k)]
    else:
        coupled = table_coupled(rng.integers(0, n, size=(n, n)).tolist())
        maps = [table_selfmap(rng.integers(0, n, size=n).tolist(), f"g{j + 1}")
                for j in range(k)]
    if escape:  # one map sends one point outside
        j = data.draw(st.integers(0, k), label="leaky map")
        p = data.draw(st.integers(0, n - 1), label="leaky point")
        coupled, *maps = (leaky(m, p if i == j else None, n)
                          for i, m in enumerate([coupled, *maps]))
    return space, ctx, coupled, maps


def recording_prepare(recorded):
    """A stand-in for the oracle's _prepare that keeps every (seed, report)."""
    def prepare(*args, **kwargs):
        run = _prepare(*args, **kwargs)

        def record(seed):
            recorded.append((seed, run(seed)))
            return recorded[-1][1]

        return record

    return prepare


def exact_oracle_applies(space: QPSpace, cfg: SolverConfig) -> bool:
    sup = np.maximum(space.matrix, space.matrix.T)
    return not (sup > 0).any() or cfg.tol < sup[sup > 0].min()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_prepared_runs_match_the_reference(data):
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(0, 3), label="k")
    escape = data.draw(st.booleans(), label="escape")
    space, ctx, coupled, maps = random_instance(data, n, k, escape)
    scheme = data.draw(st.sampled_from(SCHEMES_FOR[k]), label="scheme")
    cfg = SolverConfig(
        tol=data.draw(st.sampled_from([1e-9, 0.3, 1.1]), label="tol"),
        max_iter=data.draw(st.sampled_from([1, 2, 7, 200]), label="max_iter"),
        stall_window=data.draw(st.integers(1, 3), label="stall_window"),
        direction=data.draw(st.sampled_from(["forward", "reverse"]), label="direction"),
        metric_mode=data.draw(st.sampled_from([None, "plain", "symmetrized"]), label="mode"),
        verify_hypotheses=data.draw(st.booleans(), label="verify"),
    )
    strict = data.draw(st.booleans(), label="strict_seed")
    kinds = data.draw(st.sampled_from([(int, int), (np.int64, np.int64), (int, np.int64)]))
    seeds = [(kinds[0](a), kinds[1](b)) for a in range(n) for b in range(n)]
    # kmap_round_robin runs an empty map list as the single scheme
    effective = "single" if scheme == "kmap" and not maps else scheme
    want = [fingerprint(reference_run_scheme(effective, ctx, coupled, maps, s, cfg, strict))
            for s in seeds]

    # one prepared instance per run, through the public entry point
    for seed, expected in zip(seeds, want):
        assert fingerprint(run_scheme(scheme, ctx, coupled, maps, seed, cfg, strict)) == expected

    # one prepared instance for every seed, each run twice, in a drawn order
    run = _prepare(effective, ctx, coupled, maps, cfg, strict)
    for i in data.draw(st.permutations(list(range(len(seeds))) * 2), label="order"):
        assert fingerprint(run(seeds[i])) == want[i]

    # the oracle's own runs, which share one prepared instance
    if escape or not exact_oracle_applies(space, cfg):
        return
    recorded = []
    with mock.patch.object(oracle, "_prepare", recording_prepare(recorded)):
        agreement = oracle_vs_solver(space, ctx, coupled, maps, cfg)
    assert [seed for seed, _ in recorded] == agreement.seeds
    for seed, report in recorded:
        expected = reference_run_scheme(scheme_for(k), ctx, coupled, maps, seed, cfg)
        assert fingerprint(report) == fingerprint(expected)


# a flat potential with slack 1 relates every pair, so every hypothesis holds
def flat_ctx(n):
    return PreorderCtx(random_finite_space(np.random.default_rng(n), n),
                       catalog.get_phi("table", values=[0] * n), slack=1.0)


def test_an_escape_on_some_paths_is_reported_by_every_run_that_reaches_it():
    ctx = flat_ctx(4)
    first = CoupledMap(lambda a, b: a, name="first")
    calls = Counter()

    def g(a):  # 3 leaves the carrier; every other point stays put
        calls[a] += 1
        return 4 if a == 3 else a

    maps = [SelfMap(g, name="g")]
    cfg = SolverConfig()
    run = _prepare("pair", ctx, first, maps, cfg)
    seeds = [(a, b) for a in range(4) for b in range(4)]
    want = {s: fingerprint(reference_run_scheme("pair", ctx, first, maps, s, cfg)) for s in seeds}
    escaped = [s for s in seeds if 3 in s]
    for _ in range(2):
        for seed in seeds:
            report = run(seed)
            assert fingerprint(report) == want[seed]
            assert report.status == ("domain_escape" if seed in escaped else "converged")
    assert run(escaped[-1]).violation.index == 2
    calls.clear()
    run(escaped[0])
    assert calls[3] > 0  # the escaping image is produced again, not remembered


def test_remembered_images_keep_the_type_of_their_argument():
    # H is the identity and F a projection, so each keeps its argument's
    # type, and G's arithmetic keeps it too: every row of a run quotes
    # points of its seed's type
    ctx = flat_ctx(3)
    first = CoupledMap(lambda a, b: a, name="first")
    maps = [SelfMap(lambda a: (a + 1) % 3, name="next"), SelfMap(lambda a: a, name="id")]
    cfg = SolverConfig()
    run = _prepare("triple", ctx, first, maps, cfg)
    for seed in [(1, 2), (np.int64(1), np.int64(2)), (1, 2), (np.int64(1), 2)]:
        report = run(seed)
        want = reference_run_scheme("triple", ctx, first, maps, seed, cfg)
        assert fingerprint(report) == fingerprint(want)
        assert report.status == "periodic"
        assert {type(row.x) for row in report.trace.rows} == {type(seed[0])}
        assert {type(row.y) for row in report.trace.rows} == {type(seed[1])}


def test_a_mutated_report_leaves_the_other_runs_alone():
    rng = np.random.default_rng(11)
    space = random_finite_space(rng, 6)
    ctx = PreorderCtx(space, random_phi_table(rng, 6), slack=0.0)
    chain = order_chain(ctx)
    coupled = random_isotone_coupled(rng, ctx, chain)
    maps = [random_chain_selfmap(rng, ctx, chain)]
    run = _prepare("pair", ctx, coupled, maps, SolverConfig())
    seeds = [(a, b) for a in range(6) for b in range(6)] * 2  # each seed twice
    reports = [run(seed) for seed in seeds]
    before = [fingerprint(r) for r in reports]
    target = reports[0]
    assert target.status == "converged" and target.residual_ds
    target.trace.rows[0].x = 99
    target.trace.rows.append(target.trace.rows[0])
    for table in (target.residual_d, target.residual_dinv, target.residual_ds):
        table[next(iter(table))] = -1.0
    assert [fingerprint(r) for r in reports[1:]] == before[1:]
    assert [fingerprint(run(seed)) for seed in seeds] == before


INTERVAL_COUPLED = ["coupled_max", "coupled_min", "coupled_affine", "coupled_product",
                    "coupled_projection"]
INTERVAL_SELF = ["affine_pull", "halve", "sqrt_pull", "cbrt_pull", "identity", "step"]


@given(st.sampled_from(["upper_interval", "lower_interval"]),
       st.sampled_from(INTERVAL_COUPLED), st.lists(st.sampled_from(INTERVAL_SELF), max_size=3),
       st.sampled_from(["identity", "arctan", "neg_exp"]),
       st.sampled_from(["forward", "reverse"]), st.sampled_from([None, "symmetrized"]),
       st.booleans(), st.booleans(),
       st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.75, 1])))
@settings(max_examples=150, deadline=None)
def test_interval_runs_match_the_reference(space_id, f, gs, phi, direction, mode, verify,
                                           strict, seed):
    # an interval remembers nothing across runs: one prepared run per seed
    ctx = PreorderCtx(catalog.get_space(space_id, lo=0.0, hi=1.0), catalog.get_phi(phi))
    coupled, maps = catalog.get_map(f), [catalog.get_map(g) for g in gs]
    scheme = scheme_for(len(maps))
    cfg = SolverConfig(max_iter=60, direction=direction, metric_mode=mode,
                       verify_hypotheses=verify)
    want = reference_run_scheme(scheme, ctx, coupled, maps, seed, cfg, strict)
    got = run_scheme(scheme, ctx, coupled, maps, seed, cfg, strict)
    assert fingerprint(got) == fingerprint(want)


# -- what verification may change ------------------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verification_reads_the_run_and_may_only_end_it(data):
    # A verified run V and an unverified run U agree row for row while both
    # last.  V may end first, on a broken hypothesis or on an escape met by
    # a check (C1/C2 evaluate F(g(x), g(y)), which no run does).  When the
    # seed's link is unchecked, round 0 cannot prove a cycle, so V may also
    # run longer than U.
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(0, 3), label="k")
    escape = data.draw(st.booleans(), label="escape")
    space, ctx, coupled, maps = random_instance(data, n, k, escape)
    scheme = data.draw(st.sampled_from(SCHEMES_FOR[k]), label="scheme")
    cfg = SolverConfig(
        tol=data.draw(st.sampled_from([1e-9, 0.3, 1.1]), label="tol"),
        max_iter=data.draw(st.sampled_from([1, 2, 7, 200]), label="max_iter"),
        direction=data.draw(st.sampled_from(["forward", "reverse"]), label="direction"),
        metric_mode=data.draw(st.sampled_from([None, "plain", "symmetrized"]), label="mode"),
    )
    strict = data.draw(st.booleans(), label="strict_seed")
    plain = _prepare(scheme, ctx, coupled, maps, cfg, strict)
    verified = _prepare(scheme, ctx, coupled, maps, replace(cfg, verify_hypotheses=True), strict)
    first_link_checked = scheme_phases(scheme, maps)[0][0] == "F" or strict
    for seed in [(a, b) for a in range(n) for b in range(n)]:
        u, v = plain(seed), verified(seed)
        u_rows, v_rows = ([(r.n, r.x, r.y, r.phase) for r in w.trace.rows] for w in (u, v))
        common = min(len(u_rows), len(v_rows))
        assert u_rows[:common] == v_rows[:common]
        if first_link_checked:
            assert ((v.status, v.cycle, v_rows) == (u.status, u.cycle, u_rows)
                    or v.status in ("hypothesis_violated", "domain_escape")
                    and len(v_rows) <= len(u_rows))


@pytest.mark.parametrize("verify, strict, cycle", [
    (False, False, (0, 6)),
    # H's link from the seed is unchecked, so round 0's state cannot prove
    # the cycle: it is proved from round 1, whose state recurs at index 9
    (True, False, (3, 6)),
    (True, True, (0, 6)),
])
def test_a_recurring_round_zero_state_proves_a_cycle_once_its_link_is_checked(verify, strict,
                                                                                cycle):
    # slack 1 relates every pair, so every check passes; each map flips
    # both points, so rounds start at (0, 0) and (1, 1) in turn, stall 0
    ctx = PreorderCtx(finite_space([[0, 1], [1, 0]]),
                      catalog.get_phi("table", values=[0, 0]), slack=1.0)
    coupled = CoupledMap(lambda a, b: 1 - a, name="flip")
    maps = [SelfMap(lambda a: 1 - a, name="g"), SelfMap(lambda a: 1 - a, name="h")]
    cfg = SolverConfig(verify_hypotheses=verify)
    report = triple_iterate(ctx, coupled, *maps, (0, 0), cfg, strict_seed=strict)
    assert (report.status, report.cycle) == ("periodic", cycle)
    want = reference_run_scheme("triple", ctx, coupled, maps, (0, 0), cfg, strict)
    assert fingerprint(report) == fingerprint(want)
