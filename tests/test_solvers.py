import csv
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpfix import catalog
from qpfix.order import CoupledMap, PreorderCtx, SelfMap, induced_leq
from qpfix.solvers import (
    SolverConfig,
    check_scheme,
    couple_iterate,
    kmap_round_robin,
    pair_iterate,
    run_scheme,
    scheme_for,
    scheme_phases,
    triple_iterate,
    verify_point,
)
from qpfix.spaces import finite_space

F_MAX = catalog.get_map("coupled_max")
F_AFFINE = catalog.get_map("coupled_affine")  # (x + y + 2) / 4
PULL = catalog.get_map("affine_pull")  # (1 + x) / 2
SQRT = catalog.get_map("sqrt_pull")
HALVE = catalog.get_map("halve")


# -- single scheme --------------------------------------------------------


def test_couple_max_converges_in_one_step(unit_ctx):
    report = couple_iterate(unit_ctx, F_MAX, (0.2, 0.7))
    assert report.status == "converged"
    assert report.candidate == (0.7, 0.7)
    assert report.iterations == 1
    assert len(report.trace.rows) == 2
    assert report.residual_ds["coupled_max"] == 0.0


def test_couple_affine_matches_closed_form(unit_ctx):
    report = couple_iterate(unit_ctx, F_AFFINE, (0.0, 0.0))
    assert report.status == "converged"
    assert report.iterations <= 40
    # independent replay of the defining recurrence
    x = y = 0.0
    for row in report.trace.rows[1:]:
        x, y = (x + y + 2.0) / 4.0, (y + x + 2.0) / 4.0
        assert row.x == x and row.y == y
    cx, cy = report.candidate
    assert abs(cx - 1.0) <= 1e-9 and abs(cy - 1.0) <= 1e-9
    assert report.residual_ds["coupled_affine"] <= 1e-9


def test_couple_stationary_seed_is_trace_of_length_one(unit_ctx):
    report = couple_iterate(unit_ctx, F_MAX, (0.7, 0.7))
    assert report.status == "converged"
    assert report.iterations == 0
    assert len(report.trace.rows) == 1
    assert report.trace.rows[0].step_x == 0.0


def test_couple_hypothesis_seed_gate(unit_ctx):
    shrink = CoupledMap(lambda x, y: x * y / 2.0, name="shrink")
    report = couple_iterate(
        unit_ctx, shrink, (1.0, 1.0), SolverConfig(verify_hypotheses=True)
    )
    assert report.status == "hypothesis_violated"
    assert report.violation.condition == "seed"
    assert report.candidate is None


def test_couple_reverse_direction(unit_ctx):
    shrink = CoupledMap(lambda x, y: x * y / 2.0, name="shrink")
    cfg = SolverConfig(direction="reverse", verify_hypotheses=True)
    report = couple_iterate(unit_ctx, shrink, (1.0, 1.0), cfg)
    assert report.status == "converged"
    assert report.candidate[0] <= 1e-9 and report.candidate[1] <= 1e-9
    # descending chain
    rows = report.trace.rows
    for prev, cur in zip(rows, rows[1:]):
        assert induced_leq(unit_ctx, cur.x, prev.x)
        assert cur.phi_x <= prev.phi_x


def test_couple_non_converging_run_hits_max_iter(unit_ctx):
    flip = CoupledMap(lambda x, y: 1.0 - x, name="flip")
    report = couple_iterate(unit_ctx, flip, (0.3, 0.6), SolverConfig(max_iter=50))
    assert report.status == "max_iter"
    assert report.candidate is None
    assert report.iterations == 50


def test_couple_isotonicity_break_is_caught(unit_ctx):
    # seed inequality holds at (0, 0) but the map is order-reversing, so
    # the chain breaks one step later
    flip = CoupledMap(lambda x, y: 1.0 - x, name="flip")
    report = couple_iterate(
        unit_ctx, flip, (0.0, 0.0), SolverConfig(verify_hypotheses=True)
    )
    assert report.status == "hypothesis_violated"
    assert report.violation.condition == "chain"


# -- pair scheme ----------------------------------------------------------


def test_pair_max_affine_reproduction(unit_ctx):
    report = pair_iterate(unit_ctx, F_MAX, PULL, (0.0, 0.0))
    assert report.status == "converged"
    assert report.iterations <= 80
    cx, cy = report.candidate
    assert abs(cx - 1.0) <= 1e-9 and abs(cy - 1.0) <= 1e-9
    # replay the interleaving: odd rows from the coupled map, even from g
    x = y = 0.0
    for row in report.trace.rows[1:]:
        if row.n % 2 == 1:
            x, y = max(x, y), max(y, x)
            assert row.phase == "F"
        else:
            x, y = (1 + x) / 2, (1 + y) / 2
            assert row.phase == "G"
        assert row.x == x and row.y == y
    vp = verify_point(unit_ctx, F_MAX, [PULL], cx, cy, tol=1e-9)
    assert vp.e3["affine_pull"]


def test_pair_stationary_seed(unit_ctx):
    report = pair_iterate(unit_ctx, F_MAX, PULL, (1.0, 1.0))
    assert report.status == "converged"
    assert report.iterations == 0
    assert len(report.trace.rows) == 1


def test_pair_hypothesis_gate_names_c1(unit_ctx):
    cfg = SolverConfig(verify_hypotheses=True)
    report = pair_iterate(unit_ctx, F_MAX, HALVE, (0.5, 0.5), cfg)
    assert report.status == "hypothesis_violated"
    assert report.violation.condition == "C1"
    assert report.violation.witness == (0.5, 0.5)
    assert report.violation.map_name == "halve"


def test_pair_verified_run_passes_gate(unit_ctx):
    cfg = SolverConfig(verify_hypotheses=True)
    report = pair_iterate(unit_ctx, F_MAX, PULL, (0.0, 0.0), cfg)
    assert report.status == "converged"
    rows = report.trace.rows
    for prev, cur in zip(rows, rows[1:]):
        assert induced_leq(unit_ctx, prev.x, cur.x)
        assert cur.phi_x >= prev.phi_x - unit_ctx.slack


# -- triple scheme ----------------------------------------------------------


def _triple_oracle(x0, steps):
    # direct replay of the h, F, g cycle
    seq = [x0]
    x = x0
    for n in range(1, steps + 1):
        r = n % 3
        if r == 1:
            x = x ** 0.5
        elif r == 2:
            x = max(x, x)
        else:
            x = (1 + x) / 2
        seq.append(x)
    return seq


def test_triple_reproduction(unit_ctx):
    report = triple_iterate(unit_ctx, F_MAX, PULL, SQRT, (0.25, 0.25))
    assert report.status == "converged"
    oracle = _triple_oracle(0.25, report.iterations)
    assert [r.x for r in report.trace.rows] == oracle
    assert [r.phase for r in report.trace.rows[1:4]] == ["H", "F", "G"]
    cx, cy = report.candidate
    vp = verify_point(unit_ctx, F_MAX, [PULL, SQRT], cx, cy, tol=1e-9)
    assert vp.d2
    assert vp.strongest == "D2"


def test_triple_stationary_seed(unit_ctx):
    report = triple_iterate(unit_ctx, F_MAX, PULL, SQRT, (1.0, 1.0))
    assert report.status == "converged"
    assert report.iterations == 0


def test_triple_square_violates_relatedness(unit_ctx):
    square = SelfMap(lambda x: x * x, name="square")
    cfg = SolverConfig(verify_hypotheses=True)
    report = triple_iterate(unit_ctx, F_MAX, PULL, square, (0.25, 0.25), cfg)
    assert report.status == "hypothesis_violated"
    assert report.violation.condition == "C1"
    assert report.violation.map_name == "square"


def test_triple_strict_seed_flag(unit_ctx):
    # sqrt pulls up, so the strict link holds from 0.25; halving breaks it
    ok = triple_iterate(
        unit_ctx, F_MAX, PULL, SQRT, (0.25, 0.25),
        SolverConfig(verify_hypotheses=True), strict_seed=True,
    )
    assert ok.status == "converged"
    bad = triple_iterate(
        unit_ctx, F_MAX, PULL, HALVE, (0.25, 0.25),
        SolverConfig(verify_hypotheses=True), strict_seed=True,
    )
    assert bad.status == "hypothesis_violated"
    assert bad.violation.condition in ("seed", "C1")


# -- k-map scheme -----------------------------------------------------------


def test_kmap_three_maps(unit_ctx):
    cbrt = catalog.get_map("cbrt_pull")
    report = kmap_round_robin(unit_ctx, F_MAX, [PULL, SQRT, cbrt], (0.1, 0.1))
    assert report.status == "converged"
    assert report.experimental
    cx, cy = report.candidate
    assert abs(cx - 1.0) <= 1e-8 and abs(cy - 1.0) <= 1e-8
    # cycle order: G3, G2, F, G1
    assert [r.phase for r in report.trace.rows[1:5]] == ["G3", "G2", "F", "G1"]
    vp = verify_point(unit_ctx, F_MAX, [PULL, SQRT, cbrt], cx, cy, tol=1e-8)
    assert vp.d2


def test_kmap_identity_matches_pair_candidate(unit_ctx):
    ident = catalog.get_map("identity")
    km = kmap_round_robin(unit_ctx, F_AFFINE, [ident], (0.0, 0.0))
    pr = pair_iterate(unit_ctx, F_AFFINE, ident, (0.0, 0.0))
    assert km.status == pr.status == "converged"
    assert km.candidate == pr.candidate


def test_kmap_empty_degenerates_to_single(unit_ctx):
    km = kmap_round_robin(unit_ctx, F_AFFINE, [], (0.0, 0.0))
    single = couple_iterate(unit_ctx, F_AFFINE, (0.0, 0.0))
    assert km.as_dict() == single.as_dict()
    assert not km.experimental


# -- point verification ------------------------------------------------------


def test_verify_point_e1(unit_ctx):
    vp = verify_point(unit_ctx, F_AFFINE, [], 1.0, 1.0)
    assert vp.e1 and vp.strongest == "E1"
    assert vp.residuals["F:x"] == 0.0
    assert vp.d1 is None and vp.d2 is None


def test_verify_point_d2(unit_ctx):
    vp = verify_point(unit_ctx, F_MAX, [PULL, SQRT], 1.0, 1.0)
    assert vp.strongest == "D2"
    assert vp.e3 == {"affine_pull": True, "sqrt_pull": True}


def test_verify_point_no_label(unit_ctx):
    vp = verify_point(unit_ctx, F_AFFINE, [], 0.5, 0.5)
    assert vp.strongest is None
    # F(0.5, 0.5) = 0.75, so the symmetrized residual is 0.25
    assert vp.residuals["F:x"] == pytest.approx(0.25)


def test_verify_point_e2_coincidence_without_fixing(unit_ctx):
    # map and coupled images agree at (0, 0) without either fixing 0
    g = SelfMap(lambda x: 0.5, name="const_half")
    f = CoupledMap(lambda x, y: 0.5, name="const_half_coupled")
    vp = verify_point(unit_ctx, f, [g], 0.0, 0.0)
    assert vp.e2["const_half"] and not vp.e1
    assert vp.strongest == "E2"


# -- bookkeeping --------------------------------------------------------------


def test_reports_are_deterministic(unit_ctx):
    a = pair_iterate(unit_ctx, F_MAX, PULL, (0.0, 0.0))
    b = pair_iterate(unit_ctx, F_MAX, PULL, (0.0, 0.0))
    assert a.as_dict() == b.as_dict()
    assert [
        (r.n, r.x, r.y, r.phi_x, r.phi_y, r.step_x, r.step_y, r.phase)
        for r in a.trace.rows
    ] == [
        (r.n, r.x, r.y, r.phi_x, r.phi_y, r.step_x, r.step_y, r.phase)
        for r in b.trace.rows
    ]


def test_trace_csv_layout(unit_ctx, tmp_path):
    report = triple_iterate(unit_ctx, F_MAX, PULL, SQRT, (0.25, 0.25))
    path = tmp_path / "trace.csv"
    report.trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x", "y", "phi_x", "phi_y", "step_x", "step_y", "scheme_phase"]
    assert len(rows) == len(report.trace.rows) + 1
    assert rows[1][7] == "seed"
    # values round-trip through repr
    assert float(rows[2][1]) == report.trace.rows[1].x


def test_domain_escape_is_reported_not_raised(unit_ctx):
    climb = CoupledMap(lambda x, y: x + 0.375, name="climb")
    report = couple_iterate(unit_ctx, climb, (0.0, 0.0))
    # 0.375, 0.75, then 1.125 leaves [0, 1]: the trace stops before it
    assert report.status == "domain_escape"
    assert report.candidate is None
    assert [r.x for r in report.trace.rows] == [0.0, 0.375, 0.75]
    v = report.violation
    assert (v.condition, v.index, v.map_name) == ("domain", 3, "F")
    assert v.witness == (0.75, 1.125, 0.75, 1.125)
    assert report.residual_d == report.residual_dinv == report.residual_ds == {}
    # with verification on, the seed check meets the escape first
    cfg = SolverConfig(verify_hypotheses=True)
    report = couple_iterate(unit_ctx, CoupledMap(lambda x, y: 2.0), (0.0, 0.0), cfg)
    assert report.status == "domain_escape"
    assert (report.violation.index, report.violation.map_name) == (0, None)


def test_escape_after_a_violation_keeps_the_violation(unit_ctx):
    # 0 -> 0.5 -> 0.25 breaks the chain at index 2; the look-ahead from
    # 0.25 then leaves [0, 1], which must not replace the chain violation
    drop = CoupledMap(lambda x, y: {0.0: 0.5, 0.5: 0.25}.get(x, 2.0), name="drop")
    cfg = SolverConfig(verify_hypotheses=True)
    report = couple_iterate(unit_ctx, drop, (0.0, 0.0), cfg)
    assert report.status == "hypothesis_violated"
    v = report.violation
    assert (v.condition, v.index, v.witness) == ("chain", 2, (0.5, 0.25, 0.5, 0.25))
    assert report.residual_d == report.residual_dinv == report.residual_ds == {}
    assert [r.x for r in report.trace.rows] == [0.0, 0.5, 0.25]


@given(st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["coupled_max", "coupled_min", "coupled_projection"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_integer_seeds_give_float_steps(x0, y0, coupled_id, paired):
    space = catalog.get_space("upper_interval", lo=0.0, hi=3.0)
    ctx = PreorderCtx(space, catalog.get_phi("identity", bound=3.0))
    coupled = catalog.get_map(coupled_id)
    if paired:
        report = pair_iterate(ctx, coupled, catalog.get_map("identity"), (x0, y0))
    else:
        report = couple_iterate(ctx, coupled, (x0, y0))
    for row in report.trace.rows:
        assert type(row.step_x) is float and type(row.step_y) is float


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iter=float("nan"))  # would never stop
    with pytest.raises(ValueError):
        SolverConfig(stall_window=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(direction="up")
    with pytest.raises(ValueError):
        SolverConfig(stall_window=0)


def test_metric_mode_override_runs_symmetrized(unit_ctx):
    cfg = SolverConfig(metric_mode="symmetrized", verify_hypotheses=True)
    report = couple_iterate(unit_ctx, F_AFFINE, (0.0, 0.0), cfg)
    assert report.status == "converged"
    assert abs(report.candidate[0] - 1.0) <= 1e-9


def test_metric_mode_default_follows_context(unit_space):
    ctx = PreorderCtx(unit_space, catalog.get_phi("identity", bound=1.0),
                      metric_mode="symmetrized")
    report = couple_iterate(ctx, F_AFFINE, (0.0, 0.0), SolverConfig(verify_hypotheses=True))
    assert report.status == "converged"
    assert report.config.metric_mode == "symmetrized"
    assert report.as_dict()["config"]["metric_mode"] == "symmetrized"
    # an explicit mode still overrides the context's
    plain = couple_iterate(ctx, F_AFFINE, (0.0, 0.0), SolverConfig(metric_mode="plain"))
    assert plain.config.metric_mode == "plain"


def test_reverse_violation_detail_reads_below(unit_ctx):
    cfg = SolverConfig(direction="reverse", verify_hypotheses=True)
    report = pair_iterate(unit_ctx, catalog.get_map("coupled_min"), SQRT, (0.5, 0.5), cfg)
    assert report.status == "hypothesis_violated"
    assert report.violation.condition == "D1"
    # the failed test is lhs below rhs: sqrt(0.5) below 0.5
    assert report.violation.detail == "part 1: 0.7071067811865476 not below 0.5"


# -- scheme table ---------------------------------------------------------------


def test_scheme_table_cycles_and_labels():
    g1, g2, g3 = PULL, SQRT, HALVE
    assert scheme_phases("single", []) == (["F"], {})
    assert scheme_phases("pair", [g1]) == (["F", "G"], {"G": g1})
    assert scheme_phases("triple", [g1, g2]) == (["H", "F", "G"], {"G": g1, "H": g2})
    assert scheme_phases("kmap", [g1, g2, g3]) == (
        ["G3", "G2", "F", "G1"], {"G1": g1, "G2": g2, "G3": g3}
    )
    assert [scheme_for(k) for k in range(5)] == ["single", "pair", "triple", "kmap", "kmap"]


def test_check_scheme_rejects_unknown_names_and_counts():
    check_scheme("kmap", 0)
    check_scheme("kmap", 7)
    with pytest.raises(ValueError, match="unknown scheme"):
        check_scheme("quad", 4)
    with pytest.raises(ValueError, match="needs 2 self map"):
        check_scheme("triple", 1)


def test_run_scheme_matches_public_functions(unit_ctx):
    cfg = SolverConfig(verify_hypotheses=True)
    seed = (0.25, 0.25)
    cbrt = catalog.get_map("cbrt_pull")
    pairs = [
        (run_scheme("single", unit_ctx, F_MAX, [], seed, cfg),
         couple_iterate(unit_ctx, F_MAX, seed, cfg)),
        (run_scheme("pair", unit_ctx, F_MAX, [PULL], seed, cfg),
         pair_iterate(unit_ctx, F_MAX, PULL, seed, cfg)),
        (run_scheme("triple", unit_ctx, F_MAX, [PULL, HALVE], seed, cfg, strict_seed=True),
         triple_iterate(unit_ctx, F_MAX, PULL, HALVE, seed, cfg, strict_seed=True)),
        (run_scheme("kmap", unit_ctx, F_MAX, [PULL, SQRT, cbrt], seed, cfg),
         kmap_round_robin(unit_ctx, F_MAX, [PULL, SQRT, cbrt], seed, cfg)),
    ]
    for by_name, direct in pairs:
        assert by_name.as_dict() == direct.as_dict()
    assert pairs[2][0].status == "hypothesis_violated"
    with pytest.raises(ValueError):
        run_scheme("pair", unit_ctx, F_MAX, [], seed, cfg)


# -- finite carriers: a repeated round-start state ends the run ------------------

FLIP = CoupledMap(lambda x, y: 1 - x, name="flip")
IDENT = SelfMap(lambda x: x, name="ident")


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("scheme, maps, start, period", [
    ("single", [], 0, 2),
    # the identities' zero steps leave round 0 with another stall count
    # than the rounds after it, so the cycle starts one round late
    ("pair", [IDENT], 2, 4),
    ("triple", [IDENT, IDENT], 3, 6),
    # three zero steps in a row fill the stall window, the residual check
    # fails and the counter resets inside every round from round 1 on
    ("kmap", [IDENT] * 3, 4, 8),
])
def test_finite_flip_ends_periodic(scheme, maps, start, period, verify):
    # slack 1 relates every pair, so every hypothesis check passes
    ctx = PreorderCtx(finite_space([[0, 1], [1, 0]]),
                      catalog.get_phi("table", values=[0, 0]), slack=1.0)
    cfg = SolverConfig(verify_hypotheses=verify)
    report = run_scheme(scheme, ctx, FLIP, maps, (0, 0), cfg)
    assert report.status == "periodic"
    assert report.candidate is None
    assert report.cycle == (start, period)
    assert report.iterations == start + period
    assert report.as_dict()["cycle"] == {"start": start, "period": period}
    rows = report.trace.rows
    assert len(rows) == start + period + 1
    assert (rows[start].x, rows[start].y) == (rows[-1].x, rows[-1].y)
    assert report.residual_ds["flip"] == 1.0  # at the final pair, as for max_iter
    # a repeat at or after max_iter is still reported as max_iter
    for max_iter in (start + period - 1, start + period):
        late = run_scheme(scheme, ctx, FLIP, maps, (0, 0), replace(cfg, max_iter=max_iter))
        assert late.status == "max_iter"
        assert late.iterations == max_iter
        assert late.cycle is None
        assert "cycle" not in late.as_dict()


def test_periodic_runs_need_a_repeated_stall_count_too():
    # with tol above every step, a flip repeats (x, y) at index 2 with two
    # small steps counted, and the third fills the window: it converges
    space = finite_space([[0, 0.25], [0.25, 0]])
    ctx = PreorderCtx(space, catalog.get_phi("table", values=[0, 0]))
    report = couple_iterate(ctx, FLIP, (0, 0), SolverConfig(tol=0.6))
    assert report.status == "converged"
    assert (report.iterations, report.candidate) == (3, (1, 1))


def test_stall_reset_inside_the_cycle_does_not_stop_the_run():
    # every round starts at (0, 0) and every step is under tol; the window
    # fills at index 3, where F(2, 2) = 1 fails the residual check and the
    # counter resets, and fills again at index 6, where the check passes
    space = finite_space([[0, 1.5, 0.25], [1, 0, 1.25], [0.25, 1.75, 0]])
    ctx = PreorderCtx(space, catalog.get_phi("table", values=[0, 0, 0]))
    F = CoupledMap(lambda x, y: [[2, 0, 1], [1, 2, 1], [0, 0, 1]][x][y], name="F")
    g = SelfMap(lambda x: [2, 2, 0][x], name="g")
    report = pair_iterate(ctx, F, g, (0, 0), SolverConfig(tol=1.1))
    assert [(r.x, r.y) for r in report.trace.rows] == [(0, 0), (2, 2)] * 3 + [(0, 0)]
    assert report.status == "converged"
    assert (report.iterations, report.candidate) == (6, (0, 0))


def test_verified_cycle_still_checks_the_seed_link():
    # only 1 is below 0.  H lifts the seed 0 to 1 against the order, and the
    # triple scheme checks no link from the seed, so round 0's state cannot
    # prove the cycle: a later pass checks that link and breaks the chain
    ctx = PreorderCtx(finite_space([[0, 1], [1, 0]]), catalog.get_phi("table", values=[1, 0]))
    F = CoupledMap(lambda x, y: 1, name="one")
    g = SelfMap(lambda x: 1 - x, name="swap")
    h = SelfMap(lambda x: 1, name="lift")
    plain = triple_iterate(ctx, F, g, h, (0, 0))
    assert (plain.status, plain.cycle) == ("periodic", (0, 3))
    cfg = SolverConfig(verify_hypotheses=True)
    verified = triple_iterate(ctx, F, g, h, (0, 0), cfg)
    assert verified.status == "hypothesis_violated"
    v = verified.violation
    assert (v.condition, v.index, v.witness) == ("chain", 4, (0, 1, 0, 1))
    strict = triple_iterate(ctx, F, g, h, (0, 0), cfg, strict_seed=True)
    assert (strict.status, strict.violation.condition) == ("hypothesis_violated", "seed")


def test_kmap_is_experimental_only_beyond_two_maps(unit_ctx):
    for k, experimental in ((1, False), (2, False), (3, True)):
        report = kmap_round_robin(unit_ctx, F_MAX, [PULL] * k, (0.0, 0.0))
        assert report.experimental is experimental
        assert report.as_dict()["experimental"] is experimental
