"""The three workloads: seeded inputs, the timed item, and the checks.

Every workload provides

- ``generate(m, rng, size, workdir)``: ``size`` inputs, built in set-up
  from the seeded generator ``rng``; the same seed gives the same inputs.
  ``model_write`` then writes the model configs, outside the timed set-up.
  The choices that set an item's cost (carrier size, scheme, horizon, ...)
  are stratified, so that seeds differ in content but not in mix.  Finite
  instances whose cost hangs on their random structure come from a fixed
  corpus and are relabelled by ``rng`` (see ``relabelled_instance``).
- ``run(m, inp)``: one item, the only code that is timed.  Library calls
  go through module attributes (``m.oracle.oracle_vs_solver``) so that the
  tracer's wrappers are seen.
- ``output(inp, raw)``: the item's canonical JSON-able output, for the
  digest.
- ``check(m, inp, out, naive)``: mismatches against references written
  in ``reference.py`` from the definitions.  Run outside the timed
  region; ``naive`` marks the fixed sample that gets the costly checks.

``m`` is a namespace holding the freshly imported ``qpfix`` modules.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference

# -- finite instances shared by campaign and model ----------------------------

# Finite instances come from these fixed seeds; --seed renames their points.
CAMPAIGN_CORPUS_SEED = 1411_3378
MODEL_CORPUS_SEED = 1982


def relabelled_instance(m, corpus, rng, n, k, t0=True):
    """A generator-made finite instance as plain data, with its points
    renamed by a permutation drawn from ``rng``.

    The instance (space, potential, coupled map on an order chain, k chain
    self maps) comes from the public generators driven by ``corpus``.  The
    renamed instance is isomorphic to it, so every seed does the same work
    (the same admissible seeds, tuples and iteration counts) on different
    inputs with different outputs.
    """
    space = m.oracle.random_finite_space(corpus, n, t0=t0)
    phi = m.oracle.random_phi_table(corpus, n)
    ctx = m.order.PreorderCtx(space, phi, slack=0.0)
    chain = m.oracle.order_chain(ctx)
    coupled = m.oracle.random_isotone_coupled(corpus, ctx, chain)
    gs = [m.oracle.random_chain_selfmap(corpus, ctx, chain) for _ in range(k)]
    new = [int(v) for v in rng.permutation(n)]  # point p is renamed new[p]
    old = [0] * n
    for p, q in enumerate(new):
        old[q] = p
    pts = range(n)
    return {
        "matrix": [[float(space.matrix[old[a], old[b]]) for b in pts] for a in pts],
        "phi": [phi(old[q]) for q in pts],
        "table": [[new[coupled(old[a], old[b])] for b in pts] for a in pts],
        "selfmaps": [[new[g(old[q])] for q in pts] for g in gs],
    }


# -- campaign ----------------------------------------------------------------

CAMPAIGN_SIZES = range(2, 33)
CAMPAIGN_MAP_COUNTS = range(0, 4)


def campaign_generate(m, rng, size, workdir):
    """``size`` corpus instances, relabelled and rebuilt through the catalog,
    in seeded order.  Carrier sizes spread evenly over 2..32 whatever
    ``size`` is, and the self-map count cycles through 0..3."""
    corpus = np.random.default_rng(CAMPAIGN_CORPUS_SEED)
    lo, hi = CAMPAIGN_SIZES[0], CAMPAIGN_SIZES[-1]
    cfg = m.solvers.SolverConfig(tol=1e-9, max_iter=200)
    items = []
    for i in range(size):
        n = lo + (i * (hi - lo + 1)) // size
        k = CAMPAIGN_MAP_COUNTS[i % len(CAMPAIGN_MAP_COUNTS)]
        data = relabelled_instance(m, corpus, rng, n, k)
        space = m.catalog.get_space("finite", matrix=data["matrix"])
        ctx = m.order.PreorderCtx(
            space, m.catalog.get_phi("table", values=data["phi"]), slack=0.0
        )
        items.append({
            "space": space,
            "ctx": ctx,
            "coupled": m.catalog.get_map("coupled_table", matrix=data["table"]),
            "maps": [m.catalog.get_map("table", values=v) for v in data["selfmaps"]],
            "cfg": cfg,
            "data": data,
        })
    return [items[i] for i in rng.permutation(size)]


def campaign_run(m, inp):
    report = m.oracle.oracle_vs_solver(
        inp["space"], inp["ctx"], inp["coupled"], inp["maps"], inp["cfg"]
    )
    return report.as_dict()


def campaign_output(inp, raw):
    return raw


def campaign_check(m, inp, out, naive):
    """Zero disagreements, and exactly the admissible seeds of the definition."""
    data = inp["data"]
    bad = []
    if out["disagreements"]:
        bad.append(f"{len(out['disagreements'])} oracle disagreements")
    want = reference.admissible_seeds(data["matrix"], data["phi"], data["table"], slack=0.0)
    if [tuple(s) for s in out["seeds"]] != want:
        bad.append("admissible seeds differ from the definition")
    if not 0 <= out["converged"] <= out["runs"] == len(want):
        bad.append("run counts are inconsistent")
    return bad


# -- model -------------------------------------------------------------------

INTERVAL_SPACES = ("upper_interval", "lower_interval")
PHIS = ("identity", "arctan", "neg_exp")
COUPLED_MAPS = (
    "coupled_max", "coupled_min", "coupled_affine", "coupled_product", "coupled_projection",
)
SELF_MAPS = ("affine_pull", "halve", "sqrt_pull", "cbrt_pull", "identity", "step")
SCHEMES = {"single": 0, "pair": 1, "triple": 2, "kmap": 3}
FINITE_SIZES = range(2, 12)  # check_isotone scans at most 11**4 tuples
METRIC_MODES = ("plain", "symmetrized")
SOLVER = {"tol": 1e-9, "max_iter": 2000, "verify_hypotheses": True}
COMMANDS = ("check-space", "check-order", "check-relations", "solve")
EXPECTED_LABEL = {"single": "E1", "pair": "E3", "triple": "D2", "kmap": "D2"}


def _q(v):
    """Round down to a multiple of 1/64, so parameters are exact in binary."""
    return math.floor(v * 64) / 64


def _interval_coupled(rng):
    name = str(rng.choice(COUPLED_MAPS))
    if name != "coupled_affine":
        return {"id": name}
    a, b = _q(rng.uniform(0, 0.5)), _q(rng.uniform(0, 0.5))
    return {"id": name, "a": a, "b": b, "c": _q(rng.uniform(0, 1 - a - b))}


def _interval_selfmap(rng):
    name = str(rng.choice(SELF_MAPS))
    if name == "affine_pull":
        a = _q(rng.uniform(0, 1))
        return {"id": name, "a": a, "b": _q(rng.uniform(0, 1 - a))}
    if name == "step":
        low = _q(rng.uniform(0, 1))
        return {
            "id": name,
            "threshold": _q(rng.uniform(0, 1)),
            "low": low,
            "high": _q(rng.uniform(low, 1)),
        }
    return {"id": name}


def _interval_model(rng, space_id, phi, metric_mode, scheme):
    k = SCHEMES[scheme]
    selfmaps = [_interval_selfmap(rng) for _ in range(k)]
    return {
        "space": {"id": space_id, "lo": 0.0, "hi": 1.0},
        "phi": {"id": phi},
        "coupled": _interval_coupled(rng),
        "selfmaps": selfmaps,
        "relmap": selfmaps[0] if selfmaps else _interval_selfmap(rng),
        "metric_mode": metric_mode,
        "direction": "reverse" if rng.random() < 0.25 else "forward",
        "slack": 1e-12,
        "finite": False,
    }


def _finite_model(m, corpus, rng, n, scheme):
    k = SCHEMES[scheme]
    data = relabelled_instance(m, corpus, rng, n, max(k, 1), t0=bool(corpus.integers(0, 2)))
    selfmaps = [{"id": "table", "values": v} for v in data["selfmaps"]]
    return {
        "space": {"kind": "finite", "n": n, "matrix": data["matrix"]},
        "phi": {"id": "table", "values": data["phi"]},
        "coupled": {"id": "coupled_table", "matrix": data["table"]},
        "selfmaps": selfmaps[:k],
        "relmap": selfmaps[0],
        "metric_mode": "plain",
        "direction": "reverse" if corpus.random() < 0.25 else "forward",
        "slack": 0.0,
        "finite": True,
    }


def model_generate(m, rng, size, workdir):
    """Interval models drawn afresh from ``rng``, with the choices that set
    the cost of ``check_isotone`` (space, potential, metric mode)
    stratified; finite models of every size from the fixed corpus,
    relabelled."""
    corpus = np.random.default_rng(MODEL_CORPUS_SEED)
    strata = [
        ("interval", (space_id, phi, mode))
        for space_id in INTERVAL_SPACES
        for phi in PHIS
        for mode in METRIC_MODES
    ] + [("finite", n) for n in FINITE_SIZES]
    strata = strata * (size // len(strata))
    models = []
    for kind, params in strata:
        if kind == "interval":
            scheme = str(rng.choice(list(SCHEMES)))
            models.append(_interval_model(rng, *params, scheme))
        else:
            scheme = str(corpus.choice(list(SCHEMES)))
            models.append(_finite_model(m, corpus, rng, params, scheme))
        models[-1]["scheme"] = scheme
    items = []
    for pos in rng.permutation(len(models)):
        model = models[pos]
        scheme = model["scheme"]
        base = os.path.join(workdir, f"m{len(items)}")
        common = {"schema": "1", "space": model["space"]}
        ordered = {**common, "phi": model["phi"], "slack": model["slack"]}
        sample = "exhaustive" if model["finite"] else "default"
        maps = [model["coupled"], *model["selfmaps"]]
        configs = {
            "check-space": {**common, "sample": sample},
            "check-order": {
                **ordered, "maps": maps, "sample": sample,
                "metric_mode": model["metric_mode"],
            },
            "check-relations": {
                **ordered, "maps": [model["coupled"], model["relmap"]],
                "relation": "left" if model["direction"] == "forward" else "right",
                "metric_mode": model["metric_mode"],
            },
            "solve": {
                **ordered, "maps": maps, "scheme": scheme, "seed_pair": "search",
                "solver": {
                    **SOLVER,
                    "direction": model["direction"],
                    "metric_mode": model["metric_mode"],
                },
            },
        }
        model["configs"] = {
            os.path.join(base, f"{cmd}.json"): dict(
                configs[cmd], output_dir=os.path.join(base, cmd)
            )
            for cmd in COMMANDS
        }
        model["commands"] = [
            (cmd, os.path.join(base, f"{cmd}.json"), os.path.join(base, cmd))
            for cmd in COMMANDS
        ]
        items.append(model)
    return items


def model_write(pool):
    """Write every model's config files.  Kept out of the timed set-up: it
    is the benchmark's own file I/O, and on a shared host its latency swings
    more than the set-up work itself."""
    for model in pool:
        for path, cfg in model["configs"].items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(cfg, fh)


def model_run(m, inp):
    return [m.cli.main([cmd, "--config", path]) for cmd, path, _ in inp["commands"]]


def _read(path):
    with open(path) as fh:
        return fh.read()


def model_output(inp, raw):
    out = {"exit": raw}
    for cmd, _, out_dir in inp["commands"]:
        out[cmd] = json.loads(_read(os.path.join(out_dir, "report.json")))
        trace = os.path.join(out_dir, "trace.csv")
        if cmd == "solve" and os.path.exists(trace):
            out["trace"] = _read(trace)
    return out


def model_bytes(inp):
    total = 0
    for _, _, out_dir in inp["commands"]:
        for name in os.listdir(out_dir):
            total += os.path.getsize(os.path.join(out_dir, name))
    return total


def _label(m, inp, candidate):
    """Strongest label ``verify_point`` gives the candidate, on the model
    rebuilt from its config through the catalog."""
    spec = dict(inp["space"])
    if "kind" in spec:
        space = m.spaces.space_from_json(spec)
    else:
        space = m.catalog.get_space(spec.pop("id"), **spec)
    phi_spec = dict(inp["phi"])
    phi = m.catalog.get_phi(phi_spec.pop("id"), **phi_spec)
    ctx = m.order.PreorderCtx(space, phi, metric_mode=inp["metric_mode"], slack=inp["slack"])
    maps = []
    for spec in [inp["coupled"], *inp["selfmaps"]]:
        params = dict(spec)
        maps.append(m.catalog.get_map(params.pop("id"), **params))
    x, y = candidate
    return m.solvers.verify_point(ctx, maps[0], maps[1:], x, y, tol=SOLVER["tol"]).strongest


def model_check(m, inp, out, naive):
    """Exit codes in {0, 1}; a converged solve replays row by row under the
    scheme's recurrence and its candidate gets the label the scheme promises."""
    bad = [f"{cmd} exited {rc}" for (cmd, _, _), rc in zip(inp["commands"], out["exit"])
           if rc not in (0, 1)]
    report = out["solve"]
    if report.get("status") != "converged":
        return bad
    rows = list(csv.DictReader(out["trace"].splitlines()))
    parse = int if inp["finite"] else float
    pts = [(parse(r["x"]), parse(r["y"])) for r in rows]
    coupled = reference.make_coupled(inp["coupled"])
    selfmaps = [reference.make_selfmap(s) for s in inp["selfmaps"]]
    tol = 0 if inp["finite"] else 1e-12
    schedule = reference.schedule(inp["scheme"], len(selfmaps))
    for n in range(1, len(rows)):
        label, idx = schedule(n)
        (px, py), (x, y) = pts[n - 1], pts[n]
        if idx is None:
            ex, ey = coupled(px, py), coupled(py, px)
        else:
            ex, ey = selfmaps[idx](px), selfmaps[idx](py)
        if rows[n]["scheme_phase"] != label or abs(ex - x) > tol or abs(ey - y) > tol:
            bad.append(f"trace row {n} breaks the {inp['scheme']} recurrence")
            break
    if list(pts[-1]) != report["candidate"]:
        bad.append("candidate is not the last trace row")
    label = _label(m, inp, report["candidate"])
    if label != EXPECTED_LABEL[inp["scheme"]]:
        bad.append(f"candidate labelled {label}, scheme {inp['scheme']} promises "
                   f"{EXPECTED_LABEL[inp['scheme']]}")
    return bad


# -- cauchy ------------------------------------------------------------------

LADDER = (0.1, 0.01, 0.001)
HORIZONS = range(200, 1001, 100)
FINITE_KINDS = ("uniform", "eventually_constant", "alternating")
INTERVAL_KINDS = ("below", "above", "oscillating", "uniform")
LIMIT_MODES = ("left", "right", "symmetric")
RATES = {  # contraction rates; 1.0 never settles
    "below": (0.85, 0.9, 0.95, 0.99),
    "above": (0.85, 0.9, 0.95, 0.99),
    "oscillating": (0.9, 0.95, 0.99, 1.0),
    "uniform": (None,) * 4,
}
NAIVE_SAMPLE = 4  # windows per run checked against the plain-Python reference


def _finite_window(m, rng, kind, t0, length):
    n_pts = int(rng.integers(2, 17))
    space = m.oracle.random_finite_space(rng, n_pts, t0=t0)
    if kind == "uniform":
        idx = rng.integers(0, n_pts, size=length)
    elif kind == "eventually_constant":
        head = rng.integers(0, n_pts, size=length // 4)
        idx = list(head) + [int(rng.integers(0, n_pts))] * (length - length // 4)
    else:
        a, b = rng.integers(0, n_pts, size=2)
        idx = [a if k % 2 == 0 else b for k in range(length)]
    return {
        "space": space,
        "points": tuple(int(v) for v in idx),
        "candidates": space.points(),
        "dist": ("finite", space.matrix.tolist()),
    }


def _interval_window(m, rng, kind, rate, length):
    space_id = str(rng.choice(INTERVAL_SPACES))
    space = m.catalog.get_space(space_id, lo=0.0, hi=1.0)
    grid = space.grid()
    limit = grid[int(rng.integers(4, 17))]  # in [0.2, 0.8], on the default grid
    c = float(rng.uniform(0.05, 0.2))
    if kind == "uniform":
        pts = rng.uniform(0.0, 1.0, size=length).tolist()
    elif kind == "oscillating":
        pts = [limit + (-1) ** k * c * rate ** k for k in range(length)]
    else:
        sign = -1.0 if kind == "below" else 1.0
        pts = [limit + sign * c * rate ** k for k in range(length)]
    return {
        "space": space,
        "points": tuple(float(p) for p in pts),
        "candidates": grid,
        "dist": (space_id, None),
    }


def cauchy_generate(m, rng, size, workdir):
    """One finite and one interval window per horizon.  Kinds, T0 and the
    contraction rate rotate over the horizons; the rate sets how many
    window points stay distinct, hence the cost."""
    strata = []
    for i, h in enumerate(HORIZONS):
        strata.append(("finite", FINITE_KINDS[i % 3], i % 2 == 0, h))
        kind = INTERVAL_KINDS[i % 4]
        strata.append(("interval", kind, RATES[kind][(i // 4) % 4], h))
    strata = strata * (size // len(strata))
    items = []
    for pos in rng.permutation(len(strata)):
        side, kind, param, h = strata[pos]
        if side == "finite":
            items.append(_finite_window(m, rng, kind, param, h))
        else:
            items.append(_interval_window(m, rng, kind, param, h))
    return items


def cauchy_run(m, inp):
    seq = m.sequences
    window = seq.SequenceWindow(inp["points"], inp["space"])
    conj = seq.SequenceWindow(inp["points"], inp["space"].conjugate())
    ladder = seq.classify_ladder(window, LADDER)
    conj_ladder = seq.classify_ladder(conj, LADDER)
    chains = [
        seq.check_implication_chain(
            seq.classify_cauchy(window, eps), seq.classify_cauchy(conj, eps)
        ).as_dict()
        for eps in LADDER
    ]
    limits = {
        mode: seq.detect_limit(window, inp["candidates"], mode) for mode in LIMIT_MODES
    }
    return {"ladder": ladder, "conj_ladder": conj_ladder, "chains": chains, "limits": limits}


def cauchy_output(inp, raw):
    limits = {k: None if v is None else list(v) for k, v in raw["limits"].items()}
    return {**raw, "limits": limits}


def cauchy_check(m, inp, out, naive):
    bad = [f"rung {eps}: {c['inconsistencies']}" for eps, c in zip(LADDER, out["chains"])
           if not c["passed"]]
    if naive:
        kind, matrix = inp["dist"]
        d = reference.distance(kind, matrix)
        want = reference.k_flags(d, inp["points"], LADDER)
        for eps in LADDER:
            got = out["ladder"][repr(eps)]
            got_conj = out["conj_ladder"][repr(eps)]
            w = want[eps]
            if (got["left_K"]["holds"], got["right_K"]["holds"], got["d_s"]["holds"],
                    got["n0"]) != (w["left_K"], w["right_K"], w["d_s"], w["n0"]):
                bad.append(f"eps {eps}: K flags or n0 differ from the definition")
            # the conjugate swaps left and right; its n0 is the right-K start
            if (got_conj["left_K"]["holds"], got_conj["right_K"]["holds"],
                    got_conj["d_s"]["holds"], got_conj["n0"]) != (
                    w["right_K"], w["left_K"], w["d_s"], w["right_n0"]):
                bad.append(f"eps {eps}: conjugate K flags or n0 differ from the definition")
    return bad
