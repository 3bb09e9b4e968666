"""In-memory span tracer for the per-layer metrics.

The tracer replaces qpfix functions and methods with thin wrappers for the
length of a traced pass.  A module-level function is replaced under every
name that refers to it in any loaded ``qpfix`` module (``qpfix.oracle``
imports ``couple_iterate`` from ``qpfix.solvers``, so both attributes are
swapped), which is what makes the nested calls inside ``oracle_vs_solver``
and ``cli.main`` visible.  Methods are replaced on their class.

Two kinds of wrapper exist.  A *span* records ``[name, start_ns, end_ns,
parent, item]`` and may run a hook on the result to add counts.  A *counter*
only bumps a count; it is used for the functions called hundreds of
thousands of times per run (``QPSpace.require``, ``induced_leq``), whose
time stays in the enclosing span's self time.  Nothing is recorded outside
an item, so set-up and the correctness checks leave no trace.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

ITEM = "item"

SOLVER_SPANS = (
    "solvers.couple_iterate",
    "solvers.pair_iterate",
    "solvers.triple_iterate",
    "solvers.kmap_round_robin",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or None, item id]
        self.counts = defaultdict(int)
        self._stack = []
        self._item = None
        self._patches = []  # (owner, attribute, original value)

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def item(self, item_id):
        """Root span of one workload item; counts and spans need one open."""
        self._item = item_id
        rec = [ITEM, time.perf_counter_ns(), 0, None, item_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self._item = None

    def _span_wrapper(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, time.perf_counter_ns(), 0, stack[-1], self._item]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._item is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self, package, spec):
        """Wrap every ``(module, attribute path, kind, metric name, hook)``
        of ``spec`` that exists in ``package``; returns the names missing."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        missing = []
        for module_name, path, kind, name, hook in spec:
            owner = sys.modules.get(f"{package}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            if kind == "span":
                wrapper = self._span_wrapper(name, original, hook)
            else:
                wrapper = self._count_wrapper(name, original)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    # dispatch tables (a scheme name -> solver dict, say) hold
                    # the function itself, not the name it is imported under
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper)
        return missing

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


# -- span arithmetic -------------------------------------------------------


def self_times(spans):
    """Self time of every span in ns: its duration minus the part of its
    interval that the union of its direct children covers."""
    children = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[3] is not None:
            children[rec[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def self_sum_gaps(spans, selfs):
    """Per item, |sum of self times - duration of the item's root span|."""
    total = defaultdict(int)
    root = {}
    for rec, s in zip(spans, selfs):
        total[rec[4]] += s
        if rec[0] == ITEM:
            root[rec[4]] = rec[2] - rec[1]
    return {item: abs(total[item] - dur) for item, dur in root.items()}


# -- hooks: counts taken where the work happens -----------------------------


def _ancestors(tracer, idx):
    p = tracer.spans[idx][3]
    while p is not None:
        yield tracer.spans[p][0]
        p = tracer.spans[p][3]


def _cross_cells(t, idx, args, kwargs, result):
    t.counts["spaces.cross.cells"] += int(getattr(result, "size", 0))


def _isotone(t, idx, args, kwargs, result):
    t.counts["order.isotone.checked"] += result.checked
    t.counts["order.isotone.applicable"] += result.applicable


def _related(t, idx, args, kwargs, result):
    t.counts["relations.pairs_checked"] += result.checked
    t.counts["relations.violations"] += len(result.violations)


def _solver(t, idx, args, kwargs, result):
    in_oracle = False
    for name in _ancestors(t, idx):
        if name in SOLVER_SPANS:
            return  # delegated run (kmap with no self maps): counted by the caller
        in_oracle = in_oracle or name == "oracle.oracle_vs_solver"
    rec = t.spans[idx]
    mode = "on" if result.config.verify_hypotheses else "off"
    c = t.counts
    c["solvers.runs"] += 1
    c["solvers.indices"] += result.iterations
    c[f"solvers.indices.verify_{mode}"] += result.iterations
    c[f"solvers.ns.verify_{mode}"] += rec[2] - rec[1]
    if result.status == "converged":
        c["solvers.converged"] += 1
        if in_oracle:
            c["oracle.replayed_rows"] += len(result.trace.rows) - 1
    elif result.status == "max_iter":
        c["solvers.max_iter_runs"] += 1


def _carrier_pairs(space):
    size = getattr(space.carrier, "size", 0)
    return size * size


def _enumerate(t, idx, args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    t.counts["oracle.pairs_scanned"] += _carrier_pairs(space)


def _agreement(t, idx, args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    t.counts["oracle.seed_candidates"] += _carrier_pairs(space)
    t.counts["oracle.seeds_admitted"] += result.runs


def _cli_exit(t, idx, args, kwargs, result):
    t.counts[f"cli.exit.{result}"] += 1


# (module, attribute path, kind, span or count name, hook)
SPEC = [
    ("spaces", "QPSpace.require", "count", "spaces.require.calls", None),
    ("spaces", "QPSpace.dist", "count", "spaces.dist.calls", None),
    ("spaces", "QPSpace.sup_dist", "count", "spaces.dist.calls", None),
    ("spaces", "QPSpace.cross", "span", "spaces.cross", _cross_cells),
    ("spaces", "check_axioms", "span", "spaces.check_axioms", None),
    ("spaces", "check_T0", "span", "spaces.check_T0", None),
    ("spaces", "space_from_json", "span", "spaces.space_from_json", None),
    ("order", "induced_leq", "count", "order.induced_leq.calls", None),
    ("order", "relation_matrix", "span", "order.relation_matrix", None),
    ("order", "check_preorder_laws", "span", "order.check_preorder_laws", None),
    ("order", "check_isotone", "span", "order.check_isotone", _isotone),
    ("order", "seed_search", "span", "order.seed_search", None),
    ("order", "check_phi_bound", "span", "order.check_phi_bound", None),
    ("sequences", "classify_cauchy", "span", "sequences.classify_cauchy", None),
    ("sequences", "classify_ladder", "span", "sequences.classify_ladder", None),
    ("sequences", "detect_limit", "span", "sequences.detect_limit", None),
    ("sequences", "check_implication_chain", "span", "sequences.check_implication_chain", None),
    ("relations", "relate_pair_left", "count", "relations.relate_pair.calls", None),
    ("relations", "relate_pair_right", "count", "relations.relate_pair.calls", None),
    ("relations", "check_weakly_left_related", "span", "relations.check_weakly_related", _related),
    ("relations", "check_weakly_right_related", "span", "relations.check_weakly_related", _related),
    ("solvers", "couple_iterate", "span", "solvers.couple_iterate", _solver),
    ("solvers", "pair_iterate", "span", "solvers.pair_iterate", _solver),
    ("solvers", "triple_iterate", "span", "solvers.triple_iterate", _solver),
    ("solvers", "kmap_round_robin", "span", "solvers.kmap_round_robin", _solver),
    ("solvers", "verify_point", "span", "solvers.verify_point", None),
    ("oracle", "enumerate_points", "span", "oracle.enumerate_points", _enumerate),
    ("oracle", "oracle_vs_solver", "span", "oracle.oracle_vs_solver", _agreement),
    ("catalog", "get_space", "span", "catalog.build", None),
    ("catalog", "get_phi", "span", "catalog.build", None),
    ("catalog", "get_map", "span", "catalog.build", None),
    ("cli", "main", "span", "cli.main", _cli_exit),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, items):
    """Per-layer metrics as ``name -> (value, unit)``; totals are per traced item."""
    selfs = self_times(tracer.spans)
    self_ns = defaultdict(int)
    for rec, s in zip(tracer.spans, selfs):
        self_ns[rec[0]] += s
    c = tracer.counts
    classify_calls = sum(1 for rec in tracer.spans if rec[0] == "sequences.classify_cauchy")
    per_item = lambda v: (v / items, "count/item")
    ms = lambda name: (self_ns[name] / 1e6 / items, "ms/item")
    ratio = lambda num, den: (_ratio(c[num], c[den]), "ratio")
    us_per_index = lambda mode: (_ratio(
        c[f"solvers.ns.verify_{mode}"] / 1e3, c[f"solvers.indices.verify_{mode}"]
    ), "us")
    return {
        "spaces.require.calls": per_item(c["spaces.require.calls"]),
        "spaces.dist.calls": per_item(c["spaces.dist.calls"]),
        "spaces.cross.cells": per_item(c["spaces.cross.cells"]),
        "spaces.cross.self_ms": ms("spaces.cross"),
        "spaces.check_axioms.self_ms": ms("spaces.check_axioms"),
        "order.check_isotone.self_ms": ms("order.check_isotone"),
        "order.check_isotone.applicable_ratio": ratio(
            "order.isotone.applicable", "order.isotone.checked"
        ),
        "order.induced_leq.calls": per_item(c["order.induced_leq.calls"]),
        "order.relation_matrix.self_ms": ms("order.relation_matrix"),
        "order.seed_search.self_ms": ms("order.seed_search"),
        "order.check_preorder_laws.self_ms": ms("order.check_preorder_laws"),
        "sequences.classify_cauchy.calls": per_item(classify_calls),
        "sequences.classify_cauchy.self_ms": ms("sequences.classify_cauchy"),
        "sequences.detect_limit.self_ms": ms("sequences.detect_limit"),
        "sequences.check_implication_chain.self_ms": ms("sequences.check_implication_chain"),
        "relations.relate_pair.calls": per_item(c["relations.relate_pair.calls"]),
        "relations.check_weakly_related.self_ms": ms("relations.check_weakly_related"),
        "relations.pairs_checked": per_item(c["relations.pairs_checked"]),
        "relations.violation_ratio": ratio("relations.violations", "relations.pairs_checked"),
        "solvers.runs": per_item(c["solvers.runs"]),
        "solvers.indices": per_item(c["solvers.indices"]),
        "solvers.us_per_index.verify_off": us_per_index("off"),
        "solvers.us_per_index.verify_on": us_per_index("on"),
        "solvers.converged_ratio": ratio("solvers.converged", "solvers.runs"),
        "solvers.max_iter_runs": per_item(c["solvers.max_iter_runs"]),
        "oracle.enumerate_points.self_ms": ms("oracle.enumerate_points"),
        "oracle.pairs_scanned": per_item(c["oracle.pairs_scanned"]),
        "oracle.oracle_vs_solver.self_ms": ms("oracle.oracle_vs_solver"),
        "oracle.seed_admit_ratio": ratio("oracle.seeds_admitted", "oracle.seed_candidates"),
        "oracle.replayed_rows": per_item(c["oracle.replayed_rows"]),
        "catalog.build.self_ms": ms("catalog.build"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.exit.0": per_item(c["cli.exit.0"]),
        "cli.exit.1": per_item(c["cli.exit.1"]),
        "cli.exit.2": per_item(c["cli.exit.2"]),
    }


def write_spans(spans, path):
    """Write the spans kept in memory as CSV, one line per span."""
    selfs = self_times(spans)
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,item,self_ns\n")
        for idx, (rec, s) in enumerate(zip(spans, selfs)):
            parent = "" if rec[3] is None else rec[3]
            fh.write(f"{idx},{rec[0]},{rec[1]},{rec[2]},{parent},{rec[4]},{s}\n")
