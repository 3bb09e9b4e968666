"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = ("spaces", "order", "sequences", "relations", "solvers", "oracle", "catalog", "cli")


@pytest.fixture(scope="module")
def m():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"qpfix.{name}") for name in MODULES}
    )


def _describe(name, pool, workdir):
    """Plain-data description of generated inputs, for comparison."""
    out = []
    for inp in pool:
        if name == "campaign":
            n = inp["space"].carrier.size
            out.append((
                inp["space"].matrix.tolist(),
                [inp["ctx"].phi(i) for i in range(n)],
                [[inp["coupled"](a, b) for b in range(n)] for a in range(n)],
                [[g(i) for i in range(n)] for g in inp["maps"]],
            ))
        elif name == "model":
            configs = []
            for _, path, _ in inp["commands"]:
                with open(path) as fh:
                    configs.append(json.load(fh))
            out.append(json.dumps(configs, sort_keys=True).replace(workdir, ""))
        else:
            space = inp["space"]
            out.append((
                inp["points"],
                inp["candidates"],
                space.matrix.tolist() if space.is_finite else space.name,
            ))
    return out


@pytest.mark.parametrize("name,size", [("campaign", 12), ("model", 22), ("cauchy", 18)])
def test_same_seed_gives_identical_inputs(m, tmp_path, name, size):
    generate = getattr(wl, f"{name}_generate")
    runs = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workdir = str(tmp_path / sub)
        os.makedirs(workdir)
        pool = generate(m, np.random.default_rng(seed), size, workdir)
        if name == "model":
            wl.model_write(pool)
        runs.append(_describe(name, pool, workdir))
    assert len(runs[0]) == size
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_relabelled_instance_is_isomorphic(m):
    a = wl.relabelled_instance(m, np.random.default_rng(5), np.random.default_rng(1), 9, 2)
    b = wl.relabelled_instance(m, np.random.default_rng(5), np.random.default_rng(2), 9, 2)
    assert a["matrix"] != b["matrix"]
    seeds = [reference.admissible_seeds(x["matrix"], x["phi"], x["table"]) for x in (a, b)]
    assert len(seeds[0]) == len(seeds[1])
    assert sorted(map(sorted, a["matrix"])) == sorted(map(sorted, b["matrix"]))


# -- naive Cauchy reference -------------------------------------------------


def _flags(matrix, points, eps):
    return reference.k_flags(reference.distance("finite", matrix), points, [eps])[eps]


def test_k_flags_hand_case_t0():
    # d(0, 1) = 1, d(1, 0) = 2; horizon 6, so n0 may be at most 3
    matrix = [[0.0, 1.0], [2.0, 0.0]]
    pts = (0, 1, 0, 1, 1, 1)
    # last bad start is k = 2 in every direction, so n0 = 3
    assert _flags(matrix, pts, 0.5) == {
        "left_K": True, "right_K": True, "d_s": True, "n0": 3, "right_n0": 3,
    }
    assert _flags(matrix, pts, 3.0)["n0"] == 0
    # horizon 4 caps n0 at 2; left needs 3 (pair (1, 0) at k = 2 has d = 2)
    assert _flags(matrix, (1, 0, 1, 0), 0.5) == {
        "left_K": False, "right_K": False, "d_s": False, "n0": None, "right_n0": None,
    }


def test_k_flags_hand_case_non_t0():
    # two distinct points that the distance cannot separate
    matrix = [[0.0, 0.0], [0.0, 0.0]]
    assert _flags(matrix, (0, 1, 0, 1, 0), 0.001) == {
        "left_K": True, "right_K": True, "d_s": True, "n0": 0, "right_n0": 0,
    }


def test_k_flags_hand_case_interval():
    d = reference.distance("upper_interval")  # max(x - y, 0)
    want = reference.k_flags(d, (1.0, 0.5, 0.25), [0.5])[0.5]
    # left: d(x_0, x_1) = 0.5 and d(x_0, x_2) = 0.75 are not < 0.5, so n0 = 1 = N // 2
    assert want == {"left_K": True, "right_K": True, "d_s": True, "n0": 1, "right_n0": 0}
    want = reference.k_flags(d, (1.0, 0.5, 0.25), [0.2])[0.2]
    assert (want["left_K"], want["right_K"], want["d_s"]) == (False, True, False)


def test_k_flags_agree_with_classifier_on_hand_cases(m):
    cases = [
        ([[0.0, 1.0], [2.0, 0.0]], (0, 1, 0, 1, 1, 1)),
        ([[0.0, 1.0], [2.0, 0.0]], (1, 0, 1, 0)),
        ([[0.0, 0.0], [0.0, 0.0]], (0, 1, 0, 1, 0)),
    ]
    for matrix, pts in cases:
        window = m.sequences.SequenceWindow(pts, m.spaces.finite_space(matrix))
        for eps in (0.5, 3.0):
            v = m.sequences.classify_cauchy(window, eps)
            want = _flags(matrix, pts, eps)
            assert (v.left_K.holds, v.right_K.holds, v.d_s.holds, v.n0) == (
                want["left_K"], want["right_K"], want["d_s"], want["n0"])


# -- span arithmetic ----------------------------------------------------------


def test_self_times_on_nested_spans():
    spans = [
        ["item", 0, 100, None, 0],
        ["a", 10, 40, 0, 0],
        ["a.child", 20, 30, 1, 0],
        ["b", 50, 60, 0, 0],
        ["item", 200, 260, None, 1],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [60, 20, 10, 10, 60]
    assert tracing.self_sum_gaps(spans, selfs) == {0: 0, 1: 0}


def test_self_times_count_overlapping_children_once():
    spans = [["p", 0, 100, None, 0], ["c1", 10, 40, 0, 0], ["c2", 30, 50, 0, 0]]
    assert tracing.self_times(spans)[0] == 60


def test_tracer_covers_nested_calls_and_restores(m, tmp_path):
    pool = wl.campaign_generate(m, np.random.default_rng(3), 6, str(tmp_path))
    original = m.oracle.couple_iterate
    tracer = tracing.Tracer()
    assert tracer.install("qpfix", tracing.SPEC) == []
    try:
        assert m.oracle.couple_iterate is not original
        for i, inp in enumerate(pool):
            with tracer.item(i):
                wl.campaign_run(m, inp)
    finally:
        tracer.uninstall()
    assert m.oracle.couple_iterate is original
    assert m.solvers.couple_iterate is original
    names = {rec[0] for rec in tracer.spans}
    assert {"item", "oracle.oracle_vs_solver", "oracle.enumerate_points"} <= names
    assert tracer.counts["spaces.require.calls"] > 0
    gaps = tracing.self_sum_gaps(tracer.spans, tracing.self_times(tracer.spans))
    assert len(gaps) == len(pool) and not any(gaps.values())
