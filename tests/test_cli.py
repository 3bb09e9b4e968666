import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpfix import catalog, cli
from qpfix.cli import main


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


PAIR_CONFIG = {
    "schema": "1",
    "space": {"id": "upper_interval", "lo": 0.0, "hi": 1.0},
    "phi": {"id": "identity", "bound": 1.0},
    "maps": [{"id": "coupled_max"}, {"id": "affine_pull", "a": 0.5, "b": 0.5}],
    "scheme": "pair",
    "seed_pair": [0.0, 0.0],
    "solver": {"tol": 1e-9},
}


def test_solve_pair_writes_trace_and_report(tmp_path):
    out = str(tmp_path / "out")
    cfg = dict(PAIR_CONFIG, output_dir=out)
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 0
    report = _read_report(out)
    assert report["status"] == "converged"
    assert abs(report["candidate"][0] - 1.0) <= 1e-9
    assert report["trace_ref"] == "trace.csv"
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    final = rows[-1]
    assert abs(float(final[1]) - 1.0) <= 1e-9
    assert abs(float(final[2]) - 1.0) <= 1e-9


def test_solve_seed_search(tmp_path):
    out = str(tmp_path / "out")
    cfg = dict(PAIR_CONFIG, seed_pair="search", output_dir=out)
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 0
    assert _read_report(out)["status"] == "converged"


def test_solve_non_convergence_exits_one(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"id": "upper_interval"},
        "phi": {"id": "identity", "bound": 1.0},
        "maps": [{"id": "coupled_max"}, {"id": "halve"}],
        "scheme": "pair",
        "seed_pair": [0.5, 0.5],
        "solver": {"verify_hypotheses": True},
        "output_dir": out,
    }
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["status"] == "hypothesis_violated"
    assert report["violation"]["condition"] == "C1"


def test_solve_periodic_exits_one(tmp_path):
    out = str(tmp_path / "out")
    cfg = {  # F(x, y) = 1 - x on two points: (0, 0), (1, 1), (0, 0), ...
        "schema": "1",
        "space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
        "phi": {"id": "table", "values": [0, 0]},
        "maps": [{"id": "coupled_table", "matrix": [[1, 1], [0, 0]]}],
        "scheme": "single",
        "seed_pair": [0, 0],
        "solver": {"max_iter": 50},
        "output_dir": out,
    }
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["status"] == "periodic"
    assert report["candidate"] is None
    assert report["cycle"] == {"start": 0, "period": 2}
    assert report["iterations"] == 2
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        assert [r[1] for r in csv.reader(fh)] == ["x", "0", "1", "0"]


ESCAPE_CONFIG = {  # F(0, 0) = 2 leaves [0, 1]
    "schema": "1",
    "space": {"id": "upper_interval", "lo": 0.0, "hi": 1.0},
    "phi": {"id": "identity", "bound": 1.0},
    "maps": [{"id": "coupled_affine", "a": 0.25, "b": 0.25, "c": 2}],
    "scheme": "single",
}


def test_solve_reports_domain_escape(tmp_path):
    out = str(tmp_path / "out")
    cfg = dict(ESCAPE_CONFIG, seed_pair=[0.0, 0.0], output_dir=out)
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["status"] == "domain_escape"
    assert report["candidate"] is None
    assert report["residual_d"] == report["residual_dinv"] == report["residual_ds"] == {}
    v = report["violation"]
    assert (v["condition"], v["index"], v["map"]) == ("domain", 1, "F")
    assert v["witness"] == [0.0, 2.0, 0.0, 2.0]
    assert "2.0" in v["detail"]
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        assert len(list(csv.reader(fh))) == 2  # header and the seed row


def test_solve_seed_search_reports_domain_escape(tmp_path):
    out = str(tmp_path / "out")
    cfg = dict(ESCAPE_CONFIG, seed_pair="search", output_dir=out)
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["status"] == "domain_escape"
    assert "not in the carrier" in report["detail"]


def test_check_order_reports_domain_escape(tmp_path):
    out = str(tmp_path / "out")
    cfg = {k: ESCAPE_CONFIG[k] for k in ("schema", "space", "phi", "maps")}
    cfg["output_dir"] = out
    assert main(["check-order", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["passed"] is False
    assert report["laws"]["passed"]
    assert report["isotone"]["passed"] is False
    assert "point 2.0 is not in the carrier" in report["isotone"]["domain_escape"]


def test_check_relations_reports_domain_escape(tmp_path):
    out = str(tmp_path / "out")
    cfg = {k: ESCAPE_CONFIG[k] for k in ("schema", "space", "phi")}
    cfg.update(maps=ESCAPE_CONFIG["maps"] + [{"id": "identity"}], output_dir=out)
    assert main(["check-relations", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert (report["kind"], report["passed"]) == ("left", False)
    assert "point 2.0 is not in the carrier" in report["domain_escape"]


# an image that leaves the carrier before a map reads it used to end in a
# traceback (math domain error or IndexError); now it is a domain escape
AFFINE_OUT = {"id": "coupled_affine", "a": 0.25, "b": 0.25, "c": -0.5}  # F(0, 0) = -0.5
SQRT_CONFIG = {"schema": "1", "space": {"id": "upper_interval"}, "phi": {"id": "identity"},
               "maps": [AFFINE_OUT, {"id": "sqrt_pull"}]}
TABLE_CONFIG = {  # F(0, 0) = 5 is no point of three
    "schema": "1",
    "space": {"kind": "finite", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    "phi": {"id": "table", "values": [0, 0, 0]},
    "slack": 0,
    "maps": [{"id": "coupled_table", "matrix": [[5, 0, 0], [0, 0, 0], [0, 0, 0]]},
             {"id": "table", "values": [0, 1, 2]}],
}


@pytest.mark.parametrize("base, relation, point", [
    (SQRT_CONFIG, "left", "-0.5"),
    (SQRT_CONFIG, "right", "-0.5"),
    (TABLE_CONFIG, "left", "5"),
])
def test_check_relations_reports_an_image_escaping_before_it_is_read(tmp_path, base, relation,
                                                                     point):
    out = str(tmp_path / "out")
    cfg = dict(base, relation=relation, output_dir=out)
    code, err = _run(["check-relations", "--config", _write(tmp_path / "c.json", cfg)])
    assert (code, err) == (1, "")
    report = _read_report(out)
    assert (report["kind"], report["passed"]) == (relation, False)
    assert report["domain_escape"].startswith(f"point {point} is not in the carrier")


def test_verified_solve_reports_an_image_escaping_before_it_is_read(tmp_path):
    out = str(tmp_path / "out")
    cfg = dict(SQRT_CONFIG, maps=SQRT_CONFIG["maps"] + [{"id": "identity"}], scheme="triple",
               seed_pair=[0.5, 0.5], solver={"verify_hypotheses": True}, output_dir=out)
    code, err = _run(["solve", "--config", _write(tmp_path / "c.json", cfg)])
    assert (code, err) == (1, "")
    report = _read_report(out)
    assert report["status"] == "domain_escape"
    assert report["violation"]["detail"] == \
        "point -0.25 is not in the carrier of upper_interval[0.0,1.0]"


@pytest.mark.parametrize("output_dir", ["", "/dev/null/x"])
def test_an_output_dir_that_cannot_be_created_exits_two(tmp_path, output_dir):
    # these used to end in a FileNotFoundError or NotADirectoryError traceback
    cases = [("check-space", {"schema": "1", "space": {"id": "upper_interval"}}),
             ("solve", PAIR_CONFIG)]
    for cmd, base in cases:
        cfg = dict(base, output_dir=output_dir)
        code, err = _run([cmd, "--config", _write(tmp_path / "c.json", cfg)])
        assert code == 2 and err.startswith("config error:") and "output_dir" in err, (cmd, err)
        assert "Traceback" not in err


def test_check_space_planted_violation(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"kind": "finite", "n": 3, "matrix": [[0, 1, 5], [1, 0, 1], [1, 1, 0]]},
        "sample": "exhaustive",
        "output_dir": out,
    }
    assert main(["check-space", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert not report["passed"]
    assert report["axioms"]["triangle_violations"] == [[0, 1, 2, 5.0, 2.0]]


def test_check_space_good(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"id": "upper_interval"},
        "require_t0": True,
        "output_dir": out,
    }
    assert main(["check-space", "--config", _write(tmp_path / "c.json", cfg)]) == 0


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # usage errors before and after a valid command behave alike on one parser
    assert main(["check-space"]) == 2
    first = capsys.readouterr()
    cfg = {"schema": "1", "space": {"id": "upper_interval"}, "output_dir": str(tmp_path / "o")}
    assert main(["check-space", "--config", _write(tmp_path / "c.json", cfg)]) == 0
    assert _read_report(str(tmp_path / "o"))["axioms"]["passed"]
    capsys.readouterr()
    assert main(["check-space"]) == 2
    again = capsys.readouterr()
    assert "the following arguments are required: --config" in first.err
    assert (again.out, again.err) == (first.out, first.err)
    assert main(["nope"]) == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_check_order(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"id": "upper_interval"},
        "phi": {"id": "identity", "bound": 1.0},
        "maps": [{"id": "coupled_affine"}],
        "output_dir": out,
    }
    assert main(["check-order", "--config", _write(tmp_path / "c.json", cfg)]) == 0
    report = _read_report(out)
    assert report["laws"]["passed"] and report["isotone"]["passed"]


def test_check_relations(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"id": "upper_interval"},
        "phi": {"id": "identity", "bound": 1.0},
        "maps": [{"id": "coupled_max"}, {"id": "halve"}],
        "relation": "left",
        "output_dir": out,
    }
    assert main(["check-relations", "--config", _write(tmp_path / "c.json", cfg)]) == 1
    report = _read_report(out)
    assert report["violations"]
    assert report["violations"][0]["condition"] in ("C1", "C2")


def test_oracle_subcommand(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
        "maps": [{"id": "coupled_table", "matrix": [[1, 1], [1, 1]]}],
        "output_dir": out,
    }
    assert main(["oracle", "--config", _write(tmp_path / "c.json", cfg)]) == 0
    assert _read_report(out)["E1"] == [[1, 1]]


def test_oracle_rejects_table_image_outside_carrier(tmp_path, capsys):
    cfg = {
        "schema": "1",
        "space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
        "maps": [{"id": "coupled_table", "matrix": [[5, 0], [0, 1]]}],
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["oracle", "--config", _write(tmp_path / "c.json", cfg)]) == 2
    assert "coupled_table(0, 0) = 5" in capsys.readouterr().err


def test_compare_campaign(tmp_path):
    out = str(tmp_path / "out")
    cfg = {
        "schema": "1",
        "campaign": {"instances": 15, "max_points": 5},
        "output_dir": out,
    }
    path = _write(tmp_path / "c.json", cfg)
    assert main(["compare", "--config", path, "--seed", "42"]) == 0
    report = _read_report(out)
    assert report["passed"] and report["seed"] == 42


def test_compare_requires_seed(tmp_path):
    cfg = {"schema": "1", "campaign": {}, "output_dir": str(tmp_path / "o")}
    assert main(["compare", "--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_same_seed_produces_identical_bytes(tmp_path):
    cfg = {
        "schema": "1",
        "campaign": {"instances": 10, "max_points": 5},
        "output_dir": str(tmp_path / "a"),
    }
    main(["compare", "--config", _write(tmp_path / "c1.json", cfg), "--seed", "7"])
    cfg["output_dir"] = str(tmp_path / "b")
    main(["compare", "--config", _write(tmp_path / "c2.json", cfg), "--seed", "7"])
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["solve", "--config", _write(tmp_path / "s1.json", dict(PAIR_CONFIG, output_dir=out1))])
    main(["solve", "--config", _write(tmp_path / "s2.json", dict(PAIR_CONFIG, output_dir=out2))])
    for name in ("trace.csv", "report.json"):
        assert (Path(out1) / name).read_bytes() == (Path(out2) / name).read_bytes()


def test_config_error_paths(tmp_path):
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2
    # wrong schema version
    cfg = dict(PAIR_CONFIG, schema="2", output_dir=str(tmp_path / "o"))
    assert main(["solve", "--config", _write(tmp_path / "v.json", cfg)]) == 2
    # unknown field
    cfg = dict(PAIR_CONFIG, output_dir=str(tmp_path / "o"), typo_field=1)
    assert main(["solve", "--config", _write(tmp_path / "u.json", cfg)]) == 2
    # missing required field
    cfg = {k: v for k, v in PAIR_CONFIG.items() if k != "scheme"}
    cfg["output_dir"] = str(tmp_path / "o")
    assert main(["solve", "--config", _write(tmp_path / "m.json", cfg)]) == 2
    # scheme / map count mismatch
    cfg = dict(PAIR_CONFIG, scheme="triple", output_dir=str(tmp_path / "o"))
    assert main(["solve", "--config", _write(tmp_path / "t.json", cfg)]) == 2
    # unknown solver field
    cfg = dict(PAIR_CONFIG, solver={"tol": 1e-9, "warp": 9}, output_dir=str(tmp_path / "o"))
    assert main(["solve", "--config", _write(tmp_path / "w.json", cfg)]) == 2
    # seed_pair entries that are not numbers
    cfg = dict(PAIR_CONFIG, seed_pair=["a", 0], output_dir=str(tmp_path / "o"))
    assert main(["solve", "--config", _write(tmp_path / "s.json", cfg)]) == 2
    # seed_pair outside the carrier
    cfg = dict(PAIR_CONFIG, seed_pair=[0.0, 2.0], output_dir=str(tmp_path / "o"))
    assert main(["solve", "--config", _write(tmp_path / "sc.json", cfg)]) == 2
    # non-numeric slack and an unknown metric mode in check-order / check-relations
    order_cfg = {
        "schema": "1",
        "space": {"id": "upper_interval"},
        "phi": {"id": "identity", "bound": 1.0},
        "maps": [{"id": "coupled_max"}, {"id": "halve"}],
        "output_dir": str(tmp_path / "o"),
    }
    cfg = dict(order_cfg, slack="abc")
    assert main(["check-order", "--config", _write(tmp_path / "sl.json", cfg)]) == 2
    cfg = dict(order_cfg, slack=float("nan"))
    assert main(["check-order", "--config", _write(tmp_path / "sn.json", cfg)]) == 2
    cfg = dict(order_cfg, metric_mode="weird")
    assert main(["check-order", "--config", _write(tmp_path / "mo.json", cfg)]) == 2
    assert main(["check-relations", "--config", _write(tmp_path / "mr.json", cfg)]) == 2
    # sample specs that are unknown, not a list, outside the carrier, or
    # exhaustive on an interval; a relation that is not a string
    for sample in ("bogus", 3, [5.0], "exhaustive", [10**400]):
        cfg = dict(order_cfg, sample=sample)
        assert main(["check-order", "--config", _write(tmp_path / "sa.json", cfg)]) == 2
    cfg = {"schema": "1", "space": {"id": "upper_interval"}, "sample": "exhaustive",
           "output_dir": str(tmp_path / "o")}
    assert main(["check-space", "--config", _write(tmp_path / "se.json", cfg)]) == 2
    cfg = dict(order_cfg, relation=["left"])
    assert main(["check-relations", "--config", _write(tmp_path / "rl.json", cfg)]) == 2
    # a solver tol that the exact oracle cannot judge
    cfg = {"schema": "1", "campaign": {"instances": 5, "max_points": 4},
           "solver": {"tol": 0.6}, "output_dir": str(tmp_path / "o")}
    assert main(["compare", "--config", _write(tmp_path / "ct.json", cfg), "--seed", "1"]) == 2
    # compare campaign fields that are not counts, or out of range
    for camp in ({"instances": "x"}, {"min_points": "a"}, {"max_points": [3]},
                 {"map_counts": "x"}, {"map_counts": 3}, {"map_counts": []},
                 {"min_points": 5, "max_points": 3}, {"instances": -1}):
        cfg = {"schema": "1", "campaign": camp, "output_dir": str(tmp_path / "o")}
        assert main(["compare", "--config", _write(tmp_path / "cc.json", cfg), "--seed", "1"]) == 2
    # missing config file
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    # unknown subcommand
    assert main(["frobnicate", "--config", "x"]) == 2


def test_check_space_require_t0_must_be_a_json_boolean(tmp_path, capsys):
    # on a non-T0 space the string "false" used to read as true and exit 1;
    # on a T0 space the value is checked all the same
    non_t0 = {"kind": "finite", "n": 2, "matrix": [[0, 0], [0, 0]]}
    cfg = {"schema": "1", "space": non_t0, "output_dir": str(tmp_path / "o")}
    assert main(["check-space", "--config", _write(tmp_path / "ok.json", cfg)]) == 0
    for space in (non_t0, {"id": "upper_interval"}):
        for value in ("false", 0, None):
            path = _write(tmp_path / "t.json", dict(cfg, space=space, require_t0=value))
            assert main(["check-space", "--config", path]) == 2
            assert "require_t0 must be true or false" in capsys.readouterr().err


def test_solve_strict_seed_must_be_a_json_boolean(tmp_path):
    for value in ("false", 1):
        cfg = dict(PAIR_CONFIG, strict_seed=value, output_dir=str(tmp_path / "o"))
        assert main(["solve", "--config", _write(tmp_path / "s.json", cfg)]) == 2


def test_compare_campaign_counts_are_not_coerced(tmp_path, capsys):
    # "12" used to run map counts (1, 2), and 2.7 two instances
    for camp in ({"map_counts": "12"}, {"map_counts": [1.0]}, {"map_counts": [True]},
                 {"instances": 2.7}, {"instances": True}, {"min_points": 2.0},
                 {"max_points": "4"}):
        cfg = {"schema": "1", "campaign": camp, "output_dir": str(tmp_path / "o")}
        assert main(["compare", "--config", _write(tmp_path / "c.json", cfg), "--seed", "1"]) == 2
        assert "must be" in capsys.readouterr().err
    cfg = {"schema": "1", "campaign": {"instances": 2, "max_points": 3, "map_counts": [1]},
           "output_dir": str(tmp_path / "o")}
    assert main(["compare", "--config", _write(tmp_path / "c.json", cfg), "--seed", "1"]) == 0


def test_check_space_rejects_the_unread_grid_field(tmp_path, capsys):
    cfg = {"schema": "1", "space": {"id": "upper_interval"}, "grid": 5,
           "output_dir": str(tmp_path / "o")}
    assert main(["check-space", "--config", _write(tmp_path / "g.json", cfg)]) == 2
    assert "unknown config fields: ['grid']" in capsys.readouterr().err


def test_numbers_are_not_read_from_strings_or_booleans(tmp_path):
    cfg = {"schema": "1", "space": {"id": "upper_interval"}, "output_dir": str(tmp_path / "o")}
    for slack in ("0.5", True, 10**400):
        path = _write(tmp_path / "n.json", dict(cfg, slack=slack))
        assert main(["check-space", "--config", path]) == 2
    assert main(["check-space", "--config", _write(tmp_path / "i.json", dict(cfg, slack=1))]) == 0


FINITE_SOLVE = {
    "schema": "1",
    "space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
    "phi": {"id": "table", "values": [0, 0]},
    "maps": [{"id": "coupled_table", "matrix": [[0, 1], [1, 1]]}],
    "scheme": "single",
    "seed_pair": [0, 1],
}


def test_seed_pair_is_not_coerced(tmp_path, capsys):
    # [0.7, "1"] used to run from (0, 1) and [true, 0] from (1, 0), both exiting 0
    out = str(tmp_path / "o")
    for seed in ([0.7, "1"], [True, 0], [0.0, 1], [0, None]):
        path = _write(tmp_path / "f.json", dict(FINITE_SOLVE, seed_pair=seed, output_dir=out))
        assert main(["solve", "--config", path]) == 2
        assert "seed_pair must hold two integers" in capsys.readouterr().err
    for seed in (["0.5", 0.0], [True, 0.0], [0.0, None]):
        path = _write(tmp_path / "i.json", dict(PAIR_CONFIG, seed_pair=seed, output_dir=out))
        assert main(["solve", "--config", path]) == 2
        assert "seed_pair must hold two numbers" in capsys.readouterr().err
    path = _write(tmp_path / "b.json", dict(PAIR_CONFIG, seed_pair=[10**400, 0], output_dir=out))
    assert main(["solve", "--config", path]) == 2
    assert "is not in the carrier" in capsys.readouterr().err
    # integers on a finite carrier, and integers or floats on an interval, run
    path = _write(tmp_path / "f.json", dict(FINITE_SOLVE, seed_pair=[0, 1], output_dir=out))
    assert main(["solve", "--config", path]) == 0
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        assert list(csv.reader(fh))[1][:3] == ["0", "0", "1"]
    path = _write(tmp_path / "i.json", dict(PAIR_CONFIG, seed_pair=[0, 0.0], output_dir=out))
    assert main(["solve", "--config", path]) == 0
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        assert list(csv.reader(fh))[1][:3] == ["0", "0.0", "0.0"]


def test_catalog_tables_are_not_coerced(tmp_path, capsys):
    # 0.7 in a map table used to read as 0, "0.5" and true in a phi table as 0.5 and 1
    cfg = {k: FINITE_SOLVE[k] for k in ("schema", "space", "phi")}
    cfg.update(maps=[FINITE_SOLVE["maps"][0], {"id": "table", "values": [1, 0]}],
               output_dir=str(tmp_path / "o"))
    path = _write(tmp_path / "ok.json", cfg)
    assert main(["check-relations", "--config", path]) in (0, 1)
    coupled, table = cfg["maps"]
    for maps, phi in [
        ([{"id": "coupled_table", "matrix": [[0.7, 1], [1, 1]]}, table], cfg["phi"]),
        ([{"id": "coupled_table", "matrix": [[False, 1], [1, 1]]}, table], cfg["phi"]),
        ([coupled, {"id": "table", "values": [0.7, 0]}], cfg["phi"]),
        ([coupled, {"id": "table", "values": ["1", 0]}], cfg["phi"]),
        ([coupled, table], {"id": "table", "values": ["0.5", 0]}),
        ([coupled, table], {"id": "table", "values": [True, 0]}),
    ]:
        path = _write(tmp_path / "c.json", dict(cfg, maps=maps, phi=phi))
        assert main(["check-relations", "--config", path]) == 2
        assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, cfg, message", [
    # read as rows[3][...] of a 2-row table: an IndexError (exit 1)
    ("check-order", {"space": {"kind": "interval", "lo": 3, "hi": 3, "dist": "upper"},
                     "phi": {"id": "identity"},
                     "maps": [{"id": "coupled_table", "matrix": [[1, 0], [1, 0]]}]},
     "map 'coupled_table' has size 2 by 2, which does not fit an interval"),
    # phi(0.25) read as values[int(0.25)], and the run exited 0
    ("solve", {"space": {"id": "upper_interval"}, "phi": {"id": "table", "values": [0.0, 1.0]},
               "maps": [{"id": "coupled_max"}], "scheme": "single", "seed_pair": [0.25, 0.5]},
     "phi 'table' has size 2, which does not fit an interval"),
    ("solve", dict(FINITE_SOLVE, maps=[{"id": "coupled_table", "matrix": [[0] * 3] * 3}]),
     "map 'coupled_table' has size 3 by 3, which does not fit a finite space of 2 points"),
    ("solve", dict(FINITE_SOLVE, maps=[FINITE_SOLVE["maps"][0], {"id": "table", "values": [0]}],
                   scheme="pair"),
     "map 'table' has size 1, which does not fit a finite space of 2 points"),
    ("oracle", {"space": FINITE_SOLVE["space"],
                "maps": [{"id": "coupled_table", "matrix": [[0, 1, 1], [1, 1, 1]]}]},
     "map 'coupled_table' has size 2 by 3, which does not fit a finite space of 2 points"),
], ids=["coupled-on-interval", "phi-on-interval", "coupled-too-big", "self-too-small",
        "oracle-not-square"])
def test_a_table_must_have_one_entry_per_point_of_a_finite_carrier(tmp_path, capsys, cmd, cfg,
                                                                   message):
    cfg = dict(cfg, schema="1", output_dir=str(tmp_path / "o"))
    assert main([cmd, "--config", _write(tmp_path / "c.json", cfg)]) == 2
    assert message in capsys.readouterr().err


def test_a_crash_exits_three_through_the_console_script(tmp_path, monkeypatch, capsys):
    # a command that fails in a way the exit contract does not foresee
    def crash(cfg, args):
        raise RuntimeError("unforeseen")

    _, *spec = cli._COMMANDS["check-space"]
    monkeypatch.setitem(cli._COMMANDS, "check-space", (crash, *spec))
    cfg = {"schema": "1", "output_dir": str(tmp_path / "o"), "space": {"id": "upper_interval"}}
    argv = ["check-space", "--config", _write(tmp_path / "c.json", cfg)]
    with pytest.raises(RuntimeError):  # main raises for Python callers
        main(argv)
    monkeypatch.setattr(sys, "argv", ["qpfix", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.console()
    assert exit_.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: unforeseen" in err


# each used to crash or report a complex point: the catalog now rejects an
# entry whose formula leaves the reals on the carrier
RELATIONS_ON_MINUS_ONE = {"space": {"id": "upper_interval", "lo": -1.0}, "phi": {"id": "identity"},
                          "relation": "left"}


@pytest.mark.parametrize("cmd, cfg, message", [
    # exit 3 with an OverflowError
    ("check-order", {"space": {"id": "upper_interval", "lo": -1e300}, "phi": {"id": "neg_exp"}},
     "phi 'neg_exp' needs a finite exp(-x) down to lo - 1e-09, "
     "that is lo - 1e-09 >= -709.782712893384, got lo = -1e+300"),
    # exit 3 with an OverflowError: F(lo, lo) = lo - 1e-10 is a carrier point
    ("check-relations", {"space": {"id": "upper_interval", "lo": -709.782712893384},
                         "phi": {"id": "neg_exp"}, "relation": "left",
                         "maps": [{"id": "coupled_affine", "a": 1.0, "b": 0.0, "c": -1e-10},
                                  {"id": "identity"}]},
     "phi 'neg_exp' needs a finite exp(-x) down to lo - 1e-09, "
     "that is lo - 1e-09 >= -709.782712893384, got lo = -709.782712893384"),
    # exit 3 with ValueError: math domain error
    ("check-relations", dict(RELATIONS_ON_MINUS_ONE,
                             maps=[{"id": "coupled_min"}, {"id": "sqrt_pull"}]),
     "map 'sqrt_pull' needs an interval with lo >= 0, got lo = -1.0"),
    # exit 1, naming the point (0.5000000000000001+0.8660254037844386j)
    ("check-relations", dict(RELATIONS_ON_MINUS_ONE,
                             maps=[{"id": "coupled_min"}, {"id": "cbrt_pull"}]),
     "map 'cbrt_pull' needs an interval with lo >= 0, got lo = -1.0"),
], ids=["neg_exp", "neg_exp_in_the_grace_below_lo", "sqrt_pull", "cbrt_pull"])
def test_an_entry_outside_its_domain_is_a_config_error(tmp_path, cmd, cfg, message):
    cfg = dict(cfg, schema="1", output_dir=str(tmp_path / "o"))
    code, err = _run([cmd, "--config", _write(tmp_path / "c.json", cfg)])
    assert code == 2 and message in err
    assert not (tmp_path / "o").exists()


def test_an_entry_fits_exactly_where_its_formula_stays_real():
    space = catalog.get_space("upper_interval", lo=0.0)
    for kind, entry_id in [("map", "sqrt_pull"), ("map", "cbrt_pull"), ("phi", "neg_exp")]:
        catalog._check_fit(kind, {"id": entry_id}, space)
    # neg_exp fits exactly where phi is finite at lo - eps, the lowest point
    # the carrier accepts: at the floats around the bound, from both sides
    neg_exp, eps = catalog.get_phi("neg_exp"), 1e-9
    lo = -math.log(sys.float_info.max) + eps
    for _ in range(4):
        lo = math.nextafter(lo, -math.inf)
    fits = []
    for _ in range(8):
        lo = math.nextafter(lo, math.inf)
        try:
            catalog._check_fit("phi", {"id": "neg_exp"}, catalog.get_space("upper_interval", lo=lo))
            fits.append(True)
        except catalog.CatalogError:
            fits.append(False)
        try:
            finite = math.isfinite(neg_exp(lo - eps))
        except OverflowError:
            finite = False
        assert fits[-1] == finite, lo
    assert fits[0] is False and fits[-1] is True


# -- one typed field reader for the config and its nested objects -------------


def _run(argv):
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _argv(cmd, path):
    return [cmd, "--config", path] + (["--seed", "1"] if cmd == "compare" else [])


def test_badly_typed_or_missing_fields_exit_two(tmp_path):
    # each of these used to run, or exit 1 with a KeyError or TypeError traceback
    out = str(tmp_path / "o")
    space_cfg = {"schema": "1", "output_dir": out}
    coerced = [[0, "0.5"], [True, 0]]  # used to read as [[0, 0.5], [1, 0]]
    cases = [
        ("solve", dict(PAIR_CONFIG, solver={"tol": True})),
        ("solve", dict(PAIR_CONFIG, solver={"max_iter": 2.5})),
        ("solve", dict(PAIR_CONFIG, solver={"verify_hypotheses": 1})),
        ("solve", dict(PAIR_CONFIG, solver=None)),
        ("check-space", dict(space_cfg, space={"kind": "interval", "hi": 1})),
        ("check-space", dict(space_cfg, space={"kind": "finite"})),
        ("check-space", dict(space_cfg, space={"kind": "finite", "matrix": 3})),
        ("check-space", dict(space_cfg, space={"kind": "finite", "n": True, "matrix": [[0]]})),
        ("check-space", dict(space_cfg, space={"kind": "interval", "lo": 0, "hi": 1, "dist": []})),
        ("check-space", dict(space_cfg, space={"kind": ["finite"], "matrix": [[0]]})),
        ("check-space", dict(space_cfg, space={"id": "upper_interval", "lo": None})),
        ("check-space", dict(space_cfg, space={"id": "upper_interval", "lo": "0.5", "hi": True})),
        ("check-space", dict(space_cfg, space={"id": "upper_interval"}, output_dir=5)),
        ("check-space", dict(space_cfg, space={"kind": "finite", "matrix": coerced})),
        ("check-space", dict(space_cfg, space={"id": "finite", "matrix": coerced})),
        ("compare", {"schema": "1", "campaign": [], "output_dir": out}),
    ]
    for cmd, cfg in cases:
        code, err = _run(_argv(cmd, _write(tmp_path / "c.json", cfg)))
        assert (code, err.startswith("config error:")) == (2, True), (cmd, cfg, err)


# For each command, a valid config whose typed fields, at the top or in a
# nested campaign, solver or space object, are set; a value of another
# JSON kind in any one of them is a config error.
_FUZZ_SOLVER = {"tol": 1e-9, "max_iter": 50, "stall_window": 3, "verify_hypotheses": False}
_FUZZ_CONFIGS = {
    "check-space": {"space": {"kind": "interval", "lo": 0.0, "hi": 1.0}, "slack": 1e-12,
                    "require_t0": False},
    "check-order": {"space": {"id": "upper_interval", "lo": 0.0, "hi": 1.0},
                    "phi": {"id": "identity"}, "slack": 0.0},
    "check-relations": {"space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
                        "phi": {"id": "table", "values": [0, 0]},
                        "maps": [{"id": "coupled_table", "matrix": [[0, 1], [1, 1]]},
                                 {"id": "table", "values": [1, 0]}], "slack": 0.0},
    "solve": dict(PAIR_CONFIG, space={"kind": "interval", "lo": 0.0, "hi": 1.0},
                  solver=_FUZZ_SOLVER, strict_seed=False, slack=1e-12),
    "oracle": {"space": {"kind": "finite", "n": 2, "matrix": [[0, 1], [1, 0]]},
               "maps": [{"id": "coupled_table", "matrix": [[0, 1], [1, 1]]}], "tol": 0.0},
    "compare": {"campaign": {"instances": 1, "min_points": 2, "max_points": 2, "map_counts": [0]},
                "solver": _FUZZ_SOLVER},
}
_KINDS = {
    "number": {"slack", "tol", "lo", "hi"},
    "integer": {"max_iter", "stall_window", "n", "instances", "min_points", "max_points"},
    "bool": {"require_t0", "strict_seed", "verify_hypotheses"},
    "list": {"map_counts"},
    "string": {"output_dir"},
}
_WRONG = ["0.5", "", True, False, None, [], [1], {}, 2.5, float("nan"), float("inf"), 10**400, 1, 0]
_KIND_OK = {
    "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "integer": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "list": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
}


def _typed_fields(cfg):
    """(nested object or None, field, kind) of each typed field of cfg."""
    kind_of = {field: kind for kind, names in _KINDS.items() for field in names}
    found = [(None, k, kind_of[k]) for k in cfg if k in kind_of]
    for obj in ("campaign", "solver", "space"):
        found += [(obj, k, kind_of[k]) for k in cfg.get(obj, {}) if k in kind_of]
    return found


@pytest.mark.parametrize("cmd", sorted(_FUZZ_CONFIGS))
def test_fuzzed_field_kinds_exit_two(cmd, tmp_path):
    base = dict(_FUZZ_CONFIGS[cmd], schema="1", output_dir=str(tmp_path / "o"))
    path = str(tmp_path / "c.json")
    assert _run(_argv(cmd, _write(path, base)))[0] in (0, 1)
    fields = _typed_fields(base)

    @given(st.sampled_from(fields), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def check(field, data):
        obj, key, kind = field
        value = data.draw(st.sampled_from([v for v in _WRONG if not _KIND_OK[kind](v)]))
        cfg = json.loads(json.dumps(base))
        (cfg if obj is None else cfg[obj])[key] = value
        code, err = _run(_argv(cmd, _write(path, cfg)))
        assert code == 2 and err.startswith("config error:") and "Traceback" not in err

    check()


def _readme():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        return fh.read()


def test_readme_config_values_table_names_every_typed_field():
    readme = _readme()
    table = readme[readme.index("| Field | JSON type |"):]
    table = table[: table.index("\n\n")]
    first_column = [row.split("|")[1] for row in table.splitlines()]
    named = {name for cell in first_column for name in re.findall(r"`(\w+)`", cell)}
    assert set(cli._FIELD_KINDS) <= named
    # an inline space's n, lo and hi are read by spaces.space_from_json
    assert set(cli._FIELD_KINDS) | {"n", "lo", "hi"} == set().union(*_KINDS.values())


def test_readme_solve_example_runs(tmp_path):
    readme = _readme()
    start = readme.index("```json", readme.index("A `solve` config"))
    cfg = json.loads(readme[start + len("```json"): readme.index("```", start + 3)])
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg)]) == 0
