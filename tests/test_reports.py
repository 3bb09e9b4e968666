"""The JSON forms of the check reports, pinned as literals: a report
passes when its findings are empty, and its JSON form is ``passed`` plus
its fields, with each tuple inside a list read as a list."""

import json

import pytest

from qpfix.oracle import AgreementReport, CampaignReport
from qpfix.order import BoundReport, IsotoneReport, LawReport
from qpfix.relations import RelReport, RelViolation
from qpfix.sequences import ChainReport
from qpfix.spaces import AxiomReport, T0Report

# (report, passed, json.dumps(report.as_dict(), sort_keys=True))
CASES = [
    (AxiomReport([(1, 0.5)], [(0, 1, 2, 3.0, 2.0)], 3, 1e-12), False,
     '{"identity_violations": [[1, 0.5]], "passed": false, "sample_size": 3, "slack": 1e-12, '
     '"triangle_violations": [[0, 1, 2, 3.0, 2.0]]}'),
    (AxiomReport([], [], 21, 0.0), True,
     '{"identity_violations": [], "passed": true, "sample_size": 21, "slack": 0.0, '
     '"triangle_violations": []}'),
    (T0Report([(0, 1, 0.0, 0.0)], 2, 1e-12), False,
     '{"passed": false, "sample_size": 2, "slack": 1e-12, "violations": [[0, 1, 0.0, 0.0]]}'),
    (T0Report([], 4, 0.0), True,
     '{"passed": true, "sample_size": 4, "slack": 0.0, "violations": []}'),
    (LawReport([0.5], [(0, 1, 2)], 3), False,
     '{"checked_points": 3, "passed": false, "reflexivity_violations": [0.5], '
     '"transitivity_violations": [[0, 1, 2]]}'),
    (LawReport([], [], 11), True,
     '{"checked_points": 11, "passed": true, "reflexivity_violations": [], '
     '"transitivity_violations": []}'),
    (IsotoneReport([{"tuple": (0, 1, 0, 1), "image_lo": 1, "image_hi": 0}], 16, 9), False,
     '{"applicable": 9, "checked": 16, "counterexamples": [{"image_hi": 0, "image_lo": 1, '
     '"tuple": [0, 1, 0, 1]}], "passed": false}'),
    (IsotoneReport([], 16, 0), True,
     '{"applicable": 0, "checked": 16, "counterexamples": [], "passed": true}'),
    (BoundReport("above", 1.0, 2.0, 0.0, [(1.0, 2.0)]), False,
     '{"declared_bound": 1.0, "direction": "above", "max_attained": 2.0, "min_attained": 0.0, '
     '"passed": false, "violations": [[1.0, 2.0]]}'),
    (BoundReport("below", -1.0, 0.5, -1.0, []), True,
     '{"declared_bound": -1.0, "direction": "below", "max_attained": 0.5, "min_attained": -1.0, '
     '"passed": true, "violations": []}'),
    (ChainReport(["base: d_s without left_K", "duality broken: d_s(d) != d_s(d^-1)"]), False,
     '{"inconsistencies": ["base: d_s without left_K", "duality broken: d_s(d) != d_s(d^-1)"], '
     '"passed": false}'),
    (ChainReport([]), True, '{"inconsistencies": [], "passed": true}'),
    (AgreementReport("pair", [(0, 1), (1, 1)], 2, 1,
                     [{"kind": "fate", "seed": [0, 1], "expected": None}], no_seeds=False), False,
     '{"converged": 1, "disagreements": [{"expected": null, "kind": "fate", "seed": [0, 1]}], '
     '"no_seeds": false, "passed": false, "runs": 2, "scheme": "pair", "seeds": [[0, 1], [1, 1]]}'),
    (AgreementReport("single", [], 0, 0, [], no_seeds=True), True,
     '{"converged": 0, "disagreements": [], "no_seeds": true, "passed": true, "runs": 0, '
     '"scheme": "single", "seeds": []}'),
    (CampaignReport(3, 7, 6, 1, [{"instance": 2, "kind": "candidate"}]), False,
     '{"disagreements": [{"instance": 2, "kind": "candidate"}], "instances": 3, '
     '"no_seed_instances": 1, "passed": false, "total_converged": 6, "total_seeds": 7}'),
    (CampaignReport(0, 0, 0, 0, []), True,
     '{"disagreements": [], "instances": 0, "no_seed_instances": 0, "passed": true, '
     '"total_converged": 0, "total_seeds": 0}'),
    (RelReport("right", [RelViolation("D1", 1, (0.5, 0.25), 0.75, 0.5)], 4, 1e-12), False,
     '{"checked": 4, "kind": "right", "passed": false, "violations": [{"condition": "D1", '
     '"lhs": 0.75, "pair": [0.5, 0.25], "part": 1, "rhs": 0.5, "slack": 1e-12}]}'),
    (RelReport("left", [], 121, 0.0), True,
     '{"checked": 121, "kind": "left", "passed": true, "violations": []}'),
]


@pytest.mark.parametrize("report, passed, form", CASES,
                         ids=[f"{type(r).__name__}-{p}" for r, p, _ in CASES])
def test_report_json_form(report, passed, form):
    assert report.passed is passed
    assert json.dumps(report.as_dict(), sort_keys=True) == form
