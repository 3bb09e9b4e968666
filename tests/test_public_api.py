"""The names the package exports stay: a simplification that drops or
renames one fails here."""

import ast
import os

import qpfix

PUBLIC = {
    # spaces
    "BallQuery", "DomainError", "Point", "QPSpace", "UnsupportedError", "check_axioms",
    "check_T0", "finite_space", "interval_space", "space_from_json", "space_to_json",
    # order
    "CoupledMap", "PhiFn", "PreorderCtx", "SelfMap", "check_isotone", "check_phi_bound",
    "check_preorder_laws", "induced_leq", "seed_search",
    # sequences
    "CauchyVerdict", "SequenceWindow", "cauchy_moduli", "check_implication_chain",
    "classify_cauchy", "classify_ladder", "detect_limit",
    # relations
    "Probe", "check_sequential_continuity", "check_weakly_left_related",
    "check_weakly_right_related",
    # solvers
    "IterationTrace", "SolverConfig", "SolverReport", "couple_iterate", "kmap_round_robin",
    "pair_iterate", "run_scheme", "triple_iterate", "verify_point",
    # oracle
    "enumerate_points", "oracle_vs_solver", "random_finite_space", "run_agreement_campaign",
    # the example catalog, as a module
    "catalog",
}


def test_init_imports_exactly_the_public_names():
    with open(os.path.join(os.path.dirname(qpfix.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == PUBLIC


def test_public_names_resolve():
    assert not [name for name in PUBLIC if not hasattr(qpfix, name)]
