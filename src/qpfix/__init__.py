"""Coupled fixed points on preordered quasi-pseudometric spaces.

The package turns order-theoretic existence arguments into executable
iteration schemes, with checkers for every structural hypothesis and a
brute-force oracle on finite spaces.
"""

from .spaces import (
    BallQuery,
    DomainError,
    Point,
    QPSpace,
    UnsupportedError,
    check_axioms,
    check_T0,
    finite_space,
    interval_space,
    space_from_json,
    space_to_json,
)
from .order import (
    CoupledMap,
    PhiFn,
    PreorderCtx,
    SelfMap,
    check_isotone,
    check_phi_bound,
    check_preorder_laws,
    induced_leq,
    seed_search,
)
from .sequences import (
    CauchyVerdict,
    SequenceWindow,
    cauchy_moduli,
    check_implication_chain,
    classify_cauchy,
    classify_ladder,
    detect_limit,
)
from .relations import (
    Probe,
    check_sequential_continuity,
    check_weakly_left_related,
    check_weakly_right_related,
)
from .solvers import (
    IterationTrace,
    SolverConfig,
    SolverReport,
    couple_iterate,
    kmap_round_robin,
    pair_iterate,
    run_scheme,
    triple_iterate,
    verify_point,
)
from .oracle import (
    enumerate_points,
    oracle_vs_solver,
    random_finite_space,
    run_agreement_campaign,
)
from . import catalog

__version__ = "0.1.0"
