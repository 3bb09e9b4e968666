"""Named example spaces, order-inducing functions, and maps.

These are standard desk-scale constructions for exercising the solvers
and checkers.  The completeness labels attached to spaces are
documentation only: they record the usual classification of each
construction and are never certified by finite testing.
"""

from __future__ import annotations

import math
import sys
from typing import Union

import numpy as np

from .order import CoupledMap, PhiFn, SelfMap
from .spaces import QPSpace, _lower_interval_space, finite_space, upper_interval_space


class CatalogError(LookupError):
    """Unknown catalog identifier, or a parameter of the wrong kind."""


SPACE_LABELS = {
    "upper_interval": {
        "t0": True,
        "left_k_complete": True,
        "notes": "d(x,y)=max(x-y,0) on a closed interval; labels documented, not certified",
    },
    "lower_interval": {
        "t0": True,
        "left_k_complete": True,
        "notes": "conjugate of upper_interval; labels documented, not certified",
    },
    "finite": {
        "t0": None,
        "left_k_complete": True,
        "notes": "T0 depends on the matrix; finite spaces are left K-complete",
    },
}

def get_space(space_id: str, **params) -> QPSpace:
    built = _space(space_id, params)
    _reject_extra(space_id, params)
    return built


def _space(space_id: str, params: dict) -> QPSpace:
    if space_id in ("upper_interval", "lower_interval"):
        lo = float(params.pop("lo", 0.0))
        hi = float(params.pop("hi", 1.0))
        build = upper_interval_space if space_id == "upper_interval" else _lower_interval_space
        return build(lo, hi)
    if space_id == "finite":
        matrix = params.pop("matrix")
        return finite_space(matrix)
    raise CatalogError(f"unknown space id {space_id!r}")


def get_phi(phi_id: str, **params) -> PhiFn:
    built = _phi(phi_id, params)
    _reject_extra(phi_id, params)
    return built


def _phi(phi_id: str, params: dict) -> PhiFn:
    direction = params.pop("direction", "above")
    if phi_id == "identity":
        bound = float(params.pop("bound", 1.0))
        return PhiFn(lambda x: float(x), direction, bound, name="identity")
    if phi_id == "arctan":
        bound = float(params.pop("bound", math.pi / 2))
        return PhiFn(lambda x: math.atan(x), direction, bound, name="arctan")
    if phi_id == "neg_exp":
        bound = float(params.pop("bound", 0.0))
        return PhiFn(lambda x: -math.exp(-x), direction, bound, name="neg_exp")
    if phi_id == "table":
        values = _table("phi table values", params.pop("values"), integer=False)
        default = max(values) if direction == "above" else min(values)
        bound = float(params.pop("bound", default))
        return PhiFn(lambda i: values[int(i)], direction, bound, name="phi_table")
    raise CatalogError(f"unknown phi id {phi_id!r}")


def get_map(map_id: str, **params) -> Union[CoupledMap, SelfMap]:
    built = _map(map_id, params)
    _reject_extra(map_id, params)
    return built


def _map(map_id: str, params: dict) -> Union[CoupledMap, SelfMap]:
    if map_id == "coupled_max":
        return CoupledMap(lambda x, y: max(x, y), name="coupled_max")
    if map_id == "coupled_min":
        return CoupledMap(lambda x, y: min(x, y), name="coupled_min")
    if map_id == "coupled_affine":
        a = float(params.pop("a", 0.25))
        b = float(params.pop("b", 0.25))
        c = float(params.pop("c", 0.5))
        return CoupledMap(lambda x, y: a * x + b * y + c, name="coupled_affine")
    if map_id == "coupled_product":
        return CoupledMap(lambda x, y: x * y, name="coupled_product")
    if map_id == "coupled_projection":
        return CoupledMap(lambda x, y: x, name="coupled_projection")
    if map_id == "coupled_table":
        cells = np.asarray(params.pop("matrix"), dtype=object)  # ragged rows stay 1-d
        if cells.ndim != 2:
            raise CatalogError("coupled_table matrix must be a list of rows of one length")
        flat, m = _table("coupled_table matrix", cells.ravel(), integer=True), cells.shape[1]
        rows = [flat[i * m : (i + 1) * m] for i in range(len(cells))]
        return CoupledMap(lambda x, y: rows[int(x)][int(y)], name="coupled_table")
    if map_id == "affine_pull":
        a = float(params.pop("a", 0.5))
        b = float(params.pop("b", 0.5))
        return SelfMap(lambda x: a * x + b, name="affine_pull")
    if map_id == "halve":
        return SelfMap(lambda x: x / 2, name="halve")
    if map_id == "sqrt_pull":
        return SelfMap(lambda x: math.sqrt(x), name="sqrt_pull")
    if map_id == "cbrt_pull":
        return SelfMap(lambda x: x ** (1.0 / 3.0), name="cbrt_pull")
    if map_id == "identity":
        return SelfMap(lambda x: x, name="identity")
    if map_id == "step":
        threshold = float(params.pop("threshold", 0.5))
        low = float(params.pop("low", 0.0))
        high = float(params.pop("high", 1.0))
        return SelfMap(lambda x: high if x >= threshold else low, name="step")
    if map_id == "table":
        values = _table("table values", params.pop("values"), integer=True)
        return SelfMap(lambda i: values[int(i)], name="table")
    raise CatalogError(f"unknown map id {map_id!r}")


def _table(what: str, values, integer: bool) -> list:
    """The entries of a catalog table, as Python ints (a map table) or
    floats (a phi table).  Nothing is coerced: each entry must already be a
    Python or numpy integer, or finite real number, and never a bool."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise CatalogError(f"{what} must be a list, got {values!r}")
    out = [v.item() if isinstance(v, np.generic) else v for v in values]
    kinds, kind = ((int,), "integers") if integer else ((int, float), "finite real numbers")
    # abs(v) <= max also rejects NaN, infinities and integers beyond float range
    bad = [v for v in out if type(v) not in kinds or not (integer or abs(v) <= sys.float_info.max)]
    if bad:
        raise CatalogError(f"{what} must be {kind}, got {bad[0]!r}")
    return out if integer else [float(v) for v in out]


def _reject_extra(what: str, params: dict) -> None:
    if params:
        raise CatalogError(f"unknown parameters for {what!r}: {sorted(params)}")
