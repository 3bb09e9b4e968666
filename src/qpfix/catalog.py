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
from .spaces import _CONTAINS_EPS, QPSpace, _signed_interval, finite_space, is_finite_number


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
        lo = _number(params, "lo", 0.0)
        hi = _number(params, "hi", 1.0)
        return _signed_interval(lo, hi, 1 if space_id == "upper_interval" else -1)
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
        bound = _number(params, "bound", 1.0)
        return PhiFn(lambda x: float(x), direction, bound, name="identity")
    if phi_id == "arctan":
        bound = _number(params, "bound", math.pi / 2)
        return PhiFn(lambda x: math.atan(x), direction, bound, name="arctan")
    if phi_id == "neg_exp":
        bound = _number(params, "bound", 0.0)
        return PhiFn(lambda x: -math.exp(-x), direction, bound, name="neg_exp")
    if phi_id == "table":
        values = _table("phi table values", params.pop("values"), integer=False)
        default = max(values) if direction == "above" else min(values)
        bound = _number(params, "bound", default)
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
        a = _number(params, "a", 0.25)
        b = _number(params, "b", 0.25)
        c = _number(params, "c", 0.5)
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
        a = _number(params, "a", 0.5)
        b = _number(params, "b", 0.5)
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
        threshold = _number(params, "threshold", 0.5)
        low = _number(params, "low", 0.0)
        high = _number(params, "high", 1.0)
        return SelfMap(lambda x: high if x >= threshold else low, name="step")
    if map_id == "table":
        values = _table("table values", params.pop("values"), integer=True)
        return SelfMap(lambda i: values[int(i)], name="table")
    raise CatalogError(f"unknown map id {map_id!r}")


# The entries that are tables, by kind and id, and the field that holds the
# table: one value per point, or one row of values per point.
_TABLES = {("phi", "table"): "values", ("map", "table"): "values",
           ("map", "coupled_table"): "matrix"}


def _check_fit(kind: str, obj: dict, space: QPSpace) -> None:
    """Raise CatalogError unless the built entry {"id": ..., **params} of
    kind "phi" or "map" fits the carrier of space: a table needs one entry
    (or row) per point of a finite space; on an interval, maps sqrt_pull and
    cbrt_pull need lo >= 0, and phi neg_exp a finite exp(-x) at the lowest
    point the carrier accepts, lo - _CONTAINS_EPS."""
    entry_id, field = obj["id"], _TABLES.get((kind, obj["id"]))
    if field is not None:
        cells = obj[field]  # the built entry is a list, or a list of rows of one length
        shape = [len(cells)] + ([len(cells[0])] if field == "matrix" else [])
        n = space.carrier.size if space.is_finite else None
        if any(size != n for size in shape):
            on = f"a finite space of {n} points" if space.is_finite else "an interval"
            raise CatalogError(f"{kind} {entry_id!r} has size {' by '.join(map(str, shape))}, "
                               f"which does not fit {on}: "
                               "a table needs one entry per point of a finite space")
    elif not space.is_finite:
        lo, bound = space.carrier.lo, -math.log(sys.float_info.max)  # exp(-x) finite from here
        if kind == "map" and entry_id in ("sqrt_pull", "cbrt_pull") and lo < 0:
            raise CatalogError(f"map {entry_id!r} needs an interval with lo >= 0, got lo = {lo!r}")
        if kind == "phi" and entry_id == "neg_exp" and not lo - _CONTAINS_EPS >= bound:
            raise CatalogError(f"phi 'neg_exp' needs a finite exp(-x) down to lo - {_CONTAINS_EPS}, "
                               f"that is lo - {_CONTAINS_EPS} >= {bound!r}, got lo = {lo!r}")


def _number(params: dict, key: str, default: float) -> float:
    """params[key], or default when absent, as a float: "0.5", true and null are no numbers."""
    value = params.pop(key, default)
    if not is_finite_number(value):
        raise CatalogError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _table(what: str, values, integer: bool) -> list:
    """The entries of a catalog table, as Python ints (a map table) or
    floats (a phi table).  Nothing is coerced: each entry must already be a
    Python or numpy integer, or finite real number, and never a bool."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise CatalogError(f"{what} must be a list, got {values!r}")
    out = [v.item() if isinstance(v, np.generic) else v for v in values]
    ok = (lambda v: type(v) is int) if integer else is_finite_number
    bad = [v for v in out if not ok(v)]
    if bad:
        kind = "integers" if integer else "finite real numbers"
        raise CatalogError(f"{what} must be {kind}, got {bad[0]!r}")
    return out if integer else [float(v) for v in out]


def _reject_extra(what: str, params: dict) -> None:
    if params:
        raise CatalogError(f"unknown parameters for {what!r}: {sorted(params)}")
