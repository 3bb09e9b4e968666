"""Batch front-end: run checks, solvers, and oracle campaigns from JSON
configs, writing reports and traces for scripts and CI.

Exit codes: 0 all checks passed / run converged, 1 a violation or
non-convergence was found (and reported), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import catalog
from .oracle import ORACLE_POINT_CAP, enumerate_points, run_agreement_campaign
from .order import (
    CoupledMap,
    PreorderCtx,
    SelfMap,
    check_isotone,
    check_phi_bound,
    check_preorder_laws,
    seed_search,
)
from .relations import check_weakly_left_related, check_weakly_right_related
from .solvers import SolverConfig, check_scheme, run_scheme
from .spaces import (
    DomainError,
    UnsupportedError,
    check_axioms,
    check_T0,
    resolve_sample,
    space_from_json,
)

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    pass


# -- config plumbing ----------------------------------------------------


def _load_config(path: str, allowed: set, required: set) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f'config must declare "schema": "{SCHEMA_VERSION}"')
    unknown = set(cfg) - allowed - {"schema"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    return cfg


def _from_catalog(what: str, build, obj):
    """Build a catalog entry from {"id": ..., **params}."""
    if not isinstance(obj, dict) or "id" not in obj:
        raise ConfigError(f'{what} must be an object with an "id"')
    params = dict(obj)
    entry_id = params.pop("id")
    try:
        return build(entry_id, **params)
    except (catalog.CatalogError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}")


def _build_space(obj: dict):
    if isinstance(obj, dict) and "kind" in obj:
        try:
            return space_from_json(obj)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return _from_catalog("space", catalog.get_space, obj)


def _number(cfg: dict, key: str, default: float) -> float:
    value = cfg.get(key, default)
    # JSON admits NaN, Infinity and integers beyond any float; none passes
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


_KINDS = {bool: "true or false", int: "an integer", list: "a list"}


def _typed(cfg: dict, key: str, default, kind: type):
    """cfg[key], or default when absent, which JSON must give as exactly
    that kind: nothing is coerced, and true or false is no integer."""
    value = cfg.get(key, default)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _sample_points(cfg: dict, space) -> list:
    """The points of the config's sample spec ("default", "exhaustive" or
    an explicit list of carrier points)."""
    sample = cfg.get("sample", "default")
    try:
        return resolve_sample(space, sample)
    except (TypeError, ValueError, UnsupportedError) as exc:
        raise ConfigError(f"bad sample {sample!r}: {exc}")


def _build_ctx(cfg: dict, metric_mode: Optional[str] = None) -> PreorderCtx:
    """The order context of a config: its space, phi, slack and metric
    mode.  A solver's own ``metric_mode``, when set, takes precedence."""
    space = _build_space(cfg["space"])
    phi = _from_catalog("phi", catalog.get_phi, cfg["phi"])
    slack = _number(cfg, "slack", 1e-12)
    try:
        return PreorderCtx(space, phi, metric_mode or cfg.get("metric_mode", "plain"), slack)
    except ValueError as exc:
        raise ConfigError(f"bad order config: {exc}")


def _build_maps(objs, want_coupled_first=True):
    if not isinstance(objs, list) or not objs:
        raise ConfigError("maps must be a nonempty list")
    maps = [_from_catalog("map", catalog.get_map, o) for o in objs]
    if want_coupled_first:
        if not isinstance(maps[0], CoupledMap):
            raise ConfigError("the first map must be a coupled (two-argument) map")
        for m in maps[1:]:
            if not isinstance(m, SelfMap):
                raise ConfigError("maps after the first must be self maps")
    return maps


def _build_solver_cfg(obj: Optional[dict]) -> SolverConfig:
    if obj is None:
        return SolverConfig()
    if not isinstance(obj, dict):
        raise ConfigError("solver must be an object")
    unknown = set(obj) - {f.name for f in fields(SolverConfig)}
    if unknown:
        raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
    try:
        return SolverConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver config: {exc}")


# -- output -------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_atomic(out_dir: str, filename: str, write) -> str:
    """Have write(tmp) fill a temporary file, then rename it into place,
    so a reader never sees a half-written file."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)
    return path


def _write_json(payload: dict, out_dir: str, filename: str = "report.json") -> str:
    def dump(tmp):  # streamed, so a large report is never one string in memory
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")

    return _write_atomic(out_dir, filename, dump)


def _write_trace(trace, out_dir: str, filename: str = "trace.csv") -> str:
    return _write_atomic(out_dir, filename, trace.write_csv)


# -- subcommands ---------------------------------------------------------


def _cmd_check_space(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"space", "sample", "slack", "require_t0", "output_dir"},
        required={"space", "output_dir"},
    )
    space = _build_space(cfg["space"])
    slack = _number(cfg, "slack", 1e-12)
    require_t0 = _typed(cfg, "require_t0", False, bool)
    if cfg.get("sample", "default") not in ("default", "exhaustive"):
        raise ConfigError('sample must be "default" or "exhaustive"')
    pts = _sample_points(cfg, space)
    axioms = check_axioms(space, pts, slack=slack)
    t0 = check_T0(space, pts, slack=slack)
    ok = axioms.passed and (t0.passed or not require_t0)
    _write_json(
        {"axioms": axioms.as_dict(), "t0": t0.as_dict(), "passed": ok},
        cfg["output_dir"],
    )
    return 0 if ok else 1


def _cmd_check_order(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"space", "phi", "maps", "sample", "slack", "metric_mode", "output_dir"},
        required={"space", "phi", "output_dir"},
    )
    ctx = _build_ctx(cfg)
    space = ctx.space
    laws = check_preorder_laws(ctx, _sample_points(cfg, space))
    bound = check_phi_bound(ctx.phi, space.grid())
    payload = {"laws": laws.as_dict(), "phi_bound": bound.as_dict()}
    ok = laws.passed and bound.passed
    if "maps" in cfg:
        coupled = _build_maps(cfg["maps"])[0]
        try:
            iso = check_isotone(ctx, coupled, "grid" if not space.is_finite else "exhaustive")
        except DomainError as exc:  # an image left the carrier: a finding
            payload["isotone"] = {"passed": False, "domain_escape": str(exc)}
            ok = False
        else:
            payload["isotone"] = iso.as_dict()
            ok = ok and iso.passed
    payload["passed"] = ok
    _write_json(payload, cfg["output_dir"])
    return 0 if ok else 1


def _cmd_check_relations(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"space", "phi", "maps", "relation", "slack", "metric_mode", "output_dir"},
        required={"space", "phi", "maps", "output_dir"},
    )
    ctx = _build_ctx(cfg)
    maps = _build_maps(cfg["maps"])
    if len(maps) != 2:
        raise ConfigError("check-relations needs exactly [coupled map, self map]")
    relation = cfg.get("relation", "left")
    if relation not in ("left", "right"):
        raise ConfigError('relation must be "left" or "right"')
    check = check_weakly_left_related if relation == "left" else check_weakly_right_related
    try:
        report = check(ctx, maps[0], maps[1], "exhaustive" if ctx.space.is_finite else "grid")
    except DomainError as exc:  # an image left the carrier: a finding
        payload = {"kind": relation, "passed": False, "domain_escape": str(exc)}
        _write_json(payload, cfg["output_dir"])
        return 1
    _write_json(report.as_dict(), cfg["output_dir"])
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"space", "phi", "maps", "scheme", "seed_pair", "solver",
                 "strict_seed", "slack", "output_dir"},
        required={"space", "phi", "maps", "scheme", "seed_pair", "output_dir"},
    )
    solver_cfg = _build_solver_cfg(cfg.get("solver"))
    ctx = _build_ctx(cfg, solver_cfg.metric_mode)
    space = ctx.space
    maps = _build_maps(cfg["maps"])
    coupled, selfmaps = maps[0], maps[1:]
    scheme, strict = cfg["scheme"], _typed(cfg, "strict_seed", False, bool)
    try:
        check_scheme(scheme, len(selfmaps))
    except ValueError as exc:
        raise ConfigError(str(exc))

    seed_pair = cfg["seed_pair"]
    if seed_pair == "search":
        try:
            seed = seed_search(ctx, coupled, space.grid(), direction=solver_cfg.direction)
        except DomainError as exc:
            _write_json({"status": "domain_escape", "detail": str(exc)}, cfg["output_dir"])
            return 1
        if seed is None:
            _write_json(
                {"status": "no_seed", "detail": "no admissible starting pair found"},
                cfg["output_dir"],
            )
            return 1
    elif isinstance(seed_pair, list) and len(seed_pair) == 2:
        # nothing is coerced: 0.7, "1" and true are no carrier points
        kinds, what = ((int,), "integers") if space.is_finite else ((int, float), "numbers")
        if any(type(v) not in kinds for v in seed_pair):
            raise ConfigError(f"seed_pair must hold two {what}, got {seed_pair!r}")
        if space.first_outside(seed_pair) is not None:
            raise ConfigError(f"seed_pair {seed_pair!r} is not in the carrier of {space.name}")
        seed = tuple(seed_pair) if space.is_finite else tuple(map(float, seed_pair))
    else:
        raise ConfigError('seed_pair must be [x0, y0] or "search"')

    report = run_scheme(scheme, ctx, coupled, selfmaps, seed, solver_cfg, strict)
    _write_trace(report.trace, cfg["output_dir"])
    _write_json(report.as_dict(trace_ref="trace.csv"), cfg["output_dir"])
    return 0 if report.status == "converged" else 1


def _cmd_oracle(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"space", "maps", "tol", "output_dir"},
        required={"space", "maps", "output_dir"},
    )
    space = _build_space(cfg["space"])
    if not space.is_finite:
        raise ConfigError("oracle needs a finite space")
    maps = _build_maps(cfg["maps"])
    try:
        report = enumerate_points(space, maps[0], maps[1:], tol=_number(cfg, "tol", 0.0))
    except DomainError as exc:
        raise ConfigError(f"bad map: {exc}")
    _write_json(report.as_dict(), cfg["output_dir"])
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(
        args.config,
        allowed={"campaign", "solver", "output_dir"},
        required={"campaign", "output_dir"},
    )
    camp = cfg["campaign"]
    if not isinstance(camp, dict):
        raise ConfigError("campaign must be an object")
    unknown = set(camp) - {"instances", "min_points", "max_points", "map_counts"}
    if unknown:
        raise ConfigError(f"unknown campaign fields: {sorted(unknown)}")
    solver_cfg = _build_solver_cfg(cfg.get("solver")) if "solver" in cfg else None
    instances = _typed(camp, "instances", 100, int)
    min_points = _typed(camp, "min_points", 2, int)
    max_points = _typed(camp, "max_points", 6, int)
    map_counts = tuple(_typed(camp, "map_counts", [0, 1, 2], list))
    if instances < 0 or not 1 <= min_points <= max_points <= ORACLE_POINT_CAP:
        raise ConfigError("campaign needs instances >= 0 and "
                          f"1 <= min_points <= max_points <= {ORACLE_POINT_CAP}")
    if not map_counts or any(type(k) is not int or k < 0 for k in map_counts):
        raise ConfigError("map_counts must be a nonempty list of integers >= 0")
    try:
        report = run_agreement_campaign(
            seed=args.seed,
            instances=instances,
            min_points=min_points,
            max_points=max_points,
            map_counts=map_counts,
            cfg=solver_cfg,
        )
    except ValueError as exc:  # a solver tol the exact oracle cannot judge
        raise ConfigError(f"bad solver config: {exc}")
    payload = report.as_dict()
    payload["seed"] = args.seed
    _write_json(payload, cfg["output_dir"])
    return 0 if report.passed else 1


# -- entry point ---------------------------------------------------------


@cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpfix",
        description="Checks, solvers, and oracles for coupled fixed points "
        "on preordered asymmetric-distance spaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_seed=False):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a JSON run config")
        if needs_seed:
            sp.add_argument("--seed", required=True, type=int,
                            help="RNG seed (required for reproducibility)")
        sp.set_defaults(fn=fn)

    add("check-space", _cmd_check_space)
    add("check-order", _cmd_check_order)
    add("check-relations", _cmd_check_relations)
    add("solve", _cmd_solve)
    add("oracle", _cmd_oracle)
    add("compare", _cmd_compare, needs_seed=True)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
