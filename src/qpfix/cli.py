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
from pathlib import Path
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
from .solvers import SolverConfig, check_scheme, run_contexts, run_scheme
from .spaces import (
    DomainError,
    UnsupportedError,
    check_axioms,
    check_T0,
    is_finite_number,
    resolve_sample,
    space_from_json,
)

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    pass


# -- config plumbing ----------------------------------------------------

# The JSON kind of each typed field, wherever it appears: in a config or
# its campaign or solver object (README "Config values"; an inline space
# is read by spaces.space_from_json).  Nothing is coerced: true or false is
# no integer, and float stands for a finite number, integral or not.
_FIELD_KINDS = {
    "slack": float, "tol": float, "max_iter": int, "stall_window": int,
    "instances": int, "min_points": int, "max_points": int, "map_counts": list,
    "require_t0": bool, "strict_seed": bool, "verify_hypotheses": bool, "output_dir": str,
}
_KIND_NAMES = {float: "a finite number", int: "an integer", list: "a list",
               bool: "true or false", str: "a string"}


def _checked(obj, what: str, required: set, optional: set) -> dict:
    """obj, once it is a JSON object with every required field, no field
    beyond those and the optional ones, and each typed field of its kind."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown, missing = set(obj) - required - optional, required - set(obj)
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ConfigError(f"{problem} {what} fields: {sorted(names)}")
    for key, value in obj.items():
        kind = _FIELD_KINDS.get(key)
        if kind and not (is_finite_number(value) if kind is float else type(value) is kind):
            raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return obj


def _load_config(path: str, required: set, optional: set) -> dict:
    """The config at path; every config gives "schema" and "output_dir"."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}")
    if isinstance(cfg, dict) and cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f'config must declare "schema": "{SCHEMA_VERSION}"')
    return _checked(cfg, "config", required | {"schema", "output_dir"}, optional)


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


def _sample_points(cfg: dict, space) -> list:
    """The points of the config's sample spec ("default", "exhaustive" or
    an explicit list of carrier points)."""
    sample = cfg.get("sample", "default")
    try:
        return resolve_sample(space, sample)
    except (TypeError, ValueError, UnsupportedError) as exc:
        raise ConfigError(f"bad sample {sample!r}: {exc}")


def _build_ctx(cfg: dict) -> PreorderCtx:
    """The order context of a config: its space, phi, slack and metric mode."""
    space = _build_space(cfg["space"])
    phi = _from_catalog("phi", catalog.get_phi, cfg["phi"])
    slack = float(cfg.get("slack", 1e-12))
    try:
        return PreorderCtx(space, phi, cfg.get("metric_mode", "plain"), slack)
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


def _build_solver_cfg(obj: dict) -> SolverConfig:
    _checked(obj, "solver", set(), {f.name for f in fields(SolverConfig)})
    try:
        return SolverConfig(**obj)
    except ValueError as exc:
        raise ConfigError(f"bad solver config: {exc}")


# -- output -------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_atomic(out_dir: str, filename: str, write) -> None:
    """Have write(tmp) fill a temporary file, then rename it into place,
    so a reader never sees a half-written file.  An OSError, such as an
    output_dir that cannot be created, is a ConfigError."""
    path = os.path.join(out_dir, filename)
    tmp = path + ".tmp"
    try:
        os.makedirs(out_dir, exist_ok=True)
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {filename} to output_dir {out_dir!r}: {exc}")


def _write_report(payload: dict, out_dir: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    _write_atomic(out_dir, "report.json", lambda tmp: Path(tmp).write_text(text))


# -- subcommands ---------------------------------------------------------
# Each takes the checked config and the parsed arguments and returns the
# report.json payload and whether every check passed.


def _cmd_check_space(cfg, args):
    space = _build_space(cfg["space"])
    slack = float(cfg.get("slack", 1e-12))
    if cfg.get("sample", "default") not in ("default", "exhaustive"):
        raise ConfigError('sample must be "default" or "exhaustive"')
    pts = _sample_points(cfg, space)
    axioms = check_axioms(space, pts, slack=slack)
    t0 = check_T0(space, pts, slack=slack)
    ok = axioms.passed and (t0.passed or not cfg.get("require_t0", False))
    return {"axioms": axioms.as_dict(), "t0": t0.as_dict(), "passed": ok}, ok


def _cmd_check_order(cfg, args):
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
    return payload, ok


def _cmd_check_relations(cfg, args):
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
        return {"kind": relation, "passed": False, "domain_escape": str(exc)}, False
    return report.as_dict(), report.passed


def _cmd_solve(cfg, args):
    solver_cfg = _build_solver_cfg(cfg.get("solver", {}))
    ctx = _build_ctx(cfg)
    space = ctx.space
    maps = _build_maps(cfg["maps"])
    coupled, selfmaps = maps[0], maps[1:]
    scheme, strict = cfg["scheme"], cfg.get("strict_seed", False)
    try:
        check_scheme(scheme, len(selfmaps))
    except ValueError as exc:
        raise ConfigError(str(exc))

    seed_pair = cfg["seed_pair"]
    if seed_pair == "search":
        try:
            seed = seed_search(run_contexts(ctx, solver_cfg)[2], coupled, space.grid())
        except DomainError as exc:
            return {"status": "domain_escape", "detail": str(exc)}, False
        if seed is None:
            return {"status": "no_seed", "detail": "no admissible starting pair found"}, False
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
    _write_atomic(cfg["output_dir"], "trace.csv", report.trace.write_csv)
    return report.as_dict(trace_ref="trace.csv"), report.status == "converged"


def _cmd_oracle(cfg, args):
    space = _build_space(cfg["space"])
    if not space.is_finite:
        raise ConfigError("oracle needs a finite space")
    maps = _build_maps(cfg["maps"])
    try:
        report = enumerate_points(space, maps[0], maps[1:], tol=float(cfg.get("tol", 0.0)))
    except DomainError as exc:
        raise ConfigError(f"bad map: {exc}")
    return report.as_dict(), True


def _cmd_compare(cfg, args):
    camp = _checked(cfg["campaign"], "campaign", set(),
                    {"instances", "min_points", "max_points", "map_counts"})
    solver_cfg = _build_solver_cfg(cfg["solver"]) if "solver" in cfg else None
    instances = camp.get("instances", 100)
    min_points = camp.get("min_points", 2)
    max_points = camp.get("max_points", 6)
    map_counts = tuple(camp.get("map_counts", [0, 1, 2]))
    if instances < 0 or not 1 <= min_points <= max_points <= ORACLE_POINT_CAP:
        raise ConfigError("campaign needs instances >= 0 and "
                          f"1 <= min_points <= max_points <= {ORACLE_POINT_CAP}")
    if not map_counts or any(type(k) is not int or k < 0 for k in map_counts):
        raise ConfigError("map_counts must be a nonempty list of integers >= 0")
    try:
        report = run_agreement_campaign(args.seed, instances, min_points, max_points,
                                        map_counts, cfg=solver_cfg)
    except ValueError as exc:  # a solver tol the exact oracle cannot judge
        raise ConfigError(f"bad solver config: {exc}")
    return {**report.as_dict(), "seed": args.seed}, report.passed


# -- entry point ---------------------------------------------------------

# name: (run, required config fields, optional config fields, takes --seed);
# every config also gives "schema" and "output_dir"
_COMMANDS = {
    "check-space": (_cmd_check_space, {"space"}, {"sample", "slack", "require_t0"}, False),
    "check-order": (_cmd_check_order, {"space", "phi"},
                    {"maps", "sample", "slack", "metric_mode"}, False),
    "check-relations": (_cmd_check_relations, {"space", "phi", "maps"},
                        {"relation", "slack", "metric_mode"}, False),
    "solve": (_cmd_solve, {"space", "phi", "maps", "scheme", "seed_pair"},
              {"solver", "strict_seed", "slack"}, False),
    "oracle": (_cmd_oracle, {"space", "maps"}, {"tol"}, False),
    "compare": (_cmd_compare, {"campaign"}, {"solver"}, True),
}


@cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpfix",
        description="Checks, solvers, and oracles for coupled fixed points "
        "on preordered asymmetric-distance spaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (*_, takes_seed) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a JSON run config")
        if takes_seed:
            sp.add_argument("--seed", required=True, type=int,
                            help="RNG seed (required for reproducibility)")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run, required, optional, _ = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config, required, optional)
        payload, passed = run(cfg, args)
        _write_report(payload, cfg["output_dir"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
