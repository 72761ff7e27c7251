"""Batch front end: propagate / compare / verify / elements.

Configuration is a single JSON document; every field has a default and the
merged result can be inspected with --print-config.  Exit codes: 0 ok,
1 verification failure, 2 usage or config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import checks
from .domain import ORDERS
from .elements import (
    CartesianState,
    DelaunayState,
    EARTH,
    KeplerianElements,
    PhysicalModel,
    cartesian_to_kep,
    delaunay_to_kep,
    kep_to_cartesian,
    kep_to_delaunay,
)
from .errors import DomainError, UsageError, ZeipelError
from .propagator import propagate_analytic, propagate_oracle

CSV_HEADER = "t,a,e,i,raan,argp,M,x,y,z,vx,vy,vz,L,G,H,l,g,h"
_FLOAT_FORMAT = "%.17g"  # every float the CSVs and compare.txt write; 17 digits round-trip a double
# Config document sections and the RunConfig fields each one holds.
_SECTION_FIELDS = {
    "model": ("mu", "R", "zonal"),
    "elements": ("a", "e", "i", "raan", "argp", "mean_anom"),
    "grid": ("t0", "t1", "count", "step"),
    "run": ("order", "out_dir", "seed"),
}


def _require_type(name, value, like):
    """Refuse, naming it, a JSON value unlike `like`: a string, a list of
    numbers for a tuple, an integer, or a number (or null, for None)."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)
    kind, ok = {
        str: ("a string", isinstance(value, str)),
        tuple: ("a list of numbers", isinstance(value, (list, tuple)) and all(map(number, value))),
        int: ("an integer", number(value) and isinstance(value, int)),
    }.get(type(like), ("a number", number(value) or (like is None and value is None)))
    if not ok:
        raise UsageError(f"{name} must be {kind}")


@dataclass(frozen=True)
class RunConfig:
    mu: float = EARTH.mu
    R: float = EARTH.R
    zonal: tuple = EARTH.zonal
    a: float = 7000.0
    e: float = 0.01
    i: float = 0.5
    raan: float = 0.3
    argp: float = 1.1
    mean_anom: float = 0.2
    t0: float = 0.0
    t1: float = 58285.0
    count: int = 401
    step: float | None = None
    order: int = 2
    out_dir: str = "out"
    seed: int = 20260818

    def validate(self):
        for f in fields(self):
            _require_type(f.name, getattr(self, f.name), f.default)
        if not self.t1 > self.t0:
            raise UsageError("grid requires t1 > t0")
        if self.step is not None and not self.step > 0:
            raise UsageError("grid step must be positive")
        if self.step is None and self.count < 2:
            raise UsageError("grid count must be at least 2")
        if self.step is not None and len(self.times) < 2:
            raise UsageError("grid step must not exceed t1 - t0 (the grid needs at least 2 samples)")
        if self.order not in ORDERS:
            raise UsageError(f"order must be one of {ORDERS}")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        return self

    @property
    def model(self):
        return PhysicalModel(self.mu, self.R, tuple(self.zonal))

    @property
    def elements(self):
        return KeplerianElements(self.a, self.e, self.i, self.raan, self.argp, self.mean_anom)

    @property
    def times(self):
        if self.step is not None:
            # a span within 1e-9 of a whole number of steps ends exactly at t1
            span = (self.t1 - self.t0) / self.step
            k = round(span)
            if abs(span - k) <= 1e-9 * max(k, 1):
                return np.append(self.t0 + self.step * np.arange(k), self.t1)
            return self.t0 + self.step * np.arange(int(np.floor(span)) + 1)
        return np.linspace(self.t0, self.t1, self.count)

    def as_document(self):
        return {
            section: {key: getattr(self, key) for key in keys}
            for section, keys in _SECTION_FIELDS.items()
        }


def load_config(path=None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config document must be a JSON object")
    updates = {}
    for section, payload in doc.items():
        if section not in _SECTION_FIELDS:
            raise UsageError(f"unknown config section {section!r}")
        if not isinstance(payload, dict):
            raise UsageError(f"config section {section!r} must be an object")
        for key, value in payload.items():
            if key not in _SECTION_FIELDS[section]:
                raise UsageError(f"unknown config key {section}.{key}")
            updates[key] = value
    return replace(cfg, **updates)


def _fmt(x):
    return _FLOAT_FORMAT % float(x)


def write_ephemeris_csv(path, eph):
    """One line per sample: t, then the Keplerian, Cartesian and Delaunay
    rows, each value as `_fmt` writes it."""
    rows = np.column_stack([eph.t, eph.kep, eph.cart, eph.delaunay])
    line = ",".join([_FLOAT_FORMAT] * rows.shape[1])
    lines = [CSV_HEADER] + [line % tuple(row) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


# -- commands ----------------------------------------------------------------


def _output_dir(cfg: RunConfig):
    """The output directory, created once every result is in hand, so that
    a refused or failed run leaves no directory and no partial output."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {cfg.out_dir}: {exc.strerror}") from exc
    return out


def cmd_propagate(cfg: RunConfig, oracle: bool, stdout):
    model = cfg.model
    ephs = {"analytic": propagate_analytic(cfg.elements, cfg.times, model, order=cfg.order)}
    if oracle:
        ephs["oracle"] = propagate_oracle(kep_to_cartesian(cfg.elements, model), cfg.times, model)
    out = _output_dir(cfg)
    for name, eph in ephs.items():
        path = out / f"{name}.csv"
        write_ephemeris_csv(path, eph)
        stdout.write(f"{name} ephemeris: {path} ({len(eph)} rows)\n")
    return 0


def cmd_compare(cfg: RunConfig, stdout):
    levels = checks.halving_study(cfg.elements, cfg.times, cfg.model, (cfg.order,))
    errs = [lv.reports[cfg.order].max_pos_err for lv in levels]
    ptps = [np.ptp(mean, axis=0) for mean in checks.halving_means(levels, cfg.order)]
    lines = [
        f"# analytic(order={cfg.order}) vs oracle, J2={_fmt(cfg.model.j2)}",
        f"max_pos_err_km {_fmt(errs[0])}",
        f"rms_pos_err_km {_fmt(levels[0].reports[cfg.order].rms_pos_err)}",
        "# halving table: J2 max_pos_err_km ptp_L ptp_G ptp_H",
    ]
    for lv, err, ptp in zip(levels, errs, ptps):
        lines.append(" ".join(_fmt(x) for x in (lv.model.j2, err, *ptp)))
    lines.append("# successive ratios: position then momenta ptp")
    for ratio_pos, ratio_ptp in zip(checks.halving_ratios(errs), checks.halving_ratios(ptps)):
        lines.append(" ".join(_fmt(x) for x in (ratio_pos, *ratio_ptp)))

    text = "\n".join(lines) + "\n"
    (_output_dir(cfg) / "compare.txt").write_text(text)
    stdout.write(text)
    return 0


def verify_checks(model: PhysicalModel, order):
    """(name, function, arguments, tolerance) of each `zeipel verify` check,
    in the order they run; every function takes the shared rng first."""
    draw = {"e_range": (0.01, 0.4), "i_range": (0.1, 3.0)}
    return (
        ("kepler-residual", checks.kepler_residual,
         {"eccentricities": np.linspace(0.0, 0.9, 10), "points": 64}, 1e-13),
        ("operator-algebra", checks.operator_algebra, {"n": 20}, 1e-12),
        ("k1-vs-quadrature", checks.k1_vs_quadrature, {"model": model, "n": 20, **draw}, 1e-10),
        ("s1-pde-residual", checks.s1_residual, {"model": model, "n": 5, "grid": 16, **draw}, 1e-9),
        ("s2-pde-residual", checks.s2_residual, {"model": model, "n": 3, "points": 16, **draw}, 1e-7),
        ("k2-two-routes", checks.k2_two_routes, {"model": model, "n": 5, **draw}, 1e-8),
        ("map-roundtrip", checks.map_roundtrip, {"model": model, "order": order, "n": 5, **draw}, 1e-9),
        ("map-jacobian-symplectic", checks.map_jacobian_symplecticity,
         {"model": model, "order": order, "n": 2, **draw}, 1e-6),
        ("block-identities", checks.symplectic_algebra, {"n": 20}, 1e-8),
    )


def cmd_verify(cfg: RunConfig, stdout):
    rng = np.random.default_rng(cfg.seed)
    failures = []
    for name, check, args, tol in verify_checks(cfg.model, cfg.order):
        measured = check(rng, **args)
        ok = measured <= tol
        stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {measured:.3e} (tol {tol:.3e})\n")
        if not ok:
            failures.append(name)
    if failures:
        stdout.write(f"verification failed: {', '.join(failures)}\n")
        return 1
    stdout.write("verification passed\n")
    return 0


# Each `elements` direction: its input state class and its conversion.
_DIRECTIONS = {
    "kep_to_delaunay": (KeplerianElements, kep_to_delaunay),
    "delaunay_to_kep": (DelaunayState, delaunay_to_kep),
    "kep_to_cartesian": (KeplerianElements, kep_to_cartesian),
    "cartesian_to_kep": (CartesianState, cartesian_to_kep),
}


def _state_from_json(direction, cls, doc):
    """The direction's input state, of class `cls`, from a JSON object keyed by its fields."""
    if not isinstance(doc, dict):
        raise UsageError("--state must be a JSON object")
    keys = [f.name for f in fields(cls)]
    missing = [k for k in keys if k not in doc]
    if missing:
        raise UsageError(f"state for {direction} missing keys: {', '.join(missing)}")
    if unknown := [k for k in doc if k not in keys]:
        raise UsageError(f"state for {direction} has unknown keys: {', '.join(unknown)}")
    for k in keys:
        _require_type(k, doc[k], () if cls is CartesianState else 0.0)
    return cls(**{k: doc[k] for k in keys})


def cmd_elements(cfg: RunConfig, direction, state_json, stdout):
    if direction not in _DIRECTIONS:
        given = "" if direction is None else f", not {direction!r}"
        raise UsageError(f"elements needs --direction, one of {', '.join(_DIRECTIONS)}{given}")
    cls, convert = _DIRECTIONS[direction]
    if state_json is not None:
        try:
            doc = json.loads(state_json)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--state is not valid JSON: {exc}") from exc
        state = _state_from_json(direction, cls, doc)
    elif cls is KeplerianElements:
        state = cfg.elements
    else:
        raise UsageError(f"direction {direction} requires --state")
    out = convert(state, cfg.model)
    doc = {f.name: np.asarray(getattr(out, f.name)).tolist() for f in fields(out)}
    stdout.write(json.dumps(doc) + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="zeipel", description=__doc__)
    p.add_argument("command", choices=["propagate", "compare", "verify", "elements"])
    p.add_argument("--config", help="JSON config path; defaults apply when omitted")
    p.add_argument("--order", type=int, choices=ORDERS, help="theory order override")
    p.add_argument("--oracle", action="store_true", help="propagate: also run the numerical oracle (compare always runs it)")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--seed", type=int, help="random seed override")
    p.add_argument("--print-config", action="store_true", help="dump merged config and exit")
    p.add_argument("--direction", help="elements: conversion name, e.g. kep_to_delaunay")
    p.add_argument("--state", help="elements: input state as a JSON object")
    return p


def main(argv=None, stdout=None):
    stdout = stdout or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = load_config(args.config)
        if args.order is not None:
            cfg = replace(cfg, order=args.order)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        cfg.validate()
        if args.print_config:
            stdout.write(json.dumps(cfg.as_document(), indent=2, sort_keys=True) + "\n")
            return 0
        if args.command == "propagate":
            return cmd_propagate(cfg, args.oracle, stdout)
        if args.command == "compare":
            return cmd_compare(cfg, stdout)
        if args.command == "verify":
            return cmd_verify(cfg, stdout)
        return cmd_elements(cfg, args.direction, args.state, stdout)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeipelError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
