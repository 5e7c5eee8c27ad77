"""Command line entry point wiring configs to experiments.

Subcommands: eval, eval-grid, transform, sweep, kernel, split-check,
bessel-check, oracle-compare.  Every run writes its data as CSV (header row,
comma separated, '.' decimal separator, scientific notation with 14
significant digits) plus a JSON summary echoing the full configuration, the
library version, and any convergence flags, so a run can be reproduced from
its summary alone.

Configuration can come from a plain key=value file (--config) with command
line flags taking precedence.  OSCILLAX_WORKERS overrides the worker count.
Exit codes: 0 success, 2 usage error (including a bad or missing config
file and a non-integer OSCILLAX_WORKERS), 3 flagged non-convergence under
--strict, 4 failed numerical certification (a global range norm whose
radial truncation leaves too much of the norm in its tail).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import bessel_j, bessel_main_term, certify_asymptotic
from .cutoffs import make_cutoff
from .norms import InsufficientCoverage
from .oscillatory import SymbolParams, dispersive_field
from .profiles import annular, family as make_family
from .radial import hankel_fourier, nd_oracle_batch
from .split import (kernel_sample, recompose_residual, remainder_constant,
                    split_checks)
from .sweep import SweepConfig, format_float, records_to_csv_lines, run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_NOT_CERTIFIED = 4


class UsageError(Exception):
    """Bad input outside argparse's reach: config files, OSCILLAX_WORKERS."""


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec 'lo:hi:count' (linear) or 'log:lo:hi:count'."""
    parts = spec.split(":")
    try:
        if parts[0] == "log":
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
            if lo <= 0 or hi <= lo or count < 1:
                raise ValueError
            return np.exp(np.linspace(np.log(lo), np.log(hi), count))
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if hi < lo or count < 1:
            raise ValueError
        return np.linspace(lo, hi, count)
    except (IndexError, ValueError):
        raise argparse.ArgumentTypeError(
            f"bad grid spec {spec!r}; use lo:hi:count or log:lo:hi:count")


def _parse_floats(spec: str) -> tuple:
    try:
        return tuple(float(v) for v in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {spec!r}")


def _profile_from_args(args) -> object:
    kw = {}
    if args.family == "gaussian":
        kw["sigma"] = args.sigma
    elif args.family == "bump":
        kw["center"], kw["width"] = args.center, args.width
    elif args.family == "annular":
        kw["N"] = args.N
    elif args.family == "shell":
        kw["N"] = args.N
        kw["width"] = args.width
    elif args.family == "bandlimited":
        kw["seed"] = args.seed
    return make_family(args.family, **kw)


def _add_family_flags(sp):
    sp.add_argument("--family", choices=["gaussian", "bump", "annular", "shell", "bandlimited"])
    sp.add_argument("--sigma", type=float, default=1.0,
                    help="gaussian width parameter (default 1.0)")
    sp.add_argument("--center", type=float, default=1.0, help="bump center")
    sp.add_argument("--width", type=float, default=1.0, help="bump/shell width")
    sp.add_argument("--N", type=float, default=4.0, help="annular/shell scale")
    sp.add_argument("--seed", type=int, default=0, help="bandlimited seed")


def _write_csv(path: Path, header: str, rows: list[str]):
    path.write_text("\n".join([header] + rows) + "\n")


def _write_summary(path: Path, payload: dict):
    payload = {"version": __version__, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _echo_config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _workers(args) -> int:
    env = os.environ.get("OSCILLAX_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"bad OSCILLAX_WORKERS value {env!r}")
    return max(1, args.workers)


def _cmd_eval(args, out_dir: Path) -> int:
    g = _profile_from_args(args)
    p = SymbolParams(a=args.a, n=args.n)
    val = dispersive_field(g, p, args.r, args.t)
    print(f"re={val.real:.14e} im={val.imag:.14e} abs={abs(val):.14e}")
    return EXIT_OK


def _cmd_eval_grid(args, out_dir: Path) -> int:
    g = _profile_from_args(args)
    p = SymbolParams(a=args.a, n=args.n)
    rs = _parse_grid(args.r_grid)
    ts = _parse_grid(args.t_grid)
    vals = dispersive_field(g, p, rs, ts)
    rows = []
    for i, r in enumerate(rs):
        for j, t in enumerate(ts):
            v = vals[i, j]
            rows.append(",".join([format_float(r), format_float(t),
                                  format_float(v.real), format_float(v.imag),
                                  format_float(abs(v))]))
    _write_csv(out_dir / "eval_grid.csv", "r,t,re,im,abs", rows)
    _write_summary(out_dir / "eval_grid_summary.json", {
        "subcommand": "eval-grid",
        "config": _echo_config(args, ["family", "sigma", "center", "width", "N",
                                      "seed", "a", "n", "r_grid", "t_grid"]),
    })
    return EXIT_OK


def _cmd_transform(args, out_dir: Path) -> int:
    f0 = _profile_from_args(args)
    rhos = _parse_grid(args.rho_grid)
    vals = np.atleast_1d(hankel_fourier(f0, args.n, rhos))
    rows = [",".join([format_float(r), format_float(v)])
            for r, v in zip(rhos, vals)]
    _write_csv(out_dir / "transform.csv", "rho,fhat", rows)
    _write_summary(out_dir / "transform_summary.json", {
        "subcommand": "transform",
        "config": _echo_config(args, ["family", "sigma", "center", "width", "N",
                                      "seed", "n", "rho_grid"]),
    })
    return EXIT_OK


def _cmd_sweep(args, out_dir: Path) -> int:
    cfg = SweepConfig(a=args.a, n=args.n, s_list=tuple(args.s_list),
                      N_list=tuple(args.N_list), range_kind=args.range,
                      family=args.family, modulated=args.modulated,
                      y_count=args.y_count)
    records, exponents = run_sweep(cfg, workers=_workers(args))
    header, *rows = records_to_csv_lines(records)
    _write_csv(out_dir / "sweep.csv", header, rows)
    all_converged = all(r.converged for r in records)
    _write_summary(out_dir / "sweep_summary.json", {
        "subcommand": "sweep",
        "config": {"a": args.a, "n": args.n,
                   "s_list": ",".join(f"{s:g}" for s in args.s_list),
                   "N_list": ",".join(f"{N:g}" for N in args.N_list),
                   "range": args.range, "family": args.family,
                   "modulated": args.modulated, "y_count": args.y_count},
        "exponents": exponents,
        "converged": all_converged,
        "cells": [{"family": r.family, "N": r.N, "s": r.p.s,
                   "converged": bool(r.converged), "t_level": r.t_level,
                   "r_points": r.r_points, "r_max": r.r_max,
                   "rho_points": r.rho_points,
                   "tail_fraction": r.tail_fraction,
                   "t_samples": r.t_samples, "t_bound": r.t_bound}
                  for r in records],
    })
    if args.strict and not all_converged:
        print("sweep: flagged non-convergence (see sweep_summary.json)",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_kernel(args, out_dir: Path) -> int:
    p = SymbolParams(a=args.a, n=1, s=args.s)
    x, k_vals, l1, t_degree, l1_bound = kernel_sample(args.m, args.mu, p)
    rows = [",".join([format_float(xx), format_float(kk)])
            for xx, kk in zip(x, k_vals)]
    _write_csv(out_dir / "kernel.csv", "x,K", rows)
    _write_summary(out_dir / "kernel_summary.json", {
        "subcommand": "kernel",
        "config": _echo_config(args, ["m", "mu", "a", "s"]),
        "l1_estimate": l1,
        "t_degree": t_degree,
        "l1_bound": l1_bound,
    })
    return EXIT_OK


def _cmd_split_check(args, out_dir: Path) -> int:
    p = SymbolParams(a=args.a, n=args.n, s=args.s)
    cut = make_cutoff()
    cert = certify_asymptotic(p.lam, 1.05, 2.0 ** 12)
    bound = remainder_constant(p, cut, cert)
    residual = recompose_residual(annular(4.0), p,
                                  np.linspace(0.0, 6.0, 13),
                                  np.array([-0.7, 0.0, 0.5]))
    max_split_dev, max_ratio = split_checks(p, args.pairs, 1000)
    report = {
        "subcommand": "split-check",
        "config": _echo_config(args, ["a", "n", "s", "pairs"]),
        "recompose_residual": residual,
        "split_sum_deviation": max_split_dev,
        "remainder_bound": bound,
        "remainder_max_ratio": max_ratio,
        "bound_satisfied": bool(max_ratio <= bound),
    }
    _write_summary(out_dir / "split_check_summary.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.strict and not (residual <= 1e-9 and max_split_dev <= 1e-9
                            and max_ratio <= bound):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_bessel_check(args, out_dir: Path) -> int:
    lam = args.lam
    rhos = np.exp(np.linspace(np.log(args.rho_min), np.log(args.rho_max), args.count))
    j = np.asarray(bessel_j(lam, rhos))
    main = np.asarray(bessel_main_term(lam, rhos))
    rem = j - main
    scaled = rhos ** 1.5 * np.abs(rem)
    rows = [",".join([format_float(r), format_float(jj), format_float(mm),
                      format_float(re), format_float(sc)])
            for r, jj, mm, re, sc in zip(rhos, j, main, rem, scaled)]
    _write_csv(out_dir / "bessel_check.csv",
               "rho,j,main,remainder,scaled_remainder", rows)
    cert = certify_asymptotic(lam, args.rho_min, args.rho_max)
    _write_summary(out_dir / "bessel_check_summary.json", {
        "subcommand": "bessel-check",
        "config": _echo_config(args, ["lam", "rho_min", "rho_max", "count"]),
        "c_lambda_empirical": cert.c_lambda_empirical,
        "octave_sups": list(cert.octave_sups),
    })
    return EXIT_OK


def _cmd_oracle_compare(args, out_dir: Path) -> int:
    f0 = _profile_from_args(args)
    rhos = _parse_grid(args.rho_grid)
    hv = hankel_fourier(f0, args.n, rhos)
    ov = nd_oracle_batch(f0, args.n, rhos)
    rel = np.abs(hv - ov) / np.maximum(np.abs(ov), 1e-300)
    worst = float(np.max(rel))
    rows = [",".join([format_float(r), format_float(h), format_float(o.real),
                      format_float(e)])
            for r, h, o, e in zip(rhos, hv, ov, rel)]
    _write_csv(out_dir / "oracle_compare.csv", "rho,hankel,oracle,rel_err", rows)
    _write_summary(out_dir / "oracle_compare_summary.json", {
        "subcommand": "oracle-compare",
        "config": _echo_config(args, ["family", "sigma", "center", "width", "N",
                                      "seed", "n", "rho_grid"]),
        "max_rel_err": worst,
    })
    return EXIT_OK


def _load_config_defaults(argv):
    """Pull --config FILE out of argv and parse its key=value pairs."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return {}
    try:
        text = Path(known.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    defaults = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        defaults[key.strip().replace("-", "_")] = value.strip()
    return defaults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillax",
        description="Numerical experiments on maximal oscillatory integrals "
                    "of radial data: field evaluation, radial transforms, "
                    "threshold sweeps, kernel and split checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="key=value config file; flags override")
    common.add_argument("--out-dir", type=str, default=".",
                        help="directory for CSV/JSON artifacts")
    common.add_argument("--strict", action="store_true",
                        help="exit with code 3 on flagged non-convergence")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweeps "
                             "(OSCILLAX_WORKERS overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("eval", help="single point: prints re/im/abs")
    _add_family_flags(sp)
    sp.add_argument("--a", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=float)
    sp.add_argument("--t", type=float)
    sp.set_defaults(func=_cmd_eval)

    sp = add_parser("eval-grid", help="CSV field values r,t,re,im,abs")
    _add_family_flags(sp)
    sp.add_argument("--a", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r-grid", type=str, help="lo:hi:count or log:lo:hi:count")
    sp.add_argument("--t-grid", type=str)
    sp.set_defaults(func=_cmd_eval_grid)

    sp = add_parser("transform", help="CSV radial transform rho,fhat")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--rho-grid", type=str)
    sp.set_defaults(func=_cmd_transform)

    sp = add_parser("sweep", help="threshold sweep over (s, N) cells")
    sp.add_argument("--a", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--s-list", type=_parse_floats)
    sp.add_argument("--N-list", type=_parse_floats)
    sp.add_argument("--range", choices=["local", "global"], default="global")
    sp.add_argument("--family", choices=["shell", "annular"], default="shell")
    sp.add_argument("--modulated", action="store_true",
                    help="average squared local ratios over radial "
                         "modulations (requires a < 1)")
    sp.add_argument("--y-count", type=int, default=16)
    sp.set_defaults(func=_cmd_sweep)

    sp = add_parser("kernel", help="sample the localized sup-in-t kernel")
    sp.add_argument("--m", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--s", type=float)
    sp.set_defaults(func=_cmd_kernel)

    sp = add_parser("split-check",
                        help="JSON report: recomposition residuals and the "
                             "remainder operator bound")
    sp.add_argument("--a", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--s", type=float)
    sp.add_argument("--pairs", type=int, default=20)
    sp.set_defaults(func=_cmd_split_check)

    sp = add_parser("bessel-check",
                        help="CSV of J_lam vs its large-argument main term")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--rho-min", type=float)
    sp.add_argument("--rho-max", type=float)
    sp.add_argument("--count", type=int, default=4096)
    sp.set_defaults(func=_cmd_bessel_check)

    sp = add_parser("oracle-compare",
                        help="CSV comparing the radial transform with the "
                             "direct tensor-quadrature oracle")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--rho-grid", type=str)
    sp.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        defaults = _load_config_defaults(argv)
    except UsageError as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    # A config entry applies unless the same option appeared on the command
    # line (full option names; abbreviations are not honoured for overrides).
    given = {tok.split("=", 1)[0][2:].replace("-", "_")
             for tok in argv if tok.startswith("--")}
    for key, raw in defaults.items():
        if hasattr(args, key) and key not in given:
            try:
                setattr(args, key, _coerce_value(key, raw))
            except (ValueError, argparse.ArgumentTypeError):
                print(f"oscillax: bad config value {key}={raw!r}", file=sys.stderr)
                return EXIT_USAGE
    missing = [k for k in _REQUIRED.get(args.command, ())
               if getattr(args, k, None) is None]
    if missing:
        print(f"oscillax {args.command}: missing required settings: "
              + ", ".join("--" + m.replace("_", "-") for m in missing),
              file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args, out_dir)
    except InsufficientCoverage as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    except (UsageError, ValueError, OSError) as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_USAGE


_REQUIRED = {
    "eval": ("family", "a", "n", "r", "t"),
    "eval-grid": ("family", "a", "n", "r_grid", "t_grid"),
    "transform": ("family", "n", "rho_grid"),
    "sweep": ("a", "n", "s_list", "N_list"),
    "kernel": ("m", "mu", "a", "s"),
    "split-check": ("a", "n", "s"),
    "bessel-check": ("lam", "rho_min", "rho_max"),
    "oracle-compare": ("family", "n", "rho_grid"),
}

_COERCERS = {
    "a": float, "n": int, "r": float, "t": float, "s": float,
    "m": float, "mu": float, "lam": float, "rho_min": float, "rho_max": float,
    "count": int, "pairs": int, "seed": int, "y_count": int, "workers": int,
    "N": float, "sigma": float, "center": float, "width": float,
    "s_list": _parse_floats, "N_list": _parse_floats,
    "modulated": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "strict": lambda v: v.lower() in ("1", "true", "yes", "on"),
}


def _coerce_value(key, raw):
    return _COERCERS.get(key, str)(raw)


if __name__ == "__main__":
    sys.exit(main())
