"""Command line entry point wiring configs to experiments.

Subcommands: eval, eval-grid, transform, sweep, kernel, split-check,
bessel-check, oracle-compare.  Every run writes its data as CSV (header row,
comma separated, '.' decimal separator, scientific notation with 14
significant digits) plus a JSON summary echoing the subcommand's own options,
the library version, and any convergence flags, so a run can be reproduced
from its summary alone.

Configuration can come from a plain key=value file (--config).  Each entry
that names an option of the chosen subcommand (by its dest: y_count or
y-count, lam for --lambda) is parsed as that option, before the command line
flags, so flags, abbreviated ones included, override it; keys of other
subcommands and unknown keys are ignored.  A store_true option (modulated,
strict) is set by 1/true/yes/on and left off by any other value.
OSCILLAX_WORKERS overrides the worker count.  Exit codes: 0 success,
2 usage error (including a bad or missing config file, a config value its
option rejects, a grid spec with a non-finite bound, a --pairs or --count
below 1, and a non-integer OSCILLAX_WORKERS), 3 flagged
non-convergence under --strict, 4 a numerical failure: a global range norm
whose radial truncation leaves too much of the norm in its tail, a diverging
Sobolev integral, a profile or field that does not decay, or an isometry
check whose truncation would not certify.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import bessel_j, bessel_main_term, certify_asymptotic
from .cutoffs import make_cutoff
from .oscillatory import SymbolParams, dispersive_field
from .profiles import (NumericalFailure, annular, bandlimited, bump,
                       gaussian, shell)
from .radial import hankel_fourier, nd_oracle_batch
from .split import (kernel_sample, recompose_residual, remainder_constant,
                    split_checks)
from .sweep import (SweepConfig, format_float, pinned_map,
                    records_to_csv_lines, run_sweep)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_NOT_CERTIFIED = 4


class UsageError(Exception):
    """Bad input outside argparse's reach: config, grid specs, OSCILLAX_WORKERS."""


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec 'lo:hi:count' (linear) or 'log:lo:hi:count', finite bounds."""
    parts = spec.split(":")
    log = parts[0] == "log"
    try:
        lo, hi, count = float(parts[log]), float(parts[log + 1]), int(parts[log + 2])
        if (not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo or count < 1
                or log and (lo <= 0 or hi == lo)):
            raise ValueError
    except (IndexError, ValueError):
        raise UsageError(
            f"bad grid spec {spec!r}; use lo:hi:count or log:lo:hi:count")
    if log:
        return np.exp(np.linspace(np.log(lo), np.log(hi), count))
    return np.linspace(lo, hi, count)


def _parse_floats(spec: str) -> tuple:
    try:
        return tuple(float(v) for v in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {spec!r}")


# Profile families of eval, eval-grid, transform and oracle-compare.
_PROFILES = {
    "gaussian": lambda args: gaussian(args.sigma),
    "bump": lambda args: bump(args.center, args.width),
    "annular": lambda args: annular(args.N),
    "shell": lambda args: shell(args.N, args.width),
    "bandlimited": lambda args: bandlimited(args.seed),
}


def _add_family_flags(sp):
    sp.add_argument("--family", choices=list(_PROFILES), required=True)
    sp.add_argument("--sigma", type=float, default=1.0,
                    help="gaussian width parameter (default 1.0)")
    sp.add_argument("--center", type=float, default=1.0, help="bump center")
    sp.add_argument("--width", type=float, default=1.0, help="bump/shell width")
    sp.add_argument("--N", type=float, default=4.0, help="annular/shell scale")
    sp.add_argument("--seed", type=int, default=0, help="bandlimited seed")


def _write_csv(path: Path, **columns):
    """Write equal-length columns of numbers as CSV: the column names are
    the header and every value goes through `format_float`."""
    rows = zip(*(map(format_float, col) for col in columns.values()))
    path.write_text("\n".join([",".join(columns)] + [",".join(row) for row in rows])
                    + "\n")


def _write_summary(args, out_dir: Path, **fields) -> dict:
    """Write <command>_summary.json: the version, the subcommand, fields and
    the subcommand's own options as parsed (float lists as 'v1,v2') under
    "config".  Returns the report without the version."""
    skip = vars(_common_parser().parse_args([])).keys() | {"command", "func"}
    config = {k: ",".join(f"{v:g}" for v in val) if isinstance(val, tuple) else val
              for k, val in vars(args).items() if k not in skip}
    report = {"subcommand": args.command, "config": config, **fields}
    path = out_dir / f"{args.command.replace('-', '_')}_summary.json"
    path.write_text(json.dumps({"version": __version__, **report}, indent=2,
                               sort_keys=True) + "\n")
    return report


def _workers(args) -> int:
    env = os.environ.get("OSCILLAX_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"bad OSCILLAX_WORKERS value {env!r}")
    return max(1, args.workers)


def _cmd_eval(args, out_dir: Path) -> int:
    g = _PROFILES[args.family](args)
    p = SymbolParams(a=args.a, n=args.n)
    val = dispersive_field(g, p, args.r, args.t)
    print(f"re={val.real:.14e} im={val.imag:.14e} abs={abs(val):.14e}")
    return EXIT_OK


def _cmd_eval_grid(args, out_dir: Path) -> int:
    g = _PROFILES[args.family](args)
    p = SymbolParams(a=args.a, n=args.n)
    rs = _parse_grid(args.r_grid)
    ts = _parse_grid(args.t_grid)
    vals = dispersive_field(g, p, rs, ts)
    # hypot rounds like abs() of each complex value; np.abs need not.
    _write_csv(out_dir / "eval_grid.csv", r=np.repeat(rs, ts.size),
               t=np.tile(ts, rs.size), re=vals.real.ravel(), im=vals.imag.ravel(),
               abs=np.hypot(vals.real, vals.imag).ravel())
    _write_summary(args, out_dir)
    return EXIT_OK


def _cmd_transform(args, out_dir: Path) -> int:
    f0 = _PROFILES[args.family](args)
    rhos = _parse_grid(args.rho_grid)
    _write_csv(out_dir / "transform.csv", rho=rhos,
               fhat=np.atleast_1d(hankel_fourier(f0, args.n, rhos)))
    _write_summary(args, out_dir)
    return EXIT_OK


def _cmd_sweep(args, out_dir: Path) -> int:
    cfg = SweepConfig(a=args.a, n=args.n, s_list=args.s_list,
                      N_list=args.N_list, range_kind=args.range,
                      family=args.family, modulated=args.modulated,
                      y_count=args.y_count)
    records, exponents = run_sweep(cfg, workers=_workers(args))
    (out_dir / "sweep.csv").write_text("\n".join(records_to_csv_lines(records))
                                       + "\n")
    all_converged = all(r.diagnostics["converged"] for r in records)
    _write_summary(args, out_dir, exponents=exponents, converged=all_converged,
                   cells=[{"family": r.family, "N": r.N, "s": r.p.s,
                           **r.diagnostics} for r in records])
    if args.strict and not all_converged:
        print("sweep: flagged non-convergence (see sweep_summary.json)",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_kernel(args, out_dir: Path) -> int:
    # One pinned worker, so kernel.csv does not depend on the BLAS threads.
    p = SymbolParams(a=args.a, n=1, s=args.s)
    [(x, k_vals, l1, t_degree, l1_bound)] = pinned_map(
        partial(kernel_sample, args.m, args.mu), [p], 1)
    _write_csv(out_dir / "kernel.csv", x=x, K=k_vals)
    _write_summary(args, out_dir, l1_estimate=l1, t_degree=t_degree,
                   l1_bound=l1_bound)
    return EXIT_OK


def _cmd_split_check(args, out_dir: Path) -> int:
    if args.pairs < 1:      # a check of no pair would pass vacuously
        raise UsageError("--pairs must be >= 1")
    p = SymbolParams(a=args.a, n=args.n, s=args.s)
    cut = make_cutoff()
    cert = certify_asymptotic(p.lam, 1.05, 2.0 ** 12)
    bound = remainder_constant(p, cut, cert)
    residual = recompose_residual(annular(4.0), p,
                                  np.linspace(0.0, 6.0, 13),
                                  np.array([-0.7, 0.0, 0.5]))
    max_split_dev, max_ratio = split_checks(p, args.pairs, 1000)
    report = _write_summary(
        args, out_dir, recompose_residual=residual,
        split_sum_deviation=max_split_dev, remainder_bound=bound,
        remainder_max_ratio=max_ratio, bound_satisfied=bool(max_ratio <= bound))
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.strict and not (residual <= 1e-9 and max_split_dev <= 1e-9
                            and max_ratio <= bound):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_bessel_check(args, out_dir: Path) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    lam = args.lam
    # The certificate validates the range before anything is written.
    cert = certify_asymptotic(lam, args.rho_min, args.rho_max)
    rhos = np.exp(np.linspace(np.log(args.rho_min), np.log(args.rho_max), args.count))
    j = np.asarray(bessel_j(lam, rhos))
    main = np.asarray(bessel_main_term(lam, rhos))
    rem = j - main
    _write_csv(out_dir / "bessel_check.csv", rho=rhos, j=j, main=main,
               remainder=rem, scaled_remainder=rhos ** 1.5 * np.abs(rem))
    _write_summary(args, out_dir, c_lambda_empirical=cert.c_lambda_empirical,
                   octave_sups=list(cert.octave_sups))
    return EXIT_OK


def _cmd_oracle_compare(args, out_dir: Path) -> int:
    f0 = _PROFILES[args.family](args)
    rhos = _parse_grid(args.rho_grid)
    hv = hankel_fourier(f0, args.n, rhos)
    ov = nd_oracle_batch(f0, args.n, rhos)
    rel = np.abs(hv - ov) / np.maximum(np.abs(ov), 1e-300)
    _write_csv(out_dir / "oracle_compare.csv", rho=rhos, hankel=hv,
               oracle=ov.real, rel_err=rel)
    _write_summary(args, out_dir, max_rel_err=float(np.max(rel)))
    return EXIT_OK


def _common_parser() -> argparse.ArgumentParser:
    """The options every subcommand takes.

    exit_on_error=False lets `_config_tokens` read --config alone and leave
    every error to the full parse; a parent parser passes on only its options.
    """
    common = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    common.add_argument("--config", type=str, default=None,
                        help="key=value config file; flags override")
    common.add_argument("--out-dir", type=str, default=".",
                        help="directory for CSV/JSON artifacts")
    common.add_argument("--strict", action="store_true",
                        help="exit with code 3 on flagged non-convergence")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweeps "
                             "(OSCILLAX_WORKERS overrides)")
    return common


def _config_tokens(sp, argv) -> list[str]:
    """'--option=value' tokens for the --config entries naming sp's options.

    argv is the command line after the subcommand name.  Other keys are
    ignored; a store_true option gets its bare flag when the value is
    1/true/yes/on and nothing otherwise.
    """
    try:
        path = _common_parser().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return []          # the full parse reports it
    if path is None:
        return []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    options = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = options.get(key.replace("-", "_"))
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return tokens


def build_parser():
    """The oscillax parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="oscillax",
        description="Numerical experiments on maximal oscillatory integrals "
                    "of radial data: field evaluation, radial transforms, "
                    "threshold sweeps, kernel and split checks.")
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(func=func)
        return sp

    sp = add_parser("eval", _cmd_eval, help="single point: prints re/im/abs")
    _add_family_flags(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)

    sp = add_parser("eval-grid", _cmd_eval_grid,
                    help="CSV field values r,t,re,im,abs")
    _add_family_flags(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r-grid", type=str, required=True,
                    help="lo:hi:count or log:lo:hi:count")
    sp.add_argument("--t-grid", type=str, required=True)

    sp = add_parser("transform", _cmd_transform,
                    help="CSV radial transform rho,fhat")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho-grid", type=str, required=True)

    sp = add_parser("sweep", _cmd_sweep,
                    help="threshold sweep over (s, N) cells")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s-list", type=_parse_floats, required=True)
    sp.add_argument("--N-list", type=_parse_floats, required=True)
    sp.add_argument("--range", choices=["local", "global"], default="global")
    sp.add_argument("--family", choices=["shell", "annular"], default="shell")
    sp.add_argument("--modulated", action="store_true",
                    help="average squared local ratios over radial "
                         "modulations (requires a < 1)")
    sp.add_argument("--y-count", type=int, default=16)

    sp = add_parser("kernel", _cmd_kernel,
                    help="sample the localized sup-in-t kernel")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)

    sp = add_parser("split-check", _cmd_split_check,
                    help="JSON report: recomposition residuals and the "
                         "remainder operator bound")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--pairs", type=int, default=20)

    sp = add_parser("bessel-check", _cmd_bessel_check,
                    help="CSV of J_lam vs its large-argument main term")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--rho-min", type=float, required=True)
    sp.add_argument("--rho-max", type=float, required=True)
    sp.add_argument("--count", type=int, default=4096)

    sp = add_parser("oracle-compare", _cmd_oracle_compare,
                    help="CSV comparing the radial transform with the "
                         "direct tensor-quadrature oracle")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho-grid", type=str, required=True)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = build_parser()
    sp = subcommands.get(argv[0]) if argv else None
    try:
        tokens = _config_tokens(sp, argv[1:]) if sp is not None else []
    except UsageError as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Config entries go first, so every command line flag overrides them.
    args = parser.parse_args(argv[:1] + tokens + argv[1:])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args, out_dir)
    except NumericalFailure as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    except (UsageError, ValueError, OSError) as exc:
        print(f"oscillax: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
