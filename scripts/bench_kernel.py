#!/usr/bin/env python3
"""Time bessel_j, the Bessel kernel layer, its sup search, the
spatial-extent search, the tensor-quadrature oracle and the split pass.

    python3 scripts/bench_kernel.py --label change --out BENCH_kernel.json

oscillax is imported from the `src/` of the checkout this script sits in,
so copying the script into another checkout times that checkout's code.
BLAS is pinned to one thread.  Eight things are timed, each recorded as
{"median": ..., "min": ...} over REPEATS runs; the minimum is the steadier
figure when runs are compared back to back:

- `bessel_kernel_reduced` in ns per element, for each order on a 1024 x 1024
  array of arguments spread over [0, 12) and over [12, 1024);
- `bessel_j` in ns per element (`bessel_j_ns_per_element`), for each of
  `J_ORDERS` on a 1024 x 1024 array of arguments spread over [1/2, 1000);
- one `RadialKernel.field` at the single time t = 0, for three fixed
  kernel shapes (`KERNELS`: lam = 1/2 as for n = 3, lam = 1 as for n = 4).
  They were the higher-dim benchmark workload's largest kernels once; that
  workload's isometry check now takes fewer rows, and the shapes stay fixed
  so that runs in BENCH_kernel.json remain comparable.  The field streams
  the kernel through row chunks, so this times every kernel element once
  plus one matrix-vector product per chunk;
- one `RadialKernel.field` at t = 0 on Hankel rows (`far_rows_ns_per_element`),
  in ns per kernel element: the G7/K15 rows of 200 equal panels, `FAR_COLS`
  nodes in [7, 9] and every x rho in [40, 1000), for lam = 0 and 1;
- the sup/argmax layer (`chebyshev_sup_s`) on the a = 2 and a = 3, n = 2,
  N = 8 global shell fields: on the G7/K15 rows of the field's final
  panels, built as `norms._kronrod_layer` builds them (so the far rows
  are Hankel rows), the rho rule of its last radial segment and its
  Chebyshev degree K, one `RadialKernel.field` at the K/2 + 1 Chebyshev
  times t >= 0 that a real layer samples (the sampler alone) and one
  `RadialKernel.chebyshev_sup(K)` (sampler, bound and search);
- `oscillatory.spatial_extent` (`spatial_extent_s`) on the global shells
  (a, n, N) of `EXTENT_SHELLS`: its 769-row grids, most of whose rows are
  Hankel rows at these scales;
- `nd_oracle_batch` on acceptance criterion 2's cases (`oracle_s`): 20
  radii up to 12 for bump(1, 0.7) and up to 5.5 for gaussian(1), each at
  n = 2 and n = 3;
- `split.selector_parts` with an empty memo (`selector_s`) on the split-bounds
  benchmark workload's inputs at seed 1: selector_grid(12, 22), n = 2,
  (a, s) = (1/2, 0.2) and (2, 0.6), each with random_test_profile(2 + k)
  framed by bump(0.8, 0.8) / 2 and -bump(18.2, 0.8) / 2 and the random
  selector of seed 1002 + k.

Each run, with nproc, the BLAS thread count and the numpy and scipy
versions, is appended to the list runs[label] of the --out file, so runs of
two checkouts can alternate into one file.  Runs recorded before the
minimum was added hold each median alone, as a bare number.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import oscillax.norms as norms  # noqa: E402
import oscillax.split as split  # noqa: E402
from oscillax.bessel import bessel_j, bessel_kernel_reduced  # noqa: E402
from oscillax.norms import converged_maximal_field, sharpness_profile  # noqa: E402
from oscillax.oscillatory import (SymbolParams, frequency_rule,  # noqa: E402
                                  spatial_extent)
from oscillax.profiles import bump, gaussian  # noqa: E402
from oscillax.quadrature import (KRONROD_NODES, kronrod_rule,  # noqa: E402
                                 panel_centres)
from oscillax.radial import (RadialKernel, chebyshev_times,  # noqa: E402
                             nd_oracle_batch)

ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5)
BANDS = ((0.0, 12.0), (12.0, 1024.0))
# Orders and argument band of the bessel_j case.
J_ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5)
J_BAND = (0.5, 1000.0)
SIDE = 1024
REPEATS = 7
# Fixed (lam, rows, columns, largest radius); frequency nodes span [0.3, 1.7].
KERNELS = ((0.5, 3808, 1312, 328.0), (0.5, 3792, 1296, 326.0),
           (1.0, 5176, 704, 142.0))
# Hankel-row case: orders, argument band, panels and nodes.
FAR_ORDERS = (0.0, 1.0)
FAR_BAND = (40.0, 1000.0)
FAR_PANELS = 200
FAR_COLS = 480
# Global shell fields whose sup layer is timed: (a, N), n = 2.
SUP_FIELDS = ((2.0, 8.0), (3.0, 8.0))
# Shells whose spatial extent is timed: (a, n, N).
EXTENT_SHELLS = ((2.0, 2, 8.0), (2.0, 4, 2.0), (0.5, 2, 1024.0))
# Criterion 2's oracle cases: (name, profile, largest radius).
ORACLE_CASES = (("bump(1, 0.7)", bump(1.0, 0.7), 12.0),
                ("gaussian(1)", gaussian(1.0), 5.5))
# The split-bounds workload at seed 1: selector grid and (a, s) pairs.
SELECTOR_GRID = (12.0, 22.0)
SELECTOR_PAIRS = ((0.5, 0.2), (2.0, 0.6))


def _timing(fn, scale: float = 1.0, digits: int = 4) -> dict:
    """Median and minimum of REPEATS timings of fn, in seconds times scale."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median": round(scale * statistics.median(times), digits),
            "min": round(scale * min(times), digits)}


def _far_layer(lam: float) -> RadialKernel:
    """The Hankel-row case's layer: G7/K15 rows on FAR_PANELS equal panels,
    with x rho in FAR_BAND, a unit base and its panels."""
    lo, hi = FAR_BAND
    nodes = np.linspace(7.0, 9.0, FAR_COLS)
    edges = np.linspace(lo / 7.0, hi / 9.0, FAR_PANELS + 1)
    x = kronrod_rule(edges)[0]
    return RadialKernel(lam, x, nodes, np.ones(FAR_COLS), nodes,
                        (*panel_centres(edges), KRONROD_NODES))


def measure() -> dict:
    ns = {}
    for lam in ORDERS:
        for lo, hi in BANDS:
            z = np.linspace(lo, hi, SIDE * SIDE, endpoint=False).reshape(SIDE, SIDE)
            ns[f"lam={lam:g} z in [{lo:g}, {hi:g})"] = _timing(
                lambda: bessel_kernel_reduced(lam, z), 1e9 / z.size, 2)
    j_ns = {}
    z = np.linspace(*J_BAND, SIDE * SIDE, endpoint=False).reshape(SIDE, SIDE)
    for lam in J_ORDERS:
        j_ns[f"lam={lam:g} rho in [{J_BAND[0]:g}, {J_BAND[1]:g})"] = _timing(
            lambda: bessel_j(lam, z), 1e9 / z.size, 2)
    fields = {}
    for lam, rows, cols, r_max in KERNELS:
        x = np.linspace(0.0, r_max, rows)
        nodes = np.linspace(0.3, 1.7, cols)
        layer = RadialKernel(lam, x, nodes, np.ones(cols), nodes)
        fields[f"lam={lam:g} {rows}x{cols}"] = _timing(lambda: layer.field(np.zeros(1)))
    far = {}
    for lam in FAR_ORDERS:
        layer = _far_layer(lam)
        far[f"lam={lam:g} z in [{FAR_BAND[0]:g}, {FAR_BAND[1]:g})"] = _timing(
            lambda: layer.field(np.zeros(1)), 1e9 / (layer.x.size * FAR_COLS), 2)
    sup = {}
    for a, N in SUP_FIELDS:
        p = SymbolParams(a=a, n=2)
        g = sharpness_profile("shell", N, a)
        fld = converged_maximal_field(g, p)
        rule = frequency_rule(g, p, r_max=fld.r_max, t_max=1.0)
        # The final panels' edges: each panel's centre row less its half-width.
        mid = fld.radii.reshape(-1, 15)[:, 7]
        half = 0.5 * fld.weights.reshape(-1, 15).sum(axis=1)
        layer = norms._kronrod_layer(g, p, np.append(mid - half, mid[-1] + half[-1]),
                                     rule)
        degree = fld.t_grid.count - 1
        times = chebyshev_times(degree)[:degree // 2 + 1]
        key = f"a={a:g} N={N:g} {fld.radii.size}x{rule[0].size} K={degree}"
        sup[key] = {"field_s": _timing(lambda: layer.field(times)),
                    "chebyshev_sup_s": _timing(lambda: layer.chebyshev_sup(degree))}
    extent = {}
    for a, n, N in EXTENT_SHELLS:
        g, p = sharpness_profile("shell", N, a), SymbolParams(a=a, n=n)
        extent[f"a={a:g} n={n} N={N:g}"] = _timing(lambda: spatial_extent(g, p),
                                                   digits=5)
    oracle = {}
    for name, f0, rho_hi in ORACLE_CASES:
        rhos = np.linspace(0.1, rho_hi, 20)
        for n in (2, 3):
            oracle[f"{name} n={n} rho<={rho_hi:g}"] = _timing(
                lambda: nd_oracle_batch(f0, n, rhos))
    grid, _ = split.selector_grid(*SELECTOR_GRID)
    frame = bump(0.8, 0.8).scaled(0.5).plus(bump(18.2, 0.8).scaled(-0.5))
    selector = {}
    for k, (a, s_reg) in enumerate(SELECTOR_PAIRS):
        args = (split.random_test_profile(2 + k).plus(frame),
                split.TimeSelector.random(grid, seed=1002 + k),
                SymbolParams(a=a, n=2, s=s_reg))

        def fresh():
            split._SELECTOR_MEMO.clear()
            split.selector_parts(*args)

        selector[f"a={a:g} s={s_reg:g} rows={grid.size}"] = _timing(fresh)
    return {"env": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "repeats": REPEATS},
            "kernel_ns_per_element": ns,
            "bessel_j_ns_per_element": j_ns,
            "radial_kernel_field_s": fields,
            "far_rows_ns_per_element": far,
            "chebyshev_sup_s": sup,
            "spatial_extent_s": extent,
            "oracle_s": oracle,
            "selector_s": selector}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add the run to")
    args = ap.parse_args(argv)
    run = measure()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", "python3 scripts/bench_kernel.py --label LABEL --out FILE")
    doc.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
