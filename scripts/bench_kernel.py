#!/usr/bin/env python3
"""Time the Bessel kernel layer: ns per element and RadialKernel row blocks.

    python3 scripts/bench_kernel.py --label change --out BENCH_kernel.json

oscillax is imported from the `src/` of the checkout this script sits in,
so copying the script into another checkout times that checkout's code.
BLAS is pinned to one thread.  Two things are timed, each as the median of
REPEATS runs:

- `bessel_kernel_reduced` in ns per element, for each order on a 1024 x 1024
  array of arguments spread over [0, 12) and over [12, 1024);
- `RadialKernel` construction for the largest row blocks of the higher-dim
  benchmark workload (lam = 1/2 for n = 3, lam = 1 for n = 4), with their
  shapes and argument ranges.

Each run, with nproc, the BLAS thread count and the numpy and scipy
versions, is appended to the list runs[label] of the --out file, so runs of
two checkouts can alternate into one file.
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
from oscillax.bessel import bessel_kernel_reduced  # noqa: E402
from oscillax.radial import RadialKernel  # noqa: E402

ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5)
BANDS = ((0.0, 12.0), (12.0, 1024.0))
SIDE = 1024
REPEATS = 7
# (lam, rows, columns, largest radius); frequency nodes span [0.3, 1.7].
BLOCKS = ((0.5, 3808, 1312, 328.0), (0.5, 3792, 1296, 326.0),
          (1.0, 5176, 704, 142.0))


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure() -> dict:
    ns = {}
    for lam in ORDERS:
        for lo, hi in BANDS:
            z = np.linspace(lo, hi, SIDE * SIDE, endpoint=False).reshape(SIDE, SIDE)
            s = _median_s(lambda: bessel_kernel_reduced(lam, z))
            ns[f"lam={lam:g} z in [{lo:g}, {hi:g})"] = round(1e9 * s / z.size, 2)
    builds = {}
    for lam, rows, cols, r_max in BLOCKS:
        x = np.linspace(0.0, r_max, rows)
        nodes = np.linspace(0.3, 1.7, cols)
        s = _median_s(lambda: RadialKernel(lam, x, nodes, np.ones(cols), nodes))
        builds[f"lam={lam:g} {rows}x{cols}"] = round(s, 4)
    return {"env": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "repeats": REPEATS},
            "kernel_ns_per_element": ns,
            "radial_kernel_build_s": builds}


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
