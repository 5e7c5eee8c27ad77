#!/usr/bin/env python3
"""Time the criterion-7 threshold sweeps and two single cells: wall time and peak RSS.

    python3 scripts/bench_sweeps.py --label change --out BENCH_sweeps.json

oscillax is imported from the `src/` of the checkout this script sits in,
so copying the script into another checkout times that checkout's code.
The first two sweeps are the session fixtures of tests/conftest.py, over
N in {2, 4, ..., 128}; the third is the costliest cell of the slow a = 3
sweep, and the last two cells of the large-N modulated regime in which the
a < 1 threshold is probed:

- a = 2, n = 2, shell family, global range, s in {0.25, 0.75, 1.5};
- a = 1/2, n = 2, shell family, local range, 16 modulations,
  s in {0.0625, 0.375};
- a = 3, n = 2, shell family, global range, N = 32, s = 0.75;
- a = 1/2, n = 2, shell family, local range, 16 modulations, N = 4096
  and N = 8192, s = 0.0625.

Each sweep runs in-process (`workers=0`) in a child process of its own, with
BLAS pinned to one thread, so the peak resident set size that the child
reads from getrusage is that sweep's alone.  The child also reports the wall
time of `run_sweep`, which excludes interpreter start and imports.  A sweep
listed in `REPEATS` runs that many times in its child, which reports the
median (`wall_s`) and the minimum (`wall_s_min`): the a = 1/2 sweep takes
about 0.2 s, too short for one run to resolve a change.

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
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
SCALES = tuple(2.0 ** k for k in range(1, 8))
SWEEPS = {
    "a=2 global shell": dict(a=2.0, n=2, s_list=(0.25, 0.75, 1.5),
                             N_list=SCALES, range_kind="global",
                             family="shell", modulated=False),
    "a=0.5 modulated local shell": dict(a=0.5, n=2, s_list=(0.0625, 0.375),
                                        N_list=SCALES, range_kind="local",
                                        family="shell", modulated=True,
                                        y_count=16),
    "a=3 N=32 global shell": dict(a=3.0, n=2, s_list=(0.75,), N_list=(32.0,),
                                  range_kind="global", family="shell",
                                  modulated=False),
    "a=0.5 N=4096 modulated local shell": dict(a=0.5, n=2, s_list=(0.0625,),
                                               N_list=(4096.0,),
                                               range_kind="local",
                                               family="shell", modulated=True,
                                               y_count=16),
    "a=0.5 N=8192 modulated local shell": dict(a=0.5, n=2, s_list=(0.0625,),
                                               N_list=(8192.0,),
                                               range_kind="local",
                                               family="shell", modulated=True,
                                               y_count=16),
}
# In-process runs of a sweep in its child; one for the sweeps not listed.
REPEATS = {"a=0.5 modulated local shell": 9}


def run_child(name: str) -> None:
    """Run one sweep in this process and print its wall time and peak RSS."""
    sys.path.insert(0, str(SRC))
    from oscillax.sweep import SweepConfig, run_sweep

    cfg = SweepConfig(**SWEEPS[name])
    walls = []
    for _ in range(REPEATS.get(name, 1)):
        t0 = time.perf_counter()
        run_sweep(cfg, workers=0)
        walls.append(time.perf_counter() - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": round(statistics.median(walls), 3),
           "peak_rss_mb": round(peak_mb, 1)}
    if len(walls) > 1:
        out.update(wall_s_min=round(min(walls), 3), repeats=len(walls))
    print(json.dumps(out))


def measure() -> dict:
    import numpy as np
    import scipy

    sweeps = {}
    for name in SWEEPS:
        res = subprocess.run([sys.executable, __file__, "--child", name],
                             capture_output=True, text=True, check=True)
        sweeps[name] = json.loads(res.stdout.splitlines()[-1])
    return {"env": {"nproc": len(os.sched_getaffinity(0)),
                    "blas_threads": BLAS_THREADS,
                    "numpy": np.__version__, "scipy": scipy.__version__},
            "sweeps": sweeps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="key of this run in the output")
    ap.add_argument("--out", type=Path, help="JSON file to add the run to")
    ap.add_argument("--child", choices=sorted(SWEEPS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        run_child(args.child)
        return 0
    if not (args.label and args.out):
        ap.error("--label and --out are required")
    run = measure()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command",
                   "python3 scripts/bench_sweeps.py --label LABEL --out FILE")
    doc.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
