"""oscillax benchmark: one workload per run, timed end to end or traced by layer.

    python3 perfbench/run.py --workload shell-global --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; oscillax is imported from its `src/`.
A run sets up (imports, inputs, warm-up), then repeats passes of the workload
until `--seconds` is spent, checks every pass's outputs, and prints the
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# Pin BLAS before numpy loads; one thread never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2          # extra fresh-process set-ups; setup_s is the median

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": ("s", "median wall time of one pass, after warm-up"),
    "cell_s_max": ("s", "median over passes of the slowest cell, field or kernel estimate"),
    "cpu_s": ("s", "median process CPU time of one pass"),
    "setup_s": ("s", "median of fresh-process set-ups: imports, inputs, warm-up"),
    "peak_rss_mb": ("MB", "peak resident set size of the run"),
}


def load_package():
    """Import oscillax from this checkout's src/, or fail."""
    if not (SRC / "oscillax" / "__init__.py").is_file():
        raise SystemExit(f"error: no oscillax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    ox = importlib.import_module("oscillax")
    if Path(ox.__file__).resolve().parent != (SRC / "oscillax").resolve():
        raise SystemExit(f"error: imported oscillax from {ox.__file__}, not {SRC}")
    for mod in ("bessel", "cutoffs", "norms", "oscillatory", "profiles",
                "radial", "split", "sweep"):
        importlib.import_module(f"oscillax.{mod}")
    return ox


def environment(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_commit": commit, "workload": args.workload, "seed": args.seed,
            "size": args.size, "seconds": args.seconds, "trace": args.trace}


def setup(args):
    """Imports, input construction and warm-up; returns (package, inputs, seconds)."""
    ox = load_package()
    inp = workloads.inputs(ox, args.workload, args.seed, args.size)
    workloads.warm_up(ox)
    return ox, inp, time.perf_counter() - _T0


def probe_setups(args) -> list:
    """Set-up times of fresh processes, each waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]))
    return times


def measure(ox, inp, args, refs):
    """Repeat passes until the time is spent; untraced and traced alternate
    when tracing, so both see the same machine state."""
    rec = spans.Recorder(ox, run_id=f"{args.workload}:seed={args.seed}:pid={os.getpid()}")
    rec.install(spans.ALWAYS)
    plain, traced, layer_rows = [], [], []
    attempted = failed = 0
    failures = []
    t_start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        patches = rec.install(spans.TRACED) if tracing else []
        mark = rec.mark()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = workloads.run_pass(ox, args.workload, inp)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            rec.restore(patches)
        fields = rec.since(mark, "norms.field")
        cells = [s["end"] - s["start"] for s in rec.since(mark, "sweep.cell")]
        checks = workloads.check(result, refs) + [
            (f"field/{i}/converged", not s["unconverged"],
             f"{s['r_nodes']} radii, {s['t_evals']} times")
            for i, s in enumerate(fields)]
        attempted += len(checks)
        bad = [c for c in checks if not c[1]]
        failed += len(bad)
        failures.extend(bad)
        row = {"wall": wall, "cpu": cpu, "cell_max": max(cells + result.units)}
        (traced if tracing else plain).append(row)
        if tracing:
            layer_rows.append(spans.layer_metrics(rec, mark))
        rec.pass_index += 1
        elapsed = time.perf_counter() - t_start
        next_pass = statistics.median(r["wall"] for r in plain + traced)
        enough = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
        if enough and elapsed + next_pass > args.seconds:
            break
    return rec, plain, traced, layer_rows, attempted, failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=list(workloads.SIZES), default="full",
                    help="'tiny' runs the same calls at toy sizes (self-test)")
    ap.add_argument("--refs", type=Path, default=HERE / "references.json",
                    help="pinned reference values")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ox, inp, setup_s = setup(args)
    if args.setup_probe:
        print(f"setup_s {setup_s!r}")
        return 0
    refs = json.loads(args.refs.read_text())[args.size]
    setups = [setup_s] + probe_setups(args)
    env = environment(args)
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")

    rec, plain, traced, layer_rows, attempted, failed, failures = measure(ox, inp, args, refs)
    for cid, _, detail in failures:
        print(f"FAILED {cid}: {detail}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"checks {attempted}, failed {failed}")
    print("pass wall_s " + json.dumps([r["wall"] for r in plain]))
    print(f"failed_frac = {failed / attempted!r} (fraction)")

    if args.trace:
        found = {**spans.median_of(layer_rows),
                 **spans.bessel_probe(ox.bessel.bessel_kernel_reduced),
                 "trace.overhead_frac": spans.overhead(
                     [r["wall"] for r in traced], [r["wall"] for r in plain])}
        metrics = {k: found[k] for k in spans.LAYER_METRICS}
        units = {k: v[0] for k, v in spans.LAYER_METRICS.items()}
        for k, v in metrics.items():
            print(f"{k} = {v!r} {units[k]}  (should move: {spans.LAYER_METRICS[k][2]})")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        rec.dump(spans_path, {"env": env, "metrics": metrics})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cell_s_max": statistics.median(r["cell_max"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
        for k, v in metrics.items():
            print(f"{k} = {v!r} {units[k]}  ({END_TO_END[k][1]})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
