"""Regenerate references.json, the pinned outputs every benchmark run checks.

    python3 perfbench/pin.py

Run from the root of a checkout, and only to re-pin on purpose: the values
belong to the commit they were computed at.  Seed-dependent inputs are
pinned for every member of their pool (the band-limited cell of
shell-global); every other pinned value is seed-independent, and is checked
to come out identical for each seed computed.
"""

import json
import sys

import run
import workloads


def main() -> int:
    ox = run.load_package()
    out = {}
    for size in workloads.SIZES:
        pinned = out.setdefault(size, {})
        for name in workloads.WHY:
            seeds = range(workloads.BANDLIMITED_POOL) if name == "shell-global" else (0,)
            for seed in seeds:
                result = workloads.run_pass(ox, name, workloads.inputs(ox, name, seed, size))
                for key, value in result.values.items():
                    if pinned.setdefault(key, value) != value:
                        raise SystemExit(f"{key} differs between seeds: {pinned[key]} vs {value}")
                print(size, name, seed, len(result.values), "values", flush=True)
    (run.HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
