#!/usr/bin/env python3
"""L1 stability of the localized sup-in-t kernel as the cutoffs grow.

Samples K at m = mu in {4, 8, 16, 32} for a = 1/2 above the threshold
regularity and prints the trapezoidal L1 estimates, one `m=<m> l1=<l1>`
line per m, read back from each run's kernel_summary.json; uniformity of
these numbers is the quantitative content of the high-frequency kernel
bound.  Run from the repository root with oscillax importable.
"""

import json
import sys
from pathlib import Path

from oscillax.cli import main

OUT = Path("results/kernel")


def run():
    rc = 0
    for m in ("4", "8", "16", "32"):
        out = OUT / f"m{m}"
        rc |= main(["kernel", "--out-dir", str(out),
                    "--m", m, "--mu", m, "--a", "0.5", "--s", "0.2"])
        summary = json.loads((out / "kernel_summary.json").read_text())
        print(f"m={m} l1={summary['l1_estimate']!r}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
