"""Self-test of the benchmark harness (not of oscillax).

    python3 -m pytest perfbench/test_bench.py

Runs every workload at the tiny size, traced and untraced, and checks the
output contract; checks that a wrong reference is caught, that a seed
reproduces its inputs, and that BENCHMARK.json matches what run.py prints.
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def describe(v):
    """A JSON-comparable form of the inputs; profiles by samples on a grid."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: describe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [describe(x) for x in v]
    if callable(v):
        return np.asarray(v(np.linspace(0.0, 20.0, 401))).tolist()
    if hasattr(v, "__dataclass_fields__"):
        return describe(vars(v))
    return v


def _bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    res = _bench("--workload", workload, "--seed", "0", "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(last["metrics"])
    for m in expected:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(re.match(rf"{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b", ln)
                   for ln in lines), m["name"]
    assert any(ln.startswith("failed_frac = 0.0") for ln in lines)
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert {"nproc", "blas_threads", "python", "numpy", "scipy", "blas",
            "git_commit", "seed"} <= set(env)


def test_perturbed_reference_raises_failed_frac(tmp_path):
    refs = json.loads((run.HERE / "references.json").read_text())
    key = next(k for k in refs["tiny"] if k.startswith("modulated-local/"))
    refs["tiny"][key] *= 1.05
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    res = _bench("--workload", "modulated-local", "--seed", "0", "--refs", str(path))
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["failed"] > 0 and last["correct"] is False
    assert f"FAILED {key}" in res.stdout


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_same_seed_reproduces_inputs(workload):
    ox = run.load_package()

    def make(seed):
        return describe(workloads.inputs(ox, workload, seed))

    assert make(7) == make(7)
    if workload != "modulated-local":   # the modulated shell family has no random part
        assert make(7) != make(8)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in SPEC["workloads"]] == list(workloads.WHY.values())
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(k, v[0]) for k, v in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(k, v[0], v[1]) for k, v in spans.LAYER_METRICS.items()]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "shell-global", "--seed", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
