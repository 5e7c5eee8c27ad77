"""Spans around oscillax's layer entry points, recorded from outside the package.

Each layer entry point is wrapped where the calling module looks it up (the
name as bound in that module), so a call from one layer into another shows as
a child span and nested calls inside a layer (bessel_j inside
bessel_kernel_reduced, oscillatory_rule inside profile_rule) are not counted
twice.  Spans are kept in memory; `Recorder.dump` writes them out at the end
with each span's self time (its duration minus the time its children cover).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Span names as reported, with the (module, attribute) bindings they wrap.
# Several modules bind the same function; each binding is wrapped once.
TRACED = {
    "bessel.kernel": [("norms", "bessel_kernel_reduced"),
                      ("oscillatory", "bessel_kernel_reduced"),
                      ("radial", "bessel_kernel_reduced"),
                      ("split", "bessel_kernel_reduced"),
                      ("split", "bessel_j")],
    "quadrature.frequency_rule": [("norms", "frequency_rule"),
                                  ("oscillatory", "frequency_rule")],
    "quadrature.profile_rule": [("radial", "profile_rule"),
                                ("oscillatory", "profile_rule"),
                                ("norms", "profile_rule"),
                                ("split", "profile_rule")],
    "quadrature.oscillatory_rule": [("norms", "oscillatory_rule"),
                                    ("oscillatory", "oscillatory_rule"),
                                    ("radial", "oscillatory_rule"),
                                    ("split", "oscillatory_rule")],
    "oscillatory.spatial_extent": [("norms", "spatial_extent"),
                                   ("oscillatory", "spatial_extent")],
    "oscillatory.isometry": [("oscillatory", "isometry_ratios")],
    "radial.transform": [("radial", "hankel_fourier")],
    "radial.oracle": [("radial", "nd_oracle_batch")],
    "split.selector": [("split", "apply_selector_radial")],
    "split.maximal_kernel": [("split", "maximal_kernel")],
    "split.recompose": [("split", "recompose_residual")],
    "sweep.run": [("sweep", "run_sweep")],
}

# Wrapped in untraced runs too: a handful of calls per pass, so the cost is
# nil.  Sweep cells give cell_s_max; fields give the convergence flags that
# modulated sweeps drop before their records.
ALWAYS = {"sweep.cell": [("sweep", "_cell_task")],
          "norms.field": [("sweep", "converged_maximal_field"),
                          ("norms", "converged_maximal_field")]}

# Per-layer metrics: unit, and which end-to-end metric on which workload the
# layer should move.
LAYER_METRICS = {
    "bessel.kernel_s": ("s", "lower", "wall_s on shell-global and modulated-local; lam != 0 share on higher-dim"),
    "bessel.kernel_evals": ("count", "lower", "wall_s on shell-global and modulated-local"),
    "bessel.ns_per_eval": ("ns", "lower", "wall_s on shell-global and modulated-local"),
    # Fixed-array probes each side of the series/Hankel crossover: they show
    # which order and band a backend change helps.
    **{f"bessel.probe_ns.lam{lam}.{band}": ("ns", "lower", moves)
       for lam, moves in (("0", "wall_s on shell-global, modulated-local and split-bounds (n = 2)"),
                          ("0.5", "wall_s on higher-dim (n = 3)"),
                          ("1", "wall_s on higher-dim (n = 4)"),
                          ("1.5", "none: no workload has n = 5"))
       for band in ("series", "hankel")},
    "quadrature.rule_s": ("s", "lower", "wall_s on modulated-local"),
    "quadrature.rules_built": ("count", "lower", "wall_s on modulated-local"),
    "quadrature.rho_nodes": ("count", "lower", "wall_s on modulated-local and shell-global"),
    "norms.field_s": ("s", "lower", "wall_s and cell_s_max on shell-global"),
    "norms.fields": ("count", "lower", "wall_s on shell-global and modulated-local"),
    "norms.unconverged": ("count", "lower", "failed_frac on shell-global and modulated-local"),
    "norms.accum_self_s": ("s", "lower", "wall_s and cell_s_max on shell-global"),
    "norms.r_nodes": ("count", "lower", "wall_s on shell-global"),
    "norms.t_evals": ("count", "lower", "wall_s and cell_s_max on shell-global"),
    "norms.gemm_macs": ("count", "lower", "wall_s on shell-global (computed, not measured)"),
    "oscillatory.field_s": ("s", "lower", "wall_s on shell-global and higher-dim"),
    "oscillatory.isometry_s": ("s", "lower", "wall_s on higher-dim"),
    "radial.transform_s": ("s", "lower", "wall_s on higher-dim"),
    "radial.oracle_s": ("s", "lower", "wall_s on higher-dim"),
    "split.selector_s.full": ("s", "lower", "wall_s on split-bounds"),
    "split.selector_s.main": ("s", "lower", "wall_s on split-bounds"),
    "split.selector_s.remainder": ("s", "lower", "wall_s on split-bounds"),
    "split.maximal_kernel_s": ("s", "lower", "wall_s and cell_s_max on split-bounds"),
    "split.recompose_s": ("s", "lower", "wall_s on split-bounds"),
    "sweep.self_s": ("s", "lower", "wall_s on shell-global and modulated-local"),
    "sweep.cells": ("count", "lower", "wall_s on shell-global and modulated-local"),
    "trace.overhead_frac": ("fraction", "lower", "none: the cost of tracing itself"),
}

_RULES = ("quadrature.frequency_rule", "quadrature.profile_rule",
          "quadrature.oscillatory_rule")


def _counts(name, args, kwargs, result):
    """Work counts recorded at the span boundary."""
    if name == "bessel.kernel":
        return {"evals": int(np.size(args[1]))}
    if name in _RULES:
        return {"nodes": int(np.size(result[0]))}
    if name == "norms.field":
        return {"r_nodes": int(result.radii.size),
                "t_evals": int(result.t_grid.count),
                "unconverged": int(not (result.t_converged and result.r_converged))}
    if name == "split.selector":
        return {"part": args[3]}
    return {}


class Recorder:
    """In-memory span store; installs and removes the wrappers."""

    def __init__(self, package, run_id: str):
        self.package = package
        self.run_id = run_id
        self.pass_index = 0
        self.spans = []
        self._stack = []

    def install(self, bindings) -> list:
        """Wrap every binding; returns what `restore` needs to undo it."""
        patches = []
        for name, targets in bindings.items():
            for mod_name, attr in targets:
                module = getattr(self.package, mod_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original))
                patches.append((module, attr, original))
        return patches

    @staticmethod
    def restore(patches):
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "pass": self.pass_index,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, args, kwargs, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self):
        return len(self.spans)

    def since(self, mark: int, name: str) -> list:
        return [s for s in self.spans[mark:] if s["name"] == name]

    def with_self_times(self, since: int = 0):
        spans = self.spans[since:]
        child = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            s["self"] = s["end"] - s["start"] - child[s["id"]]
        return spans

    def dump(self, path, extra):
        spans = self.with_self_times()
        by_layer = {}
        for s in spans:
            by_layer[s["name"]] = by_layer.get(s["name"], 0.0) + s["self"]
        with open(path, "w") as fh:
            json.dump({**extra, "self_s_by_span_name": by_layer,
                       "spans": spans}, fh)


def layer_metrics(recorder: Recorder, since: int) -> dict:
    """Per-layer totals of the spans recorded since `since` (one pass)."""
    spans = recorder.with_self_times(since)
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def outermost(s):
        # No ancestor of the same layer prefix, so nested calls count once.
        prefix = s["name"].split(".")[0]
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"].split(".")[0] == prefix:
                return False
            p = by_id.get(p["parent"])
        return True

    # The last rho rule built inside each field, for the computed GEMM size.
    rho_rule = {s["parent"]: s["nodes"] for s in spans
                if s["name"] == "quadrature.frequency_rule"}
    out = {k: 0.0 for k in LAYER_METRICS if not k.startswith(("bessel.probe_ns", "trace."))}
    for s in spans:
        name = s["name"]
        if name == "bessel.kernel" and outermost(s):
            out["bessel.kernel_s"] += dur(s)
            out["bessel.kernel_evals"] += s["evals"]
        elif name in _RULES and outermost(s):
            out["quadrature.rule_s"] += dur(s)
            out["quadrature.rules_built"] += 1
            if name != "quadrature.oscillatory_rule":
                out["quadrature.rho_nodes"] += s["nodes"]
        elif name == "norms.field":
            out["norms.field_s"] += dur(s)
            out["norms.fields"] += 1
            out["norms.unconverged"] += s["unconverged"]
            out["norms.r_nodes"] += s["r_nodes"]
            out["norms.t_evals"] += s["t_evals"]
            # Self time: the field minus its kernel, rule and spatial-extent
            # children, i.e. phase exp, GEMM and argmax.
            out["norms.accum_self_s"] += s["self"]
            # Computed, not counted: real and imaginary GEMM over the
            # returned (fine) radial grid, last rho rule and final time grid.
            out["norms.gemm_macs"] += 2 * s["r_nodes"] * rho_rule.get(s["id"], 0) * s["t_evals"]
        elif name in ("oscillatory.spatial_extent", "oscillatory.isometry") and outermost(s):
            out["oscillatory.field_s"] += dur(s)
            if name == "oscillatory.isometry":
                out["oscillatory.isometry_s"] += dur(s)
        elif name == "radial.transform":
            out["radial.transform_s"] += dur(s)
        elif name == "radial.oracle":
            out["radial.oracle_s"] += dur(s)
        elif name == "split.selector":
            out[f"split.selector_s.{s['part']}"] += dur(s)
        elif name == "split.maximal_kernel":
            out["split.maximal_kernel_s"] += dur(s)
        elif name == "split.recompose":
            out["split.recompose_s"] += dur(s)
        elif name == "sweep.run":
            out["sweep.self_s"] += s["self"]
        elif name == "sweep.cell":
            out["sweep.cells"] += 1
    evals = out["bessel.kernel_evals"]
    out["bessel.ns_per_eval"] = 1e9 * out["bessel.kernel_s"] / evals if evals else 0.0
    return out


def bessel_probe(kernel, size: int = 1 << 16, repeats: int = 5) -> dict:
    """ns per element of the kernel on fixed arrays each side of the crossover.

    The crossover is max(12, 2 lam^2) = 12 for every order probed, so the
    series band is [0, 12) and the Hankel band [12, 1024): the range of r*rho
    products the shell workloads feed the kernel.
    """
    out = {}
    series_x = np.linspace(0.0, 12.0, size, endpoint=False)
    hankel_x = np.linspace(12.0, 1024.0, size)
    for lam in ("0", "0.5", "1", "1.5"):
        for band, x in (("series", series_x), ("hankel", hankel_x)):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                kernel(float(lam), x)
                times.append(time.perf_counter() - t0)
            out[f"bessel.probe_ns.lam{lam}.{band}"] = 1e9 * statistics.median(times) / size
    return out


def median_of(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def overhead(traced_walls, plain_walls) -> float:
    return statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
