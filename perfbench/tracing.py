"""Spans around ixysense's public layer functions, from outside the package.

`Tracer.install()` replaces each listed function, in every loaded
`ixysense.*` module that holds it as an attribute, with a wrapper that
records one span per call: name, start, end, parent, and work counts
read from the call's arguments and return value.  Rebinding every
module attribute (not just the defining one) catches calls made
through `from .x import f`.  `uninstall()` restores the originals.

Spans are kept in memory; `layer_table()` turns them into the per-layer
metrics.  A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _coupling_terms(args, kwargs, result):
    profile = _arg(args, kwargs, 0, "profile")
    return {"terms": len(profile.weights) * int(np.size(_arg(args, kwargs, 1, "phi")))}


def _probe_counts(args, kwargs, result):
    vectors, defective = result
    return {"modes": len(vectors), "defective": int(np.count_nonzero(defective))}


# Layer name -> (module, attribute, counts from (args, kwargs, result)).
LAYERS = {
    "model.momentum_coupling": ("ixysense.model", "momentum_coupling", _coupling_terms),
    "blocks.block_arrays": ("ixysense.blocks", "block_arrays",
                            lambda a, k, r: {"modes": len(r[0])}),
    "blocks.build_blocks": ("ixysense.blocks", "build_blocks", None),
    "blocks.probe_vectors": ("ixysense.blocks", "probe_vectors", _probe_counts),
    "dynamics.trajectory_arrays": ("ixysense.dynamics", "trajectory_arrays",
                                   lambda a, k, r: {"cells": int(np.size(r[0]))}),
    "metrology.qfi_curve": ("ixysense.metrology", "qfi_curve", None),
    "metrology.stationary_qfi": (
        "ixysense.metrology", "stationary_qfi",
        lambda a, k, r: {"straddled_modes": int(r.meta.get("straddled_modes", 0))}),
    "analysis.find_exceptional_point": ("ixysense.analysis", "find_exceptional_point",
                                        lambda a, k, r: {"iterations": r.iterations}),
    "analysis.minimize_scalar": ("ixysense.analysis", "minimize_scalar",
                                 lambda a, k, r: {"nfev": int(r.nfev)}),
    "dense.dense_evolve_qfi": ("ixysense.dense", "dense_evolve_qfi", None),
    "dense.build_spin_hamiltonian": ("ixysense.dense", "build_spin_hamiltonian", None),
    "dense.propagate_dense": ("ixysense.dense", "propagate_dense", None),
    "cli.main": ("ixysense.cli", "main", None),
}

# The one layer whose allocations are traced; tracemalloc slows every
# allocation, so it runs only inside this layer's outermost call.
MEMORY_LAYER = "metrology.qfi_curve"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the LAYERS functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            trace_memory = name == MEMORY_LAYER and not tracemalloc.is_tracing()
            if trace_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if trace_memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ixysense" or key.startswith("ixysense."))]
        for name, (module_name, attr, count) in LAYERS.items():
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- aggregation -------------------------------------------------------

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: calls, total and self seconds, and summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in LAYERS}
        for i, span in enumerate(self.spans):
            entry = stats[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time[i]
            for key, value in span.counts.items():
                if key != "peak_bytes":
                    entry[key] = entry.get(key, 0) + value
        return stats

    def layer_table(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, minus those the runner adds."""
        s = self.layer_stats()
        spans = self.spans

        def nested(child: str, parent: str) -> int:
            return sum(1 for sp in spans
                       if sp.name == child and self._has_ancestor(sp, parent))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        # Memory of the dynamics reduction: per outermost qfi_curve call,
        # its traced peak against the mode x time cells it evaluated.
        cells_in = [0] * len(spans)
        for sp in spans:
            if sp.name == "dynamics.trajectory_arrays":
                parent = sp.parent
                while parent is not None and spans[parent].name != MEMORY_LAYER:
                    parent = spans[parent].parent
                if parent is not None:
                    cells_in[parent] += sp.counts.get("cells", 0)
        curves = [(cells_in[i], sp.counts["peak_bytes"]) for i, sp in enumerate(spans)
                  if sp.name == MEMORY_LAYER and "peak_bytes" in sp.counts]
        peak = max((b for _, b in curves), default=0)
        biggest = max(curves, default=(0, 0))

        mc, ba, bb, pv = (s["model.momentum_coupling"], s["blocks.block_arrays"],
                          s["blocks.build_blocks"], s["blocks.probe_vectors"])
        ta, qc, sq = (s["dynamics.trajectory_arrays"], s["metrology.qfi_curve"],
                      s["metrology.stationary_qfi"])
        ep, ms = s["analysis.find_exceptional_point"], s["analysis.minimize_scalar"]
        de, bh, pd = (s["dense.dense_evolve_qfi"], s["dense.build_spin_hamiltonian"],
                      s["dense.propagate_dense"])
        return {
            "model.momentum_coupling.calls": mc["calls"],
            "model.momentum_coupling.self_s": mc["self_s"],
            "model.momentum_coupling.terms": mc.get("terms", 0),
            "blocks.block_arrays.calls": ba["calls"],
            "blocks.block_arrays.self_s": ba["self_s"],
            "blocks.block_arrays.modes": ba.get("modes", 0),
            "blocks.build_blocks.self_s": bb["self_s"],
            "blocks.probe_vectors.calls": pv["calls"],
            "blocks.probe_vectors.self_s": pv["self_s"],
            "blocks.probe_vectors.modes": pv.get("modes", 0),
            "blocks.probe_vectors.defective": pv.get("defective", 0),
            "dynamics.trajectory_arrays.calls": ta["calls"],
            "dynamics.trajectory_arrays.self_s": ta["self_s"],
            "dynamics.trajectory_arrays.cells": ta.get("cells", 0),
            "dynamics.trajectory_arrays.cells_per_s": ratio(ta.get("cells", 0), ta["self_s"]),
            "metrology.qfi_curve.calls": qc["calls"],
            "metrology.qfi_curve.self_s": qc["self_s"],
            "metrology.qfi_curve.peak_alloc_mib": peak / 2 ** 20,
            "metrology.qfi_curve.bytes_per_cell": ratio(biggest[1], biggest[0]),
            "metrology.stationary_qfi.calls": sq["calls"],
            "metrology.stationary_qfi.self_s": sq["self_s"],
            "metrology.stationary_qfi.block_arrays_per_call": ratio(
                nested("blocks.block_arrays", "metrology.stationary_qfi"), sq["calls"]),
            "metrology.stationary_qfi.straddled_modes": sq.get("straddled_modes", 0),
            "analysis.find_exceptional_point.calls": ep["calls"],
            "analysis.find_exceptional_point.self_s": ep["self_s"],
            "analysis.find_exceptional_point.iterations": ep.get("iterations", 0),
            "analysis.minimize_scalar.nfev": ms.get("nfev", 0),
            "dense.dense_evolve_qfi.calls": de["calls"],
            "dense.dense_evolve_qfi.self_s": de["self_s"],
            "dense.build_spin_hamiltonian.calls": bh["calls"],
            "dense.build_spin_hamiltonian.self_s": bh["self_s"],
            "dense.propagate_dense.calls": pd["calls"],
            "dense.propagate_dense.self_s": pd["self_s"],
            "dense.builds_per_cell": ratio(
                nested("dense.build_spin_hamiltonian", "dense.dense_evolve_qfi"), de["calls"]),
            "cli.main.self_s": s["cli.main"]["self_s"],
        }
