"""In-memory span tracing around the public functions of each geoattn module.

The tracer replaces module attributes from the outside (the package itself is
not edited): every namespace in the package that holds one of the traced
function objects gets the wrapper, so calls made through ``from .x import f``
bindings are seen too. Spans are kept in memory as (name, start, end, parent,
run id, attributes) and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layers are the package modules, in pipeline order.
LAYERS = ("cli", "simgen", "pipeline", "evalkit", "gatv2", "attnfield", "geostat", "numkit")

# NM evaluations that hit a numerical failure are scored -1e12 by geostat.
_PENALTY_LOGML = -1e11


def _field_bytes(fld) -> dict:
    return {"bytes": int(fld.w_sym.nbytes + fld.degrees.nbytes + fld.c.nbytes)}


def _failed_folds(reports) -> dict:
    return {"failed_folds": sum(len(rep.errors) for rep in reports)}


# Traced function -> extractor of counts from its return value.
TRACED = {
    "cli.cmd_fit": None,
    "cli.cmd_cv": None,
    "simgen.read_dataset_csv": None,
    "pipeline.run_insample": None,
    "pipeline.fit_and_predict": None,
    "pipeline.train_gat": None,
    "evalkit.spatial_cv": _failed_folds,
    "evalkit.kmeans_spatial": None,
    "gatv2.build_graph": lambda g: {"n_edges": int(g.n_edges)},
    "gatv2.train": None,
    "gatv2.forward": None,
    "gatv2.gradient": None,
    "attnfield.build_field": _field_bytes,
    "attnfield.restrict_field": None,
    "attnfield.precision": None,
    "geostat.optimize_hyperparameters": lambda r: {
        "nm_evaluations": int(r.n_evaluations),
        "penalty_evals": sum(1 for e in r.trace if e["logml"] <= _PENALTY_LOGML),
    },
    "geostat.laplace_fit": lambda r: {
        "newton_iters": int(r.newton_iterations), "converged": bool(r.converged),
    },
    "geostat.predict": None,
    "geostat.predict_insample": None,
    "numkit.power_iteration_max_eig": lambda r: {"iterations": int(r.iterations)},
    "numkit.cholesky": None,
}


class Tracer:
    """Span recorder; one instance per benchmark process, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    def wrap(self, name: str, func, extract):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span["attrs"] = extract(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function in every module of the geoattn package."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "geoattn" or k.startswith("geoattn."))]
        wrappers = {}
        for qual, extract in TRACED.items():
            mod_name, attr = qual.split(".")
            orig = getattr(sys.modules[f"geoattn.{mod_name}"], attr)
            wrappers[id(orig)] = self.wrap(qual, orig, extract)
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")) + "\n")


def layer_totals(spans: list[dict], run: str) -> dict:
    """Totals of one run: time and calls per span name, self time per layer, counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    by_name: dict[str, dict] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        if span["run"] != run:
            continue
        dur = span["end"] - span["start"]
        entry = by_name.setdefault(span["name"], {"s": 0.0, "calls": 0, "attrs": []})
        entry["s"] += dur
        entry["calls"] += 1
        if "attrs" in span:
            entry["attrs"].append(span["attrs"])
        self_s[span["name"].split(".")[0]] += dur - child_time[i]
    return {"by_name": by_name, "self_s": self_s}


def per_layer_metrics(totals: dict) -> dict:
    """The benchmark's per-layer metrics for one traced pass (name -> (value, unit))."""
    by_name = totals["by_name"]

    def total_s(name):
        return by_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def per_call_ms(name):
        return 1e3 * total_s(name) / calls(name) if calls(name) else 0.0

    def attrs(name):
        return by_name.get(name, {}).get("attrs", [])

    fits = attrs("geostat.laplace_fit")
    opts = attrs("geostat.optimize_hyperparameters")
    graphs = attrs("gatv2.build_graph")
    m = {
        "geostat.newton_iters": (sum(a["newton_iters"] for a in fits), "count"),
        "geostat.laplace_fit_ms": (per_call_ms("geostat.laplace_fit"), "ms"),
        "geostat.laplace_fit_calls": (calls("geostat.laplace_fit"), "count"),
        "geostat.converged_frac": (
            sum(a["converged"] for a in fits) / len(fits) if fits else 0.0, "ratio"),
        "geostat.optimize_s": (total_s("geostat.optimize_hyperparameters"), "s"),
        "geostat.nm_evaluations": (sum(a["nm_evaluations"] for a in opts), "count"),
        "geostat.penalty_evals": (sum(a["penalty_evals"] for a in opts), "count"),
        "geostat.predict_s": (total_s("geostat.predict"), "s"),
        "geostat.predict_insample_s": (total_s("geostat.predict_insample"), "s"),
        "gatv2.forward_ms": (per_call_ms("gatv2.forward"), "ms"),
        "gatv2.gradient_ms": (per_call_ms("gatv2.gradient"), "ms"),
        "gatv2.train_s": (total_s("gatv2.train"), "s"),
        "gatv2.build_graph_s": (total_s("gatv2.build_graph"), "s"),
        "gatv2.n_edges": (
            statistics.mean(a["n_edges"] for a in graphs) if graphs else 0, "count"),
        "attnfield.build_field_s": (total_s("attnfield.build_field"), "s"),
        "attnfield.field_bytes": (
            max((a["bytes"] for a in attrs("attnfield.build_field")), default=0), "bytes"),
        "attnfield.restrict_field_s": (total_s("attnfield.restrict_field"), "s"),
        "attnfield.precision_s": (total_s("attnfield.precision"), "s"),
        "numkit.power_iteration_s": (total_s("numkit.power_iteration_max_eig"), "s"),
        "numkit.power_iterations": (
            sum(a["iterations"] for a in attrs("numkit.power_iteration_max_eig")), "count"),
        "numkit.cholesky_calls": (calls("numkit.cholesky"), "count"),
        "numkit.cholesky_s": (total_s("numkit.cholesky"), "s"),
        "pipeline.fit_and_predict_s": (total_s("pipeline.fit_and_predict"), "s"),
        "pipeline.train_gat_s": (total_s("pipeline.train_gat"), "s"),
        "evalkit.spatial_cv_s": (total_s("evalkit.spatial_cv"), "s"),
        "evalkit.kmeans_spatial_s": (total_s("evalkit.kmeans_spatial"), "s"),
        "evalkit.failed_folds": (
            sum(a["failed_folds"] for a in attrs("evalkit.spatial_cv")), "count"),
        "simgen.read_dataset_csv_s": (total_s("simgen.read_dataset_csv"), "s"),
    }
    for layer, value in totals["self_s"].items():
        m[f"{layer}.self_s"] = (value, "s")
    return m
