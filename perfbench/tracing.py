"""Spans around the public functions of each homcx layer.

The spans are installed from the benchmark, on every homcx module
attribute that names one of the wrapped functions, so calls between
modules (``cli`` -> ``homs``, ``homs`` -> ``_kernels`` ...) are all
seen.  A span records its name, start, end, parent span and the id of
the operation it belongs to, plus one optional work count.  Spans stay
in memory until the process ends.
"""

from __future__ import annotations

import functools
import sys
import time


def _len(result, args, kwargs):
    return len(result)


def _hom_maps(result, args, kwargs):
    return -1 if result is None else len(result)


def _ranks_in(result, args, kwargs):
    return sum(args[0])


def _ranks_out(result, args, kwargs):
    return sum(result[0])


def _column_nnz(result, args, kwargs):
    return sum(len(col) for col in args[0])


def _boundary_nnz(result, args, kwargs):
    return sum(len(col) for cols in result.boundaries for col in cols)


def _h_vertices(result, args, kwargs):
    return result.h.n


# (module, function, span name, work count or None)
WRAPPED = (
    ("homcx.homs", "enumerate_cells", "homs.enumerate_cells", _len),
    ("homcx.homs", "enumerate_homs", "homs.enumerate_homs", _len),
    ("homcx.homs", "x_homotopy_classes", "homs.x_homotopy", None),
    ("homcx.homs", "pushforward", "homs.pushforward", None),
    ("homcx.homs", "pullback", "homs.pullback", None),
    ("homcx.homs", "z2_structure", "homs.z2_structure", None),
    ("homcx._kernels", "search_homs", "kernels.search_homs", _hom_maps),
    ("homcx._kernels", "reduce_chain_complex", "kernels.reduce_chain_complex", _ranks_in),
    ("homcx._kernels", "snf_diagonal", "kernels.snf_diagonal", _column_nnz),
    ("homcx.homology", "cellular_chain_complex", "homology.cellular_chain_complex", _boundary_nnz),
    ("homcx.homology", "homology", "homology.homology", None),
    ("homcx.coloring", "chromatic_number", "coloring.chromatic_number", None),
    ("homcx.constructions", "theorem51_pipeline", "constructions.theorem51_pipeline", None),
    ("homcx.constructions", "find_high_girth_high_chromatic", "constructions.find_high_girth_high_chromatic", None),
    ("homcx.constructions", "replace_edges_with_paths", "constructions.replace_edges_with_paths", None),
    ("homcx.constructions", "glue_cylinder", "constructions.glue_cylinder", _h_vertices),
    ("homcx.constructions", "cylinder_sweep_order", "constructions.cylinder_sweep_order", None),
    ("homcx.constructions", "certificate_json", "certs.serialize", _len),
    ("homcx.certs", "load_certificate", "certs.load", None),
    ("homcx.certs", "verify_certificate", "certs.verify", None),
    ("homcx.cli", "main", "cli.main", None),
)

# A second count taken at the same boundary.
EXTRA_COUNTS = {"kernels.reduce_chain_complex": _ranks_out}


class Tracer:
    """Collects spans; ``begin_operation`` starts a new operation id."""

    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end, count, count2]
        self.stack = []
        self.op = 0
        self.enabled = False

    def begin_operation(self):
        self.op += 1

    def wrap(self, fn, name, count):
        extra = EXTRA_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [self.op, len(self.spans), self.stack[-1] if self.stack else -1,
                    name, time.perf_counter(), 0.0, 0, 0]
            self.spans.append(span)
            self.stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[6] = count(result, args, kwargs)
            if extra is not None:
                span[7] = extra(result, args, kwargs)
            return result

        return traced


def install(tracer):
    """Replace every homcx module attribute bound to a wrapped function
    by its traced version.  Tracing stays off until ``tracer.enabled``."""
    modules = [m for name, m in sys.modules.items() if name.startswith("homcx")]
    for module_name, attr, span_name, count in WRAPPED:
        original = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(original, span_name, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)


# -- report --------------------------------------------------------------

LAYERS = ("cli", "certs", "constructions", "coloring", "homology", "homs", "kernels")


def self_times(spans):
    """{span id: duration minus the time covered by its child spans}."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[5] - s[4]
    return own


def per_layer_metrics(spans, traced_s, untraced_s):
    """Every per-layer metric, from the spans of one traced pass."""
    own = self_times(spans)
    by_name = {}
    count = {}
    count2 = {}
    calls = {}
    for s in spans:
        by_name[s[3]] = by_name.get(s[3], 0.0) + own[s[1]]
        count[s[3]] = count.get(s[3], 0) + s[6]
        count2[s[3]] = count2.get(s[3], 0) + s[7]
        calls[s[3]] = calls.get(s[3], 0) + 1

    def t(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def c(name, table=count):
        return table.get(name, 0)

    cells_s = t("homs.enumerate_cells")
    metrics = {
        "homs.enumerate_cells.s": (cells_s, "s"),
        "homs.cells": (c("homs.enumerate_cells"), "count"),
        "homs.cells_per_s": (c("homs.enumerate_cells") / cells_s if cells_s else 0.0, "1/s"),
        "homs.cell_maps.s": (t("homs.pushforward", "homs.pullback", "homs.z2_structure"), "s"),
        "homs.enumerate_homs.s": (t("homs.enumerate_homs"), "s"),
        "homs.homs": (c("homs.enumerate_homs"), "count"),
        "homs.x_homotopy.s": (t("homs.x_homotopy"), "s"),
        "kernels.search_homs.s": (t("kernels.search_homs"), "s"),
        "kernels.search_homs.maps": (c("kernels.search_homs"), "count"),
        "kernels.reduce_chain_complex.s": (t("kernels.reduce_chain_complex"), "s"),
        "kernels.reduce.cells_in": (c("kernels.reduce_chain_complex"), "count"),
        "kernels.reduce.cells_out": (c("kernels.reduce_chain_complex", count2), "count"),
        "kernels.snf_diagonal.s": (t("kernels.snf_diagonal"), "s"),
        "kernels.snf.nnz": (c("kernels.snf_diagonal"), "count"),
        "homology.cellular_chain_complex.s": (t("homology.cellular_chain_complex"), "s"),
        "homology.boundary_nnz": (c("homology.cellular_chain_complex"), "count"),
        "homology.homology.self_s": (t("homology.homology"), "s"),
        "coloring.chromatic_number.s": (t("coloring.chromatic_number"), "s"),
        "coloring.calls": (calls.get("coloring.chromatic_number", 0), "count"),
        "constructions.build_s": (
            t(
                "constructions.find_high_girth_high_chromatic",
                "constructions.replace_edges_with_paths",
                "constructions.glue_cylinder",
                "constructions.cylinder_sweep_order",
            ),
            "s",
        ),
        "constructions.pipeline.self_s": (t("constructions.theorem51_pipeline"), "s"),
        "constructions.h_vertices": (c("constructions.glue_cylinder"), "count"),
        "certs.serialize_s": (t("certs.serialize"), "s"),
        "certs.load_s": (t("certs.load"), "s"),
        "certs.verify.self_s": (t("certs.verify"), "s"),
        "certs.bytes": (c("certs.serialize"), "count"),
        "cli.self_s": (t("cli.main"), "s"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (
            sum(v for k, v in by_name.items() if k.split(".")[0] == layer),
            "s",
        )
    metrics["trace.spans"] = (len(spans), "count")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = (
        (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        "ratio",
    )
    return metrics
