"""Span recorder for the traced benchmark run.

The recorder wraps each listed public function of ``curvemvg`` in every
module namespace that binds it (``from .polycore import pullback`` binds a
second name for the same function), plus ``PluckerLine`` construction and
``Report.to_json``.  A span records its name, start, end (process CPU time,
the clock of every figure the benchmark reports) and the span that called
it; self time is the span's duration minus the time its child spans cover.
Totals are kept per name and per (parent, child) edge; the first
spans of a run are kept in memory and written out at the end.  Nothing is
wrapped in the untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# the public functions of each layer that get a span
LAYERS = {
    "polycore": ["monomial_rows", "pullback", "multiply", "restrict_to_line", "evaluate",
                 "fit_vanishing_form", "fit_nullspace", "whitening_map", "numerical_rank"],
    "projective_cameras": ["PluckerLine", "join_points", "point_line_matrix"],
    "curve_models": ["preset_curve", "implicit_image_curve", "fit_dual_image_curve",
                     "image_tangent"],
    "scenes": ["camera_ring", "observe_trajectory", "lines_missing_points"],
    "kruppa": ["build_instance", "detection_response", "constraint_vector",
               "solution_dimension"],
    "reconstruct": ["epipolar_sweep", "dual_reconstruct", "chow_reconstruct",
                    "fit_chow_from_lines"],
    "dynamics": ["lift_observations", "classify_motion", "recover_static_point",
                 "recover_line_motion"],
    "scene_cli": ["load_config", "run", "Report.to_json"],
}

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("polycore.monomial_rows.calls", "count"), ("polycore.monomial_rows.rows", "count"),
    ("polycore.monomial_rows.self_ms", "ms"),
    ("polycore.pullback.calls", "count"), ("polycore.pullback.self_ms", "ms"),
    ("polycore.multiply.calls", "count"), ("polycore.restrict_to_line.calls", "count"),
    ("polycore.evaluate.calls", "count"),
    ("polycore.fit_vanishing_form.self_ms", "ms"), ("polycore.fit_nullspace.self_ms", "ms"),
    ("polycore.whitening_map.self_ms", "ms"), ("polycore.numerical_rank.self_ms", "ms"),
    ("projective_cameras.PluckerLine.calls", "count"),
    ("projective_cameras.PluckerLine.self_ms", "ms"),
    ("projective_cameras.join_points.calls", "count"),
    ("projective_cameras.join_points.self_ms", "ms"),
    ("projective_cameras.point_line_matrix.calls", "count"),
    ("projective_cameras.point_line_matrix.self_ms", "ms"),
    ("curve_models.preset_curve.self_ms", "ms"),
    ("curve_models.implicit_image_curve.self_ms", "ms"),
    ("curve_models.fit_dual_image_curve.self_ms", "ms"),
    ("curve_models.image_tangent.calls", "count"),
    ("scenes.camera_ring.self_ms", "ms"), ("scenes.observe_trajectory.self_ms", "ms"),
    ("scenes.lines_missing_points.self_ms", "ms"),
    ("scenes.lines_missing_points.kept_ratio", "ratio"),
    ("kruppa.build_instance.self_ms", "ms"), ("kruppa.detection_response.self_ms", "ms"),
    ("kruppa.constraint_vector.calls", "count"),
    ("kruppa.solution_dimension.self_ms", "ms"),
    ("reconstruct.epipolar_sweep.self_ms", "ms"),
    ("reconstruct.epipolar_sweep.kept_ratio", "ratio"),
    ("reconstruct.dual_reconstruct.self_ms", "ms"),
    ("reconstruct.chow_reconstruct.self_ms", "ms"),
    ("reconstruct.fit_chow_from_lines.calls", "count"),
    ("reconstruct.fit_chow_from_lines.self_ms", "ms"),
    ("dynamics.lift_observations.self_ms", "ms"), ("dynamics.classify_motion.self_ms", "ms"),
    ("dynamics.classify_motion.fits_per_call", "ratio"),
    ("dynamics.recover_static_point.self_ms", "ms"),
    ("dynamics.recover_line_motion.self_ms", "ms"),
    ("scene_cli.load_config.self_ms", "ms"), ("scene_cli.run.self_ms", "ms"),
    ("scene_cli.Report.to_json.self_ms", "ms"),
    ("curvemvg.import_ms", "ms"),
    ("trace.untraced_op_ms", "ms"), ("trace.traced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


class SpanRecorder:
    """Aggregated spans of the wrapped functions, active while ``enabled``."""

    def __init__(self, keep_spans: int = 20000):
        self.enabled = False
        self.keep_spans = keep_spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else None
            frame = [name, 0.0, rec._next_id]
            rec._next_id += 1
            rec._stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                rec._stack.pop()
                rec.calls[name] += 1
                rec.self_s[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
                    rec.edges[(parent[0], name)] += 1
                if len(rec.spans) < rec.keep_spans:
                    rec.spans.append((frame[2], None if parent is None else parent[2],
                                      name, start, end))
            if after is not None:
                after(rec, result)
            return result

        return span

    def install(self):
        """Wrap every listed function in every curvemvg namespace binding it."""
        for short in LAYERS:
            importlib.import_module(f"curvemvg.{short}")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "curvemvg" or n.startswith("curvemvg."))]
        for short, names in LAYERS.items():
            mod = sys.modules[f"curvemvg.{short}"]
            for attr in names:
                name = f"{short}.{attr}"
                if attr == "PluckerLine":
                    self._patch(mod.PluckerLine, "__init__", name)
                elif attr == "Report.to_json":
                    self._patch(mod.Report, "to_json", name)
                else:
                    orig = getattr(mod, attr)
                    wrapped = self._wrap(name, orig, _AFTER.get(name))
                    for m in mods:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapped)
                                self._undo.append((m, key, orig))

    def _patch(self, owner, attr, name):
        orig = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, orig))
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "edges": [[a, b, n] for (a, b), n in self.edges.items()],
                "counts": dict(self.counts)}

    def merge(self, totals: dict):
        for k, v in totals["calls"].items():
            self.calls[k] += v
        for k, v in totals["self_s"].items():
            self.self_s[k] += v
        for a, b, n in totals["edges"]:
            self.edges[(a, b)] += n
        for k, v in totals["counts"].items():
            self.counts[k] += v

    def dump_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation values of every span-based per-layer metric."""
        out = {}
        for name, unit in PER_LAYER:
            if name.startswith(("curvemvg.", "trace.")):
                continue
            key, stat = name.rsplit(".", 1)
            if stat == "calls":
                val = self.calls[key] / ops
            elif stat == "self_ms":
                val = 1e3 * self.self_s[key] / ops
            elif stat == "rows":
                val = self.counts["polycore.monomial_rows.rows"] / ops
            elif name == "scenes.lines_missing_points.kept_ratio":
                drawn = self.edges[("scenes.lines_missing_points",
                                    "projective_cameras.join_points")]
                val = self.counts["scenes.lines_missing_points.kept"] / drawn if drawn else 0.0
            elif name == "reconstruct.epipolar_sweep.kept_ratio":
                tried = self.counts["reconstruct.epipolar_sweep.planes"]
                val = self.counts["reconstruct.epipolar_sweep.kept"] / tried if tried else 0.0
            elif name == "dynamics.classify_motion.fits_per_call":
                n = self.calls["dynamics.classify_motion"]
                fits = self.edges[("dynamics.classify_motion",
                                   "reconstruct.fit_chow_from_lines")]
                val = fits / n if n else 0.0
            else:
                raise KeyError(name)
            out[name] = {"value": val, "unit": unit}
        return out


def _rows_after(rec, result):
    rec.counts["polycore.monomial_rows.rows"] += result.shape[0]


def _sweep_after(rec, result):
    rec.counts["reconstruct.epipolar_sweep.kept"] += len(result.planes)
    rec.counts["reconstruct.epipolar_sweep.planes"] += len(result.planes) + result.skipped


def _missing_after(rec, result):
    rec.counts["scenes.lines_missing_points.kept"] += len(result)


_AFTER = {"polycore.monomial_rows": _rows_after,
          "reconstruct.epipolar_sweep": _sweep_after,
          "scenes.lines_missing_points": _missing_after}
