"""Batch workbench: seeded scene generation, checks, and JSON reports.

Every command reads one JSON scene configuration, runs a single operation
chain from the library, and emits a report whose digest is reproducible:
identical config and seed give a byte-identical report.  All randomness
(camera draws, test lines, wrong-F draws, sampling offsets, noise) flows
from one global generator seeded once per run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import CurvemvgError
from . import polycore as pc
from . import scenes
from .curve_models import (RationalCurve3D, _sample_thetas, class_of, image_tangents,
                           implicit_image_curve, preset_curve, PRESET_NAMES)
from .projective_cameras import Camera, EpipolarGeometry, join_points, line_span_planes

# kruppa, reconstruct and dynamics are imported by the handlers that call
# them, so a cold run loads only what its command uses


class ConfigError(ValueError):
    """Malformed scene configuration; maps to process exit code 2."""


TRAJECTORY_PRESETS = ("static", "line", "conic", "cubic")

# classification labels expected for each trajectory preset
EXPECTED_KIND = {"static": "static", "line": "line", "conic": "conic",
                 "cubic": "curve"}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class SceneConfig:
    """Validated scene description plus the raw payload it came from."""

    cameras: list = field(default_factory=list)
    curves: list = field(default_factory=list)
    dynamic_points: list = field(default_factory=list)
    noise_sigma: float = 0.0
    seed: int = 0
    raw: dict = field(default_factory=dict)


def _as_matrix(obj, what: str, shape=None) -> np.ndarray:
    # a numeric array of the shape, if given; Camera and RationalCurve3D check the rest
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{what} is not numeric: {err}") from None
    if shape is not None and M.shape != shape:
        raise ConfigError(f"{what} must have shape {shape}, got {M.shape}")
    return M


def _integer(value, what: str) -> int:
    # a JSON integer: Python's bool is an int, JSON's true is not
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer")
    return value


def _parse_camera(entry, idx: int, rng: np.random.Generator) -> Camera:
    what = f"cameras[{idx}]"
    if entry == "random":
        return scenes.random_camera(rng)
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be a dict or the string 'random'")
    try:
        if "matrix" in entry:
            return Camera(_as_matrix(entry["matrix"], what))
        if "internal" in entry and "external" in entry:
            K = _as_matrix(entry["internal"], f"{what}.internal", (3, 3))
            E = _as_matrix(entry["external"], f"{what}.external", (3, 4))
            return Camera(K @ E)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from None
    raise ConfigError(f"{what} needs 'matrix' or 'internal'+'external'")


def _parse_curve(entry, idx: int, default_seed: int) -> RationalCurve3D:
    what = f"curves[{idx}]"
    if isinstance(entry, str):
        entry = {"preset": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be a preset name or a dict")
    try:
        if "preset" in entry:
            name = entry["preset"]
            if name not in PRESET_NAMES:
                raise ConfigError(
                    f"{what}: unknown preset {name!r}, choose from {PRESET_NAMES}")
            return preset_curve(name, _integer(entry.get("seed", default_seed),
                                               f"{what}.seed"))
        if "coefficients" in entry:
            return RationalCurve3D(_as_matrix(entry["coefficients"], f"{what}.coefficients"))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from None
    raise ConfigError(f"{what} needs 'preset' or 'coefficients'")


def _parse_dynamic(entry, idx: int) -> dict:
    what = f"dynamic_points[{idx}]"
    if isinstance(entry, str):
        entry = {"preset": entry}
    if not isinstance(entry, dict) or "preset" not in entry:
        raise ConfigError(f"{what} needs a trajectory 'preset'")
    if entry["preset"] not in TRAJECTORY_PRESETS:
        raise ConfigError(f"{what}: unknown trajectory preset {entry['preset']!r}, "
                          f"choose from {TRAJECTORY_PRESETS}")
    out = {"preset": entry["preset"],
           "n_cameras": _integer(entry.get("n_cameras", 10), f"{what}.n_cameras"),
           "frames_per_camera": _integer(entry.get("frames_per_camera", 15),
                                         f"{what}.frames_per_camera")}
    if out["n_cameras"] < 2:
        raise ConfigError(f"{what}: bad counts, n_cameras must be at least 2, "
                          f"got {out['n_cameras']}")
    if out["frames_per_camera"] < 1:
        raise ConfigError(f"{what}: bad counts, frames_per_camera must be positive, "
                          f"got {out['frames_per_camera']}")
    return out


KNOWN_KEYS = {"cameras", "curves", "dynamic_points", "noise_sigma", "seed"}


def _noise_sigma(value, what: str) -> float:
    # the chained comparison is False for NaN, infinities, negatives and
    # integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 <= value <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite non-negative number")
    return float(value)


def parse_config(obj, seed_override: int | None = None,
                 noise_override: float | None = None) -> SceneConfig:
    """Validate a decoded JSON payload into a SceneConfig.

    Camera draws for 'random' and 'ring' entries come from a generator
    seeded with the config seed, so the parsed scene is itself part of the
    deterministic surface.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    seed = _integer(obj.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    noise = _noise_sigma(obj.get("noise_sigma", 0.0), "noise_sigma")
    if noise_override is not None:
        noise = _noise_sigma(noise_override, "--noise")
    rng = np.random.default_rng(seed)

    cam_field = obj.get("cameras", [])
    if isinstance(cam_field, dict) and set(cam_field) == {"ring"}:
        n = _integer(cam_field["ring"], "cameras.ring")
        if n < 0:
            raise ConfigError("cameras.ring must be a non-negative integer")
        cams = scenes.camera_ring(rng, n) if n else []
    elif isinstance(cam_field, list):
        cams = [_parse_camera(e, i, rng) for i, e in enumerate(cam_field)]
    else:
        raise ConfigError("cameras must be a list or {'ring': N}")

    curve_field = obj.get("curves", [])
    if not isinstance(curve_field, list):
        raise ConfigError("curves must be a list")
    curves = [_parse_curve(e, i, seed) for i, e in enumerate(curve_field)]

    dyn_field = obj.get("dynamic_points", [])
    if not isinstance(dyn_field, list):
        raise ConfigError("dynamic_points must be a list")
    dyns = [_parse_dynamic(e, i) for i, e in enumerate(dyn_field)]

    return SceneConfig(cams, curves, dyns, noise, seed, raw=obj)


def load_config(path: str, seed_override: int | None = None,
                noise_override: float | None = None) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    return parse_config(obj, seed_override, noise_override)


# ---------------------------------------------------------------------------
# report

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(body: dict) -> str:
    # sha256 of the canonical body, the report's reproducible fingerprint
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def _clean(x):
    """JSON-safe scalar: finite floats, plain ints/bools/strings."""
    if isinstance(x, (bool, str, int)):
        return x
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in report")
    return x


@dataclass
class Report:
    """Machine-readable result of one command run."""

    command: str
    inputs_digest: str
    metrics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def body(self) -> dict:
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "metrics": {k: _clean(v) for k, v in self.metrics.items()},
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "artifacts": {
                name: {"columns": list(a["columns"]),
                       "rows": [[_clean(x) for x in row] for row in a["rows"]]}
                for name, a in self.artifacts.items()},
            "notes": list(self.notes),
        }

    @property
    def digest(self) -> str:
        return _digest(self.body())

    def to_json(self) -> str:
        """The body and its digest as indented JSON, the body built once."""
        out = self.body()
        out["digest"] = _digest(out)
        return json.dumps(out, sort_keys=True, indent=2, allow_nan=False)

    def failed_keys(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]


def inputs_digest(command: str, cfg: SceneConfig) -> str:
    payload = {"command": command, "config": cfg.raw,
               "seed": cfg.seed, "noise_sigma": cfg.noise_sigma}
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def export_samples(report: Report, out_dir: str) -> list[str]:
    """One RFC-4180 CSV per artifact; header row always present."""
    import csv
    root = Path(out_dir)
    written = []
    try:
        root.mkdir(parents=True, exist_ok=True)
        for name, art in report.artifacts.items():
            path = root / f"{name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(art["columns"])
                for row in art["rows"]:
                    w.writerow([_clean(x) for x in row])
            written.append(str(path))
    except OSError as err:
        raise OSError(f"cannot write CSV under {out_dir}: {err}") from None
    return written


# ---------------------------------------------------------------------------
# command helpers

def _need(cfg: SceneConfig, command: str, cameras: int, curves: int):
    # the one count check, cameras first
    for what, n in (("cameras", cameras), ("curves", curves)):
        have = len(getattr(cfg, what))
        if have < n:
            raise ConfigError(f"{command} needs at least {n} {what}, config supplies {have}")


def _poly_rows(poly) -> list[list]:
    exps = poly.basis.exponent_array()
    return [[",".join(str(int(e)) for e in exps[i]), float(poly.coeffs[i])]
            for i in range(poly.basis.size)]


# ---------------------------------------------------------------------------
# command bodies

def _cmd_simulate(cfg: SceneConfig, rng: np.random.Generator, rep: Report, args):
    rep.metrics["n_cameras"] = len(cfg.cameras)
    rep.metrics["n_curves"] = len(cfg.curves)
    cam_rows = [[ci, r] + [float(x) for x in cam.M[r]]
                for ci, cam in enumerate(cfg.cameras) for r in range(3)]
    rep.artifacts["cameras"] = {
        "columns": ["camera_index", "row", "c0", "c1", "c2", "c3"],
        "rows": cam_rows}
    finite = True
    sample_rows = []
    for ki, curve in enumerate(cfg.curves):
        ths = _sample_thetas(24) + rng.uniform(0, np.pi)
        pts = curve.points(ths)
        for ci, cam in enumerate(cfg.cameras):
            img = cam.project(pts)
            finite = finite and bool(np.all(np.linalg.norm(img, axis=1) > 1e-12))
            img = scenes.add_image_noise(img, cfg.noise_sigma, rng)
            sample_rows.extend([ki, ci, th, *q] for th, q in zip(ths.tolist(), img.tolist()))
    rep.artifacts["curve_samples"] = {
        "columns": ["curve_index", "camera_index", "theta", "x", "y", "w"],
        "rows": sample_rows}
    det_rows = []
    for pi, dp in enumerate(cfg.dynamic_points):
        sc = scenes.observe_trajectory(dp["preset"], rng, dp["n_cameras"],
                                       dp["frames_per_camera"],
                                       noise_sigma=cfg.noise_sigma, point_id=pi)
        ids, pts = sc.detections
        det_rows.extend(i + p for i, p in zip(ids.tolist(), pts.tolist()))
    rep.artifacts["detections"] = {
        "columns": ["camera_index", "point_id", "frame", "x", "y", "w"],
        "rows": det_rows}
    rep.metrics["n_detections"] = len(det_rows)
    rep.verdicts["projections_finite"] = finite


def _cmd_kruppa_check(cfg: SceneConfig, rng: np.random.Generator, rep: Report, args):
    from . import kruppa as kp
    _need(cfg, "kruppa-check", 2, 1)
    cam1, cam2 = cfg.cameras[0], cfg.cameras[1]
    instances = [kp.build_instance(curve, cam1, cam2) for curve in cfg.curves]
    eg = instances[0].eg
    worst = 0.0
    for ki, (curve, inst) in enumerate(zip(cfg.curves, instances)):
        resid = kp.detection_response(inst)
        rep.metrics[f"curve{ki}_constraint_norm"] = resid
        worst = max(worst, resid)
        if inst.m == 2:
            C1 = pc.quadratic_matrix(implicit_image_curve(curve, cam1))
            C2 = pc.quadratic_matrix(implicit_image_curve(curve, cam2))
            classical = kp.classical_kruppa_residual(eg, C1, C2)
            rep.metrics[f"curve{ki}_classical_residual"] = classical
            rep.verdicts[f"curve{ki}_classical_matches"] = classical <= 1e-9
    rep.metrics["constraint_norm_max"] = worst
    rep.verdicts["constraints_vanish"] = worst <= max(1e-9, 10.0 * cfg.noise_sigma)
    if cfg.noise_sigma > 0:
        # the constraints must react to a wrong geometry of the same scale; a
        # curve whose every wrong-F draw raised has no figure and detects nothing
        detected = True
        for ki, inst in enumerate(instances):
            responses = []
            for _ in range(3):
                Fp = eg.F + cfg.noise_sigma * rng.standard_normal((3, 3))
                wrong = kp.KruppaInstance(inst.phi1, inst.phi2,
                                          EpipolarGeometry.from_F(Fp))
                try:
                    responses.append(kp.detection_response(wrong))
                except kp.KruppaError as err:
                    rep.notes.append(f"curve{ki} perturbed probe: {err}")
            if responses:
                rep.metrics[f"curve{ki}_perturbed_min"] = min(responses)
            detected = detected and min(responses, default=0.0) >= 1e-5
        rep.verdicts["perturbation_detected"] = detected


def _cmd_kruppa_dim(cfg: SceneConfig, rng: np.random.Generator, rep: Report, args):
    from . import kruppa as kp
    _need(cfg, "kruppa-dim", 2, 1)
    cam1, cam2 = cfg.cameras[0], cfg.cameras[1]
    instances = [kp.build_instance(c, cam1, cam2) for c in cfg.curves]
    eg = instances[0].eg
    sigma_m = sum(inst.m for inst in instances)
    expected = max(7 - sigma_m, 0)
    rep.metrics["sigma_m"] = sigma_m
    rep.metrics["dim_expected"] = expected
    try:
        dim = kp.solution_dimension(instances, eg)
    except kp.KruppaError as err:
        rep.notes.append(f"solution_dimension: {err}")
        rep.verdicts["dimension_matches"] = False
        return
    rep.metrics["dim_measured"] = dim
    rep.verdicts["dimension_matches"] = dim == expected
    if len(cfg.curves) == 1:
        td = kp.tangency_points(cfg.curves[0], cam1, cam2)
        rep.metrics["quadric_degenerate"] = int(kp.quadric_degeneracy(td))


def _cmd_reconstruct_points(cfg: SceneConfig, rng: np.random.Generator,
                            rep: Report, args):
    from . import reconstruct as rc
    if args.planes < 1:
        raise ConfigError(f"--planes must be at least 1, got {args.planes}")
    _need(cfg, "reconstruct-points", 3, 1)
    curve = cfg.curves[0]
    d = curve.degree
    images = [implicit_image_curve(curve, cam) for cam in cfg.cameras]
    split = rc.epipolar_sweep(images[0], images[1], cfg.cameras[0],
                              cfg.cameras[1], n_planes=args.planes,
                              check_views=list(zip(images[2:], cfg.cameras[2:])))
    counts = split.per_plane_counts
    rep.metrics["planes_kept"] = len(counts)
    rep.metrics["planes_skipped"] = split.skipped
    good = sum(1 for t, e in counts if t == d and e == d * (d - 1))
    rep.metrics["planes_exact_split"] = good
    # every kept plane's d*d candidates, phase-normalized by the sweep, as columns
    cands = split.points.reshape(-1, 4)
    res, true = split.residuals.reshape(-1), split.is_true.reshape(-1)
    rep.metrics["true_residual_max"] = float(res[true].max(initial=0.0))
    rep.metrics["extraneous_residual_min"] = float(min(res[~true].min(initial=np.inf), 1e6))
    rep.verdicts["per_plane_counts_correct"] = good == len(counts) > 0
    rep.verdicts["true_component_size_correct"] = all(t == d for t, _ in counts)
    plane_index, candidate_index = np.divmod(np.arange(len(cands)), d * d)
    columns = [plane_index, candidate_index, *cands.real.T,
               np.linalg.norm(cands.imag, axis=1), res,
               np.where(true, "true", "extraneous")]
    rows = np.array([c.tolist() for c in columns], dtype=object).T.tolist()
    rep.artifacts["epipolar_candidates"] = {
        "columns": ["plane_index", "candidate_index", "x", "y", "z", "w",
                    "imag_norm", "residual", "component_label"],
        "rows": rows}


def _cmd_reconstruct_dual(cfg: SceneConfig, rng: np.random.Generator,
                          rep: Report, args):
    from . import reconstruct as rc
    _need(cfg, "reconstruct-dual", 2, 1)
    curve = cfg.curves[0]
    m = class_of(curve.degree, curve.genus)
    rep.metrics["curve_class"] = m
    rep.metrics["views_needed"] = rc.views_for_dual(m)
    n_tangents = rc.dual_view_cap(m) + 6
    views = []
    for cam in cfg.cameras:
        ths = _sample_thetas(n_tangents) + rng.uniform(0, np.pi)
        views.append((cam, image_tangents(curve, cam, ths)))
    try:
        ds = rc.dual_reconstruct(views, m)
    except rc.ReconstructionError as err:
        rep.notes.append(f"dual_reconstruct: {err}")
        rep.verdicts["reconstruction_succeeded"] = False
        return
    rep.verdicts["reconstruction_succeeded"] = True
    rep.metrics["rank_gap"] = ds.gap
    for vi, rk in enumerate(ds.per_view_ranks):
        rep.metrics[f"view{vi}_rank"] = rk
    A, B = line_span_planes(curve.tangent_lines(_sample_thetas(25) + rng.uniform(0, np.pi)))
    w = np.array([0.2, 0.5, 0.8])[:, None, None]
    held = np.abs(ds(w * A + (1 - w) * B)).max()
    rep.metrics["held_out_max"] = float(held)
    rep.verdicts["held_out_pass"] = held <= 1e-7
    rep.artifacts["dual_surface"] = {
        "columns": ["exponents", "coefficient"],
        "rows": _poly_rows(ds.Upsilon)}


def _cmd_reconstruct_chow(cfg: SceneConfig, rng: np.random.Generator,
                          rep: Report, args):
    from . import reconstruct as rc
    _need(cfg, "reconstruct-chow", 2, 1)
    curve = cfg.curves[0]
    d = curve.degree
    rep.metrics["degree"] = d
    rep.metrics["views_needed"] = rc.views_for_chow(d)
    n_pts = rc.chow_view_cap(d) + 8
    views = []
    for cam in cfg.cameras:
        ths = _sample_thetas(n_pts) + rng.uniform(0, np.pi)
        views.append((cam, cam.project(curve.points(ths))))
    try:
        cf = rc.chow_reconstruct(views, d)
    except rc.ReconstructionError as err:
        rep.notes.append(f"chow_reconstruct: {err}")
        rep.verdicts["reconstruction_succeeded"] = False
        return
    rep.verdicts["reconstruction_succeeded"] = True
    rep.metrics["rank_gap"] = cf.gap
    for vi, rk in enumerate(cf.per_view_ranks):
        rep.metrics[f"view{vi}_rank"] = rk
    P = curve.points(_sample_thetas(40) + rng.uniform(0, np.pi))
    meet = np.abs(cf(join_points(P, rng.standard_normal((40, 4))))).max()
    rep.metrics["held_out_max"] = float(meet)
    rep.verdicts["held_out_pass"] = meet <= 1e-8
    ref = curve.points(_sample_thetas(40 * d) + 0.05)
    miss = np.abs(cf(scenes.lines_missing_points(ref, rng, 40, min_gap=0.35))).min()
    rep.metrics["separation_min"] = float(miss)
    rep.verdicts["random_lines_separate"] = miss >= 1e-3
    rep.artifacts["chow_form"] = {
        "columns": ["exponents", "coefficient"],
        "rows": _poly_rows(cf.Gamma)}


def _cmd_classify_motion(cfg: SceneConfig, rng: np.random.Generator,
                         rep: Report, args):
    from . import dynamics as dy
    if not cfg.dynamic_points:
        raise ConfigError("classify-motion needs at least one dynamic point")
    rows = []
    all_correct = True
    for pi, dp in enumerate(cfg.dynamic_points):
        sc = scenes.observe_trajectory(dp["preset"], rng, dp["n_cameras"],
                                       dp["frames_per_camera"],
                                       noise_sigma=cfg.noise_sigma, point_id=pi)
        rays = dy.lift_observations(sc.cameras, sc.detections)
        res = dy.classify_motion(rays, noise_sigma=cfg.noise_sigma)
        expected = EXPECTED_KIND[dp["preset"]]
        ok = res.kind == expected
        all_correct = all_correct and ok
        rep.metrics[f"point{pi}_residual"] = float(res.residual)
        rep.verdicts[f"point{pi}_classified_correctly"] = ok
        rows.append([pi, dp["preset"], res.kind,
                     res.degree if res.degree is not None else -1,
                     float(res.residual)])
    rep.verdicts["all_points_correct"] = all_correct
    rep.artifacts["classifications"] = {
        "columns": ["point_id", "preset", "classified", "degree", "residual"],
        "rows": rows}


def _parse_range(text: str, what: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            a = b = int(parts[0])
        elif len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{what} must look like '2' or '2..4', got {text!r}") from None
    if a < 2:
        raise ConfigError(f"{what} range {text!r} must start at 2 or above")
    if b < a:
        raise ConfigError(f"{what} range {text!r} is empty or out of order")
    return range(a, b + 1)


def _cmd_consistency_tables(cfg: SceneConfig, rng: np.random.Generator,
                            rep: Report, args):
    from . import reconstruct as rc
    d_range = _parse_range(args.d, "--d")
    m_range = _parse_range(args.m, "--m")
    rows = []
    all_ok = True
    for d in d_range:
        for m in m_range:
            r = rc.consistency_report(d, m)
            ok = r["dual_bound_consistent"] and r["chow_bound_consistent"]
            all_ok = all_ok and ok
            rep.verdicts[f"d{d}_m{m}_consistent"] = ok
            rows.append([d, m,
                         r["dual_unknowns"], r["dual_view_cap"],
                         r["min_views_dual"], rc.views_for_dual(m),
                         r["chow_unknowns"], r["chow_view_cap"],
                         r["min_views_chow"], rc.views_for_chow(d)])
    rep.verdicts["table_consistent"] = all_ok
    rep.metrics["rows"] = len(rows)
    rep.artifacts["consistency"] = {
        "columns": ["d", "m", "dual_unknowns", "dual_view_cap",
                    "min_views_dual", "views_to_identify_dual",
                    "chow_unknowns", "chow_view_cap",
                    "min_views_chow", "views_to_identify_chow"],
        "rows": rows}


_HANDLERS = {
    "simulate": _cmd_simulate,
    "kruppa-check": _cmd_kruppa_check,
    "kruppa-dim": _cmd_kruppa_dim,
    "reconstruct-points": _cmd_reconstruct_points,
    "reconstruct-dual": _cmd_reconstruct_dual,
    "reconstruct-chow": _cmd_reconstruct_chow,
    "classify-motion": _cmd_classify_motion,
    "consistency-tables": _cmd_consistency_tables,
}


def run(command: str, cfg: SceneConfig, args=None) -> Report:
    """Execute one command against a parsed config and assemble its report.

    ``args`` holds the command's flags as the parser gives them; without it
    every flag takes its parser default.
    """
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}, choose from {tuple(_HANDLERS)}")
    if args is None:
        args = _build_parser().parse_args([command])
    rng = np.random.default_rng(cfg.seed)
    rep = Report(command=command, inputs_digest=inputs_digest(command, cfg))
    rep.metrics["seed"] = cfg.seed
    rep.metrics["noise_sigma"] = cfg.noise_sigma
    _HANDLERS[command](cfg, rng, rep, args)
    return rep


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemvg",
        description="Synthetic multi-view curve geometry workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="scene configuration JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--noise", type=float, default=None,
                       help="override the config noise_sigma")
        p.add_argument("--out", default=None, help="write the report JSON here")
        p.add_argument("--export-csv", default=None, metavar="DIR",
                       help="write one CSV per report artifact")
        if name == "reconstruct-points":
            p.add_argument("--planes", type=int, default=60,
                           help="epipolar planes to sweep")
        if name == "consistency-tables":
            p.add_argument("--d", default="2..4", help="degree range, e.g. 2..4")
            p.add_argument("--m", default="2..6", help="class range, e.g. 2..8")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config, args.seed, args.noise)
        elif args.command == "consistency-tables":
            cfg = parse_config({"seed": args.seed if args.seed is not None else 0})
        else:
            print(f"{args.command} requires --config", file=sys.stderr)
            return 2
        rep = run(args.command, cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CurvemvgError as err:
        print(f"error: {args.command}: {err}", file=sys.stderr)
        return 1
    text = rep.to_json()
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as err:
            print(f"cannot write report {args.out}: {err}", file=sys.stderr)
            return 1
    else:
        print(text)
    if args.export_csv:
        try:
            for path in export_samples(rep, args.export_csv):
                print(f"wrote {path}", file=sys.stderr)
        except OSError as err:
            print(err, file=sys.stderr)
            return 1
    failed = rep.failed_keys()
    if failed:
        for key in failed:
            print(f"verdict failed: {key}", file=sys.stderr)
        for note in rep.notes:
            print(f"note: {note}", file=sys.stderr)
        return 1
    # the digest to_json wrote, read off its line instead of parsing the text:
    # only a top-level key sits at an indent of two (a string's own newlines
    # are escaped), and the keys after it are the short ones
    key = '\n  "digest": "'
    start = text.rindex(key) + len(key)
    print(f"ok: {rep.command} digest {text[start:start + 16]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
