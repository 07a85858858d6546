"""Batch workbench: seeded scene generation, checks, and JSON reports.

Every command reads one JSON scene configuration, runs a single operation
chain from the library, and emits a report whose digest is reproducible:
identical config and seed give a byte-identical report.  All randomness
(camera draws, probe lines, sampling offsets, noise) flows from one global
generator seeded once per run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics as dy
from . import kruppa as kp
from . import polycore as pc
from . import reconstruct as rc
from . import scenes
from .curve_models import (CurveModelError, RationalCurve3D, class_of, image_tangents,
                           implicit_image_curve, preset_curve, PRESET_NAMES)
from .projective_cameras import (Camera, EpipolarGeometry, GeometryError, fundamental,
                                 join_points, line_span_planes)


class ConfigError(ValueError):
    """Malformed scene configuration; maps to process exit code 2."""


TRAJECTORY_PRESETS = ("static", "line", "conic", "cubic")
COMMANDS = ("simulate", "kruppa-check", "kruppa-dim", "reconstruct-points",
            "reconstruct-dual", "reconstruct-chow", "classify-motion",
            "consistency-tables")

# classification labels expected for each trajectory preset
EXPECTED_KIND = {"static": "static", "line": "line", "conic": "conic",
                 "cubic": "curve"}

# the library's documented error types: a geometry the command cannot reach
LIBRARY_ERRORS = (GeometryError, CurveModelError, pc.PolynomialError, kp.KruppaError,
                  rc.ReconstructionError, dy.DynamicsError)


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


def _as_matrix(obj, shape, what: str) -> np.ndarray:
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{what} is not numeric: {err}") from None
    if M.shape != shape:
        raise ConfigError(f"{what} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{what} contains non-finite entries")
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
            return Camera(_as_matrix(entry["matrix"], (3, 4), what))
        if "internal" in entry and "external" in entry:
            K = _as_matrix(entry["internal"], (3, 3), f"{what}.internal")
            E = _as_matrix(entry["external"], (3, 4), f"{what}.external")
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
            C = np.asarray(entry["coefficients"], dtype=float)
            if C.ndim != 2 or C.shape[0] != 4 or C.shape[1] < 2:
                raise ConfigError(f"{what}.coefficients must be 4 x (degree+1)")
            return RationalCurve3D(C)
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


def _clean(x):
    """JSON-safe scalar: finite floats, plain ints/bools/strings."""
    if isinstance(x, (bool, str, int)):
        return x
    x = float(x)
    if not np.isfinite(x):
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
        return hashlib.sha256(_canonical(self.body()).encode()).hexdigest()

    def to_json(self) -> str:
        out = self.body()
        out["digest"] = self.digest
        return json.dumps(out, sort_keys=True, indent=2, allow_nan=False)

    def failed_keys(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]


def inputs_digest(command: str, cfg: SceneConfig) -> str:
    payload = {"command": command, "config": cfg.raw,
               "seed": cfg.seed, "noise_sigma": cfg.noise_sigma}
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def export_samples(report: Report, out_dir: str) -> list[str]:
    """One RFC-4180 CSV per artifact; header row always present."""
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
# sampling helpers

def _thetas(n: int, offset: float) -> np.ndarray:
    return offset + np.pi * (np.arange(n) + 0.37) / n


def _need_cameras(cfg: SceneConfig, n: int, command: str):
    if len(cfg.cameras) < n:
        raise ConfigError(f"{command} needs at least {n} cameras, "
                          f"config supplies {len(cfg.cameras)}")


def _need_curves(cfg: SceneConfig, n: int, command: str):
    if len(cfg.curves) < n:
        raise ConfigError(f"{command} needs at least {n} curves, "
                          f"config supplies {len(cfg.curves)}")


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
        ths = _thetas(24, rng.uniform(0, np.pi))
        pts = curve.points(ths)
        for ci, cam in enumerate(cfg.cameras):
            img = cam.project(pts)
            norms = np.linalg.norm(img, axis=1)
            finite = finite and bool(np.all(norms > 1e-12))
            img = img / np.maximum(norms, 1e-300)[:, None]
            for th, q in zip(ths, img):
                q = scenes.add_image_noise(q, cfg.noise_sigma, rng)
                sample_rows.append([ki, ci, float(th),
                                    float(q[0]), float(q[1]), float(q[2])])
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
    _need_cameras(cfg, 2, "kruppa-check")
    _need_curves(cfg, 1, "kruppa-check")
    cam1, cam2 = cfg.cameras[0], cfg.cameras[1]
    eg = fundamental(cam1, cam2)
    worst = 0.0
    for ki, curve in enumerate(cfg.curves):
        inst = kp.build_instance(curve, cam1, cam2)
        resid = kp.detection_response(inst, rng=rng)
        rep.metrics[f"curve{ki}_constraint_norm"] = resid
        worst = max(worst, resid)
        if inst.m == 2:
            C1 = pc.quadratic_matrix(implicit_image_curve(curve, cam1).f)
            C2 = pc.quadratic_matrix(implicit_image_curve(curve, cam2).f)
            classical = kp.classical_kruppa_residual(eg, C1, C2)
            rep.metrics[f"curve{ki}_classical_residual"] = classical
            rep.verdicts[f"curve{ki}_classical_matches"] = classical <= 1e-9
    rep.metrics["constraint_norm_max"] = worst
    rep.verdicts["constraints_vanish"] = worst <= max(1e-9, 10.0 * cfg.noise_sigma)
    if cfg.noise_sigma > 0:
        # the constraints must react to a wrong geometry of the same scale
        lows = []
        for ki, curve in enumerate(cfg.curves):
            inst = kp.build_instance(curve, cam1, cam2)
            low = np.inf
            for _ in range(3):
                Fp = eg.F + cfg.noise_sigma * rng.standard_normal((3, 3))
                wrong = kp.KruppaInstance(inst.phi1, inst.phi2,
                                          EpipolarGeometry.from_F(Fp))
                try:
                    low = min(low, kp.detection_response(wrong, rng=rng))
                except kp.KruppaError as err:
                    rep.notes.append(f"curve{ki} perturbed probe: {err}")
                    continue
            rep.metrics[f"curve{ki}_perturbed_min"] = min(low, 1e6)
            lows.append(min(low, 1e6))
        rep.verdicts["perturbation_detected"] = min(lows) >= 1e-5


def _cmd_kruppa_dim(cfg: SceneConfig, rng: np.random.Generator, rep: Report, args):
    _need_cameras(cfg, 2, "kruppa-dim")
    _need_curves(cfg, 1, "kruppa-dim")
    cam1, cam2 = cfg.cameras[0], cfg.cameras[1]
    eg = fundamental(cam1, cam2)
    instances = [kp.build_instance(c, cam1, cam2) for c in cfg.curves]
    sigma_m = sum(inst.m for inst in instances)
    expected = max(7 - sigma_m, 0)
    rep.metrics["sigma_m"] = sigma_m
    rep.metrics["dim_expected"] = expected
    try:
        dim = kp.solution_dimension(instances, eg, rng=rng)
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
    if args.planes < 1:
        raise ConfigError(f"--planes must be at least 1, got {args.planes}")
    _need_cameras(cfg, 3, "reconstruct-points")
    _need_curves(cfg, 1, "reconstruct-points")
    curve = cfg.curves[0]
    d = curve.degree
    images = [implicit_image_curve(curve, cam) for cam in cfg.cameras]
    checks = [(f.f, cam) for f, cam in zip(images[2:], cfg.cameras[2:])]
    split = rc.epipolar_sweep(images[0], images[1], cfg.cameras[0],
                              cfg.cameras[1], n_planes=args.planes,
                              check_views=checks)
    counts = split.per_plane_counts
    rep.metrics["planes_kept"] = len(counts)
    rep.metrics["planes_skipped"] = split.skipped
    good = sum(1 for t, e in counts if t == d and e == d * (d - 1))
    rep.metrics["planes_exact_split"] = good
    true_max = max((float(p.residuals[p.is_true].max())
                    for p in split.planes if p.is_true.any()), default=0.0)
    ext_min = min((float(p.residuals[~p.is_true].min())
                   for p in split.planes if (~p.is_true).any()), default=np.inf)
    rep.metrics["true_residual_max"] = true_max
    rep.metrics["extraneous_residual_min"] = min(ext_min, 1e6)
    rep.verdicts["per_plane_counts_correct"] = good == len(counts) > 0
    rep.verdicts["true_component_size_correct"] = all(t == d for t, _ in counts)
    rows = []
    for pi, plane in enumerate(split.planes):
        for ci, P in enumerate(plane.points):
            u = P / np.linalg.norm(P)
            k = int(np.argmax(np.abs(u)))
            u = u * np.exp(-1j * np.angle(u[k]))
            label = "true" if plane.is_true[ci] else "extraneous"
            rows.append([pi, ci,
                         float(u[0].real), float(u[1].real),
                         float(u[2].real), float(u[3].real),
                         float(np.linalg.norm(u.imag)),
                         float(plane.residuals[ci]), label])
    rep.artifacts["epipolar_candidates"] = {
        "columns": ["plane_index", "candidate_index", "x", "y", "z", "w",
                    "imag_norm", "residual", "component_label"],
        "rows": rows}


def _cmd_reconstruct_dual(cfg: SceneConfig, rng: np.random.Generator,
                          rep: Report, args):
    _need_cameras(cfg, 2, "reconstruct-dual")
    _need_curves(cfg, 1, "reconstruct-dual")
    curve = cfg.curves[0]
    m = class_of(curve.degree, curve.genus)
    rep.metrics["curve_class"] = m
    rep.metrics["views_needed"] = rc.views_for_dual(m)
    n_tangents = rc.dual_view_cap(m) + 6
    views = []
    for cam in cfg.cameras:
        ths = _thetas(n_tangents, rng.uniform(0, np.pi))
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
    held = []
    for L in curve.tangent_lines(_thetas(25, rng.uniform(0, np.pi))):
        A, B = line_span_planes(L)
        for w in (0.2, 0.5, 0.8):
            held.append(abs(ds(w * A + (1 - w) * B)))
    rep.metrics["held_out_max"] = float(max(held))
    rep.verdicts["held_out_pass"] = max(held) <= 1e-7
    rep.artifacts["dual_surface"] = {
        "columns": ["exponents", "coefficient"],
        "rows": _poly_rows(ds.Upsilon)}


def _cmd_reconstruct_chow(cfg: SceneConfig, rng: np.random.Generator,
                          rep: Report, args):
    _need_cameras(cfg, 2, "reconstruct-chow")
    _need_curves(cfg, 1, "reconstruct-chow")
    curve = cfg.curves[0]
    d = curve.degree
    rep.metrics["degree"] = d
    rep.metrics["views_needed"] = rc.views_for_chow(d)
    n_pts = rc.chow_view_cap(d) + 8
    views = []
    for cam in cfg.cameras:
        pts = cam.project(curve.points(_thetas(n_pts, rng.uniform(0, np.pi))))
        views.append((cam, pts / np.linalg.norm(pts, axis=1, keepdims=True)))
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
    meet = [abs(cf(join_points(P, rng.standard_normal(4))))
            for P in curve.points(_thetas(40, rng.uniform(0, np.pi)))]
    rep.metrics["held_out_max"] = float(max(meet))
    rep.verdicts["held_out_pass"] = max(meet) <= 1e-8
    ref = curve.points(_thetas(40 * d, 0.05))
    miss = [abs(cf(L))
            for L in scenes.lines_missing_points(ref, rng, 40, min_gap=0.35)]
    rep.metrics["separation_min"] = float(min(miss))
    rep.verdicts["random_lines_separate"] = min(miss) >= 1e-3
    rep.artifacts["chow_form"] = {
        "columns": ["exponents", "coefficient"],
        "rows": _poly_rows(cf.Gamma)}


def _cmd_classify_motion(cfg: SceneConfig, rng: np.random.Generator,
                         rep: Report, args):
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
    if a < 1 or b < a:
        raise ConfigError(f"{what} range {text!r} is empty or out of order")
    return range(a, b + 1)


def _cmd_consistency_tables(cfg: SceneConfig, rng: np.random.Generator,
                            rep: Report, args):
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
        raise ConfigError(f"unknown command {command!r}, choose from {COMMANDS}")
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
    for name in COMMANDS:
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
    except LIBRARY_ERRORS as err:
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
    print(f"ok: {rep.command} digest {rep.digest[:16]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
