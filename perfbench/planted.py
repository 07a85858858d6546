#!/usr/bin/env python3
"""Show that every output check of the benchmark rejects a planted wrong answer.

Usage, from the root of a checkout:  python3 perfbench/planted.py

For each check this first feeds it a real output of the program (it must
pass), then the same output with one planted fault (it must fail).  Prints
one line per planted fault and exits 1 if any check accepts one.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
from curvemvg import dynamics as dy  # noqa: E402
from curvemvg import kruppa as kp  # noqa: E402
from curvemvg import reconstruct as rc  # noqa: E402
from curvemvg import scene_cli as cli  # noqa: E402
from curvemvg import scenes  # noqa: E402
from curvemvg.curve_models import image_tangent, preset_curve  # noqa: E402
from workloads import form_of, thetas  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def planted(name: str, good, bad):
    """good() must pass; bad() must raise CheckFailed."""
    good()
    try:
        bad()
    except ck.CheckFailed as err:
        RESULTS.append((name, True))
        print(f"rejected  {name}: {err}")
    else:
        RESULTS.append((name, False))
        print(f"ACCEPTED  {name}")


def trial(kind, seed=5):
    sc = scenes.observe_trajectory(kind, np.random.default_rng(seed))
    return sc.trajectory, dy.classify_motion(dy.lift_observations(sc.cameras, sc.detections))


def motion_checks():
    rng = np.random.default_rng(0)
    planted("label: a static point called a line",
            lambda: ck.check_label("static", "static", None),
            lambda: ck.check_label("static", "line", 1))
    planted("label: a cubic fitted at degree 2",
            lambda: ck.check_label("cubic", "curve", 3),
            lambda: ck.check_label("cubic", "curve", 2))
    traj, mc = trial("static")
    shifted = traj.anchor + 1e-3 * rng.standard_normal(4)
    planted("static point moved by 1e-3",
            lambda: ck.check_static(mc.model, traj.anchor),
            lambda: ck.check_static(mc.model, shifted))
    traj, mc = trial("line")
    near = ck.lines_through(ck.curve_points(traj.curve.C, rng.uniform(0, np.pi, 30)), rng)
    other = ck.join(rng.standard_normal(4), rng.standard_normal(4))[0]
    planted("recovered line replaced by a random line",
            lambda: ck.check_line(mc.model.v, near),
            lambda: ck.check_line(other, near))
    traj, mc = trial("cubic")
    _, mc_other = trial("cubic", seed=6)
    near = ck.lines_through(ck.curve_points(traj.curve.C, rng.uniform(0, np.pi, 30)), rng)
    far = ck.lines_far_from(ck.curve_points(traj.curve.C, np.linspace(0, np.pi, 240)), rng, 30)
    exps, coeffs = form_of(mc.model.Gamma)
    planted("trajectory form taken from another cubic",
            lambda: ck.check_separates(exps, coeffs, near, far),
            lambda: ck.check_separates(*form_of(mc_other.model.Gamma), near, far))
    planted("trajectory form set to zero",
            lambda: ck.check_separates(exps, coeffs, near, far),
            lambda: ck.check_separates(exps, 0.0 * coeffs, near, far))


def recovery_checks():
    rng = np.random.default_rng(1)
    ring = scenes.camera_ring(np.random.default_rng(19), 8)
    conic, cubic = preset_curve("conic", 11), preset_curve("twisted_cubic", 3)
    inst = kp.build_instance(cubic, ring[0], ring[1])
    th = rng.uniform(0, np.pi, 30)
    P, V = ck.curve_points(cubic.C, th), ck.curve_velocities(cubic.C, th)
    tangents = np.cross(P @ ring[0].M.T, V @ ring[0].M.T)
    generic = rng.standard_normal((30, 3))
    planted("dual image form of the other view",
            lambda: ck.check_separates(*form_of(inst.phi1), tangents, generic, near_tol=1e-6),
            lambda: ck.check_separates(*form_of(inst.phi2), tangents, generic, near_tol=1e-6))
    views = [(cam, np.stack([image_tangent(cubic, cam, t) for t in thetas(20, 0.11 * (i + 1))]))
             for i, cam in enumerate(ring[:5])]
    ds = rc.dual_reconstruct(views, 4)
    exps, coeffs = form_of(ds.Upsilon)
    bent = coeffs + 1e-3 * rng.standard_normal(coeffs.shape)
    planted("dual surface coefficients moved by 1e-3",
            lambda: ck.check_dual(exps, coeffs, cubic.C, rng),
            lambda: ck.check_dual(exps, bent, cubic.C, rng))
    chow = {}
    for name, curve, k, n in (("conic", conic, 5, 16), ("cubic", cubic, 8, 24)):
        pts = [curve.points(thetas(n, 0.31)) @ cam.M.T for cam in ring[:k]]
        chow[name] = rc.chow_reconstruct(list(zip(ring[:k], pts)), curve.degree)
    other = preset_curve("conic", 12)
    pts = [other.points(thetas(16, 0.31)) @ cam.M.T for cam in ring[:5]]
    wrong_chow = rc.chow_reconstruct(list(zip(ring[:5], pts)), 2)
    planted("Chow form of another conic",
            lambda: ck.check_chow(*form_of(chow["conic"].Gamma), conic.C, rng),
            lambda: ck.check_chow(*form_of(wrong_chow.Gamma), conic.C, rng))
    try:
        rc.chow_reconstruct([(cam, cubic.points(thetas(24, 0.31)) @ cam.M.T)
                             for cam in ring[:6]], 3)
    except rc.InsufficientViews as err:
        refusal = err
    planted("refusal deficit off by one",
            lambda: ck.check_refusal(refusal, ck.chow_blind_dim(3, 6)),
            lambda: ck.check_refusal(refusal, ck.chow_blind_dim(3, 6) + 1))
    planted("a fit returned where the fitter must refuse",
            lambda: ck.check_refusal(refusal, 5),
            lambda: ck.check_refusal(chow["cubic"], 5))


def report(command, config, args=None):
    cfg = cli.load_config(str(ROOT / "configs" / config))
    return json.loads(cli.run(command, cfg, args).to_json())


def cli_checks():
    rng = np.random.default_rng(2)
    rep = report("kruppa-dim", "conic_pair.json")
    failed = copy.deepcopy(rep)
    failed["verdicts"]["dimension_matches"] = False
    planted("a verdict set to false",
            lambda: ck.check_report(0, rep), lambda: ck.check_report(0, failed))
    planted("exit code 1", lambda: ck.check_report(0, rep), lambda: ck.check_report(1, rep))
    edited = copy.deepcopy(rep)
    edited["metrics"]["sigma_m"] += 1
    planted("a metric edited after the digest",
            lambda: ck.check_report(0, rep), lambda: ck.check_report(0, edited))
    planted("a second pass with another digest",
            lambda: ck.check_repeat(rep["digest"], rep["digest"]),
            lambda: ck.check_repeat(rep["digest"], edited["digest"][::-1]))
    wrong_dim = copy.deepcopy(rep)
    wrong_dim["metrics"]["dim_measured"] += 1
    planted("kruppa-dim off by one",
            lambda: ck.check_kruppa_dim(rep["metrics"], ["conic"]),
            lambda: ck.check_kruppa_dim(wrong_dim["metrics"], ["conic"]))
    rep = report("classify-motion", "dynamics_mixed.json")
    rows = rep["artifacts"]["classifications"]["rows"]
    presets = ["static", "line", "conic", "cubic"]
    swapped = copy.deepcopy(rows)
    swapped[0][2], swapped[1][2] = swapped[1][2], swapped[0][2]
    planted("two classification labels swapped",
            lambda: ck.check_labels(rows, presets), lambda: ck.check_labels(swapped, presets))
    rep = report("reconstruct-chow", "chow_conic.json")
    exps, coeffs = ck.artifact_form(rep["artifacts"]["chow_form"])
    conic = preset_curve("conic", 11)
    bent = coeffs.copy()
    bent[int(np.argmax(np.abs(bent)))] *= 1.001
    planted("largest chow_form coefficient scaled by 1.001",
            lambda: ck.check_chow(exps, coeffs, conic.C, rng),
            lambda: ck.check_chow(exps, bent, conic.C, rng))
    args = cli._build_parser().parse_args(["reconstruct-points", "--planes", "60"])
    rep = report("reconstruct-points", "cubic_pair.json", args)
    rows, metrics = rep["artifacts"]["epipolar_candidates"]["rows"], rep["metrics"]
    cubic = preset_curve("twisted_cubic", 3)
    plane = next(p for p in range(60)
                 if any(r[0] == p and r[8] == "extraneous" and r[6] < 1e-12 for r in rows))
    swapped = copy.deepcopy(rows)
    true_row = next(r for r in swapped if r[0] == plane and r[8] == "true")
    ext_row = next(r for r in swapped if r[0] == plane and r[8] == "extraneous" and r[6] < 1e-12)
    true_row[8], ext_row[8] = "extraneous", "true"
    planted("a true and a real extraneous candidate relabelled",
            lambda: ck.check_sweep(rows, metrics, 60, cubic.C),
            lambda: ck.check_sweep(swapped, metrics, 60, cubic.C))
    short = [r for r in rows if not (r[0] == plane and r[1] == 0)]
    planted("a candidate dropped from a plane",
            lambda: ck.check_sweep(rows, metrics, 60, cubic.C),
            lambda: ck.check_sweep(short, metrics, 60, cubic.C))
    args = cli._build_parser().parse_args(["consistency-tables", "--d", "2..4", "--m", "2..8"])
    rep = report("consistency-tables", "simulate_demo.json", args)
    table = rep["artifacts"]["consistency"]
    off = copy.deepcopy(table)
    off["rows"][3][5] += 1
    planted("one consistency entry off by one",
            lambda: ck.check_consistency(table, range(2, 5), range(2, 9)),
            lambda: ck.check_consistency(off, range(2, 5), range(2, 9)))


def main() -> int:
    motion_checks()
    recovery_checks()
    cli_checks()
    missed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(missed)} of {len(RESULTS)} planted faults rejected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
