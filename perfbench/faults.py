#!/usr/bin/env python3
"""Reproduce the program faults that the benchmark's workloads leave out.

Usage, from the root of a checkout:  python3 perfbench/faults.py

Each fault below makes some operations fail on some seeds only, so a
workload that included them would fail a seed-dependent share of its
operations.  This script measures each one and prints what it finds; it
takes about two minutes on one core.

(a) two CLI verdict gates fail on correct output at some config seeds;
(b) refine_epipolar reports convergence on its own probes while fresh
    probes and the true F disagree;
(c) solution_dimension answers wrongly or raises on some ladder rungs;
(d) classify_motion raises GeometryError on line trajectories at noise 1e-2;
(e) epipolar_sweep labels an extraneous candidate as true on one seeded scene;
(f) the dual fit of a rational quartic refuses one seeded camera;
(g) classify_motion raises PolynomialError on one zero-noise conic trajectory;
(h) detection_response reads about 1e-6 at the exact true geometry of one
    seeded cubic instance, where others read 1e-15.
(e) and (f) were met by earlier versions of curve_recovery, whose round r
drew camera_ring(rng, 8) and then conic, twisted-cubic, twisted-cubic and
quartic preset seeds from rng = default_rng((seed, r)); (g) by an earlier
motion_sweep, which drew trial k of round r from default_rng((seed, r, k))
with the kinds static, line, conic, cubic; (h) by an earlier curve_recovery,
whose round r drew camera_ring(rng, 8) and then conic, twisted-cubic and
twisted-cubic preset seeds from rng = default_rng((seed, r)).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from curvemvg import dynamics as dy  # noqa: E402
from curvemvg import kruppa as kp  # noqa: E402
from curvemvg import polycore as pc  # noqa: E402
from curvemvg import reconstruct as rc  # noqa: E402
from curvemvg import scenes  # noqa: E402
from curvemvg.curve_models import CurveModelError, implicit_image_curve, preset_curve  # noqa: E402
from curvemvg.projective_cameras import EpipolarGeometry, GeometryError, fundamental  # noqa: E402


def cli_gates():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, config, seeds, extra in (
            ("kruppa-check", "configs/kruppa_trio.json", (1009, 1034, 1045), []),
            ("reconstruct-chow", "configs/chow_cubic.json", (1014, 1019, 1022, 1029), [])):
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "-m", "curvemvg.scene_cli", command, "--config", config,
                 "--seed", str(seed), *extra], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=120)
            rep = json.loads(proc.stdout)
            m = rep["metrics"]
            shown = {k: m[k] for k in ("constraint_norm_max", "held_out_max", "separation_min")
                     if k in m}
            failed = [k for k, ok in rep["verdicts"].items() if not ok]
            print(f"(a) {command} --seed {seed}: exit {proc.returncode}, failed {failed}, "
                  + ", ".join(f"{k} {v:.2e}" for k, v in shown.items()))


def refine_and_ladder():
    names = {"conic": ("conic", 11), "cubic": ("twisted_cubic", 3),
             "cubic_b": ("twisted_cubic", 13), "quintic": ("rational_quintic", 5)}
    curves = {k: preset_curve(*v) for k, v in names.items()}
    ladder = [(["conic"], 5), (["cubic"], 3), (["conic", "cubic"], 1),
              (["cubic", "cubic_b"], 0), (["conic", "quintic"], 0)]
    false_conv = rungs = bad_rungs = 0
    for s in range(40):
        ring = scenes.camera_ring(np.random.default_rng(5000 + s), 8)
        eg = fundamental(ring[0], ring[1])
        inst = {}
        for name, curve in curves.items():
            try:
                inst[name] = kp.build_instance(curve, ring[0], ring[1])
            except (CurveModelError, GeometryError):
                pass
        rng = np.random.default_rng(15)
        start = EpipolarGeometry.from_F(eg.F + 1e-4 * rng.standard_normal((3, 3)))
        pair = [inst["cubic"], inst["cubic_b"]]
        try:
            res = kp.refine_epipolar(start, pair, rng=rng)
        except kp.KruppaError as err:
            print(f"(b) ring {s}: refine raised {err}")
        else:
            fresh = max(kp.detection_response(kp.KruppaInstance(i.phi1, i.phi2, res.eg),
                                              rng=np.random.default_rng(77)) for i in pair)
            f_err = pc.proportionality_residual(res.eg.F.ravel(), eg.F.ravel())
            if res.residual < 1e-9 and (fresh > 1e-8 or f_err > 1e-6):
                false_conv += 1
                print(f"(b) ring {s}: reported residual {res.residual:.1e}, fresh probes "
                      f"{fresh:.1e}, F off the truth by {f_err:.1e}")
        drng = np.random.default_rng(12)
        for members, want in ladder:
            if any(n not in inst for n in members):
                continue
            rungs += 1
            try:
                got = kp.solution_dimension([inst[n] for n in members], eg, rng=drng)
            except kp.KruppaError as err:
                got = f"raised ({err})"
            if got != want:
                bad_rungs += 1
                print(f"(c) ring {s} {'+'.join(members)}: dimension {got}, expected {want}")
    print(f"(b) false convergence on {false_conv} of 40 rings")
    print(f"(c) wrong or no dimension on {bad_rungs} of {rungs} rungs")


def noisy_lines():
    raised = []
    for s in range(30):
        sc = scenes.observe_trajectory("line", np.random.default_rng(40000 + s),
                                       noise_sigma=1e-2)
        rays = dy.lift_observations(sc.cameras, sc.detections)
        try:
            dy.classify_motion(rays, noise_sigma=1e-2)
        except GeometryError:
            raised.append(s)
    print(f"(d) classify_motion raised GeometryError for s in {raised} of 0..29")


def seeded_scene(seed: int, r: int):
    rng = np.random.default_rng((seed, r))
    ring = scenes.camera_ring(rng, 8)
    seeds = [int(rng.integers(2**31)) for _ in range(4)]
    return ring, seeds


def sweep_mislabel():
    ring, seeds = seeded_scene(104, 37)
    cubic = preset_curve("twisted_cubic", seeds[1])
    images = [implicit_image_curve(cubic, cam) for cam in ring[:4]]
    split = rc.epipolar_sweep(images[0], images[1], ring[0], ring[1], n_planes=60,
                              check_views=[(f.f, c) for f, c in zip(images[2:], ring[2:4])])
    for i, plane in enumerate(split.planes):
        if plane.is_true.sum() != 3:
            print(f"(e) seed 104 round 37 plane {i}: {int(plane.is_true.sum())} true, "
                  f"{int((~plane.is_true).sum())} extraneous; check-view residuals "
                  + ", ".join(f"{x:.1e}" for x in sorted(plane.residuals)))


def quartic_refusal():
    ring, seeds = seeded_scene(208, 50)
    try:
        kp.build_instance(preset_curve("rational_quartic", seeds[3]), ring[0], ring[1])
    except CurveModelError as err:
        print(f"(f) seed 208 round 50 quartic: {err}")
    else:
        print("(f) seed 208 round 50 quartic: built")


def conic_trial():
    sc = scenes.observe_trajectory("conic", np.random.default_rng((14, 177, 2)))
    try:
        dy.classify_motion(dy.lift_observations(sc.cameras, sc.detections))
    except pc.PolynomialError as err:
        print(f"(g) seed 14 round 177 conic trial: PolynomialError ({err})")
    else:
        print("(g) seed 14 round 177 conic trial: classified")


def kruppa_truth():
    rng = np.random.default_rng((5, 8))
    ring = scenes.camera_ring(rng, 8)
    seeds = [int(rng.integers(2**31)) for _ in range(3)]
    for name, seed in (("conic", seeds[0]), ("cubic", seeds[1]), ("cubic_b", seeds[2])):
        preset = "conic" if name == "conic" else "twisted_cubic"
        inst = kp.build_instance(preset_curve(preset, seed), ring[0], ring[1])
        vals = [kp.detection_response(inst, rng=np.random.default_rng(p)) for p in range(4)]
        print(f"(h) seed 5 round 8 {name}: response at the true geometry "
              + ", ".join(f"{v:.1e}" for v in vals) + " (probe seeds 0..3)")


if __name__ == "__main__":
    cli_gates()
    refine_and_ladder()
    noisy_lines()
    sweep_mislabel()
    quartic_refusal()
    conic_trial()
    kruppa_truth()
