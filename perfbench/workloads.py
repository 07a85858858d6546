"""The benchmark's three workloads.

A workload draws its inputs from the workload seed and hands out rounds of
operations; every round runs the same operations on fresh inputs, so the
share of failed operations does not depend on how long a run lasts.  An
operation is a callable whose output goes to its check after the timer has
stopped.  Work a round does before its first operation (drawing the scene
of ``curve_recovery``) is timed as the round's set-up, not as any
operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck
# module attributes, not imported names, so that the traced run's spans see every call
from curvemvg import curve_models as cm
from curvemvg import dynamics as dy
from curvemvg import kruppa as kp
from curvemvg import reconstruct as rc
from curvemvg import scenes


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def thetas(n: int, offset: float) -> np.ndarray:
    return (np.arange(n) + 0.382 + offset) * (np.pi / n)


def form_of(poly) -> tuple[np.ndarray, np.ndarray]:
    return poly.basis.exponent_array(), poly.coeffs


# ---------------------------------------------------------------------------

class MotionSweep:
    """One fresh trajectory trial per operation, cycling three motion kinds.

    Scene (10 cameras x 15 frames, zero noise), ray lifting and
    classification all sit inside the operation, as in a Monte-Carlo
    accuracy sweep.  Conic trials are left out: about one in a few thousand
    makes ``classify_motion`` raise (see README.md), so the failed share
    would depend on the seed.
    """

    KINDS = ("static", "line", "cubic")

    def __init__(self, seed: int, ctx):
        self.seed = seed

    def round(self, r: int, traced: bool) -> list[Op]:
        return [self._trial(r, k, kind) for k, kind in enumerate(self.KINDS)]

    def _trial(self, r: int, k: int, kind: str) -> Op:
        def run():
            sc = scenes.observe_trajectory(kind, np.random.default_rng((self.seed, r, k)))
            rays = dy.lift_observations(sc.cameras, sc.detections)
            return sc.trajectory, dy.classify_motion(rays)

        def check(out):
            traj, mc = out
            ck.check_label(kind, mc.kind, mc.degree)
            rng = np.random.default_rng((self.seed, r, k, 1))
            if kind == "static":
                ck.check_static(mc.model, traj.anchor)
                return
            near = ck.lines_through(ck.curve_points(traj.curve.C, rng.uniform(0, np.pi, 30)),
                                    rng)
            if kind == "line":
                ck.check_line(mc.model.v, near)
                return
            ref = ck.curve_points(traj.curve.C, (np.arange(240) + 0.5) * np.pi / 240)
            far = ck.lines_far_from(ref, rng, 30)
            ck.check_separates(*form_of(mc.model.Gamma), near, far)

        return Op(f"trial:{kind}", run, check)


# ---------------------------------------------------------------------------

CURVES = (("conic", "conic"), ("cubic", "twisted_cubic"), ("cubic_b", "twisted_cubic"))


class CurveRecovery:
    """Kruppa, dual and Chow routes on one seeded scene per round.

    Each round draws an 8-camera ring and three curves (a conic, two twisted
    cubics), then runs 9 operations: a Kruppa instance per curve, the dual
    surface of the cubic from 5 views, Chow forms of the conic and the
    cubic from 5 and 8 centers, and the three counting-bound refusals.  The
    Kruppa detection response, the epipolar sweep and the rational quartic
    are left out because they fail on some scenes (see README.md);
    cli_reports runs the response and the sweep on its bundled configs.
    """

    def __init__(self, seed: int, ctx):
        self.seed = seed

    def round(self, r: int, traced: bool) -> list[Op]:
        rng = np.random.default_rng((self.seed, r))
        ring = scenes.camera_ring(rng, 8)
        curves = {name: cm.preset_curve(preset, int(rng.integers(2**31)))
                  for name, preset in CURVES}
        check_rng = np.random.default_rng((self.seed, r, 1))
        ops = [self._build(name, curves[name], ring) for name in curves]
        ops.append(self._dual(curves["cubic"], ring, 5, check_rng))
        ops.append(self._chow(curves["conic"], "conic", ring, 5, check_rng))
        ops.append(self._chow(curves["cubic"], "cubic", ring, 8, check_rng))
        ops.append(self._dual(curves["cubic"], ring, 3, check_rng))
        ops.append(self._chow(curves["conic"], "conic", ring, 4, check_rng))
        ops.append(self._chow(curves["cubic"], "cubic", ring, 6, check_rng))
        return ops

    def _build(self, name, curve, ring) -> Op:
        def run():
            return kp.build_instance(curve, ring[0], ring[1])

        def check(inst):
            d = curve.degree
            ck.require(inst.m == 2 * d - 2, f"class {inst.m}, degree-{d} curve has {2 * d - 2}")
            th = np.random.default_rng(d).uniform(0, np.pi, 30)
            P = ck.curve_points(curve.C, th)
            V = ck.curve_velocities(curve.C, th)
            for cam, phi in ((ring[0], inst.phi1), (ring[1], inst.phi2)):
                tangents = np.cross(P @ cam.M.T, V @ cam.M.T)
                generic = np.random.default_rng(d + 1).standard_normal((30, 3))
                ck.check_separates(*form_of(phi), tangents, generic, near_tol=1e-6)

        return Op(f"build_instance:{name}", run, check)

    def _dual(self, curve, ring, k, check_rng) -> Op:
        m = 2 * curve.degree - 2
        refuse = ck.dual_blind_dim(m, k) > 0

        def run():
            views = [(cam, np.stack([cm.image_tangent(curve, cam, th)
                                     for th in thetas(20, 0.11 * (i + 1))]))
                     for i, cam in enumerate(ring[:k])]
            try:
                return rc.dual_reconstruct(views, m)
            except rc.InsufficientViews as err:
                if not refuse:
                    raise
                return err

        def check(out):
            if refuse:
                ck.check_refusal(out, ck.dual_blind_dim(m, k))
            else:
                ck.require(not isinstance(out, Exception), "fit refused")
                ck.check_dual(*form_of(out.Upsilon), curve.C, check_rng)

        kind = "dual_refusal" if refuse else "dual_reconstruct"
        return Op(f"{kind}:cubic:{k}", run, check)

    def _chow(self, curve, name, ring, k, check_rng) -> Op:
        d = curve.degree
        refuse = ck.chow_blind_dim(d, k) > 0
        n_pts = 16 if d == 2 else 24

        def run():
            views = []
            for cam in ring[:k]:
                pts = curve.points(thetas(n_pts, 0.31)) @ cam.M.T
                views.append((cam, pts / np.linalg.norm(pts, axis=1, keepdims=True)))
            try:
                return rc.chow_reconstruct(views, d)
            except rc.InsufficientViews as err:
                if not refuse:
                    raise
                return err

        def check(out):
            if refuse:
                ck.check_refusal(out, ck.chow_blind_dim(d, k))
            else:
                ck.require(not isinstance(out, Exception), "fit refused")
                ck.check_chow(*form_of(out.Gamma), curve.C, check_rng)

        kind = "chow_refusal" if refuse else "chow_reconstruct"
        return Op(f"{kind}:{name}:{k}", run, check)


# ---------------------------------------------------------------------------

# the eight command lines of the README, on their bundled configs
COMMANDS = (
    ("simulate", "--config", "configs/simulate_demo.json"),
    ("kruppa-check", "--config", "configs/kruppa_trio.json", "--noise", "1e-3"),
    ("kruppa-dim", "--config", "configs/conic_pair.json"),
    ("reconstruct-points", "--config", "configs/cubic_pair.json", "--planes", "60"),
    ("reconstruct-dual", "--config", "configs/dual_quartic.json"),
    ("reconstruct-chow", "--config", "configs/chow_cubic.json"),
    ("classify-motion", "--config", "configs/dynamics_mixed.json"),
    ("consistency-tables", "--d", "2..4", "--m", "2..8"),
)


@dataclass
class CliResult:
    exit: int
    report: dict
    side: dict


class CliReports:
    """Each operation is one README command line in a fresh interpreter.

    The commands run on their bundled configs with the configs' own seeds;
    the workload seed only rotates the order of the commands in a round.
    """

    def __init__(self, seed: int, ctx):
        self.seed = seed
        self.root: Path = ctx.root
        self.tmp: Path = ctx.tmp
        self.rec = ctx.rec
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.first_digest: dict = {}
        self.peak_rss_kb = 0
        self.truth: dict = {}
        self.n = 0

    def round(self, r: int, traced: bool) -> list[Op]:
        start = (self.seed + r) % len(COMMANDS)
        order = COMMANDS[start:] + COMMANDS[:start]
        return [self._command(argv, traced) for argv in order]

    def _config(self, argv) -> dict:
        path = argv[argv.index("--config") + 1]
        with open(self.root / path, encoding="utf-8") as fh:
            return json.load(fh)

    def _command(self, argv, traced: bool) -> Op:
        def run():
            self.n += 1
            report = self.tmp / f"report{self.n}.json"
            side = self.tmp / f"side{self.n}.json"
            with open(self.tmp / f"stderr{self.n}.txt", "wb") as err:
                code = subprocess.run(
                    [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                     str(side), "1" if traced else "0", "--", *argv, "--out", str(report)],
                    cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                    timeout=120).returncode
            return CliResult(code, json.loads(report.read_text(encoding="utf-8")),
                             json.loads(side.read_text(encoding="utf-8")))

        def check(out: CliResult):
            self.peak_rss_kb = max(self.peak_rss_kb, out.side["peak_rss_kb"])
            if self.rec is not None and traced:
                self.rec.merge(out.side["trace"])
                self.rec.counts["curvemvg.import_s"] += out.side["import_s"]
                self.rec.counts["curvemvg.imports"] += 1
            ck.check_report(out.exit, out.report)
            ck.require(out.side["exit"] == out.exit, "launcher and process exit codes differ")
            ck.check_repeat(self.first_digest.setdefault(argv[0], out.report["digest"]),
                            out.report["digest"])
            self._check_command(argv, out.report)

        return Op(argv[0], run, check)

    def _true_curve(self, cfg: dict):
        entry = cfg["curves"][0]
        key = (entry["preset"], entry.get("seed", cfg["seed"]))
        if key not in self.truth:
            self.truth[key] = cm.preset_curve(*key)
        return self.truth[key]

    def _check_command(self, argv, report: dict):
        command = argv[0]
        arts = report["artifacts"]
        rng = np.random.default_rng((self.seed, self.n))
        if command == "classify-motion":
            presets = [p["preset"] for p in self._config(argv)["dynamic_points"]]
            ck.check_labels(arts["classifications"]["rows"], presets)
        elif command == "reconstruct-chow":
            curve = self._true_curve(self._config(argv))
            ck.check_chow(*ck.artifact_form(arts["chow_form"]), curve.C, rng)
        elif command == "reconstruct-points":
            curve = self._true_curve(self._config(argv))
            ck.check_sweep(arts["epipolar_candidates"]["rows"], report["metrics"],
                           int(argv[argv.index("--planes") + 1]), curve.C)
        elif command == "reconstruct-dual":
            curve = self._true_curve(self._config(argv))
            ck.check_dual(*ck.artifact_form(arts["dual_surface"]), curve.C, rng)
        elif command == "consistency-tables":
            ck.check_consistency(arts["consistency"], range(2, 5), range(2, 9))
        elif command == "kruppa-dim":
            presets = [c["preset"] for c in self._config(argv)["curves"]]
            ck.check_kruppa_dim(report["metrics"], presets)


WORKLOADS = {"motion_sweep": MotionSweep, "curve_recovery": CurveRecovery,
             "cli_reports": CliReports}
