"""The dimension of the Kruppa variety on a ladder of curve sets.

Each curve of class m cuts the seven-dimensional manifold of epipolar
geometries by m conditions, so a set of curves leaves a solution variety of
dimension max(7 - sum m, 0) at the true geometry.  ``solution_dimension``
must read that number on every rung below, with no seed to choose and no
refusal; a curve paired with a reparametrization of itself adds no
condition and must read the single curve's dimension.
"""
import numpy as np
import pytest

from curvemvg import kruppa as kp
from curvemvg import scenes
from curvemvg.curve_models import (CurveModelError, RationalCurve3D, _binary_monomials,
                                   preset_curve)
from curvemvg.projective_cameras import GeometryError, fundamental

CURVES = {"conic": ("conic", 11), "cubic": ("twisted_cubic", 3),
          "cubic_b": ("twisted_cubic", 13), "quintic": ("rational_quintic", 5)}
LADDER = [(["conic"], 5), (["cubic"], 3), (["conic", "cubic"], 1),
          (["cubic", "cubic_b"], 0), (["conic", "quintic"], 0)]


@pytest.fixture(scope="module")
def rings():
    # the instances of each curve on cameras 0 and 1 of forty jittered rings;
    # a dual fit the rings make ambiguous leaves its curve out of that ring
    curves = {name: preset_curve(*preset) for name, preset in CURVES.items()}
    out = []
    for s in range(40):
        ring = scenes.camera_ring(np.random.default_rng(5000 + s), 8)
        inst = {}
        for name, curve in curves.items():
            try:
                inst[name] = kp.build_instance(curve, ring[0], ring[1])
            except (CurveModelError, GeometryError):
                pass
        out.append((ring, fundamental(ring[0], ring[1]), inst))
    return out


def test_every_ladder_rung_reads_its_dimension(rings):
    wrong, rungs = [], 0
    for s, (_, eg, inst) in enumerate(rings):
        for members, want in LADDER:
            if any(n not in inst for n in members):
                continue
            rungs += 1
            got = kp.solution_dimension([inst[n] for n in members], eg)
            if got != want:
                wrong.append((s, "+".join(members), got, want))
    # ring 38 cannot fit the quintic's dual, so one rung of 200 is absent
    assert rungs == 199
    assert wrong == []


def _rotated(curve: RationalCurve3D, alpha: float) -> RationalCurve3D:
    # the same curve with its parameter turned by alpha: C' m(t) = C m(t + alpha)
    th = np.arange(curve.degree + 1) * np.pi / (curve.degree + 1)
    R = np.linalg.solve(_binary_monomials(th, curve.degree),
                        _binary_monomials(th + alpha, curve.degree))
    return RationalCurve3D(curve.C @ R.T)


def test_a_curve_and_its_own_rotation_read_the_single_dimension(rings):
    wrong, pairs = [], 0
    for name, want in (("conic", 5), ("cubic", 3)):
        for alpha in (0.4, 1.9):
            turned = _rotated(preset_curve(*CURVES[name]), alpha)
            for s, (ring, eg, inst) in enumerate(rings):
                pair = [inst[name], kp.build_instance(turned, ring[0], ring[1])]
                pairs += 1
                got = kp.solution_dimension(pair, eg)
                if got != want:
                    wrong.append((s, name, alpha, got))
    assert pairs == 160
    assert wrong == []


@pytest.mark.parametrize("preset, seeds, want", [
    ("conic", range(3), 5), ("twisted_cubic", range(3), 3),
    ("rational_quartic", range(4), 1), ("rational_quintic", range(3), 0)])
def test_preset_singletons_read_their_dimension(preset, seeds, want):
    ring = scenes.camera_ring(np.random.default_rng(19), 4)
    for seed in seeds:
        inst = kp.build_instance(preset_curve(preset, seed), ring[0], ring[1])
        assert kp.solution_dimension([inst], inst.eg) == want == max(7 - inst.m, 0), seed
