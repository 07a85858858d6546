import numpy as np
import pytest

from curvemvg import kruppa as kp
from curvemvg import polycore as pc
from curvemvg import scenes
from curvemvg.curve_models import implicit_image_curve, preset_curve
from curvemvg.projective_cameras import (EpipolarGeometry, adjugate3,
                                         cross_matrix, fundamental,
                                         line_span_points, join_points)


@pytest.fixture(scope="module")
def pair(cams):
    return cams[0], cams[1]


@pytest.fixture(scope="module")
def instances(pair, conic, cubic, quintic):
    cam1, cam2 = pair
    return {name: kp.build_instance(curve, cam1, cam2)
            for name, curve in [("conic", conic), ("cubic", cubic),
                                ("quintic", quintic)]}


def test_constraints_vanish_at_truth(instances):
    rng = np.random.default_rng(7)
    for name, inst in instances.items():
        [(probe, _)] = kp._usable_probes(inst, inst.eg.e1, inst.eg.F, rng, 1, 5)
        vec = kp.constraint_vector(inst.phi1, inst.phi2, inst.eg.e1, inst.eg.F, probe)
        assert np.abs(vec).max() < 1e-9, name
        assert vec.shape == (inst.m,)


def _probe_response(inst, eg, rng, n_probes: int = 3) -> float:
    # one probe line can be blind to a particular wrong geometry; the
    # detection statistic is the strongest response over a few probes
    best = 0.0
    for _ in range(n_probes):
        probe = (rng.standard_normal(3), rng.standard_normal(3))
        vec = kp.constraint_vector(inst.phi1, inst.phi2, eg.e1, eg.F, probe)
        best = max(best, float(np.abs(vec).max()))
    return best


def test_constraints_detect_perturbation(instances):
    rng = np.random.default_rng(8)
    for name, inst in instances.items():
        low = np.inf
        for _ in range(5):
            F = inst.eg.F + 1e-3 * rng.standard_normal((3, 3))
            egp = EpipolarGeometry.from_F(F)
            low = min(low, _probe_response(inst, egp, rng))
        assert low > 1e-5, name


def test_classical_conic_identity(pair, conic, instances):
    cam1, cam2 = pair
    eg = fundamental(cam1, cam2)
    C1 = pc.quadratic_matrix(implicit_image_curve(conic, cam1).f)
    C2 = pc.quadratic_matrix(implicit_image_curve(conic, cam2).f)
    assert kp.classical_kruppa_residual(eg, C1, C2) < 1e-9
    # the generalized constraints agree with the matrix identity off the truth
    rng = np.random.default_rng(9)
    for _ in range(5):
        egp = EpipolarGeometry.from_F(eg.F + 1e-4 * rng.standard_normal((3, 3)))
        classical = kp.classical_kruppa_residual(egp, C1, C2)
        general = _probe_response(instances["conic"], egp, rng)
        assert (classical > 1e-6) == (general > 1e-6)


def test_solution_dimension_table(cams, conic, cubic, quintic):
    cam1, cam2 = cams[0], cams[1]
    eg = fundamental(cam1, cam2)
    cubic_b = preset_curve("twisted_cubic", 13)
    cases = [
        ([conic], 2, 5),
        ([cubic], 4, 3),
        ([conic, cubic], 6, 1),
        ([cubic, cubic_b], 8, 0),
        ([conic, quintic], 10, 0),
    ]
    rng = np.random.default_rng(12)
    for curves, sigma_m, want in cases:
        instances = [kp.build_instance(c, cam1, cam2) for c in curves]
        assert sum(i.m for i in instances) == sigma_m
        dim = kp.solution_dimension(instances, eg, rng=rng)
        assert dim == want, f"sigma_m={sigma_m}"


def test_quadric_degeneracy_at_six_and_seven(cams, quartic):
    # class six: a quadric always fits the baseline plus the six tangencies
    td = kp.tangency_points(quartic, cams[0], cams[1])
    assert td.expected == 6
    assert kp.quadric_degeneracy(td)
    # seven generic points defeat the count
    rng = np.random.default_rng(14)
    O1, O2 = cams[0].center, cams[1].center
    base = join_points(O1, O2)
    Q = rng.standard_normal((7, 4))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    td7 = kp.TangencyData(base, np.zeros(7), Q, np.zeros((7, 3)),
                          np.zeros((7, 3)), 7, 0)
    assert not kp.quadric_degeneracy(td7)


def test_tangency_points_lie_on_tangent_epipolar_planes(cams, cubic):
    td = kp.tangency_points(cubic, cams[0], cams[1])
    assert td.expected == 4
    # every tangency: the epipolar plane through the point contains the
    # tangent line of the curve there
    A, B = line_span_points(td.baseline)
    for L, Q in zip(cubic.tangent_lines(td.params), td.Q):
        plane = np.linalg.svd(np.stack([A, B, Q]))[2][-1]
        for X in line_span_points(L):
            assert abs(plane @ X) < 1e-7


def test_refine_epipolar_recovers_truth(cams, cubic):
    # two cubics give sum m = 8 > 7, so the solution set is zero dimensional
    # and the refined F must land back on the truth, not just on the variety
    cam1, cam2 = cams[0], cams[1]
    eg = fundamental(cam1, cam2)
    curves = (cubic, preset_curve("twisted_cubic", 13))
    instances = [kp.build_instance(c, cam1, cam2) for c in curves]
    rng = np.random.default_rng(15)
    start = EpipolarGeometry.from_F(eg.F + 1e-4 * rng.standard_normal((3, 3)))
    result = kp.refine_epipolar(start, instances, rng=rng)
    assert result.residual < 1e-9
    assert pc.proportionality_residual(result.eg.F.ravel(), eg.F.ravel()) < 1e-6


def test_probe_draw_restricts_each_accepted_probe_once(monkeypatch):
    # a conic and two twisted cubics, two probes each: six accepted probes of
    # two dual forms, so the draw restricts as often as one evaluation does
    ring = scenes.camera_ring(np.random.default_rng(5000), 8)
    curves = [preset_curve("conic", 11), preset_curve("twisted_cubic", 3),
              preset_curve("twisted_cubic", 13)]
    instances = [kp.build_instance(c, ring[0], ring[1]) for c in curves]
    calls = []
    restrict = pc.restrict_to_line
    monkeypatch.setattr(pc, "restrict_to_line", lambda *a: calls.append(a) or restrict(*a))
    _, func = kp._constraint_map(instances, fundamental(ring[0], ring[1]),
                                 np.random.default_rng(1234), 2)
    assert len(calls) == 12
    func(np.zeros(7))
    assert len(calls) == 24


def test_epipolar_chart_covers_truth(cams):
    eg = fundamental(cams[3], cams[4])
    chart = kp.epipolar_chart(eg)
    e1, F = chart(np.zeros(7))
    assert pc.proportionality_residual(F.ravel(), eg.F.ravel()) < 1e-12
    assert pc.proportionality_residual(e1, eg.e1) < 1e-12
    # moving the chart moves the geometry but keeps the epipolar identities
    theta = 1e-3 * np.ones(7)
    e1b, Fb = chart(theta)
    assert np.linalg.norm(Fb @ e1b) < 1e-9
    assert pc.proportionality_residual(Fb.ravel(), eg.F.ravel()) > 1e-5


def test_instance_rejects_mismatched_degrees(instances):
    a = instances["conic"]
    b = instances["cubic"]
    with pytest.raises(kp.KruppaError):
        kp.KruppaInstance(a.phi1, b.phi2, a.eg)
