import warnings

import numpy as np
import pytest

from curvemvg import kruppa as kp
from curvemvg import polycore as pc
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
    for name, inst in instances.items():
        e1, F, V = kp.epipolar_chart(inst.eg)(np.zeros(7))
        vec = kp.constraint_vector(inst.phi1, inst.phi2, e1, F, tuple(V.T))
        assert np.abs(vec).max() < 1e-9, name
        assert vec.shape == (inst.m,)
        # the detection statistic is this vector's largest entry, with no draw
        assert kp.detection_response(inst) == np.abs(vec).max()


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


def test_detection_response_reacts_to_a_wrong_geometry(instances):
    # the pencil chart carries every condition a probe line does, so a
    # wrong geometry that some probe line sees is seen on the pencil too
    rng = np.random.default_rng(8)
    for name, inst in instances.items():
        for _ in range(5):
            egp = EpipolarGeometry.from_F(inst.eg.F + 1e-3 * rng.standard_normal((3, 3)))
            wrong = kp.KruppaInstance(inst.phi1, inst.phi2, egp)
            assert kp.detection_response(wrong) > 1e-5, name


def test_classical_conic_identity(pair, conic, instances):
    cam1, cam2 = pair
    eg = fundamental(cam1, cam2)
    C1 = pc.quadratic_matrix(implicit_image_curve(conic, cam1))
    C2 = pc.quadratic_matrix(implicit_image_curve(conic, cam2))
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
    for curves, sigma_m, want in cases:
        instances = [kp.build_instance(c, cam1, cam2) for c in curves]
        assert sum(i.m for i in instances) == sigma_m
        dim = kp.solution_dimension(instances, eg)
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
    td7 = kp.TangencyData(base, np.zeros(7), Q, 7)
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


def test_epipolar_chart_covers_truth(cams):
    eg = fundamental(cams[3], cams[4])
    chart = kp.epipolar_chart(eg)
    e1, F, V = chart(np.zeros(7))
    assert pc.proportionality_residual(F.ravel(), eg.F.ravel()) < 1e-12
    assert pc.proportionality_residual(e1, eg.e1) < 1e-12
    # moving the chart moves the geometry but keeps the epipolar identities,
    # and V stays an orthonormal basis of the pencil chart orthogonal to e1
    theta = 1e-3 * np.ones(7)
    e1b, Fb, Vb = chart(theta)
    assert np.linalg.norm(Fb @ e1b) < 1e-9
    for basis, e in ((V, e1), (Vb, e1b)):
        assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-12
        assert np.abs(e @ basis).max() < 1e-12
    assert pc.proportionality_residual(Fb.ravel(), eg.F.ravel()) > 1e-5


def test_instance_rejects_mismatched_degrees(instances):
    a = instances["conic"]
    b = instances["cubic"]
    with pytest.raises(kp.KruppaError):
        kp.KruppaInstance(a.phi1, b.phi2, a.eg)


@pytest.fixture(scope="module")
def rungs(pair, quintic):
    # a conic, a twisted cubic, the two together and a rational quartic, whose
    # class sums stay under the chart's 7 dimensions; then the quintic, over them
    conic, cubic = preset_curve("conic", 3), preset_curve("twisted_cubic", 5)
    ladder = [[conic], [cubic], [conic, cubic], [preset_curve("rational_quartic", 3)],
              [quintic]]
    return [[kp.build_instance(c, *pair) for c in curves] for curves in ladder]


def _probe_map(instances, eg, probe):
    # the same conditions on one probe line, another chart of each pencil,
    # with the pivots frozen at eg as the library freezes its own
    chart = kp.epipolar_chart(eg)
    pivots = [kp._restricted_pair(i.phi1, i.phi2, eg.e1, eg.F, probe)[3] for i in instances]

    def func(theta):
        e1, F, _ = chart(theta)
        return np.concatenate([kp.constraint_vector(i.phi1, i.phi2, e1, F, probe, k)
                               for i, k in zip(instances, pivots)])

    return func


@pytest.mark.parametrize("rung", range(4))
def test_constraint_jacobian_drops_its_null_directions_to_rounding(rungs, rung):
    # a probe line is another chart of each epipolar pencil, so its
    # conditions add no rank to the pencil map's: stacked, the exact Jacobian
    # keeps sum(m) singular values and drops the next one to rounding level
    # (central differences left it at 1e-11 to 8e-10 of the largest)
    instances = rungs[rung]
    eg = instances[0].eg
    probe = tuple(np.random.default_rng(rung).standard_normal((2, 3)))
    J = np.vstack([kp._jacobian(kp._constraint_map(instances, eg), np.zeros(7)),
                   kp._jacobian(_probe_map(instances, eg, probe), np.zeros(7))])
    s = np.linalg.svd(J, compute_uv=False)
    m = sum(i.m for i in instances)
    assert s[m - 1] > 1e-9 * s[0] and s[m] <= 1e-12 * s[0], (s[m - 1] / s[0], s[m] / s[0])


@pytest.mark.parametrize("seed", range(4))
def test_constraint_jacobian_agrees_with_differences_of_the_real_map(rungs, seed):
    # the complex step differentiates only an analytic map: a norm that takes
    # |x| instead of sqrt(x . x) in the chart, its pencil basis or the
    # restriction drops the imaginary part.  At the truth the constraints
    # vanish and each norm is stationary, so the map is also differentiated
    # at a seeded point off the truth
    off_truth = 1e-2 * np.random.default_rng(100 + seed).standard_normal(7)
    h = 1e-6
    for instances in rungs:
        func = kp._constraint_map(instances, instances[0].eg)
        for theta in (np.zeros(7), off_truth):
            J = kp._jacobian(func, theta)
            J_diff = np.stack([(func(theta + d) - func(theta - d)) / (2 * h)
                               for d in h * np.eye(7)], axis=1)
            assert np.abs(J - J_diff).max() <= 1e-6 * np.abs(J).max(), len(instances)


def test_constraint_map_takes_one_evaluation_per_chart_axis(cams, conic):
    # one complex evaluation per column, where central differences took two
    instances = [kp.build_instance(conic, cams[0], cams[1])]
    func = kp._constraint_map(instances, instances[0].eg)
    calls = []
    J = kp._jacobian(lambda t: calls.append(t) or func(t), np.zeros(7))
    assert len(calls) == 7 and J.shape == (instances[0].m, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_instance_rejects_a_non_finite_dual_form(instances, bad):
    # a NaN dual form used to pass: detection_response read max(0.0, nan) = 0.0
    a = instances["cubic"]
    coeffs = a.phi2.coeffs.copy()
    coeffs[2] = bad
    phi2 = pc.HomogeneousPolynomial(a.phi2.basis, coeffs)
    with pytest.raises(kp.KruppaError, match="non-finite"):
        kp.KruppaInstance(a.phi1, phi2, a.eg)
    with pytest.raises(kp.KruppaError, match="non-finite"):
        kp.KruppaInstance(phi2, a.phi1, a.eg)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_classical_residual_refuses_a_nan_conic(pair, conic, bad):
    # a NaN or inf conic on either side is refused before adjugate3 can warn
    eg = fundamental(*pair)
    C = pc.quadratic_matrix(implicit_image_curve(conic, pair[0]))
    C_bad = C.copy()
    C_bad[1, 2] = C_bad[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for C1, C2 in ((C_bad, C), (C, C_bad)):
            with pytest.raises(pc.PolynomialError, match="non-finite"):
                kp.classical_kruppa_residual(eg, C1, C2)
