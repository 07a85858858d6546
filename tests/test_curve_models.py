from fractions import Fraction

import numpy as np
import pytest

from curvemvg import curve_models as cm
from curvemvg import polycore as pc
from curvemvg.projective_cameras import (PLUCKER_PAIRS, Camera, GeometryError, incidence,
                                         join_points, line_span_planes, line_span_points,
                                         point_line_matrix)


def test_class_and_node_counts():
    assert cm.class_of(2, 0) == 2
    assert cm.class_of(3, 0) == 4
    assert cm.class_of(4, 0) == 6
    assert cm.class_of(5, 0) == 8
    assert cm.class_of(3, 1) == 6
    assert cm.node_count(3, 0) == 1
    assert cm.node_count(4, 0) == 3
    assert cm.node_count(5, 0) == 6


def test_preset_degrees(conic, cubic, quartic, quintic):
    for curve, d in [(conic, 2), (cubic, 3), (quartic, 4), (quintic, 5)]:
        assert curve.degree == d
        assert curve.genus == 0


def test_unknown_preset_rejected():
    with pytest.raises(cm.CurveModelError):
        cm.preset_curve("lemniscate", 1)


def test_rank_deficient_coefficients_rejected():
    C = np.zeros((4, 4))
    C[0] = [1.0, 0.0, 0.0, 1.0]
    with pytest.raises(cm.CurveModelError):
        cm.RationalCurve3D(C)


def test_point_matches_batch(cubic):
    ths = np.linspace(0.2, 2.8, 7)
    batch = cubic.points(ths)
    for th, row in zip(ths, batch):
        assert pc.proportionality_residual(cubic.C @ cm._binary_monomials(th, 3), row) < 1e-12


def test_tangent_line_touches_curve(cubic):
    # the tangent line passes through the point and follows the local motion
    th, h = 0.83, 1e-6
    L = cubic.tangent_lines([th])[0]
    L /= np.linalg.norm(L)
    P, Q = cubic.points([th, th + h])
    assert np.linalg.norm(point_line_matrix(L) @ P) < 1e-10
    assert np.linalg.norm(point_line_matrix(L) @ Q) < 5e-6


def test_tangent_plane_pencil_contains_line(quintic):
    th = 1.21
    L = quintic.tangent_lines([th])[0]
    A, B = line_span_planes(L)
    P = quintic.points([th])[0]
    for plane in (A, B):
        assert abs(plane @ P) < 1e-10
        # plane contains the whole tangent line
        for X in line_span_points(L):
            assert abs(plane @ X) < 1e-10


def test_implicit_image_curve_vanishes(cams, cubic):
    ic = cm.implicit_image_curve(cubic, cams[0])
    assert ic.degree == 3
    held = cubic.points(np.linspace(0.05, 3.0, 50)) @ cams[0].M.T
    held /= np.linalg.norm(held, axis=1, keepdims=True)
    assert max(abs(ic.f(p)) for p in held) < 1e-9
    off = np.array([0.3, -0.5, 0.81])
    assert abs(ic.f(off / np.linalg.norm(off))) > 1e-6


def test_implicit_image_curve_all_presets(cams, conic, quartic, quintic):
    for curve in (conic, quartic, quintic):
        ic = cm.implicit_image_curve(curve, cams[1])
        assert ic.degree == curve.degree
        p = cams[1].M @ curve.points([1.3])[0]
        assert abs(ic.f(p / np.linalg.norm(p))) < 1e-8


def test_image_tangent_is_tangent(cams, cubic):
    th, h = 0.4, 1e-5
    l = cm.image_tangent(cubic, cams[0], th)
    p, q = cubic.points([th, th + h]) @ cams[0].M.T
    assert abs(l @ p) < 1e-9 * np.linalg.norm(l) * np.linalg.norm(p)
    # second-order contact: nearby image points stay near the line
    q /= np.linalg.norm(q)
    assert abs(l @ q) / np.linalg.norm(l) < 1e-8


def test_image_tangent_back_projects_to_tangent_plane(cams, cubic):
    # the plane of the image tangent line contains the space tangent line
    th = 2.2
    l = cm.image_tangent(cubic, cams[0], th)
    plane = cams[0].M.T @ l
    for X in line_span_points(cubic.tangent_lines([th])[0]):
        assert abs(plane @ X) < 1e-8


def _tangent_reference(curve, cam, th):
    # the per-parameter formula: projected point crossed with projected velocity
    p, v = np.concatenate([curve.points([th]), curve.velocity([th])]) @ cam.M.T
    return pc.sign_normalize(np.cross(p, v))


@pytest.mark.parametrize("name", ["conic", "cubic", "quintic"])
def test_image_tangents_match_per_parameter_rows(request, cams, name):
    curve = request.getfixturevalue(name)
    ths = np.linspace(0.05, 3.1, 23)
    batch = cm.image_tangents(curve, cams[4], ths)
    assert batch.shape == (len(ths), 3)
    single = np.stack([cm.image_tangent(curve, cams[4], th) for th in ths])
    reference = np.stack([_tangent_reference(curve, cams[4], th) for th in ths])
    assert np.abs(batch - single).max() < 1e-14
    assert np.abs(batch - reference).max() < 1e-14


def _exact_tangent_form(curve, pairs=((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))):
    # X_t ^ X_s convolved pair by pair in exact rational arithmetic from the
    # rebuilt partial matrices, each coefficient rounded once
    d = curve.degree
    Et, Es = np.zeros((d + 1, d)), np.zeros((d + 1, d))
    for k in range(d):
        Et[k, k], Es[k + 1, k] = d - k, k + 1
    Ct, Cs = [[[Fraction(x) for x in row] for row in curve.C @ E] for E in (Et, Es)]
    return np.array([[float(sum((Ct[i][a] * Cs[j][k - a] - Ct[j][a] * Cs[i][k - a]
                                 for a in range(max(0, k - d + 1), min(d, k + 1))), Fraction(0)))
                      for k in range(2 * d - 1)]
                     for i, j in pairs])


def _tangents_by_the_power_tensor(curve, cam, thetas):
    # the image tangent as the line map of the tangent form, written out: the
    # exactly rounded form, a fresh power table of degree 2d-2, row-by-row
    # products
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    d = curve.degree
    form = _exact_tangent_form(curve)
    ks = np.arange(2 * d - 1)
    mono = np.cos(th)[:, None] ** (2 * d - 2 - ks) * np.sin(th)[:, None] ** ks
    L = np.vecdot(mono[:, None, :], form)
    l = np.vecdot(L[:, None, :], cam.line_matrix)
    l = l / np.sqrt((l * l).sum(axis=1))[:, None]
    lead = l[np.arange(len(l)), np.argmax(np.abs(l) > 1e-12, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)[:, None] * l


@pytest.mark.parametrize("name", ["conic", "cubic", "quartic", "quintic"])
def test_tangent_form_reads_the_plucker_pair_order(request, name):
    # row k of the form is the exact p_ij of PLUCKER_PAIRS[k], sign bits included
    curve = request.getfixturevalue(name)
    want = _exact_tangent_form(curve, PLUCKER_PAIRS)
    assert np.array_equal(curve.tangent_form, want)
    assert np.array_equal(np.signbit(curve.tangent_form), np.signbit(want))


@pytest.mark.parametrize("name", ["conic", "cubic", "quartic", "quintic"])
def test_image_tangents_are_bit_equal_to_the_power_tensor_formula(request, cams, name):
    curve = request.getfixturevalue(name)
    ths = np.concatenate([cm._sample_thetas(40), np.random.default_rng(2).uniform(0, np.pi, 40)])
    assert np.array_equal(curve.tangent_form, _exact_tangent_form(curve))
    for cam in cams[:4]:
        batch = cm.image_tangents(curve, cam, ths)
        assert np.array_equal(batch, _tangents_by_the_power_tensor(curve, cam, ths))
        for th, row in zip(ths[::7], batch[::7]):
            assert np.array_equal(cm.image_tangent(curve, cam, th), row)


def _tangent_in_40_digits(mp, curve, cam, th):
    # projected point crossed with projected velocity, from the float inputs
    t, s = mp.cos(mp.mpf(th)), mp.sin(mp.mpf(th))
    d = curve.degree
    X = [mp.mpf(0)] * 4
    V = [mp.mpf(0)] * 4
    for k in range(d + 1):
        m, dm = t ** (d - k) * s ** k, -(d - k) * t ** max(d - k - 1, 0) * s ** (k + 1)
        dm += k * t ** (d - k + 1) * s ** max(k - 1, 0)
        for i in range(4):
            X[i] += mp.mpf(curve.C[i, k]) * m
            V[i] += mp.mpf(curve.C[i, k]) * dm
    p = [mp.fsum(mp.mpf(cam.M[r, i]) * X[i] for i in range(4)) for r in range(3)]
    v = [mp.fsum(mp.mpf(cam.M[r, i]) * V[i] for i in range(4)) for r in range(3)]
    l = [p[1] * v[2] - p[2] * v[1], p[2] * v[0] - p[0] * v[2], p[0] * v[1] - p[1] * v[0]]
    n = mp.sqrt(mp.fsum(x * x for x in l))
    lead = next(x for x in l if abs(x) > 1e-12 * n)
    return np.array([float(x / n if lead > 0 else -x / n) for x in l])


def test_image_tangents_are_accurate_against_40_digits(cams, conic, cubic, quartic, quintic):
    # the line map loses digits on a tangent that passes near the center, so
    # each coefficient of the form is rounded once from its exact value: with
    # the form convolved in double the quintic reads 2.7e-14 here, the point
    # x velocity formula 1.1e-14
    mpmath = pytest.importorskip("mpmath")
    ths = np.concatenate([cm._sample_thetas(40), np.random.default_rng(2).uniform(0, np.pi, 40)])
    with mpmath.workdps(40):
        for curve in (conic, cubic, quartic, quintic):
            for cam in cams[:4]:
                ref = np.stack([_tangent_in_40_digits(mpmath.mp, curve, cam, th) for th in ths])
                assert np.abs(cm.image_tangents(curve, cam, ths) - ref).max() < 1e-14


def test_partial_matrices_are_computed_once_and_read_only(quartic):
    Ct, Cs = quartic._partials
    assert Ct.shape == Cs.shape == (4, 4) and not Ct.flags.writeable
    # d/dt and d/ds of t^4 and s^4: columns 4 t^3 and 4 s^3
    assert np.array_equal(Ct[:, 0], 4 * quartic.C[:, 0])
    assert np.array_equal(Cs[:, 3], 4 * quartic.C[:, 4])


def test_tangent_form_is_computed_once_and_read_only(quartic):
    T = quartic.tangent_form
    assert quartic.tangent_form is T
    assert T.shape == (6, 7) and not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0] = 1.0


@pytest.mark.parametrize("name", ["conic", "cubic", "quartic", "quintic"])
def test_tangent_form_is_the_join_of_the_partials(request, name):
    curve = request.getfixturevalue(name)
    d = curve.degree
    Ct, Cs = curve.C @ cm._derivative_shifts(d)
    ths = np.linspace(0.05, 3.1, 17)
    m = cm._binary_monomials(ths, d - 1)
    ref = join_points(m @ Ct.T, m @ Cs.T)
    err = np.abs(curve.tangent_lines(ths) - ref).max(axis=1)
    assert np.all(err < 1e-14 * np.linalg.norm(ref, axis=1))


def _rejects(curve, cam, th0):
    ths = np.array([0.3, th0, 2.5])
    cm.image_tangents(curve, cam, ths[[0, 2]])
    with pytest.raises(GeometryError):
        cm.image_tangents(curve, cam, ths)
    with pytest.raises(GeometryError):
        cm.image_tangent(curve, cam, th0)


def test_image_tangents_reject_a_degenerate_parameter(cubic):
    # a camera centered on the tangent line at th0 sees that tangent as a point
    th0 = 1.1
    X = cubic.C @ cm._binary_monomials(th0, 3)
    _rejects(cubic, Camera(np.linalg.svd(X + 0.5 * cubic.velocity([th0]))[2][1:]), th0)
    # so does a camera centered on the curve point itself
    _rejects(cubic, Camera(np.linalg.svd(X[None, :])[2][1:]), th0)


def test_separation_mask_is_cached_and_read_only():
    mask = cm._separated(240)
    assert mask is cm._separated(240)
    assert not mask.flags.writeable
    assert mask.shape == (240, 240) and not mask[0, 7] and mask[0, 8] and not mask[0, 233]
    with pytest.raises(ValueError):
        mask[0, 0] = True


def _injective_by_gather(curve, n=240):
    # the injectivity verdict as a boolean gather of the separated pairs
    P = curve.points(cm._sample_thetas(n))
    return not np.any(np.abs(P @ P.T)[cm._separated(n)] > 1.0 - 1e-8)


def _nodal_quartic():
    # C m(th1) = lam C m(th2): two grid parameters 60 steps apart share a point
    th = cm._sample_thetas(240)
    null = cm._binary_monomials(th[30], 4) - 0.7 * cm._binary_monomials(th[90], 4)
    R = np.random.default_rng(4).standard_normal((4, 5))
    return cm.RationalCurve3D(R - np.outer(R @ null, null) / (null @ null))


@pytest.mark.parametrize("name", cm.PRESET_NAMES)
def test_genericity_verdict_matches_the_gather_form(name):
    for seed in range(100):
        curve = cm.preset_curve(name, seed)
        assert cm._is_generic(curve) == _injective_by_gather(curve) is True


def test_a_nodal_quartic_is_not_generic():
    curve = _nodal_quartic()
    P = curve.points(cm._sample_thetas(240))
    assert pc.proportionality_residual(P[30], P[90]) < 1e-12
    assert not _injective_by_gather(curve)
    assert not cm._is_generic(curve)


def test_dual_image_curve_degree_and_vanishing(cams, conic, cubic):
    for curve in (conic, cubic):
        m = cm.class_of(curve.degree, 0)
        phi = cm.fit_dual_image_curve(curve, cams[2])[0]
        assert phi.degree == m
        for th in np.linspace(0.1, 2.9, 12):
            l = cm.image_tangent(curve, cams[2], th)
            assert abs(phi(l / np.linalg.norm(l))) < 1e-8


def test_dual_conic_is_adjugate(cams, conic):
    # for a conic the dual curve is the adjugate matrix form
    from curvemvg.projective_cameras import adjugate3
    ic = cm.implicit_image_curve(conic, cams[3])
    C = pc.quadratic_matrix(ic.f)
    phi = cm.fit_dual_image_curve(conic, cams[3])[0]
    D = pc.quadratic_matrix(phi)
    assert pc.proportionality_residual(D.ravel(), adjugate3(C).ravel()) < 1e-8


def test_find_nodes_matches_count(cams, cubic):
    ic = cm.implicit_image_curve(cubic, cams[0])
    nodes = cm.find_nodes(cubic, cams[0], ic)
    assert len(nodes) == cm.node_count(3, 0) == 1
    p, (th1, th2) = nodes[0]
    # both branches project to the node
    q1, q2 = cubic.points([th1, th2]) @ cams[0].M.T
    assert pc.proportionality_residual(q1, q2) < 1e-6
    assert abs(ic.f(p)) < 1e-8
