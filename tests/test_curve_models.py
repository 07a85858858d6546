import numpy as np
import pytest

from curvemvg import curve_models as cm
from curvemvg import polycore as pc
from curvemvg.projective_cameras import Camera, GeometryError, incidence, point_line_matrix


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
        assert pc.proportionality_residual(cubic.point(th), row) < 1e-12


def test_tangent_line_touches_curve(cubic):
    # the tangent line passes through the point and follows the local motion
    th = 0.83
    L = cubic.tangent_line(th)
    P = cubic.point(th)
    assert np.linalg.norm(point_line_matrix(L.v) @ P) < 1e-10
    h = 1e-6
    Q = cubic.point(th + h)
    assert np.linalg.norm(point_line_matrix(L.v) @ Q) < 5e-6


def test_tangent_plane_pencil_contains_line(quintic):
    th = 1.21
    L = quintic.tangent_line(th)
    A, B = quintic.tangent_plane_pencil(th)
    P = quintic.point(th)
    for plane in (A, B):
        assert abs(plane @ P) < 1e-10
        # plane contains the whole tangent line
        from curvemvg.projective_cameras import line_span_points
        for X in line_span_points(L.v):
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
        p = cams[1].M @ curve.point(1.3)
        assert abs(ic.f(p / np.linalg.norm(p))) < 1e-8


def test_image_tangent_is_tangent(cams, cubic):
    th = 0.4
    l = cm.image_tangent(cubic, cams[0], th)
    p = cams[0].M @ cubic.point(th)
    assert abs(l @ p) < 1e-9 * np.linalg.norm(l) * np.linalg.norm(p)
    # second-order contact: nearby image points stay near the line
    h = 1e-5
    q = cams[0].M @ cubic.point(th + h)
    q /= np.linalg.norm(q)
    assert abs(l @ q) / np.linalg.norm(l) < 1e-8


def test_image_tangent_back_projects_to_tangent_plane(cams, cubic):
    # the plane of the image tangent line contains the space tangent line
    from curvemvg.projective_cameras import line_span_points
    th = 2.2
    l = cm.image_tangent(cubic, cams[0], th)
    plane = cams[0].M.T @ l
    for X in line_span_points(cubic.tangent_line(th).v):
        assert abs(plane @ X) < 1e-8


def _tangent_reference(curve, cam, th):
    # the per-parameter formula: projected point crossed with projected velocity
    return pc.sign_normalize(np.cross(cam.M @ curve.point(th), cam.M @ curve.velocity(th)))


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


def test_image_tangents_reject_a_degenerate_parameter(cubic):
    # a camera centered on the tangent line at th0 sees that tangent as a point
    th0 = 1.1
    X = cubic.point_at(np.cos(th0), np.sin(th0)) + 0.5 * cubic.velocity(th0)
    cam = Camera(np.linalg.svd(X[None, :])[2][1:])
    ths = np.array([0.3, th0, 2.5])
    cm.image_tangents(cubic, cam, ths[[0, 2]])
    with pytest.raises(GeometryError):
        cm.image_tangents(cubic, cam, ths)
    with pytest.raises(GeometryError):
        cm.image_tangent(cubic, cam, th0)


def test_separation_mask_is_cached_and_read_only():
    mask = cm._separated(240)
    assert mask is cm._separated(240)
    assert not mask.flags.writeable
    assert mask.shape == (240, 240) and not mask[0, 7] and mask[0, 8] and not mask[0, 233]
    with pytest.raises(ValueError):
        mask[0, 0] = True


def test_dual_image_curve_degree_and_vanishing(cams, conic, cubic):
    for curve in (conic, cubic):
        m = cm.class_of(curve.degree, 0)
        phi = cm.dual_image_curve(curve, cams[2])
        assert phi.degree == m
        for th in np.linspace(0.1, 2.9, 12):
            l = cm.image_tangent(curve, cams[2], th)
            assert abs(phi(l / np.linalg.norm(l))) < 1e-8


def test_dual_conic_is_adjugate(cams, conic):
    # for a conic the dual curve is the adjugate matrix form
    from curvemvg.projective_cameras import adjugate3
    ic = cm.implicit_image_curve(conic, cams[3])
    C = pc.quadratic_matrix(ic.f)
    phi = cm.dual_image_curve(conic, cams[3])
    D = pc.quadratic_matrix(phi)
    assert pc.proportionality_residual(D.ravel(), adjugate3(C).ravel()) < 1e-8


def test_find_nodes_matches_count(cams, cubic):
    ic = cm.implicit_image_curve(cubic, cams[0])
    nodes = cm.find_nodes(cubic, cams[0], ic)
    assert len(nodes) == cm.node_count(3, 0) == 1
    p, (th1, th2) = nodes[0]
    # both branches project to the node
    q1 = cams[0].M @ cubic.point(th1)
    q2 = cams[0].M @ cubic.point(th2)
    assert pc.proportionality_residual(q1, q2) < 1e-6
    assert abs(ic.f(p)) < 1e-8
