import numpy as np
import pytest

from curvemvg import projective_cameras as pcam
from curvemvg.projective_cameras import (Camera, EpipolarGeometry, PluckerLine,
                                         fundamental)


def rng():
    return np.random.default_rng(101)


def assert_bit_equal(got, want):
    # np.array_equal reads -0.0 == +0.0; the sign bit of a zero steers
    # LAPACK's pivots, so it is compared too
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_join_meet_duality():
    r = rng()
    P, Q = r.standard_normal(4), r.standard_normal(4)
    L = pcam.join_points(P, Q)
    assert pcam.grassmann_residual(L) < 1e-12
    # the line comes back as the meet of two planes through it
    A, B = pcam.line_span_planes(L)
    M = pcam.meet_planes(A, B)
    from curvemvg.polycore import proportionality_residual
    assert proportionality_residual(L, M) < 1e-10


def test_incidence_iff_meeting():
    r = rng()
    P, Q, R = r.standard_normal(4), r.standard_normal(4), r.standard_normal(4)
    L1 = pcam.join_points(P, Q)
    L2 = pcam.join_points(P, R)       # shares the point P
    L3 = pcam.join_points(r.standard_normal(4), r.standard_normal(4))
    assert abs(pcam.incidence(L1, L2)) < 1e-12
    assert abs(pcam.incidence(L1, L3)) > 1e-6
    assert abs(pcam.incidence(L1, L1)) < 1e-12   # Grassmann relation


def test_plucker_line_validation():
    bad = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])   # violates the quadric
    with pytest.raises(pcam.GeometryError):
        PluckerLine(bad)
    r = rng()
    L = PluckerLine(pcam.join_points(r.standard_normal(4), r.standard_normal(4)))
    assert abs(np.linalg.norm(L.v) - 1.0) < 1e-12


def test_point_line_matrix_kernel():
    r = rng()
    P, Q = r.standard_normal(4), r.standard_normal(4)
    L = pcam.join_points(P, Q)
    W = pcam.point_line_matrix(L)
    assert np.linalg.norm(W @ P) < 1e-10
    assert np.linalg.norm(W @ Q) < 1e-10
    assert np.linalg.norm(W @ r.standard_normal(4)) > 1e-6


def test_camera_center_and_ray():
    r = rng()
    cam = Camera(r.standard_normal((3, 4)))
    assert np.linalg.norm(cam.M @ cam.center) < 1e-10
    p = r.standard_normal(3)
    ray = PluckerLine(cam.ray_matrix @ p).v
    # the ray passes through the center and reprojects to p
    assert abs(np.linalg.norm(pcam.point_line_matrix(ray) @ cam.center)) < 1e-10
    P0, Q0 = pcam.line_span_points(ray)
    for X in (P0, Q0):
        q = cam.M @ X
        if np.linalg.norm(q) > 1e-8:
            from curvemvg.polycore import proportionality_residual
            assert proportionality_residual(q, p) < 1e-8


def test_ray_matrix_inverts_projection():
    r = rng()
    cam = Camera(r.standard_normal((3, 4)))
    X = r.standard_normal(4)
    p = cam.M @ X
    L = cam.ray_matrix @ p
    # the back-projected line contains X
    assert np.linalg.norm(pcam.point_line_matrix(L) @ X) < 1e-9 * np.linalg.norm(L)


def test_line_image_consistency():
    r = rng()
    cam = Camera(r.standard_normal((3, 4)))
    P, Q = r.standard_normal(4), r.standard_normal(4)
    L = pcam.join_points(P, Q)
    l = cam.line_matrix @ L
    l /= np.linalg.norm(l)
    for X in (P, Q):
        assert abs(l @ (cam.M @ X)) < 1e-9


def test_fundamental_rank_and_epipoles(cams):
    for i in range(3):
        eg = fundamental(cams[i], cams[i + 1])
        s = np.linalg.svd(eg.F, compute_uv=False)
        assert s[2] / s[0] < 1e-12
        assert np.linalg.norm(eg.F @ eg.e1) < 1e-10
        assert np.linalg.norm(eg.e2 @ eg.F) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["F", "e1", "e2", "from_F"])
def test_epipolar_geometry_rejects_non_finite_entries(cams, entry, bad):
    # a NaN or an inf in F reached numpy's SVD as LinAlgError, and a NaN
    # epipole was kept: its kernel check read nan > 1e-7 as False
    eg = fundamental(cams[0], cams[1])
    F, e1, e2 = eg.F.copy(), eg.e1.copy(), eg.e2.copy()
    {"F": F, "e1": e1, "e2": e2, "from_F": F}[entry][1] = bad
    with pytest.raises(pcam.GeometryError, match="non-finite"):
        if entry == "from_F":
            EpipolarGeometry.from_F(F)
        else:
            EpipolarGeometry(F, e1, e2)


def test_fundamental_matches_point_correspondences(cams):
    r = rng()
    eg = fundamental(cams[0], cams[1])
    for _ in range(10):
        X = r.standard_normal(4)
        p1, p2 = cams[0].M @ X, cams[1].M @ X
        assert abs(p2 @ eg.F @ p1) < 1e-10


def test_epipolar_line_through_correspondence(cams):
    r = rng()
    eg = fundamental(cams[0], cams[1])
    X = r.standard_normal(4)
    l2 = eg.F @ (cams[0].M @ X)
    assert abs(l2 @ (cams[1].M @ X)) < 1e-10


def test_triangulate_round_trip(cams):
    r = rng()
    from curvemvg.polycore import proportionality_residual
    X = r.standard_normal(4)
    rays = np.stack([cam.rays(cam.project(X)) for cam in cams[:2]])
    Y = pcam.triangulate(rays)
    assert Y.shape == (4,)
    assert proportionality_residual(X, Y) < 1e-8


def test_triangulate_complex_conjugate_points(cams):
    # the epipolar sweep meets the rays of complex image points; the point-line
    # rows of complex rays are complex, so the point comes back up to phase
    r = rng()
    X = r.standard_normal(4) + 1j * r.standard_normal(4)
    Y = pcam.triangulate(np.stack([cam.rays(cam.project(X)) for cam in cams[:2]]))
    assert np.iscomplexobj(Y)
    assert pcam.cosine_similarity(X, Y) == pytest.approx(1.0, abs=1e-12)


def test_camera_center_is_the_null_vector_of_its_svd(cams):
    for cam in cams:
        want = pcam.sign_normalize(np.linalg.svd(cam.M)[2][-1])
        assert np.array_equal(cam.center, want)


def test_ray_matrix_matches_meet_planes(cams):
    for cam in cams:
        gamma, lam, theta = cam.M
        want = np.stack([pcam.meet_planes(lam, theta), pcam.meet_planes(theta, gamma),
                         pcam.meet_planes(gamma, lam)], axis=1)
        assert_bit_equal(cam.ray_matrix, want)
        assert_bit_equal(cam.line_matrix, pcam.swap_blocks(want.T))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_camera_center_survives_extreme_scale(cams, scale):
    for cam in cams:
        assert np.abs(Camera(scale * cam.M).center - cam.center).max() <= 1e-15


def test_pose_rotation_check_matches_allclose():
    r = rng()
    Q = np.linalg.qr(r.standard_normal((3, 3)))[0]
    Q *= np.sign(np.linalg.det(Q))
    for eps in (0.0, 1e-10, 3e-9, 1e-8, 3e-6, 1e-5, 1e-4):
        R = Q + eps * r.standard_normal((3, 3))
        ok = np.allclose(R @ R.T, np.eye(3), atol=1e-8)
        if ok:
            Camera.from_parameters(1.0, 1.0, 0.0, 0.0, 0.0, R, np.ones(3))
        else:
            with pytest.raises(pcam.GeometryError):
                Camera.from_parameters(1.0, 1.0, 0.0, 0.0, 0.0, R, np.ones(3))


def test_camera_rank_check_matches_matrix_rank():
    r = rng()
    M = r.standard_normal((3, 4))
    for bad in (np.zeros((3, 4)), np.vstack([M[:2], M[0] + 2.0 * M[1]]),
                np.outer(M[:, 0], M[0])):
        assert np.linalg.matrix_rank(bad) < 3
        with pytest.raises(pcam.GeometryError):
            Camera(bad)


def _camera_with(bad):
    M = rng().standard_normal((3, 4))
    M[1, 2] = bad
    return Camera(M)


def _stack_with(bad):
    M = rng().standard_normal((2, 3, 4))
    M[1, 1, 2] = bad
    return Camera.stack(M)


def _line_with(bad):
    L = pcam.join_points(*rng().standard_normal((2, 4)))
    L[4] = bad
    return PluckerLine(L)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [_camera_with, _stack_with, _line_with])
def test_constructors_reject_non_finite_entries(make, bad):
    # numpy's SVD used to raise LinAlgError on a camera, and PluckerLine took a NaN
    with pytest.raises(pcam.GeometryError, match="non-finite"):
        make(bad)


def test_adjugate3():
    r = rng()
    A = r.standard_normal((3, 3))
    assert np.allclose(pcam.adjugate3(A) @ A, np.linalg.det(A) * np.eye(3),
                       atol=1e-10)


def test_point_line_matrix_rows_match_one_row_calls():
    r = rng()
    lines = pcam.join_points(r.standard_normal((12, 4)), r.standard_normal((12, 4)))
    got = pcam.point_line_matrix(lines)
    assert got.shape == (12, 4, 4)
    assert_bit_equal(got, np.stack([pcam.point_line_matrix(L) for L in lines]))
    # the zeros are +0.0 whatever the signs of the coordinates
    assert not np.signbit(np.diagonal(got, axis1=1, axis2=2)).any()


@pytest.mark.parametrize("span", ["line_span_planes", "line_span_points"])
def test_line_spans_of_a_stack_equal_one_line_calls(span):
    r = rng()
    lines = pcam.join_points(r.standard_normal((3, 4)), r.standard_normal((3, 4)))
    fn = getattr(pcam, span)
    A, B = fn(lines)
    assert A.shape == B.shape == (3, 4)
    for k, L in enumerate(lines):
        a, b = fn(L)
        assert_bit_equal(A[k], a)
        assert_bit_equal(B[k], b)
    lines[1] = np.zeros(6)
    with pytest.raises(pcam.GeometryError):
        fn(lines)


@pytest.mark.parametrize("name", ["join_points", "meet_planes", "swap_blocks",
                                  "grassmann_residual", "incidence", "plucker_matrix"])
def test_line_function_rows_match_one_row_calls(name):
    r = rng()
    P, Q = r.standard_normal((2, 9, 4))
    lines = pcam.join_points(P, Q)
    args = {"join_points": (P, Q), "meet_planes": (P, Q), "swap_blocks": (lines,),
            "grassmann_residual": (lines,), "plucker_matrix": (lines,),
            "incidence": (lines, lines[::-1])}[name]
    fn = getattr(pcam, name)
    batch = fn(*args)
    assert len(batch) == 9
    for k in range(9):
        assert_bit_equal(batch[k], fn(*(a[k] for a in args)))


def test_plucker_pairs_fix_the_coordinate_order():
    assert pcam.PLUCKER_PAIRS == ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    r = rng()
    P, Q = r.standard_normal(4), r.standard_normal(4)
    want = [P[i] * Q[j] - Q[i] * P[j] for i, j in pcam.PLUCKER_PAIRS]
    assert_bit_equal(pcam.join_points(P, Q), want)
    assert_bit_equal(pcam.meet_planes(P, Q), pcam.swap_blocks(want))
    W = pcam.plucker_matrix(want)
    for k, (i, j) in enumerate(pcam.PLUCKER_PAIRS):
        assert W[i, j] == want[k] and W[j, i] == -want[k]


_GOOD_LINE = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_MALFORMED = {
    "join_points: 3-vectors": lambda: pcam.join_points(np.ones(3), np.arange(3.0)),
    "join_points: scalars": lambda: pcam.join_points(1.0, 2.0),
    "meet_planes: 5-vectors": lambda: pcam.meet_planes(np.ones(5), np.arange(5.0)),
    "swap_blocks: 5-vector": lambda: pcam.swap_blocks(np.ones(5)),
    "incidence: 5-vectors": lambda: pcam.incidence(np.ones(5), np.ones(5)),
    "incidence: first a 5-vector": lambda: pcam.incidence(np.ones(5), _GOOD_LINE),
    "grassmann_residual: 5-vector": lambda: pcam.grassmann_residual(np.ones(5)),
    "plucker_matrix: 5-vector": lambda: pcam.plucker_matrix(np.ones(5)),
    "point_line_matrix: 7-vector": lambda: pcam.point_line_matrix(np.ones(7)),
    "line_span_points: 5-vector": lambda: pcam.line_span_points(np.ones(5)),
    "line_span_planes: 5-vector": lambda: pcam.line_span_planes(np.ones(5)),
    "PluckerLine: 5-vector": lambda: PluckerLine(np.ones(5)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_line_input_raises_geometry_error(case):
    with pytest.raises(pcam.GeometryError):
        _MALFORMED[case]()


def test_camera_stack_is_bit_equal_to_one_camera_at_a_time():
    r = rng()
    Ms = r.standard_normal((7, 3, 4)) * np.exp2(r.integers(-40, 40, 7))[:, None, None]
    for cam, M in zip(Camera.stack(Ms), Ms):
        one = Camera(M)
        assert np.array_equal(cam.M, one.M)
        assert np.array_equal(cam.center, one.center)
        assert np.array_equal(cam.ray_matrix, one.ray_matrix)
    assert Camera.stack(np.zeros((0, 3, 4))) == []
    bad = Ms.copy()
    bad[3, 2] = bad[3, 0] + 2.0 * bad[3, 1]
    with pytest.raises(pcam.GeometryError, match="rank 3"):
        Camera.stack(bad)
    with pytest.raises(pcam.GeometryError, match="3x4"):
        Camera.stack(Ms[0])


def test_from_parameters_is_the_posed_matrix():
    r = rng()
    Q = np.linalg.qr(r.standard_normal((3, 3)))[0]
    Q *= np.sign(np.linalg.det(Q))
    t = r.standard_normal(3)
    K = np.array([[1.2, 0.03, 0.1], [0.0, 1.2 * 0.95, -0.07], [0.0, 0.0, 1.0]])
    cam = Camera.from_parameters(1.2, 0.95, 0.03, 0.1, -0.07, Q, t)
    assert np.array_equal(cam.M, Camera(K @ np.hstack([Q, t[:, None]])).M)
