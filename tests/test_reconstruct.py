"""Curve reconstruction: epipolar sweep, dual surface, Chow form."""
import math
import warnings

import numpy as np
import pytest

from curvemvg import polycore as pc
from curvemvg import reconstruct as rc
from curvemvg import scenes
from curvemvg.curve_models import implicit_image_curve, image_tangent, preset_curve, _sample_thetas
from curvemvg.projective_cameras import (Camera, cross_matrix, fundamental, incidence,
                                         join_points, line_span_planes)
from curvemvg.scenes import lines_missing_points


def _tangent_views(curve, cams, n_lines):
    views = []
    for i, cam in enumerate(cams):
        thetas = _sample_thetas(n_lines, offset=0.11 * (i + 1))
        lines = np.stack([image_tangent(curve, cam, th) for th in thetas])
        views.append((cam, lines))
    return views


def _point_views(curve, cams, n_pts):
    views = []
    for cam in cams:
        pts = curve.points(_sample_thetas(n_pts, offset=0.31)) @ cam.M.T
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        views.append((cam, pts))
    return views


def test_cone_vanishes_on_curve(cams, cubic):
    ic = implicit_image_curve(cubic, cams[0])
    K = rc.cone(ic, cams[0])
    for P in cubic.points(_sample_thetas(25)):
        assert abs(K(P)) < 1e-10
    assert abs(K(cams[0].center)) < 1e-10
    rng = np.random.default_rng(3)
    off = rng.standard_normal(4)
    assert abs(K(off / np.linalg.norm(off))) > 1e-4


@pytest.mark.parametrize("name,seed", [("conic", 11), ("twisted_cubic", 3)])
def test_epipolar_sweep_splits_components(cams, name, seed):
    curve = preset_curve(name, seed)
    d = curve.degree
    f1 = implicit_image_curve(curve, cams[0])
    f2 = implicit_image_curve(curve, cams[1])
    checks = [(implicit_image_curve(curve, c), c) for c in cams[2:4]]
    split = rc.epipolar_sweep(f1, f2, cams[0], cams[1], n_planes=60,
                              check_views=checks)
    assert len(split.planes) + split.skipped == 60
    assert len(split.planes) >= 50
    for n_true, n_ext in split.per_plane_counts:
        assert n_true + n_ext == d * d
        assert n_true == d
        assert n_ext == d * (d - 1)
    # the two components are cleanly separated by the check residual
    true_res = split.residuals[split.is_true].max()
    ext_res = split.residuals[~split.is_true].min()
    assert true_res < 1e-8
    assert ext_res > 1e-6
    assert ext_res > 1e3 * true_res


def _cross_matrix_sweep(f1, f2, cam1, cam2, n_planes, check_views):
    # the sweep one plane, one pair and one candidate at a time, each pair met
    # by the two-view cross-matrix triangulation [p]_x M (Hartley & Zisserman,
    # sec. 12.2), on the sweep's image lines: the roots on a line amplify any
    # last-bit change of it far beyond what the triangulation adds.  The
    # pencil is the closed-form one of the epipolar geometry (ch. 9): line k
    # of view 1 turns about e1 from an axis orthogonal to it, view 2 takes
    # F p1 for the point p1 = l1 x e1, and each line is spanned by its
    # epipole and the unit point on it orthogonal to the epipole, with the
    # sweep's bits.  Per kept plane: (plane, candidates, labels), and the
    # skip count
    eg = fundamental(cam1, cam2)
    axis = np.zeros(3)
    axis[np.argmin(np.abs(eg.e1))] = 1.0
    x = np.cross(eg.e1, axis)
    x = x / np.linalg.norm(x)
    y = np.cross(eg.e1, x)
    alphas = _sample_thetas(n_planes)
    kept, skipped = [], 0
    for c, s in zip(np.cos(alphas), np.sin(alphas)):
        l1 = c * x + s * y
        p1 = s * x - c * y           # l1 x e1
        p2 = np.cross(np.vecdot(eg.F, p1), eg.e2)
        plane = np.vecdot(cam1.M.T, l1)
        plane = plane / np.linalg.norm(plane)
        pts, seps = [], []
        for f, A, B in ((f1, eg.e1, p1), (f2, eg.e2, p2 / np.linalg.norm(p2))):
            roots, sep = pc._binary_roots(pc.restrict_to_line(f, A, B).coeffs)
            pts.append(roots[:, :1] * A + roots[:, 1:] * B)
            seps.append(sep)
        if min(seps) < 1e-7:
            skipped += 1
            continue
        cands = []
        for p1 in pts[0]:
            for p2 in pts[1]:
                rows = np.vstack([cross_matrix(p1) @ cam1.M, cross_matrix(p2) @ cam2.M])
                cands.append(np.linalg.svd(rows)[2][-1].conj())
        cands = np.array(cands)
        res = np.zeros(len(cands))
        for g, cam in check_views:
            q = cands @ cam.M.T
            res = np.maximum(res, np.abs(g(q / np.linalg.norm(q, axis=1, keepdims=True))))
        kept.append((plane, cands, res <= 1e-8))
    return kept, skipped


@pytest.mark.parametrize("name", ["conic", "cubic", "quartic", "quintic"])
def test_epipolar_sweep_matches_the_cross_matrix_triangulation(cams, name, request):
    # one batched ray-meet call gives the points of the pair-by-pair
    # cross-matrix route up to phase, with the same labels on the same planes
    curve = request.getfixturevalue(name)
    f = [implicit_image_curve(curve, c) for c in cams[:4]]
    checks = list(zip(f[2:], cams[2:4]))
    split = rc.epipolar_sweep(f[0], f[1], cams[0], cams[1], n_planes=60, check_views=checks)
    want, skipped = _cross_matrix_sweep(f[0], f[1], cams[0], cams[1], 60, checks)
    assert split.skipped == skipped
    assert len(split.planes) == len(want)
    assert split.per_plane_counts == [(int(t.sum()), int((~t).sum())) for _, _, t in want]
    for got_plane, got_points, got_true, (plane, cands, is_true) in zip(
            split.planes, split.points, split.is_true, want):
        assert np.array_equal(got_plane, plane)
        assert np.array_equal(got_true, is_true)
        # both sides unit; rotate each reference point onto its candidate
        inner = np.sum(cands.conj() * got_points, axis=1)
        assert np.abs(cands * (inner / np.abs(inner))[:, None] - got_points).max() <= 1e-12


def _epipole_at_infinity_pair(cams):
    # cams[0] and a camera 4 units to its side on its principal plane,
    # looking at the origin: the first view's epipole M1 O2 lies at infinity
    cam1 = cams[0]
    side = np.cross(cam1.M[2, :3], [0.0, 0.0, 1.0])
    C = cam1.center[:3] / cam1.center[3] + 4.0 * side / np.linalg.norm(side)
    R = scenes.look_at_rotation(C, np.zeros(3), [0.0, 0.0, 1.0])
    return cam1, Camera.from_parameters(1.2, 1.0, 0.0, 0.0, 0.0, R, -R @ C)


def _sweep(curve, cam1, cam2, checks):
    f1, f2 = (implicit_image_curve(curve, c) for c in (cam1, cam2))
    return rc.epipolar_sweep(f1, f2, cam1, cam2, n_planes=60,
                             check_views=[(implicit_image_curve(curve, c), c) for c in checks])


@pytest.mark.parametrize("name", ["conic", "cubic", "quartic", "quintic"])
def test_every_swept_plane_passes_through_both_centers(cams, name, request):
    # the pencil is built through the baseline, so no plane is checked at run
    # time; both unit, so the incidence is relative
    curve = request.getfixturevalue(name)
    for cam1, cam2 in (cams[:2], _epipole_at_infinity_pair(cams)):
        split = _sweep(curve, cam1, cam2, cams[2:4])
        assert len(split.planes) >= 50
        assert np.abs(split.planes @ np.stack([cam1.center, cam2.center]).T).max() <= 1e-12


def test_a_sweep_with_its_epipole_at_infinity_splits_exactly(cams, cubic):
    cam1, cam2 = _epipole_at_infinity_pair(cams)
    assert abs(cam1.project(cam2.center)[2]) <= 1e-12 * np.linalg.norm(cam1.project(cam2.center))
    split = _sweep(cubic, cam1, cam2, cams[2:4])
    assert split.skipped == 0
    assert split.per_plane_counts == [(3, 6)] * 60


def test_epipolar_sweep_rejects_degree_mismatch(cams, conic, cubic):
    f1 = implicit_image_curve(conic, cams[0])
    f2 = implicit_image_curve(cubic, cams[1])
    with pytest.raises(rc.ReconstructionError):
        rc.epipolar_sweep(f1, f2, cams[0], cams[1],
                          check_views=[(f1, cams[0])])


def test_epipolar_sweep_skipping_every_plane_meets_no_rays(cams, cubic, monkeypatch):
    # a zero binary form has no roots to take, and the stacked kernel flags
    # it instead of raising; with every plane flagged and skipped, the one
    # triangulation call gets an empty batch
    f = [implicit_image_curve(cubic, c) for c in cams[:3]]
    roots, batches = pc._binary_roots, []
    monkeypatch.setattr(pc, "_binary_roots", lambda coeffs: roots(np.zeros_like(coeffs)))
    meet = rc.triangulate
    monkeypatch.setattr(rc, "triangulate", lambda rays: batches.append(rays.shape) or meet(rays))
    split = rc.epipolar_sweep(f[0], f[1], cams[0], cams[1], n_planes=7,
                              check_views=[(f[2], cams[2])])
    assert split.planes.shape == (0, 4) and split.skipped == 7
    assert batches == [(0, 3, 3, 2, 6)]


@pytest.mark.parametrize("n_planes", [1, 7, 60])
def test_epipolar_sweep_calls_each_kernel_a_fixed_number_of_times(cams, cubic, monkeypatch,
                                                                  n_planes):
    # no per-plane loop: one restriction per view, one root call for both
    # views and one triangulation, however many planes are swept
    f = [implicit_image_curve(cubic, c) for c in cams[:3]]
    calls = []
    for module, name in ((pc, "restrict_to_lines"), (pc, "_binary_roots"),
                         (rc, "triangulate")):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a))
    split = rc.epipolar_sweep(f[0], f[1], cams[0], cams[1], n_planes=n_planes,
                              check_views=[(f[2], cams[2])])
    assert len(split.planes) + split.skipped == n_planes
    assert sorted(calls) == ["_binary_roots", "restrict_to_lines", "restrict_to_lines",
                             "triangulate"]


def test_dual_counts():
    assert rc.dual_unknowns(4) == 35
    assert rc.dual_view_cap(4) == 14
    assert rc.min_views_dual(4) == 3
    assert rc.dual_view_cap(2) == 5
    assert rc.min_views_dual(2) == 2


def test_dual_ambiguity_dimension():
    # products of the k center hyperplanes with any degree-(m-k) form
    for m in (2, 3, 4, 6):
        for k in range(2, m + 3):
            want = math.comb(m - k + 3, 3) if k <= m else 0
            assert rc.dual_ambiguity_dim(m, k) == want
    assert rc.views_for_dual(2) == 3
    assert rc.views_for_dual(4) == 5
    assert rc.views_for_dual(6) == 7


def test_dual_ambiguity_matches_measured_rank(cams, cubic):
    # measured stacked rank must equal unknowns - 1 - blind-family dimension
    m = 4
    views = _tangent_views(cubic, cams[:5], 20)
    for k in (3, 4, 5):
        planes = np.concatenate([lines @ cam.M for cam, lines in views[:k]])
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        rank = pc.whitened_nullspace(pc.enumerate_monomials(4, m), planes).rank()
        assert rank == rc.dual_unknowns(m) - 1 - rc.dual_ambiguity_dim(m, k)


def test_dual_reconstruct_cubic(cams, cubic):
    m = 4
    views = _tangent_views(cubic, cams[:5], 20)
    ds = rc.dual_reconstruct(views, m)
    assert ds.per_view_ranks == [rc.dual_view_cap(m)] * 5
    # held-out tangent planes of the curve, across each pencil
    res = []
    for L in cubic.tangent_lines(_sample_thetas(25, offset=0.57)):
        A, B = line_span_planes(L)
        for w in np.linspace(0.1, 0.9, 3):
            res.append(abs(ds(w * A + (1 - w) * B)))
    assert max(res) < 1e-7


def test_dual_reconstruct_raises_below_enough_views(cams, cubic):
    views = _tangent_views(cubic, cams[:5], 20)
    for k in (2, 3, 4):
        with pytest.raises(rc.InsufficientViews) as err:
            rc.dual_reconstruct(views[:k], 4)
        assert "center-hyperplane" in str(err.value)


@pytest.mark.parametrize("curve_name,m,k,rank", [("cubic", 3, 5, 20), ("quartic", 4, 8, 35)])
def test_dual_reconstruct_refuses_tangents_of_a_higher_class(request, cams, curve_name, m, k, rank):
    # tangents of a curve whose class exceeds m satisfy no degree-m dual form:
    # the stacked rank exceeds C(m+3,3) - 1 and the fit refuses instead of
    # returning a form those tangents miss
    views = _tangent_views(request.getfixturevalue(curve_name), cams[:k], 20)
    with pytest.raises(rc.ReconstructionError, match=f"rank {rank} > {rank - 1}") as err:
        rc.dual_reconstruct(views, m)
    assert not isinstance(err.value, rc.InsufficientViews)


def test_dual_reconstruct_refuses_an_empty_view(cams, cubic):
    views = _tangent_views(cubic, cams[:5], 20)
    views[2] = (views[2][0], np.zeros((0, 3)))
    with pytest.raises(pc.PolynomialError, match="no samples"):
        rc.dual_reconstruct(views, 4)


@pytest.mark.parametrize("route", ["dual", "chow"])
def test_an_empty_view_is_refused_when_the_others_suffice(cams, cubic, route):
    # the fit passes on the other views, but a view without rows has no rank
    if route == "dual":
        views, fit, deg = _tangent_views(cubic, cams[:5], 20), rc.dual_reconstruct, 4
    else:
        views, fit, deg = _point_views(cubic, cams, 24), rc.chow_reconstruct, 3
    views.append((cams[0], np.zeros((0, 3))))
    with pytest.raises(pc.PolynomialError, match="no samples"):
        fit(views, deg)


@pytest.mark.parametrize("route,value", [("chow", 0.0), ("chow", np.nan), ("chow", np.inf),
                                         ("dual", 0.0), ("dual", np.nan)])
def test_a_row_with_no_lift_is_named(cams, route, value):
    # a row with no lift raises the documented error, naming its view and
    # row, and no warning comes before it
    curve = preset_curve("conic", 3)
    if route == "chow":
        views, fit = _point_views(curve, cams[:5], 13), rc.chow_reconstruct
    else:
        views, fit = _tangent_views(curve, cams[:5], 14), rc.dual_reconstruct
    views[3][1][4] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.ReconstructionError, match="row 4 of view 3 is zero or not finite"):
            fit(views, 2)


def test_dual_reconstruct_conic(cams, conic):
    views = _tangent_views(conic, cams[:3], 14)
    with pytest.raises(rc.InsufficientViews):
        rc.dual_reconstruct(views[:2], 2)
    ds = rc.dual_reconstruct(views, 2)
    res = []
    for L in conic.tangent_lines(_sample_thetas(25, offset=0.77)):
        A, B = line_span_planes(L)
        res.append(abs(ds(0.3 * A + 0.7 * B)))
    assert max(res) < 1e-9


def test_dual_and_chow_forms_normalize_each_row_of_a_stack(cams, conic):
    # a stack of planes or lines is a stack of one-row calls, not one vector
    # divided by its Frobenius norm
    ds = rc.dual_reconstruct(_tangent_views(conic, cams[:3], 14), 2)
    cf = rc.chow_reconstruct(_point_views(conic, cams[:5], 16), 2)
    rng = np.random.default_rng(7)
    scale = np.array([1.0, 10.0, 0.1])[:, None]
    planes = rng.standard_normal((3, 4)) * scale
    lines = join_points(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))) * scale
    for form, X in ((ds, planes), (cf, lines)):
        got = form(X)
        assert got.shape == (3,)
        assert got.tolist() == [form(x) for x in X]
        assert form(X[None]).tolist() == [got.tolist()]


def test_chow_counts():
    assert rc.chow_unknowns(2) == 20
    assert rc.chow_unknowns(3) == 50
    assert rc.chow_view_cap(2) == 5
    assert rc.chow_view_cap(3) == 9
    assert rc.min_views_chow(2) == 4
    assert rc.min_views_chow(3) == 6


def test_chow_ambiguity_dimension():
    assert rc.views_for_chow(2) == 5
    assert rc.views_for_chow(3) == 8
    assert rc.views_for_chow(4) == 10
    # saturates to zero once enough centers constrain the forms
    for d in (2, 3):
        k = rc.views_for_chow(d)
        assert rc.chow_ambiguity_dim(d, k) == 0
        assert rc.chow_ambiguity_dim(d, k - 1) > 0


def test_chow_ambiguity_matches_measured_rank(cams, conic):
    # alpha-plane forms: measured stacked rank = needed - blind dimension
    d = 2
    views = _point_views(conic, cams[:5], 16)
    needed = rc.chow_unknowns(d) - 1
    for k in (3, 4, 5):
        rays = np.concatenate([pts @ cam.ray_matrix.T for cam, pts in views[:k]])
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        rank = pc.whitened_nullspace(pc.enumerate_monomials(6, d), rays).rank()
        assert rank == needed - rc.chow_ambiguity_dim(d, k)


@pytest.mark.parametrize("name,seed,d,nviews,npts",
                         [("conic", 11, 2, 5, 16),
                          ("twisted_cubic", 3, 3, 8, 24)])
def test_chow_reconstruct(cams, name, seed, d, nviews, npts):
    curve = preset_curve(name, seed)
    views = _point_views(curve, cams[:nviews], npts)
    cf = rc.chow_reconstruct(views, d)
    assert cf.per_view_ranks == [rc.chow_view_cap(d)] * nviews
    # representative is orthogonal to the Grassmann-quadric multiples
    ideal = rc._ideal_rows(d)
    assert np.abs(ideal @ cf.Gamma.coeffs).max() < 1e-10
    # held-out lines meeting the curve
    hrng = np.random.default_rng(555)
    meet = [abs(cf(join_points(P, hrng.standard_normal(4))))
            for P in curve.points(_sample_thetas(40, offset=0.83))]
    assert max(meet) < 1e-8
    # random lines bounded away from the curve evaluate large
    ref = curve.points(_sample_thetas(60, offset=0.05))
    miss = [abs(cf(L)) for L in lines_missing_points(ref, hrng, 40)]
    assert min(miss) > 1e-3


def test_ideal_rows_are_cached_read_only():
    ideal = rc._ideal_rows(3)
    assert rc._ideal_rows(3) is ideal
    assert not ideal.flags.writeable
    assert np.allclose(ideal @ ideal.T, np.eye(ideal.shape[0]), atol=1e-12)


def test_chow_membership(cams, conic):
    # the Chow form vanishes on every line through a curve point, and a point
    # off the curve has a line through it on which the form does not vanish
    views = _point_views(conic, cams[:5], 16)
    cf = rc.chow_reconstruct(views, 2)
    rng = np.random.default_rng(88)

    def on_curve(P):
        return np.abs(cf(join_points(P, rng.standard_normal((5, 4))))).max() <= 1e-7

    for P in conic.points(_sample_thetas(10, offset=0.3)):
        assert on_curve(P)
    assert not any(on_curve(rng.standard_normal(4)) for _ in range(10))


def test_chow_raises_below_enough_views(cams, conic):
    views = _point_views(conic, cams[:5], 16)
    for k in (3, 4):
        with pytest.raises(rc.InsufficientViews) as err:
            rc.chow_reconstruct(views[:k], 2)
        assert "alpha-plane" in str(err.value)


def test_fit_chow_from_lines_refuses_a_zero_row():
    # the fit kernel owns row scale, so a zero row reaches its own check
    lines = join_points(*np.random.default_rng(6).standard_normal((2, 30, 4)))
    lines[7] = 0.0
    with pytest.raises(pc.PolynomialError, match="^samples include a zero row$"):
        rc.fit_chow_from_lines(lines, 2)


def test_chow_rejects_incoherent_rays():
    rng = np.random.default_rng(88)
    rays = np.stack([join_points(rng.standard_normal(4), rng.standard_normal(4))
                     for _ in range(80)])
    with pytest.raises(rc.ReconstructionError):
        rc._fit_chow([rays], 2)


def test_grassmann_quadric_vanishes_on_lines():
    rng = np.random.default_rng(4)
    Q = rc.grassmann_quadric_form()
    for _ in range(10):
        L = join_points(rng.standard_normal(4), rng.standard_normal(4))
        assert abs(Q(L / np.linalg.norm(L))) < 1e-12


def test_grassmann_quadric_is_half_the_incidence_pairing():
    L = np.random.default_rng(6).standard_normal((50, 6))
    got = pc.evaluate(rc.grassmann_quadric_form(), L)
    assert np.allclose(got, incidence(L, L) / 2, rtol=1e-14, atol=1e-14)


def test_consistency_report():
    for d in (2, 3, 4, 5):
        for m in (2, 4, 6, 8):
            r = rc.consistency_report(d, m)
            assert r["dual_bound_consistent"]
            assert r["chow_bound_consistent"]
    r = rc.consistency_report(3, 4)
    assert r["dual_unknowns"] == 35
    assert r["chow_unknowns"] == 50
    assert r["min_views_dual"] == 3
    assert r["min_views_chow"] == 6


def test_unenforced_chow_fit_reads_no_ranks():
    # the unconditional fit and the rank-checked route fit the same bits
    cams = scenes.camera_ring(np.random.default_rng(8), 6)
    curve = preset_curve("conic", 2)
    blocks = []
    for cam in cams:
        pts = curve.points(np.linspace(0.1, 3.0, 12)) @ cam.M.T
        rays = pts @ cam.ray_matrix.T
        blocks.append(rays / np.linalg.norm(rays, axis=1, keepdims=True))
    free = rc.fit_chow_from_lines(np.concatenate(blocks), 2)
    checked = rc._fit_chow(blocks, 2)
    assert free.per_view_ranks == []
    assert checked.per_view_ranks == [rc.chow_view_cap(2)] * 6
    assert np.array_equal(free.Gamma.coeffs, checked.Gamma.coeffs)


def test_stacked_samples_are_expanded_once(monkeypatch, cams, conic, cubic):
    # the stacked rank check and the fit read one decomposition, so each
    # route expands its full stacked sample array exactly once; the per-view
    # ranks, read here, share one more expansion, of every view over its
    # 3-dim span
    calls = []
    expand = pc.monomial_rows

    def counting(basis, points):
        calls.append((basis.num_vars, len(points)))
        return expand(basis, points)

    monkeypatch.setattr(pc, "monomial_rows", counting)
    tangent_views = _tangent_views(cubic, cams[:5], 20)
    point_views = _point_views(conic, cams[:5], 16)
    lines = np.concatenate([pts @ cam.ray_matrix.T for cam, pts in point_views])
    for full, total, per_view, route in (
            (4, 100, 1, lambda: rc.dual_reconstruct(tangent_views, 4).per_view_ranks),
            (6, 80, 1, lambda: rc.chow_reconstruct(point_views, 2).per_view_ranks),
            (6, 80, 0, lambda: rc.fit_chow_from_lines(lines, 2).per_view_ranks)):
        calls.clear()
        route()
        assert calls.count((full, total)) == 1
        assert [c for c in calls if c[0] < full] == [(3, total)] * per_view


def test_checked_routes_fit_once_and_read_each_shape_from_one_spectrum(monkeypatch, cams,
                                                                        cubic):
    # the stacked fit is the only nullspace fit; the per-view ranks, read
    # here, take one spectra-only reader call, and so one SVD without
    # vectors, per block shape
    calls = {"fit": 0, "ranks": 0, "spectra": 0}
    fit, ranks, svd = pc.fit_nullspace, pc.whitened_ranks, np.linalg.svd

    def counting(key, f):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapped

    def spectra(a, *args, compute_uv=True, **kwargs):
        calls["spectra"] += not compute_uv
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(pc, "fit_nullspace", counting("fit", fit))
    monkeypatch.setattr(pc, "whitened_ranks", counting("ranks", ranks))
    monkeypatch.setattr(np.linalg, "svd", spectra)
    # two block shapes per route: the last views carry more rows
    tangent_views = [(cam, np.concatenate([lines, lines[:4] * 2.0]) if i >= 3 else lines)
                     for i, (cam, lines) in enumerate(_tangent_views(cubic, cams[:5], 20))]
    point_views = _point_views(cubic, cams, 24)[:6] + _point_views(cubic, cams[6:], 30)
    for route in (lambda: rc.dual_reconstruct(tangent_views, 4).per_view_ranks,
                  lambda: rc.chow_reconstruct(point_views, 3).per_view_ranks):
        calls.update(fit=0, ranks=0, spectra=0)
        route()
        assert calls == {"fit": 1, "ranks": 2, "spectra": 2}


def test_per_view_ranks_are_read_only_when_asked(monkeypatch, cams, cubic):
    # a fit that passes reads no per-view rank until per_view_ranks is read,
    # then one spectra-only call per block shape, once; a refusal reads them
    # before it raises, since its message names them
    calls = []
    ranks = pc.whitened_ranks
    monkeypatch.setattr(pc, "whitened_ranks",
                        lambda *args: calls.append(1) or ranks(*args))
    # two block shapes per route: the last views carry more rows
    tangent_views = [(cam, np.concatenate([lines, lines[:4] * 2.0]) if i >= 3 else lines)
                     for i, (cam, lines) in enumerate(_tangent_views(cubic, cams[:5], 20))]
    point_views = _point_views(cubic, cams, 24)[:6] + _point_views(cubic, cams[6:], 30)
    for fit, views, deg, short in ((rc.dual_reconstruct, tangent_views, 4, 4),
                                   (rc.chow_reconstruct, point_views, 3, 5)):
        calls.clear()
        got = fit(views, deg)
        assert calls == []
        first = got.per_view_ranks
        assert len(calls) == 2
        assert got.per_view_ranks is first
        assert len(calls) == 2
        assert all(not b.flags.writeable for b in got._view_blocks)
        calls.clear()
        with pytest.raises(rc.InsufficientViews, match=r"per-view ranks \[") as err:
            fit(views[:short], deg)
        assert calls
        assert f"per-view ranks {first[:short]}" in str(err.value)


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("route", ["dual", "chow"])
def test_fitted_forms_refuse_a_row_with_no_unit_scale(cams, conic, route, value):
    # a zero or non-finite plane or line raises the documented error, with no
    # warning before it, alone or as one row of a stack
    if route == "dual":
        form = rc.dual_reconstruct(_tangent_views(conic, cams[:3], 12), 2)
        rows = np.random.default_rng(5).standard_normal((4, 4))
    else:
        form = rc.chow_reconstruct(_point_views(conic, cams[:5], 16), 2)
        rows = join_points(*np.random.default_rng(5).standard_normal((2, 4, 4)))
    assert np.isfinite(form(rows)).all()
    rows[2] = 0.0
    rows[2, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (rows, rows[2]):
            with pytest.raises(rc.ReconstructionError, match="zero or not finite"):
                form(bad)


def test_unchecked_chow_fit_reports_its_stacked_rank(cams, conic):
    # one block of rays is one view, whose rank is the stacked rank
    views = _point_views(conic, cams[:5], 16)
    lines = np.concatenate([pts @ cam.ray_matrix.T for cam, pts in views])
    cf = rc._fit_chow([lines], 2)
    assert cf.per_view_ranks == [rc.chow_unknowns(2) - 1]
