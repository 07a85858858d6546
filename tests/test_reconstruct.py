"""Curve reconstruction: epipolar sweep, dual surface, Chow form."""
import math
import warnings

import numpy as np
import pytest

from curvemvg import polycore as pc
from curvemvg import reconstruct as rc
from curvemvg import scenes
from curvemvg.curve_models import implicit_image_curve, image_tangent, preset_curve, _sample_thetas
from curvemvg.projective_cameras import incidence, join_points, line_span_planes
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
    checks = [(implicit_image_curve(curve, c).f, c) for c in cams[2:4]]
    split = rc.epipolar_sweep(f1, f2, cams[0], cams[1], n_planes=60,
                              check_views=checks)
    assert len(split.planes) + split.skipped == 60
    assert len(split.planes) >= 50
    for n_true, n_ext in split.per_plane_counts:
        assert n_true + n_ext == d * d
        assert n_true == d
        assert n_ext == d * (d - 1)
    # the two components are cleanly separated by the check residual
    true_res = max(p.residuals[p.is_true].max() for p in split.planes)
    ext_res = min(p.residuals[~p.is_true].min() for p in split.planes)
    assert true_res < 1e-8
    assert ext_res > 1e-6
    assert ext_res > 1e3 * true_res


def test_epipolar_sweep_rejects_degree_mismatch(cams, conic, cubic):
    f1 = implicit_image_curve(conic, cams[0])
    f2 = implicit_image_curve(cubic, cams[1])
    with pytest.raises(rc.ReconstructionError):
        rc.epipolar_sweep(f1, f2, cams[0], cams[1],
                          check_views=[(f1.f, cams[0])])


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


def test_dual_reconstruct_refuses_an_empty_view(cams, cubic):
    views = _tangent_views(cubic, cams[:5], 20)
    views[2] = (views[2][0], np.zeros((0, 3)))
    with pytest.raises(pc.PolynomialError, match="no samples"):
        rc.dual_reconstruct(views, 4)


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
    views = _point_views(conic, cams[:5], 16)
    cf = rc.chow_reconstruct(views, 2)
    rng = np.random.default_rng(88)
    for P in conic.points(_sample_thetas(10, offset=0.3)):
        assert rc.chow_membership(cf, P, rng=rng)
    hits = sum(rc.chow_membership(cf, rng.standard_normal(4), rng=rng)
               for _ in range(10))
    assert hits == 0


def test_chow_raises_below_enough_views(cams, conic):
    views = _point_views(conic, cams[:5], 16)
    for k in (3, 4):
        with pytest.raises(rc.InsufficientViews) as err:
            rc.chow_reconstruct(views[:k], 2)
        assert "alpha-plane" in str(err.value)


def test_chow_rejects_incoherent_rays():
    rng = np.random.default_rng(88)
    rays = np.stack([join_points(rng.standard_normal(4), rng.standard_normal(4))
                     for _ in range(80)])
    with pytest.raises(rc.ReconstructionError):
        rc.fit_chow_from_lines(rays, 2)


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
    cams = scenes.camera_ring(np.random.default_rng(8), 6)
    curve = preset_curve("conic", 2)
    blocks = []
    for cam in cams:
        pts = curve.points(np.linspace(0.1, 3.0, 12)) @ cam.M.T
        rays = pts @ cam.ray_matrix.T
        blocks.append(rays / np.linalg.norm(rays, axis=1, keepdims=True))
    lines = np.concatenate(blocks)
    free = rc.fit_chow_from_lines(lines, 2, per_view_blocks=blocks, enforce_rank=False)
    checked = rc.fit_chow_from_lines(lines, 2, per_view_blocks=blocks)
    assert free.per_view_ranks == []
    assert checked.per_view_ranks == [rc.chow_view_cap(2)] * 6
    assert np.array_equal(free.Gamma.coeffs, checked.Gamma.coeffs)


def test_stacked_samples_are_expanded_once(monkeypatch, cams, conic, cubic):
    # the stacked rank check and the fit read one decomposition, so each
    # route expands its full stacked sample array exactly once; the per-view
    # ranks share one more expansion, of every view over its 3-dim span
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
            (4, 100, 1, lambda: rc.dual_reconstruct(tangent_views, 4)),
            (6, 80, 1, lambda: rc.chow_reconstruct(point_views, 2)),
            (6, 80, 0, lambda: rc.fit_chow_from_lines(lines, 2))):
        calls.clear()
        route()
        assert calls.count((full, total)) == 1
        assert [c for c in calls if c[0] < full] == [(3, total)] * per_view


def test_unchecked_chow_fit_reports_its_stacked_rank(cams, conic):
    # without per-view blocks the stacked rank is the one per-view rank
    views = _point_views(conic, cams[:5], 16)
    lines = np.concatenate([pts @ cam.ray_matrix.T for cam, pts in views])
    cf = rc.fit_chow_from_lines(lines, 2)
    assert cf.per_view_ranks == [rc.chow_unknowns(2) - 1]
