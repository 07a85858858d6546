"""End-to-end acceptance gate, one pass/fail line per guaranteed property.

Three tests pin what happens at the naive counting bound (unknowns divided
by the per-view equation cap) for tangent-only and ray-only reconstruction.
Those measurements carry structured blind spots -- every lifted tangent
plane passes through its view's center, every lifted ray lies in its
center's alpha-plane -- so at the counting bound the per-view ranks sit at
their caps and yet the stacked system is short by exactly
dual_ambiguity_dim / chow_ambiguity_dim.  Each test checks that the fitter
refuses there and names the blind family, that the measured deficit equals
the formula, that generic curve-free planes or lines through the same
centers leave a blind family of that same dimension, and that the corrected
count views_for_dual / views_for_chow reconstructs the curve.
"""
import numpy as np
import pytest

from curvemvg import dynamics as dy
from curvemvg import kruppa as kp
from curvemvg import polycore as pc
from curvemvg import reconstruct as rc
from curvemvg import scene_cli as cli
from curvemvg import scenes
from curvemvg.curve_models import (implicit_image_curve, image_tangent,
                                   preset_curve, _sample_thetas)
from curvemvg.projective_cameras import (EpipolarGeometry, fundamental,
                                         join_points, point_line_matrix,
                                         incidence, grassmann_residual,
                                         line_span_planes)

from test_scene_cli import CONFIGS


@pytest.fixture(scope="module")
def ring():
    return scenes.camera_ring(np.random.default_rng(19), 8)


@pytest.fixture(scope="module")
def curve_set():
    return {"conic": preset_curve("conic", 11),
            "cubic": preset_curve("twisted_cubic", 3),
            "cubic_b": preset_curve("twisted_cubic", 13),
            "quartic": preset_curve("rational_quartic", 4),
            "quintic": preset_curve("rational_quintic", 5)}


def test_epipolar_algebra_over_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(100):
        cam1 = scenes.random_camera(rng)
        cam2 = scenes.random_camera(rng)
        eg = fundamental(cam1, cam2)
        s = np.linalg.svd(eg.F, compute_uv=False)
        assert s[1] / s[0] > 1e-8 and s[2] / s[0] < 1e-12
        assert np.linalg.norm(eg.F @ eg.e1) <= 1e-10
        assert np.linalg.norm(eg.e2 @ eg.F) <= 1e-10
        P = rng.standard_normal(4)
        p1 = cam1.project(P)
        p2 = cam2.project(P)
        corr = abs(p2 @ eg.F @ p1) / (np.linalg.norm(p1) * np.linalg.norm(p2))
        assert corr <= 1e-9


def test_tangency_constraints_at_truth_and_under_perturbation(ring, curve_set):
    cam1, cam2 = ring[0], ring[1]
    eg = fundamental(cam1, cam2)
    rng = np.random.default_rng(5)
    for name in ("conic", "cubic", "quintic"):
        inst = kp.build_instance(curve_set[name], cam1, cam2)

        def response(e1, F):
            out = 0.0
            for _ in range(3):
                probe = (rng.standard_normal(3), rng.standard_normal(3))
                vec = kp.constraint_vector(inst.phi1, inst.phi2, e1, F, probe)
                out = max(out, np.abs(vec).max())
            return out

        assert response(eg.e1, eg.F) <= 1e-9, name
        for _ in range(5):
            pert = EpipolarGeometry.from_F(eg.F + 1e-3 * rng.standard_normal((3, 3)))
            assert response(pert.e1, pert.F) > 1e-5, name
    # the conic case collapses to the classical matrix identity
    C1 = pc.quadratic_matrix(implicit_image_curve(curve_set["conic"], cam1))
    C2 = pc.quadratic_matrix(implicit_image_curve(curve_set["conic"], cam2))
    assert kp.classical_kruppa_residual(eg, C1, C2) <= 1e-9


def test_solution_dimension_ladder_and_quadric_degeneracy(ring, curve_set):
    cam1, cam2 = ring[0], ring[1]
    eg = fundamental(cam1, cam2)
    ladder = [
        (["conic"], 2, 5),
        (["cubic"], 4, 3),
        (["conic", "cubic"], 6, 1),
        (["cubic", "cubic_b"], 8, 0),
        (["conic", "quintic"], 10, 0),
    ]
    for names, sigma_m, want in ladder:
        instances = [kp.build_instance(curve_set[n], cam1, cam2) for n in names]
        assert sum(i.m for i in instances) == sigma_m
        # solution_dimension raises instead of answering when the rank gap
        # at the cut is below 10, so a return certifies an unambiguous gap
        dim = kp.solution_dimension(instances, eg)
        assert dim == want == max(7 - sigma_m, 0), f"sigma_m={sigma_m}"
    # six tangencies always admit a common quadric with the baseline
    td6 = kp.tangency_points(curve_set["quartic"], cam1, cam2)
    assert td6.expected == 6
    assert kp.quadric_degeneracy(td6) is True
    # seven generic points break the count (10 coefficients, 3 + 7 rows)
    grng = np.random.default_rng(77)
    pts = grng.standard_normal((7, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    td7 = kp.TangencyData(td6.baseline, np.zeros(7), pts, 7)
    assert kp.quadric_degeneracy(td7) is False


def test_two_component_candidate_counts(ring, curve_set):
    for name in ("conic", "cubic"):
        curve = curve_set[name]
        d = curve.degree
        f1 = implicit_image_curve(curve, ring[0])
        f2 = implicit_image_curve(curve, ring[1])
        checks = [(implicit_image_curve(curve, c), c) for c in ring[2:4]]
        split = rc.epipolar_sweep(f1, f2, ring[0], ring[1], n_planes=60,
                                  check_views=checks)
        assert len(split.planes) >= 50
        for n_true, n_ext in split.per_plane_counts:
            assert n_true == d
            assert n_true + n_ext == d * d


def _dual_views(curve, cams, n_lines):
    views = []
    for i, cam in enumerate(cams):
        ths = _sample_thetas(n_lines, offset=0.11 * (i + 1))
        views.append((cam, np.stack([image_tangent(curve, cam, th) for th in ths])))
    return views


def _dual_holdout(ds, curve):
    res = []
    for L in curve.tangent_lines(_sample_thetas(25, offset=0.57)):
        A, B = line_span_planes(L)
        for w in (0.2, 0.5, 0.8):
            res.append(abs(ds(w * A + (1 - w) * B)))
    return max(res)


def test_dual_rank_and_view_ladder(ring, curve_set):
    cubic = curve_set["cubic"]
    views = _dual_views(cubic, ring[:5], 20)
    # per-view measured rank saturates at C(6,2) - 1 = 14
    ds = rc.dual_reconstruct(views, 4)
    assert ds.per_view_ranks == [14] * 5
    assert _dual_holdout(ds, cubic) <= 1e-7
    # two views fail with the rank deficit reported
    with pytest.raises(rc.InsufficientViews) as err:
        rc.dual_reconstruct(views[:2], 4)
    assert "rank" in str(err.value)


def test_dual_reconstruction_from_counting_bound_views(ring, curve_set):
    # 34 conditions / 14 per view gives the counting bound of 3 views, but
    # every lifted tangent plane passes through its view's center, so the
    # products of the 3 center hyperplanes with any linear form (a
    # C(4,3) = 4 dimensional family) vanish on all stacked rows; unique
    # recovery needs views_for_dual(4) = 5 views
    m = 4
    cubic = curve_set["cubic"]
    k, full = rc.min_views_dual(m), rc.views_for_dual(m)
    assert k == 3
    views = _dual_views(cubic, ring[:k], 20)
    planes = [lines @ cam.M for cam, lines in views]
    basis = pc.enumerate_monomials(4, m)
    assert ([pc.whitened_nullspace(basis, p).rank() for p in planes]
            == [rc.dual_view_cap(m)] * k)
    needed = rc.dual_unknowns(m) - 1
    blind = rc.dual_ambiguity_dim(m, k)
    want = needed - blind
    assert pc.whitened_nullspace(basis, np.concatenate(planes)).rank() == want
    with pytest.raises(rc.InsufficientViews) as err:
        rc.dual_reconstruct(views, m)
    msg = str(err.value)
    assert f"rank {want} < {needed}" in msg
    assert f"{blind}-dim family of center-hyperplane products" in msg
    assert f"at least {full} views" in msg
    # the family owes nothing to the curve: random image lines lift to
    # generic planes through the same centers, and leave it as nullspace
    wrng = np.random.default_rng(23)
    for n_views in (k, full):
        generic = np.concatenate([wrng.standard_normal((20, 3)) @ cam.M
                                  for cam in ring[:n_views]])
        nullity = rc.dual_unknowns(m) - pc.whitened_nullspace(basis, generic).rank()
        assert nullity == rc.dual_ambiguity_dim(m, n_views)
    # the corrected count reconstructs the same curve on the same ring
    ds = rc.dual_reconstruct(_dual_views(cubic, ring[:full], 20), m)
    assert _dual_holdout(ds, cubic) <= 1e-7


def _chow_views(curve, cams, n_pts):
    views = []
    for cam in cams:
        pts = curve.points(_sample_thetas(n_pts, offset=0.31)) @ cam.M.T
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        views.append((cam, pts))
    return views


def _chow_quality(cf, curve):
    hrng = np.random.default_rng(555)
    meet = [abs(cf(join_points(P, hrng.standard_normal(4))))
            for P in curve.points(_sample_thetas(40, offset=0.83))]
    ref = curve.points(_sample_thetas(60, offset=0.05))
    miss = [abs(cf(L)) for L in scenes.lines_missing_points(ref, hrng, 40)]
    return max(meet), min(miss)


def test_chow_counts_and_quality(ring, curve_set):
    assert rc.chow_unknowns(2) == 20
    assert rc.chow_unknowns(3) == 50
    for name, d, npts in (("conic", 2, 16), ("cubic", 3, 24)):
        curve = curve_set[name]
        k = rc.views_for_chow(d)
        cf = rc.chow_reconstruct(_chow_views(curve, ring[:k], npts), d)
        assert cf.per_view_ranks == [rc.chow_view_cap(d)] * k
        meet, miss = _chow_quality(cf, curve)
        assert meet <= 1e-8
        assert miss >= 1e-3
    # three views of a conic fail with the deficit reported
    with pytest.raises(rc.InsufficientViews):
        rc.chow_reconstruct(_chow_views(curve_set["conic"], ring[:3], 16), 2)
    # counting identities
    for d in (2, 3, 4):
        for m in (2, 4, 6):
            r = rc.consistency_report(d, m)
            assert r["dual_bound_consistent"] and r["chow_bound_consistent"]


def _chow_counting_gap(ring, curve, d, n_pts):
    """Counting-bound refusal, exact deficit and corrected count for degree d."""
    k, full = rc.min_views_chow(d), rc.views_for_chow(d)
    views = _chow_views(curve, ring[:k], n_pts)
    rays = [pts @ cam.ray_matrix.T for cam, pts in views]
    basis = pc.enumerate_monomials(6, d)
    assert ([pc.whitened_nullspace(basis, r).rank() for r in rays]
            == [rc.chow_view_cap(d)] * k)
    needed = rc.chow_unknowns(d) - 1
    blind = rc.chow_ambiguity_dim(d, k)
    want = needed - blind
    assert pc.whitened_nullspace(basis, np.concatenate(rays)).rank() == want
    with pytest.raises(rc.InsufficientViews) as err:
        rc.chow_reconstruct(views, d)
    msg = str(err.value)
    assert f"rank {want} < {needed}" in msg
    assert f"{blind}-dim family of forms through their alpha-planes" in msg
    assert f"at least {full} distinct centers" in msg
    # the family owes nothing to the curve: random image points lift to
    # generic rays through the same centers, and beyond the Grassmann ideal
    # they leave it as nullspace
    wrng = np.random.default_rng(29)
    for n_views in (k, full):
        generic = np.concatenate([wrng.standard_normal((n_pts, 3)) @ cam.ray_matrix.T
                                  for cam in ring[:n_views]])
        nullity = rc.chow_unknowns(d) - pc.whitened_nullspace(basis, generic).rank()
        assert nullity == rc.chow_ambiguity_dim(d, n_views)
    # the corrected count reconstructs the same curve on the same ring
    cf = rc.chow_reconstruct(_chow_views(curve, ring[:full], n_pts), d)
    meet, miss = _chow_quality(cf, curve)
    assert meet <= 1e-8 and miss >= 1e-3


def test_chow_reconstruction_from_counting_bound_views_conic(ring, curve_set):
    # 19 conditions / 5 per view gives the counting bound of 4 centers, but
    # the degree-2 forms through 4 alpha-planes leave a
    # chow_ambiguity_dim(2, 4) = 2 dimensional family beyond the Grassmann
    # ideal; unique recovery needs views_for_chow(2) = 5 centers
    assert rc.min_views_chow(2) == 4
    _chow_counting_gap(ring, curve_set["conic"], 2, 16)


def test_chow_reconstruction_from_counting_bound_views_cubic(ring, curve_set):
    # as above for d=3: 49 conditions / 9 per view gives 6 centers, which
    # leave a chow_ambiguity_dim(3, 6) = 5 dimensional family; unique
    # recovery needs views_for_chow(3) = 8 centers
    assert rc.min_views_chow(3) == 6
    _chow_counting_gap(ring, curve_set["cubic"], 3, 24)


def test_motion_classification_and_recovery():
    want = {"static": "static", "line": "line", "conic": "conic", "cubic": "curve"}
    # zero noise: every trial classified, recoveries at exact-arithmetic level
    for kind, expect in want.items():
        for seed in range(100):
            sc = scenes.observe_trajectory(kind, np.random.default_rng(1000 + seed))
            rays = dy.lift_observations(sc.cameras, sc.detections)
            mc = dy.classify_motion(rays)
            assert mc.kind == expect, f"{kind} seed {seed}: {mc.trace}"
            if kind == "static":
                assert 1 - abs(mc.model @ sc.trajectory.anchor) <= 1e-6
            elif kind == "line":
                worst = max(abs(incidence(L, mc.model.v)) for L in rays.lines)
                assert worst <= 1e-7
                assert grassmann_residual(mc.model.v) <= 1e-10
            else:
                assert mc.residual <= 1e-7   # held-out rays against the form
    # noise 1e-3 in normalized image units: at least 95 of 100 per class
    for kind, expect in want.items():
        good = 0
        for seed in range(100):
            sc = scenes.observe_trajectory(kind, np.random.default_rng(40_000 + seed),
                                           noise_sigma=1e-3)
            rays = dy.lift_observations(sc.cameras, sc.detections)
            if dy.classify_motion(rays, noise_sigma=1e-3).kind == expect:
                good += 1
        assert good >= 95, f"{kind}: {good}/100 at noise 1e-3"


def test_report_digest_determinism():
    runs = [("simulate", "simulate_demo.json"),
            ("kruppa-check", "kruppa_trio.json"),
            ("kruppa-dim", "conic_pair.json"),
            ("reconstruct-points", "cubic_pair.json"),
            ("reconstruct-dual", "dual_quartic.json"),
            ("reconstruct-chow", "chow_conic.json"),
            ("classify-motion", "dynamics_mixed.json"),
            ("consistency-tables", None)]
    for command, config in runs:
        digests = set()
        for _ in range(2):
            if config is None:
                cfg = cli.parse_config({"seed": 0})
            else:
                cfg = cli.load_config(str(CONFIGS / config))
            digests.add(cli.run(command, cfg).digest)
        assert len(digests) == 1, command
