"""Trajectory classification and recovery from unsynchronized rays."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvemvg import dynamics as dy
from curvemvg import polycore as pc
from curvemvg import projective_cameras as pcam
from curvemvg import reconstruct as rc
from curvemvg import scenes
from curvemvg.projective_cameras import (GeometryError, PluckerLine, grassmann_residual,
                                         incidence, join_points, point_line_matrix,
                                         swap_blocks)


def _rays_for(kind, seed, **kw):
    sc = scenes.observe_trajectory(kind, np.random.default_rng(seed), **kw)
    return sc, dy.lift_observations(sc.cameras, sc.detections)


def _camera_blocks(rays):
    # one block of a RaySet's rows per camera, for the per-view rank checks
    return [rays.lines[rays.camera_ids == c] for c in np.unique(rays.camera_ids)]


def test_lift_observations_static():
    sc, rays = _rays_for("static", 42, n_cameras=3, frames_per_camera=10)
    assert len(rays) == 30
    P = sc.trajectory.anchor
    for L in rays.lines:
        assert np.linalg.norm(point_line_matrix(L) @ P) < 1e-9
        assert grassmann_residual(L) < 1e-12


def test_lift_observations_line_rays_meet_line():
    sc, rays = _rays_for("line", 43, n_cameras=4, frames_per_camera=8)
    ell = join_points(sc.trajectory.curve.C[:, 0], sc.trajectory.curve.C[:, 1])
    ell /= np.linalg.norm(ell)
    for L in rays.lines:
        assert abs(incidence(L, ell)) < 1e-9


def test_lift_observations_match_per_ray_plucker_lines():
    sc, rays = _rays_for("cubic", 44, n_cameras=5, frames_per_camera=7,
                         noise_sigma=1e-3)
    ids, pts = sc.detections
    assert len(rays) == len(ids) == 35
    want = np.array([PluckerLine(sc.cameras[ci].ray_matrix @ p).v
                     for ci, p in zip(ids[:, 0].tolist(), pts)])
    assert np.abs(rays.lines - want).max() <= 1e-15
    assert np.array_equal(rays.camera_ids, ids[:, 0])
    assert np.array_equal(rays.point_ids, ids[:, 1])
    assert np.array_equal(rays.time_ids, ids[:, 2])
    # slices and single rows are RaySets of the selected rows
    part = rays[3:9]
    assert isinstance(part, dy.RaySet) and len(part) == 6
    assert np.array_equal(part.lines, rays.lines[3:9])
    assert np.array_equal(part.time_ids, rays.time_ids[3:9])
    one = rays[-1]
    assert len(one) == 1 and one.camera_ids[0] == rays.camera_ids[-1]


def test_lift_groups_rows_by_camera():
    sc, _ = _rays_for("line", 45, n_cameras=3, frames_per_camera=4)
    ids, pts = sc.detections
    rays = dy.lift_observations(sc.cameras, (ids[::-1], pts[::-1]))
    assert rays.camera_ids.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    assert rays.time_ids.tolist() == [3, 2, 1, 0] * 3


def test_lift_rejects_a_row_off_the_line_quadric():
    cam = scenes.camera_ring(np.random.default_rng(3), 2)[0]

    class Skewed:
        # a ray matrix whose image rows miss the line quadric
        ray_matrix = cam.ray_matrix + np.eye(6, 3)

    with pytest.raises(GeometryError, match="line quadric"):
        dy.lift_observations([Skewed()], (np.zeros((1, 3), dtype=int),
                                          np.array([[1.0, 0.2, 0.3]])))


def test_lift_skips_center_detection():
    sc, _ = _rays_for("line", 43, n_cameras=2, frames_per_camera=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = dy.lift_observations(sc.cameras, (np.zeros((1, 3), dtype=int),
                                                np.zeros((1, 3))))
    assert len(out) == 0
    assert len(caught) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lift_skips_a_detection_that_is_not_finite(bad):
    sc = scenes.observe_trajectory("line", np.random.default_rng(3), n_cameras=3,
                                   frames_per_camera=4)
    ids, pts = sc.detections
    pts = pts.copy()
    pts[5, 1] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rays = dy.lift_observations(sc.cameras, (ids, pts))
    ci, pi, ti = ids[5].tolist()
    assert [str(w.message) for w in caught] == [
        f"detection (cam {ci}, point {pi}, frame {ti}) is not finite; skipped"]
    assert len(rays) == len(ids) - 1 and np.isfinite(rays.lines).all()
    assert dy.classify_motion(rays).kind == "line"


def _reference_lift(cams, detections):
    # detections grouped in a dict by camera, each block lifted on its own
    by_cam = {}
    for row, p in zip(*detections):
        det = (*row.tolist(), p)
        by_cam.setdefault(det[0], []).append(det)
    blocks, ids = [], []
    for ci in sorted(by_cam):
        dets = by_cam[ci]
        pts = np.array([p for _, _, _, p in dets], dtype=float)
        L = pts @ cams[ci].ray_matrix.T
        pnorm = np.sqrt((pts * pts).sum(axis=1))
        keep = (pnorm > 1e-12) & (np.sqrt((L * L).sum(axis=1)) > 1e-12 * pnorm)
        blocks.append(L[keep])
        ids.extend(dets[i][:3] for i in np.flatnonzero(keep))
    return pc.sign_normalize_rows(np.concatenate(blocks)), np.array(ids, dtype=int)


def test_lift_is_bit_equal_to_the_per_camera_grouping():
    # shuffled detections, unequal camera blocks and one at a camera center
    for seed in range(6):
        sc = scenes.observe_trajectory("cubic", np.random.default_rng((seed, 71)),
                                       n_cameras=5, frames_per_camera=9, noise_sigma=1e-3)
        r = np.random.default_rng(seed)
        perm = r.permutation(len(sc.detections[0]))
        ids, pts = (a[perm] for a in sc.detections)
        kept = (ids[:, 0] != 2) | (ids[:, 2] % 3 != 0)
        ids, pts = ids[kept], pts[kept]
        at = int(r.integers(len(ids)))
        dets = (np.insert(ids, at, [4, 0, 99], axis=0), np.insert(pts, at, 0.0, axis=0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rays = dy.lift_observations(sc.cameras, dets)
        assert [str(w.message) for w in caught] == [
            "detection (cam 4, point 0, frame 99) is at the camera center; skipped"]
        lines, ids = _reference_lift(sc.cameras, dets)
        assert np.array_equal(rays.lines, lines)
        assert np.array_equal(np.stack([rays.camera_ids, rays.point_ids, rays.time_ids],
                                       axis=1), ids)
        assert np.bincount(rays.camera_ids).tolist() == [9, 9, 6, 9, 9]


def test_lift_of_no_detections_is_empty():
    rays = dy.lift_observations([], (np.zeros((0, 3), dtype=int), np.zeros((0, 3))))
    assert rays.lines.shape == (0, 6) and len(rays.camera_ids) == 0


RING = scenes.camera_ring(np.random.default_rng(19), 5)
# random camera-id stacks: one camera, gaps in the ids, any order
CAMERA_IDS = st.integers(1, 200).flatmap(
    lambda n: hnp.arrays(np.int64, n, elements=st.integers(0, 4)))


def _unique_groups(ids):
    # the np.unique call that the run grouping replaced
    return np.unique(ids, return_inverse=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cam_ids=CAMERA_IDS, n_cams=st.integers(1, 5))
def test_run_grouping_returns_what_np_unique_did(cam_ids, n_cams):
    cam_ids = cam_ids % n_cams
    ordered = np.sort(cam_ids)
    for got, want in zip(dy._groups(ordered), _unique_groups(ordered)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    r = np.random.default_rng(len(cam_ids))
    ids = np.column_stack([cam_ids, r.integers(0, 3, len(cam_ids)),
                           np.arange(len(cam_ids))])
    dets = (ids, r.standard_normal((len(ids), 3)))
    rays = dy.lift_observations(RING, dets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dy, "_groups", _unique_groups)
        want = dy.lift_observations(RING, dets)
    for name in ("lines", "camera_ids", "point_ids", "time_ids"):
        assert np.array_equal(getattr(rays, name), getattr(want, name))


def test_holdout_split_is_the_setdiff_split():
    for n in range(8, 201):
        train, held = dy._holdout_split(n)
        idx = np.arange(n)
        want = np.setdiff1d(idx, idx[::5])
        assert np.array_equal(held, idx[::5])
        assert np.array_equal(train, want) and train.dtype == want.dtype


def test_a_static_verdict_reads_its_residual_from_the_point_stage(monkeypatch):
    # one stack of point-line matrices inside triangulate, one for the incidence
    _, rays = _rays_for("static", 3)
    # the point is fitted to the rows themselves and scored on them
    P = dy.recover_static_point(rays)
    worst = float(np.sqrt(((point_line_matrix(rays.lines) @ P) ** 2).sum(axis=1)).max())
    calls = []
    plm = pcam.point_line_matrix

    def counting(L):
        calls.append(np.shape(L))
        return plm(L)

    monkeypatch.setattr(pcam, "point_line_matrix", counting)
    monkeypatch.setattr(dy, "point_line_matrix", counting)
    got = dy.classify_motion(rays)
    assert calls == [(len(rays), 6)] * 2
    assert got.kind == "static" and got.residual == worst == got.trace["static_residual"]
    assert np.array_equal(got.model, P) and np.array_equal(np.signbit(got.model), np.signbit(P))


def test_a_line_verdict_keeps_the_bits_of_its_line_and_residual():
    # the line is fitted to the rows themselves and scored on them
    _, rays = _rays_for("line", 3)
    line = dy.recover_line_motion(rays)
    worst = float(np.abs(rays.lines @ swap_blocks(line.v)).max())
    got = dy.classify_motion(rays)
    assert got.kind == "line" and got.residual == worst == got.trace["line_residual"]
    assert np.array_equal(got.model.v, line.v)


def test_trajectory_rays_take_one_ray_matrix_kernel_call(monkeypatch):
    # the ring's ray matrices come from one stacked call, none from the lift
    calls = []
    kernel = pcam._ray_matrices

    def counting(M):
        calls.append(np.shape(M))
        return kernel(M)

    monkeypatch.setattr(pcam, "_ray_matrices", counting)
    sc = scenes.observe_trajectory("cubic", np.random.default_rng(8))
    dy.lift_observations(sc.cameras, sc.detections)
    assert calls == [(10, 3, 4)]


@pytest.mark.parametrize("kind,want_kind,want_deg",
                         [("static", "static", None), ("line", "line", 1),
                          ("conic", "conic", 2), ("cubic", "curve", 3)])
def test_classify_zero_noise(kind, want_kind, want_deg):
    for seed in range(5):
        _, rays = _rays_for(kind, 1000 + seed)
        mc = dy.classify_motion(rays)
        assert mc.kind == want_kind, f"seed {seed}: {mc.trace}"
        assert mc.degree == want_deg


def test_recover_static_point():
    sc, rays = _rays_for("static", 7, n_cameras=5, frames_per_camera=4)
    P = dy.recover_static_point(rays)
    assert 1 - abs(P @ sc.trajectory.anchor) < 1e-9
    # minimal case: two rays from distinct cameras
    mat = rays.lines
    two = dy.recover_static_point(mat[[0, 4]], tol=1e-9)
    assert 1 - abs(two @ sc.trajectory.anchor) < 1e-9
    with pytest.raises(dy.DynamicsError):
        dy.recover_static_point(mat[:1])


def test_recover_static_point_tolerates_small_noise():
    sc, rays = _rays_for("static", 7, n_cameras=5, frames_per_camera=4)
    mat = rays.lines
    noisy = mat + 1e-6 * np.random.default_rng(8).standard_normal(mat.shape)
    P = dy.recover_static_point(noisy, tol=1e-4)
    assert 1 - abs(P @ sc.trajectory.anchor) < 1e-4


def test_recover_static_rejects_moving_point():
    _, rays = _rays_for("conic", 21)
    with pytest.raises(dy.DynamicsError):
        dy.recover_static_point(rays)


def test_ray_recoveries_name_a_zero_or_non_finite_row():
    # numpy's SVD used to raise LinAlgError on the NaN of a zero row's division
    _, rays = _rays_for("static", 12)
    for bad in (0.0, np.nan, np.inf):
        mat = rays.lines.copy()
        mat[3] = bad
        for recover in (dy.recover_static_point, dy.recover_line_motion):
            with pytest.raises(dy.DynamicsError, match="^ray row 3 is zero or not finite$"):
                recover(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("entry", [dy.classify_motion, dy.recover_static_point,
                                   dy.recover_line_motion],
                         ids=["classify_motion", "recover_static_point",
                              "recover_line_motion"])
def test_every_rayset_entry_names_a_zero_or_non_finite_row(entry, bad):
    # a RaySet's rows went on unchecked: a NaN raised numpy's LinAlgError,
    # an inf warned "invalid value encountered in vecdot"
    _, rays = _rays_for("cubic", 3)
    lines = rays.lines.copy()
    lines[5, 2] = bad
    if bad == 0.0:
        lines[5] = 0.0
    broken = dy.RaySet(lines, rays.camera_ids, rays.point_ids, rays.time_ids)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dy.DynamicsError, match="^ray row 5 is zero or not finite$"):
            entry(broken)


def test_recover_line_motion():
    sc, rays = _rays_for("line", 9, n_cameras=6, frames_per_camera=10)
    ell = dy.recover_line_motion(rays)
    assert grassmann_residual(ell.v) < 1e-12
    for L in rays.lines:
        assert abs(incidence(L, ell.v)) < 1e-9
    # the true support line is recovered, not just some meeting line
    truth = join_points(sc.trajectory.curve.C[:, 0], sc.trajectory.curve.C[:, 1])
    truth /= np.linalg.norm(truth)
    assert 1 - abs(ell.v @ truth) < 1e-9


def test_klein_projection_is_the_nearest_line():
    rng = np.random.default_rng(17)
    for _ in range(20):
        L = join_points(rng.standard_normal(4), rng.standard_normal(4))
        v = L / np.linalg.norm(L) + 1e-2 * rng.standard_normal(6)
        x = dy._project_to_klein(v)
        assert grassmann_residual(x) <= 1e-15
        # first-order optimality: v - x is normal to the quadric at x
        n = swap_blocks(x)
        step = v - x
        assert np.linalg.norm(step - (step @ n) / (n @ n) * n) <= 1e-15
    on = join_points(rng.standard_normal(4), rng.standard_normal(4))
    assert np.abs(dy._project_to_klein(on) - on).max() <= 1e-15


@pytest.mark.parametrize("seed", [5, 6, 21, 27])
def test_noisy_line_trajectories_classify_without_raising(seed):
    # these trials raised GeometryError when the support line was moved
    # onto the quadric by one Newton step (residual about 2e-7 > 1e-7)
    sc = scenes.observe_trajectory("line", np.random.default_rng(40000 + seed),
                                   noise_sigma=1e-2)
    mc = dy.classify_motion(dy.lift_observations(sc.cameras, sc.detections),
                            noise_sigma=1e-2)
    assert mc.kind == "line", mc.trace
    assert grassmann_residual(mc.model.v) <= 1e-15


def test_zero_noise_conic_with_a_near_degenerate_view():
    # one camera's rays span a third direction at singular-value ratio 9e-7,
    # which the per-view rank check used to hand to whitening_map
    sc = scenes.observe_trajectory("conic", np.random.default_rng((14, 177, 2)))
    rays = dy.lift_observations(sc.cameras, sc.detections)
    mc = dy.classify_motion(rays)
    assert mc.kind == "conic", mc.trace
    G = rc._fit_chow(_camera_blocks(rays), 2)
    assert G.gap < 1e-12
    assert len(G.per_view_ranks) == 10
    assert np.abs(pc.evaluate(G.Gamma, rays.lines)).max() < 1e-9


def test_recover_line_rejects_static_data():
    _, rays = _rays_for("static", 10, n_cameras=5, frames_per_camera=4)
    with pytest.raises(dy.DynamicsError):
        dy.recover_line_motion(rays)


def test_recover_line_rejects_conic_data():
    _, rays = _rays_for("conic", 11)
    with pytest.raises(dy.DynamicsError):
        dy.recover_line_motion(rays)


def test_camera_block_chow_fit_matches_classifier():
    _, rays = _rays_for("cubic", 31)
    G = rc._fit_chow(_camera_blocks(rays), 3)
    mat = rays.lines
    assert max(abs(G(L)) for L in mat) < 1e-9
    # degree 2 cannot absorb a cubic trajectory
    with pytest.raises((rc.ReconstructionError, rc.InsufficientViews)):
        rc._fit_chow(_camera_blocks(rays), 2)


def test_classify_negative_control():
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        rnd = np.stack([join_points(rng.standard_normal(4), rng.standard_normal(4))
                        for _ in range(60)])
        rnd /= np.linalg.norm(rnd, axis=1, keepdims=True)
        mc = dy.classify_motion(rnd)
        assert mc.kind == "unclassified", mc.trace


def test_classify_needs_enough_rays():
    _, rays = _rays_for("static", 42)
    with pytest.raises(dy.DynamicsError):
        dy.classify_motion(rays[:7])


def test_classify_scale_invariance():
    _, rays = _rays_for("conic", 12)
    mat = rays.lines
    scal = np.random.default_rng(13).uniform(0.1, 9.0, size=(mat.shape[0], 1))
    assert dy.classify_motion(mat).kind == dy.classify_motion(mat * scal).kind


@pytest.mark.parametrize("kind,want", [("static", "static"), ("line", "line"),
                                       ("conic", "conic"), ("cubic", "curve")])
def test_classify_with_noise(kind, want):
    good = 0
    for seed in range(5):
        sc = scenes.observe_trajectory(kind, np.random.default_rng(5000 + seed),
                                       noise_sigma=1e-3)
        rays = dy.lift_observations(sc.cameras, sc.detections)
        if dy.classify_motion(rays, noise_sigma=1e-3).kind == want:
            good += 1
    assert good >= 4


def test_localize_on_viewing_ray():
    sc, rays = _rays_for("conic", 11)
    mc = dy.classify_motion(rays)
    assert mc.kind == "conic"
    t_true = 1.234
    P_true = sc.trajectory.curve.points([t_true])[0]
    ray = PluckerLine(join_points(sc.cameras[0].center, P_true))
    loc = dy.localize_on_ray(mc.model, ray)
    assert 1 - abs(loc.point @ P_true) < 1e-5
    assert not loc.ambiguous


def test_localize_reports_secant_ambiguity():
    sc, rays = _rays_for("conic", 11)
    mc = dy.classify_motion(rays)
    Q1, Q2 = sc.trajectory.curve.points([0.4, 2.1])
    loc = dy.localize_on_ray(mc.model, PluckerLine(join_points(Q1, Q2)))
    assert loc.ambiguous
    assert len(loc.candidates) == 2
    for _, P, _ in loc.candidates:
        best = min(1 - abs(P @ (Q / np.linalg.norm(Q))) for Q in (Q1, Q2))
        assert best < 1e-5


def test_localize_counts_a_tangent_ray_once():
    sc, rays = _rays_for("conic", 11)
    mc = dy.classify_motion(rays)
    curve = sc.trajectory.curve
    for th in (0.3, 1.0, 2.5):
        loc = dy.localize_on_ray(mc.model, PluckerLine(curve.tangent_lines([th])[0]))
        assert len(loc.candidates) == 1 and not loc.ambiguous
        assert 1 - abs(loc.point @ curve.points([th])[0]) < 1e-9


def test_localize_rejects_missing_ray():
    sc, rays = _rays_for("conic", 11)
    mc = dy.classify_motion(rays)
    rng = np.random.default_rng(77)
    pts = sc.trajectory.curve.points(np.linspace(0, np.pi, 60))
    miss = scenes.lines_missing_points(pts, rng, 1, min_gap=0.35)[0]
    with pytest.raises(dy.DynamicsError):
        dy.localize_on_ray(mc.model, PluckerLine(miss), tol=1e-8)
