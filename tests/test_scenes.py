"""Scene generation: lines kept clear of a point set, trajectory sampling."""
import numpy as np
import pytest

from curvemvg import polycore as pc
from curvemvg import scenes
from curvemvg.projective_cameras import join_points, point_line_matrix


def _reference_missing_lines(points, rng, count, min_gap):
    # one point-line matrix per (line, point) pair, gaps taken point by point
    points = np.asarray(points, dtype=float)
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    kept = []
    while len(kept) < count:
        L = join_points(rng.standard_normal(4), rng.standard_normal(4))
        L = L / np.linalg.norm(L)
        gap = min(np.linalg.norm(point_line_matrix(L) @ P) for P in points)
        if gap >= min_gap:
            kept.append(L)
    return np.array(kept)


@pytest.mark.parametrize("seed,min_gap", [(3, 0.25), (17, 0.35)])
def test_lines_missing_points_matches_reference(cubic, seed, min_gap):
    pts = cubic.points(np.linspace(0, np.pi, 120, endpoint=False))
    got = scenes.lines_missing_points(pts, np.random.default_rng(seed), 40,
                                      min_gap=min_gap)
    want = _reference_missing_lines(pts, np.random.default_rng(seed), 40, min_gap)
    assert got.shape == (40, 6)
    assert np.array_equal(got, want)


def test_lines_missing_points_keep_their_gap(cubic):
    pts = cubic.points(np.linspace(0, np.pi, 120, endpoint=False))
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    for L in scenes.lines_missing_points(pts, np.random.default_rng(5), 40,
                                         min_gap=0.35):
        W = point_line_matrix(L)
        assert min(np.linalg.norm(W @ P) for P in unit) >= 0.35


def _reference_observe(kind, rng, n_cameras, frames_per_camera, noise_sigma):
    # one time, one position, one projection and one noise draw per frame
    traj = scenes.make_trajectory(kind, rng)
    cams = scenes.camera_ring(rng, n_cameras)
    dets = []
    for ci, cam in enumerate(cams):
        offset = rng.uniform(0, np.pi)
        stride = rng.uniform(0.8, 1.25) * np.pi / frames_per_camera
        for k in range(frames_per_camera):
            time = offset + stride * k + rng.uniform(0, 0.1 * stride)
            P = traj.anchor if kind == "static" else traj.curve.point(time)
            p = cam.M @ P
            if np.linalg.norm(p) <= 1e-9:
                continue
            dets.append((ci, 0, k, scenes.add_image_noise(p, noise_sigma, rng)))
    return dets


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("kind", ["static", "line", "conic", "cubic"])
def test_observe_trajectory_matches_per_frame_reference(kind, sigma):
    for seed in range(3):
        rng = np.random.default_rng((seed, 61))
        got = scenes.observe_trajectory(kind, rng, 4, 6, noise_sigma=sigma)
        ref_rng = np.random.default_rng((seed, 61))
        want = _reference_observe(kind, ref_rng, 4, 6, sigma)
        assert [d[:3] for d in got.detections] == [d[:3] for d in want]
        assert all(type(x) is int for d in got.detections for x in d[:3])
        diff = max(np.abs(g[3] - w[3]).max() for g, w in zip(got.detections, want))
        assert diff <= 1e-14
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_look_at_rotation_is_a_rotation_through_the_target():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pos, target, up = rng.standard_normal((3, 3))
        R = scenes.look_at_rotation(pos, target, up)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(R) - 1.0) < 1e-14
        axis = (target - pos) / np.linalg.norm(target - pos)
        assert np.allclose(R[2], axis, atol=1e-15)
        assert np.allclose(R[0], np.cross(up, axis) / np.linalg.norm(np.cross(up, axis)),
                           atol=1e-15)
