"""Scene generation: lines kept clear of a point set, trajectory sampling."""
import numpy as np
import pytest

from curvemvg import polycore as pc
from curvemvg import scenes
from curvemvg.curve_models import _binary_monomials
from curvemvg.projective_cameras import join_points, meet_planes, point_line_matrix


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
            P = (traj.anchor if kind == "static" else
                 pc.sign_normalize(traj.curve.C @ _binary_monomials(time, traj.curve.degree)))
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
        ids, pts = got.detections
        assert ids.tolist() == [list(d[:3]) for d in want]
        assert ids.dtype.kind == "i" and pts.shape == ids.shape == (len(want), 3)
        diff = max(np.abs(g - w[3]).max() for g, w in zip(pts, want))
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


def _reference_camera(M):
    # a camera matrix normalized and checked one at a time, by its own SVD
    M = np.ldexp(M, -np.frexp(np.abs(M).max())[1])
    M = M / max(np.linalg.norm(M), np.finfo(float).tiny)
    _, s, Vt = np.linalg.svd(M)
    assert s[2] > s[0] * 4 * np.finfo(float).eps
    rays = np.stack([meet_planes(M[(j + 1) % 3], M[(j + 2) % 3]) for j in range(3)], axis=1)
    return M, pc.sign_normalize(Vt[-1]), rays


def _reference_ring(rng, count):
    # one camera at a time: scalar draws, a look-at pose, its own SVD
    cams = []
    for k in range(count):
        phi = 2.0 * np.pi * k / count + rng.uniform(-0.2, 0.2)
        elev = rng.uniform(-0.5, 0.7)
        position = np.array([np.cos(phi) * np.cos(elev), np.sin(phi) * np.cos(elev),
                             np.sin(elev)]) * rng.uniform(4.0, 6.5)
        target = rng.standard_normal(3) * 0.3
        up = rng.standard_normal(3)
        z = (target - position) / np.linalg.norm(target - position)
        x = np.cross(up, z)
        x = x / np.linalg.norm(x)
        R = np.stack([x, np.cross(z, x), z])
        f, alpha, s = rng.uniform(0.8, 1.6), rng.uniform(0.9, 1.15), rng.uniform(-0.05, 0.05)
        u0, v0 = rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)
        K = np.array([[f, s, u0], [0.0, alpha * f, v0], [0.0, 0.0, 1.0]])
        cams.append(_reference_camera(K @ np.hstack([R, (-R @ position)[:, None]])))
    return cams


@pytest.mark.parametrize("count", [0, 1, 2, 8, 10])
def test_camera_ring_is_bit_equal_to_the_per_camera_loop(count):
    for seed in range(12):
        rng = np.random.default_rng((seed, count, 5))
        ref_rng = np.random.default_rng((seed, count, 5))
        got = scenes.camera_ring(rng, count)
        want = _reference_ring(ref_rng, count)
        assert len(got) == count
        for cam, (M, center, rays) in zip(got, want):
            assert np.array_equal(cam.M, M)
            assert np.array_equal(cam.center, center)
            assert np.array_equal(cam.ray_matrix, rays)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_camera_ring_takes_one_svd(monkeypatch):
    # every rank check and center of the ring reads one batched SVD
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    scenes.camera_ring(np.random.default_rng(8), 10)
    assert calls == [(10, 3, 4)]


def _reference_observe_by_camera(kind, rng, n_cameras, frames_per_camera, noise_sigma):
    # each camera's times, positions and projection on their own
    traj = scenes.make_trajectory(kind, rng)
    cams = _reference_ring(rng, n_cameras)
    frames = np.arange(frames_per_camera)
    dets = []
    for ci, (M, _, _) in enumerate(cams):
        offset = rng.uniform(0, np.pi)
        stride = rng.uniform(0.8, 1.25) * np.pi / frames_per_camera
        if noise_sigma == 0.0:
            jitter = rng.uniform(0, 0.1 * stride, size=frames_per_camera)
        else:
            jitter = np.empty(frames_per_camera)
            noise = np.empty((frames_per_camera, 3))
            for k in frames:
                jitter[k] = rng.uniform(0, 0.1 * stride)
                noise[k] = rng.standard_normal(3)
        p = traj.positions(offset + stride * frames + jitter) @ M.T
        norms = np.sqrt((p * p).sum(axis=1))
        keep = norms > 1e-9
        p = p / np.where(keep, norms, 1.0)[:, None]
        if noise_sigma != 0.0:
            p = p + noise_sigma * noise
            p = p / np.sqrt((p * p).sum(axis=1))[:, None]
        dets.extend((ci, 0, k, p[k]) for k in np.flatnonzero(keep).tolist())
    return dets


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
@pytest.mark.parametrize("kind", ["static", "line", "conic", "cubic"])
def test_observe_trajectory_is_bit_equal_to_the_per_camera_body(kind, sigma):
    for seed in range(4):
        rng = np.random.default_rng((seed, 67))
        ids, pts = scenes.observe_trajectory(kind, rng, noise_sigma=sigma).detections
        ref_rng = np.random.default_rng((seed, 67))
        want = _reference_observe_by_camera(kind, ref_rng, 10, 15, sigma)
        assert ids.tolist() == [list(d[:3]) for d in want]
        assert pts.shape == (len(want), 3)
        assert all(np.array_equal(g, w[3]) for g, w in zip(pts, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
