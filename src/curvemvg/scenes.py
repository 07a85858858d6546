"""Seeded synthetic scene generation: cameras, trajectories, noise.

All randomness flows through explicit generators so a scene is a pure
function of its seed; nothing in here touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polycore as pc
from .curve_models import CurveModelError, RationalCurve3D, preset_curve
from .projective_cameras import (Camera, GeometryError, _map_rows, join_points, point_line_matrix,
                                 posed_matrices)


def _cross3(u, v) -> np.ndarray:
    # cross products of the last axes; np.cross's generic broadcasting costs
    # more than these six products
    return np.stack([u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
                     u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
                     u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]], axis=-1)


def look_at_rotation(position, target, up) -> np.ndarray:
    """World-to-camera rotation with the optical axis through the target.

    Stacks of positions, targets and up directions (last axis 3) give a
    stack of rotations.
    """
    position = np.asarray(position, dtype=float)
    z = np.asarray(target, dtype=float) - position
    z = z / pc._norms(z)
    x = _cross3(np.asarray(up, dtype=float), z)
    xn = pc._norms(x)
    if np.any(xn < 1e-8):
        raise GeometryError("up direction is parallel to the viewing axis")
    x = x / xn
    return np.stack([x, _cross3(z, x), z], axis=-2)


def random_camera(rng: np.random.Generator) -> Camera:
    """Camera 3.5 to 7 units out looking near the origin, generic internals."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    position = direction * rng.uniform(3.5, 7.0)
    target = rng.standard_normal(3) * 0.4
    while True:
        up = rng.standard_normal(3)
        axis = target - position
        if np.linalg.norm(_cross3(up, axis)) > 1e-3 * np.linalg.norm(up) * np.linalg.norm(axis):
            break
    R = look_at_rotation(position, target, up)
    t = -R @ position
    f = rng.uniform(0.8, 1.6)
    alpha = rng.uniform(0.9, 1.15)
    s = rng.uniform(-0.05, 0.05)
    u0, v0 = rng.uniform(-0.15, 0.15, size=2)
    return Camera.from_parameters(f, alpha, s, u0, v0, R, t)


# a ring camera's uniform draws, as (low, high) columns: azimuth jitter,
# elevation and standoff, then focal length, aspect, skew and principal point
_RING_POSE = np.array([(-0.2, 0.2), (-0.5, 0.7), (4.0, 6.5)])
_RING_INTERNALS = np.array([(0.8, 1.6), (0.9, 1.15), (-0.05, 0.05),
                            (-0.15, 0.15), (-0.15, 0.15)])


# a clock's uniform draws, as (low, high) columns: offset and stride factor
_CLOCK = np.array([(0.0, np.pi), (0.8, 1.25)])


def _uniform(bounds: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Generator.uniform(low, high) is low + (high - low) * random()
    low, high = bounds.T
    return low + (high - low) * u


def camera_ring(rng: np.random.Generator, count: int) -> list[Camera]:
    """Cameras spread around the scene with jittered poses.

    Each camera draws its pose, its target and up jitter and its internals
    in turn, so the random stream is that of drawing the cameras one by one;
    the poses, the matrices and their rank checks are then built as one
    stack (``Camera.stack``, one batched SVD).
    """
    pose, normal, internals = np.empty((count, 3)), np.empty((count, 6)), np.empty((count, 5))
    for k in range(count):
        pose[k] = rng.random(3)
        normal[k] = rng.standard_normal(6)
        internals[k] = rng.random(5)
    jitter, elev, standoff = _uniform(_RING_POSE, pose).T
    phi = 2.0 * np.pi * np.arange(count) / count + jitter
    direction = np.stack([np.cos(phi) * np.cos(elev), np.sin(phi) * np.cos(elev),
                          np.sin(elev)], axis=-1)
    position = direction * standoff[:, None]
    R = look_at_rotation(position, normal[:, :3] * 0.3, normal[:, 3:])
    t = (-R @ position[..., None])[..., 0]
    return Camera.stack(posed_matrices(*_uniform(_RING_INTERNALS, internals).T, R, t))


def add_image_noise(p, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Isotropic Gaussian perturbation of unit-normalized image points.

    Takes one point or a stack; the noise of a stack is drawn in one call,
    the stream of drawing it point by point.
    """
    p = np.asarray(p, dtype=float)
    p = p / pc._norms(p)
    if sigma == 0.0:
        return p
    q = p + sigma * rng.standard_normal(p.shape)
    return q / pc._norms(q)


@dataclass
class Trajectory:
    """A moving (or fixed) point with a parametric position law."""

    kind: str                      # static | line | conic | cubic
    curve: RationalCurve3D | None  # None for static
    anchor: np.ndarray | None = None

    def positions(self, times) -> np.ndarray:
        """Unit positions at the given times, one row each.

        Curve points are ``RationalCurve3D.points`` with the first coordinate
        above 1e-12 in magnitude made positive (:func:`polycore.sign_normalize_rows`).
        """
        times = np.asarray(times, dtype=float)
        if self.kind == "static":
            return np.tile(self.anchor, (times.size, 1))
        return pc.sign_normalize_rows(self.curve.points(times))


def make_trajectory(kind: str, rng: np.random.Generator) -> Trajectory:
    """Seeded trajectory preset for the motion classifier."""
    if kind == "static":
        P = np.concatenate([rng.standard_normal(3), [rng.uniform(0.7, 1.3)]])
        return Trajectory("static", None, anchor=P / np.linalg.norm(P))
    if kind == "line":
        C = rng.standard_normal((4, 2))
        return Trajectory("line", RationalCurve3D(C))
    if kind == "conic":
        return Trajectory("conic", preset_curve("conic", int(rng.integers(2**31))))
    if kind == "cubic":
        return Trajectory("cubic", preset_curve("twisted_cubic", int(rng.integers(2**31))))
    raise CurveModelError(f"unknown trajectory kind {kind!r}")


@dataclass
class DynamicScene:
    """Unsynchronized observations of one moving point by several cameras.

    ``detections`` is the pair ``(ids, points)``: an (n, 3) int array of camera,
    point and frame ids and the (n, 3) unit image points, by camera, then frame.
    """

    cameras: list[Camera]
    trajectory: Trajectory
    detections: tuple[np.ndarray, np.ndarray]


def lines_missing_points(points, rng: np.random.Generator, count: int,
                         min_gap: float = 0.25) -> np.ndarray:
    """Random lines that stay clear of every given point by min_gap.

    Almost every random line misses a curve, but near-misses evaluate small
    on any form that vanishes on the curve; separation oracles need lines
    bounded away from it.
    """
    points = np.asarray(points, dtype=float)
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    kept = []
    while len(kept) < count:
        L = join_points(rng.standard_normal(4), rng.standard_normal(4))
        L = L / np.linalg.norm(L)
        W = point_line_matrix(L)
        if np.linalg.norm(points @ W.T, axis=1).min() >= min_gap:
            kept.append(L)
    return np.array(kept)


def observe_trajectory(kind: str, rng: np.random.Generator, n_cameras: int = 10,
                       frames_per_camera: int = 15, noise_sigma: float = 0.0,
                       point_id: int = 0) -> DynamicScene:
    """Sample a trajectory with per-camera clocks that share no common rate.

    Each camera draws its clock offset and stride, then per frame a time
    jitter and, when noise_sigma > 0, a 3-vector of image noise, so the
    random stream is that of observing camera by camera.  Without noise
    every draw is a uniform, so a noise-free scene draws all its clocks in
    one call on that same stream.  The times of all cameras are formed at
    once, and the positions at them evaluated once and projected row by row
    by one call with the ring's stacked matrices into the ``(ids, points)``
    detection arrays.  A frame whose point projects to the camera center yields no
    detection but still consumes its noise draw, so the stream does not
    depend on it.
    """
    traj = make_trajectory(kind, rng)
    cams = camera_ring(rng, n_cameras)
    frames = np.arange(frames_per_camera)
    if noise_sigma == 0.0:
        u = rng.random((n_cameras, frames_per_camera + 2))
        clock, unit_jitter = u[:, :2], u[:, 2:]
    else:
        clock = np.empty((n_cameras, 2))
        unit_jitter = np.empty((n_cameras, frames_per_camera))
        noise = np.empty((n_cameras, frames_per_camera, 3))
        for ci in range(n_cameras):
            clock[ci] = rng.random(2)
            for k in frames:
                unit_jitter[ci, k] = rng.random()
                noise[ci, k] = rng.standard_normal(3)
    offset, stride = _uniform(_CLOCK, clock).T
    stride = stride * np.pi / frames_per_camera
    times = offset[:, None] + stride[:, None] * frames + (0.1 * stride)[:, None] * unit_jitter
    P = traj.positions(times.ravel()).reshape(n_cameras, frames_per_camera, 4)
    p = _map_rows(np.array([cam.M for cam in cams])[:, None], P)
    norms = np.sqrt((p * p).sum(axis=-1))
    keep = norms > 1e-9
    p = p / np.where(keep, norms, 1.0)[..., None]
    if noise_sigma != 0.0:
        p = p + noise_sigma * noise
        p = p / np.sqrt((p * p).sum(axis=-1))[..., None]
    cis, ks = np.nonzero(keep)
    ids = np.stack([cis, np.full_like(cis, point_id), ks], axis=1)
    return DynamicScene(cams, traj, (ids, p[cis, ks]))
