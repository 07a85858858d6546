"""Projective cameras, Plucker lines, and two-view epipolar geometry.

Conventions fixed here and used everywhere else:

* points of P^3 are 4-vectors, image points 3-vectors, both up to scale;
* a camera is a full-rank 3x4 matrix whose rows are the planes pulled back
  from the image coordinate lines;
* Plucker coordinates are ordered ``(p01, p02, p03, p23, p31, p12)`` with
  ``p_ij = P_i Q_j - P_j Q_i`` for a join of points P, Q;
* the incidence pairing of two lines contracts one vector against the
  block-swap of the other, and a 6-vector is a line iff it is isotropic for
  that pairing (the quadric ``p01 p23 + p02 p31 + p03 p12 = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polycore import cosine_similarity, sign_normalize

RAY_TOL = 1e-10


class GeometryError(ValueError):
    """Raised for degenerate geometric configurations."""


def _swap_blocks(L: np.ndarray) -> np.ndarray:
    return np.concatenate([L[3:], L[:3]])


def swap_blocks(L) -> np.ndarray:
    """Exchange the two 3-blocks of a Plucker vector (self-duality map)."""
    L = np.asarray(L)
    if L.shape != (6,):
        raise GeometryError("Plucker vectors have six coordinates")
    return _swap_blocks(L)


def incidence(L1, L2) -> float | complex:
    """Incidence pairing; zero iff the two lines meet."""
    L1 = np.asarray(L1)
    L2 = np.asarray(L2)
    return L1 @ _swap_blocks(L2)


def grassmann_residual(L) -> float:
    """Normalized distance of a 6-vector from the quadric of actual lines."""
    L = np.asarray(L)
    n = np.linalg.norm(L)
    if n == 0.0:
        raise GeometryError("zero vector is not a line")
    return float(abs(L @ _swap_blocks(L)) / (2.0 * n * n))


def join_points(P, Q) -> np.ndarray:
    """Plucker coordinates of the line through two distinct points of P^3."""
    P = np.asarray(P)
    Q = np.asarray(Q)
    pairs = np.outer(P, Q) - np.outer(Q, P)
    L = np.array([pairs[0, 1], pairs[0, 2], pairs[0, 3],
                  pairs[2, 3], pairs[3, 1], pairs[1, 2]])
    if np.linalg.norm(L) <= 1e-14 * (np.linalg.norm(P) * np.linalg.norm(Q) + 1e-300):
        raise GeometryError("join of equal points is undefined")
    return L


def meet_planes(A, B) -> np.ndarray:
    """Plucker coordinates of the intersection line of two distinct planes."""
    A = np.asarray(A)
    B = np.asarray(B)
    pairs = np.outer(A, B) - np.outer(B, A)
    dual = np.array([pairs[0, 1], pairs[0, 2], pairs[0, 3],
                     pairs[2, 3], pairs[3, 1], pairs[1, 2]])
    if np.linalg.norm(dual) <= 1e-14 * (np.linalg.norm(A) * np.linalg.norm(B) + 1e-300):
        raise GeometryError("meet of equal planes is undefined")
    return _swap_blocks(dual)


def plucker_matrix(L) -> np.ndarray:
    """Antisymmetric matrix of a line; right-multiplying a plane gives the meet point."""
    a01, a02, a03, a23, a31, a12 = np.asarray(L)
    return np.array([
        [0.0 * a01, a01, a02, a03],
        [-a01, 0.0 * a01, a12, -a31],
        [-a02, -a12, 0.0 * a01, a23],
        [-a03, a31, -a23, 0.0 * a01],
    ])


def point_line_matrix(L) -> np.ndarray:
    """Matrix annihilating exactly the points lying on the line."""
    return plucker_matrix(_swap_blocks(np.asarray(L)))


# every entry of point_line_matrix is one coordinate of the line, signed, so
# a single (16, 6) matrix of 0 and +-1 maps stacked lines to their matrices
_POINT_LINE_MAP = np.stack([point_line_matrix(e) for e in np.eye(6)],
                           axis=-1).reshape(16, 6)


def point_line_matrices(lines) -> np.ndarray:
    """:func:`point_line_matrix` of each row of an (n, 6) array, as (n, 4, 4)."""
    return (np.asarray(lines) @ _POINT_LINE_MAP.T).reshape(-1, 4, 4)


def meet_line_plane(L, A) -> np.ndarray:
    """Intersection point of a line with a plane not containing it."""
    P = plucker_matrix(L) @ np.asarray(A)
    if np.linalg.norm(P) <= 1e-12 * (np.linalg.norm(L) * np.linalg.norm(A) + 1e-300):
        raise GeometryError("plane contains the line, meet point is undefined")
    return P


def line_span_points(L) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal points spanning a line."""
    W = point_line_matrix(L)
    _, s, Vt = np.linalg.svd(W)
    if s[1] <= 1e-10 * s[0]:
        raise GeometryError("degenerate line has no two-point span")
    return Vt[-1], Vt[-2]


def line_span_planes(L) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal planes whose intersection is the line."""
    W = plucker_matrix(L)
    _, s, Vt = np.linalg.svd(W)
    if s[1] <= 1e-10 * s[0]:
        raise GeometryError("degenerate line has no plane pencil")
    return Vt[-1], Vt[-2]


def cross_matrix(v) -> np.ndarray:
    """3x3 antisymmetric matrix of the cross product with ``v``."""
    x, y, z = np.asarray(v)
    zero = 0.0 * x
    return np.array([[zero, -z, y], [z, zero, -x], [-y, x, zero]])


def line_map(V) -> np.ndarray:
    """6x6 action on Plucker coordinates induced by a 4x4 point transform."""
    V = np.asarray(V)
    if V.shape != (4, 4):
        raise GeometryError("point transforms are 4x4")
    pairs = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2)]
    W = np.empty((6, 6), dtype=V.dtype)
    for col, (a, b) in enumerate(pairs):
        W[:, col] = join_points(V[:, a], V[:, b])
    return W


@dataclass(frozen=True)
class PluckerLine:
    """A line of P^3 held as a unit-norm Plucker vector."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (6,):
            raise GeometryError("Plucker vectors have six coordinates")
        if np.linalg.norm(v) == 0.0:
            raise GeometryError("zero vector is not a line")
        if grassmann_residual(v) > 1e-7:
            raise GeometryError(
                f"6-vector misses the line quadric (residual {grassmann_residual(v):.2e})")
        object.__setattr__(self, "v", sign_normalize(v))

    @classmethod
    def from_points(cls, P, Q) -> "PluckerLine":
        return cls(join_points(P, Q))

    def incidence(self, other) -> float:
        other = other.v if isinstance(other, PluckerLine) else np.asarray(other)
        return float(incidence(self.v, other))

    def span_points(self) -> tuple[np.ndarray, np.ndarray]:
        return line_span_points(self.v)


def _as_line6(L) -> np.ndarray:
    return L.v if isinstance(L, PluckerLine) else np.asarray(L)


# the pairs (i, j) of meet_planes' block-swapped coordinates p_ij
_MEET_I = [2, 3, 1, 0, 0, 0]
_MEET_J = [3, 1, 2, 1, 2, 3]


def _checked_matrices(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the one camera kernel: scale each (3, 4) block of a stack to unit norm,
    # then one batched SVD serves every rank check and every center.  A zero
    # matrix stays zero and fails the check, at np.linalg.matrix_rank's
    # tolerance.  Scaling by a power of two is exact and keeps the norm
    # finite and nonzero at any scale.
    M = np.ldexp(M, -np.frexp(np.abs(M).max(axis=(1, 2)))[1][:, None, None])
    flat = M.reshape(len(M), 12)
    M = M / np.maximum(np.sqrt(np.vecdot(flat, flat)), np.finfo(float).tiny)[:, None, None]
    _, s, Vt = np.linalg.svd(M)
    if np.any(s[:, 2] <= s[:, 0] * 4 * np.finfo(float).eps):
        raise GeometryError("camera matrix must have rank 3")
    return M, Vt[:, -1]


def posed_matrices(f, alpha, s, u0, v0, R, t) -> np.ndarray:
    """Stack of ``K [R | t]`` from k sets of internals, rotations and translations.

    The internals are length-k arrays, ``R`` is (k, 3, 3) world-to-camera
    and ``t`` is (k, 3); every rotation must be special orthogonal.
    """
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    # np.allclose(R @ R.T, I, atol=1e-8), written out
    I = np.eye(3)
    if (not np.all(np.abs(R @ R.mT - I) <= 1e-8 + 1e-5 * I)
            or np.any(np.linalg.det(R) < 0)):
        raise GeometryError("pose rotation must be special orthogonal")
    K = np.zeros((len(R), 3, 3))
    K[:, 0] = np.stack([f, s, u0], axis=-1)
    K[:, 1, 1:] = np.stack([alpha * np.asarray(f), v0], axis=-1)
    K[:, 2, 2] = 1.0
    return K @ np.concatenate([R, t[..., None]], axis=-1)


class Camera:
    """Projective camera ``p ~ M P`` with cached ray and line maps."""

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        if M.shape != (3, 4):
            raise GeometryError("camera matrices are 3x4")
        (self.M,), (self._null,) = _checked_matrices(M[None])

    @classmethod
    def stack(cls, M) -> list["Camera"]:
        """One camera per block of a (k, 3, 4) array, all checked by one batched SVD."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 3 or M.shape[1:] != (3, 4):
            raise GeometryError("camera matrices are 3x4")
        M, null = _checked_matrices(M)
        cams = []
        for Mk, nk in zip(M, null):
            cam = cls.__new__(cls)
            cam.M, cam._null = Mk, nk
            cams.append(cam)
        return cams

    @classmethod
    def from_parameters(cls, f: float, alpha: float, s: float, u0: float, v0: float,
                        R, t) -> "Camera":
        """Assemble from internal parameters and a rigid pose (world-to-camera)."""
        R = np.asarray(R, dtype=float)[None]
        t = np.asarray(t, dtype=float).reshape(1, 3)
        return cls(posed_matrices(f, alpha, s, u0, v0, R, t)[0])

    @cached_property
    def center(self) -> np.ndarray:
        """Unique point annihilated by the camera matrix."""
        return sign_normalize(self._null)

    @cached_property
    def ray_matrix(self) -> np.ndarray:
        """6x3 lift: column j is the optical ray of the j-th image basis point.

        Its columns are :func:`meet_planes` of the row pairs (1, 2), (2, 0), (0, 1).
        """
        A, B = self.M[[1, 2, 0]], self.M[[2, 0, 1]]
        return (A[:, _MEET_I] * B[:, _MEET_J] - B[:, _MEET_I] * A[:, _MEET_J]).T.copy()

    @cached_property
    def line_matrix(self) -> np.ndarray:
        """3x6 map sending a Plucker vector to the image of that line.

        Equal to the transpose of :attr:`ray_matrix` read through the
        incidence pairing, i.e. ``ray_matrix.T`` composed with the block swap.
        """
        Mhat = self.ray_matrix
        return np.concatenate([Mhat[3:], Mhat[:3]], axis=0).T

    def project(self, P) -> np.ndarray:
        P = np.asarray(P)
        return (self.M @ P.T).T if P.ndim == 2 else self.M @ P

    def __repr__(self):
        return f"Camera({np.array2string(self.M, precision=4)})"


def center(cam: Camera) -> np.ndarray:
    """Camera center, the point with no image."""
    return cam.center


def optical_ray(cam: Camera, p) -> PluckerLine:
    """Line in space projecting to the image point ``p``."""
    p = np.asarray(p)
    if p.shape != (3,):
        raise GeometryError("image points have three coordinates")
    if np.linalg.norm(p) == 0.0:
        raise GeometryError("zero image point has no ray")
    return PluckerLine(cam.ray_matrix @ p)


def line_image(cam: Camera, L) -> np.ndarray:
    """Image of a space line; the zero vector flags a line through the center."""
    L6 = _as_line6(L)
    out = cam.line_matrix @ L6
    if np.linalg.norm(out) <= RAY_TOL * np.linalg.norm(L6):
        return np.zeros(3)
    return sign_normalize(out)


def homography(cam1: Camera, cam2: Camera, plane) -> np.ndarray:
    """Transfer map between images induced by a plane avoiding both centers."""
    A = np.asarray(plane)
    for cam in (cam1, cam2):
        if abs(A @ cam.center) <= 1e-9 * np.linalg.norm(A):
            raise GeometryError("plane passes through a camera center")
    cols = [plucker_matrix(cam1.ray_matrix[:, j]) @ A for j in range(3)]
    H = cam2.M @ np.stack(cols, axis=1)
    return H / np.linalg.norm(H)


@dataclass(frozen=True)
class EpipolarGeometry:
    """Fundamental matrix with both epipoles, kept mutually consistent."""

    F: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        if F.shape != (3, 3):
            raise GeometryError("fundamental matrices are 3x3")
        if np.linalg.norm(F) == 0.0:
            raise GeometryError("fundamental matrix must be nonzero")
        F = F / np.linalg.norm(F)
        s = np.linalg.svd(F, compute_uv=False)
        if s[1] <= 1e-10 * s[0]:
            raise GeometryError("fundamental matrix must have rank 2")
        if s[2] > 1e-7 * s[0]:
            raise GeometryError(
                f"fundamental matrix must be singular (sigma3/sigma1 = {s[2]/s[0]:.2e})")
        e1 = sign_normalize(np.asarray(self.e1, dtype=float))
        e2 = sign_normalize(np.asarray(self.e2, dtype=float))
        if np.linalg.norm(F @ e1) > 1e-7 or np.linalg.norm(F.T @ e2) > 1e-7:
            raise GeometryError("epipoles must span the kernels of F")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @classmethod
    def from_F(cls, F) -> "EpipolarGeometry":
        """Project a near-rank-2 matrix onto the epipolar manifold."""
        F = np.asarray(F, dtype=float)
        U, s, Vt = np.linalg.svd(F)
        F2 = (U * np.array([s[0], s[1], 0.0])) @ Vt
        return cls(F2 / np.linalg.norm(F2), Vt[-1], U[:, -1])


def fundamental(cam1: Camera, cam2: Camera) -> EpipolarGeometry:
    """Epipolar geometry of a camera pair with distinct centers."""
    O1, O2 = cam1.center, cam2.center
    if cosine_similarity(O1, O2) >= 1.0 - 1e-12:
        raise GeometryError("coincident camera centers admit no epipolar geometry")
    F = cam2.line_matrix @ cam1.ray_matrix
    e1 = cam1.project(O2)
    e2 = cam2.project(O1)
    return EpipolarGeometry(F / np.linalg.norm(F), sign_normalize(e1), sign_normalize(e2))


def canonical_pair(eg: EpipolarGeometry) -> tuple[Camera, Camera]:
    """A camera pair realizing the given epipolar geometry.

    The second camera is ``[[e2]_x F / |e2| , e2]``; the construction is
    validated only through the round trip back to F, since the pair itself is
    one representative of a projective family.
    """
    S = cross_matrix(eg.e2) @ eg.F / np.linalg.norm(eg.e2)
    M1 = Camera(np.hstack([np.eye(3), np.zeros((3, 1))]))
    M2 = Camera(np.hstack([S, eg.e2[:, None]]))
    back = fundamental(M1, M2)
    if cosine_similarity(back.F.ravel(), eg.F.ravel()) < 1.0 - 1e-9:
        raise GeometryError("canonical pair failed to reproduce the fundamental matrix")
    return M1, M2


def adjugate3(A) -> np.ndarray:
    """Adjugate of a 3x3 matrix (transpose cofactor matrix), safe for singular input."""
    A = np.asarray(A)
    if A.shape != (3, 3):
        raise GeometryError("adjugate3 expects a 3x3 matrix")
    C = np.empty_like(A)
    for i in range(3):
        for j in range(3):
            m = np.delete(np.delete(A, i, axis=0), j, axis=1)
            C[i, j] = ((-1) ** (i + j)) * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return C.T


def triangulate(cam1: Camera, p1, cam2: Camera, p2) -> np.ndarray:
    """Algebraic intersection of two optical rays (complex-safe)."""
    rows = np.vstack([
        cross_matrix(np.asarray(p1)) @ cam1.M,
        cross_matrix(np.asarray(p2)) @ cam2.M,
    ])
    _, _, Vt = np.linalg.svd(rows)
    return sign_normalize(Vt[-1].conj())
