"""Projective cameras, Plucker lines, and two-view epipolar geometry.

Conventions fixed here and used everywhere else:

* points of P^3 are 4-vectors, image points 3-vectors, both up to scale;
* a camera is a full-rank 3x4 matrix whose rows are the planes pulled back
  from the image coordinate lines;
* Plucker coordinates are ordered ``(p01, p02, p03, p23, p31, p12)``
  (:data:`PLUCKER_PAIRS`) with ``p_ij = P_i Q_j - P_j Q_i`` for a join of
  points P, Q; the line functions act on the last axis, so they take one
  vector or a stack;
* the incidence pairing of two lines contracts one vector against the
  block-swap of the other, and a 6-vector is a line iff it is isotropic for
  that pairing (the quadric ``p01 p23 + p02 p31 + p03 p12 = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import CurvemvgError
from .polycore import cosine_similarity, sign_normalize


class GeometryError(CurvemvgError):
    """Raised for degenerate geometric configurations."""


# the one Plucker coordinate order: coordinate k of the join of P and Q is
# p_ij = P_i Q_j - Q_i P_j for (i, j) = PLUCKER_PAIRS[k]
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
_PAIR_I, _PAIR_J = np.transpose(PLUCKER_PAIRS)
_SWAP = [3, 4, 5, 0, 1, 2]


def _coords(x, n: int) -> np.ndarray:
    # the one shape check: points and planes have 4 coordinates, lines 6,
    # along the last axis of a single vector or a stack
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != n:
        raise GeometryError(f"expected {n} coordinates on the last axis, got shape {x.shape}")
    return x


def _wedge(P, Q) -> np.ndarray:
    # the one line kernel: the p_ij of PLUCKER_PAIRS over the last axis, for
    # two points (the join) or two planes (the meet, block-swapped)
    P, Q = _coords(P, 4), _coords(Q, 4)
    return P[..., _PAIR_I] * Q[..., _PAIR_J] - Q[..., _PAIR_I] * P[..., _PAIR_J]


def swap_blocks(L) -> np.ndarray:
    """Exchange the two 3-blocks of Plucker vectors (self-duality map)."""
    return _coords(L, 6)[..., _SWAP]


def incidence(L1, L2):
    """Incidence pairing, row by row; zero iff the two lines meet."""
    return (_coords(L1, 6) * swap_blocks(L2)).sum(axis=-1)


def grassmann_residual(L):
    """Normalized distance of 6-vectors from the quadric of actual lines.

    ``|L . swap(L)| / (2 |L|^2)`` of each row: a float for one vector, an
    array for a stack.  Zero rows raise.
    """
    L = _coords(L, 6)
    nn = np.vecdot(L, L)
    if np.any(nn == 0.0):
        raise GeometryError("zero vector is not a line")
    return np.abs(incidence(L, L)) / (2.0 * nn)


def _check_on_quadric(L) -> None:
    # the one line-quadric gate: a 6-vector, or every row of a stack, within 1e-7
    residual = grassmann_residual(L)
    if np.any(residual > 1e-7):
        raise GeometryError(f"6-vector misses the line quadric (residual {np.max(residual):.2e})")


def join_points(P, Q) -> np.ndarray:
    """Plucker coordinates of the lines through pairs of distinct points of P^3."""
    L = _wedge(P, Q)
    if np.any(np.linalg.norm(L, axis=-1) <= 1e-14 * (
            np.linalg.norm(P, axis=-1) * np.linalg.norm(Q, axis=-1) + 1e-300)):
        raise GeometryError("join of equal points (or meet of equal planes) is undefined")
    return L


def meet_planes(A, B) -> np.ndarray:
    """Plucker coordinates of the intersection lines of pairs of distinct planes."""
    return swap_blocks(join_points(A, B))


def plucker_matrix(L) -> np.ndarray:
    """Antisymmetric matrices ``W_ij = p_ij`` of lines; ``W @ A`` is the meet with plane A."""
    L = _coords(L, 6)
    W = np.zeros(L.shape[:-1] + (4, 4), dtype=np.result_type(L, 0.0))
    W[..., _PAIR_I, _PAIR_J] = L
    W[..., _PAIR_J, _PAIR_I] = -L
    return W


def point_line_matrix(L) -> np.ndarray:
    """Matrices annihilating exactly the points lying on the lines."""
    return plucker_matrix(swap_blocks(L))


def line_span_planes(L) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal planes whose intersection is the line, for each line of a stack."""
    _, s, Vt = np.linalg.svd(plucker_matrix(L))
    if np.any(s[..., 1] <= 1e-10 * s[..., 0]):
        raise GeometryError("degenerate line has no plane pencil")
    return Vt[..., -1, :], Vt[..., -2, :]


def line_span_points(L) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal points spanning a line, for each line of a stack."""
    return line_span_planes(swap_blocks(L))


def cross_matrix(v) -> np.ndarray:
    """3x3 antisymmetric matrix of the cross product with ``v``."""
    x, y, z = np.asarray(v)
    zero = 0.0 * x
    return np.array([[zero, -z, y], [z, zero, -x], [-y, x, zero]])


@dataclass(frozen=True)
class PluckerLine:
    """A line of P^3 held as a unit-norm Plucker vector."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (6,):
            raise GeometryError("Plucker vectors have six coordinates")
        if not np.isfinite(v).all():
            raise GeometryError("Plucker vector has non-finite entries")
        _check_on_quadric(v)
        object.__setattr__(self, "v", sign_normalize(v))


def _checked_matrices(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the one camera kernel: scale each (3, 4) block of a stack to unit norm,
    # then one batched SVD serves every rank check and every center.  A zero
    # matrix stays zero and fails the check, at np.linalg.matrix_rank's
    # tolerance.  Scaling by a power of two is exact and keeps the norm
    # finite and nonzero at any scale.
    if not np.isfinite(M).all():
        raise GeometryError("camera matrix has non-finite entries")
    M = np.ldexp(M, -np.frexp(np.abs(M).max(axis=(1, 2)))[1][:, None, None])
    flat = M.reshape(len(M), 12)
    M = M / np.maximum(np.sqrt(np.vecdot(flat, flat)), np.finfo(float).tiny)[:, None, None]
    _, s, Vt = np.linalg.svd(M)
    if np.any(s[:, 2] <= s[:, 0] * 4 * np.finfo(float).eps):
        raise GeometryError("camera matrix must have rank 3")
    return M, Vt[:, -1]


def _map_rows(A, X) -> np.ndarray:
    # the one camera product: A (M, M.T, ray_matrix or line_matrix, or a stack of
    # them) on each row of X alone; A goes first as np.vecdot conjugates it
    return np.vecdot(A, _coords(X, A.shape[-1])[..., None, :])


def _ray_matrices(M: np.ndarray) -> np.ndarray:
    # the one ray-matrix kernel: (k, 3, 4) cameras to their (k, 6, 3) lifts,
    # the meets of the row pairs (1, 2), (2, 0), (0, 1)
    return swap_blocks(_wedge(M[:, [1, 2, 0]], M[:, [2, 0, 1]])).mT.copy()


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
    """Projective camera ``p ~ M P`` with its ray map and a cached line map.

    ``ray_matrix`` is the 6x3 lift whose column j is the optical ray of the
    j-th image basis point, :func:`meet_planes` of the row pairs (1, 2),
    (2, 0), (0, 1); one kernel builds it for a camera or a whole :meth:`stack`.
    """

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        if M.shape != (3, 4):
            raise GeometryError("camera matrices are 3x4")
        (self.M,), (self._null,) = _checked_matrices(M[None])
        (self.ray_matrix,) = _ray_matrices(self.M[None])

    @classmethod
    def stack(cls, M) -> list["Camera"]:
        """One camera per block of a (k, 3, 4) array: one batched SVD, one ray-matrix call."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 3 or M.shape[1:] != (3, 4):
            raise GeometryError("camera matrices are 3x4")
        M, null = _checked_matrices(M)
        cams = []
        for Mk, nk, Rk in zip(M, null, _ray_matrices(M)):
            cam = cls.__new__(cls)
            cam.M, cam._null, cam.ray_matrix = Mk, nk, Rk
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
    def line_matrix(self) -> np.ndarray:
        """3x6 map sending a Plucker vector to the image of that line.

        Equal to the transpose of :attr:`ray_matrix` read through the
        incidence pairing, i.e. ``ray_matrix.T`` composed with the block swap.
        """
        return swap_blocks(self.ray_matrix.T)

    def project(self, P) -> np.ndarray:
        """The one projection: unscaled image points ``M P``, of a point or row by row."""
        return _map_rows(self.M, P)

    def rays(self, p) -> np.ndarray:
        """The one ray lift: unscaled optical rays ``ray_matrix p``, of a point or row by row."""
        return _map_rows(self.ray_matrix, p)

    def __repr__(self):
        return f"Camera({np.array2string(self.M, precision=4)})"


@dataclass(frozen=True)
class EpipolarGeometry:
    """Fundamental matrix with both epipoles, kept mutually consistent."""

    F: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        F = _finite(self.F, "fundamental matrix")
        if F.shape != (3, 3):
            raise GeometryError("fundamental matrices are 3x3")
        e1, e2 = _finite(self.e1, "epipole"), _finite(self.e2, "epipole")
        if np.linalg.norm(F) == 0.0:
            raise GeometryError("fundamental matrix must be nonzero")
        F = F / np.linalg.norm(F)
        s = np.linalg.svd(F, compute_uv=False)
        if s[1] <= 1e-10 * s[0]:
            raise GeometryError("fundamental matrix must have rank 2")
        if s[2] > 1e-7 * s[0]:
            raise GeometryError(
                f"fundamental matrix must be singular (sigma3/sigma1 = {s[2]/s[0]:.2e})")
        e1, e2 = sign_normalize(e1), sign_normalize(e2)
        if np.linalg.norm(F @ e1) > 1e-7 or np.linalg.norm(F.T @ e2) > 1e-7:
            raise GeometryError("epipoles must span the kernels of F")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @classmethod
    def from_F(cls, F) -> "EpipolarGeometry":
        """Project a near-rank-2 matrix onto the epipolar manifold."""
        U, s, Vt = np.linalg.svd(_finite(F, "fundamental matrix"))
        F2 = (U * np.array([s[0], s[1], 0.0])) @ Vt
        return cls(F2 / np.linalg.norm(F2), Vt[-1], U[:, -1])


def _finite(x, what: str) -> np.ndarray:
    # the epipolar geometry's entry check: a float array without NaN or inf
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise GeometryError(f"{what} has non-finite entries")
    return x


def fundamental(cam1: Camera, cam2: Camera) -> EpipolarGeometry:
    """Epipolar geometry of a camera pair with distinct centers."""
    O1, O2 = cam1.center, cam2.center
    if cosine_similarity(O1, O2) >= 1.0 - 1e-12:
        raise GeometryError("coincident camera centers admit no epipolar geometry")
    F = cam2.line_matrix @ cam1.ray_matrix
    return EpipolarGeometry(F / np.linalg.norm(F), sign_normalize(cam1.project(O2)),
                            sign_normalize(cam2.project(O1)))


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


def triangulate(rays) -> np.ndarray:
    """The one triangulation: the common point ``(..., 4)`` of each ``(..., k, 6)`` ray stack.

    Linear (DLT) triangulation (Hartley & Zisserman, *Multiple View Geometry*,
    2nd ed., sec. 12.2): the least singular vector of each stack's point-line
    matrices read as one (4k, 4) system, from one batched SVD.  Unit norm,
    free in sign or phase; complex rays give complex points.
    """
    W = point_line_matrix(rays)
    W = W.reshape(W.shape[:-3] + (4 * W.shape[-3], 4))
    return np.linalg.svd(W, full_matrices=False)[2][..., -1, :].conj()
