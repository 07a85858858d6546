"""Rational space curves, their projections, and plane-curve numerology.

A curve is held as a 4 x (d+1) coefficient matrix over the binary monomials
``t^d, t^(d-1) s, ..., s^d``; the real points are swept by the angle chart
``(t, s) = (cos th, sin th)`` on ``[0, pi)``.  Presets are randomized by a
seeded projective transform so that repeated draws share no special position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polycore as pc
from .polycore import HomogeneousPolynomial, enumerate_monomials
from .projective_cameras import Camera, GeometryError, PluckerLine, join_points

PRESET_NAMES = ("conic", "twisted_cubic", "rational_quartic", "rational_quintic")


class CurveModelError(ValueError):
    """Raised when a curve instance or fit violates its contract."""


def class_of(d: int, g: int) -> int:
    """Number of tangent lines through a generic point of the plane image."""
    _check_dg(d, g)
    return 2 * d + 2 * g - 2


def node_count(d: int, g: int) -> int:
    """Number of nodes of a generic projection of a degree-d genus-g space curve."""
    _check_dg(d, g)
    return (d - 1) * (d - 2) // 2 - g


def _check_dg(d: int, g: int):
    if d < 1:
        raise CurveModelError("degree must be at least 1")
    if not 0 <= g <= (d - 1) * (d - 2) // 2:
        raise CurveModelError(f"genus {g} impossible for degree {d}")


@lru_cache(maxsize=None)
def _exponent_tables(degree: int) -> np.ndarray:
    # read-only rows d..0 (powers of t) and 0..d (of s); contiguous, since a
    # reversed view sends numpy to a strided pow loop that rounds differently
    table = np.array([np.arange(degree, -1, -1), np.arange(degree + 1)])
    table.setflags(write=False)
    return table


def _binary_monomials(theta: float | np.ndarray, degree: int) -> np.ndarray:
    down, up = _exponent_tables(degree)
    return np.cos(theta)[..., None] ** down * np.sin(theta)[..., None] ** up


def _derivative_shifts(degree: int) -> np.ndarray:
    # (2, degree+1, degree): column forms of d/dt and d/ds on binary forms
    E = np.zeros((2, degree + 1, degree))
    k = np.arange(degree)
    E[0, k, k] = degree - k
    E[1, k + 1, k] = k + 1
    return E


@dataclass
class RationalCurve3D:
    """Smooth rational curve of P^3 given by binary-form coordinates."""

    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != 4 or C.shape[1] < 2:
            raise CurveModelError("coordinate matrix must be 4 x (degree+1)")
        if np.linalg.matrix_rank(C) < min(4, C.shape[1]):
            raise CurveModelError("coordinate matrix is rank deficient")
        self.C = C
        self._partials = C @ _derivative_shifts(C.shape[1] - 1)
        self._partials.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.C.shape[1] - 1

    @property
    def genus(self) -> int:
        return 0

    def point(self, theta: float) -> np.ndarray:
        """Point at the angle parameter, unit normalized."""
        return pc.sign_normalize(self.C @ _binary_monomials(theta, self.degree))

    def points(self, thetas) -> np.ndarray:
        P = _binary_monomials(np.asarray(thetas), self.degree) @ self.C.T
        return P / np.linalg.norm(P, axis=1, keepdims=True)

    def point_at(self, t: complex, s: complex = 1.0) -> np.ndarray:
        """Point at explicit (t : s), complex parameters allowed."""
        down, up = _exponent_tables(self.degree)
        return self.C @ (np.asarray(t) ** down * np.asarray(s) ** up)

    def velocity(self, theta) -> np.ndarray:
        """Derivative of the point path along the angle chart; one row per angle."""
        return self._jet(np.asarray(theta))[1]

    def _jet(self, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # degree-d monomials and velocity at the angles, from one cos and sin;
        # the degree-(d-1) monomials are slices of the degree-d power tables
        t, s = np.cos(th)[..., None], np.sin(th)[..., None]
        down, up = _exponent_tables(self.degree)
        T, S = t ** down, s ** up
        mono = T[..., 1:] * S[..., :-1]
        return T * S, -s * (mono @ self._partials[0].T) + t * (mono @ self._partials[1].T)

    def partial_matrices(self) -> np.ndarray:
        """Read-only coefficient matrices of the two parameter partials (degree d-1)."""
        return self._partials

    def tangent_line(self, theta: float) -> PluckerLine:
        """Tangent line of the curve at the angle parameter."""
        Ct, Cs = self._partials
        mono = _binary_monomials(theta, self.degree - 1)
        return PluckerLine(join_points(Ct @ mono, Cs @ mono))

    def tangent_plane_pencil(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Two planes spanning the pencil through the tangent line."""
        from .projective_cameras import line_span_planes
        return line_span_planes(self.tangent_line(theta).v)


def _sample_thetas(n: int, offset: float = 0.0) -> np.ndarray:
    # irrational stride keeps samples off symmetric configurations
    return (np.arange(n) + 0.382 + offset) * (np.pi / n)


def preset_curve(name: str, rng_seed: int) -> RationalCurve3D:
    """Deterministic generic representative of one of the preset families.

    conic (d=2, planar), twisted_cubic (d=3), rational_quartic (d=4),
    rational_quintic (d=5); every preset is genus 0 and smooth.  The base
    shape is stirred by a seeded projective transform; degrees 4 and 5 draw
    the whole coordinate matrix from the seed so no coordinate flag survives.
    """
    if name not in PRESET_NAMES:
        raise CurveModelError(f"unknown preset {name!r}, choose from {PRESET_NAMES}")
    rng = np.random.default_rng(rng_seed)
    for _ in range(32):
        if name == "conic":
            base = np.array([[-1.0, 0.0, 1.0], [0.0, 2.0, 0.0],
                             [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        elif name == "twisted_cubic":
            base = np.eye(4)
        elif name == "rational_quartic":
            base = rng.standard_normal((4, 5))
        else:
            base = rng.standard_normal((4, 6))
        V = rng.standard_normal((4, 4))
        if np.linalg.cond(V) > 50:
            continue
        curve = RationalCurve3D(V @ base)
        if _is_generic(curve):
            return curve
    raise CurveModelError(f"could not draw a generic {name} from seed {rng_seed}")


def _is_generic(curve: RationalCurve3D, n: int = 240) -> bool:
    thetas = _sample_thetas(n)
    P = curve.points(thetas)
    # immersion: velocity never parallel to the point
    p, v = P[::6, :, None], curve.velocity(thetas[::6])[:, None, :]
    wedge = p * v - np.swapaxes(p * v, 1, 2)
    if np.any(np.linalg.norm(wedge, axis=(1, 2)) < 1e-8):
        return False
    # injectivity: well-separated parameters give distinct points
    G = P @ P.T
    np.abs(G, out=G)
    return not np.any((G > 1.0 - 1e-8) & _separated(n))


@lru_cache(maxsize=None)
def _separated(n: int) -> np.ndarray:
    # read-only mask of sample pairs at least 8 steps apart around the circle
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    mask = np.minimum(sep, n - sep) >= 8
    mask.setflags(write=False)
    return mask


@dataclass
class ImageCurve:
    """Implicit plane model of one projection of a space curve."""

    f: HomogeneousPolynomial
    degree: int
    class_m: int
    node_total: int
    gap: float

    def __call__(self, p):
        return pc.evaluate(self.f, p)


def _projected_points(curve: RationalCurve3D, cam: Camera, thetas) -> np.ndarray:
    pts = curve.points(thetas) @ cam.M.T
    norms = np.linalg.norm(pts, axis=1)
    if norms.min() <= 1e-9:
        raise GeometryError("curve passes through the camera center")
    return pts / norms[:, None]


def implicit_image_curve(curve: RationalCurve3D, cam: Camera,
                         oversample: float = 2.0) -> ImageCurve:
    """Fit the implicit degree-d form of the projected curve.

    Uses ``oversample * C(d+2, 2)`` samples along the parametrization, then
    validates the fitted form on a held-out set.  An ambiguous nullspace or a
    bad held-out residual raises, since either means the projection is not a
    generic degree-d plane curve.
    """
    d = curve.degree
    basis = enumerate_monomials(3, d)
    n = max(int(oversample * basis.size), basis.size + 6)
    f, gap = pc.fit_vanishing_form(basis, _projected_points(curve, cam, _sample_thetas(n)))
    if gap >= 1e-3:
        raise CurveModelError(f"implicit fit is ambiguous (gap {gap:.2e})")
    held = _projected_points(curve, cam, _sample_thetas(37, offset=0.41))
    resid = np.abs(pc.monomial_rows(basis, held) @ f.coeffs).max()
    if resid > 1e-7:
        raise CurveModelError(f"implicit fit fails held-out samples ({resid:.2e})")
    return ImageCurve(f, d, class_of(d, 0), node_count(d, 0), gap)


def image_tangents(curve: RationalCurve3D, cam: Camera, thetas) -> np.ndarray:
    """Tangent lines of the image curve at the projections of ``thetas``, as rows.

    Each row is the projected point crossed with the projected velocity, so
    it is the tangent of the moving branch, unit-normalized with its first
    significant coordinate positive (the real convention of
    :func:`polycore.sign_normalize`).  A parameter whose projected velocity
    degenerates raises.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    mono, vel = curve._jet(th)
    # camera rows 0, 1, 2, 0, 1: the cross product reads two shifted slices
    M = cam.M[[0, 1, 2, 0, 1]]
    p = mono @ (M @ curve.C).T
    v = vel @ M.T
    l = p[:, 1:4] * v[:, 2:5] - p[:, 2:5] * v[:, 1:4]
    p, v = p[:, :3], v[:, :3]
    norms = np.sqrt((l * l).sum(axis=1))
    scale = np.sqrt((p * p).sum(axis=1) * (v * v).sum(axis=1))
    if ((scale == 0.0) | (norms <= 1e-10 * scale)).any():
        raise GeometryError("projected velocity degenerates at this parameter")
    l = l / norms[:, None]
    lead = l[np.arange(len(l)), (np.abs(l) > 1e-12).argmax(axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)[:, None] * l


def image_tangent(curve: RationalCurve3D, cam: Camera, theta: float,
                  image_curve: ImageCurve | None = None) -> np.ndarray:
    """Tangent line of the image curve at the projection of ``theta``.

    The one-row case of :func:`image_tangents`; when the implicit model is
    supplied, landing on a singular point of the image is reported instead
    of silently returning one branch.
    """
    l = image_tangents(curve, cam, theta)[0]
    if image_curve is not None:
        p = cam.M @ curve.point(theta)
        g = pc.gradient_at(image_curve.f, p / np.linalg.norm(p))
        if np.linalg.norm(g) <= 1e-6 * np.linalg.norm(image_curve.f.coeffs):
            raise CurveModelError(
                "image point is singular (two branches cross), tangent is ambiguous")
    return l


def fit_dual_image_curve(curve: RationalCurve3D, cam: Camera,
                         oversample: float = 2.0) -> tuple[HomogeneousPolynomial, float]:
    """Dual-curve fit returning the form and its nullspace gap."""
    m = class_of(curve.degree, 0)
    basis = enumerate_monomials(3, m)
    n = max(int(oversample * basis.size), basis.size + 8)
    lines = image_tangents(curve, cam, _sample_thetas(n))
    phi, gap = pc.fit_vanishing_form(basis, lines)
    if gap >= 1e-3:
        raise CurveModelError(f"dual fit is ambiguous (gap {gap:.2e})")
    held = image_tangents(curve, cam, _sample_thetas(41, offset=0.27))
    resid = np.abs(pc.monomial_rows(basis, held) @ phi.coeffs).max()
    if resid > 1e-6:
        raise CurveModelError(f"dual fit fails held-out tangents ({resid:.2e})")
    return phi, gap


def dual_image_curve(curve: RationalCurve3D, cam: Camera) -> HomogeneousPolynomial:
    """Form of degree 2d+2g-2 vanishing on every tangent line of the image."""
    phi, _ = fit_dual_image_curve(curve, cam)
    return phi


def find_nodes(curve: RationalCurve3D, cam: Camera, image_curve: ImageCurve,
               n_grid: int = 2000, tol: float = 1e-7) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Locate nodes of the image curve by scanning for vanishing gradients.

    Walks the real parametrization, polishes every shallow local minimum of
    |grad f|, keeps the ones that reach ``tol``, and pairs up parameters that
    land on one image point; only such visible crossings are returned.  A
    secant of the space curve through the center whose two parameters are
    complex conjugate produces an isolated singular point instead, which the
    real-parameter walk cannot reach.
    """
    f = image_curve.f
    grads = pc.gradient(f)
    gbasis = grads[0].basis
    gcoeffs = np.stack([g.coeffs for g in grads])

    def gnorm(theta: float) -> float:
        p = cam.M @ curve.point(theta)
        p = p / np.linalg.norm(p)
        return float(np.linalg.norm(pc.monomial_rows(gbasis, p) @ gcoeffs.T))

    thetas = _sample_thetas(n_grid)
    pts = _projected_points(curve, cam, thetas)
    vals = np.linalg.norm(pc.monomial_rows(gbasis, pts) @ gcoeffs.T, axis=1)
    coarse = 0.2 * np.median(vals)
    hits: list[tuple[float, np.ndarray]] = []
    span = np.pi / n_grid
    for i in range(n_grid):
        lo, hi = (i - 1) % n_grid, (i + 1) % n_grid
        if vals[i] < coarse and vals[i] <= vals[lo] and vals[i] <= vals[hi]:
            th, g = pc.golden_polish(gnorm, thetas[i] - 1.5 * span,
                                     thetas[i] + 1.5 * span, 1e-13)
            if g >= tol:
                continue
            th = th % np.pi
            p = cam.M @ curve.point(th)
            hits.append((th, p / np.linalg.norm(p)))
    nodes = []
    used = [False] * len(hits)
    for i in range(len(hits)):
        if used[i]:
            continue
        for j in range(i + 1, len(hits)):
            if used[j]:
                continue
            th_i, p_i = hits[i]
            th_j, p_j = hits[j]
            sep = min(abs(th_i - th_j), np.pi - abs(th_i - th_j))
            if sep > 1e-3 and pc.cosine_similarity(p_i, p_j) > 1.0 - 1e-7:
                nodes.append((pc.sign_normalize(p_i), (th_i, th_j)))
                used[i] = used[j] = True
                break
    return nodes
