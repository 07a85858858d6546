"""Rational space curves, their projections, and plane-curve numerology.

A curve is held as a 4 x (d+1) coefficient matrix over the binary monomials
``t^d, t^(d-1) s, ..., s^d``; the real points are swept by the angle chart
``(t, s) = (cos th, sin th)`` on ``[0, pi)``.  Presets are randomized by a
seeded projective transform so that repeated draws share no special position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import CurvemvgError
from . import polycore as pc
from .polycore import HomogeneousPolynomial, enumerate_monomials
from .projective_cameras import PLUCKER_PAIRS, Camera, GeometryError, _map_rows

PRESET_NAMES = ("conic", "twisted_cubic", "rational_quartic", "rational_quintic")


class CurveModelError(CurvemvgError):
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
def _exponent_tables(degree: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only exponents d..0 (powers of t) and 0..d (of s); contiguous, since a
    # reversed view sends numpy to a strided pow loop that rounds differently.
    # A pair, since unpacking the rows of one array builds two views on every call
    down, up = np.arange(degree, -1, -1), np.arange(degree + 1)
    down.setflags(write=False)
    up.setflags(write=False)
    return down, up


def _binary_monomials(theta: float | np.ndarray, degree: int) -> np.ndarray:
    down, up = _exponent_tables(degree)
    return np.cos(theta)[..., None] ** down * np.sin(theta)[..., None] ** up


def _angles(thetas) -> np.ndarray:
    return np.asarray(thetas, dtype=float).reshape(-1)


def _form_rows(mono: np.ndarray, table: np.ndarray) -> np.ndarray:
    # the binary forms along the table's last axis at each row of monomials, one
    # dot product per entry, so that a row does not depend on the others in its batch
    return np.vecdot(mono[(slice(None),) + (None,) * (table.ndim - 1)], table)


@lru_cache(maxsize=None)
def _derivative_shifts(degree: int) -> np.ndarray:
    # read-only (2, degree+1, degree): column forms of d/dt and d/ds on binary forms
    E = np.zeros((2, degree + 1, degree))
    k = np.arange(degree)
    E[0, k, k] = degree - k
    E[1, k + 1, k] = k + 1
    E.setflags(write=False)
    return E


@dataclass
class RationalCurve3D:
    """Smooth rational curve of P^3 given by binary-form coordinates."""

    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != 4 or C.shape[1] < 2:
            raise CurveModelError("coordinate matrix must be 4 x (degree+1)")
        if not np.isfinite(C).all():
            raise CurveModelError("coordinate matrix has non-finite entries")
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

    def points(self, thetas) -> np.ndarray:
        """Unit points at the angle parameters, one row each.

        Every product is taken row by row, as in :meth:`velocity` and
        :meth:`tangent_lines`, so a parameter's row does not depend on the
        others asked for with it.
        """
        P = _form_rows(_binary_monomials(_angles(thetas), self.degree), self.C)
        return P / np.linalg.norm(P, axis=1, keepdims=True)

    def velocity(self, thetas) -> np.ndarray:
        """Derivative of the point path along the angle chart, one row per angle."""
        th = _angles(thetas)
        Vt, Vs = np.moveaxis(_form_rows(_binary_monomials(th, self.degree - 1),
                                        self._partials), 1, 0)
        return -np.sin(th)[:, None] * Vt + np.cos(th)[:, None] * Vs

    @cached_property
    def tangent_form(self) -> np.ndarray:
        """Read-only 6 x (2d-1) Plucker coefficients of ``X_t ^ X_s``.

        Each row is one Plucker coordinate of the tangent line as a binary
        form over ``t^(2d-2), ..., s^(2d-2)``.  On the angle chart it equals
        d times the point joined with its velocity, so it carries every space
        tangent, every image tangent and the Kruppa tangency form.
        """
        # every coefficient is its exact value rounded once, the same on every
        # IEEE platform, since the line map of an image tangent passing near
        # the center magnifies coefficient errors: the halves of Dekker's
        # split make every product exact, and math.fsum rounds each sum once
        d, (i, j) = self.degree, np.transpose(PLUCKER_PAIRS)
        scaled = 134217729.0 * self._partials
        hi = scaled - (scaled - self._partials)
        Ct, Cs = np.stack([hi, self._partials - hi], axis=1)
        X = Ct[:, None, :, None, :, None] * Cs[None, :, None, :, None, :]
        # (6, 4, 2, d, d) signed products with the index of the s-factor
        # reversed, so that the terms of coefficient k lie on one diagonal
        X = np.moveaxis(np.concatenate([X[:, :, i, j], -X[:, :, j, i]]), 2, 0)[..., ::-1]
        terms = [np.diagonal(X, d - 1 - k, 3, 4).reshape(6, -1).tolist() for k in range(2 * d - 1)]
        form = np.array([[math.fsum(row) for row in rows] for rows in terms]).T.copy()
        form.setflags(write=False)
        return form

    def tangent_lines(self, thetas) -> np.ndarray:
        """Tangent lines at the angle parameters, one Plucker row each.

        Each row is :attr:`tangent_form` at its parameter, not normalized.
        """
        return _form_rows(_binary_monomials(_angles(thetas), 2 * self.degree - 2),
                          self.tangent_form)


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


def _is_generic(curve: RationalCurve3D) -> bool:
    # the points of RationalCurve3D.points on the grid, bit for bit
    thetas = _sample_thetas(240)
    P = _form_rows(_grid_monomials(curve.degree), curve.C)
    P = P / np.linalg.norm(P, axis=1, keepdims=True)
    # immersion: velocity never parallel to the point
    p, v = P[::6, :, None], curve.velocity(thetas[::6])[:, None, :]
    wedge = p * v - np.swapaxes(p * v, 1, 2)
    if np.any(np.linalg.norm(wedge, axis=(1, 2)) < 1e-8):
        return False
    # injectivity: well-separated parameters give distinct points
    G = P @ P.T
    np.abs(G, out=G)
    return not np.any((G > 1.0 - 1e-8) & _separated(240))


@lru_cache(maxsize=None)
def _grid_monomials(degree: int) -> np.ndarray:
    # read-only binary monomials of the genericity grid, _sample_thetas(240)
    table = _binary_monomials(_sample_thetas(240), degree)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _separated(n: int) -> np.ndarray:
    # read-only mask of sample pairs at least 8 steps apart around the circle
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    mask = np.minimum(sep, n - sep) >= 8
    mask.setflags(write=False)
    return mask


def _projected_points(curve: RationalCurve3D, cam: Camera, thetas) -> np.ndarray:
    pts = cam.project(curve.points(thetas))
    norms = np.linalg.norm(pts, axis=1)
    if norms.min() <= 1e-9:
        raise GeometryError("curve passes through the camera center")
    return pts / norms[:, None]


def implicit_image_curve(curve: RationalCurve3D, cam: Camera) -> HomogeneousPolynomial:
    """Fit the implicit degree-d form of the projected curve.

    Uses twice as many samples along the parametrization as the form has
    coefficients (at least 6 more), then validates the fitted form on a
    held-out set.  An ambiguous nullspace or a bad held-out residual raises,
    since either means the projection is not a generic degree-d plane curve.
    One projection serves both sets, so a held-out point at the camera
    center raises :class:`GeometryError` before the ambiguity check; both
    refusals are :class:`CurvemvgError`.
    """
    basis = enumerate_monomials(3, curve.degree)
    n = max(2 * basis.size, basis.size + 6)
    thetas = np.concatenate([_sample_thetas(n), _sample_thetas(37, offset=0.41)])
    pts = _projected_points(curve, cam, thetas)
    return _accepted_form(basis, pts, n, "implicit", "samples", 1e-7)


def _accepted_form(basis, rows: np.ndarray, n: int, fit: str, held: str,
                   tol: float) -> HomogeneousPolynomial:
    # the one acceptance step of both image fits: the first n rows fit the
    # form, a gap at or above the ambiguity cut refuses it, and every later
    # row must vanish on it to within tol
    f, gap = pc.fit_vanishing_form(basis, rows[:n])
    if gap >= 1e-3:
        raise CurveModelError(f"{fit} fit is ambiguous (gap {gap:.2e})")
    resid = np.abs(f(rows[n:])).max()
    if resid > tol:
        raise CurveModelError(f"{fit} fit fails held-out {held} ({resid:.2e})")
    return f


def image_tangents(curve: RationalCurve3D, cam: Camera, thetas) -> np.ndarray:
    """Tangent lines of the image curve at the projections of ``thetas``, as rows.

    Each row is the camera's line map applied to the curve's tangent form at
    the parameter, i.e. the projected point crossed with the projected
    velocity, unit-normalized with its first significant coordinate positive
    (the real convention of :func:`polycore.sign_normalize`).  Every product
    is taken row by row, so a parameter's row does not depend on the others
    asked for with it.  A parameter whose tangent line meets the camera
    center (the center on the tangent, or a curve point at the center) raises.
    The center test and the unit scaling read one pass of squared row norms.
    """
    L = curve.tangent_lines(thetas)
    l = _map_rows(cam.line_matrix, L)
    sq = (l * l).sum(axis=1)
    if (sq <= 1e-20 * np.vecdot(L, L)).any():
        raise GeometryError("the tangent line meets the camera center at this parameter")
    return pc._signed_rows(l / np.sqrt(sq)[:, None])


def image_tangent(curve: RationalCurve3D, cam: Camera, theta: float) -> np.ndarray:
    """Tangent line of the image curve at the projection of ``theta``.

    The one-row call of :func:`image_tangents`, equal to its row bit for bit.
    """
    return image_tangents(curve, cam, theta)[0]


def fit_dual_image_curve(curve: RationalCurve3D, cam: Camera) -> HomogeneousPolynomial:
    """Form of degree 2d+2g-2 vanishing on every tangent of the image.

    Fits twice as many sampled tangents as the form has coefficients (at
    least 8 more) and validates the form on held-out tangents.  One call
    samples both sets, so a held-out tangent through the camera center
    raises :class:`GeometryError` before the ambiguity check; both
    refusals are :class:`CurvemvgError`.
    """
    m = class_of(curve.degree, 0)
    basis = enumerate_monomials(3, m)
    n = max(2 * basis.size, basis.size + 8)
    thetas = np.concatenate([_sample_thetas(n), _sample_thetas(41, offset=0.27)])
    return _accepted_form(basis, image_tangents(curve, cam, thetas), n, "dual", "tangents", 1e-6)


# fixed generic weights of the three pulled-back partials in find_nodes
_NODE_MIX = np.array([0.5772, -0.3679, 0.7071])


def find_nodes(curve: RationalCurve3D, cam: Camera,
               f: HomogeneousPolynomial) -> list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """Nodes of the image curve, each with the two parameters that meet there.

    Each partial of the image form ``f``, pulled back along the image
    parametrization ``cam.M @ curve.C``, is a binary form of degree d(d-1).
    On the curve the gradient is the tangent line times a form that vanishes
    exactly at the node parameters, so these are the roots of one fixed
    combination at which all three partials vanish (below 1e-9 of their
    largest coefficient).  Roots that map to one image point are paired.
    Each node comes back as a unit point with its two parameters as unit
    (t : s) rows, complex where needed.  Acnodes, whose two parameters are
    complex conjugate, are found too, and like crossnodes give a real point;
    the other complex nodes come in conjugate pairs of complex points.
    """
    d = curve.degree
    K = cam.M @ curve.C
    n = d * (d - 1)
    # monomial y^a of the d+1 coordinates y_k = t^(d-k) s^k has s-degree sum(k a_k)
    sdeg = enumerate_monomials(d + 1, d - 1).exponent_array() @ np.arange(d + 1)
    forms = np.stack([pc.pullback(g, K).coeffs for g in pc.gradient(f)])
    forms = forms @ (sdeg[:, None] == np.arange(n + 1))
    roots, _ = pc._binary_roots(_NODE_MIX @ forms)
    vals = np.abs(pc.monomial_rows(enumerate_monomials(2, n), roots) @ forms.T)
    roots = roots[vals.max(axis=1) <= 1e-9 * np.abs(forms).max()]
    X = pc.monomial_rows(enumerate_monomials(2, d), roots) @ K.T
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    G = np.abs(X.conj() @ X.T)
    np.fill_diagonal(G, 0.0)
    nodes = []
    for i, j in enumerate(G.argmax(axis=1) if len(G) else []):
        if i < j and G[j].argmax() == i and G[i, j] > 1.0 - 1e-12:
            p = pc.sign_normalize(X[i])
            nodes.append((p.real if np.abs(p.imag).max() <= 1e-8 else p, (roots[i], roots[j])))
    return nodes
