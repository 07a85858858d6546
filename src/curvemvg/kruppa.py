"""Tangency constraints tying an epipolar geometry to curve duals.

A curve seen in two views links the unknown (F, e1) through one polynomial
identity: composing the second dual form with p -> F p must be proportional
to composing the first dual form with p -> e1 x p.  Both sides depend on p
only through the epipolar line joining e1 and p, so restricting them to one
chart of e1's pencil and cross-multiplying coefficients eliminates the
unknown scale and leaves m scalar conditions per curve, where m is the class
of the image.  The chart is the orthonormal basis of e1's complement that
:func:`epipolar_chart` builds, so no probe line is drawn.  Stacking curves
cuts the seven-dimensional manifold of epipolar geometries down to the
solution set explored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CurvemvgError
from . import polycore as pc
from .curve_models import RationalCurve3D, fit_dual_image_curve
from .polycore import HomogeneousPolynomial
from .projective_cameras import (
    Camera,
    EpipolarGeometry,
    GeometryError,
    adjugate3,
    cross_matrix,
    fundamental,
    join_points,
    line_span_points,
    swap_blocks,
)


class KruppaError(CurvemvgError):
    """Raised for invalid constraint instances or indeterminate diagnostics."""


@dataclass
class KruppaInstance:
    """Dual forms of one curve in two views plus the true pairing data."""

    phi1: HomogeneousPolynomial
    phi2: HomogeneousPolynomial
    eg: EpipolarGeometry

    def __post_init__(self):
        if self.phi1.num_vars != 3 or self.phi2.num_vars != 3:
            raise KruppaError("dual forms live on the dual plane (three variables)")
        if self.phi1.degree != self.phi2.degree:
            raise KruppaError("the two dual forms must share their degree")
        if self.phi1.degree < 2:
            raise KruppaError("class must be at least 2")
        if not (np.isfinite(self.phi1.coeffs).all() and np.isfinite(self.phi2.coeffs).all()):
            raise KruppaError("dual forms have non-finite coefficients")

    @property
    def m(self) -> int:
        return self.phi1.degree


def build_instance(curve: RationalCurve3D, cam1: Camera, cam2: Camera) -> KruppaInstance:
    """Synthetic route: fit both duals and pair them with the true geometry."""
    return KruppaInstance(fit_dual_image_curve(curve, cam1), fit_dual_image_curve(curve, cam2),
                          fundamental(cam1, cam2))


def constraint_vector(phi1: HomogeneousPolynomial, phi2: HomogeneousPolynomial,
                      e1, F, probe: tuple[np.ndarray, np.ndarray],
                      pivot: int | None = None) -> np.ndarray:
    """Scale-eliminated tangency conditions on one line of points p.

    Restricts ``phi2(F p)`` and ``phi1(e1 x p)`` to the line spanned by the
    two probe points and returns the m independent cross-differences against
    the pivot coefficient (strongest by default), normalized by both
    coefficient norms.  Any line not through e1 is a chart of e1's pencil and
    carries the same conditions; the library passes its pencil basis.
    Callers that difference repeated evaluations should freeze the pivot so
    the output stays smooth in (e1, F).
    """
    u, v, scale, strongest = _restricted_pair(phi1, phi2, e1, F, probe)
    return _cross_differences(u, v, scale, strongest if pivot is None else pivot)


def _cross_differences(u, v, scale, k):
    # the m cross-differences of a restricted pair against coefficient k
    idx = [i for i in range(len(u)) if i != k]
    return (u[idx] * v[k] - u[k] * v[idx]) / scale


def _restricted_pair(phi1, phi2, e1, F, probe):
    # the one restriction: phi2(F p) and phi1(e1 x p) on the line of the
    # probe points, the product of their norms and the strongest coefficient's index
    a, b = probe
    G = cross_matrix(e1)
    u = pc.restrict_to_line(phi2, np.asarray(F) @ a, np.asarray(F) @ b).coeffs
    v = pc.restrict_to_line(phi1, G @ a, G @ b).coeffs
    nu, nv = np.sqrt(u @ u), np.sqrt(v @ v)
    if nu <= 1e-13 or nv <= 1e-13:
        raise KruppaError("the line degenerates a restricted form")
    return u, v, nu * nv, int(np.argmax(np.abs(u) + np.abs(v)))


def detection_response(inst: KruppaInstance) -> float:
    """Largest tangency condition of one instance on its own epipolar pencil.

    Both dual forms are restricted to the pencil of ``inst.eg`` through the
    orthonormal basis :func:`epipolar_chart` reads at the geometry itself,
    so the figure takes no probe line and no seed.  It sits at fit-noise
    level at the true geometry and grows with the distance to a wrong one.
    """
    e1, F, V = epipolar_chart(inst.eg)(np.zeros(7))
    return float(np.abs(constraint_vector(inst.phi1, inst.phi2, e1, F, tuple(V.T))).max())


def classical_kruppa_residual(eg: EpipolarGeometry, C1, C2) -> float:
    """Proportionality residual of the two matrix sides of the conic case.

    For conics with matrices C1, C2 the tangency identity collapses to
    ``[e1]_x^T adj(C1) [e1]_x ~ F^T adj(C2) F``; the residual is the largest
    normalized cross-difference between the two symmetric matrices.
    """
    C1 = np.asarray(C1, dtype=float)
    C2 = np.asarray(C2, dtype=float)
    if C1.shape != (3, 3) or C2.shape != (3, 3):
        raise KruppaError("conic matrices are 3x3")
    if not (np.isfinite(C1).all() and np.isfinite(C2).all()):
        raise pc.PolynomialError("residual undefined for non-finite conic matrices")
    G = cross_matrix(eg.e1)
    lhs = G.T @ adjugate3(C1) @ G
    rhs = eg.F.T @ adjugate3(C2) @ eg.F
    return pc.proportionality_residual(lhs.ravel(), rhs.ravel())


@dataclass
class TangencyData:
    """Epipolar-tangent points of one curve under one camera pair."""

    baseline: np.ndarray          # Plucker vector of the join of centers
    params: np.ndarray            # real tangency parameters (angle chart)
    Q: np.ndarray                 # (k, 4) space points
    expected: int                 # class m of the curve


def tangency_points(curve: RationalCurve3D, cam1: Camera, cam2: Camera) -> TangencyData:
    """Parameters where the epipolar plane of the pair is tangent to the curve.

    The tangency condition is the vanishing of det[O1, O2, X_t, X_s], the
    incidence of the baseline with the curve's tangent form: a binary form
    of degree 2d-2.  The parameters are the angles of its real roots as
    :func:`polycore._binary_roots` gives them, with no polish.  A repeated
    root means the pair sits on a non-generic tangency and is rejected; a
    form that vanishes identically (both centers in the plane of a conic)
    raises :class:`polycore.PolynomialError`.
    """
    baseline = join_points(cam1.center, cam2.center)
    coeff = swap_blocks(baseline) @ curve.tangent_form
    roots, sep = pc._binary_roots(coeff)
    if sep < 1e-7:
        raise GeometryError("repeated tangency parameters: non-generic camera pair")
    # s is real, so a root is real when t is
    real = roots[np.abs(roots[:, 0].imag) <= 1e-8].real
    params = np.sort(np.arctan2(real[:, 1], real[:, 0]) % np.pi)
    Q = pc.sign_normalize_rows(curve.points(params))
    return TangencyData(baseline, params, Q, 2 * curve.degree - 2)


def quadric_degeneracy(td: TangencyData) -> bool:
    """Whether some quadric contains the baseline and every tangency point.

    Three points pin the baseline (a quadric through three collinear points
    contains the line), so with m tangencies the test matrix has 3 + m rows
    against the ten quadric coefficients; a numerically defective rank means
    the degeneracy is present.
    """
    basis = pc.enumerate_monomials(4, 2)
    A, B = line_span_points(td.baseline)
    line_pts = np.stack([A, B, A + B])
    line_pts = line_pts / np.linalg.norm(line_pts, axis=1, keepdims=True)
    pts = np.vstack([line_pts, td.Q]) if td.Q.size else line_pts
    rows = pc.monomial_rows(basis, pts)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    rank, _ = pc.numerical_rank(rows, rel_tol=1e-8)
    return rank < basis.size


def epipolar_chart(eg: EpipolarGeometry):
    """Local 7-parameter chart of the epipolar manifold around ``eg``.

    Two parameters move each epipole inside its projective chart and three
    move the rank-2 core with both kernels pinned; returns a callable
    ``theta -> (e1, F, V)`` with ``theta = 0`` reproducing the input, where
    the columns of V are an orthonormal basis of e1's complement: the
    pencil chart, whose points p = V c give every line through e1 once, as
    e1 x p.
    """
    U, s, Vt = np.linalg.svd(eg.F)
    v1, v2 = Vt[0], Vt[1]
    u1, u2 = U[:, 0], U[:, 1]
    e1_0, e2_0 = Vt[2], U[:, 2]
    S0 = np.diag(s[:2])
    # complement of span(S0) inside 2x2 matrices
    q, _ = np.linalg.qr(np.column_stack([S0.ravel(), np.eye(4)]))
    S_dirs = [q[:, k].reshape(2, 2) for k in range(1, 4)]

    def chart(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e1 = e1_0 + theta[0] * v1 + theta[1] * v2
        e1 = e1 / np.sqrt(e1 @ e1)
        e2 = e2_0 + theta[2] * u1 + theta[3] * u2
        e2 = e2 / np.sqrt(e2 @ e2)
        # bases of the perpendicular planes, smooth near theta = 0
        V = _complete_basis(e1, v1, v2)
        W = _complete_basis(e2, u1, u2)
        S = S0 + theta[4] * S_dirs[0] + theta[5] * S_dirs[1] + theta[6] * S_dirs[2]
        F = W @ S @ V.T
        return e1, F / np.sqrt(F.ravel() @ F.ravel()), V

    return chart


def _complete_basis(e: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # orthonormal basis of the plane orthogonal to e, seeded by a, b
    x = a - (a @ e) * e
    x = x / np.sqrt(x @ x)
    y = b - (b @ e) * e - (b @ x) * x
    y = y / np.sqrt(y @ y)
    return np.column_stack([x, y])


def _constraint_map(instances, eg: EpipolarGeometry):
    """The stacked constraints of all instances as a map on the 7-chart at ``eg``.

    Each instance contributes its m conditions on the chart's own pencil
    basis, with the pivots frozen at ``eg`` so that the map is smooth in the
    chart parameters.  Its norms are sqrt(x . x), so it takes complex chart
    points.
    """
    chart = epipolar_chart(eg)
    e1, F, V = chart(np.zeros(7))
    pivots = [_restricted_pair(inst.phi1, inst.phi2, e1, F, tuple(V.T))[3]
              for inst in instances]

    def func(theta: np.ndarray) -> np.ndarray:
        e1, F, V = chart(theta)
        return np.concatenate([constraint_vector(inst.phi1, inst.phi2, e1, F, tuple(V.T), k)
                               for inst, k in zip(instances, pivots)])

    return func


def _jacobian(func, theta: np.ndarray) -> np.ndarray:
    # the exact differential of the analytic map by the complex step (Squire &
    # Trapp 1998): column k is Im func(theta + i h e_k) / h, with no cancellation
    return np.stack([func(theta + d).imag for d in 1e-30j * np.eye(7)], axis=1) / 1e-30


def solution_dimension(instances, eg_truth: EpipolarGeometry) -> int:
    """Local dimension of the constraint variety at the true geometry.

    Differentiates the stacked pencil conditions of every curve through the
    7-chart exactly, by the complex step, and reads off 7 minus the
    numerical rank at 1e-10 of the largest singular value; a gap under 10
    at the cut is reported as indeterminate rather than rounded to a
    dimension.  The pencil chart carries every condition a probe line
    would, so the answer depends on no draw.
    """
    instances = list(instances)
    if not instances:
        raise KruppaError("need at least one curve instance")
    J = _jacobian(_constraint_map(instances, eg_truth), np.zeros(7))
    rank, gap = pc.numerical_rank(J, rel_tol=1e-10)
    if gap < 10.0:
        raise KruppaError(
            f"rank of the constraint Jacobian is indeterminate (gap {gap:.2f})")
    return 7 - rank
