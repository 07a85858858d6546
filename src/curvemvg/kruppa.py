"""Tangency constraints tying an epipolar geometry to curve duals.

A curve seen in two views links the unknown (F, e1) through one polynomial
identity: composing the second dual form with p -> F p must be proportional
to composing the first dual form with p -> e1 x p.  Restricting both sides
to a probe line and cross-multiplying coefficients eliminates the unknown
scale and leaves m scalar conditions per curve, where m is the class of the
image.  Stacking curves cuts the seven-dimensional manifold of epipolar
geometries down to the solution set explored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class KruppaError(ValueError):
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

    @property
    def m(self) -> int:
        return self.phi1.degree


def build_instance(curve: RationalCurve3D, cam1: Camera, cam2: Camera) -> KruppaInstance:
    """Synthetic route: fit both duals and pair them with the true geometry."""
    phi1, _ = fit_dual_image_curve(curve, cam1)
    phi2, _ = fit_dual_image_curve(curve, cam2)
    return KruppaInstance(phi1, phi2, fundamental(cam1, cam2))


def constraint_vector(phi1: HomogeneousPolynomial, phi2: HomogeneousPolynomial,
                      e1, F, probe: tuple[np.ndarray, np.ndarray],
                      pivot: int | None = None) -> np.ndarray:
    """Scale-eliminated tangency conditions on one probe line.

    Restricts ``phi2(F p)`` and ``phi1(e1 x p)`` to the line spanned by the
    probe points and returns the m independent cross-differences against the
    pivot coefficient (strongest by default), normalized by both coefficient
    norms.  Callers that difference repeated evaluations should freeze the
    pivot so the output stays smooth in (e1, F).
    """
    u, v, scale, strongest = _restricted_pair(phi1, phi2, e1, F, probe)
    return _cross_differences(u, v, scale, strongest if pivot is None else pivot)


def _cross_differences(u, v, scale, k):
    # the m cross-differences of a restricted pair against coefficient k
    idx = [i for i in range(len(u)) if i != k]
    return (u[idx] * v[k] - u[k] * v[idx]) / scale


def _restricted_pair(phi1, phi2, e1, F, probe):
    # the one probe restriction: phi2(F p) and phi1(e1 x p) on the probe line,
    # the product of their norms and the strongest coefficient's index
    a, b = probe
    G = cross_matrix(e1)
    u = pc.restrict_to_line(phi2, np.asarray(F) @ a, np.asarray(F) @ b).coeffs
    v = pc.restrict_to_line(phi1, G @ a, G @ b).coeffs
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= 1e-13 or nv <= 1e-13:
        raise KruppaError("probe line degenerates both restricted forms")
    return u, v, nu * nv, int(np.argmax(np.abs(u) + np.abs(v)))


def _usable_probes(inst: KruppaInstance, e1, F, rng: np.random.Generator,
                   want: int, pool: int) -> list:
    # the one probe draw: up to ``want`` usable probe lines of ``pool`` drawn,
    # each with its restricted pair; the draw stops at the ``want``-th
    found, last = [], None
    for _ in range(pool):
        probe = rng.standard_normal(3), rng.standard_normal(3)
        try:
            found.append((probe, _restricted_pair(inst.phi1, inst.phi2, e1, F, probe)))
        except (KruppaError, pc.PolynomialError) as err:
            last = err
            continue
        if len(found) == want:
            break
    if not found:
        raise KruppaError(f"no usable probe line found: {last}")
    return found


def detection_response(inst: KruppaInstance, rng: np.random.Generator | None = None) -> float:
    """Largest constraint magnitude over the first three usable of six probe lines.

    A single probe can land near the kernel of the probe-restricted
    constraint Jacobian and answer a genuinely wrong geometry with a
    deceptively small vector; the max over a few probes is the statistic
    that separates truth (still at fit-noise level) from perturbations.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    draws = _usable_probes(inst, inst.eg.e1, inst.eg.F, rng, 3, 6)
    return max(0.0, *(float(np.abs(_cross_differences(*pair)).max()) for _, pair in draws))


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
    q1: np.ndarray                # (k, 3) images in view 1
    q2: np.ndarray                # (k, 3) images in view 2
    expected: int                 # class m of the curve
    n_complex: int                # tangencies lost to complex parameters

    @property
    def deficit(self) -> bool:
        return self.n_complex > 0


def tangency_points(curve: RationalCurve3D, cam1: Camera, cam2: Camera) -> TangencyData:
    """Parameters where the epipolar plane of the pair is tangent to the curve.

    The tangency condition is the vanishing of det[O1, O2, X_t, X_s], the
    incidence of the baseline with the curve's tangent form: a binary form
    of degree 2d-2 whose roots are found numerically; repeated roots mean
    the pair sits on a non-generic tangency and are rejected.
    """
    O1, O2 = cam1.center, cam2.center
    baseline = join_points(O1, O2)
    coeff = swap_blocks(baseline) @ curve.tangent_form
    scale = np.abs(coeff).max()
    if scale == 0.0:
        raise GeometryError("tangency form vanished identically (degenerate pair)")
    coeff = coeff / scale
    m = 2 * curve.degree - 2
    lead = np.abs(coeff) > 1e-11
    first = int(np.argmax(lead))  # leading zeros are roots at s = 0, i.e. theta = 0
    params = [0.0] * first
    n_complex = 0
    for r in np.roots(coeff[first:]):
        if abs(r.imag) > 1e-8 * max(1.0, abs(r)):
            n_complex += 1
            continue
        params.append(_polish_tangency(coeff, float(np.arctan2(1.0, r.real)) % np.pi))
    params = sorted(p % np.pi for p in params)
    for a, b in zip(params, params[1:]):
        if abs(a - b) < 1e-7:
            raise GeometryError("repeated tangency parameters: non-generic camera pair")
    Q = pc.sign_normalize_rows(curve.points(params))
    q1, q2 = (q / np.linalg.norm(q, axis=1, keepdims=True) for q in (cam1.project(Q), cam2.project(Q)))
    return TangencyData(baseline, np.asarray(params), Q, q1, q2, m, n_complex)


def _polish_tangency(coeff: np.ndarray, theta: float) -> float:
    # Newton steps on the dehomogenized angle chart
    n = coeff.shape[0] - 1
    for _ in range(40):
        t, s = np.cos(theta), np.sin(theta)
        ks = np.arange(n + 1)
        mono = t ** (n - ks) * s ** ks
        g = float(coeff @ mono)
        dmono = -(n - ks) * np.where(n - ks >= 1, t ** np.maximum(n - ks - 1, 0), 0.0) * s ** (ks + 1) \
            + ks * t ** (n - ks + 1) * np.where(ks >= 1, s ** np.maximum(ks - 1, 0), 0.0)
        dg = float(coeff @ dmono)
        if dg == 0.0:
            break
        step = g / dg
        theta -= step
        if abs(step) < 1e-14:
            break
    return theta % np.pi


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
    ``theta -> (e1, F)`` with ``theta = 0`` reproducing the input.
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
        theta = np.asarray(theta, dtype=float)
        e1 = e1_0 + theta[0] * v1 + theta[1] * v2
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2_0 + theta[2] * u1 + theta[3] * u2
        e2 = e2 / np.linalg.norm(e2)
        # bases of the perpendicular planes, smooth near theta = 0
        V = _complete_basis(e1, v1, v2)
        W = _complete_basis(e2, u1, u2)
        S = S0 + theta[4] * S_dirs[0] + theta[5] * S_dirs[1] + theta[6] * S_dirs[2]
        F = W @ S @ V.T
        return e1, F / np.linalg.norm(F)

    return chart


def _complete_basis(e: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # orthonormal basis of the plane orthogonal to e, seeded by a, b
    x = a - (a @ e) * e
    x = x / np.linalg.norm(x)
    y = b - (b @ e) * e - (b @ x) * x
    y = y / np.linalg.norm(y)
    return np.column_stack([x, y])


def _constraint_map(instances, eg: EpipolarGeometry, rng: np.random.Generator,
                    per_instance: int):
    """The stacked constraints of all instances as a map on the 7-chart at ``eg``.

    Each instance gets ``per_instance`` probe lines whose pivots are frozen
    at ``eg``, so the map is smooth in the chart parameters.  Constraints
    from a single probe line have a badly conditioned differential even when
    the variety is cut transversally, so rank and descent work draws at
    least two lines per instance.  Returns the chart and the map.
    """
    terms = []  # (instance, probe, pivot)
    for inst in instances:
        draws = _usable_probes(inst, eg.e1, eg.F, rng, per_instance, 5 * per_instance)
        if len(draws) < per_instance:
            raise KruppaError("not enough usable probe lines for one instance")
        terms.extend((inst, probe, pair[3]) for probe, pair in draws)
    chart = epipolar_chart(eg)

    def func(theta: np.ndarray) -> np.ndarray:
        e1, F = chart(theta)
        return np.concatenate([constraint_vector(inst.phi1, inst.phi2, e1, F, probe, pivot)
                               for inst, probe, pivot in terms])

    return chart, func


def _central_jacobian(func, theta: np.ndarray, step: float) -> np.ndarray:
    # central differences along each chart axis, one column per axis
    return np.stack([(func(theta + d) - func(theta - d)) / (2 * step)
                     for d in step * np.eye(7)], axis=1)


def solution_dimension(instances, eg_truth: EpipolarGeometry,
                       rng: np.random.Generator | None = None) -> int:
    """Local dimension of the constraint variety at the true geometry.

    Differentiates the stacked constraints of two probe lines per curve
    through the 7-chart by central differences (step 1e-6) and reads off 7
    minus the numerical rank at :data:`polycore.RANK_TOL`; a singular-value
    gap under 10 at the cut is reported as indeterminate rather than rounded
    to a dimension.  Every probe restriction contains the true variety, so
    stacking several lines per curve tightens conditioning without
    overshooting the codimension.
    """
    instances = list(instances)
    if not instances:
        raise KruppaError("need at least one curve instance")
    rng = np.random.default_rng(1234) if rng is None else rng
    _, func = _constraint_map(instances, eg_truth, rng, 2)
    rank, gap = pc.numerical_rank(_central_jacobian(func, np.zeros(7), 1e-6))
    if gap < 10.0:
        raise KruppaError(
            f"rank of the constraint Jacobian is indeterminate (gap {gap:.2f})")
    return 7 - rank


@dataclass
class RefineResult:
    eg: EpipolarGeometry
    residual: float
    iterations: int


def refine_epipolar(eg_init: EpipolarGeometry, instances,
                    rng: np.random.Generator | None = None) -> RefineResult:
    """Gauss-Newton descent of the stacked constraints over the 7-chart.

    Draws three probe lines per curve and takes at most 60 damped steps,
    stopping once the residual norm is below 1e-9.  Returns the refined
    geometry with the final residual norm; a residual plateau above 1e-6
    raises, since that means the initial geometry is not in the attraction
    basin of any solution.
    """
    instances = list(instances)
    rng = np.random.default_rng(99) if rng is None else rng
    chart, func = _constraint_map(instances, eg_init, rng, 3)
    theta = np.zeros(7)
    r = func(theta)
    cost = float(r @ r)
    lam = 1e-6
    iterations = 0
    for _ in range(60):
        if np.sqrt(cost) < 1e-9:
            break
        J = _central_jacobian(func, theta, 1e-7)
        improved = False
        for _ in range(25):
            H = J.T @ J + lam * np.eye(7)
            try:
                delta = np.linalg.solve(H, -J.T @ r)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            r_new = func(theta + delta)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                theta = theta + delta
                r, cost = r_new, cost_new
                lam = max(lam / 5, 1e-12)
                improved = True
                iterations += 1
                break
            lam *= 10
        if not improved:
            break
    residual = float(np.sqrt(cost))
    if residual > 1e-6:
        raise KruppaError(f"refinement stalled at residual {residual:.2e}")
    e1, F = chart(theta)
    return RefineResult(EpipolarGeometry.from_F(F), residual, iterations)
