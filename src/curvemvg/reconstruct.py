"""Three routes from image curves back to the space curve.

Intersecting the two view cones recovers the curve together with an
extraneous companion; counting candidates per epipolar plane separates the
two (d against d(d-1), Bezout total d*d).  Tangent lines pulled back through
the cameras determine the dual surface linearly, and optical rays determine
the Chow form on the line Grassmannian linearly; both routes obey hard
per-view rank caps, so the number of cameras decides solvability, not the
number of measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import polycore as pc
from .curve_models import ImageCurve
from .polycore import HomogeneousPolynomial, enumerate_monomials
from .projective_cameras import (
    Camera,
    GeometryError,
    _map_rows,
    fundamental,
    join_points,
    line_span_points,
    sign_normalize,
    swap_blocks,
    triangulate,
)


class ReconstructionError(ValueError):
    """Raised when a reconstruction is degenerate or underdetermined."""


class InsufficientViews(ReconstructionError):
    """Raised when stacked view equations cannot determine the unknowns."""


@dataclass(frozen=True)
class Cone:
    """Degree-d form on P3 vanishing on all back-projected curve points."""

    Delta: HomogeneousPolynomial

    def __call__(self, P) -> float:
        return self.Delta(np.asarray(P))


def cone(f: ImageCurve, cam: Camera) -> Cone:
    """Back-projected cone of an image curve: the pullback through M."""
    return Cone(pc.pullback(f.f, cam.M))


@dataclass
class PlaneCandidates:
    """All cone-intersection candidates on one epipolar plane."""

    plane: np.ndarray
    points: np.ndarray           # (d*d, 4) complex candidates
    is_true: np.ndarray          # boolean mask from the third check
    residuals: np.ndarray        # third-check residual per candidate


@dataclass
class ComponentSplit:
    """Per-plane classification of cone-intersection candidates."""

    degree: int
    planes: list[PlaneCandidates]
    skipped: int                 # planes dropped for root collisions

    @property
    def per_plane_counts(self) -> list[tuple[int, int]]:
        return [(int(p.is_true.sum()), int((~p.is_true).sum())) for p in self.planes]


def _epipolar_line(cam: Camera, plane: np.ndarray) -> np.ndarray:
    # unique image line whose back-projected plane is the given one
    l = np.linalg.lstsq(cam.M.T, plane, rcond=None)[0]
    if np.linalg.norm(_map_rows(cam.M.T, l) - plane) > 1e-9 * np.linalg.norm(plane):
        raise GeometryError("plane does not pass through the camera center")
    return l / np.linalg.norm(l)


def _image_line_span(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # two orthonormal points spanning {x : l.x = 0} in the image plane
    _, _, Vt = np.linalg.svd(l[None, :])
    return Vt[1], Vt[2]


def _line_curve_roots(f: HomogeneousPolynomial, line: np.ndarray) -> tuple[np.ndarray, float]:
    """Intersection points of an image line with the curve, over the complexes.

    Returns ``(points, min_separation)`` where the separation is the smallest
    projective distance between the (t:s) roots; a collision means the line
    is tangent.
    """
    A, B = _image_line_span(line)
    g = pc.restrict_to_line(f, A, B).coeffs
    d = f.degree
    scale = np.abs(g).max()
    if scale == 0.0:
        raise GeometryError("curve form vanishes on the whole line")
    lead = np.abs(g) > 1e-12 * scale
    first = int(np.argmax(lead))
    finite = np.roots(g[first:])
    # roots as projective pairs (t : 1), plus (1 : 0) for each dropped lead
    pairs = [np.array([r, 1.0]) for r in finite] + [np.array([1.0, 0.0])] * first
    pairs = [p / np.linalg.norm(p) for p in pairs]
    sep = np.inf
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            sep = min(sep, abs(pairs[i][0] * pairs[j][1] - pairs[i][1] * pairs[j][0]))
    pts = np.stack([t * A + s * B for t, s in pairs])
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if len(pairs) != d:
        raise GeometryError("line meets the curve in fewer points than its degree")
    return pts, float(sep)


def epipolar_sweep(f1: ImageCurve, f2: ImageCurve, cam1: Camera, cam2: Camera,
                   n_planes: int = 60, *,
                   check_views: list[tuple[HomogeneousPolynomial, Camera]]) -> ComponentSplit:
    """Cone-intersection candidates over a sweep of epipolar planes.

    Every plane through the baseline meets each image curve in d points;
    triangulating all d*d pairings samples the full intersection of the two
    cones.  The d pairings whose reprojection lands on the curve (residual
    at most 1e-8) in every check view are the curve itself; the rest sample
    the extraneous companion.  Candidates can be complex (a real plane meets
    the real curve in conjugate point pairs), so membership is tested
    algebraically through the check views' curve forms, which vanish on
    those points too.  Two check views leave no room for accidental
    extraneous hits; one is enough when the candidate set stays clear of the
    third cone.  Planes where roots collide (tangency) are skipped.
    """
    if f1.degree != f2.degree:
        raise ReconstructionError("image curves must share their degree")
    if not check_views:
        raise ReconstructionError("need at least one check view to split components")
    d = f1.degree
    O1, O2 = cam1.center, cam2.center
    P0, Q0 = line_span_points(join_points(O1, O2))
    _, _, Vt = np.linalg.svd(np.stack([P0, Q0]))
    pencil = Vt[2:]              # two planes spanning the pencil through the baseline

    planes: list[PlaneCandidates] = []
    skipped = 0
    alphas = (np.arange(n_planes) + 0.17) * (np.pi / n_planes)
    for alpha in alphas:
        plane = np.cos(alpha) * pencil[0] + np.sin(alpha) * pencil[1]
        try:
            l1 = _epipolar_line(cam1, plane)
            l2 = _epipolar_line(cam2, plane)
            pts1, sep1 = _line_curve_roots(f1.f, l1)
            pts2, sep2 = _line_curve_roots(f2.f, l2)
        except GeometryError:
            skipped += 1
            continue
        if min(sep1, sep2) < 1e-7:
            skipped += 1
            continue
        cands = np.stack([triangulate(cam1, p1, cam2, p2)
                          for p1 in pts1 for p2 in pts2])
        res = np.zeros(len(cands))
        for g, cam in check_views:
            q = cam.project(cands)
            res = np.maximum(res, np.abs(g(q / np.linalg.norm(q, axis=1, keepdims=True))))
        planes.append(PlaneCandidates(plane, cands, res <= 1e-8, res))
    return ComponentSplit(d, planes, skipped)


def _unit_lifts(views, lift, what: str) -> list[np.ndarray]:
    # each view's rows lifted by lift(cam, rows) to unit rows; a zero or non-finite row raises
    blocks = []
    for vi, (cam, rows) in enumerate(views):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ReconstructionError(f"{what}s must be rows of length 3")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | ~rows.any(axis=1))
        if len(bad):
            raise ReconstructionError(f"{what} row {bad[0]} of view {vi} is zero or not finite")
        lifted = lift(cam, rows)
        blocks.append(lifted / np.linalg.norm(lifted, axis=1, keepdims=True))
    return blocks


def _view_ranks(basis, blocks) -> list[int]:
    """Whitened rank of each view's block, from one stacked fit per block shape."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    ranks = {}
    for shape in dict.fromkeys(b.shape for b in blocks):
        if len(shape) != 2:
            raise pc.PolynomialError(
                f"samples have shape {shape}, basis expects {basis.num_vars} coordinates")
        views = [i for i, b in enumerate(blocks) if b.shape == shape]
        fits = pc.whitened_nullspace(basis, np.stack([blocks[i] for i in views]))
        ranks.update((i, fit.rank()) for i, fit in zip(views, fits))
    return [ranks[i] for i in range(len(blocks))]


# ---------------------------------------------------------------------------
# dual-space route

def dual_unknowns(m: int) -> int:
    return math.comb(m + 3, 3)


def dual_view_cap(m: int) -> int:
    return math.comb(m + 2, 2) - 1


def min_views_dual(m: int) -> int:
    """Smallest view count whose stacked caps can determine the dual surface."""
    if m < 2:
        raise ReconstructionError("class must be at least 2")
    return math.ceil((m * m + 6 * m + 11) / (3 * (m + 3)))


@dataclass
class DualSurface:
    """Degree-m form on the dual P3 vanishing on tangent planes of the curve."""

    Upsilon: HomogeneousPolynomial
    gap: float
    per_view_ranks: list[int]

    def __call__(self, plane) -> float:
        A = np.asarray(plane)
        return self.Upsilon(A / np.linalg.norm(A))


def dual_ambiguity_dim(m: int, k: int) -> int:
    """Dimension of the tangent-data blind spot for k views of a class-m curve.

    Every tangent plane lifted from view i passes through that view's center,
    so the product of the k center hyperplanes times any degree-(m-k) form
    vanishes on all stacked rows no matter what the curve is.  The counting
    bound therefore understates the views needed from tangents alone: unique
    linear recovery requires k >= m+1, at which point the product family is
    empty.
    """
    if k > m:
        return 0
    return math.comb(m - k + 3, 3)


def views_for_dual(m: int) -> int:
    """Views needed for unique tangent-only dual recovery (no blind spot)."""
    k = min_views_dual(m)
    while dual_ambiguity_dim(m, k) > 0:
        k += 1
    return k


def dual_reconstruct(views: list[tuple[Camera, np.ndarray]], m: int) -> DualSurface:
    """Dual surface from per-view image tangent lines.

    Each tangent line l of view i lifts to the tangent plane M_i^T l, one
    linear condition on the degree-m dual form.  Per-view equations cannot
    exceed C(m+2,2)-1 independent rows no matter how many tangents are
    supplied, and across views the stacked system always retains the
    center-hyperplane products counted by dual_ambiguity_dim, so fewer than
    m+1 views raise even when the per-view caps are all saturated.
    """
    basis = enumerate_monomials(4, m)
    needed = basis.size - 1
    blocks = _unit_lifts(views, lambda cam, lines: _map_rows(cam.M.T, lines), "tangent line")
    ranks = _view_ranks(basis, blocks)
    fit = pc.whitened_nullspace(basis, np.concatenate(blocks))
    total = fit.rank()
    if total < needed:
        k = len(views)
        blind = dual_ambiguity_dim(m, k)
        if blind:
            hint = (f"{k} views leave a {blind}-dim family of center-hyperplane "
                    f"products; class {m} needs at least {m + 1} views")
        else:
            hint = ("views are too sparsely sampled; supply at least "
                    f"{dual_view_cap(m)} tangents per view")
        raise InsufficientViews(
            f"stacked tangent equations have rank {total} < {needed} "
            f"(per-view ranks {ranks}, caps {dual_view_cap(m)}; {hint})")
    return DualSurface(fit.form(), fit.gap(), ranks)


# ---------------------------------------------------------------------------
# Chow-form route

def chow_ideal_dim(d: int) -> int:
    return math.comb(d + 3, 5)


def chow_unknowns(d: int) -> int:
    return math.comb(d + 5, 5) - chow_ideal_dim(d)


def chow_view_cap(d: int) -> int:
    return (d * d + 3 * d) // 2


def min_views_chow(d: int) -> int:
    """Smallest view count whose stacked caps can determine the Chow form."""
    if d < 2:
        raise ReconstructionError("degree must be at least 2")
    return math.ceil((d ** 3 + 8 * d * d + 23 * d + 28) / (6 * (d + 3)))


def chow_ambiguity_dim(d: int, k: int) -> int:
    """Dimension of the ray-data blind spot for k generic centers, degree d.

    All rays from one center fill that center's alpha-plane, so any degree-d
    form vanishing on the k alpha-planes joins the fitted nullspace no matter
    what the curve is.  Counting conditions (each plane restricts to a P^2 of
    forms, each pairwise baseline point is shared once) gives the dimension of
    that family beyond the Grassmannian ideal.  The tests check it against
    measured stacked ranks of curve rays for d = 2 at k = 3..5 and d = 3 at
    k = 6, and against generic rays through the centers (no curve) for
    d = 2 at k = 4, 5 and d = 3 at k = 6, 8.
    """
    through = math.comb(d + 5, 5) - math.comb(d + 2, 2) * k + math.comb(k, 2)
    return max(through - chow_ideal_dim(d), 0)


def views_for_chow(d: int) -> int:
    """Centers needed for unique ray-only recovery: caps plus no blind spot."""
    k = min_views_chow(d)
    while chow_ambiguity_dim(d, k) > 0:
        k += 1
    return k


def grassmann_quadric_form() -> HomogeneousPolynomial:
    """Half the incidence pairing of a 6-vector with itself: the line quadric."""
    basis = enumerate_monomials(6, 2)
    # x_i x_j with j the block swap of i are the only quadratic monomials the swap fixes
    E = basis.exponent_array()
    return HomogeneousPolynomial(basis, np.all(swap_blocks(E) == E, axis=1).astype(float))


@lru_cache(maxsize=None)
def _ideal_rows(d: int) -> np.ndarray:
    """Orthonormal coefficient basis of the degree-d multiples of the quadric."""
    Q = grassmann_quadric_form()
    if d < 2:
        raise ReconstructionError("degree must be at least 2")
    mon = enumerate_monomials(6, d - 2)
    rows = []
    for e in mon.exponent_array():
        m_coeffs = np.zeros(mon.size)
        m_coeffs[mon.index(tuple(e))] = 1.0
        prod = pc.multiply(HomogeneousPolynomial(mon, m_coeffs), Q)
        rows.append(prod.coeffs)
    R = np.stack(rows)
    q, _ = np.linalg.qr(R.T)
    ideal = q.T[: R.shape[0]]
    ideal.setflags(write=False)
    return ideal


@dataclass
class ChowForm:
    """Degree-d form on P5 vanishing on rays that meet the curve.

    The representative is the member of its residue class orthogonal to all
    degree-d multiples of the Grassmann quadric.
    """

    Gamma: HomogeneousPolynomial
    gap: float
    per_view_ranks: list[int] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return self.Gamma.degree

    def __call__(self, line) -> float:
        L = np.asarray(line)
        return self.Gamma(L / np.linalg.norm(L))


def fit_chow_from_lines(lines: np.ndarray, d: int,
                        per_view_blocks: list[np.ndarray] | None = None,
                        enforce_rank: bool = True) -> ChowForm:
    """Chow form of degree d from Plucker vectors of lines meeting the curve.

    Fits the nullspace of the vanishing conditions in a whitened frame.  The
    nullspace holds the Chow class plus every degree-d multiple of the
    Grassmann quadric (those vanish on all lines whatsoever), so the fit
    extracts 1 + C(d+3,5) directions and projects out the ideal part to land
    on the canonical representative.  The stacked rank is read from the
    fit's own singular values and must match that count exactly;
    ``per_view_ranks`` holds the rank of each of ``per_view_blocks``, or
    the stacked rank alone when no blocks are given.  With
    ``enforce_rank=False`` no rank is checked, ``per_view_blocks`` is
    unused, ``per_view_ranks`` is left empty and the weakest directions are
    fit unconditionally; callers must then validate the result on held-out
    lines, since a wrong-degree fit simply evaluates large instead of
    raising.
    """
    lines = np.asarray(lines, dtype=float)
    lines = lines / np.linalg.norm(lines, axis=1, keepdims=True)
    basis = enumerate_monomials(6, d)
    k = chow_ideal_dim(d)
    needed = basis.size - k - 1
    fit = pc.whitened_nullspace(basis, lines)
    ranks = []
    if enforce_rank:
        total = fit.rank()
        ranks = [total] if per_view_blocks is None else _view_ranks(basis, per_view_blocks)
        if total < needed:
            blind = chow_ambiguity_dim(d, len(ranks))
            if per_view_blocks is not None and blind:
                hint = (f"{len(ranks)} centers leave a {blind}-dim family of "
                        f"forms through their alpha-planes; degree {d} needs rays "
                        f"from at least {views_for_chow(d)} distinct centers")
            else:
                hint = (f"supply more rays: at least {chow_view_cap(d)} "
                        f"per center and {views_for_chow(d)} centers")
            raise InsufficientViews(
                f"stacked ray equations have rank {total} < {needed} "
                f"(per-view ranks {ranks}, caps {chow_view_cap(d)}; {hint})")
        if total > needed:
            raise ReconstructionError(
                f"ray equations have rank {total} > {needed}: "
                "the rays are not all incident to one degree-matched curve")
    pulled = fit.null(k + 1) @ pc.sym_power(fit.pullback_map(), d)
    pulled = pulled / np.linalg.norm(pulled, axis=1, keepdims=True)
    ideal = _ideal_rows(d)
    resid = pulled - (pulled @ ideal.T) @ ideal
    _, _, Vr = np.linalg.svd(resid, full_matrices=False)
    rep = sign_normalize(Vr[0])
    return ChowForm(HomogeneousPolynomial(basis, rep), fit.gap(k + 1), ranks)


def chow_reconstruct(views: list[tuple[Camera, np.ndarray]], d: int) -> ChowForm:
    """Chow form from per-view image points of the curve.

    Each image point p of view i lifts to the optical ray, a line meeting the
    curve, hence one linear condition on the degree-d form.
    """
    blocks = _unit_lifts(views, Camera.rays, "image point")
    return fit_chow_from_lines(np.concatenate(blocks), d, per_view_blocks=blocks)


def chow_membership(G: ChowForm, P: np.ndarray,
                    rng: np.random.Generator | None = None) -> bool:
    """Whether the Chow form is within 1e-7 on five random lines through P."""
    rng = np.random.default_rng(2024) if rng is None else rng
    P = np.asarray(P, dtype=float)
    for _ in range(5):
        L = join_points(P, rng.standard_normal(4))
        if abs(G(L)) > 1e-7:
            return False
    return True


def consistency_report(d: int, m: int) -> dict:
    """Coefficient counts, per-view caps, and view bounds, cross-checked.

    The two view-bound formulas are exactly the ceiling of
    (unknowns - 1) / per-view cap; the report recomputes both sides.
    """
    report = {
        "d": d,
        "m": m,
        "dual_unknowns": dual_unknowns(m),
        "dual_view_cap": dual_view_cap(m),
        "min_views_dual": min_views_dual(m),
        "chow_unknowns": chow_unknowns(d),
        "chow_view_cap": chow_view_cap(d),
        "min_views_chow": min_views_chow(d),
    }
    dual_ceil = math.ceil((report["dual_unknowns"] - 1) / report["dual_view_cap"])
    chow_ceil = math.ceil((report["chow_unknowns"] - 1) / report["chow_view_cap"])
    report["dual_bound_consistent"] = dual_ceil == report["min_views_dual"]
    report["chow_bound_consistent"] = chow_ceil == report["min_views_chow"]
    return report
