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
from functools import cached_property, lru_cache

import numpy as np

from . import CurvemvgError
from . import polycore as pc
from .curve_models import _sample_thetas
from .polycore import HomogeneousPolynomial, enumerate_monomials
from .projective_cameras import (
    Camera,
    _map_rows,
    fundamental,
    sign_normalize,
    swap_blocks,
    triangulate,
)


class ReconstructionError(CurvemvgError):
    """Raised when a reconstruction is degenerate or underdetermined."""


class InsufficientViews(ReconstructionError):
    """Raised when stacked view equations cannot determine the unknowns."""


def cone(f: HomogeneousPolynomial, cam: Camera) -> HomogeneousPolynomial:
    """Back-projected cone of an image curve: the degree-d form on P3 pulled back through M."""
    return pc.pullback(f, cam.M)


@dataclass
class ComponentSplit:
    """Cone-intersection candidates of the k kept planes of a sweep, labelled.

    With d the curves' degree, the arrays hold one row per kept plane:
    ``planes`` (k, 4) unit planes; ``points`` (k, d*d, 4) candidates,
    phase-normalized row-wise, pairing (i, j) of the view roots at index
    i*d + j; ``is_true`` (k, d*d) the mask of the check-view test and
    ``residuals`` (k, d*d) its largest residual per candidate.
    """

    planes: np.ndarray
    points: np.ndarray
    is_true: np.ndarray
    residuals: np.ndarray
    skipped: int                 # planes dropped for root collisions

    @property
    def per_plane_counts(self) -> list[tuple[int, int]]:
        n = self.is_true.shape[1]
        return [(t, n - t) for t in self.is_true.sum(axis=1).tolist()]


def epipolar_sweep(f1: HomogeneousPolynomial, f2: HomogeneousPolynomial, cam1: Camera,
                   cam2: Camera, n_planes: int = 60, *,
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

    The pencil comes from the epipolar geometry in closed form (Hartley &
    Zisserman, ch. 9), with no decomposition choosing a basis: plane k holds
    the view-1 line l1 = cos a x + sin a y through e1 (x a unit vector
    orthogonal to e1, y = e1 x x, a from :func:`curve_models._sample_thetas`)
    and the view-2 line F p1 through the point p1 = l1 x e1 on it.  Each line
    is spanned by its epipole and one orthonormal point on it.

    Nothing is taken plane by plane: each view's curve is restricted to all
    its epipolar lines in one call, every plane's roots come from one call
    of the stacked root kernel, every kept plane's d*d ray pairs are met in
    one :func:`triangulate` call, and each check view is evaluated once.
    The k kept planes come back as arrays, (k, 4) planes, (k, d*d, 4)
    candidates and (k, d*d) labels and residuals (see :class:`ComponentSplit`).
    """
    if f1.degree != f2.degree:
        raise ReconstructionError("image curves must share their degree")
    if not check_views:
        raise ReconstructionError("need at least one check view to split components")
    d = f1.degree
    eg = fundamental(cam1, cam2)
    x = np.cross(eg.e1, np.eye(3)[np.argmin(np.abs(eg.e1))])
    x /= np.linalg.norm(x)
    y = np.cross(eg.e1, x)
    alphas = _sample_thetas(n_planes)[:, None]
    l1 = np.cos(alphas) * x + np.sin(alphas) * y
    p1 = np.sin(alphas) * x - np.cos(alphas) * y
    p2 = np.cross(_map_rows(eg.F, p1), eg.e2)
    p2 /= pc._norms(p2)
    planes = _map_rows(cam1.M.T, l1)
    planes /= pc._norms(planes)
    # two orthonormal points spanning each image line: (view, plane, 2, 3)
    spans = np.stack([np.stack(np.broadcast_arrays(e, p), axis=1)
                      for e, p in ((eg.e1, p1), (eg.e2, p2))])
    # each view's curve on all its lines in one restriction, every root in one call
    forms = np.stack([pc.restrict_to_lines(f, span.swapaxes(1, 2))
                      for f, span in zip((f1, f2), spans)])
    roots, sep = pc._binary_roots(forms)
    keep = (sep >= 1e-7).all(axis=0)
    roots, spans = roots[:, keep], spans[:, keep, None]
    points = roots[..., :1] * spans[..., 0, :] + roots[..., 1:] * spans[..., 1, :]
    r1, r2 = cam1.rays(points[0]), cam2.rays(points[1])
    # pairing (i, j) of the view roots is candidate i*d + j of its plane
    pairs = np.stack(np.broadcast_arrays(r1[:, :, None], r2[:, None]), axis=-2)
    cands = pc.sign_normalize_rows(triangulate(pairs).reshape(-1, 4))
    res = np.zeros(len(cands))
    for g, cam in check_views:
        q = cam.project(cands)
        res = np.maximum(res, np.abs(g(q / np.linalg.norm(q, axis=1, keepdims=True))))
    res = res.reshape(-1, d * d)
    return ComponentSplit(planes[keep], cands.reshape(-1, d * d, 4), res <= 1e-8, res,
                          n_planes - len(res))


def _lifts(views, lift, what: str) -> list[np.ndarray]:
    # each view's rows lifted by lift(cam, rows) as they are; a zero or non-finite row raises
    blocks = []
    for vi, (cam, rows) in enumerate(views):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ReconstructionError(f"{what}s must be rows of length 3")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | ~rows.any(axis=1))
        if len(bad):
            raise ReconstructionError(f"{what} row {bad[0]} of view {vi} is zero or not finite")
        blocks.append(lift(cam, rows))
    return blocks


def _view_ranks(basis, blocks) -> list[int]:
    """Whitened rank of each view's block, from one spectra-only call per block shape."""
    ranks = {}
    for shape in dict.fromkeys(b.shape for b in blocks):
        views = [i for i, b in enumerate(blocks) if b.shape == shape]
        ranks.update(zip(views, pc.whitened_ranks(basis, np.stack([blocks[i] for i in views]))))
    return [ranks[i] for i in range(len(blocks))]


def _checked_fit(basis, blocks, nullity: int, what: str, cap: int,
                 blind_hint) -> tuple[pc.NullspaceFit, tuple[np.ndarray, ...]]:
    """The one rank-checked fit of stacked view blocks, and the blocks held read-only.

    The stacked rank must leave exactly ``nullity`` null directions.  Below
    that, :class:`InsufficientViews` names the rank, the per-view ranks
    against their ``cap`` and ``blind_hint(number of views)``, the blind
    family the views leave ("" for none); above it the rows fit no such
    family of forms, which raises :class:`ReconstructionError`.  Per-view
    ranks are read only for that message; a fit that passes hands its
    blocks on, so its ``per_view_ranks`` reads them when asked.
    """
    if not all(map(len, blocks)):
        raise pc.PolynomialError("no samples to fit")     # a view without rows has no rank
    fit = pc.whitened_nullspace(basis, np.concatenate(blocks))
    total, needed = fit.rank(), basis.size - nullity
    if total < needed:
        hint = (blind_hint(len(blocks)) or "views are too sparsely sampled; "
                f"supply at least {cap} {what}s per view")
        raise InsufficientViews(f"stacked {what} equations have rank {total} < {needed} "
                                f"(per-view ranks {_view_ranks(basis, blocks)}, caps {cap}; "
                                f"{hint})")
    if total > needed:
        raise ReconstructionError(
            f"{what} equations have rank {total} > {needed}: "
            f"the {what}s do not all come from one curve at degree {basis.degree}")
    held = tuple(b.view() for b in blocks)
    for b in held:
        b.setflags(write=False)
    return fit, held


def _evaluate_unit(form: HomogeneousPolynomial, rows, what: str):
    # the form at each unit-normalized row; a zero or non-finite row raises, as in _lifts
    norms = pc._norms(rows)
    if not (np.isfinite(norms).all() and norms.all()):
        raise ReconstructionError(f"cannot normalize a zero or not finite {what}")
    return form(rows / norms)


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
    """Degree-m form on the dual P3 vanishing on tangent planes of the curve.

    ``per_view_ranks`` is read from the held lifted view blocks on first
    access, one spectra-only call per block shape, and kept.
    """

    Upsilon: HomogeneousPolynomial
    gap: float
    _view_blocks: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def per_view_ranks(self) -> list[int]:
        return _view_ranks(self.Upsilon.basis, self._view_blocks)

    def __call__(self, plane):
        """Value at one plane, or at each unit-normalized row of a stack.

        A zero or non-finite plane raises :class:`ReconstructionError`.
        """
        return _evaluate_unit(self.Upsilon, plane, "plane")


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
    m+1 views raise even when the per-view caps are all saturated.  Tangents
    that no single degree-m form satisfies raise too, instead of returning
    the least-bad form.
    """
    def blind_hint(k):
        blind = dual_ambiguity_dim(m, k)
        return (f"{k} views leave a {blind}-dim family of center-hyperplane products; "
                f"class {m} needs at least {m + 1} views") if blind else ""

    blocks = _lifts(views, lambda cam, lines: _map_rows(cam.M.T, lines), "tangent line")
    fit, held = _checked_fit(enumerate_monomials(4, m), blocks, 1, "tangent",
                             dual_view_cap(m), blind_hint)
    return DualSurface(fit.form(), fit.gap(), held)


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
    if d < 2:
        raise ReconstructionError("degree must be at least 2")
    # row i: monomial i of degree d-2 times the quadric
    imap = pc._product_index_map(6, d - 2, 2)
    R = np.zeros((len(imap), math.comb(d + 5, 5)))
    R[np.arange(len(imap))[:, None], imap] = grassmann_quadric_form().coeffs
    q, _ = np.linalg.qr(R.T)
    ideal = q.T[: len(imap)]
    ideal.setflags(write=False)
    return ideal


@dataclass
class ChowForm:
    """Degree-d form on P5 vanishing on rays that meet the curve.

    The representative is the member of its residue class orthogonal to all
    degree-d multiples of the Grassmann quadric.  ``per_view_ranks`` is
    read from the held view blocks of rays on first access, one spectra-only
    call per block shape, and kept; a fit that holds no blocks reads ``[]``.
    """

    Gamma: HomogeneousPolynomial
    gap: float
    _view_blocks: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def per_view_ranks(self) -> list[int]:
        return _view_ranks(self.Gamma.basis, self._view_blocks)

    @property
    def degree(self) -> int:
        return self.Gamma.degree

    def __call__(self, line):
        """Value at one line, or at each unit-normalized row of a stack.

        A zero or non-finite line raises :class:`ReconstructionError`.
        """
        return _evaluate_unit(self.Gamma, line, "line")


def _chow_form(fit: pc.NullspaceFit, d: int, held=()) -> ChowForm:
    # the canonical representative: the 1 + C(d+3,5) weakest directions
    # pulled back, minus their part in the degree-d multiples of the quadric
    k = chow_ideal_dim(d)
    pulled = fit.null(k + 1) @ pc.sym_power(fit.pullback_map(), d)
    pulled = pulled / np.linalg.norm(pulled, axis=1, keepdims=True)
    ideal = _ideal_rows(d)
    resid = pulled - (pulled @ ideal.T) @ ideal
    _, _, Vr = np.linalg.svd(resid, full_matrices=False)
    Gamma = HomogeneousPolynomial(enumerate_monomials(6, d), sign_normalize(Vr[0]))
    return ChowForm(Gamma, fit.gap(k + 1), held)


def fit_chow_from_lines(lines: np.ndarray, d: int) -> ChowForm:
    """Chow form of degree d from Plucker vectors of lines meeting the curve.

    The whitened nullspace holds the Chow class plus every degree-d multiple
    of the Grassmann quadric (those vanish on all lines whatsoever), so the
    fit takes 1 + C(d+3,5) directions and projects out the ideal part to land
    on the canonical representative.  No rank is checked (chow_reconstruct
    is the checked route) and the fit holds no view blocks, so its
    ``per_view_ranks`` reads ``[]``; callers must validate the fit on
    held-out lines: a wrong-degree fit evaluates large.
    """
    return _chow_form(pc.whitened_nullspace(enumerate_monomials(6, d), lines), d)


def _fit_chow(blocks: list[np.ndarray], d: int) -> ChowForm:
    # the rank-checked route, one block of rays per center
    def blind_hint(k):
        blind = chow_ambiguity_dim(d, k)
        return (f"{k} centers leave a {blind}-dim family of forms through their "
                f"alpha-planes; degree {d} needs rays from at least {views_for_chow(d)} "
                "distinct centers") if blind else ""

    fit, held = _checked_fit(enumerate_monomials(6, d), blocks, chow_ideal_dim(d) + 1,
                             "ray", chow_view_cap(d), blind_hint)
    return _chow_form(fit, d, held)


def chow_reconstruct(views: list[tuple[Camera, np.ndarray]], d: int) -> ChowForm:
    """Chow form from per-view image points of the curve.

    Each image point p of view i lifts to the optical ray, a line meeting the
    curve, hence one linear condition on the degree-d form.
    """
    return _fit_chow(_lifts(views, Camera.rays, "image point"), d)


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
