"""Dense homogeneous polynomials over a fixed graded-lex monomial basis.

Everything downstream (implicit image curves, dual curves, Chow forms,
tangency constraints) is expressed as a coefficient vector over the basis
returned by :func:`enumerate_monomials`, so the ordering here is the one
binding convention of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import CurvemvgError


class PolynomialError(CurvemvgError):
    """Raised for degenerate polynomial-level inputs (zero forms, bad shapes)."""


# smallest eigenvalue ratio whitening_map accepts; a span direction whose
# singular-value ratio is below its square root cannot be whitened
WHITENING_FLOOR = 1e-12

# relative singular-value cut of every fitted rank
RANK_TOL = 1e-7

# relative size under which a leading binary-form coefficient is zero
BINARY_LEAD_CUT = 1e-12


@lru_cache(maxsize=None)
def _exponents(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    # descending lexicographic order on exponent tuples of fixed total degree
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in _exponents(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _index_of(num_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(_exponents(num_vars, degree))}


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of one total degree in ``num_vars`` variables."""

    num_vars: int
    degree: int

    def __post_init__(self):
        if self.num_vars < 1:
            raise PolynomialError("need at least one variable")
        if self.degree < 0:
            raise PolynomialError("degree must be nonnegative")

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return _exponents(self.num_vars, self.degree)

    @property
    def size(self) -> int:
        return math.comb(self.num_vars + self.degree - 1, self.degree)

    def index(self, exponent: tuple[int, ...]) -> int:
        return _index_of(self.num_vars, self.degree)[exponent]

    def exponent_array(self) -> np.ndarray:
        return np.asarray(self.exponents, dtype=np.int64).reshape(self.size, self.num_vars)


def enumerate_monomials(num_vars: int, degree: int) -> MonomialBasis:
    """Return the graded-lex monomial basis for the given shape."""
    return MonomialBasis(num_vars, degree)


def monomial_rows(basis: MonomialBasis, points) -> np.ndarray:
    """Evaluate every basis monomial at every point; rows index points.

    Each degree-e column is its degree-(e-1) parent column times one coordinate.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != basis.num_vars:
        raise PolynomialError(
            f"points have {pts.shape[1]} coordinates, basis expects {basis.num_vars}")
    rows = np.ones((pts.shape[0], 1), dtype=pts.dtype)
    for e in range(1, basis.degree + 1):
        parents, peeled = _peel_table(basis.num_vars, e)
        rows = rows[:, parents] * pts[:, peeled]
    return rows


@dataclass
class HomogeneousPolynomial:
    """Coefficient vector over a :class:`MonomialBasis`."""

    basis: MonomialBasis
    coeffs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape != (self.basis.size,):
            raise PolynomialError(
                f"coefficient vector has shape {c.shape}, basis size is {self.basis.size}")
        self.coeffs = c

    @property
    def num_vars(self) -> int:
        return self.basis.num_vars

    @property
    def degree(self) -> int:
        return self.basis.degree

    def __call__(self, x) -> np.ndarray | complex | float:
        return evaluate(self, x)


def evaluate(p: HomogeneousPolynomial, x):
    """The one form evaluator: ``p`` at one point or at each point of an ``(..., n)`` stack.

    Each value is its own row's dot product with the coefficients (not
    conjugated), so neither the stack nor the BLAS thread count moves its bits.
    """
    x = np.asarray(x)
    # monomial_rows is column-major; a strided row would sum in another order
    rows = np.ascontiguousarray(monomial_rows(p.basis, x.reshape(-1, x.shape[-1])))
    return np.vecdot(np.conj(p.coeffs), rows).reshape(x.shape[:-1])[()]


def _norms(v) -> np.ndarray:
    # np.linalg.norm of each vector along the last axis, as its own dot product;
    # a finite row whose squared sum overflows is scaled by its largest entry
    with np.errstate(over="ignore"):
        n = np.sqrt(np.vecdot(v, v))[..., None]
    if not np.isfinite(n).all():
        rows, flat = np.reshape(v, (-1, np.shape(v)[-1])), n.reshape(-1)
        for i in np.flatnonzero(~np.isfinite(flat) & np.isfinite(rows).all(axis=1)):
            top = np.abs(rows[i]).max()
            flat[i] = top * np.sqrt(np.vecdot(rows[i] / top, rows[i] / top))
    return n


@lru_cache(maxsize=None)
def _product_index_map(num_vars: int, deg_a: int, deg_b: int) -> np.ndarray:
    # flat index into basis(num_vars, deg_a + deg_b) for every exponent sum
    ba = _exponents(num_vars, deg_a)
    bb = _exponents(num_vars, deg_b)
    idx = _index_of(num_vars, deg_a + deg_b)
    out = np.empty((len(ba), len(bb)), dtype=np.int64)
    for i, ea in enumerate(ba):
        for j, eb in enumerate(bb):
            out[i, j] = idx[tuple(a + b for a, b in zip(ea, eb))]
    out.setflags(write=False)
    return out


def multiply(p: HomogeneousPolynomial, q: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Product polynomial; degrees add, variable counts must agree."""
    if p.num_vars != q.num_vars:
        raise PolynomialError("variable counts differ")
    target = enumerate_monomials(p.num_vars, p.degree + q.degree)
    imap = _product_index_map(p.num_vars, p.degree, q.degree)
    out = np.zeros(target.size, dtype=np.result_type(p.coeffs, q.coeffs))
    np.add.at(out, imap.ravel(), np.outer(p.coeffs, q.coeffs).ravel())
    return HomogeneousPolynomial(target, out)


@lru_cache(maxsize=None)
def _peel_table(num_vars: int, degree: int) -> np.ndarray:
    # rows (parents, peeled): for every monomial of this degree, the index of
    # its parent one degree lower and the first variable it has, peeled off
    parent_idx = _index_of(num_vars, degree - 1)
    pairs = []
    for exps in _exponents(num_vars, degree):
        i = next(j for j, x in enumerate(exps) if x)
        pairs.append((parent_idx[exps[:i] + (exps[i] - 1,) + exps[i + 1:]], i))
    table = np.array(pairs).T
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _scatter(k: int, degree: int) -> np.ndarray:
    # 0/1 matrix scattering (degree-(degree-1) column, new factor) pairs onto
    # the degree basis in k variables
    imap = _product_index_map(k, degree - 1, 1).ravel()
    scatter = np.zeros((imap.size, math.comb(k + degree - 1, degree)))
    scatter[np.arange(imap.size), imap] = 1.0
    scatter.setflags(write=False)
    return scatter


def sym_power(A, degree: int) -> np.ndarray:
    """Matrix of the degree-d symmetric power of the linear map ``y -> A @ y``.

    Row ``r`` holds the coefficients, over ``basis(k, degree)``, of monomial
    ``r`` of ``basis(n, degree)`` composed with the map, so that
    ``pullback(p, A).coeffs == p.coeffs @ sym_power(A, p.degree)`` and a
    stack of coefficient vectors is pulled back by one product.  Each
    degree-e row is its degree-(e-1) parent row times one linear form.  A
    stack of maps gets their matrices, each with its own call's bits.
    """
    A = np.asarray(A)
    if A.ndim < 2:
        raise PolynomialError(f"substitution matrix has shape {A.shape}, expected (..., n, k)")
    if degree < 0:
        raise PolynomialError("degree must be nonnegative")
    *batch, n, k = A.shape
    S = np.ones((*batch, 1, 1), dtype=np.result_type(A, float))
    for e in range(1, degree + 1):
        parents, peeled = _peel_table(n, e)
        terms = S.take(parents, axis=-2)[..., None] * A.take(peeled, axis=-2)[..., None, :]
        S = terms.reshape(*batch, len(parents), -1) @ _scatter(k, e)
    return S


def pullback(p: HomogeneousPolynomial, A) -> HomogeneousPolynomial:
    """Compose ``p`` with the linear map ``y -> A @ y``.

    Parameters
    ----------
    p : HomogeneousPolynomial
        Form in ``n`` variables.
    A : array, shape (n, k)
        Row ``i`` gives the linear form substituted for variable ``i``.

    Returns
    -------
    HomogeneousPolynomial
        Form of the same degree in ``k`` variables, expanded exactly through
        :func:`sym_power`.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != p.num_vars:
        raise PolynomialError(
            f"substitution matrix has shape {A.shape}, expected ({p.num_vars}, k)")
    target = enumerate_monomials(A.shape[1], p.degree)
    return HomogeneousPolynomial(target, p.coeffs @ sym_power(A, p.degree))


def partial(p: HomogeneousPolynomial, i: int) -> HomogeneousPolynomial:
    """Partial derivative with respect to variable ``i`` (degree drops by one)."""
    if not 0 <= i < p.num_vars:
        raise PolynomialError("variable index out of range")
    if p.degree == 0:
        raise PolynomialError("constants have no homogeneous derivative")
    target = enumerate_monomials(p.num_vars, p.degree - 1)
    # each target monomial times x_i is one monomial of p, whose exponent of
    # x_i it carries as a factor; + 0.0 turns a -0.0 term into +0.0
    up = _product_index_map(p.num_vars, p.degree - 1, 1)[:, i]
    return HomogeneousPolynomial(target, (target.exponent_array()[:, i] + 1) * p.coeffs[up] + 0.0)


def gradient(p: HomogeneousPolynomial) -> list[HomogeneousPolynomial]:
    """All first partials of ``p``."""
    return [partial(p, i) for i in range(p.num_vars)]


def quadratic_matrix(p: HomogeneousPolynomial) -> np.ndarray:
    """Symmetric matrix M of a quadratic form, so p(x) = x^T M x."""
    if p.degree != 2:
        raise PolynomialError("only quadratic forms have a matrix")
    # entry (i, j) reads the coefficient of x_i x_j, halved off the diagonal
    return p.coeffs[_product_index_map(p.num_vars, 1, 1)] / (2.0 - np.eye(p.num_vars))


def restrict_to_lines(p: HomogeneousPolynomial, spans) -> np.ndarray:
    """:func:`restrict_to_line`'s coefficients, with its bits, for each ``(..., n, 2)`` span."""
    spans = np.asarray(spans)
    if spans.shape[-2:] != (p.num_vars, 2):
        raise PolynomialError(f"spans have shape {spans.shape}, expected (..., {p.num_vars}, 2)")
    return p.coeffs @ sym_power(spans, p.degree)


def restrict_to_line(p: HomogeneousPolynomial, a, b) -> HomogeneousPolynomial:
    """Binary form ``q(x, y) = p(x*a + y*b)`` on the line spanned by a and b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (p.num_vars,) or b.shape != (p.num_vars,):
        raise PolynomialError("span points must match the variable count")
    cross = np.outer(a, b) - np.outer(b, a)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0 or np.abs(cross).max() <= 1e-12 * denom:
        raise PolynomialError("span points are parallel, no line is determined")
    coeffs = restrict_to_lines(p, np.stack([a, b], axis=1))
    return HomogeneousPolynomial(enumerate_monomials(2, p.degree), coeffs)


def proportionality_residual(p, q) -> float:
    """Largest normalized cross-difference of two vectors (0 iff parallel over C)."""
    p = np.asarray(p).ravel()
    q = np.asarray(q).ravel()
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise PolynomialError("residual undefined for non-finite vectors")
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ == 0.0 or nq == 0.0:
        raise PolynomialError("residual undefined for zero vectors")
    return float(np.abs(np.outer(p, q) - np.outer(q, p)).max() / (np_ * nq))


def _rank_at(s: np.ndarray, rel_tol: float) -> np.ndarray:
    # the one rank cut: singular values above rel_tol times the largest, per spectrum
    return np.sum((s > rel_tol * s[..., :1]) & (s[..., :1] > 0.0), axis=-1)


@dataclass(frozen=True)
class NullspaceFit:
    """One SVD of a stack of linear conditions, and everything read from it.

    ``s`` holds the singular values padded with zeros to the column count,
    ``Vt`` the square right singular basis, whose last rows are the null
    directions, and ``floor`` the level at which a singular value is zero to
    working precision.  A fit from :func:`whitened_nullspace` also carries
    the monomial basis of its frame and the map ``T`` taking samples into
    that frame.
    """

    s: np.ndarray
    Vt: np.ndarray
    floor: float
    basis: MonomialBasis | None = None
    T: np.ndarray | None = None

    def rank(self) -> int:
        """Number of singular values above :data:`RANK_TOL` times the largest."""
        return int(_rank_at(self.s, RANK_TOL))

    def gap(self, nullity: int = 1) -> float:
        """First dropped over last kept singular value, ``nullity`` dropped.

        Near 0 the ``nullity`` weakest directions are an isolated nullspace;
        near 1 they are not unique.  A last kept value that is zero to
        working precision reads 1.
        """
        i = self.s.size - nullity
        if self.s[i - 1] <= self.floor:
            return 1.0
        return float(self.s[i] / self.s[i - 1])

    def null(self, nullity: int = 1) -> np.ndarray:
        """The ``nullity`` weakest right singular vectors, weakest last."""
        return self.Vt[-nullity:]

    def pullback_map(self) -> np.ndarray:
        """``T``, the map that pulls forms fitted in the frame back to the samples."""
        if self.T.shape[0] != self.T.shape[1]:
            raise PolynomialError("samples span a degenerate subspace")
        return self.T

    def form(self) -> HomogeneousPolynomial:
        """The weakest null direction as a form in the sample coordinates."""
        poly = pullback(HomogeneousPolynomial(self.basis, sign_normalize(self.Vt[-1])),
                        self.pullback_map())
        return HomogeneousPolynomial(self.basis, sign_normalize(poly.coeffs))


def fit_nullspace(rows) -> NullspaceFit | list[NullspaceFit]:
    """SVD of a stack of linear conditions, rows normalized to unit norm.

    Zero rows are dropped; a row with a NaN or an inf raises.  A stack of
    m x n rows with m at least ``11 n // 6`` (the bound at which LAPACK's
    ``dgesdd`` factors QR first itself) and n at least 21 (below it the QR
    costs more than it saves) takes the SVD of the n x n factor R of one QR:
    its spectrum and ``Vt`` equal the thin SVD's bit for bit, and the m x n
    left singular vectors, which no fit reads, are never formed.  Any other
    stack with m >= n takes the thin SVD, whose ``Vt`` is already square;
    one with fewer rows than columns takes the full SVD, so it still has
    every right singular vector and reads rank deficient.  A 3-d array holds
    k such stacks; one batched call gives their k fits.
    """
    A = np.asarray(rows, dtype=float)
    if A.ndim not in (2, 3):
        raise PolynomialError("need a 2-d stack of rows")
    B = A if A.ndim == 3 else A[None]
    norms = np.linalg.norm(B, axis=2)
    if not math.isfinite(norms.sum()):     # as it is for a NaN or an inf
        _refuse_non_finite(B, "row")
    keep = norms > 0.0
    if not keep.any(axis=1).all():
        raise PolynomialError("all rows are zero")
    if not keep.all():
        # without their zero rows the blocks are ragged: one at a time
        fits = [fit_nullspace(b[m]) for b, m in zip(B, keep)]
    else:
        B = B / norms[..., None]
        m, n = B.shape[1:]
        R = np.linalg.qr(B, mode="r") if n >= 21 and m >= 11 * n // 6 else B
        _, s, Vt = np.linalg.svd(R, full_matrices=m < n)
        s_pad = np.zeros((len(B), n))
        s_pad[:, : s.shape[1]] = s
        floor = np.finfo(float).eps * max(m, n) * s_pad[:, 0]
        fits = [NullspaceFit(*fit) for fit in zip(s_pad, Vt, floor)]
    return fits if A.ndim == 3 else fits[0]


def _refuse_non_finite(B: np.ndarray, what: str) -> None:
    # name the first row of a (k, rows, n) stack holding a NaN or an inf
    for k, i in np.argwhere(~np.isfinite(B).all(axis=2))[:1]:
        raise PolynomialError(f"{what} {i}{f' of block {k}' if len(B) > 1 else ''} is not finite")


def whitening_map(samples) -> np.ndarray:
    """Symmetric map sending unit-normalized samples to isotropic position.

    Conditioning of a monomial-basis fit degrades fast when the sample cloud
    is anisotropic; composing with this map before building rows, then pulling
    the fitted form back, keeps the fitted variety unchanged while taming the
    singular-value tail.  A 3-d array holds k blocks of samples and gets the
    k maps from one batched eigendecomposition, or raises if any block fails.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-2] < X.shape[-1]:
        raise PolynomialError("need at least as many samples as coordinates")
    X = X / np.linalg.norm(X, axis=-1, keepdims=True)
    w, V = np.linalg.eigh(X.swapaxes(-1, -2) @ X / X.shape[-2])
    if (w[..., 0] <= WHITENING_FLOOR * w[..., -1]).any():
        raise PolynomialError("samples span a degenerate subspace")
    return V @ (np.eye(X.shape[-1]) * (w ** -0.5)[..., None, :]) @ V.swapaxes(-1, -2)


def whitened_nullspace(basis: MonomialBasis, samples) -> NullspaceFit | list[NullspaceFit]:
    """Null space of the basis monomials evaluated at the samples, whitened.

    The one fitting kernel of the package: the samples (one point per row)
    are moved to isotropic position by :func:`whitening_map`, expanded over
    the basis and decomposed once by :func:`fit_nullspace`, so the rank, the
    gap and the fitted form all read one SVD.  Samples spanning a proper
    subspace, which whitening_map refuses (all tangent planes or rays of one
    view pass through its center), are first rewritten in an orthonormal
    basis of their span and fitted over the same degree in fewer variables.
    That leaves the row rank unchanged, since restricting forms to a
    subspace is onto, but such a fit has no form in the sample coordinates.

    A 3-d array holds k blocks of samples (the views of a reconstruction)
    and gets a list of their k fits: the blocks that whiten, and those of
    each span dimension, share one expansion and one batched SVD.  Blocks
    without rows or with a zero row raise :class:`PolynomialError`, as does
    a row with a NaN or an inf, which the error names.
    """
    X = np.asarray(samples, dtype=float)
    fits = {}
    for blocks, frame_basis, frame, T in _frames(basis, X):
        fits.update(zip(blocks.tolist(), _frame_fits(frame_basis, frame, T)))
    return [fits[i] for i in range(len(fits))] if X.ndim == 3 else fits[0]


def whitened_ranks(basis: MonomialBasis, samples) -> list[int] | int:
    """Each block's :func:`whitened_nullspace` ``rank()``, from singular values only.

    The same frames, with rows normalized as :func:`fit_nullspace` does (a
    frame row is never zero), go to one ``compute_uv=False`` SVD per frame
    group, cut once for all blocks.
    """
    X = np.asarray(samples, dtype=float)
    ranks = {}
    for blocks, frame_basis, frame, _ in _frames(basis, X):
        rows = monomial_rows(frame_basis, frame.reshape(-1, frame.shape[2]))
        rows = rows.reshape(frame.shape[:2] + rows.shape[1:])
        s = np.linalg.svd(rows / np.linalg.norm(rows, axis=2, keepdims=True), compute_uv=False)
        ranks.update(zip(blocks.tolist(), _rank_at(s, RANK_TOL).tolist()))
    return [ranks[i] for i in range(len(ranks))] if X.ndim == 3 else ranks[0]


def _frames(basis: MonomialBasis, X: np.ndarray):
    """Check the samples and yield ``(blocks, frame basis, frame samples, map)`` groups.

    A lone block that whitens needs no SVD.  Otherwise one SVD of the unit
    rows gives each block's span: the directions above the square root of
    :data:`WHITENING_FLOOR` times the largest singular value.  A full span
    whitens as it is; the others are fitted in an orthonormal basis of it.
    """
    if X.ndim not in (2, 3) or X.shape[-1] != basis.num_vars:
        raise PolynomialError(
            f"samples have shape {X.shape}, basis expects {basis.num_vars} coordinates")
    B = X if X.ndim == 3 else X[None]
    if B.shape[1] == 0:
        raise PolynomialError("no samples to fit")
    if not math.isfinite(B.sum()):         # as it is for a NaN or an inf
        _refuse_non_finite(B, "sample")
    if not B.any(axis=2).all():
        raise PolynomialError("samples include a zero row")
    if len(B) == 1 and B.shape[1] >= B.shape[2]:
        try:
            T = whitening_map(B)
        except PolynomialError:
            pass                # a lone block too flat to whiten
        else:
            yield np.arange(1), basis, B @ T, T
            return
    unit = B / np.linalg.norm(B, axis=2, keepdims=True)
    _, sv, Vt = np.linalg.svd(unit, full_matrices=False)
    dims = np.sum(sv > math.sqrt(WHITENING_FLOOR) * sv[:, :1], axis=1)
    whitens = dims == B.shape[2]
    if whitens.any():
        T = whitening_map(B[whitens])
        yield np.flatnonzero(whitens), basis, B[whitens] @ T, T
    for r in sorted(set(dims[~whitens].tolist())):
        same = np.flatnonzero(dims == r)
        span = Vt[same, :r].swapaxes(1, 2)
        Y = unit[same] @ span
        T = whitening_map(Y)
        yield same, enumerate_monomials(r, basis.degree), Y @ T, span @ T


def _frame_fits(basis: MonomialBasis, frame: np.ndarray, T: np.ndarray) -> list[NullspaceFit]:
    # one expansion of every block's frame samples and one batched SVD
    rows = monomial_rows(basis, frame.reshape(-1, frame.shape[2]))
    fits = fit_nullspace(rows.reshape(frame.shape[:2] + rows.shape[1:]))
    return [replace(fit, basis=basis, T=t) for fit, t in zip(fits, T)]


def fit_vanishing_form(basis: MonomialBasis, samples) -> tuple[HomogeneousPolynomial, float]:
    """Form of the basis degree vanishing on all samples, with nullspace gap.

    Fits through :func:`whitened_nullspace` and pulls the result back, so the
    returned coefficients live in the original frame (unit norm, sign fixed).
    The gap is the whitened fit's diagnostic.
    """
    fit = whitened_nullspace(basis, samples)
    return fit.form(), fit.gap()


def numerical_rank(matrix, rel_tol: float = RANK_TOL) -> tuple[int, float]:
    """Rank of a matrix at the fitting kernel's cut, with the gap across it.

    The rank counts singular values above ``rel_tol`` times the largest, as
    :meth:`NullspaceFit.rank` does.  Returns ``(rank, gap)`` where ``gap``
    is sigma_r / sigma_{r+1} (inf when the tail is exactly zero, sigma_r over
    the threshold at full rank).  A gap near 1 means the cut fell inside a
    smooth decay and the rank should not be trusted; the caller picks the
    floor.
    """
    matrix = np.asarray(matrix)
    if not np.isfinite(matrix).all():
        raise PolynomialError("rank undefined for a matrix with non-finite entries")
    s = np.linalg.svd(matrix, compute_uv=False)
    rank = int(_rank_at(s, rel_tol))
    if rank == 0:
        return 0, np.inf
    if rank == s.size:
        return rank, float(s[-1] / (rel_tol * s[0]))
    return rank, np.inf if s[rank] == 0.0 else float(s[rank - 1] / s[rank])


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Unit-norm representative with the first significant coordinate positive.

    Complex vectors take the phase rule of :func:`sign_normalize_rows`, real
    if it zeroes their imaginary part; outputs compare across runs.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = sign_normalize_rows(v[None])[0]
        return v if v.imag.any() else v.real.copy()
    n = np.linalg.norm(v)
    if n == 0.0:
        raise PolynomialError("cannot normalize the zero vector")
    return _signed_rows((v / n)[None])[0]


def sign_normalize_rows(X: np.ndarray) -> np.ndarray:
    """:func:`sign_normalize` applied to every row of a 2-d array.

    Each row is scaled to unit norm.  A real row is negated if its first
    coordinate above 1e-12 in magnitude is negative (a unit row always has
    one).  A complex row is rotated so its largest-magnitude coordinate is
    real positive; its imaginary part is zeroed if all of it is below 1e-12.
    """
    X = np.asarray(X)
    cplx = np.iscomplexobj(X)
    # real and imaginary squares summed apart, as numpy's vector norm sums them
    sq = (X.real * X.real).sum(axis=1)
    norms = np.sqrt(sq + (X.imag * X.imag).sum(axis=1) if cplx else sq)
    if (norms == 0.0).any():
        raise PolynomialError("cannot normalize the zero vector")
    X = X / norms[:, None]
    if not cplx:
        return _signed_rows(X)
    lead = X[np.arange(len(X)), np.abs(X).argmax(axis=1)]
    X = X / (lead / np.abs(lead))[:, None]
    return np.where((np.abs(X.imag) < 1e-12).all(axis=1)[:, None], X.real, X)


def _signed_rows(X: np.ndarray) -> np.ndarray:
    # the real sign rule of sign_normalize and sign_normalize_rows on unit rows:
    # a row whose first coordinate above 1e-12 in magnitude is negative is negated
    lead = X[np.arange(len(X)), (np.abs(X) > 1e-12).argmax(axis=1)]
    return np.where(lead[:, None] < 0.0, -X, X)


def cosine_similarity(u, v) -> float:
    """|<u, v>| / (|u| |v|), the scale- and sign-free alignment of two vectors."""
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise PolynomialError("cosine undefined for zero vectors")
    return float(abs(np.vdot(u, v)) / (nu * nv))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the index pairs i < j of n roots, built once: np.triu_indices is slow
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _binary_roots(coeffs) -> tuple[np.ndarray, np.ndarray | float]:
    """The n roots of a binary form over ``t^n, ..., s^n`` as unit (t : s) rows.

    The one root finder of the package.  A finite root r is the row
    ``(r, 1)`` scaled to unit norm, so ``s`` is real and positive; each
    leading coefficient below :data:`BINARY_LEAD_CUT` times the largest is a
    root at ``s = 0``, the row ``(1, 0)``, listed after the finite ones.  The
    rows are real when every root is.  Also returns the smallest pairwise
    separation ``|t_i s_j - t_j s_i|`` (inf for fewer than two roots), which
    is zero at a repeated root.  A zero or non-finite form raises.

    An ``(..., n + 1)`` stack gives ``(..., n, 2)`` rows and a separation per
    form, each with its one-form bits; a zero or non-finite form reads NaN.
    Forms of one companion size (Edelman & Murakami 1995) share one eigvals call.
    """
    g = np.asarray(coeffs)
    if g.ndim == 1:
        rows, sep = _binary_roots(g[None])
        if np.isnan(sep[0]):
            raise PolynomialError("binary form is zero or not finite")
        return rows[0], float(sep[0])
    shape, n = g.shape[:-1], g.shape[-1] - 1
    g = g.reshape(-1, n + 1).astype(np.result_type(g, float), copy=False)
    mag = np.abs(g)
    scale = mag.max(axis=1, initial=0.0)
    ok = (0.0 < scale) & (scale < np.inf)
    first = np.argmax(mag > BINARY_LEAD_CUT * scale[:, None], axis=1)
    last = n - np.argmax(g[:, ::-1] != 0.0, axis=1)
    rows = np.ones((len(g), n, 2), dtype=complex)
    real = np.ones(len(g), dtype=bool)      # forms whose roots are all real
    # numpy's companion matrices: trailing zeros are roots t = 0 listed last
    for lo, hi in set(zip(first[ok].tolist(), last[ok].tolist())):
        sel, m = np.flatnonzero(ok & (first == lo) & (last == hi)), hi - lo
        if m:
            C = np.zeros((len(sel), m, m), dtype=g.dtype)
            C[:, 0] = -g[sel, lo + 1:hi + 1] / g[sel, lo:lo + 1]
            C[:, np.arange(1, m), np.arange(m - 1)] = 1.0
            w = np.linalg.eigvals(C)
            real[sel] = (w.imag == 0.0).all(axis=1) if np.isrealobj(g) else False
            rows[sel, :m, 0] = w
        rows[sel, m:n - lo, 0] = 0.0
        rows[sel, n - lo:, 1] = 0.0
    # real and imaginary squares summed apart, as numpy's vector norm sums
    # them: the sweep's points, and so its pinned digest, keep their bits
    norm = np.sqrt((rows.real ** 2).sum(axis=2) + (rows.imag ** 2).sum(axis=2))[..., None]
    if real.all():
        rows = rows.real / norm
    else:       # a real division, not a complex one, keeps a real form's bits
        unit = rows / norm
        unit[real] = rows[real].real / norm[real]
        rows = unit
    i, j = _pairs(n)
    cross = np.abs(rows[:, i, 0] * rows[:, j, 1] - rows[:, i, 1] * rows[:, j, 0])
    sep = cross.min(axis=1, initial=np.inf)
    if not ok.all():
        rows[~ok], sep[~ok] = np.nan, np.nan
    return rows.reshape(*shape, n, 2), sep.reshape(shape)
