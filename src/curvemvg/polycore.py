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


class PolynomialError(ValueError):
    """Raised for degenerate polynomial-level inputs (zero forms, bad shapes)."""


# smallest eigenvalue ratio whitening_map accepts; a span direction whose
# singular-value ratio is below its square root cannot be whitened
WHITENING_FLOOR = 1e-12

# relative singular-value cut of every fitted rank
RANK_TOL = 1e-7


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def evaluate(p: HomogeneousPolynomial, x):
    """Evaluate ``p`` at one point or a batch of points (rows)."""
    x = np.asarray(x)
    single = x.ndim == 1
    vals = monomial_rows(p.basis, x) @ p.coeffs
    return vals[0] if single else vals


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
    degree-e row is its degree-(e-1) parent row times one linear form.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise PolynomialError(f"substitution matrix has shape {A.shape}, expected (n, k)")
    if degree < 0:
        raise PolynomialError("degree must be nonnegative")
    n, k = A.shape
    S = np.ones((1, 1), dtype=np.result_type(A, float))
    for e in range(1, degree + 1):
        parents, peeled = _peel_table(n, e)
        terms = S[parents][:, :, None] * A[peeled][:, None, :]
        S = terms.reshape(len(parents), -1) @ _scatter(k, e)
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
    idx = _index_of(p.num_vars, p.degree - 1)
    out = np.zeros(target.size, dtype=p.coeffs.dtype)
    for coeff, exps in zip(p.coeffs, p.basis.exponents):
        if exps[i] == 0 or coeff == 0:
            continue
        shifted = list(exps)
        shifted[i] -= 1
        out[idx[tuple(shifted)]] += exps[i] * coeff
    return HomogeneousPolynomial(target, out)


def gradient(p: HomogeneousPolynomial) -> list[HomogeneousPolynomial]:
    """All first partials of ``p``."""
    return [partial(p, i) for i in range(p.num_vars)]


def quadratic_matrix(p: HomogeneousPolynomial) -> np.ndarray:
    """Symmetric matrix M of a quadratic form, so p(x) = x^T M x."""
    if p.degree != 2:
        raise PolynomialError("only quadratic forms have a matrix")
    n = p.num_vars
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            c = p.coeffs[p.basis.index(tuple(e))]
            if i == j:
                M[i, i] = c
            else:
                M[i, j] = M[j, i] = c / 2.0
    return M


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
    return pullback(p, np.stack([a, b], axis=1))


def proportionality_residual(p, q) -> float:
    """Largest normalized cross-difference of two vectors (0 iff parallel over C)."""
    p = np.asarray(p).ravel()
    q = np.asarray(q).ravel()
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ == 0.0 or nq == 0.0:
        raise PolynomialError("residual undefined for zero vectors")
    return float(np.abs(np.outer(p, q) - np.outer(q, p)).max() / (np_ * nq))


def _rank_at(s: np.ndarray, rel_tol: float) -> int:
    # the one rank cut: singular values above rel_tol times the largest
    return int(np.sum(s > rel_tol * s[0])) if s.size and s[0] > 0.0 else 0


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
        return _rank_at(self.s, RANK_TOL)

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

    Zero rows are dropped.  A tall stack takes the thin SVD, whose ``Vt`` is
    already square; one with fewer rows than columns takes the full SVD, so
    it still has every right singular vector and reads rank deficient.  A
    3-d array holds k such stacks; one batched SVD gives their k fits.
    """
    A = np.asarray(rows, dtype=float)
    if A.ndim not in (2, 3):
        raise PolynomialError("need a 2-d stack of rows")
    B = A if A.ndim == 3 else A[None]
    norms = np.linalg.norm(B, axis=2)
    keep = norms > 0.0
    if not keep.any(axis=1).all():
        raise PolynomialError("all rows are zero")
    if not keep.all():
        # without their zero rows the blocks are ragged: one at a time
        fits = [fit_nullspace(b[m]) for b, m in zip(B, keep)]
    else:
        B = B / norms[..., None]
        _, s, Vt = np.linalg.svd(B, full_matrices=B.shape[1] < B.shape[2])
        s_pad = np.zeros(B.shape[::2])
        s_pad[:, : s.shape[1]] = s
        floor = np.finfo(float).eps * max(B.shape[1:]) * s_pad[:, 0]
        fits = [NullspaceFit(*fit) for fit in zip(s_pad, Vt, floor)]
    return fits if A.ndim == 3 else fits[0]


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigenpairs of each block's second moment of unit-normalized rows
    X = X / np.linalg.norm(X, axis=-1, keepdims=True)
    return np.linalg.eigh(X.swapaxes(-1, -2) @ X / X.shape[-2])


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
    w, V = _moments(X)
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
    without rows, or with a zero row, raise :class:`PolynomialError`.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-1] != basis.num_vars:
        raise PolynomialError(
            f"samples have shape {X.shape}, basis expects {basis.num_vars} coordinates")
    B = X if X.ndim == 3 else X[None]
    if B.shape[1] == 0:
        raise PolynomialError("no samples to fit")
    if not B.any(axis=2).all():
        raise PolynomialError("samples include a zero row")
    whitens = np.full(len(B), B.shape[1] >= B.shape[2])
    if len(B) > 1 and whitens.all():
        # find the blocks too flat to whiten, then whiten the others together
        w = _moments(B)[0]
        whitens = w[:, 0] > WHITENING_FLOOR * w[:, -1]
    fits = np.empty(len(B), dtype=object)
    if whitens.any():
        try:
            T = whitening_map(B[whitens])
        except PolynomialError:
            whitens[:] = False  # a lone block too flat to whiten
        else:
            fits[whitens] = _frame_fits(basis, B[whitens] @ T, T)
    if not whitens.all():
        # keep the span directions whitening_map can scale to unit variance,
        # in an orthonormal basis; blocks of one span dimension go together
        rest = np.flatnonzero(~whitens)
        unit = B[rest] / np.linalg.norm(B[rest], axis=2, keepdims=True)
        _, sv, Vt = np.linalg.svd(unit, full_matrices=False)
        dims = np.sum(sv > math.sqrt(WHITENING_FLOOR) * sv.T[0][:, None], axis=1)
        for r in sorted(set(dims.tolist())):
            same = dims == r
            span = Vt[same, :r].swapaxes(1, 2)
            Y = unit[same] @ span
            T = whitening_map(Y)
            fits[rest[same]] = _frame_fits(enumerate_monomials(r, basis.degree), Y @ T, span @ T)
    return list(fits) if X.ndim == 3 else fits[0]


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
    s = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    rank = _rank_at(s, rel_tol)
    if rank == 0:
        return 0, np.inf
    if rank == s.size:
        return rank, float(s[-1] / (rel_tol * s[0]))
    return rank, np.inf if s[rank] == 0.0 else float(s[rank - 1] / s[rank])


def sign_normalize(v: np.ndarray) -> np.ndarray:
    """Unit-norm representative with the first significant coordinate positive.

    Complex vectors are rotated so the largest-magnitude coordinate is real
    positive; this makes homogeneous outputs comparable across runs.
    """
    v = np.asarray(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise PolynomialError("cannot normalize the zero vector")
    v = v / n
    if np.iscomplexobj(v):
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v / phase
        if np.abs(v.imag).max() < 1e-12:
            v = v.real.copy()
        return v
    significant = np.abs(v) > 1e-12
    if not np.any(significant):
        return v
    lead = v[np.argmax(significant)]
    return -v if lead < 0 else v


def sign_normalize_rows(X: np.ndarray) -> np.ndarray:
    """Real :func:`sign_normalize` applied to every row of a 2-d array.

    Each row is scaled to unit norm and negated if its first coordinate
    above 1e-12 in magnitude is negative (a unit row always has one).
    """
    X = np.asarray(X, dtype=float)
    norms = np.sqrt((X * X).sum(axis=1))
    if (norms == 0.0).any():
        raise PolynomialError("cannot normalize the zero vector")
    X = X / norms[:, None]
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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_polish(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Minimise a unimodal f on [lo, hi] by golden-section search.

    Each step keeps one interior point and its value, so it costs a single
    evaluation; the bracket shrinks by the golden ratio per step until it is
    at most xtol wide.  A minimum at either end of the bracket is returned
    as that end.  Returns ``(x, f(x))`` for the best point evaluated.
    """
    a, b = float(lo), float(hi)
    width = b - a
    steps = 0
    if width > xtol:
        steps = math.ceil(math.log(width / xtol) / -math.log(_INV_PHI))
    c, d = b - _INV_PHI * width, a + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x, fx = (c, fc) if fc < fd else (d, fd)
    if a == lo or b == hi:
        edge = a if a == lo else b
        fe = f(edge)
        if fe <= fx:
            x, fx = edge, fe
    return x, fx
