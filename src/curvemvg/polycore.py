"""Dense homogeneous polynomials over a fixed graded-lex monomial basis.

Everything downstream (implicit image curves, dual curves, Chow forms,
tangency constraints) is expressed as a coefficient vector over the basis
returned by :func:`enumerate_monomials`, so the ordering here is the one
binding convention of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class PolynomialError(ValueError):
    """Raised for degenerate polynomial-level inputs (zero forms, bad shapes)."""


# smallest eigenvalue ratio whitening_map accepts; a span direction whose
# singular-value ratio is below its square root cannot be whitened
WHITENING_FLOOR = 1e-12


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
    """Evaluate every basis monomial at every point; rows index points."""
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != basis.num_vars:
        raise PolynomialError(
            f"points have {pts.shape[1]} coordinates, basis expects {basis.num_vars}")
    exps = basis.exponent_array()
    # (npts, size): product over variables of coordinate**exponent
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)


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
def _sym_power_tables(num_vars: int, k: int, degree: int) -> tuple:
    # per degree e = 1..degree: for every degree-e monomial in num_vars
    # variables, the row of its degree-(e-1) parent, the variable peeled off,
    # and the 0/1 matrix scattering (parent column, new factor) pairs onto
    # the degree-e basis in k variables
    tables = []
    for e in range(1, degree + 1):
        parent_idx = _index_of(num_vars, e - 1)
        parents, peeled = [], []
        for exps in _exponents(num_vars, e):
            i = next(j for j, x in enumerate(exps) if x)
            shifted = list(exps)
            shifted[i] -= 1
            parents.append(parent_idx[tuple(shifted)])
            peeled.append(i)
        imap = _product_index_map(k, e - 1, 1).ravel()
        scatter = np.zeros((imap.size, math.comb(k + e - 1, e)))
        scatter[np.arange(imap.size), imap] = 1.0
        table = (np.array(parents), np.array(peeled), scatter)
        for arr in table:
            arr.setflags(write=False)
        tables.append(table)
    return tuple(tables)


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
    for parents, peeled, scatter in _sym_power_tables(n, k, degree):
        terms = S[parents][:, :, None] * A[peeled][:, None, :]
        S = terms.reshape(len(parents), -1) @ scatter
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


def gradient_at(p: HomogeneousPolynomial, x) -> np.ndarray:
    """Gradient vector of ``p`` at a single point."""
    return np.array([evaluate(g, x) for g in gradient(p)])


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
    """Largest normalized cross-difference between two vectors (0 iff parallel)."""
    p = np.asarray(p).ravel()
    q = np.asarray(q).ravel()
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ == 0.0 or nq == 0.0:
        raise PolynomialError("residual undefined for zero vectors")
    cross = np.outer(p, np.conj(q))
    return float(np.abs(cross - cross.conj().T).max() / (np_ * nq))


def fit_nullspace(rows) -> tuple[np.ndarray, float]:
    """Least-squares null vector of a stack of linear conditions.

    Rows are normalized to unit norm before assembly (zero rows are dropped).
    Returns ``(vector, gap)`` where ``gap`` is the ratio of the two smallest
    singular values after padding to the column count: a gap near 0 means the
    null direction is isolated, a gap near 1 flags a non-unique solution.
    """
    A = np.asarray(rows, dtype=float)
    if A.ndim != 2:
        raise PolynomialError("need a 2-d stack of rows")
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 0.0
    if not np.any(keep):
        raise PolynomialError("all rows are zero")
    A = A[keep] / norms[keep, None]
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    ncols = A.shape[1]
    s_pad = np.zeros(ncols)
    s_pad[: s.shape[0]] = s
    tiny = np.finfo(float).eps * max(A.shape) * (s_pad[0] if s_pad[0] > 0 else 1.0)
    if s_pad[-2] <= tiny:
        gap = 1.0
    else:
        gap = float(s_pad[-1] / s_pad[-2])
    vec = Vt[-1] if Vt.shape[0] >= ncols else None
    if vec is None:  # fewer rows than columns: svd still yields full Vt with full_matrices
        raise PolynomialError("could not extract a null vector")
    return sign_normalize(vec), gap


def whitening_map(samples) -> np.ndarray:
    """Symmetric map sending unit-normalized samples to isotropic position.

    Conditioning of a monomial-basis fit degrades fast when the sample cloud
    is anisotropic; composing with this map before building rows, then pulling
    the fitted form back, keeps the fitted variety unchanged while taming the
    singular-value tail.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise PolynomialError("need at least as many samples as coordinates")
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    w, V = np.linalg.eigh(X.T @ X / X.shape[0])
    if w[0] <= WHITENING_FLOOR * w[-1]:
        raise PolynomialError("samples span a degenerate subspace")
    return V @ np.diag(w ** -0.5) @ V.T


def fit_vanishing_form(basis: MonomialBasis, samples, *,
                       whiten: bool = True) -> tuple[HomogeneousPolynomial, float]:
    """Form of the basis degree vanishing on all samples, with nullspace gap.

    Fits in whitened coordinates by default and pulls the result back, so the
    returned coefficients live in the original frame (unit norm, sign fixed).
    The gap is the whitened fit's diagnostic.
    """
    pts = np.asarray(samples, dtype=float)
    if whiten:
        T = whitening_map(pts)
        pts = pts @ T
    coeffs, gap = fit_nullspace(monomial_rows(basis, pts))
    poly = HomogeneousPolynomial(basis, coeffs)
    if whiten:
        poly = pullback(poly, T)
        poly = HomogeneousPolynomial(basis, sign_normalize(poly.coeffs))
    return poly, gap


def numerical_rank(matrix, rel_tol: float = 1e-7, gap_floor: float = 10.0):
    """Rank of a matrix by singular-value threshold, with a gap diagnostic.

    Returns ``(rank, gap)`` where ``gap`` is the ratio across the cut
    (sigma_r / sigma_{r+1}, inf when the tail is exactly zero).  A gap below
    ``gap_floor`` means the threshold fell inside a smooth decay and the rank
    should not be trusted.
    """
    A = np.asarray(matrix)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, np.inf
    thresh = rel_tol * s[0]
    rank = int(np.sum(s > thresh))
    n_small = min(A.shape)
    s_pad = np.zeros(n_small)
    s_pad[: s.shape[0]] = s
    if rank == 0:
        gap = np.inf
    elif rank == n_small:
        gap = s_pad[rank - 1] / thresh
    else:
        tail = s_pad[rank]
        gap = np.inf if tail == 0.0 else s_pad[rank - 1] / tail
    return rank, float(gap)


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
    if np.any(norms == 0.0):
        raise PolynomialError("cannot normalize the zero vector")
    X = X / norms[:, None]
    lead = X[np.arange(len(X)), np.argmax(np.abs(X) > 1e-12, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)[:, None] * X


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
