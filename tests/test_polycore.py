import math
import warnings

import numpy as np
import pytest

from curvemvg import polycore as pc


def test_basis_size_and_order():
    b = pc.enumerate_monomials(3, 2)
    assert b.size == 6
    assert b.exponents[0] == (2, 0, 0)
    assert sum(b.exponents[-1]) == 2
    assert b.index((0, 1, 1)) == b.exponents.index((0, 1, 1))


def test_basis_size_matches_binomial():
    import math
    for n, d in [(3, 4), (4, 3), (6, 2), (6, 3)]:
        b = pc.enumerate_monomials(n, d)
        assert b.size == math.comb(n + d - 1, d)


def test_evaluate_known_polynomial():
    # f(x, y, z) = x^2 + 2 y z
    b = pc.enumerate_monomials(3, 2)
    c = np.zeros(b.size)
    c[b.index((2, 0, 0))] = 1.0
    c[b.index((0, 1, 1))] = 2.0
    f = pc.HomogeneousPolynomial(b, c)
    assert f(np.array([1.0, 2.0, 3.0])) == pytest.approx(13.0)
    batch = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    assert pc.evaluate(f, batch) == pytest.approx([1.0, 2.0])


def test_homogeneity_degree():
    rng = np.random.default_rng(0)
    b = pc.enumerate_monomials(4, 3)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    x = rng.standard_normal(4)
    assert f(2.5 * x) == pytest.approx(2.5 ** 3 * f(x))


def test_multiply_degrees_and_values():
    rng = np.random.default_rng(1)
    b2 = pc.enumerate_monomials(3, 2)
    b3 = pc.enumerate_monomials(3, 3)
    f = pc.HomogeneousPolynomial(b2, rng.standard_normal(b2.size))
    g = pc.HomogeneousPolynomial(b3, rng.standard_normal(b3.size))
    h = pc.multiply(f, g)
    assert h.degree == 5
    for _ in range(5):
        x = rng.standard_normal(3)
        assert h(x) == pytest.approx(f(x) * g(x))


def test_pullback_composes_with_map():
    rng = np.random.default_rng(2)
    b = pc.enumerate_monomials(4, 3)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    A = rng.standard_normal((4, 4))
    g = pc.pullback(f, A)
    for _ in range(5):
        x = rng.standard_normal(4)
        assert g(x) == pytest.approx(f(A @ x))


def _pullback_reference(p, A):
    # per-monomial expansion: each monomial becomes a product of powers of the
    # substituted linear forms, each power expanded by the multinomial theorem
    k = A.shape[1]
    out = np.zeros(pc.enumerate_monomials(k, p.degree).size, dtype=np.result_type(p.coeffs, A))
    for coeff, exps in zip(p.coeffs, p.basis.exponents):
        term = pc.HomogeneousPolynomial(pc.enumerate_monomials(k, 0), np.ones(1, dtype=out.dtype))
        for i, e in enumerate(exps):
            if e == 0:
                continue
            b = pc.enumerate_monomials(k, e)
            multinomial = [math.factorial(e) // math.prod(math.factorial(x) for x in ex)
                           for ex in b.exponents]
            power = np.array(multinomial) * np.prod(A[i][None, :] ** b.exponent_array(), axis=1)
            term = pc.multiply(term, pc.HomogeneousPolynomial(b, power))
        out += coeff * term.coeffs
    return out


@pytest.mark.parametrize("n,k,d,complex_map", [
    (3, 3, 4, False), (6, 6, 3, False), (3, 2, 5, False), (4, 4, 4, False),
    (6, 6, 2, False), (4, 3, 0, False), (5, 3, 1, False), (3, 2, 4, True),
])
def test_pullback_matches_per_monomial_expansion(n, k, d, complex_map):
    rng = np.random.default_rng(100 * n + 10 * k + d)
    b = pc.enumerate_monomials(n, d)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    A = rng.standard_normal((n, k))
    if complex_map:
        A = A + 1j * rng.standard_normal((n, k))
    g = pc.pullback(f, A)
    ref = _pullback_reference(f, A)
    assert g.basis == pc.enumerate_monomials(k, d)
    assert g.coeffs.dtype == ref.dtype
    assert np.linalg.norm(g.coeffs - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(g.coeffs, f.coeffs @ pc.sym_power(A, d))


@pytest.mark.parametrize("d", [2, 3])
def test_sym_power_pulls_back_a_stack_at_once(d):
    rng = np.random.default_rng(40 + d)
    b = pc.enumerate_monomials(6, d)
    T = pc.whitening_map(rng.standard_normal((80, 6)) * np.arange(1.0, 7.0))
    null_white = np.linalg.qr(rng.standard_normal((b.size, 7)))[0].T
    stacked = np.stack([pc.pullback(pc.HomogeneousPolynomial(b, v), T).coeffs
                        for v in null_white])
    together = null_white @ pc.sym_power(T, d)
    assert np.abs(together - stacked).max() <= 1e-12 * np.abs(stacked).max()


def test_partial_derivative():
    # d/dx (x^2 y) = 2 x y
    b = pc.enumerate_monomials(3, 3)
    c = np.zeros(b.size)
    c[b.index((2, 1, 0))] = 1.0
    f = pc.HomogeneousPolynomial(b, c)
    fx = pc.partial(f, 0)
    assert fx.degree == 2
    assert fx(np.array([3.0, 5.0, 1.0])) == pytest.approx(30.0)


def test_euler_identity():
    rng = np.random.default_rng(3)
    b = pc.enumerate_monomials(4, 4)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    x = rng.standard_normal(4)
    assert x @ np.array([g(x) for g in pc.gradient(f)]) == pytest.approx(4.0 * f(x))


def test_restrict_to_line_is_binary():
    rng = np.random.default_rng(4)
    b = pc.enumerate_monomials(4, 2)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    a, c = rng.standard_normal(4), rng.standard_normal(4)
    q = pc.restrict_to_line(f, a, c)
    assert q.num_vars == 2
    assert q.degree == 2
    assert q(np.array([0.3, 0.7])) == pytest.approx(f(0.3 * a + 0.7 * c))


def test_restrict_to_line_rejects_parallel():
    b = pc.enumerate_monomials(3, 2)
    f = pc.HomogeneousPolynomial(b, np.ones(b.size))
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(pc.PolynomialError):
        pc.restrict_to_line(f, a, 2.0 * a)


def _power_tensor_rows(basis, points):
    # the direct evaluation: product over variables of coordinate**exponent
    pts = np.atleast_2d(points)
    return np.prod(pts[:, None, :] ** basis.exponent_array()[None, :, :], axis=2)


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                  (4, 4), (6, 2), (6, 3)])
@pytest.mark.parametrize("complex_points", [False, True])
def test_monomial_rows_match_power_tensor(n, d, complex_points):
    rng = np.random.default_rng(n * 10 + d)
    X = rng.standard_normal((40, n))
    if complex_points:
        X = X + 1j * rng.standard_normal((40, n))
    basis = pc.enumerate_monomials(n, d)
    got, want = pc.monomial_rows(basis, X), _power_tensor_rows(basis, X)
    assert got.shape == want.shape == (40, basis.size)
    assert got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


def test_monomial_rows_degree_zero_single_point_and_mismatch():
    x = np.array([0.5, -2.0, 3.0])
    ones = pc.monomial_rows(pc.enumerate_monomials(3, 0), np.ones((4, 3)))
    assert np.array_equal(ones, np.ones((4, 1)))
    basis = pc.enumerate_monomials(3, 3)
    row = pc.monomial_rows(basis, x)
    assert row.shape == (1, basis.size)
    assert np.array_equal(row, pc.monomial_rows(basis, x[None, :]))
    assert np.allclose(row, _power_tensor_rows(basis, x), rtol=1e-15, atol=0)
    with pytest.raises(pc.PolynomialError):
        pc.monomial_rows(basis, np.ones((2, 4)))


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_monomial_rows_is_a_sym_power_column(d):
    x = np.random.default_rng(d).standard_normal(4)
    basis = pc.enumerate_monomials(4, d)
    assert np.array_equal(pc.monomial_rows(basis, x)[0], pc.sym_power(x[:, None], d)[:, 0])


def test_fit_nullspace_right_basis_is_square_for_tall_and_wide_stacks():
    rng = np.random.default_rng(8)
    tall = rng.standard_normal((60, 10))
    wide = rng.standard_normal((4, 10))
    for rows in (tall, wide):
        fit = pc.fit_nullspace(rows)
        assert fit.Vt.shape == (10, 10)
        assert fit.s.shape == (10,)
    assert np.all(pc.fit_nullspace(wide).s[4:] == 0.0)
    _, s, Vt = np.linalg.svd(tall / np.linalg.norm(tall, axis=1, keepdims=True))
    fit = pc.fit_nullspace(tall)
    assert np.array_equal(fit.s, s)
    assert np.array_equal(fit.Vt, Vt)


def test_fit_nullspace_recovers_plane():
    rng = np.random.default_rng(5)
    normal = np.array([1.0, -2.0, 0.5])
    normal /= np.linalg.norm(normal)
    basis = np.linalg.svd(normal[None, :])[2][1:]
    rows = rng.standard_normal((30, 2)) @ basis
    fit = pc.fit_nullspace(rows)
    assert abs(fit.null()[0] @ normal) == pytest.approx(1.0, abs=1e-12)
    assert fit.gap() < 1e-10


def test_whitening_map_isotropizes():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((200, 4)) * np.array([100.0, 1.0, 0.05, 1.0])
    T = pc.whitening_map(X)
    assert np.allclose(T, T.T)
    Y = X / np.linalg.norm(X, axis=1, keepdims=True) @ T
    C = Y.T @ Y / Y.shape[0]
    assert np.allclose(C, np.eye(4), atol=1e-8)


def test_fit_vanishing_form_recovers_anisotropic_conic():
    # conic samples with a 50:1 coordinate scale; the fit must still isolate it
    th = np.linspace(0.1, 3.0, 120)
    pts = np.stack([np.cos(th) ** 2 * 50.0, np.sin(th) * np.cos(th),
                    np.ones_like(th)], axis=1)
    b = pc.enumerate_monomials(3, 2)
    f, gap = pc.fit_vanishing_form(b, pts)
    held = pts[::7] / np.linalg.norm(pts[::7], axis=1, keepdims=True)
    assert max(abs(f(p)) for p in held) < 1e-10
    assert gap < 1e-6


def _conic_points(n):
    th = np.linspace(0.1, 3.0, n)
    return np.stack([np.cos(th) ** 2 * 50.0, np.sin(th) * np.cos(th), np.ones_like(th)], axis=1)


def test_whitened_nullspace_reads_rank_gap_and_form():
    b = pc.enumerate_monomials(3, 2)
    pts = _conic_points(40)
    fit = pc.whitened_nullspace(b, pts)
    assert fit.basis == b and fit.s.shape == (b.size,)
    assert fit.rank() == b.size - 1
    assert fit.gap() < 1e-10
    f, gap = pc.fit_vanishing_form(b, pts)
    assert np.array_equal(f.coeffs, fit.form().coeffs) and gap == fit.gap()
    # too few samples: the padded spectrum reads the missing rank
    short = pc.whitened_nullspace(b, pts[:3])
    assert short.rank() == 3 and short.gap(3) == 0.0 and short.gap(1) == 1.0


def test_whitened_nullspace_reduces_a_degenerate_span():
    # the same conic drawn in the plane x3 = x0 + x1 of P^3: ranks are
    # counted over the span, and the fit has no form in the sample frame
    pts = _conic_points(40)
    lifted = np.column_stack([pts, pts[:, 0] + pts[:, 1]])
    fit = pc.whitened_nullspace(pc.enumerate_monomials(4, 2), lifted)
    assert fit.basis == pc.enumerate_monomials(3, 2)
    assert fit.T.shape == (4, 3)
    assert fit.rank() == 5
    with pytest.raises(pc.PolynomialError):
        fit.form()
    with pytest.raises(pc.PolynomialError):
        pc.fit_vanishing_form(pc.enumerate_monomials(4, 2), lifted)


def test_whitened_nullspace_rejects_a_mismatched_basis():
    with pytest.raises(pc.PolynomialError):
        pc.whitened_nullspace(pc.enumerate_monomials(4, 2), _conic_points(20))


def test_numerical_rank_cuts_where_the_kernel_does():
    rng = np.random.default_rng(9)
    for k in (1, 3, 5):
        A = rng.standard_normal((40, k)) @ rng.standard_normal((k, 7))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        assert pc.numerical_rank(A)[0] == pc.fit_nullspace(A).rank() == k


def test_quadratic_matrix_round_trip():
    rng = np.random.default_rng(8)
    b = pc.enumerate_monomials(3, 2)
    f = pc.HomogeneousPolynomial(b, rng.standard_normal(b.size))
    M = pc.quadratic_matrix(f)
    assert np.allclose(M, M.T)
    for _ in range(4):
        x = rng.standard_normal(3)
        assert x @ M @ x == pytest.approx(f(x))


def test_quadratic_matrix_rejects_cubic():
    b = pc.enumerate_monomials(3, 3)
    f = pc.HomogeneousPolynomial(b, np.ones(b.size))
    with pytest.raises(pc.PolynomialError):
        pc.quadratic_matrix(f)


def test_numerical_rank_gap():
    A = np.diag([1.0, 0.5, 1e-12, 0.0])
    rank, gap = pc.numerical_rank(A)
    assert rank == 2
    assert gap > 1e10


def test_proportionality_residual():
    p = np.array([1.0, 2.0, 3.0])
    assert pc.proportionality_residual(p, -4.0 * p) == pytest.approx(0.0, abs=1e-15)
    assert pc.proportionality_residual(p, np.array([1.0, 2.0, 4.0])) > 1e-2


def test_proportionality_residual_accepts_a_complex_ratio():
    rng = np.random.default_rng(9)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert pc.proportionality_residual(p, (2.0 - 3.0j) * p) < 1e-12
    q = p + 0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert pc.proportionality_residual(p, q) > 1e-3


def test_sign_normalize_conventions():
    v = pc.sign_normalize(np.array([-2.0, 1.0]))
    assert v[0] > 0
    w = pc.sign_normalize(np.array([0.0, -3.0, 1.0]))
    assert w[1] > 0
    z = pc.sign_normalize(np.array([1.0j, 2.0, 0.0]))
    assert abs(np.linalg.norm(z) - 1.0) < 1e-12


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)
    return g, calls


def _golden_budget(width, xtol):
    import math
    return math.ceil(math.log(width / xtol) / math.log((1 + math.sqrt(5)) / 2)) + 3


@pytest.mark.parametrize("xtol", [1e-6, 1e-10, 1e-13])
def test_golden_polish_v_shape(xtol):
    t0 = 0.3141
    f, calls = _counted(lambda t: abs(t - t0))
    x, fx = pc.golden_polish(f, -1.0, 2.0, xtol)
    assert abs(x - t0) <= xtol
    assert fx == abs(x - t0)
    assert len(calls) <= _golden_budget(3.0, xtol)


def test_golden_polish_quadratic():
    t0 = -0.72
    f, calls = _counted(lambda t: 5.0 * (t - t0) ** 2)
    x, fx = pc.golden_polish(f, -1.0, 0.5, 1e-9)
    assert abs(x - t0) <= 1e-9
    assert fx == 5.0 * (x - t0) ** 2
    assert len(calls) <= _golden_budget(1.5, 1e-9)


@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_golden_polish_returns_bracket_edge(slope):
    lo, hi = 0.25, 0.75
    f, calls = _counted(lambda t: slope * t)
    x, fx = pc.golden_polish(f, lo, hi, 1e-12)
    assert x == (lo if slope > 0 else hi)
    assert fx == slope * x
    assert len(calls) <= _golden_budget(hi - lo, 1e-12)


def test_sign_normalize_rows_matches_sign_normalize():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 6)) * rng.uniform(0.1, 10.0, size=(40, 1))
    # rows whose leading coordinates sit below the 1e-12 significance cut,
    # with either sign, so the sign is read from a later coordinate
    X[:10, 0] = 1e-14 * np.sign(rng.standard_normal(10))
    X[5:10, 1] = -3e-13
    X[10:15, :3] = 0.0
    got = pc.sign_normalize_rows(X)
    want = np.array([pc.sign_normalize(x) for x in X])
    assert np.abs(got - want).max() <= 1e-15
    assert np.array_equal(np.sign(got), np.sign(want))
    with pytest.raises(pc.PolynomialError):
        pc.sign_normalize_rows(np.zeros((2, 3)))


@pytest.mark.parametrize("samples,message", [
    (np.zeros((0, 4)), "no samples"),
    (np.zeros((2, 0, 4)), "no samples"),
    (np.vstack([np.random.default_rng(3).standard_normal((20, 4)), np.zeros((1, 4))]),
     "zero row"),
    (np.vstack([np.random.default_rng(3).standard_normal((2, 4)), np.zeros((1, 4))]),
     "zero row"),
])
def test_whitened_nullspace_refuses_degenerate_samples(samples, message):
    # a documented error type with one line, and no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.PolynomialError, match=message):
            pc.whitened_nullspace(pc.enumerate_monomials(4, 2), samples)
