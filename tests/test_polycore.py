import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    assert pc.evaluate(f, np.stack([batch, batch])).shape == (2, 2)


def test_evaluate_does_not_conjugate_complex_coefficients():
    # f(x, y) = i x + (1 - 2i) y
    f = pc.HomogeneousPolynomial(pc.enumerate_monomials(2, 1), np.array([1j, 1 - 2j]))
    assert pc.evaluate(f, np.array([1.0, 0.0])) == 1j
    assert pc.evaluate(f, np.array([[1.0, 0.0], [0.0, 1.0], [1j, 1.0]])).tolist() == [
        1j, 1 - 2j, -1 + (1 - 2j)]


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


def _partial_reference(p, i):
    # the term-by-term loop over exponent tuples, skipping zero terms
    target = pc.enumerate_monomials(p.num_vars, p.degree - 1)
    out = np.zeros(target.size, dtype=p.coeffs.dtype)
    for coeff, exps in zip(p.coeffs, p.basis.exponents):
        if exps[i] and coeff != 0:
            out[target.index(exps[:i] + (exps[i] - 1,) + exps[i + 1:])] += exps[i] * coeff
    return out


def _quadratic_matrix_reference(p):
    n = p.num_vars
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            M[i, j] = M[j, i] = p.coeffs[p.basis.index(tuple(e))] / (1.0 if i == j else 2.0)
    return M


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_partial_and_quadratic_matrix_match_the_loops_to_the_bit(n):
    # signed zeros included: a -0.0 coefficient gives +0.0, as a skipped term does
    rng = np.random.default_rng(n)
    for d in range(1, 6):
        b = pc.enumerate_monomials(n, d)
        for kind in ("real", "zeros", "signed_zeros", "complex"):
            c = rng.standard_normal(b.size)
            if kind == "complex":
                c = c + 1j * rng.standard_normal(b.size)
            if kind != "real":
                c[rng.random(b.size) < 0.5] = -0.0 if kind != "zeros" else 0.0
            f = pc.HomogeneousPolynomial(b, c)
            for i in range(n):
                got, ref = pc.partial(f, i).coeffs, _partial_reference(f, i)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            if d == 2 and kind != "complex":
                got, ref = pc.quadratic_matrix(f), _quadratic_matrix_reference(f)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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


def _thin_svd_matches_the_fit(B):
    # fit_nullspace's spectrum and right basis against the thin SVD of the
    # same unit rows, bit for bit
    _, s, Vt = np.linalg.svd(B / np.linalg.norm(B, axis=-1, keepdims=True), full_matrices=False)
    fits = pc.fit_nullspace(B)
    if B.ndim == 2:
        fits, s, Vt = [fits], s[None], Vt[None]
    return all(np.array_equal(f.s, sk) and np.array_equal(f.Vt, Vk)
               for f, sk, Vk in zip(fits, s, Vt, strict=True))


@pytest.mark.parametrize("n", [15, 21, 35, 56])
def test_fit_nullspace_keeps_the_thin_svd_bits_about_the_qr_bound(n):
    # from 21 columns and 11 n // 6 rows on (the bound at which LAPACK's
    # dgesdd factors QR first) the fit takes the SVD of one QR's R; below
    # either, the thin SVD
    bound = 11 * n // 6
    for m in (bound - 1, bound, bound + 1):
        B = np.random.default_rng((n, m)).standard_normal((3, m, n))
        assert _thin_svd_matches_the_fit(B[0])
        assert _thin_svd_matches_the_fit(B)


@pytest.mark.parametrize("shape, qr_calls", [((30, 15), 0), ((120, 21), 1)])
def test_fit_nullspace_factors_qr_first_only_from_the_column_floor(monkeypatch, shape, qr_calls):
    # below 21 columns the QR costs more than the thin SVD it shortens
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    pc.fit_nullspace(np.random.default_rng(3).standard_normal(shape))
    assert len(calls) == qr_calls


_QR_BOUND_CHILD = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_polycore import _thin_svd_matches_the_fit
for m in (101, 102, 103, 120):
    B = np.random.default_rng((56, m)).standard_normal((3, m, 56))
    assert _thin_svd_matches_the_fit(B[0]) and _thin_svd_matches_the_fit(B), m
"""


def test_fit_nullspace_keeps_the_thin_svd_bits_at_two_blas_threads():
    # BLAS reads its thread count at load, so the check runs in a fresh interpreter
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _QR_BOUND_CHILD, str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_numerical_rank_refuses_a_non_finite_entry(bad):
    # numpy's SVD used to raise LinAlgError: "SVD did not converge"
    A = np.diag([1.0, 0.5, 1e-12])
    A[0, 2] = bad
    with pytest.raises(pc.PolynomialError, match="non-finite"):
        pc.numerical_rank(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_proportionality_residual_refuses_a_non_finite_entry(bad):
    # a NaN used to come back as the residual itself
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(pc.PolynomialError, match="non-finite"):
        pc.proportionality_residual(p, np.array([1.0, bad, 3.0]))
    with pytest.raises(pc.PolynomialError, match="non-finite"):
        pc.proportionality_residual(np.array([bad, 2.0, 3.0]), p)


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


@pytest.mark.parametrize("k", [0, 1, 3])
def test_binary_roots_count_leading_zeros_as_roots_at_infinity(k):
    # (t - 2s)(t + s) s^k, one leading zero below the cut; every root is real
    coeffs = np.concatenate([[0.0] * k, [1.0, -1.0, -2.0]])
    if k:
        coeffs[0] = 1e-14
    rows, sep = pc._binary_roots(coeffs)
    assert rows.shape == (k + 2, 2) and rows.dtype == float
    assert np.array_equal(rows[2:], np.tile([1.0, 0.0], (k, 1)))
    assert np.allclose(sorted(rows[:2, 0] / rows[:2, 1]), [-1.0, 2.0])
    # the closest pair is (2 : 1) and (1 : 0) when there is a root at infinity
    assert sep == (0.0 if k > 1 else pytest.approx(1 / np.sqrt(5) if k else 3 / np.sqrt(10)))


def test_binary_roots_returns_complex_conjugate_pairs():
    # (t^2 + s^2)(t - 3s): roots i, -i and 3
    rows, sep = pc._binary_roots([1.0, -3.0, 1.0, -3.0])
    assert np.iscomplexobj(rows)
    assert np.allclose(rows[:, 1].imag, 0.0) and (rows[:, 1].real > 0).all()
    ratios = rows[:, 0] / rows[:, 1]
    assert np.allclose(sorted(ratios, key=lambda r: (r.real, r.imag)), [-1j, 1j, 3.0])
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    # |i - 3| / (sqrt(2) sqrt(10)) is below the conjugate pair's 1
    assert sep == pytest.approx(1 / np.sqrt(2))


def test_binary_roots_double_root_has_zero_separation():
    # (t - 0.7 s)^2 (t + 2 s)
    coeffs = np.polymul(np.polymul([1.0, -0.7], [1.0, -0.7]), [1.0, 2.0])
    _, sep = pc._binary_roots(coeffs)
    assert sep < 1e-7


def test_binary_roots_refuses_a_zero_or_non_finite_form():
    for coeffs in ([0.0, 0.0, 0.0], [1.0, np.nan, 2.0], [np.inf, 1.0]):
        with pytest.raises(pc.PolynomialError):
            pc._binary_roots(coeffs)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_binary_roots_are_roots(n):
    rng = np.random.default_rng(n)
    # one form with coefficients of one size, one spread over six decades
    for coeffs in rng.standard_normal((2, n + 1)) * [[1.0], [1e6]] ** np.linspace(0, 1, n + 1):
        rows, _ = pc._binary_roots(coeffs)
        assert rows.shape == (n, 2)
        # each value relative to the sum of its terms' magnitudes
        mono = pc.monomial_rows(pc.enumerate_monomials(2, n), rows)
        assert (np.abs(mono @ coeffs) <= 1e-12 * (np.abs(mono) @ np.abs(coeffs))).all()
        assert np.allclose(np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2, 1.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fits_name_a_non_finite_sample(bad):
    # a NaN or an inf reached LAPACK as "Eigenvalues did not converge"; now
    # each fit raises the package's own error naming the row
    rng = np.random.default_rng(5)
    basis = pc.enumerate_monomials(3, 2)
    X = rng.standard_normal((20, 3))
    X[7, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pc.PolynomialError, match="sample 7 is not finite"):
            pc.whitened_nullspace(basis, X)
        with pytest.raises(pc.PolynomialError, match="sample 7 of block 1 is not finite"):
            pc.whitened_nullspace(basis, np.stack([rng.standard_normal((20, 3)), X]))
        with pytest.raises(pc.PolynomialError, match="sample 7 is not finite"):
            pc.fit_vanishing_form(basis, X)
        rows = pc.monomial_rows(basis, rng.standard_normal((20, 3)))
        rows[4, 2] = bad
        with pytest.raises(pc.PolynomialError, match="row 4 is not finite"):
            pc.fit_nullspace(rows)


def _scale_samples():
    # ray rows meeting a conic (degree 2 over P^5) and image points of a
    # twisted cubic (degree 3 over P^2), each at the degree it is fitted at
    from curvemvg.curve_models import preset_curve
    from curvemvg.projective_cameras import Camera, join_points
    rng = np.random.default_rng(31)
    th = (np.arange(60) + 0.3) * (np.pi / 60)
    rays = join_points(preset_curve("conic", 11).points(th), rng.standard_normal((60, 4)))
    cam = Camera(rng.standard_normal((3, 4)))
    points = cam.project(preset_curve("twisted_cubic", 3).points(th[:40]))
    return [(pc.enumerate_monomials(6, 2), rays), (pc.enumerate_monomials(3, 3), points)]


def test_whitened_nullspace_ignores_the_scale_of_a_row():
    # the fit owns row scale, so callers hand it their rows as they are: a
    # power-of-two scale of each row leaves the spectrum and the basis
    # bit-identical, and any scale leaves the rank and the null space
    rng = np.random.default_rng(32)
    for basis, X in _scale_samples():
        ref = pc.whitened_nullspace(basis, X)
        k = basis.size - ref.rank()
        assert k >= 1
        for _ in range(5):
            two = pc.whitened_nullspace(basis, np.ldexp(X, rng.integers(-8, 9, len(X))[:, None]))
            assert np.array_equal(two.s, ref.s) and np.array_equal(two.Vt, ref.Vt)
            any_ = pc.whitened_nullspace(basis, X * 10.0 ** rng.uniform(-3, 3, (len(X), 1)))
            assert any_.rank() == ref.rank()
            # cosines of the principal angles between the two null spaces
            cos = np.linalg.svd(any_.null(k) @ ref.null(k).T, compute_uv=False)
            assert 1.0 - cos.min() <= 1e-14


def test_norms_scale_a_row_whose_squares_overflow():
    # a finite row whose squared sum overflows is scaled by its largest entry
    # and read without a warning; every other row keeps the plain dot
    # product's bits, and a row holding an inf or a NaN reads inf or NaN
    rows = np.array([[1e200, 1.0, 0.0, 0.0], [-3e300, 4e300, 0.0, 0.0],
                     [3.0, 4.0, 0.0, 1e-3], [np.inf, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = pc._norms(rows)
        assert pc._norms(rows[0]).tolist() == [1e200]
    assert n.shape == (5, 1)
    assert n[0, 0] == 1e200 and n[1, 0] == 5e300
    assert n[2, 0] == np.sqrt(rows[2] @ rows[2])
    assert n[3, 0] == np.inf and np.isnan(n[4, 0])
