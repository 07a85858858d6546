"""Every batched curve quantity, camera product and triangulation gives each row its one-row bits.

The batch a parameter or a point is evaluated in is an incidental choice, so
no row may depend on it: each row of a batched call must equal the one-row
call, sign bits included, and permuting the batch must permute the rows.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvemvg import curve_models as cm
from curvemvg import dynamics as dy
from curvemvg import polycore as pc
from curvemvg import projective_cameras as pcam

_QUANTITIES = {
    "points": lambda curve, cam, ths: curve.points(ths),
    "velocity": lambda curve, cam, ths: curve.velocity(ths),
    "tangent_lines": lambda curve, cam, ths: curve.tangent_lines(ths),
    "image_tangents": lambda curve, cam, ths: cm.image_tangents(curve, cam, ths),
    # the rows the dual fit stacks: the class-m monomials of image tangents
    "monomial_rows": lambda curve, cam, ths: pc.monomial_rows(
        pc.enumerate_monomials(3, cm.class_of(curve.degree, 0)),
        cm.image_tangents(curve, cam, ths)),
}


@lru_cache(maxsize=None)
def _curve(name: str, seed: int) -> cm.RationalCurve3D:
    return cm.preset_curve(name, seed)


def _assert_bit_equal(got, want):
    # np.array_equal reads -0.0 == +0.0, so the sign bits are compared too,
    # of the real and the imaginary parts
    assert got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("quantity", sorted(_QUANTITIES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(cm.PRESET_NAMES), seed=st.integers(0, 7),
       thetas=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=24), data=st.data())
def test_batch_rows_equal_one_row_calls(cams, quantity, name, seed, thetas, data):
    rows = _QUANTITIES[quantity]
    curve, cam = _curve(name, seed), cams[seed]
    ths = np.array(thetas)
    batch = rows(curve, cam, ths)
    assert len(batch) == len(ths)
    for th, row in zip(ths, batch):
        _assert_bit_equal(rows(curve, cam, [th])[0], row)
    perm = data.draw(st.permutations(range(len(ths))))
    _assert_bit_equal(rows(curve, cam, ths[perm]), batch[perm])


@pytest.mark.parametrize("quantity", sorted(_QUANTITIES))
def test_an_empty_batch_gives_no_rows(cams, cubic, quantity):
    # kruppa.tangency_points asks for the points of zero real tangencies so
    rows = _QUANTITIES[quantity](cubic, cams[0], [])
    assert rows.ndim == 2 and len(rows) == 0


_REAL = (float, st.floats(-4.0, 4.0))
_CAMERA_PRODUCTS = {
    # name: (dtype and entries of the rows, their width, one camera's product)
    "project": (_REAL, 4, lambda cam, X: cam.project(X)),
    # reconstruct.epipolar_sweep projects complex cone-intersection candidates
    "project_complex": ((complex, st.complex_numbers(max_magnitude=4.0)), 4,
                        lambda cam, X: cam.project(X)),
    "rays": (_REAL, 3, lambda cam, X: cam.rays(X)),
    # reconstruct.dual_reconstruct lifts image lines l to the planes M^T l
    "tangent_planes": (_REAL, 3, lambda cam, X: pcam._map_rows(cam.M.T, X)),
}


@pytest.mark.parametrize("product", sorted(_CAMERA_PRODUCTS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(ci=st.integers(0, 7), n=st.integers(1, 24), data=st.data())
def test_camera_rows_equal_one_row_calls(cams, product, ci, n, data):
    (dtype, entries), width, rows = _CAMERA_PRODUCTS[product]
    cam = cams[ci]
    X = data.draw(hnp.arrays(dtype, (n, width), elements=entries))
    batch = rows(cam, X)
    assert batch.shape == (n, len(rows(cam, X[0])))
    for x, row in zip(X, batch):
        _assert_bit_equal(rows(cam, x), row)
        _assert_bit_equal(rows(cam, x[None])[0], row)
    perm = data.draw(st.permutations(range(n)))
    _assert_bit_equal(rows(cam, X[perm]), batch[perm])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_a_ring_stack_projects_each_row_as_its_camera_does(cams, n, seed):
    # scenes.observe_trajectory projects every camera's frames in one call
    P = np.random.default_rng(seed).standard_normal((len(cams), n, 4))
    stacked = pcam._map_rows(np.array([cam.M for cam in cams])[:, None], P)
    for cam, points, rows in zip(cams, P, stacked):
        for x, row in zip(points, rows):
            _assert_bit_equal(cam.project(x), row)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(blocks=st.dictionaries(st.integers(0, 7), st.integers(1, 12), min_size=1),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lifted_detections_equal_one_row_rays(cams, blocks, seed, data):
    # shuffled detections; each camera's block holds 1 to 12 of them
    cam_ids = np.repeat(list(blocks), list(blocks.values()))
    perm = data.draw(st.permutations(range(len(cam_ids))))
    ids = np.stack([cam_ids, np.zeros_like(cam_ids), np.arange(len(cam_ids))], axis=1)[perm]
    pts = np.random.default_rng(seed).standard_normal((len(ids), 3))
    rays = dy.lift_observations(cams, (ids, pts))
    order = np.argsort(ids[:, 0], kind="stable")
    assert np.array_equal(rays.time_ids, ids[order, 2])
    for line, ci, p in zip(rays.lines, ids[order, 0], pts[order]):
        _assert_bit_equal(line, pc.sign_normalize_rows(cams[ci].rays(p[None]))[0])


@pytest.mark.parametrize("dtype", [float, complex])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_triangulated_stacks_equal_one_stack_calls(cams, dtype, n, k, seed, data):
    # reconstruct.epipolar_sweep meets every plane's ray pairs in one call,
    # real and complex; dynamics.recover_static_point meets one stack
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.standard_normal((n, 4))
    ci = rng.integers(0, len(cams), size=k)
    rays = np.stack([[cams[c].rays(cams[c].project(x)) for c in ci] for x in X])
    batch = pcam.triangulate(rays)
    assert batch.shape == (n, 4) and batch.dtype == rays.dtype
    for stack, point in zip(rays, batch):
        _assert_bit_equal(pcam.triangulate(stack), point)
    perm = data.draw(st.permutations(range(n)))
    _assert_bit_equal(pcam.triangulate(rays[perm]), batch[perm])


@pytest.mark.parametrize("coeff_dtype", [float, complex])
@pytest.mark.parametrize("point_dtype", [float, complex])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(0, 4),
       lead=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_evaluated_rows_equal_one_row_calls(coeff_dtype, point_dtype, n, d, lead, seed, data):
    # every form evaluation of the package goes through polycore.evaluate,
    # on one point or on a stack of any leading shape
    rng = np.random.default_rng(seed)
    basis = pc.enumerate_monomials(n, d)

    def draw(dtype, shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    f = pc.HomogeneousPolynomial(basis, draw(coeff_dtype, basis.size))
    X = draw(point_dtype, tuple(lead) + (n,))
    batch = pc.evaluate(f, X)
    assert batch.shape == tuple(lead)
    flat = X.reshape(-1, n)
    for x, value in zip(flat, batch.reshape(-1)):
        _assert_bit_equal(np.asarray(pc.evaluate(f, x)), value)
        _assert_bit_equal(pc.evaluate(f, x[None])[0], value)
    perm = data.draw(st.permutations(range(len(flat))))
    _assert_bit_equal(pc.evaluate(f, flat[perm]), batch.reshape(-1)[perm])


def _np_roots_reference(coeffs):
    # the root kernel as one np.roots call per form, as it stood before the
    # stacked kernel: the stacked kernel must keep these bits
    g = np.asarray(coeffs)
    scale = np.abs(g).max()
    finite = np.roots(g[int(np.argmax(np.abs(g) > pc.BINARY_LEAD_CUT * scale)):])
    rows = np.ones((g.size - 1, 2), dtype=finite.dtype)
    rows[: finite.size, 0] = finite
    rows[finite.size:, 1] = 0.0
    rows /= np.sqrt((rows.real ** 2).sum(axis=1) + (rows.imag ** 2).sum(axis=1))[:, None]
    i, j = np.triu_indices(len(rows), 1)
    return rows, np.abs(rows[i, 0] * rows[j, 1] - rows[i, 1] * rows[j, 0]).min(initial=np.inf)


def _binary_form(kind: str, n: int, rng) -> np.ndarray:
    # one degree-n form over t^n, ..., s^n of the given kind
    g = rng.standard_normal(n + 1)
    if kind == "conjugate pairs":
        r = rng.standard_normal(n // 2) + 1j * rng.uniform(0.1, 2.0, n // 2)
        g = np.poly(np.concatenate([r, r.conj(), rng.standard_normal(n % 2)])).real
    elif kind == "double root" and n >= 2:
        r = rng.standard_normal(n - 1)
        g = np.poly(np.concatenate([r, r[:1]])) * rng.uniform(0.5, 2.0)
    elif kind == "lead under the cut":
        k = rng.integers(1, n + 1)
        g[:k] = 1e-14 * rng.standard_normal(k)
    elif kind == "trailing zero":
        g[n + 1 - rng.integers(1, n + 1):] = 0.0
    elif kind in ("zero", "nan", "inf"):
        g = np.zeros(n + 1) if kind == "zero" else g
        g[rng.integers(0, n + 1)] = {"zero": 0.0, "nan": np.nan, "inf": -np.inf}[kind]
    return g


_FORM_KINDS = ("random", "conjugate pairs", "double root", "lead under the cut",
               "trailing zero", "zero", "nan", "inf")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 12), kinds=st.lists(st.sampled_from(_FORM_KINDS), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_binary_roots_equal_one_form_calls(n, kinds, seed, data):
    # reconstruct.epipolar_sweep takes every plane's roots in one call; each
    # form's rows and separation must be its one-form call's, which keeps the
    # bits of np.roots, and a zero or non-finite form is flagged, not raised
    rng = np.random.default_rng(seed)
    forms = np.array([_binary_form(kind, n, rng) for kind in kinds])
    rows, sep = pc._binary_roots(forms)
    assert rows.shape == (len(forms), n, 2) and sep.shape == (len(forms),)
    for g, r, s in zip(forms, rows, sep):
        if not np.isfinite(g).all() or not g.any():
            assert np.isnan(r).all() and np.isnan(s)
            with pytest.raises(pc.PolynomialError):
                pc._binary_roots(g)
            continue
        one, one_sep = pc._binary_roots(g)
        want, want_sep = _np_roots_reference(g)
        _assert_bit_equal(one, want)
        assert one_sep == want_sep
        _assert_bit_equal(r, one.astype(rows.dtype))
        assert s == one_sep
    perm = data.draw(st.permutations(range(len(forms))))
    rows_p, sep_p = pc._binary_roots(forms[perm])
    assert np.array_equal(rows_p, rows[perm], equal_nan=True)
    assert np.array_equal(sep_p, sep[perm], equal_nan=True)
    # a stack of one leading shape gives the rows of the flat stack
    if len(forms) % 2 == 0:
        rows2, sep2 = pc._binary_roots(forms.reshape(2, -1, n + 1))
        assert np.array_equal(rows2.reshape(rows.shape), rows, equal_nan=True)
        assert np.array_equal(sep2.reshape(-1), sep, equal_nan=True)


@pytest.mark.parametrize("d,n", [(3, 3), (5, 3), (4, 6), (8, 3)])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_restrictions_equal_one_line_calls(d, n, lead, seed):
    # reconstruct.epipolar_sweep restricts a curve to all its epipolar lines
    # in one call; each line's binary form keeps its restrict_to_line bits
    rng = np.random.default_rng(seed)
    f = pc.HomogeneousPolynomial(pc.enumerate_monomials(n, d),
                                 rng.standard_normal(pc.enumerate_monomials(n, d).size))
    spans = rng.standard_normal(tuple(lead) + (n, 2))
    batch = pc.restrict_to_lines(f, spans)
    assert batch.shape == tuple(lead) + (d + 1,)
    for span, coeffs in zip(spans.reshape(-1, n, 2), batch.reshape(-1, d + 1)):
        _assert_bit_equal(pc.restrict_to_line(f, span[:, 0], span[:, 1]).coeffs, coeffs)
        _assert_bit_equal(pc.pullback(f, span).coeffs, coeffs)
