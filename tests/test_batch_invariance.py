"""Every batched curve quantity and camera product gives a row the same bits alone.

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
