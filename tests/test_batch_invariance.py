"""Every batched curve quantity gives a parameter's row the same bits alone.

The batch a parameter is evaluated in is an incidental choice, so no row
may depend on it: each row of a batched call must equal the one-row call,
sign bits included, and permuting the batch must permute the rows.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemvg import curve_models as cm
from curvemvg import polycore as pc

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
    # np.array_equal reads -0.0 == +0.0, so the sign bits are compared too
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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
