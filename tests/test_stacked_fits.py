"""The stacked fitting kernel: k blocks in one call fit exactly as k calls."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvemvg import polycore as pc
from curvemvg import reconstruct as rc
from curvemvg import scenes
from curvemvg.curve_models import _sample_thetas, class_of, image_tangents, preset_curve
from curvemvg.projective_cameras import Camera, _map_rows


def _reference_fit(basis, samples):
    # the one-block kernel written out step by step: whiten, or reduce a
    # degenerate span first, then expand and take one SVD
    X = np.asarray(samples, dtype=float)
    try:
        T = _reference_whitening(X)
        frame = X @ T
    except pc.PolynomialError:
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        _, sv, Vt = np.linalg.svd(unit, full_matrices=False)
        span = Vt[: int(np.sum(sv > math.sqrt(pc.WHITENING_FLOOR) * sv[0]))].T
        Y = unit @ span
        T_Y = _reference_whitening(Y)
        basis = pc.enumerate_monomials(span.shape[1], basis.degree)
        T, frame = span @ T_Y, Y @ T_Y
    A = pc.monomial_rows(basis, frame)
    norms = np.linalg.norm(A, axis=1)
    A = A[norms > 0.0] / norms[norms > 0.0, None]
    _, s, Vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    s_pad = np.zeros(A.shape[1])
    s_pad[: s.shape[0]] = s
    return s_pad, Vt, T, basis


def _reference_whitening(X):
    if X.shape[0] < X.shape[1]:
        raise pc.PolynomialError("need at least as many samples as coordinates")
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    w, V = np.linalg.eigh(X.T @ X / X.shape[0])
    if w[0] <= pc.WHITENING_FLOOR * w[-1]:
        raise pc.PolynomialError("samples span a degenerate subspace")
    return V @ np.diag(w ** -0.5) @ V.T


def _same_fit(a, b):
    return (a.basis == b.basis and a.floor == b.floor and np.array_equal(a.s, b.s)
            and np.array_equal(a.Vt, b.Vt) and np.array_equal(a.T, b.T))


@st.composite
def _views(draw):
    # blocks of one coordinate count; some confined to a random proper
    # subspace (a view's rows through its center), row counts from a small
    # set so that equal shapes stack and the rest are ragged, and one stack
    # can mix blocks that whiten with flat ones of several span dimensions
    v = draw(st.sampled_from([3, 4, 6]))
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(st.sampled_from([v - 1, v + 1, 2 * v + 3]), min_size=k, max_size=k))
    spans = draw(st.lists(st.integers(1, v), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.standard_normal((n, r)) @ rng.standard_normal((r, v))
              for n, r in zip(rows, spans)]
    return pc.enumerate_monomials(v, draw(st.integers(1, 4))), blocks


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_views())
def test_stacked_fits_are_bit_equal_to_per_block_fits(case):
    basis, blocks = case
    singles = [pc.whitened_nullspace(basis, b) for b in blocks]
    for b, fit in zip(blocks, singles):
        # a 2-d call returns one fit, the step-by-step kernel's to the bit
        s, Vt, T, frame_basis = _reference_fit(basis, b)
        assert isinstance(fit, pc.NullspaceFit) and fit.basis == frame_basis
        assert np.array_equal(fit.s, s) and np.array_equal(fit.Vt, Vt)
        assert np.array_equal(fit.T, T)
        assert pc.whitened_ranks(basis, b) == fit.rank()
    for shape in {b.shape for b in blocks}:
        group = [i for i, b in enumerate(blocks) if b.shape == shape]
        stack = np.stack([blocks[i] for i in group])
        stacked = pc.whitened_nullspace(basis, stack)
        assert len(stacked) == len(group)
        assert all(_same_fit(fit, singles[i]) for fit, i in zip(stacked, group))
        # the spectra-only reader counts every block's rank as its vector fit does
        assert pc.whitened_ranks(basis, stack) == [singles[i].rank() for i in group]
    assert rc._view_ranks(basis, blocks) == [fit.rank() for fit in singles]


def _lift_tangents(cam, lines):
    return _map_rows(cam.M.T, lines)


@pytest.mark.parametrize("name", ["conic", "twisted_cubic", "rational_quartic",
                                  "rational_quintic"])
def test_spectra_ranks_read_the_preset_matrix_as_the_vector_fits_do(name):
    # both routes at views_for_dual / views_for_chow with the CLI's per-view
    # sample counts, seeds 0..2: every per-view rank equals the vector fit's,
    # including the quartic's and quintic's dual readings below their cap
    below_cap = []
    for seed in range(3):
        curve = preset_curve(name, seed)
        d, m = curve.degree, class_of(curve.degree, 0)
        cams = scenes.camera_ring(np.random.default_rng(19), rc.views_for_dual(m))
        views = [(cam, image_tangents(curve, cam, _sample_thetas(rc.dual_view_cap(m) + 6) + 0.3 * i))
                 for i, cam in enumerate(cams)]
        ranks = rc.dual_reconstruct(views, m).per_view_ranks
        basis = pc.enumerate_monomials(4, m)
        assert ranks == [pc.whitened_nullspace(basis, b).rank()
                         for b in rc._lifts(views, _lift_tangents, "tangent line")]
        below_cap += [r for r in ranks if r < rc.dual_view_cap(m)]
        cams = scenes.camera_ring(np.random.default_rng(19), rc.views_for_chow(d))
        views = [(cam, cam.project(curve.points(_sample_thetas(rc.chow_view_cap(d) + 8) + 0.3 * i)))
                 for i, cam in enumerate(cams)]
        ranks = rc.chow_reconstruct(views, d).per_view_ranks
        basis = pc.enumerate_monomials(6, d)
        assert ranks == [pc.whitened_nullspace(basis, b).rank()
                         for b in rc._lifts(views, Camera.rays, "image point")]
    assert bool(below_cap) == (d >= 4)


def test_stacked_whitening_and_svd_match_per_block_calls():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 12, 5)) * np.arange(1.0, 6.0)
    T = pc.whitening_map(X)
    assert T.shape == (4, 5, 5)
    assert all(np.array_equal(t, pc.whitening_map(x)) for t, x in zip(T, X))
    rows = rng.standard_normal((3, 7, 9))
    rows[1, 2] = 0.0
    fits = pc.fit_nullspace(rows)
    for fit, r in zip(fits, rows):
        one = pc.fit_nullspace(r)
        assert np.array_equal(fit.s, one.s) and np.array_equal(fit.Vt, one.Vt)
        assert fit.floor == one.floor
    assert [fit.rank() for fit in fits] == [7, 6, 7]


def test_stacked_calls_raise_as_single_blocks_do():
    rng = np.random.default_rng(6)
    short = rng.standard_normal((3, 2, 4))
    for samples in (short, short[0]):
        with pytest.raises(pc.PolynomialError,
                           match="^need at least as many samples as coordinates$"):
            pc.whitening_map(samples)
    flat = np.stack([rng.standard_normal((8, 4)), np.ones((8, 4))])
    with pytest.raises(pc.PolynomialError, match="^samples span a degenerate subspace$"):
        pc.whitening_map(flat)
    with pytest.raises(pc.PolynomialError, match="^all rows are zero$"):
        pc.fit_nullspace(np.stack([np.eye(3), np.zeros((3, 3))]))
    # no rows at all: the stack fails exactly as its single block does
    basis = pc.enumerate_monomials(4, 2)
    errors = []
    for samples in (np.zeros((0, 4)), np.zeros((3, 0, 4))):
        with pytest.raises(Exception) as err:
            pc.whitened_nullspace(basis, samples)
        errors.append((err.type, str(err.value)))
    assert errors[0] == errors[1]
