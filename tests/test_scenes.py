"""Scene generation: lines kept clear of a point set."""
import numpy as np
import pytest

from curvemvg import scenes
from curvemvg.projective_cameras import join_points, point_line_matrix


def _reference_missing_lines(points, rng, count, min_gap):
    # one point-line matrix per (line, point) pair, gaps taken point by point
    points = np.asarray(points, dtype=float)
    points = points / np.linalg.norm(points, axis=1, keepdims=True)
    kept = []
    while len(kept) < count:
        L = join_points(rng.standard_normal(4), rng.standard_normal(4))
        L = L / np.linalg.norm(L)
        gap = min(np.linalg.norm(point_line_matrix(L) @ P) for P in points)
        if gap >= min_gap:
            kept.append(L)
    return np.array(kept)


@pytest.mark.parametrize("seed,min_gap", [(3, 0.25), (17, 0.35)])
def test_lines_missing_points_matches_reference(cubic, seed, min_gap):
    pts = cubic.points(np.linspace(0, np.pi, 120, endpoint=False))
    got = scenes.lines_missing_points(pts, np.random.default_rng(seed), 40,
                                      min_gap=min_gap)
    want = _reference_missing_lines(pts, np.random.default_rng(seed), 40, min_gap)
    assert got.shape == (40, 6)
    assert np.array_equal(got, want)


def test_lines_missing_points_keep_their_gap(cubic):
    pts = cubic.points(np.linspace(0, np.pi, 120, endpoint=False))
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    for L in scenes.lines_missing_points(pts, np.random.default_rng(5), 40,
                                         min_gap=0.35):
        W = point_line_matrix(L)
        assert min(np.linalg.norm(W @ P) for P in unit) >= 0.35
