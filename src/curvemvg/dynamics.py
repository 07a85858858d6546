"""Motion classification and recovery for unsynchronized ray observations.

Cameras observing a moving point need no shared clock: every detection,
whenever it was taken, back-projects to an optical ray that meets the
trajectory.  The geometry of the resulting line family in Plucker space
decides the motion class.  Rays through a static point fill a 2-plane, rays
meeting a moving-on-a-line point lie in one hyperplane whose normal is
itself a line, and rays meeting a degree-d trajectory satisfy a degree-d
form, which is exactly the fitting problem the reconstruct module solves.

Classification walks those models simplest-first with strict acceptance
gates, so the winner is the lowest-complexity explanation of the rays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import CurvemvgError
from . import polycore as pc
from .projective_cameras import (
    PluckerLine,
    _check_on_quadric,
    _map_rows,
    grassmann_residual,
    join_points,
    line_span_points,
    point_line_matrix,
    swap_blocks,
    triangulate,
)
from .reconstruct import ChowForm, fit_chow_from_lines


class DynamicsError(CurvemvgError):
    """A recovery routine was run on data that does not support its model."""


@dataclass(frozen=True, eq=False)
class RaySet:
    """Detections lifted to the optical rays that must meet the trajectory.

    ``lines`` holds one unit, sign-normalized Plucker vector per row, grouped
    by camera; the id arrays give each row's camera, point and frame.
    Slicing or indexing returns a RaySet of the selected rows.
    """

    lines: np.ndarray
    camera_ids: np.ndarray
    point_ids: np.ndarray
    time_ids: np.ndarray

    def __len__(self) -> int:
        return self.lines.shape[0]

    def __getitem__(self, idx) -> "RaySet":
        if isinstance(idx, (int, np.integer)):
            idx = [idx]
        return RaySet(self.lines[idx], self.camera_ids[idx],
                      self.point_ids[idx], self.time_ids[idx])


@dataclass
class MotionClass:
    """Classifier verdict: the accepted model and the evidence behind it.

    kind is one of "static", "line", "conic", "curve", or "unclassified";
    degree is set for the fitted-form kinds (2 for conic, d for curve).
    trace keeps each stage's deciding numbers, including for the stages
    that rejected.
    """

    kind: str
    model: object | None
    degree: int | None = None
    residual: float = 0.0
    trace: dict = field(default_factory=dict)


def lift_observations(cams, detections) -> RaySet:
    """Back-project detections to rays; no synchronization is assumed.

    ``detections`` is the ``(ids, points)`` pair of a ``DynamicScene``: (n, 3)
    camera, point and frame ids and (n, 3) image points.  ``cams`` is
    indexed by camera id and each entry needs only a ``ray_matrix``.  One
    stable sort by camera id groups the detections and one gathered lift
    gives each row its camera's ``Camera.rays`` row, so the rows come out
    grouped by camera in ascending id, in detection order within a camera.
    A detection that is not finite, or at its camera's center, has no ray
    and is skipped with a warning.
    """
    ids, pts = detections
    order = np.argsort(ids[:, 0], kind="stable")
    ids, pts = ids[order], pts[order]
    seen, which = _groups(ids[:, 0])
    R = np.array([cams[c].ray_matrix for c in seen.tolist()]).reshape(-1, 6, 3)
    L = _map_rows(R[which], pts)
    pnorm = np.sqrt((pts * pts).sum(axis=1))
    Lnorm = np.sqrt((L * L).sum(axis=1))
    finite = np.isfinite(pts).all(axis=1)
    at_center = pnorm <= 1e-12
    skip = ~finite | at_center | (Lnorm <= 1e-12 * pnorm)
    for i in np.flatnonzero(skip).tolist():
        ci, pi, ti = ids[i].tolist()
        what = ("is not finite" if not finite[i] else
                "is at the camera center" if at_center[i] else "back-projects to no ray")
        warnings.warn(f"detection (cam {ci}, point {pi}, frame {ti}) {what}; skipped")
    L, ids = L[~skip], ids[~skip]
    _check_on_quadric(L)
    return RaySet(pc.sign_normalize_rows(L), *ids.T)


def _groups(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted id array and each entry's group index.

    The arrays ``np.unique(ids, return_inverse=True)`` returns, read off the
    runs; ``np.unique`` imports ``numpy.ma`` on its first call.
    """
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return ids[first], np.cumsum(first) - 1


def _ray_rows(rays) -> np.ndarray:
    """Unit ray vectors of a RaySet or of an (n, 6) array; a zero or non-finite row raises."""
    ray_set = isinstance(rays, RaySet)
    rows = rays.lines if ray_set else np.asarray(rays, dtype=float)
    # a sum test, as in the fits: a RaySet's rows are unit, so the sum of their
    # squares is their count unless a NaN, an inf or a zero row moves it
    if not (ray_set and abs(np.vdot(rows, rows) - len(rows)) <= 0.5):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | ~rows.any(axis=1))
        if len(bad):
            raise DynamicsError(f"ray row {bad[0]} is zero or not finite")
    return rows if ray_set else rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _static_point(mat: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    # the common point of the rays, and the largest |W P| over them
    if mat.shape[0] < 2:
        raise DynamicsError("need at least two rays to intersect")
    P = pc.sign_normalize(triangulate(mat))
    worst = float(np.sqrt(((point_line_matrix(mat) @ P) ** 2).sum(axis=1)).max())
    if worst > tol:
        raise DynamicsError(
            f"rays do not meet at one point (worst incidence {worst:.2e} > {tol:.1e})")
    return P, worst


def recover_static_point(rays, tol: float = 1e-7) -> np.ndarray:
    """Least-squares common point of the rays, by :func:`triangulate`.

    Raises when any ray passes farther than tol from it.
    """
    return _static_point(_ray_rows(rays), tol)[0]


def _project_to_klein(L: np.ndarray) -> np.ndarray:
    """Nearest point of the line quadric a.b = 0, for L = (a, b).

    Closed form of the "Plucker correction" (Bartoli & Sturm 2005): with
    s = |a|^2 + |b|^2, the smaller root lam of ab lam^2 - s lam + ab = 0
    gives the line (a - lam b, b - lam a) / (1 - lam^2).
    """
    a, b = L[:3], L[3:]
    ab = a @ b
    s = a @ a + b @ b
    lam = 2.0 * ab / (s + np.sqrt(s * s - 4.0 * ab * ab))
    return np.concatenate([a - lam * b, b - lam * a]) / (1.0 - lam * lam)


def _line_motion(mat: np.ndarray, tol: float, quadric_gate: float) -> tuple[PluckerLine, float]:
    # the support line of the rays, and the largest pairing of a ray with it
    if mat.shape[0] < 6:
        raise DynamicsError("need at least six rays to pin a hyperplane")
    _, s, Vt = np.linalg.svd(mat, full_matrices=False)
    if s[4] / s[0] < 1e-8:
        raise DynamicsError(
            "hyperplane is not unique (ray span is degenerate); "
            "the rays look concurrent, not collinear-meeting")
    cand = swap_blocks(Vt[-1])
    qres = grassmann_residual(cand)
    if qres > quadric_gate:
        raise DynamicsError(
            f"hyperplane normal misses the line quadric ({qres:.2e} > "
            f"{quadric_gate:.1e}); not a line motion")
    line = PluckerLine(_project_to_klein(cand))
    worst = float(np.abs(mat @ swap_blocks(line.v)).max())
    if worst > tol:
        raise DynamicsError(
            f"recovered line misses some rays (worst pairing {worst:.2e} > {tol:.1e})")
    return line, worst


def recover_line_motion(rays, tol: float = 1e-8,
                        quadric_gate: float = 1e-4) -> PluckerLine:
    """The support line of rays that all meet one line.

    The rays satisfy a single linear form; its normal, re-read through the
    incidence pairing, is the Plucker vector of the support line, moved
    onto the line quadric by the exact nearest-point projection.
    """
    return _line_motion(_ray_rows(rays), tol, quadric_gate)[0]


def _holdout_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n)
    return idx[idx % 5 != 0], idx[::5]


def classify_motion(rays, noise_sigma: float = 0.0) -> MotionClass:
    """Simplest accepted motion model for one point's rays.

    Stages: static (rays span a 2-plane and meet at a point), line (one
    hyperplane whose normal is itself a line), then fitted forms of degree
    2 and 3 validated on held-out rays.  Acceptance thresholds scale with
    the declared image noise; with none they sit at exact-arithmetic levels.
    Returns "unclassified" with the residual trace when nothing accepts.
    """
    mat = _ray_rows(rays)
    n = mat.shape[0]
    if n < 8:
        raise DynamicsError("need at least eight rays to classify")
    eff_tol = max(1e-7, 10.0 * noise_sigma)
    rank_gate = max(1e-8, 20.0 * noise_sigma)
    trace: dict = {"n_rays": n, "tol": eff_tol}

    # static: the ray vectors span only a 2-plane of lines
    s = np.linalg.svd(mat, compute_uv=False)
    span_gap = s[3] / s[2]
    trace["static_span_gap"] = span_gap
    if span_gap <= rank_gate:
        try:
            P, worst = _static_point(mat, max(eff_tol, 30.0 * noise_sigma))
        except DynamicsError as err:
            trace["static_reject"] = str(err)
        else:
            trace["static_residual"] = worst
            return MotionClass("static", P, residual=worst, trace=trace)

    # line: exactly one vanishing hyperplane, normal on the quadric
    null_gap = s[5] / s[4] if s[4] > 0 else 1.0
    trace["line_null_gap"] = null_gap
    if null_gap <= rank_gate:
        try:
            line, worst = _line_motion(mat, max(eff_tol, 30.0 * noise_sigma),
                                       max(1e-4, 50.0 * noise_sigma))
        except DynamicsError as err:
            trace["line_reject"] = str(err)
        else:
            trace["line_residual"] = worst
            return MotionClass("line", line, degree=1, residual=worst, trace=trace)

    # fitted forms, lowest degree first.  The fit itself never rejects: a
    # wrong-degree or off-curve batch just yields a form that evaluates
    # large on the held-out rays, which is the only gate that scales
    # gracefully with noise (rank thresholds do not: the weakest true
    # direction and the noise floor overlap across instances).
    train, held = _holdout_split(n)
    for d in (2, 3):
        G = fit_chow_from_lines(mat[train], d)
        worst = float(np.abs(pc.evaluate(G.Gamma, mat[held])).max())
        trace[f"degree{d}_holdout"] = worst
        trace[f"degree{d}_gap"] = G.gap
        if worst <= eff_tol:
            kind = "conic" if d == 2 else "curve"
            return MotionClass(kind, G, degree=d, residual=worst, trace=trace)
    return MotionClass("unclassified", None, trace=trace)


@dataclass
class LocalizeResult:
    """Where a ray meets the trajectory; all tied candidates are reported."""

    point: np.ndarray
    candidates: list[tuple[float, np.ndarray, float]]
    ambiguous: bool


def localize_on_ray(G: ChowForm, ray: PluckerLine, tol: float = 1e-6,
                    rng: np.random.Generator | None = None) -> LocalizeResult:
    """Points where a ray meets the trajectory of G, from the roots of one form.

    A point P of the ray is on the trajectory exactly when every line
    joining P with a fixed probe point satisfies G.  Restricted to the joins
    of the ray's points with the first of 4 probes, G is a binary form of
    degree d whose roots hold every meeting point; a root is a candidate
    when its probe score, the largest |G| over the joins with all 4 probes,
    is at most tol.  A secant ray legitimately yields several candidates,
    so they are all reported, never resolved silently; a double root (a
    tangent ray) counts once.  Each candidate is (angle of the point in the
    orthonormal span of the ray, point, score), best score first.
    """
    if rng is None:
        rng = np.random.default_rng(2024)
    probes = rng.standard_normal((4, 4))
    A, B = line_span_points(ray.v)
    form = pc.restrict_to_line(G.Gamma, join_points(A, probes[0]), join_points(B, probes[0]))
    roots, _ = pc._binary_roots(form.coeffs)
    # every root is scored at the real part of its t (s is real), so a
    # near-real conjugate pair lands on one angle
    theta = np.sort(np.arctan2(roots[:, 1].real, roots[:, 0].real) % np.pi)
    P = np.cos(theta)[:, None] * A + np.sin(theta)[:, None] * B
    scores = np.abs(G(join_points(P[:, None], probes))).max(axis=-1)
    ok = np.flatnonzero(scores <= tol)
    if not ok.size:
        raise DynamicsError(
            f"no root of the restricted Chow form scores below {tol:.1e} "
            f"(best {scores.min():.2e})")
    # a double root (a tangent ray) counts once: the last of a run closer than 1e-6
    ok = ok[np.diff(theta[ok], append=theta[ok[0]] + np.pi) > 1e-6]
    order = ok[np.argsort(scores[ok], kind="stable")]
    candidates = [(float(theta[i]), P[i], float(scores[i])) for i in order]
    return LocalizeResult(candidates[0][1], candidates, len(candidates) > 1)
