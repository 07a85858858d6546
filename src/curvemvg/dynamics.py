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

from . import polycore as pc
from .projective_cameras import (
    GeometryError,
    PluckerLine,
    grassmann_residual,
    join_points,
    point_line_matrices,
    swap_blocks,
)
from .reconstruct import (
    ChowForm,
    InsufficientViews,
    ReconstructionError,
    fit_chow_from_lines,
)


class DynamicsError(ValueError):
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

    Each detection is (camera_id, point_id, time_id, image point); ``cams``
    is indexed by camera id and each entry needs only a ``ray_matrix``.
    One stable sort by camera id groups the detections, and each camera's
    block is lifted by one product with its ray matrix, so the rows come
    out grouped by camera in ascending id, in detection order within a
    camera.  A detection sitting at its camera's center has no ray and is
    skipped with a warning.
    """
    n = len(detections)
    ids = np.array([det[:3] for det in detections], dtype=int).reshape(n, 3)
    order = np.argsort(ids[:, 0], kind="stable")
    ids = ids[order]
    pts = np.array([detections[i][3] for i in order.tolist()], dtype=float).reshape(n, 3)
    # the first row of each camera's block in the sorted rows
    starts = np.flatnonzero(np.diff(ids[:, 0], prepend=ids[:1, 0] - 1)).tolist()
    L = np.empty((n, 6))
    for a, b in zip(starts, [*starts[1:], n]):
        L[a:b] = pts[a:b] @ cams[int(ids[a, 0])].ray_matrix.T
    pnorm = np.sqrt((pts * pts).sum(axis=1))
    Lnorm = np.sqrt((L * L).sum(axis=1))
    at_center = pnorm <= 1e-12
    skip = at_center | (Lnorm <= 1e-12 * pnorm)
    for i in np.flatnonzero(skip).tolist():
        ci, pi, ti = ids[i].tolist()
        what = "is at the camera center" if at_center[i] else "back-projects to no ray"
        warnings.warn(f"detection (cam {ci}, point {pi}, frame {ti}) {what}; skipped")
    keep = ~skip
    L, ids = L[keep], ids[keep]
    if not len(L):
        empty = np.zeros(0, dtype=int)
        return RaySet(np.zeros((0, 6)), empty, empty, empty)
    # PluckerLine's gate, for all rows at once: |L.swap(L)| / (2 |L|^2)
    quadric = np.abs((L[:, :3] * L[:, 3:]).sum(axis=1)) / (L * L).sum(axis=1)
    if quadric.max() > 1e-7:
        raise GeometryError(
            f"6-vector misses the line quadric (residual {quadric.max():.2e})")
    cam_ids, point_ids, time_ids = ids.T
    return RaySet(pc.sign_normalize_rows(L), cam_ids, point_ids, time_ids)


def _ray_rows(rays) -> np.ndarray:
    """Unit ray vectors of a RaySet or of the rows of an (n, 6) array."""
    if isinstance(rays, RaySet):
        return rays.lines
    rays = np.asarray(rays)
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _incidence_residual(A: np.ndarray, P: np.ndarray) -> float:
    # largest |W P| over a stack of point-line matrices W
    return float(np.sqrt(((A @ P) ** 2).sum(axis=1)).max())


def _pairing_residual(mat: np.ndarray, line: PluckerLine) -> float:
    # largest incidence pairing of the rays with the line
    return float(np.abs(mat @ swap_blocks(line.v)).max())


def recover_static_point(rays, tol: float = 1e-7) -> np.ndarray:
    """Least-squares common point of the rays.

    Stacks the incidence matrices of all rays; the common point is the
    nullvector.  Raises when any ray passes farther than tol from it.
    """
    mat = _ray_rows(rays)
    if mat.shape[0] < 2:
        raise DynamicsError("need at least two rays to intersect")
    A = point_line_matrices(mat)
    _, _, Vt = np.linalg.svd(A.reshape(-1, 4), full_matrices=False)
    P = pc.sign_normalize(Vt[-1])
    worst = _incidence_residual(A, P)
    if worst > tol:
        raise DynamicsError(
            f"rays do not meet at one point (worst incidence {worst:.2e} > {tol:.1e})")
    return P


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


def recover_line_motion(rays, tol: float = 1e-8,
                        quadric_gate: float = 1e-4) -> PluckerLine:
    """The support line of rays that all meet one line.

    The rays satisfy a single linear form; its normal, re-read through the
    incidence pairing, is the Plucker vector of the support line, moved
    onto the line quadric by the exact nearest-point projection.
    """
    mat = _ray_rows(rays)
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
    worst = _pairing_residual(mat, line)
    if worst > tol:
        raise DynamicsError(
            f"recovered line misses some rays (worst pairing {worst:.2e} > {tol:.1e})")
    return line


def recover_trajectory_chow(rays, d: int) -> ChowForm:
    """Degree-d form vanishing on the rays, via the reconstruct fitting core."""
    blocks = None
    if isinstance(rays, RaySet):
        # per-camera blocks for the per-view rank checks
        cams = rays.camera_ids
        blocks = [rays.lines[cams == c] for c in np.unique(cams)]
    return fit_chow_from_lines(_ray_rows(rays), d, per_view_blocks=blocks)


def _holdout_split(n: int, every: int = 5) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n)
    held = idx[::every]
    train = np.setdiff1d(idx, held)
    return train, held


def classify_motion(rays, d_max: int = 3, tol: float | None = None,
                    noise_sigma: float = 0.0) -> MotionClass:
    """Simplest accepted motion model for one point's rays.

    Stages: static (rays span a 2-plane and meet at a point), line (one
    hyperplane whose normal is itself a line), then fitted forms of degree
    2..d_max validated on held-out rays.  Acceptance thresholds scale with
    the declared image noise; with none they sit at exact-arithmetic levels.
    Returns "unclassified" with the residual trace when nothing accepts.
    """
    mat = _ray_rows(rays)
    n = mat.shape[0]
    if n < 8:
        raise DynamicsError("need at least eight rays to classify")
    eff_tol = max(1e-7, 10.0 * noise_sigma) if tol is None else tol
    rank_gate = max(1e-8, 20.0 * noise_sigma)
    trace: dict = {"n_rays": n, "tol": eff_tol}

    # static: the ray vectors span only a 2-plane of lines
    s = np.linalg.svd(mat, compute_uv=False)
    span_gap = s[3] / s[2]
    trace["static_span_gap"] = span_gap
    if span_gap <= rank_gate:
        point_tol = max(eff_tol, 30.0 * noise_sigma)
        try:
            P = recover_static_point(mat, tol=point_tol)
        except DynamicsError as err:
            trace["static_reject"] = str(err)
        else:
            worst = _incidence_residual(point_line_matrices(mat), P)
            trace["static_residual"] = worst
            return MotionClass("static", P, residual=worst, trace=trace)

    # line: exactly one vanishing hyperplane, normal on the quadric
    null_gap = s[5] / s[4] if s[4] > 0 else 1.0
    trace["line_null_gap"] = null_gap
    if null_gap <= rank_gate:
        try:
            line = recover_line_motion(
                mat, tol=max(eff_tol, 30.0 * noise_sigma),
                quadric_gate=max(1e-4, 50.0 * noise_sigma))
        except DynamicsError as err:
            trace["line_reject"] = str(err)
        else:
            worst = _pairing_residual(mat, line)
            trace["line_residual"] = worst
            return MotionClass("line", line, degree=1, residual=worst, trace=trace)

    # fitted forms, lowest degree first.  The fit itself never rejects: a
    # wrong-degree or off-curve batch just yields a form that evaluates
    # large on the held-out rays, which is the only gate that scales
    # gracefully with noise (rank thresholds do not: the weakest true
    # direction and the noise floor overlap across instances).
    train, held = _holdout_split(n)
    for d in range(2, d_max + 1):
        try:
            G = fit_chow_from_lines(mat[train], d, enforce_rank=False)
        except (InsufficientViews, ReconstructionError) as err:
            trace[f"degree{d}_reject"] = str(err)
            continue
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
    parameter: float
    score: float
    candidates: list[tuple[float, np.ndarray, float]]
    ambiguous: bool


def localize_on_ray(G: ChowForm, ray: PluckerLine, tol: float = 1e-6,
                    n_samples: int = 512, rng: np.random.Generator | None = None,
                    hint=None) -> LocalizeResult:
    """Scan a ray for its meeting points with the trajectory of G.

    Membership scoring joins each candidate point with fixed probe points;
    on the trajectory every such joining line satisfies G.  The scan is
    polished locally; a secant ray legitimately yields several minima, so
    ties below tol are reported, never resolved silently.
    """
    if rng is None:
        rng = np.random.default_rng(2024)
    probes = rng.standard_normal((4, 4))
    A, B = ray.span_points()
    A = A / np.linalg.norm(A)
    B = B / np.linalg.norm(B)

    def point_at(t: float) -> np.ndarray:
        P = np.cos(t) * A + np.sin(t) * B
        return P / np.linalg.norm(P)

    def score(t: float) -> float:
        P = point_at(t)
        return max(abs(G(join_points(P, R))) for R in probes)

    ts = np.linspace(0.0, np.pi, n_samples, endpoint=False)
    vals = np.array([score(t) for t in ts])
    minima = []
    for i in range(n_samples):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[(i + 1) % n_samples]:
            minima.append(i)

    step = np.pi / n_samples
    candidates = []
    for i in minima:
        t_best, v = pc.golden_polish(score, ts[i] - step, ts[i] + step, 1e-14)
        if v <= tol:
            candidates.append((t_best, point_at(t_best), v))
    # dedup: minima from adjacent grid cells polish to the same root
    candidates.sort(key=lambda c: c[0])
    dedup: list[tuple[float, np.ndarray, float]] = []
    for c in candidates:
        if dedup and min(abs(c[0] - dedup[-1][0]),
                         np.pi - abs(c[0] - dedup[-1][0])) < 10 * step:
            if c[2] < dedup[-1][2]:
                dedup[-1] = c
            continue
        dedup.append(c)
    if not dedup:
        raise DynamicsError(
            f"no membership minimum below {tol:.1e} along the ray "
            f"(best {vals.min():.2e})")
    dedup.sort(key=lambda c: c[2])
    best = dedup[0]
    if hint is not None:
        h = np.asarray(hint, dtype=float)
        h = h / np.linalg.norm(h)
        best = min(dedup, key=lambda c: 1.0 - abs(c[1] @ h))
    return LocalizeResult(best[1], best[0], best[2], dedup, len(dedup) > 1)
