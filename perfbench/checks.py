"""Output checks for the benchmark, computed apart from the program.

Every check takes a program output plus ground truth and raises
``CheckFailed`` when the output is wrong.  The geometry here is written out
again from the definitions (Plucker joins and pairing, binary-form
parametrisations and their derivatives, monomial evaluation, binomial
counts, the report digest); nothing below calls into ``curvemvg``.  The
checks run outside the timed region.  ``planted.py`` feeds each one a
deliberately wrong answer and shows that it is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np


class CheckFailed(AssertionError):
    """An operation returned an output that fails its check."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# geometry written out from the definitions

def unit_rows(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def join(A, B) -> np.ndarray:
    """Plucker rows (p01, p02, p03, p23, p31, p12) of the lines through A_i, B_i."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)

    def p(i, j):
        return A[:, i] * B[:, j] - A[:, j] * B[:, i]

    return unit_rows(np.stack([p(0, 1), p(0, 2), p(0, 3), p(2, 3), p(3, 1), p(1, 2)],
                              axis=1))


def pairing(L, M) -> np.ndarray:
    """Incidence pairing of unit Plucker rows; zero iff the lines meet."""
    L = np.atleast_2d(L)
    M = np.atleast_2d(M)
    return np.sum(L[:, :3] * M[:, 3:] + L[:, 3:] * M[:, :3], axis=1)


def curve_points(C, thetas) -> np.ndarray:
    """Unit points C @ (cos^d, cos^(d-1) sin, ..., sin^d) of a binary-form curve."""
    C = np.asarray(C, dtype=float)
    d = C.shape[1] - 1
    k = np.arange(d + 1)
    th = np.asarray(thetas, dtype=float)[:, None]
    mono = np.cos(th) ** (d - k) * np.sin(th) ** k
    return unit_rows(mono @ C.T)


def curve_velocities(C, thetas) -> np.ndarray:
    """Derivative in theta of C @ (cos^(d-k) sin^k), term by term."""
    C = np.asarray(C, dtype=float)
    d = C.shape[1] - 1
    k = np.arange(d + 1)
    th = np.asarray(thetas, dtype=float)[:, None]
    c, s = np.cos(th), np.sin(th)
    dmono = (-(d - k) * c ** np.maximum(d - k - 1, 0) * s ** (k + 1)
             + k * c ** (d - k + 1) * s ** np.maximum(k - 1, 0))
    return dmono @ C.T


def distance_to_points(A, B, P) -> np.ndarray:
    """For each line (A_i, B_i): distance in the unit sphere of R^4 to the
    nearest of the unit points P (0 iff the line passes through one)."""
    out = np.empty(len(A))
    for i, (a, b) in enumerate(zip(A, B)):
        Q, _ = np.linalg.qr(np.stack([a, b], axis=1))
        resid = P - (P @ Q) @ Q.T
        out[i] = np.linalg.norm(resid, axis=1).min()
    return out


def lines_through(points, rng) -> np.ndarray:
    """One line through each point, towards a random second point."""
    return join(points, rng.standard_normal((len(points), 4)))


def lines_far_from(points, rng, count: int, min_gap: float = 0.3) -> np.ndarray:
    """Random lines keeping at least min_gap from every given unit point."""
    kept = []
    while sum(len(k) for k in kept) < count:
        A = rng.standard_normal((4 * count, 4))
        B = rng.standard_normal((4 * count, 4))
        ok = distance_to_points(A, B, points) >= min_gap
        kept.append(join(A[ok], B[ok]))
    return np.concatenate(kept)[:count]


def tangent_planes(C, thetas, rng) -> np.ndarray:
    """Unit planes through the tangent line of the curve at each theta."""
    C = np.asarray(C, dtype=float)
    d = C.shape[1] - 1
    k = np.arange(d + 1)
    th = np.asarray(thetas, dtype=float)[:, None]
    P = (np.cos(th) ** (d - k) * np.sin(th) ** k) @ C.T
    V = curve_velocities(C, thetas)
    planes = []
    for p, v in zip(P, V):
        _, _, Vt = np.linalg.svd(np.stack([p, v, rng.standard_normal(4)]))
        planes.append(Vt[-1])
    return np.array(planes)


def eval_form(exponents, coeffs, X) -> np.ndarray:
    """|sum_j c_j prod_i x_i^e_ji| at unit rows X, for a unit coefficient vector."""
    E = np.asarray(exponents, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    n = np.linalg.norm(c)
    require(n > 0.0, "form has zero coefficients")
    X = unit_rows(X)
    return np.abs(np.prod(X[:, None, :] ** E[None, :, :], axis=2) @ (c / n))


# ---------------------------------------------------------------------------
# motion_sweep

EXPECTED_KIND = {"static": "static", "line": "line", "conic": "conic", "cubic": "curve"}
EXPECTED_DEGREE = {"conic": 2, "cubic": 3}


def check_label(kind: str, label: str, degree):
    require(label == EXPECTED_KIND[kind], f"{kind} trajectory classified as {label!r}")
    if kind in EXPECTED_DEGREE:
        require(degree == EXPECTED_DEGREE[kind],
                f"{kind} trajectory fitted with degree {degree}")


def check_static(point, anchor, tol: float = 1e-6):
    P = unit_rows(point)[0]
    A = unit_rows(anchor)[0]
    err = float(np.linalg.norm(P - (P @ A) * A))
    require(err <= tol, f"static point misses its anchor by {err:.2e} (sine of the angle)")


def check_line(line, near_lines, tol: float = 1e-7):
    worst = float(np.abs(pairing(near_lines, unit_rows(line))).max())
    require(worst <= tol, f"recovered line misses lines through the trajectory ({worst:.2e})")


def check_separates(exponents, coeffs, near_lines, far_lines,
                    near_tol: float = 1e-7, ratio: float = 1e-4):
    near = float(eval_form(exponents, coeffs, near_lines).max())
    far = float(eval_form(exponents, coeffs, far_lines).min())
    require(near <= near_tol, f"form is {near:.2e} on lines meeting the curve")
    require(far > 0.0 and near <= ratio * far,
            f"form does not separate: {near:.2e} on meeting lines, {far:.2e} on far lines")


# ---------------------------------------------------------------------------
# curve_recovery

def on_curve_residual(C, P) -> float:
    """How far a point is from the curve C, read in its coefficient basis.

    Solving P = C m, the point lies on the curve iff the residual vanishes and
    m is a binary monomial vector (t^d, ..., s^d), i.e. its 2 x d Hankel matrix
    has rank one.
    """
    C = np.asarray(C, dtype=float)
    d = C.shape[1] - 1
    P = np.asarray(P, dtype=float) / np.linalg.norm(P)
    m = np.linalg.lstsq(C, P, rcond=None)[0]
    out_of_span = float(np.linalg.norm(C @ m - P))
    m = m / np.linalg.norm(m)
    s = np.linalg.svd(np.stack([m[:d], m[1:]]), compute_uv=False)
    return max(out_of_span, float(s[1] / s[0]))


def check_sweep(rows, metrics: dict, n_planes: int, C, tol: float = 1e-8):
    """The epipolar_candidates artifact of reconstruct-points.

    Rows are (plane, candidate, x, y, z, w, imag_norm, residual, label); a
    complex candidate's row holds only its real part, so the on-curve test
    reads the real candidates.
    """
    d = np.asarray(C).shape[1] - 1
    kept = int(metrics["planes_kept"])
    require(kept + int(metrics["planes_skipped"]) == n_planes,
            f"{kept} kept + {metrics['planes_skipped']} skipped planes, swept {n_planes}")
    require(kept >= n_planes // 2, f"only {kept} of {n_planes} planes kept")
    planes: dict = {}
    for row in rows:
        planes.setdefault(row[0], []).append(row)
    require(len(planes) == kept, f"{len(planes)} planes listed, {kept} kept")
    for i, cands in planes.items():
        true = [row for row in cands if row[8] == "true"]
        require(len(true) == d and len(cands) - len(true) == d * (d - 1),
                f"plane {i}: {len(true)} true and {len(cands) - len(true)} extraneous, "
                f"expected {d} and {d * (d - 1)}")
        for row in true:
            if row[6] < 1e-12:
                res = on_curve_residual(C, row[2:6])
                require(res <= tol, f"plane {i}: a true candidate is off the curve ({res:.2e})")


def check_dual(exponents, coeffs, C, rng, tol: float = 1e-7, ratio: float = 1e-4):
    thetas = rng.uniform(0.0, np.pi, 40)
    tangent = float(eval_form(exponents, coeffs, tangent_planes(C, thetas, rng)).max())
    generic = float(np.median(eval_form(exponents, coeffs, rng.standard_normal((40, 4)))))
    require(tangent <= tol, f"dual form is {tangent:.2e} on tangent planes")
    require(generic > 0.0 and tangent <= ratio * generic,
            f"dual form does not separate: {tangent:.2e} tangent, {generic:.2e} generic")


def check_chow(exponents, coeffs, C, rng, meet_tol: float = 1e-8, ratio: float = 1e-4):
    near = lines_through(curve_points(C, rng.uniform(0.0, np.pi, 40)), rng)
    ref = curve_points(C, (np.arange(240) + 0.5) * np.pi / 240)
    far = lines_far_from(ref, rng, 40, min_gap=0.35)
    check_separates(exponents, coeffs, near, far, near_tol=meet_tol, ratio=ratio)


def dual_blind_dim(m: int, k: int) -> int:
    """Products of the k center hyperplanes with every degree-(m-k) form."""
    return math.comb(m - k + 3, 3) if k <= m else 0


def chow_blind_dim(d: int, k: int) -> int:
    """Degree-d forms through k alpha-planes, beyond the Grassmann ideal."""
    through = math.comb(d + 5, 5) - math.comb(d + 2, 2) * k + math.comb(k, 2)
    return max(through - math.comb(d + 3, 5), 0)


def check_refusal(err, expected_deficit: int):
    require(isinstance(err, Exception) and type(err).__name__ == "InsufficientViews",
            f"expected an InsufficientViews refusal, got {type(err).__name__}")
    found = re.search(r"rank (\d+) < (\d+)", str(err))
    require(found is not None, f"refusal names no rank deficit: {err}")
    deficit = int(found.group(2)) - int(found.group(1))
    require(deficit == expected_deficit,
            f"refusal reports a deficit of {deficit}, blind family has {expected_deficit}")


# ---------------------------------------------------------------------------
# cli_reports

PRESET_DEGREE = {"conic": 2, "twisted_cubic": 3, "rational_quartic": 4,
                 "rational_quintic": 5}


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "digest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(exit_code: int, report: dict):
    require(exit_code == 0, f"exit code {exit_code}")
    failed = [k for k, ok in report["verdicts"].items() if not ok]
    require(not failed, f"failed verdicts {failed}")
    require(report_digest(report) == report["digest"], "digest does not match the body")


def check_repeat(first_digest: str, digest: str):
    require(first_digest == digest, "a second pass gave another digest")


def check_labels(rows, presets):
    got = [(row[1], row[2]) for row in rows]
    want = [(p, EXPECTED_KIND[p]) for p in presets]
    require(got == want, f"classifications {got}, expected {want}")


def artifact_form(artifact) -> tuple[np.ndarray, np.ndarray]:
    exps = np.array([[int(e) for e in row[0].split(",")] for row in artifact["rows"]])
    return exps, np.array([float(row[1]) for row in artifact["rows"]])


def check_kruppa_dim(metrics: dict, presets):
    sigma_m = sum(2 * PRESET_DEGREE[p] - 2 for p in presets)
    want = max(7 - sigma_m, 0)
    require(metrics["dim_measured"] == want,
            f"dimension {metrics['dim_measured']}, 7 - sigma_m = {want}")


def views_to_identify(unknowns: int, cap: int, blind) -> tuple[int, int]:
    k = math.ceil((unknowns - 1) / cap)
    full = k
    while blind(full) > 0:
        full += 1
    return k, full


def consistency_rows(d_range, m_range) -> list[list[int]]:
    rows = []
    for d in d_range:
        for m in m_range:
            dual_unknowns = math.comb(m + 3, 3)
            dual_cap = math.comb(m + 2, 2) - 1
            chow_unknowns = math.comb(d + 5, 5) - math.comb(d + 3, 5)
            chow_cap = math.comb(d + 2, 2) - 1
            dk, dfull = views_to_identify(dual_unknowns, dual_cap,
                                          lambda k, m=m: dual_blind_dim(m, k))
            ck, cfull = views_to_identify(chow_unknowns, chow_cap,
                                          lambda k, d=d: chow_blind_dim(d, k))
            rows.append([d, m, dual_unknowns, dual_cap, dk, dfull,
                         chow_unknowns, chow_cap, ck, cfull])
    return rows


def check_consistency(artifact, d_range, m_range):
    want = consistency_rows(d_range, m_range)
    require(artifact["rows"] == want, "consistency table differs from the binomial counts")
