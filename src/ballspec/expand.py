"""Coefficient analysis and synthesis for the weighted bases, plus the error
metrics used by the reproduction experiments.

Angular directions are handled by equispaced FFT sampling (exact for the
band-limited test fields); the radial direction by Gauss-Jacobi rules whose
weight absorbs the basis' algebraic endpoint factors, so the rule only ever
sees polynomial-times-analytic integrands.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, BasisKind, UsageError, wfunc_radial, ball_radial, ex1_radial
from .jacobi import JacobiParams, gauss_jacobi_01, orthonormal_all
from .split import SplitPair, verify_pos, _angular_grid, distinct_phase


def quad_pad(default: int = 8) -> int:
    """Radial quadrature padding; overridable via BALLSPEC_QUAD_PAD."""
    env = os.environ.get("BALLSPEC_QUAD_PAD")
    return int(env) if env else default


@dataclass
class CoeffTensor:
    """Expansion coefficients of a split field.

    fhat is indexed (n, m+K) for d=2 and (n, k1+K, k2+K) for d=3.  fcirc
    holds the angular coefficients of the affine part; the affine radial
    profiles live on the attached pair.
    """

    fhat: np.ndarray
    fcirc: dict
    spec: BasisSpec
    pair: SplitPair | None = None


def flatten_index(n: int, m: int, spec: BasisSpec) -> int:
    """Bijection (n, m) -> q = n(2K+1) + (m+K), q in 0..(2K+1)(N+1)-1."""
    if not (0 <= n <= spec.N) or not (-spec.K <= m <= spec.K):
        raise UsageError(f"index ({n}, {m}) out of range for N={spec.N}, K={spec.K}")
    return n * (2 * spec.K + 1) + (m + spec.K)


def unflatten_index(q: int, spec: BasisSpec):
    width = 2 * spec.K + 1
    if not 0 <= q < width * (spec.N + 1):
        raise UsageError(f"flat index {q} out of range")
    return q // width, q % width - spec.K


def _angular_transform(vals, d: int, k_max: int):
    """Per-mode angular integrals (with measure) of sampled data, axes last."""
    if d == 2:
        n = vals.shape[-1]
        coef = np.fft.fft(vals, axis=-1) * (2.0 * np.pi / n)
        ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        coef = coef * np.exp(1j * ks * np.pi)
        return {m: coef[..., np.where(ks == m)[0][0]] for m in range(-k_max, k_max + 1)}
    n1, n2 = vals.shape[-2], vals.shape[-1]
    coef = np.fft.fft2(vals, axes=(-2, -1)) * (2.0 * np.pi / n1) * (np.pi / n2)
    k1s = np.fft.fftfreq(n1, d=1.0 / n1).astype(int)
    k2s = np.fft.fftfreq(n2, d=1.0 / n2).astype(int)
    coef = coef * np.exp(1j * k1s[:, None] * np.pi)
    out = {}
    for k1 in range(-k_max, k_max + 1):
        i1 = np.where(k1s == k1)[0][0]
        for k2 in range(-k_max, k_max + 1):
            out[(k1, k2)] = coef[..., i1, np.where(k2s == k2)[0][0]]
    return out


def _check_pair(pair: SplitPair, check: bool, tol: float = 1e-8):
    if not check:
        return
    rep = verify_pos(pair)
    worst = max(rep.sum_residual, rep.boundary_residual,
                rep.origin_residual, rep.orthogonality_residual)
    if worst > tol:
        raise UsageError(f"split pair fails verification with residual {worst:.3e}")


def analyze_disc(pair: SplitPair, spec: BasisSpec, check: bool = True,
                 n_theta: int | None = None) -> CoeffTensor:
    """Expansion coefficients of the residual part over the disc basis."""
    if spec.kind is not BasisKind.WFUNC or spec.d != 2:
        raise UsageError("analyze_disc needs a d=2 weighted basis spec")
    _check_pair(pair, check)
    N, K = spec.N, spec.K
    a, b = spec.alpha, spec.beta
    n_theta = n_theta or max(2 * K + 2, 16)
    nq = N + quad_pad()
    r, w = gauss_jacobi_01(nq, 0.5 * a, 0.5 * b)
    thetas = _angular_grid(2, n_theta)
    mesh = np.meshgrid(r, *thetas, indexing="ij")
    vals = pair.f1(*mesh)
    modes = _angular_transform(vals, 2, K)  # F_m(r) at the radial nodes
    poly = orthonormal_all(N, JacobiParams(a, b), 2.0 * r - 1.0)
    radial_scale = np.pi ** -0.5 * 2.0 ** (0.5 * (a + b))
    fhat = np.empty((N + 1, 2 * K + 1), dtype=complex)
    for m in range(-K, K + 1):
        weighted = w * modes[m]
        fhat[:, m + K] = radial_scale * (poly @ weighted)
    fcirc = dict(pair.origin_coeffs)
    return CoeffTensor(fhat=fhat, fcirc=fcirc, spec=spec, pair=pair)


def analyze_ball3(pair: SplitPair, spec: BasisSpec, check: bool = True,
                  n_theta: int | None = None) -> CoeffTensor:
    """Expansion coefficients over the 3-ball basis (2-D FFT + radial rule)."""
    if spec.d != 3:
        raise UsageError("analyze_ball3 needs a d=3 spec")
    _check_pair(pair, check)
    N, K = spec.N, spec.K
    a = spec.alpha
    n_theta = n_theta or max(2 * K + 2, 16)
    nq = N + quad_pad()
    r, w = gauss_jacobi_01(nq, 0.5 * a, 0.5 * a)
    thetas = _angular_grid(3, n_theta)
    mesh = np.meshgrid(r, *thetas, indexing="ij")
    vals = pair.f1(*mesh)
    modes = _angular_transform(vals, 3, K)
    poly = orthonormal_all(N, JacobiParams(a, a), 2.0 * r - 1.0)
    radial_scale = 2.0 ** a * np.pi ** (-0.5 * (spec.d - 1))
    fhat = np.empty((N + 1, 2 * K + 1, 2 * K + 1), dtype=complex)
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            weighted = w * modes[(k1, k2)]
            fhat[:, k1 + K, k2 + K] = radial_scale * (poly @ weighted)
    return CoeffTensor(fhat=fhat, fcirc=dict(pair.origin_coeffs), spec=spec, pair=pair)


def synthesize(coeffs: CoeffTensor, r, *thetas) -> np.ndarray:
    """Evaluate affine part plus truncated basis sum at the given points.

    Radial work is one O(N) recurrence pass per distinct radius, shared by
    every mode; each mode's phase is taken once per distinct angle tuple.
    """
    spec = coeffs.spec
    K = spec.K
    r = np.asarray(r, dtype=float)
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    out = np.zeros(np.broadcast(r, *thetas).shape, dtype=complex)
    if coeffs.pair is not None and not _affine_is_zero(coeffs):
        out = out + coeffs.pair.f0(r, *thetas)
    flat_r = np.atleast_1d(r).ravel()
    ru, inv = np.unique(flat_r, return_inverse=True)
    radial = wfunc_radial if spec.d == 2 else ball_radial
    rad = radial(spec, range(spec.N + 1), ru)
    if spec.d == 2:
        modes = range(-K, K + 1)
    else:
        modes = [(k1, k2) for k1 in range(-K, K + 1) for k2 in range(-K, K + 1)]
    phase = distinct_phase(thetas)
    for mode, col in zip(modes, coeffs.fhat.reshape(spec.N + 1, -1).T):
        if not np.any(col):
            continue
        prof = (col @ rad)[inv].reshape(np.atleast_1d(r).shape)
        if r.ndim == 0:
            prof = prof[0]
        out = out + prof * phase(mode)
    return out


def _affine_is_zero(coeffs: CoeffTensor) -> bool:
    return not coeffs.fcirc or all(abs(v) == 0.0 for v in coeffs.fcirc.values())


# -- error metrics ----------------------------------------------------------

@dataclass
class ErrorReport:
    e_inf: float
    e_2: float
    grid_M: int
    coeff_decay: list  # (q, |fhat_q|) pairs


def standard_grid(M: int, d: int = 2):
    """Evaluation grid: r_m = sin^2(m pi / 2M) with equispaced angles."""
    if M < 1:
        raise UsageError("grid parameter must be >= 1")
    m = np.arange(M + 1)
    r = np.sin(0.5 * np.pi * m / M) ** 2
    theta1 = -np.pi + 2.0 * np.pi * m / M
    if d == 2:
        return r, theta1
    theta2 = np.pi * m / M
    return r, theta1, theta2


def coeff_decay_table(coeffs: CoeffTensor, nonzero_tol: float = 0.0):
    """Flattened (q, |fhat_q|) pairs; optionally only entries above tol."""
    spec = coeffs.spec
    flat = np.abs(coeffs.fhat.reshape(spec.N + 1, -1)).ravel()
    pairs = [(q, float(v)) for q, v in enumerate(flat)]
    if nonzero_tol > 0.0:
        top = max(flat.max(), 1e-300)
        pairs = [(q, v) for q, v in pairs if v > nonzero_tol * top]
    return pairs


def error_report(f, coeffs: CoeffTensor, M: int = 6) -> ErrorReport:
    """Componentwise errors of the truncated expansion on the standard grid."""
    d = coeffs.spec.d
    axes = standard_grid(M, d)
    mesh = np.meshgrid(*axes, indexing="ij")
    err = synthesize(coeffs, *mesh) - f(*mesh)
    return ErrorReport(
        e_inf=float(np.max(np.abs(err))),
        e_2=float(np.sqrt(np.sum(np.abs(err) ** 2))),
        grid_M=M,
        coeff_decay=coeff_decay_table(coeffs),
    )


# -- the r-weighted comparison expansion ------------------------------------

def analyze_polar_weighted(f, N: int, K: int, alpha: float,
                           n_theta: int | None = None) -> CoeffTensor:
    """Coefficients of f over the polar-inner-product family (no splitting)."""
    spec = BasisSpec(alpha=alpha, beta=1.0, d=2, N=N, K=K, kind=BasisKind.EX1_WEIGHTED)
    n_theta = n_theta or max(2 * K + 2, 16)
    nq = N + quad_pad()
    r, w = gauss_jacobi_01(nq, 0.5 * alpha, 1.0)  # absorbs (1-r)^(a/2) * r
    thetas = _angular_grid(2, n_theta)
    mesh = np.meshgrid(r, *thetas, indexing="ij")
    modes = _angular_transform(f(*mesh), 2, K)
    rad = ex1_radial(range(N + 1), alpha, r) / (1.0 - r) ** (0.5 * alpha)
    fhat = np.empty((N + 1, 2 * K + 1), dtype=complex)
    for m in range(-K, K + 1):
        fhat[:, m + K] = (2.0 * np.pi) ** -0.5 * (rad @ (w * modes[m]))
    return CoeffTensor(fhat=fhat, fcirc={}, spec=spec, pair=None)


def synthesize_polar_weighted(coeffs: CoeffTensor, r, theta) -> np.ndarray:
    spec = coeffs.spec
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
    flat_r = np.atleast_1d(r).ravel()
    ru, inv = np.unique(flat_r, return_inverse=True)
    rad = ex1_radial(range(spec.N + 1), spec.alpha, ru)
    phase = distinct_phase([theta])
    for mi in range(2 * spec.K + 1):
        col = coeffs.fhat[:, mi]
        if not np.any(col):
            continue
        prof_u = (2.0 * np.pi) ** -0.5 * (col @ rad)
        prof = prof_u[inv].reshape(np.atleast_1d(r).shape)
        if r.ndim == 0:
            prof = prof[0]
        out = out + prof * phase(mi - spec.K)
    return out


def error_report_polar(f, coeffs: CoeffTensor, M: int = 6) -> ErrorReport:
    axes = standard_grid(M, 2)
    mesh = np.meshgrid(*axes, indexing="ij")
    err = synthesize_polar_weighted(coeffs, *mesh) - f(*mesh)
    return ErrorReport(
        e_inf=float(np.max(np.abs(err))),
        e_2=float(np.sqrt(np.sum(np.abs(err) ** 2))),
        grid_M=M,
        coeff_decay=coeff_decay_table(coeffs),
    )


# -- export -----------------------------------------------------------------

def export_decay_csv(report: ErrorReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "abs_coeff"])
        for q, v in report.coeff_decay:
            writer.writerow([q, f"{v:.17g}"])


def export_report_json(report: ErrorReport, path) -> None:
    payload = {
        "e_inf": report.e_inf,
        "e_2": report.e_2,
        "grid_M": report.grid_M,
        "coeff_decay": [[q, v] for q, v in report.coeff_decay],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
