"""Coefficient analysis and synthesis for the weighted bases, plus the error
metrics used by the reproduction experiments.

Angular directions are handled by equispaced FFT sampling in the angular
convention of ``basis`` (exact for the band-limited test fields); the radial
direction by Gauss-Jacobi rules whose weight absorbs the basis' algebraic
endpoint factors, so the rule only ever sees polynomial-times-analytic
integrands.  One analysis core serves the three families, each binding its
radial weight, table and scale; synthesis and error reports pick the radial
family from the coefficients' spec (kind and d).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisKind,
    BasisSpec,
    UsageError,
    angular_dft,
    angular_grid,
    angular_modes,
    distinct_phase,
    distinct_radii,
    ex1_radial,
    wfunc_radial,
)
from .jacobi import JacobiParams, gauss_jacobi_01, orthonormal_all
from .split import SplitPair, check_split, raw_pair


def quad_pad() -> int:
    """Radial quadrature padding, 8 unless BALLSPEC_QUAD_PAD says otherwise."""
    env = os.environ.get("BALLSPEC_QUAD_PAD")
    return int(env) if env else 8


@dataclass
class CoeffTensor:
    """Expansion coefficients of a split field.

    fhat is indexed (n, m+K) for d=2 and (n, k1+K, ..., k_{d-1}+K) for
    d >= 3 and expands f1.  fcirc holds the origin coefficients g of the
    affine part; the pair supplies each split mode's c and the template T,
    so mode m of the field is g_m T + f1_m / (1 + c_m) and synthesis needs
    no field samples.
    """

    fhat: np.ndarray
    fcirc: dict
    spec: BasisSpec
    pair: SplitPair | None = None

    def __post_init__(self):
        if self.fcirc and self.pair is None:
            raise UsageError("an affine part (fcirc) needs the split pair that carries c and T")


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


def _analyze(pair: SplitPair, spec: BasisSpec, weight, table, scale) -> np.ndarray:
    """fhat[:, mode] = scale * (table(r) @ (w * F_mode(r))) over the flat modes.

    pair.f is sampled once, on the Gauss-Jacobi rule for the radial weight
    (1-r)^weight[0] r^weight[1] times the angular grid; F_mode is the
    angular integral of f1, mapped from that of f by the split, and
    table(r) the (N+1, nodes) radial factor.
    """
    r, w = gauss_jacobi_01(spec.N + quad_pad(), *weight)
    mesh = np.meshgrid(r, *angular_grid(spec.d, max(2 * spec.K + 2, 16)), indexing="ij")
    F = pair.residual_coeffs(angular_dft(pair.f(*mesh), spec.d, spec.K), r,
                             2.0 * np.pi ** (spec.d - 1))
    rad = table(r)
    fhat = np.empty((spec.N + 1, (2 * spec.K + 1) ** (spec.d - 1)), dtype=complex)
    for i, mode in enumerate(angular_modes(spec.d, spec.K)):
        fhat[:, i] = scale * (rad @ (w * F[mode]))
    return fhat.reshape((spec.N + 1,) + (2 * spec.K + 1,) * (spec.d - 1))


def analyze(pair: SplitPair, spec: BasisSpec, check: bool = True) -> CoeffTensor:
    """Expansion coefficients of the residual part over the weighted basis of
    the spec's dimension d >= 2 (a (d-1)-D FFT and one radial rule).

    check=True verifies the split first (check_split: relative residual at
    most 1e-8); pass check=False for a pair verified already.
    """
    if spec.kind is not BasisKind.WFUNC:
        raise UsageError(f"analysis needs a weighted basis spec, got {spec.kind.value}")
    if pair.d != spec.d:
        raise UsageError(f"a d={pair.d} split cannot be expanded in a d={spec.d} basis")
    if check:
        check_split(pair)
    a, b = spec.alpha, spec.beta
    fhat = _analyze(pair, spec, (0.5 * a, 0.5 * b),
                    lambda r: orthonormal_all(spec.N, JacobiParams(a, b), 2.0 * r - 1.0),
                    np.pi ** (-0.5 * (spec.d - 1)) * 2.0 ** (0.5 * (a + b)))
    return CoeffTensor(fhat=fhat, fcirc=dict(pair.origin_coeffs), spec=spec, pair=pair)


def analyze_disc(pair: SplitPair, spec: BasisSpec, check: bool = True) -> CoeffTensor:
    """analyze on the disc."""
    return analyze(pair, spec, check)


def analyze_ball3(pair: SplitPair, spec: BasisSpec, check: bool = True) -> CoeffTensor:
    """analyze on the 3-ball."""
    return analyze(pair, spec, check)


def analyze_polar_weighted(f, N: int, K: int, alpha: float) -> CoeffTensor:
    """Coefficients of f over the polar-inner-product family (no splitting)."""
    spec = BasisSpec(alpha=alpha, beta=1.0, d=2, N=N, K=K, kind=BasisKind.EX1_WEIGHTED)
    # the rule absorbs (1-r)^(a/2) * r
    fhat = _analyze(raw_pair(f), spec, (0.5 * alpha, 1.0),
                    lambda r: ex1_radial(range(N + 1), alpha, r) / (1.0 - r) ** (0.5 * alpha),
                    (2.0 * np.pi) ** -0.5)
    return CoeffTensor(fhat=fhat, fcirc={}, spec=spec, pair=None)


def _radial_family(spec: BasisSpec, r):
    """(radial factors of degrees 0..N at r, their scale) for the spec's family."""
    degrees = range(spec.N + 1)
    if spec.kind is BasisKind.WFUNC:
        return wfunc_radial(spec, degrees, r), 1.0
    if spec.kind is BasisKind.EX1_WEIGHTED and spec.d == 2:
        return ex1_radial(degrees, spec.alpha, r), (2.0 * np.pi) ** -0.5
    raise UsageError(f"no synthesis for {spec.kind.value} coefficients in d={spec.d}")


def _synthesize(coeffs: CoeffTensor, r, thetas) -> np.ndarray:
    spec = coeffs.spec
    r = np.asarray(r, dtype=float)
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    out = np.zeros(np.broadcast(r, *thetas).shape, dtype=complex)
    ru, inv = distinct_radii(np.atleast_1d(r))
    rad, scale = _radial_family(spec, ru)
    # mode -> radial profile at the distinct radii; a split mode is g T + f1 / (1 + c)
    cols = coeffs.fhat.reshape(spec.N + 1, -1).T
    profiles = {mode: scale * (col @ rad) for mode, col in
                zip(angular_modes(spec.d, spec.K), cols) if np.any(col)}
    if coeffs.fcirc:
        t = coeffs.pair.profile(ru)
        for m, g in coeffs.fcirc.items():
            profiles[m] = g * t + profiles.get(m, 0.0) / (1.0 + coeffs.pair.c[m])
    phase = distinct_phase(thetas)
    for mode, prof in profiles.items():
        out = out + prof[inv].reshape(r.shape) * phase(mode)
    return out


def synthesize(coeffs: CoeffTensor, r, *thetas) -> np.ndarray:
    """Evaluate affine part plus truncated basis sum at the given points.

    Per split mode the sum is g_m T(r) + f1_m(r) / (1 + c_m), from fcirc and
    the pair's c and template, so the field is never evaluated.  The radial
    family follows coeffs.spec (kind and d), so coefficients from any
    analyze_* function are summed in their own basis.  Radial work is one
    O(N) recurrence pass per distinct radius, shared by every mode; each
    mode's phase is taken once per distinct angle tuple.
    """
    return _synthesize(coeffs, r, thetas)


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
    return (r, -np.pi + 2.0 * np.pi * m / M) + (np.pi * m / M,) * (d - 2)


def coeff_decay_table(coeffs: CoeffTensor):
    """Flattened (q, |fhat_q|) pairs."""
    flat = np.abs(coeffs.fhat.reshape(coeffs.spec.N + 1, -1)).ravel()
    return [(q, float(v)) for q, v in enumerate(flat)]


def _error_report(f, coeffs: CoeffTensor, M: int) -> ErrorReport:
    mesh = np.meshgrid(*standard_grid(M, coeffs.spec.d), indexing="ij")
    err = synthesize(coeffs, *mesh) - f(*mesh)
    return ErrorReport(
        e_inf=float(np.max(np.abs(err))),
        e_2=float(np.sqrt(np.sum(np.abs(err) ** 2))),
        grid_M=M,
        coeff_decay=coeff_decay_table(coeffs),
    )


def error_report(f, coeffs: CoeffTensor, M: int = 6) -> ErrorReport:
    """Componentwise errors of the truncated expansion on the standard grid."""
    return _error_report(f, coeffs, M)


def synthesize_polar_weighted(coeffs: CoeffTensor, r, theta) -> np.ndarray:
    """synthesize on the disc, the form used for the r-weighted family."""
    return _synthesize(coeffs, r, (theta,))


def error_report_polar(f, coeffs: CoeffTensor, M: int = 6) -> ErrorReport:
    """error_report on the disc, the form used for the r-weighted family."""
    return _error_report(f, coeffs, M)


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
