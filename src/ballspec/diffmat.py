"""Differentiation matrices for the weighted disc bases.

The radial matrix for the ultraspherical (alpha = beta) family is exactly
skew symmetric and rank-2 semi-separable with positive generator sequences
(a, b); the angular matrix is diagonal with entries i*m.  Closed-form
asymmetry matrices quantify how far the two alternative families depart
from skew symmetry.

Convention: matrices are expressed on the reference interval x = 2r - 1 in
[-1, 1].  The derivative-in-r action of the radial matrix is 2*Dr (chain
rule of the affine map); the factor is immaterial for skewness, sparsity
and the stability contracts, and is applied explicitly where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, exp, sqrt

import numpy as np

from .jacobi import (
    JacobiParams,
    ParameterError,
    gauss_jacobi,
    gauss_jacobi_01,
    jacobi_eval_all,
    jacobi_deriv_all,
    norm_h,
    orthonormal_all,
    orthonormal_deriv_all,
)
from .basis import BasisSpec, UsageError, ex1_radial
from .semisep import SemiSep2

#: d/dr action of the reference-interval radial matrix is this multiple of it.
RADIAL_SCALE = 2.0
#: Extra nodes of the quadrature oracles beyond those needed for exactness.
ORACLE_PAD = 8


@dataclass(frozen=True)
class ABCoeffs:
    """Generator sequences of the skew-symmetric radial matrix."""

    a: np.ndarray
    b: np.ndarray
    alpha: float


def ab_coeffs(m_max: int, alpha: float) -> ABCoeffs:
    """Generator sequences by the O(M) multiplicative recursion.

    The closed forms
        a_m = sqrt(m! (2m+2a+1) / (2 Gamma(m+1+2a))),
        b_n = sqrt((2n+1+2a) Gamma(n+1+2a) / (2 n!))
    are used to seed and (in tests) to cross-check the recursion.  A seed
    or a b_m that overflows raises ParameterError; a_m = (m+a+1/2)/b_m then
    stays a normal double too.
    """
    if alpha <= 0.0:
        raise ParameterError(
            f"skew-symmetric radial matrices need alpha > 0, got {alpha}"
        )
    if m_max < 0:
        raise ParameterError("m_max must be nonnegative")
    try:
        a0 = sqrt((2.0 * alpha + 1.0) / (2.0 * exp(lgamma(2.0 * alpha + 1.0))))
        b0 = sqrt(exp(lgamma(2.0 * alpha + 2.0)) / 2.0)
    except OverflowError:
        raise ParameterError(
            f"alpha = {alpha} is too large: Gamma(2 alpha + 2) overflows the double range"
        ) from None
    m = np.arange(1.0, m_max + 1.0)
    step_a = m * (2.0 * m + 2.0 * alpha + 1.0) / ((m + 2.0 * alpha) * (2.0 * m + 2.0 * alpha - 1.0))
    step_b = (2.0 * m + 1.0 + 2.0 * alpha) * (m + 2.0 * alpha) / (m * (2.0 * m + 2.0 * alpha - 1.0))
    # cumprod multiplies left to right, exactly as the scalar recursion did
    with np.errstate(over="ignore"):
        a = np.cumprod(np.concatenate(([a0], np.sqrt(step_a))))
        b = np.cumprod(np.concatenate(([b0], np.sqrt(step_b))))
    if not np.isfinite(b[-1]):  # b increases with m
        raise ParameterError(
            f"alpha = {alpha} with m_max = {m_max} is too large: b_m overflows the double range"
        )
    return ABCoeffs(a=a, b=b, alpha=alpha)


def build_Dr(n_max: int, alpha: float) -> SemiSep2:
    """Skew-symmetric radial differentiation matrix, degrees 0..n_max.

    Entries: a_i b_j below the diagonal, -a_j b_i above, zero on the even
    row+column checkerboard.  Exactly skew symmetric by construction.
    """
    coeffs = ab_coeffs(n_max, alpha)
    return SemiSep2(
        size=n_max + 1,
        p=coeffs.a[None, :],
        q=coeffs.b[None, :],
        u=-coeffs.b[None, :],
        v=coeffs.a[None, :],
        parity_mask=True,
    )


def build_Dr_quad(n_max: int, alpha: float, beta: float | None = None) -> np.ndarray:
    """Radial differentiation matrix by Gauss-Jacobi quadrature.

    Integrates psi_n' psi_k over [-1, 1], where psi_n is the weighted
    orthonormal function (1-x)^(a/2) (1+x)^(b/2) Ptilde_n(x).  The algebraic
    endpoint factors of the integrand are absorbed into the quadrature
    weight, so the rule sees a pure polynomial and is exact.  Serves as the
    independent oracle for build_Dr and for the non-skew comparison bases.
    """
    beta = alpha if beta is None else beta
    if alpha <= 0.0:
        raise ParameterError("quadrature construction needs alpha > 0")
    if beta < 0.0:
        raise ParameterError("quadrature construction needs beta >= 0")
    nq = n_max + 1 + ORACLE_PAD
    params = JacobiParams(alpha, beta)
    rule = gauss_jacobi(nq, JacobiParams(alpha - 1.0, beta - 1.0 if beta != 0.0 else 0.0))
    x, w = rule.nodes, rule.weights
    pt = orthonormal_all(n_max, params, x)
    dpt = orthonormal_deriv_all(n_max, params, x)
    if beta == 0.0:
        # psi_n' psi_k = (1-x)^(a-1) [ (1-x) P'_n P_k - a/2 P_n P_k ]
        block = (1.0 - x) * dpt[:, None, :] * pt[None, :, :] \
            - 0.5 * alpha * pt[:, None, :] * pt[None, :, :]
    else:
        lin = 0.5 * beta * (1.0 - x) - 0.5 * alpha * (1.0 + x)
        block = (1.0 - x * x) * dpt[:, None, :] * pt[None, :, :] \
            + lin * pt[:, None, :] * pt[None, :, :]
    return np.einsum("k,nmk->nm", w, block)


def build_Dtheta(k_max: int) -> dict:
    """Angular differentiation map: Fourier mode m acts as i*m times identity."""
    if k_max < 0:
        raise ParameterError("k_max must be nonnegative")
    return {m: 1j * m for m in range(-k_max, k_max + 1)}


@dataclass
class DiffOpSet:
    """Radial + angular differentiation operators for one basis spec."""

    Dr: SemiSep2
    Dtheta_diag: dict
    spec: BasisSpec


def build_diff_ops(spec: BasisSpec) -> DiffOpSet:
    if not spec.skew_certified:
        raise UsageError(
            "skew-symmetric operator set requires a weighted basis with "
            f"alpha = beta > 0; got alpha={spec.alpha}, beta={spec.beta}"
        )
    if spec.beta != spec.alpha:
        raise UsageError("closed-form radial matrix exists for alpha = beta only")
    return DiffOpSet(Dr=build_Dr(spec.N, spec.alpha),
                     Dtheta_diag=build_Dtheta(spec.K), spec=spec)


# -- closed-form asymmetry matrices ----------------------------------------

def asymmetry_S_ex1(n_max: int, alpha: float) -> np.ndarray:
    """Overlap matrix S with D + D^T = -S for the r-weighted disc family.

    S[m, n] = (-1)^(m+n) sqrt((n+1)/(m+1))
              * sqrt((a+n+1)(a+2m+2)(a+2n+2)/(a+m+1))  for m >= n,
    completed symmetrically.
    """
    if alpha <= 1.0:
        raise ParameterError(f"family requires alpha > 1, got {alpha}")
    s = np.zeros((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        for n in range(m + 1):
            val = (-1.0) ** (m + n) * sqrt((n + 1.0) / (m + 1.0)) * sqrt(
                (alpha + n + 1.0) * (alpha + 2.0 * m + 2.0) * (alpha + 2.0 * n + 2.0)
                / (alpha + m + 1.0)
            )
            s[m, n] = val
            s[n, m] = val
    return s


def ex1_Dr_quad(n_max: int, alpha: float) -> np.ndarray:
    """Radial differentiation matrix of the r-weighted family by quadrature.

    D[m, n] = int_0^1 r phi_m'(r) phi_n(r) dr with phi the radial profiles of
    the polar-inner-product family.
    """
    nq = n_max + 1 + ORACLE_PAD
    r, w = gauss_jacobi_01(nq, alpha - 1.0, 1.0)
    params = JacobiParams(alpha, 1.0)
    scale = np.array(
        [2.0 ** (0.5 * (alpha + 2.0)) / sqrt(norm_h(n, params)) for n in range(n_max + 1)]
    )
    x = 2.0 * r - 1.0
    pt = jacobi_eval_all(n_max, params, x) * scale[:, None]
    dpt = jacobi_deriv_all(n_max, params, x) * scale[:, None]
    # r phi_m' phi_n = (1-r)^(a-1) r [ 2(1-r) P'_m P_n - a/2 P_m P_n ]
    block = 2.0 * (1.0 - r) * dpt[:, None, :] * pt[None, :, :] \
        - 0.5 * alpha * pt[:, None, :] * pt[None, :, :]
    return np.einsum("k,mnk->mn", w, block)


def ex1_S_quad(n_max: int, alpha: float) -> np.ndarray:
    """Quadrature oracle for the overlap matrix: S[m,n] = int_0^1 phi_m phi_n dr."""
    nq = n_max + 1 + ORACLE_PAD
    r, w = gauss_jacobi_01(nq, alpha, 0.0)
    vals = ex1_radial(range(n_max + 1), alpha, r) / (1.0 - r) ** (0.5 * alpha)
    return np.einsum("k,mk,nk->mn", w, vals, vals)


def asymmetry_beta0(n: int, m: int, alpha: float) -> float:
    """Endpoint obstruction of the beta = 0 family, closed form.

    The quadrature-built D + D^T entry equals the negative of this value
    (boundary term -phi_n(0) phi_m(0)); the closed form keeps the sign
    convention of the published display.
    """
    if alpha < 0.0:
        raise ParameterError("alpha must be nonnegative")
    return (-1.0) ** (n + m) * sqrt((alpha + 2.0 * n + 1.0) * (alpha + 2.0 * m + 1.0))


# -- compound (bordered) operators -----------------------------------------

@dataclass
class CompoundOp:
    """Bordered operator joining the 1x1 affine block to the residual block."""

    d_scalar: complex
    core: DiffOpSet


def compound_radial(core: DiffOpSet, h, dh_dr) -> CompoundOp:
    """Bordered radial operator for a unit-norm affine direction h(r, theta).

    The scalar block is d = <dh/dr, h> under the box inner product; its real
    part equals -(1/2) int |h(0, theta)|^2 dtheta because h vanishes at r=1.
    The coupling blocks are zero by the orthogonality of the splitting.
    """
    from .basis import inner_product, InnerProductKind
    nrm2 = inner_product(h, h, InnerProductKind.CARTESIAN, resolution=64).real
    if abs(nrm2 - 1.0) > 1e-8:
        raise UsageError(f"affine direction must have unit norm, got ||h||^2 = {nrm2}")
    d = inner_product(dh_dr, h, InnerProductKind.CARTESIAN, resolution=64)
    return CompoundOp(d_scalar=complex(d), core=core)


def compound_angular(core: DiffOpSet, m: int) -> CompoundOp:
    """Bordered angular operator for Fourier mode m; skew-Hermitian throughout."""
    return CompoundOp(d_scalar=1j * m, core=core)
