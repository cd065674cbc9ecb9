"""Orthonormal Jacobi polynomials and Gauss-Jacobi quadrature.

Everything downstream (basis orthonormality, differentiation matrices,
coefficient analysis) integrates against Jacobi weights, so this module is
the numerical oracle for the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, exp

import numpy as np


class BallspecError(Exception):
    """Base of every error the package raises on purpose."""


class ParameterError(BallspecError, ValueError):
    """Invalid Jacobi parameters or degrees."""


class QuadratureError(BallspecError, FloatingPointError):
    """A Gauss-Jacobi rule that fails its own weight certificate."""


@dataclass(frozen=True)
class JacobiParams:
    """Exponents of the Jacobi weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= -1.0 or self.beta <= -1.0:
            raise ParameterError(
                f"Jacobi exponents must exceed -1, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Jacobi rule: exact for polynomials of degree <= 2*len(nodes)-1."""

    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ParameterError("quadrature nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ParameterError("quadrature weights must be positive")


def weight_mass(params: JacobiParams) -> float:
    """Total mass 2^(a+b+1) B(a+1, b+1) of the Jacobi weight."""
    a, b = params.alpha, params.beta
    return exp(
        (a + b + 1.0) * np.log(2.0) + lgamma(a + 1.0) + lgamma(b + 1.0) - lgamma(a + b + 2.0)
    )


def jacobi_eval(n: int, params: JacobiParams, x):
    """Evaluate the Jacobi polynomial of degree n by forward recurrence."""
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    return jacobi_eval_all(n, params, x)[n]


def jacobi_eval_all(n: int, params: JacobiParams, x) -> np.ndarray:
    """Table of Jacobi polynomial values, degrees 0..n, shape (n+1,) + shape(x).

    Standard three-term recurrence; stable in the forward direction for the
    parameter ranges used here (alpha, beta > -1).
    """
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    a, b = params.alpha, params.beta
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n == 0:
        return out
    out[1] = 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        out[k] = ((a2 + a3 * x) * out[k - 1] - a4 * out[k - 2]) / a1
    return out


def jacobi_deriv_all(n: int, params: JacobiParams, x) -> np.ndarray:
    """Derivatives of Jacobi polynomials, degrees 0..n.

    Uses d/dx P_n^(a,b) = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n + 1,) + x.shape, dtype=float)
    if n == 0:
        return out
    shifted = jacobi_eval_all(n - 1, JacobiParams(params.alpha + 1.0, params.beta + 1.0), x)
    for k in range(1, n + 1):
        out[k] = 0.5 * (k + params.alpha + params.beta + 1.0) * shifted[k - 1]
    return out


def norm_h(n: int, params: JacobiParams) -> float:
    """Squared L2 norm of the degree-n Jacobi polynomial under its weight.

    Computed via log-gamma differences; the raw Gamma form overflows near
    n ~ 170.
    """
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    a, b = params.alpha, params.beta
    if n == 0 and 1.0 + a + b == 0.0:
        # the log-gamma form is 0 * inf here (Chebyshev among them); h_0 is the mass
        return weight_mass(params)
    log_h = (
        (1.0 + a + b) * np.log(2.0)
        + lgamma(1.0 + a + n)
        + lgamma(1.0 + b + n)
        - lgamma(n + 1.0)
        - np.log(1.0 + a + b + 2.0 * n)
        - lgamma(1.0 + a + b + n)
    )
    return exp(log_h)


def orthonormal_eval(n: int, params: JacobiParams, x):
    """Orthonormalised Jacobi polynomial P_n / sqrt(h_n)."""
    return jacobi_eval(n, params, x) / np.sqrt(norm_h(n, params))


def orthonormal_all(n: int, params: JacobiParams, x) -> np.ndarray:
    """Table of orthonormal Jacobi polynomials, degrees 0..n."""
    table = jacobi_eval_all(n, params, x)
    scale = np.array([1.0 / np.sqrt(norm_h(k, params)) for k in range(n + 1)])
    return table * scale.reshape((-1,) + (1,) * (table.ndim - 1))


def orthonormal_deriv_all(n: int, params: JacobiParams, x) -> np.ndarray:
    """Derivatives of the orthonormal Jacobi polynomials, degrees 0..n."""
    table = jacobi_deriv_all(n, params, x)
    scale = np.array([1.0 / np.sqrt(norm_h(k, params)) for k in range(n + 1)])
    return table * scale.reshape((-1,) + (1,) * (table.ndim - 1))


def recurrence_coeffs(n: int, params: JacobiParams):
    """Monic-recurrence coefficients (diagonal, off-diagonal^2) for Golub-Welsch."""
    a, b = params.alpha, params.beta
    ra = np.zeros(n)
    rb = np.zeros(n)
    apb = a + b
    ra[0] = (b - a) / (apb + 2.0) if apb + 2.0 != 0.0 else 0.0
    rb[0] = weight_mass(params)
    for k in range(1, n):
        c = 2.0 * k + apb
        ra[k] = (b * b - a * a) / (c * (c + 2.0))
        if k == 1 and 1.0 + apb == 0.0:
            # 0/0 when a + b = -1 (Chebyshev among them): take the limit
            rb[k] = 4.0 * (1.0 + a) * (1.0 + b) / ((c + 1.0) * c * c)
        else:
            rb[k] = 4.0 * k * (k + a) * (k + b) * (k + apb) / ((c * c - 1.0) * c * c)
    return ra, rb


def gauss_jacobi(nquad: int, params: JacobiParams) -> QuadRule:
    """Gauss-Jacobi rule via the Golub-Welsch eigenvalue method."""
    if nquad < 1:
        raise ParameterError(f"need at least one quadrature node, got {nquad}")
    ra, rb = recurrence_coeffs(nquad, params)
    scale = rb[0]
    off = np.sqrt(rb[1:])
    jac = np.diag(ra) + np.diag(off, -1) + np.diag(off, 1)
    nodes, vecs = np.linalg.eigh(jac)
    order = np.argsort(nodes)
    nodes = nodes[order]
    weights = scale * vecs[0, order] ** 2
    if np.any(weights <= 0.0) or np.any(~np.isfinite(nodes)):
        raise QuadratureError("Gauss-Jacobi node solve failed: nonpositive weights")
    total = weights.sum()
    if abs(total - scale) > 1e-12 * scale:
        raise QuadratureError(
            f"Gauss-Jacobi weight sum off by {abs(total - scale) / scale:.3e} relative"
        )
    return QuadRule(nodes=nodes, weights=weights, params=params)


def gauss_jacobi_01(nquad: int, a: float, b: float):
    """Nodes/weights for integrals int_0^1 (1-r)^a r^b f(r) dr.

    Returns (r_nodes, weights); the algebraic endpoint factors are absorbed
    into the weights.
    """
    rule = gauss_jacobi(nquad, JacobiParams(a, b))
    r = 0.5 * (rule.nodes + 1.0)
    w = rule.weights * 0.5 ** (a + b + 1.0)
    return r, w
