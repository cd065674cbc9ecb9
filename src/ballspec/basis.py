"""Weighted orthonormal bases on the unit disc and d-dimensional unit ball.

Two families are provided, each as a vectorised radial factor times the
Fourier phase ball_phase:

* WFUNC: weighted functions (1-r)^(a/2) r^(b/2) times orthonormal Jacobi
  polynomials in 2r-1 and a Fourier factor; orthonormal under the Cartesian
  inner product on the (r, theta) coordinate box.
* EX1_WEIGHTED: the (a, 1)-Jacobi family with weight (1-r)^(a/2), orthonormal
  under the polar (r-weighted) inner product on the disc.

Each radial factor is a constant times its endpoint weight times rows of
jacobi.orthonormal_all; the constant only maps [-1, 1] to [0, 1] and the
angles, and orthonormality is certified by test rather than carried over
from any printed prefactor.  The angular convention (grid, cell measures,
centred DFT and phase) and the sampling of fields on open tensor meshes
(on_mesh) are also defined here, for every module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isfinite
from enum import Enum

import numpy as np

from .jacobi import (
    BallspecError,
    JacobiParams,
    ParameterError,
    gauss_jacobi_01,
    orthonormal_all,
)


class BasisKind(Enum):
    WFUNC = "wfunc"
    EX1_WEIGHTED = "ex1_weighted"


class UsageError(BallspecError, ValueError):
    pass


@dataclass(frozen=True)
class BasisSpec:
    """Parameters of a truncated basis on the disc (d=2) or ball (d>=3)."""

    alpha: float
    beta: float
    d: int = 2
    N: int = 0
    K: int = 0
    kind: BasisKind = BasisKind.WFUNC

    def __post_init__(self):
        if self.d < 2:
            raise UsageError(f"dimension must be >= 2, got {self.d}")
        if self.N < 0 or self.K < 0:
            raise UsageError("truncations must be nonnegative")
        if not (isfinite(self.alpha) and isfinite(self.beta)):
            raise UsageError(f"exponents must be finite, got alpha={self.alpha}, beta={self.beta}")
        if self.kind is BasisKind.WFUNC and (self.alpha <= -1.0 or self.beta <= -1.0):
            raise UsageError("weighted basis needs alpha, beta > -1")
        if self.kind is BasisKind.EX1_WEIGHTED and self.alpha <= 1.0:
            raise UsageError("the r-weighted family needs alpha > 1")
        if self.kind is BasisKind.EX1_WEIGHTED and self.d != 2:
            raise UsageError(f"the r-weighted family exists on the disc only, got d={self.d}")
        if self.d > 2 and self.beta != self.alpha:
            raise UsageError("ball bases require beta == alpha")

    @property
    def skew_certified(self) -> bool:
        """True when the radial differentiation matrix is skew symmetric."""
        return self.kind is BasisKind.WFUNC and self.alpha > 0 and self.beta > 0


# -- radial profiles --------------------------------------------------------

def _radii(r) -> np.ndarray:
    """r as a float array, refused unless every radius is finite and in [0, 1]."""
    r = np.asarray(r, dtype=float)
    bad = r[~((r >= 0.0) & (r <= 1.0))]
    if bad.size:
        raise UsageError(f"radius {bad[0]} outside [0, 1]")
    return r


def _orthonormal_rows(n, params: JacobiParams, x):
    """Rows n of orthonormal_all(max n, params, x).

    n is a degree (shape(x)) or a 1-D sequence of degrees ((len(n),) +
    shape(x)).  Row k does not depend on how many rows are built, so it
    equals the single-degree value bit for bit.  An empty, non-integer or
    negative degree raises ParameterError (-1 would read the last row).
    """
    ns = np.asarray(n)
    if ns.size == 0 or not np.issubdtype(ns.dtype, np.integer) or ns.min() < 0:
        raise ParameterError(f"degrees must be one or more nonnegative integers, got {n!r}")
    return orthonormal_all(int(ns.max()), params, x)[ns]


def _ex1_domain(alpha: float, n_max: int = 0) -> None:
    """The domain of the r-weighted family and its oracles: a finite
    alpha > 1 and a nonnegative degree, or ParameterError."""
    if not (isfinite(alpha) and alpha > 1.0):
        raise ParameterError(f"this family needs a finite alpha > 1, got {alpha}")
    if n_max < 0:
        raise ParameterError(f"degree must be nonnegative, got {n_max}")


def wfunc_radial(spec: BasisSpec, n, r):
    """Radial factor of the weighted disc or d-ball basis (all but the phase).

    (1-r)^(a/2) r^(b/2) times the orthonormal Jacobi polynomial in 2r-1,
    scaled by pi^(-(d-1)/2) 2^((a+b)/2) for unit norm over the coordinate
    box.  n is a degree or a 1-D sequence of degrees; a sequence gives one
    row per degree, all from one O(max n) recurrence pass per radius.  A
    radius outside [0, 1], or not finite, raises UsageError.
    """
    a, b = spec.alpha, spec.beta
    r = _radii(r)
    scale = np.pi ** (-0.5 * (spec.d - 1)) * 2.0 ** (0.5 * (a + b))
    # (1-r)^(a/2) r^(b/2) evaluates to a literal zero at the endpoints
    return scale * (1.0 - r) ** (0.5 * a) * r ** (0.5 * b) \
        * _orthonormal_rows(n, JacobiParams(a, b), 2.0 * r - 1.0)


def ball_radial(spec: BasisSpec, n, r):
    """Radial factor of the d-ball basis (beta == alpha): wfunc_radial."""
    return wfunc_radial(spec, n, r)


def ex1_radial(n, alpha: float, r):
    """Radial factor of the polar-inner-product family of weight (1-r)^(a/2),
    times the orthonormal (a, 1)-Jacobi polynomial in 2r-1.

    n is a degree or a 1-D sequence of degrees, and r is checked, as in
    wfunc_radial.
    """
    _ex1_domain(alpha)
    r = _radii(r)
    return 2.0 ** (0.5 * (alpha + 2.0)) * (1.0 - r) ** (0.5 * alpha) \
        * _orthonormal_rows(n, JacobiParams(alpha, 1.0), 2.0 * r - 1.0)


def zernike_radial(n: int, r):
    """The m = 0 radial factor of the classical disc (Zernike) polynomials,
    normalised to unit polar-inner-product norm.

    It omits the r^|m| of the m != 0 factors, so it is no basis for other
    modes; no analysis or synthesis path uses it.
    """
    r = np.asarray(r, dtype=float)
    return np.sqrt(2.0 / np.pi) * _orthonormal_rows(n, JacobiParams(0.0, 1.0), 2.0 * r - 1.0)


# -- the angular convention ------------------------------------------------
#
# theta_1 in [-pi, pi) and, for d >= 3, theta_2.. in [0, pi); an angular
# mode is an int m (d=2) or a (d-1)-tuple (k1, k2, ...) with the phase
# exp(i(k1 theta_1 + 2 k2 theta_2 + ...)).

def angular_modes(d: int, k_max: int) -> list:
    """The modes with every |k| <= k_max, in the flat column order of the
    coefficients: ints m for d=2, (d-1)-tuples for d >= 3."""
    ks = range(-k_max, k_max + 1)
    return list(ks) if d == 2 else list(itertools.product(ks, repeat=d - 1))


def angular_grid(d: int, n: int):
    """Equispaced periodic samples, n per angular axis."""
    return [np.linspace(-np.pi, np.pi, n, endpoint=False)] + \
        [np.linspace(0.0, np.pi, n, endpoint=False) for _ in range(d - 2)]


def cell_measures(d: int, n: int):
    """Per-axis cell measures of angular_grid(d, n)."""
    return [2.0 * np.pi / n] + [np.pi / n for _ in range(d - 2)]


def angular_dft(values, d: int, k_max: int, mean: bool = False) -> dict:
    """mode -> centred Fourier coefficient of samples on angular_grid (axes last).

    values has the d-1 angular axes last; the keys are angular_modes(d,
    k_max).  The raw DFT is divided by the number of samples (mean=True:
    Fourier coefficients) or multiplied by each axis' cell measure in turn
    (angular integrals), then shifted from the sample origin -pi to the
    centred convention.
    """
    shape = values.shape[values.ndim - (d - 1):]
    coef = np.fft.fftn(values, axes=tuple(range(-(d - 1), 0)))
    if mean:
        coef = coef / int(np.prod(shape))
    else:
        for s in cell_measures(d, shape[0]):
            coef = coef * s
    k1s = np.fft.fftfreq(shape[0], d=1.0 / shape[0]).astype(int)
    coef = coef * np.exp(1j * k1s * np.pi).reshape((-1,) + (1,) * (d - 2))
    # one gather of every mode's column; the "ij" order of the open mesh,
    # flattened, is the flat order of angular_modes
    ks = np.arange(-k_max, k_max + 1)
    cols = coef[(...,) + tuple(np.meshgrid(*[ks % n for n in shape], indexing="ij", sparse=True))]
    cols = cols.reshape(cols.shape[:values.ndim - (d - 1)] + (-1,))
    return {mode: cols[..., j] for j, mode in enumerate(angular_modes(d, k_max))}


def ball_phase(mode, theta):
    """Angular phase exp(i(m1 t1 + 2 m2 t2 + ... + 2 m_{d-1} t_{d-1})).

    mode is an int (d=2) or a sequence of d-1 indices; theta one angle or
    angle array (d=2), or a list or tuple of d-1 of them.  A mode whose
    length is not that of theta raises UsageError.
    """
    ks = np.atleast_1d(mode)
    theta = theta if isinstance(theta, (list, tuple)) else [theta]
    if ks.size != len(theta):
        raise UsageError(f"need {len(theta)} angular indices, got {ks.size}")
    arg = ks[0] * theta[0]
    for k, t in zip(ks[1:], theta[1:]):
        arg = arg + 2.0 * k * t
    return np.exp(1j * arg)


def on_mesh(f, *axes) -> np.ndarray:
    """f sampled on the tensor mesh of the 1-D axes (indexing "ij").

    f is called once on the open mesh, np.meshgrid(..., sparse=True), so a
    field that broadcasts its coordinates does its work per axis entry where
    it can; the result is broadcast to the full mesh shape.  A result that
    does not broadcast to that shape raises UsageError.
    """
    shape = tuple(np.size(a) for a in axes)
    vals = f(*np.meshgrid(*axes, indexing="ij", sparse=True))
    try:
        return np.broadcast_to(vals, shape)
    except ValueError:
        raise UsageError(f"a field sampled on a {shape} mesh returned shape "
                         f"{np.shape(vals)}") from None


# -- inner products ---------------------------------------------------------

def inner_product(f, g, resolution: int = 48, d: int = 2) -> complex:
    """Quadrature inner product of two fields over the coordinate box.

    Fields are callables f(r, *theta) accepting broadcastable coordinate
    arrays, sampled once on the open mesh of the rule (on_mesh), or arrays
    of their samples on that mesh: the resolution Gauss-Legendre radii of
    gauss_jacobi_01(resolution, 0, 0) times angular_grid(d, resolution),
    indexing "ij".  Angular directions use equispaced
    (trapezoidal) sampling, exact for trigonometric integrands of bandwidth
    below the resolution; the radial direction uses Gauss-Legendre.
    """
    if resolution < 1:
        raise UsageError(f"resolution must be >= 1, got {resolution}")
    r, w = gauss_jacobi_01(resolution, 0.0, 0.0)
    axes = (r, *angular_grid(d, resolution))
    f, g = (on_mesh(h, *axes) if callable(h) else h for h in (f, g))
    # np.multiply keeps the operand order f * conj(g): with a temporary right
    # operand, `*` may reuse its buffer and swap the operands, and a fused
    # complex product is not bit-for-bit commutative
    vals = np.multiply(f, np.conj(g))
    for _ in range(d - 1):
        vals = vals.sum(axis=-1)
    total = np.dot(w, vals)
    return complex(total * np.prod(cell_measures(d, resolution)))
