"""Weighted orthonormal bases on the unit disc and d-dimensional unit ball.

Three families are provided:

* WFUNC: weighted functions (1-r)^(a/2) r^(b/2) times orthonormal Jacobi
  polynomials in 2r-1 and a Fourier factor; orthonormal under the Cartesian
  inner product on the (r, theta) coordinate box.
* EX1_WEIGHTED: the (a, 1)-Jacobi family with weight (1-r)^(a/2), orthonormal
  under the polar (r-weighted) inner product on the disc.
* ZERNIKE: the classical disc polynomials, evaluation only.

Normalisation constants are fixed here so that each family is orthonormal
under its declared inner product; this is certified by test rather than
carried over from any printed prefactor.  The angular convention (grid, cell
measures, centred DFT and phase) is also defined here, for every module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .jacobi import (
    BallspecError,
    JacobiParams,
    ParameterError,
    gauss_jacobi_01,
    norm_h,
    jacobi_eval,
    jacobi_eval_all,
)


class BasisKind(Enum):
    WFUNC = "wfunc"
    EX1_WEIGHTED = "ex1_weighted"
    ZERNIKE = "zernike"


class InnerProductKind(Enum):
    CARTESIAN = "cartesian"  # plain box measure dr dtheta
    POLAR = "polar"          # disc measure r dr dtheta


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
        if self.kind is BasisKind.WFUNC and (self.alpha <= -1.0 or self.beta <= -1.0):
            raise UsageError("weighted basis needs alpha, beta > -1")
        if self.kind is BasisKind.EX1_WEIGHTED and self.alpha <= 1.0:
            raise UsageError("the r-weighted family needs alpha > 1")
        if self.d > 2 and self.beta != self.alpha:
            raise UsageError("ball bases require beta == alpha")

    @property
    def skew_certified(self) -> bool:
        """True when the radial differentiation matrix is skew symmetric."""
        return self.kind is BasisKind.WFUNC and self.alpha > 0 and self.beta > 0


@dataclass(frozen=True)
class PolarPoint:
    r: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise UsageError(f"radius {self.r} outside [0, 1]")


@dataclass(frozen=True)
class BallPoint:
    r: float
    theta: tuple

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise UsageError(f"radius {self.r} outside [0, 1]")


# -- radial profiles --------------------------------------------------------

def _jacobi_rows(n, params: JacobiParams, x):
    """(P, sqrt(h)) for the degrees in n, from one recurrence table.

    n is a degree or a 1-D sequence of degrees.  An int gives P of shape(x);
    a sequence gives shape (len(n),) + shape(x), with sqrt(h) shaped to
    broadcast against it.  Row k of the table does not depend on how many
    rows are built, so each row equals the single-degree value bit for bit.
    """
    ns = np.asarray(n)
    if ns.size == 0 or not np.issubdtype(ns.dtype, np.integer):
        raise ParameterError(f"degrees must be one or more integers, got {n!r}")
    table = jacobi_eval_all(int(ns.max()), params, x)[ns]
    h = np.array([norm_h(int(k), params) for k in ns.ravel()])
    return table, np.sqrt(h).reshape(ns.shape + (1,) * (table.ndim - ns.ndim))


def wfunc_radial(spec: BasisSpec, n, r):
    """Radial factor of the weighted disc or d-ball basis (all but the phase).

    (1-r)^(a/2) r^(b/2) times the orthonormal Jacobi polynomial in 2r-1,
    scaled by pi^(-(d-1)/2) 2^((a+b)/2) for unit norm over the coordinate
    box.  n is a degree or a 1-D sequence of degrees; a sequence gives one
    row per degree, all from one O(max n) recurrence pass per radius.
    """
    a, b = spec.alpha, spec.beta
    r = np.asarray(r, dtype=float)
    scale = np.pi ** (-0.5 * (spec.d - 1)) * 2.0 ** (0.5 * (a + b))
    # (1-r)^(a/2) r^(b/2) evaluates to a literal zero at the endpoints
    p, sqrt_h = _jacobi_rows(n, JacobiParams(a, b), 2.0 * r - 1.0)
    return scale * (1.0 - r) ** (0.5 * a) * r ** (0.5 * b) * (p / sqrt_h)


def ball_radial(spec: BasisSpec, n, r):
    """Radial factor of the d-ball basis (beta == alpha): wfunc_radial."""
    return wfunc_radial(spec, n, r)


def wfunc_eval(spec: BasisSpec, n: int, mode, p) -> complex:
    """Weighted basis function at a point: an int m and a PolarPoint (d=2),
    or d-1 angular indices and a BallPoint (d >= 3)."""
    if spec.kind is not BasisKind.WFUNC:
        raise UsageError("weighted basis evaluation requires a weighted basis spec")
    if np.size(mode) != spec.d - 1:
        raise UsageError(f"need {spec.d - 1} angular indices, got {np.size(mode)}")
    return wfunc_radial(spec, n, p.r) * ball_phase(mode, p.theta)


def ball_basis_eval(spec: BasisSpec, n: int, mvec, p: BallPoint) -> complex:
    """d-ball basis function: wfunc_eval for a spec with beta == alpha."""
    if spec.beta != spec.alpha:
        raise UsageError("ball basis requires a weighted spec with beta == alpha")
    return wfunc_eval(spec, n, mvec, p)


def ex1_radial(n, alpha: float, r):
    """Radial factor of the polar-inner-product family of weight (1-r)^(a/2).

    n is a degree or a 1-D sequence of degrees, as in wfunc_radial.
    """
    if alpha <= 1.0:
        raise ParameterError(f"this family needs alpha > 1, got {alpha}")
    r = np.asarray(r, dtype=float)
    p, sqrt_h = _jacobi_rows(n, JacobiParams(alpha, 1.0), 2.0 * r - 1.0)
    return 2.0 ** (0.5 * (alpha + 2.0)) / sqrt_h * (1.0 - r) ** (0.5 * alpha) * p


def ex1_basis_eval(n: int, m: int, p: PolarPoint, alpha: float) -> complex:
    """Disc basis orthonormal under the polar (r-weighted) inner product."""
    return (2.0 * np.pi) ** -0.5 * ex1_radial(n, alpha, p.r) * ball_phase(m, p.theta)


def zernike_radial(n: int, r):
    """Radial factor of the classical disc polynomials, normalised to unit
    polar-inner-product norm."""
    r = np.asarray(r, dtype=float)
    scale = np.sqrt(2.0 / (np.pi * norm_h(n, JacobiParams(0.0, 1.0))))
    return scale * jacobi_eval(n, JacobiParams(0.0, 1.0), 2.0 * r - 1.0)


def zernike_eval(n: int, m: int, p: PolarPoint) -> complex:
    return zernike_radial(n, p.r) * ball_phase(m, p.theta)


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
    return {mode: coef[(...,) + tuple(k % n for k, n in zip(np.atleast_1d(mode), shape))]
            for mode in angular_modes(d, k_max)}


def ball_phase(mode, theta):
    """Angular phase exp(i(m1 t1 + 2 m2 t2 + ... + 2 m_{d-1} t_{d-1})).

    mode is an int (d=2) or a sequence of d-1 indices; theta one angle (d=2)
    or a sequence of d-1 angles or angle arrays.
    """
    ks = np.atleast_1d(mode)
    theta = theta if isinstance(theta, (list, tuple)) else np.atleast_1d(theta)
    arg = ks[0] * theta[0]
    for k, t in zip(ks[1:], theta[1:]):
        arg = arg + 2.0 * k * t
    return np.exp(1j * arg)


def _distinct(a: np.ndarray, bits: bool = False):
    """(u, idx, axis): np.unique(a.ravel(), return_inverse=True), with idx
    shaped to broadcast against a.

    bits=True tells values apart by their bit patterns.  When a is constant,
    bit for bit, along every axis but one (a meshgrid coordinate), only its
    line along that axis is sorted, and axis names it; otherwise axis is
    None and every entry is sorted.
    """
    src, axis = a, None
    pattern = a.view(np.int64)
    for ax in range(a.ndim):
        cut = tuple(slice(None) if i == ax else slice(0, 1) for i in range(a.ndim))
        if (pattern == pattern[cut]).all():
            src, axis = a[cut], ax
            break
    u, idx = np.unique((src.view(np.int64) if bits else src).ravel(), return_inverse=True)
    return (u.view(a.dtype) if bits else u), idx.reshape(src.shape), axis


def distinct_radii(r: np.ndarray):
    """np.unique(r.ravel(), return_inverse=True) for a float array r; a
    tensor-mesh coordinate is sorted along its line, not point by point."""
    ru, idx, _ = _distinct(r)
    return ru, np.broadcast_to(idx, r.shape).ravel()


def distinct_phase(thetas):
    """mode -> ball_phase(mode, thetas) on the broadcast mesh of the angle arrays.

    The exponential is taken once per distinct angle tuple and gathered back
    onto the mesh, so a tensor grid costs one exp per angle, not per point.
    Tuples are told apart by their bit patterns, so each entry equals the
    full-mesh phase bit for bit.  When each angle array is a tensor-mesh
    coordinate of its own axis, every combination of the axes' distinct
    angles occurs, so the tuples are found without sorting the mesh.
    """
    arrays = np.broadcast_arrays(*thetas)
    shape = arrays[0].shape
    key, uniques, axes = 0, [], set()
    for t in arrays:
        u, idx, axis = _distinct(t, bits=True)
        key = key * u.size + idx
        uniques.append(u)
        axes.add(axis)
    if None not in axes and len(axes) == len(arrays):
        # key (i1, i2, ...) = i1 n2 n3 ... + i2 n3 ... + ...: every key occurs
        digits = np.meshgrid(*[np.arange(u.size) for u in uniques], indexing="ij")
        distinct = [u[k.ravel()] for u, k in zip(uniques, digits)]
        inv = np.broadcast_to(key, shape)
    else:
        _, first, inv = np.unique(np.broadcast_to(key, shape).ravel(),
                                  return_index=True, return_inverse=True)
        distinct = [t.ravel()[first] for t in arrays]
        inv = inv.reshape(shape)
    return lambda mode: ball_phase(mode, distinct)[inv]


# -- inner products ---------------------------------------------------------

def inner_product(f, g, kind: InnerProductKind = InnerProductKind.CARTESIAN,
                  resolution: int = 48, d: int = 2) -> complex:
    """Quadrature inner product of two fields over the coordinate box.

    Fields are callables f(r, *theta), or arrays of their samples on the
    mesh of the rule: the resolution Gauss-Legendre radii of
    gauss_jacobi_01(resolution, 0, 0) times angular_grid(d, resolution),
    indexing "ij".  Angular directions use equispaced
    (trapezoidal) sampling, exact for trigonometric integrands of bandwidth
    below the resolution; the radial direction uses Gauss-Legendre.
    """
    if resolution < 1:
        raise UsageError(f"resolution must be >= 1, got {resolution}")
    if kind is InnerProductKind.POLAR and d != 2:
        raise UsageError("polar inner product implemented for d=2 only")
    r, w = gauss_jacobi_01(resolution, 0.0, 0.0)
    if kind is InnerProductKind.POLAR:
        w = w * r
    if callable(f) or callable(g):
        mesh = np.meshgrid(r, *angular_grid(d, resolution), indexing="ij")
        f, g = (h(*mesh) if callable(h) else h for h in (f, g))
    # np.multiply keeps the operand order f * conj(g): with a temporary right
    # operand, `*` may reuse its buffer and swap the operands, and a fused
    # complex product is not bit-for-bit commutative
    vals = np.multiply(f, np.conj(g))
    for _ in range(d - 1):
        vals = vals.sum(axis=-1)
    total = np.dot(w, vals)
    return complex(total * np.prod(cell_measures(d, resolution)))
