"""Orthogonal splitting of a field into an affine part carrying the value at
the origin and a residual vanishing there.

A field f with f(r=1, .) = 0 is written f = f0 + f1 where

1. f0 and f1 vanish at r = 1,
2. f0(0, .) = f(0, .) and f1(0, .) = 0,
3. <f0, f1> = 0 under the Cartesian box inner product.

Construction: per angular Fourier mode, seed with a radial template scaled
by the mode's value at the origin, then apply one Gram-Schmidt step.  Modes
are orthogonal under the box product, so per-mode splitting preserves
global orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .basis import UsageError
from .jacobi import gauss_jacobi_01


class Template(Enum):
    LINEAR = "linear"    # 1 - r
    COSINE = "cosine"    # cos(pi r / 2)
    CUSTOM = "custom"


def template_profile(template: Template, custom=None):
    if template is Template.LINEAR:
        return lambda r: 1.0 - np.asarray(r, dtype=float)
    if template is Template.COSINE:
        return lambda r: np.cos(0.5 * np.pi * np.asarray(r, dtype=float))
    if custom is None:
        raise UsageError("CUSTOM template requires a radial callable")
    return custom


def _angular_grid(d: int, n_samples: int):
    """Sampling grids exact for the package's angular conventions."""
    grids = [np.linspace(-np.pi, np.pi, n_samples, endpoint=False)]
    if d == 3:
        grids.append(np.linspace(0.0, np.pi, n_samples, endpoint=False))
    elif d != 2:
        raise UsageError("splitting implemented for d in {2, 3}")
    return grids


def _mode_coeffs(values, d: int, k_max: int):
    """Fourier coefficients of sampled angular data.

    d=2: modes m with e^{im t}; d=3: modes (k1, k2) with e^{i(k1 t1 + 2 k2 t2)}.
    values has the angular axes last.
    """
    if d == 2:
        n = values.shape[-1]
        coef = np.fft.fft(values, axis=-1) / n
        # samples start at -pi: shift to the centred convention
        ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        coef = coef * np.exp(1j * ks * np.pi)
        out = {}
        for m in range(-k_max, k_max + 1):
            out[m] = coef[..., np.where(ks == m)[0][0]]
        return out
    n1, n2 = values.shape[-2], values.shape[-1]
    coef = np.fft.fft2(values, axes=(-2, -1)) / (n1 * n2)
    k1s = np.fft.fftfreq(n1, d=1.0 / n1).astype(int)
    k2s = np.fft.fftfreq(n2, d=1.0 / n2).astype(int)
    coef = coef * np.exp(1j * k1s[:, None] * np.pi)
    out = {}
    for k1 in range(-k_max, k_max + 1):
        i1 = np.where(k1s == k1)[0][0]
        for k2 in range(-k_max, k_max + 1):
            # theta2 samples step pi/n2, phase 2*k2*theta2: index k2 in u = 2 theta2
            i2 = np.where(k2s == k2)[0][0]
            out[(k1, k2)] = coef[..., i1, i2]
        # fall through
    return out


def _phase(mode, thetas):
    if np.isscalar(mode) or isinstance(mode, (int, np.integer)):
        return np.exp(1j * mode * thetas[0])
    k1, k2 = mode
    return np.exp(1j * (k1 * thetas[0] + 2.0 * k2 * thetas[1]))


def distinct_phase(thetas):
    """mode -> exp(i mode.theta) on the broadcast mesh of the angle arrays.

    The exponential is taken once per distinct angle tuple and gathered back
    onto the mesh, so a tensor grid costs one exp per angle, not per point.
    Tuples are told apart by their bit patterns, so each entry equals
    ``_phase(mode, thetas)`` bit for bit.
    """
    arrays = np.broadcast_arrays(*thetas)
    mesh = [t.ravel() for t in arrays]
    key = np.zeros(mesh[0].size, dtype=np.int64)
    for t in mesh:
        _, idx = np.unique(t.view(np.int64), return_inverse=True)
        key = key * (int(idx.max(initial=0)) + 1) + idx
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    distinct = [t[first] for t in mesh]
    inv = inv.reshape(arrays[0].shape)
    return lambda mode: _phase(mode, distinct)[inv]


@dataclass
class SplitPair:
    """Result of the splitting; f0 + f1 reproduces f pointwise."""

    f: object
    f0: object
    f1: object
    c: dict
    origin_coeffs: dict
    profiles: dict        # mode -> radial profile of the affine part
    template: Template
    d: int = 2
    degenerate: bool = False


def _radial_mode_profiles(f, modes, d, n_samples, r):
    """Angular-mode radial profiles f_mode(r) at the radii r (array)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    grids = _angular_grid(d, n_samples)
    mesh = np.meshgrid(r, *grids, indexing="ij")
    vals = f(*mesh)
    coefs = _mode_coeffs(vals, d, max(_mode_order(m) for m in modes))
    return {m: coefs[m] for m in modes}


def _mode_order(mode):
    if np.isscalar(mode) or isinstance(mode, (int, np.integer)):
        return abs(int(mode))
    return max(abs(int(k)) for k in mode)


def make_pos(f, template: Template = Template.LINEAR, d: int = 2,
             k_max: int = 16, n_samples: int = 64, n_radial: int = 48,
             custom_template=None, coeff_tol: float = 1e-13) -> SplitPair:
    """Split f into an orthogonal (affine, residual) pair.

    f is a callable f(r, theta) (d=2) or f(r, theta1, theta2) (d=3) accepting
    arrays, continuous on the closed box with f(1, .) = 0.  n_samples angular
    samples per axis must resolve the modes up to k_max: n_samples >=
    2*k_max + 1.  The returned f0 samples f again at the radii it is given,
    except at the n_radial Gauss-Legendre nodes of this split (those of
    verify_pos and inner_product at the same resolution), where it reuses
    the samples taken here.
    """
    if n_samples < 2 * k_max + 1:
        raise UsageError(
            f"n_samples={n_samples} cannot resolve k_max={k_max}: "
            f"need n_samples >= 2*k_max+1 = {2 * k_max + 1}")
    T = template_profile(template, custom_template)
    grids = _angular_grid(d, n_samples)
    origin_mesh = np.meshgrid(np.array([0.0]), *grids, indexing="ij")
    origin_vals = f(*origin_mesh)[0]
    origin = _mode_coeffs(origin_vals, d, k_max)
    scale = max(np.max(np.abs(list(origin.values()))), 1.0)
    modes = [m for m, g in origin.items() if abs(complex(np.asarray(g))) > coeff_tol * scale]

    rq, wq = gauss_jacobi_01(n_radial, 0.0, 0.0)
    t_nodes = T(rq)
    profiles_at_nodes = _radial_mode_profiles(f, modes, d, n_samples, rq) if modes else {}

    c = {}
    g = {}
    resid_at_nodes = {}   # mode -> f_mode(rq) - g_mode * T(rq)
    profiles = {}
    live_modes = []
    for m in modes:
        gm = complex(np.asarray(origin[m]))
        resid = profiles_at_nodes[m] - gm * t_nodes
        resid_at_nodes[m] = resid
        denom = np.dot(wq, np.abs(resid) ** 2)
        if denom <= 1e-28:
            # this mode is already a pure template multiple
            cm = 0.0 + 0.0j
        else:
            cm = np.dot(wq, gm * t_nodes * np.conj(resid)) / denom
        c[m] = complex(cm)
        g[m] = gm
        live_modes.append(m)

    degenerate = all(abs(c[m]) == 0.0 and
                     np.dot(wq, np.abs(resid_at_nodes[m]) ** 2) <= 1e-28
                     for m in live_modes) if live_modes else False

    def f0(r, *thetas):
        r = np.asarray(r, dtype=float)
        thetas = [np.asarray(t, dtype=float) for t in thetas]
        out = np.zeros(np.broadcast(r, *thetas).shape, dtype=complex)
        if not live_modes:
            return out
        needed = {m for m in live_modes if c[m] != 0.0}
        # mode profiles are functions of r only; evaluate once per unique radius
        flat_r = np.atleast_1d(r).ravel()
        ru, inv = np.unique(flat_r, return_inverse=True)
        if np.array_equal(ru, rq):
            # the same samples make_pos took: reuse them instead of re-sampling f
            resid_u = {m: resid_at_nodes[m] for m in needed}
        else:
            resid_u = _residual_profiles(f, needed, g, T, d, n_samples, ru) if needed else {}
        phase = distinct_phase(thetas)
        for m in live_modes:
            prof_u = g[m] * T(ru)
            if m in resid_u:
                prof_u = prof_u - c[m] * resid_u[m]
            prof = prof_u[inv].reshape(np.atleast_1d(r).shape)
            if r.ndim == 0:
                prof = prof[0]
            out = out + prof * phase(m)
        return out

    def f1(r, *thetas):
        return f(r, *thetas) - f0(r, *thetas)

    def profile_factory(m):
        def prof(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            base = g[m] * T(r)
            if c[m] != 0.0:
                base = base - c[m] * _residual_profiles(f, {m}, g, T, d, n_samples, r)[m]
            return base
        return prof

    for m in live_modes:
        profiles[m] = profile_factory(m)

    if degenerate:
        return SplitPair(f=f, f0=f, f1=lambda r, *th: np.zeros(
            np.broadcast(np.asarray(r), *th).shape, dtype=complex),
            c=c, origin_coeffs=g, profiles=profiles, template=template,
            d=d, degenerate=True)

    return SplitPair(f=f, f0=f0, f1=f1, c=c, origin_coeffs=g,
                     profiles=profiles, template=template, d=d)


def _residual_profiles(f, modes, g, T, d, n_samples, r):
    """Residual radial profiles f_mode(r) - g_mode * T(r) at arbitrary radii."""
    fm = _radial_mode_profiles(f, modes, d, n_samples, r)
    r = np.asarray(r, dtype=float)
    return {m: fm[m] - g[m] * T(r) for m in modes}


def raw_pair(f, d: int = 2) -> SplitPair:
    """Trivial pair (f0 = 0, f1 = f) for expanding a field without splitting.

    Not an orthogonal splitting unless f(0, .) = 0; use with verification
    disabled.
    """
    def zero(r, *thetas):
        return np.zeros(np.broadcast(np.asarray(r), *thetas).shape, dtype=complex)
    return SplitPair(f=f, f0=zero, f1=f, c={}, origin_coeffs={}, profiles={},
                     template=Template.LINEAR, d=d)


@dataclass
class SplitReport:
    sum_residual: float
    boundary_residual: float
    origin_residual: float
    orthogonality_residual: float


def verify_pos(pair: SplitPair, n_samples: int = 32, n_radial: int = 48) -> SplitReport:
    """Numerical residuals of the three splitting conditions plus the sum."""
    from .basis import inner_product, InnerProductKind
    grids = _angular_grid(pair.d, n_samples)
    rq, _ = gauss_jacobi_01(n_radial, 0.0, 0.0)
    mesh = np.meshgrid(rq, *grids, indexing="ij")
    total = pair.f0(*mesh) + pair.f1(*mesh) - pair.f(*mesh)
    sum_res = float(np.max(np.abs(total)))

    bmesh = np.meshgrid(np.array([1.0]), *grids, indexing="ij")
    boundary = max(float(np.max(np.abs(pair.f0(*bmesh)))),
                   float(np.max(np.abs(pair.f1(*bmesh)))))
    omesh = np.meshgrid(np.array([0.0]), *grids, indexing="ij")
    origin = max(float(np.max(np.abs(pair.f1(*omesh)))),
                 float(np.max(np.abs(pair.f0(*omesh) - pair.f(*omesh)))))
    ortho = abs(inner_product(pair.f0, pair.f1, InnerProductKind.CARTESIAN,
                              resolution=n_radial, d=pair.d))
    return SplitReport(sum_residual=sum_res, boundary_residual=boundary,
                       origin_residual=origin, orthogonality_residual=float(ortho))
