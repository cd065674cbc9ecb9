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

from dataclasses import dataclass

import numpy as np

from .basis import UsageError, angular_dft, angular_grid, ball_phase, inner_product, on_mesh
from .jacobi import gauss_jacobi_01

#: Gauss-Legendre radii of make_pos's Gram-Schmidt step and of verify_pos.
N_RADIAL = 48
#: Origin modes below this fraction of the largest are dropped, and a mode
#: whose residual is below this fraction of its template part is a pure
#: template multiple (c = 0).
COEFF_TOL = 1e-13


def _one_minus_r(r):
    """The default radial template T(r) = 1 - r."""
    return 1.0 - np.asarray(r, dtype=float)


@dataclass
class SplitPair:
    """Result of the splitting: the field f and its affine part f0.

    The residual f1 = f - f0 is derived, not stored, so f0 + f1 reproduces f
    for every pair.  Per split mode m the parts are
    f0_m = g_m T - c_m/(1 + c_m) f1_m and f1_m = (1 + c_m)(f_m - g_m T), with
    g = origin_coeffs and T = profile, so (g, c, T) and the coefficients of
    f1 determine the expansion.
    """

    f: object
    f0: object
    c: dict
    origin_coeffs: dict
    profile: object       # radial template T of the affine part
    d: int = 2

    def f1(self, r, *thetas):
        """The residual part f - f0 at the given points."""
        return self.f(r, *thetas) - self.f0(r, *thetas)

    def residual_coeffs(self, F: dict, r, measure: float) -> dict:
        """Angular integrals of f1 at the radii r from those of f (mode -> F(r)).

        measure is the angular measure of the integrals, 2 pi^(d-1).  A
        split mode maps to (1 + c)(F - measure g T(r)); other modes pass
        through.
        """
        out = dict(F)
        t = self.profile(r) if self.origin_coeffs else None
        for m, g in self.origin_coeffs.items():
            if m in out:
                out[m] = (1.0 + self.c[m]) * (out[m] - measure * g * t)
        return out


def _finite_samples(f, r, d, n_angles):
    """f on the mesh of the radii r and angular_grid(d, n_angles).

    A sample that is not finite raises UsageError: the split's Fourier
    transform and Gram-Schmidt step would turn it into NaN coefficients.
    """
    vals = on_mesh(f, r, *angular_grid(d, n_angles))
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"the field has non-finite samples at radii in [{r[0]:.3g}, {r[-1]:.3g}]")
    return vals


def _residual_profiles(vals, modes, g, T, d, r):
    """Residual radial profiles f_mode(r) - g_mode * T(r) from f's samples
    vals at the 1-D radii r (on_mesh order)."""
    fm = angular_dft(vals, d, int(np.max(np.abs(list(modes)))), mean=True)
    t = T(r)
    return {m: fm[m] - g[m] * t for m in modes}


def _zero(r, *thetas):
    return np.zeros(np.broadcast(np.asarray(r), *thetas).shape, dtype=complex)


def _check_dim(d: int):
    if d < 2:
        raise UsageError(f"splitting needs d >= 2, got d={d}")


def make_pos(f, template=_one_minus_r, d: int = 2, k_max: int = 16) -> SplitPair:
    """Split f into an orthogonal (affine, residual) pair.

    f is a callable f(r, theta1, ..., theta_{d-1}) accepting broadcastable
    coordinate arrays, for any d >= 2, continuous on the closed box with
    f(1, .) = 0; it is sampled on open meshes (on_mesh).  template is the
    radial callable T of the affine part (array of radii -> array), with
    T(0) = 1 and T(1) = 0; the default is 1 - r.  The modes up to k_max >= 0
    are split, from 4 * max(k_max, 1) angular samples per axis, so f is
    sampled on that many angles to the power d-1 per radius.  The
    split is a per-mode affine map (see SplitPair); its thresholds are
    relative to the field, so s*f splits like f for any scale s > 0.  The
    f0 callable, and f1 = f - f0 derived from it, are for verification: f0
    samples f again at the radii it is given, except at the N_RADIAL
    Gauss-Legendre nodes of this split (those of verify_pos's body and
    orthogonality meshes), where it reuses the samples taken here.  Analysis
    and synthesis use the map instead; a mode that is a pure template
    multiple keeps c = 0 and goes through the same map.  A sample of f that
    is not finite, at the origin or at the N_RADIAL nodes, raises
    UsageError.
    """
    _check_dim(d)
    if k_max < 0:
        raise UsageError(f"k_max must be >= 0, got {k_max}")
    if not callable(template):
        raise UsageError(f"template must be a radial callable, got {template!r}")
    n_angles = 4 * max(k_max, 1)
    origin = angular_dft(_finite_samples(f, np.array([0.0]), d, n_angles)[0], d, k_max,
                         mean=True)
    scale = np.max(np.abs(list(origin.values())))
    modes = [m for m, v in origin.items() if abs(complex(np.asarray(v))) > COEFF_TOL * scale]

    rq, wq = gauss_jacobi_01(N_RADIAL, 0.0, 0.0)
    t_nodes = template(rq)
    g = {m: complex(np.asarray(origin[m])) for m in modes}
    # mode -> f_mode(rq) - g_mode * template(rq)
    resid_at_nodes = _residual_profiles(_finite_samples(f, rq, d, n_angles), modes, g, template,
                                        d, rq) if modes else {}
    c = {}
    for m in modes:
        resid = resid_at_nodes[m]
        denom = np.dot(wq, np.abs(resid) ** 2)
        # a mode that is already a pure template multiple keeps c = 0
        pure = denom <= COEFF_TOL ** 2 * np.dot(wq, np.abs(g[m] * t_nodes) ** 2)
        c[m] = 0j if pure else complex(np.dot(wq, g[m] * t_nodes * np.conj(resid)) / denom)

    def f0(r, *thetas):
        r = np.asarray(r, dtype=float)
        thetas = [np.asarray(t, dtype=float) for t in thetas]
        out = np.zeros(np.broadcast(r, *thetas).shape, dtype=complex)
        if not modes:
            return out
        needed = {m for m in modes if c[m] != 0.0}
        # mode profiles are functions of r only; evaluate once per unique radius
        ru, inv = np.unique(r, return_inverse=True)
        if np.array_equal(ru, rq):
            # the same samples make_pos took: reuse them instead of re-sampling f
            resid_u = {m: resid_at_nodes[m] for m in needed}
        else:
            resid_u = _residual_profiles(on_mesh(f, ru, *angular_grid(d, n_angles)), needed, g,
                                         template, d, ru) if needed else {}
        for m in modes:
            prof_u = g[m] * template(ru)
            if m in resid_u:
                prof_u = prof_u - c[m] * resid_u[m]
            # np.multiply keeps the order prof * phase (see inner_product)
            out = out + np.multiply(prof_u[inv].reshape(r.shape), ball_phase(m, thetas))
        return out

    return SplitPair(f=f, f0=f0, c=c, origin_coeffs=g, profile=template, d=d)


def raw_pair(f, d: int = 2) -> SplitPair:
    """Trivial pair (f0 = 0, f1 = f) for expanding a field without splitting.

    Not an orthogonal splitting unless f(0, .) = 0; use with verification
    disabled.
    """
    return SplitPair(f=f, f0=_zero, c={}, origin_coeffs={}, profile=None, d=d)


@dataclass
class SplitReport:
    sum_residual: float
    boundary_residual: float
    origin_residual: float
    orthogonality_residual: float
    scale: float    # max |f| on the verification mesh

    @property
    def worst(self) -> float:
        return max(self.sum_residual, self.boundary_residual,
                   self.origin_residual, self.orthogonality_residual)

    @property
    def relative(self) -> float:
        """worst with the pointwise residuals divided by scale and the
        orthogonality residual, an inner product, by scale squared."""
        s = self.scale if self.scale > 0.0 else 1.0
        return max(self.sum_residual / s, self.boundary_residual / s,
                   self.origin_residual / s, self.orthogonality_residual / s / s)


def verify_pos(pair: SplitPair) -> SplitReport:
    """Numerical residuals of the three splitting conditions plus the sum.

    Four open meshes (on_mesh), each sampling pair.f and pair.f0 once, with
    f1 their difference: the body (the N_RADIAL Gauss-Legendre radii times
    32 angles per axis; sum residual and scale), the orthogonality mesh (the
    same radii times N_RADIAL angles per axis, inner_product's rule), r = 1
    and r = 0 (times 32 angles per axis).
    """
    _check_dim(pair.d)
    grids = angular_grid(pair.d, 32)
    rq, _ = gauss_jacobi_01(N_RADIAL, 0.0, 0.0)

    def sample(*axes):
        f = on_mesh(pair.f, *axes)
        f0 = on_mesh(pair.f0, *axes)
        return f, f0, f - f0

    f, f0, f1 = sample(rq, *grids)
    sum_res = float(np.max(np.abs(f0 + f1 - f)))
    scale = float(np.max(np.abs(f)))
    _, b0, b1 = sample(np.array([1.0]), *grids)
    boundary = max(float(np.max(np.abs(b0))), float(np.max(np.abs(b1))))
    o, o0, o1 = sample(np.array([0.0]), *grids)
    origin = max(float(np.max(np.abs(o1))), float(np.max(np.abs(o0 - o))))
    _, q0, q1 = sample(rq, *angular_grid(pair.d, N_RADIAL))
    ortho = abs(inner_product(q0, q1, resolution=N_RADIAL,
                              d=pair.d))
    return SplitReport(sum_residual=sum_res, boundary_residual=boundary,
                       origin_residual=origin, orthogonality_residual=float(ortho),
                       scale=scale)


def check_split(pair: SplitPair, tol: float = 1e-8) -> SplitReport:
    """verify_pos(pair), refused with UsageError unless its relative residual
    is at most tol (a NaN residual is refused)."""
    report = verify_pos(pair)
    if not report.relative <= tol:
        raise UsageError(
            f"split pair fails verification with relative residual {report.relative:.3e}")
    return report
