"""Tests for the differentiation matrices and asymmetry closed forms."""

from math import lgamma

import numpy as np
import pytest
from scipy.integrate import quad

from ballspec.basis import BasisSpec, UsageError, ex1_radial, wfunc_radial
from ballspec.jacobi import ParameterError
from ballspec.diffmat import (
    RADIAL_SCALE,
    ABCoeffs,
    ab_coeffs,
    asymmetry_S_ex1,
    asymmetry_beta0,
    build_Dr,
    build_Dr_quad,
    build_Dtheta,
    build_diff_ops,
    compound_angular,
    compound_radial,
    ex1_Dr_quad,
    ex1_S_quad,
)


def ab_coeffs_closed(m_max: int, alpha: float) -> ABCoeffs:
    """The closed forms in ab_coeffs' docstring, in log-gamma arithmetic."""
    m = np.arange(m_max + 1, dtype=float)
    lg_fact = np.array([lgamma(k + 1.0) for k in m])
    lg_shift = np.array([lgamma(k + 1.0 + 2.0 * alpha) for k in m])
    a = np.exp(0.5 * (lg_fact + np.log(2.0 * m + 2.0 * alpha + 1.0) - np.log(2.0) - lg_shift))
    b = np.exp(0.5 * (np.log(2.0 * m + 1.0 + 2.0 * alpha) + lg_shift - np.log(2.0) - lg_fact))
    return ABCoeffs(a=a, b=b, alpha=alpha)


def test_ab_recursion_matches_closed_form():
    for alpha in (1.0, 2.0, 3.5):
        rec = ab_coeffs(30, alpha)
        closed = ab_coeffs_closed(30, alpha)
        assert np.max(np.abs(rec.a - closed.a) / np.abs(closed.a)) < 1e-12
        assert np.max(np.abs(rec.b - closed.b) / np.abs(closed.b)) < 1e-12


def test_ab_coeffs_refuses_sequences_that_leave_the_double_range():
    # b_m grows like m^alpha: at alpha = 84 it passes 1.8e308 before m = 20000
    with pytest.raises(ParameterError, match="alpha = 84.0 with m_max = 20000 .* b_m overflows"):
        ab_coeffs(20000, 84.0)


def test_ab_coeffs_near_the_range_limit_matches_closed_form():
    rec = ab_coeffs(2000, 84.0)
    closed = ab_coeffs_closed(2000, 84.0)
    assert np.all(np.isfinite(rec.b)) and rec.b[-1] > 1e280
    assert np.max(np.abs(rec.a - closed.a) / closed.a) < 1e-10
    assert np.max(np.abs(rec.b - closed.b) / closed.b) < 1e-10


def test_build_Dr_exact_skew_symmetry():
    d = build_Dr(40, 2.0).to_dense()
    assert np.max(np.abs(d + d.T)) == 0.0


def test_build_Dr_checkerboard_sparsity():
    d = build_Dr(10, 2.0).to_dense()
    for i in range(11):
        for j in range(11):
            if (i + j) % 2 == 0:
                assert d[i, j] == 0.0


def test_build_Dr_matches_quadrature_oracle():
    for alpha in (1.0, 2.0, 3.0):
        d = build_Dr(16, alpha).to_dense()
        dq = build_Dr_quad(16, alpha)
        assert np.max(np.abs(d - dq)) < 1e-10


def test_first_entry_closed_form():
    # entry (1, 0) is a_1 * b_0 = sqrt(7)/2 for alpha = 2
    d = build_Dr(4, 2.0).to_dense()
    assert d[1, 0] == pytest.approx(np.sqrt(7.0) / 2.0, rel=1e-13)


def test_radial_scale_chain_rule():
    """The matrix acts in the x = 2r - 1 variable; d/dr costs a factor 2.

    Check the Galerkin entries directly: 2 pi * int_0^1 (d phi_n / dr) phi_k dr
    must equal RADIAL_SCALE times the x-domain matrix entry.
    """
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=0)
    d = build_Dr(6, 2.0).to_dense()
    h = 1e-6
    for n in (1, 2, 5):
        for k in (0, 3, 4):
            def integrand(r):
                dphi = (wfunc_radial(spec, n, r + h)
                        - wfunc_radial(spec, n, r - h)) / (2 * h)
                return float(dphi * wfunc_radial(spec, k, r))
            entry = 2.0 * np.pi * quad(integrand, h, 1.0 - h, limit=200)[0]
            assert entry == pytest.approx(RADIAL_SCALE * d[n, k], abs=1e-6)


def test_build_Dtheta_diagonal_action():
    dt = build_Dtheta(3)
    assert sorted(dt) == list(range(-3, 4))
    for m, v in dt.items():
        assert v == 1j * m


def test_build_diff_ops_refuses_non_skew_family():
    with pytest.raises(UsageError):
        build_diff_ops(BasisSpec(alpha=2.0, beta=0.0, d=2, N=4, K=2))


def test_ex1_overlap_closed_form_vs_quadrature():
    s_closed = asymmetry_S_ex1(8, 2.0)
    s_quad = ex1_S_quad(8, 2.0)
    assert s_closed[0, 0] == 4.0
    assert np.max(np.abs(s_closed - s_quad)) < 1e-10


def test_ex1_asymmetry_is_minus_overlap():
    d = ex1_Dr_quad(8, 2.0)
    s = asymmetry_S_ex1(8, 2.0)
    assert np.max(np.abs(d + d.T + s)) < 1e-10


def test_beta0_asymmetry_closed_form():
    d = RADIAL_SCALE * build_Dr_quad(10, 2.0, 0.0)
    asym = d + d.T
    for n in range(11):
        for m in range(11):
            # boundary term enters with a minus sign relative to the
            # published magnitude convention
            assert asym[n, m] == pytest.approx(-asymmetry_beta0(n, m, 2.0), abs=1e-10)


def test_beta0_asymmetry_endpoint_oracle():
    """The asymmetry equals the boundary flux -phi_n(0) phi_m(0) + flux at 1."""
    spec = BasisSpec(alpha=2.0, beta=0.0, d=2, N=6, K=0)
    scale = np.sqrt(2.0 * np.pi)  # wfunc_radial carries the angular factor

    def phi0(n):
        # limit of the radial profile at r = 0 (beta = 0: no vanishing factor)
        return scale * float(wfunc_radial(spec, n, 0.0))

    d = RADIAL_SCALE * build_Dr_quad(6, 2.0, 0.0)
    for n in range(7):
        for m in range(7):
            assert (d + d.T)[n, m] == pytest.approx(-phi0(n) * phi0(m), abs=1e-10)


def test_compound_radial_scalar():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=2)
    ops = build_diff_ops(spec)
    s = 1.0 / np.sqrt(2.0 * np.pi / 3.0)
    h = lambda r, th: s * (1.0 - np.asarray(r, dtype=float)) * np.ones_like(np.asarray(th, dtype=float))
    dh = lambda r, th: -s * np.ones(np.broadcast(np.asarray(r), np.asarray(th)).shape)
    comp = compound_radial(ops, h, dh)
    assert comp.d_scalar.real == pytest.approx(-1.5, abs=1e-10)
    # the real part is -(1/2) * int |h(0, theta)|^2 dtheta by the boundary identity
    circ = quad(lambda t: abs(s) ** 2, -np.pi, np.pi)[0]
    assert comp.d_scalar.real == pytest.approx(-0.5 * circ, abs=1e-10)


def test_compound_radial_rejects_unnormalised_direction():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=4, K=1)
    ops = build_diff_ops(spec)
    h = lambda r, th: (1.0 - np.asarray(r, dtype=float)) * np.ones_like(np.asarray(th, dtype=float))
    dh = lambda r, th: -np.ones(np.broadcast(np.asarray(r), np.asarray(th)).shape)
    with pytest.raises(UsageError):
        compound_radial(ops, h, dh)


def test_compound_angular_scalar():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=4, K=3)
    ops = build_diff_ops(spec)
    assert compound_angular(ops, 2).d_scalar == 2j
