"""Orthonormality and evaluation tests for the basis families."""

import numpy as np
import pytest
from scipy.integrate import quad

from ballspec.basis import (
    BallPoint,
    BasisKind,
    BasisSpec,
    InnerProductKind,
    PolarPoint,
    UsageError,
    angular_dft,
    angular_grid,
    ball_basis_eval,
    ball_radial,
    ex1_basis_eval,
    ex1_radial,
    inner_product,
    wfunc_eval,
    wfunc_radial,
    zernike_eval,
    zernike_radial,
)
from ballspec.jacobi import ParameterError


def radial_gram(profile, n_max, weight=None):
    """Gram matrix int_0^1 profile_m profile_n [w(r)] dr by adaptive quadrature."""
    g = np.empty((n_max + 1, n_max + 1))
    for i in range(n_max + 1):
        for j in range(i + 1):
            def integrand(r):
                val = profile(i, r) * profile(j, r)
                return val * (weight(r) if weight else 1.0)
            g[i, j] = g[j, i] = quad(integrand, 0.0, 1.0, limit=200)[0]
    return g


def test_wfunc_radial_orthonormal_cartesian():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=0)
    # full disc-basis norm: 2*pi angular factor included in the radial scale
    g = 2.0 * np.pi * radial_gram(lambda n, r: wfunc_radial(spec, n, r), 6)
    assert np.max(np.abs(g - np.eye(7))) < 1e-10


def test_wfunc_radial_orthonormal_beta_zero():
    spec = BasisSpec(alpha=2.0, beta=0.0, d=2, N=5, K=0)
    g = 2.0 * np.pi * radial_gram(lambda n, r: wfunc_radial(spec, n, r), 5)
    assert np.max(np.abs(g - np.eye(6))) < 1e-10


def test_wfunc_vanishes_on_boundary_and_origin():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=4, K=2)
    for n in range(5):
        assert wfunc_eval(spec, n, 1, PolarPoint(1.0, 0.3)) == 0.0
        assert wfunc_eval(spec, n, 1, PolarPoint(0.0, 0.3)) == 0.0


def test_wfunc_eval_angular_phase():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=2, K=3)
    p = PolarPoint(0.37, 1.1)
    base = wfunc_eval(spec, 2, 0, p)
    for m in (-2, 1, 3):
        assert wfunc_eval(spec, 2, m, p) == pytest.approx(
            base * np.exp(1j * m * p.theta), rel=1e-13)


def test_ball_basis_orthonormal_d3():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=3, K=2)

    def field(n, mvec):
        def f(r, t1, t2):
            from ballspec.basis import ball_phase
            return ball_radial(spec, n, r) * ball_phase(np.array(mvec), [t1, t2])
        return f

    f_a = field(2, (1, 2))
    f_b = field(1, (1, 2))
    f_c = field(2, (0, 2))
    norm = inner_product(f_a, f_a, InnerProductKind.CARTESIAN, d=3, resolution=32)
    assert norm.real == pytest.approx(1.0, abs=1e-10)
    assert abs(inner_product(f_a, f_b, d=3, resolution=32)) < 1e-10
    assert abs(inner_product(f_a, f_c, d=3, resolution=32)) < 1e-10


def test_ball_basis_reduces_to_disc_for_d2():
    spec2 = BasisSpec(alpha=2.0, beta=2.0, d=2, N=4, K=2)
    r = np.linspace(0.0, 1.0, 20)
    for n in range(5):
        assert np.allclose(ball_radial(spec2, n, r), wfunc_radial(spec2, n, r),
                           atol=1e-13)


def test_ball_basis_eval_checks_angular_arity():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=2, K=2)
    with pytest.raises(UsageError):
        ball_basis_eval(spec, 0, (1,), BallPoint(0.5, (0.1, 0.2)))


def test_ex1_family_orthonormal_polar():
    g = radial_gram(lambda n, r: ex1_radial(n, 2.0, r), 5, weight=lambda r: r)
    assert np.max(np.abs(g - np.eye(6))) < 1e-10


def test_ex1_eval_includes_fourier_normalisation():
    p = PolarPoint(0.4, -0.7)
    v = ex1_basis_eval(3, 2, p, 2.0)
    assert v == pytest.approx((2 * np.pi) ** -0.5 * ex1_radial(3, 2.0, p.r)
                              * np.exp(2j * p.theta), rel=1e-13)


def test_zernike_radial_orthonormal_polar():
    g = 2.0 * np.pi * radial_gram(zernike_radial, 4, weight=lambda r: r)
    assert np.max(np.abs(g - np.eye(5))) < 1e-10


def test_zernike_does_not_vanish_at_origin():
    assert abs(zernike_eval(0, 0, PolarPoint(0.0, 0.0))) > 0.1


def test_spec_validation():
    with pytest.raises(UsageError):
        BasisSpec(alpha=2.0, beta=2.0, d=1, N=2, K=2)
    with pytest.raises(UsageError):
        BasisSpec(alpha=-2.0, beta=0.0, d=2, N=2, K=2)
    with pytest.raises(UsageError):
        BasisSpec(alpha=2.0, beta=1.0, d=3, N=2, K=2)
    with pytest.raises(UsageError):
        BasisSpec(alpha=1.0, beta=1.0, kind=BasisKind.EX1_WEIGHTED)
    assert BasisSpec(alpha=2.0, beta=2.0).skew_certified
    assert not BasisSpec(alpha=2.0, beta=0.0).skew_certified


def test_inner_product_polar_vs_cartesian():
    f = lambda r, th: (1.0 - np.asarray(r)) * np.ones_like(np.asarray(th))
    box = inner_product(f, f, InnerProductKind.CARTESIAN).real
    disc = inner_product(f, f, InnerProductKind.POLAR).real
    assert box == pytest.approx(2.0 * np.pi / 3.0, rel=1e-12)
    assert disc == pytest.approx(2.0 * np.pi / 12.0, rel=1e-12)


@pytest.mark.parametrize("family", ["wfunc", "ball", "ex1"])
def test_degree_sequence_rows_equal_single_degree_calls(family):
    r = np.concatenate([[0.0, 1.0], np.sin(0.5 * np.pi * np.arange(1, 64) / 64) ** 2])
    n_max = 128 if family != "ex1" else 40
    if family == "wfunc":
        spec = BasisSpec(alpha=2.0, beta=0.5, d=2)
        radial = lambda n, x: wfunc_radial(spec, n, x)
    elif family == "ball":
        spec = BasisSpec(alpha=2.0, beta=2.0, d=3)
        radial = lambda n, x: ball_radial(spec, n, x)
    else:
        radial = lambda n, x: ex1_radial(n, 2.5, x)
    rows = radial(range(n_max + 1), r)
    assert rows.shape == (n_max + 1, r.size)
    for n in range(n_max + 1):
        assert np.array_equal(rows[n], radial(n, r))
    # any order and repeats, and scalar radii
    picked = [7, 0, 7, 3]
    assert np.array_equal(radial(picked, r), rows[picked])
    assert np.array_equal(radial(picked, 0.3), [radial(n, 0.3) for n in picked])
    for bad in (2.5, [], [1, -1]):
        with pytest.raises(ParameterError):
            radial(bad, r)


def test_angular_dft_d4_keys_and_direct_sums():
    k, n = 2, 7
    rng = np.random.default_rng(4)
    values = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    t1, t2, t3 = np.meshgrid(*angular_grid(4, n), indexing="ij")
    for mean, weight in ((False, 2.0 * np.pi ** 3 / n ** 3), (True, 1.0 / n ** 3)):
        coef = angular_dft(values, 4, k, mean=mean)
        assert len(coef) == (2 * k + 1) ** 3
        assert all(isinstance(mode, tuple) and len(mode) == 3 for mode in coef)
        for mode, got in coef.items():
            phase = np.exp(-1j * (mode[0] * t1 + 2.0 * mode[1] * t2 + 2.0 * mode[2] * t3))
            want = weight * np.sum(values * phase, axis=(1, 2, 3))
            assert np.max(np.abs(got - want)) < 1e-12
