"""Orthonormality and evaluation tests for the basis families."""

import numpy as np
import pytest
from scipy.integrate import quad

from ballspec.basis import (
    BasisKind,
    BasisSpec,
    UsageError,
    angular_dft,
    angular_grid,
    angular_modes,
    ball_phase,
    ball_radial,
    cell_measures,
    ex1_radial,
    inner_product,
    wfunc_radial,
    zernike_radial,
)
from ballspec.expand import CoeffTensor, synthesize
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
    for spec, mode, theta in ((BasisSpec(alpha=2.0, beta=2.0, d=2, N=4, K=2), 1, 0.3),
                              (BasisSpec(alpha=2.0, beta=2.0, d=3, N=4, K=2), (1, -2), [0.3, 1.2])):
        vals = wfunc_radial(spec, range(5), [0.0, 1.0]) * ball_phase(mode, theta)
        assert vals.shape == (5, 2)
        assert np.all(vals == 0.0)


def test_wfunc_eval_angular_phase():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=2, K=3)
    r, theta = 0.37, 1.1
    base = wfunc_radial(spec, 2, r) * ball_phase(0, theta)
    for m in (-2, 1, 3):
        assert wfunc_radial(spec, 2, r) * ball_phase(m, theta) == pytest.approx(
            base * np.exp(1j * m * theta), rel=1e-13)
    # an angle array gives the phase at every angle (d=2), and the ball phase
    # weights every angle after the first by 2
    th = np.linspace(-np.pi, np.pi, 9)
    assert np.array_equal(ball_phase(3, th), np.exp(1j * (3 * th)))
    t1, t2 = np.meshgrid(th, th[:4] + np.pi, indexing="ij")
    assert np.allclose(ball_phase((2, -1), [t1, t2]), np.exp(1j * (2 * t1 - 2.0 * t2)),
                       rtol=0.0, atol=1e-15)


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
    norm = inner_product(f_a, f_a, d=3, resolution=32)
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
    with pytest.raises(UsageError, match="need 2 angular indices, got 1"):
        ball_phase((1,), [0.1, 0.2])
    with pytest.raises(UsageError, match="need 1 angular indices, got 2"):
        ball_phase((1, 2), 0.1)
    # synthesis of d=3 coefficients at points with one angle
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=2, K=2)
    coeffs = CoeffTensor(fhat=np.ones((3, 5, 5), dtype=complex), fcirc={}, spec=spec)
    with pytest.raises(UsageError, match="angular indices"):
        synthesize(coeffs, 0.5, 0.1)
    assert np.isfinite(synthesize(coeffs, 0.5, 0.1, 0.2))


def test_ex1_family_orthonormal_polar():
    g = radial_gram(lambda n, r: ex1_radial(n, 2.0, r), 5, weight=lambda r: r)
    assert np.max(np.abs(g - np.eye(6))) < 1e-10


def test_ex1_eval_includes_fourier_normalisation():
    # synthesis of the unit coefficient (n, m) = (3, 2) of the polar family
    spec = BasisSpec(alpha=2.0, beta=1.0, d=2, N=3, K=2, kind=BasisKind.EX1_WEIGHTED)
    fhat = np.zeros((4, 5), dtype=complex)
    fhat[3, 2 + 2] = 1.0
    r, theta = 0.4, -0.7
    v = synthesize(CoeffTensor(fhat=fhat, fcirc={}, spec=spec), r, theta)
    assert v == pytest.approx((2 * np.pi) ** -0.5 * ex1_radial(3, 2.0, r)
                              * np.exp(2j * theta), rel=1e-13)


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, np.inf])
def test_radial_factors_refuse_radii_outside_the_unit_interval(bad):
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=1, K=0)
    with pytest.raises(UsageError, match="outside \\[0, 1\\]"):
        wfunc_radial(spec, [0, 1], bad)
    with pytest.raises(UsageError, match="outside \\[0, 1\\]"):
        wfunc_radial(spec, [0, 1], [0.0, 0.5, bad, 1.0])
    with pytest.raises(UsageError, match="outside \\[0, 1\\]"):
        ex1_radial([0, 1], 2.0, bad)
    # synthesis evaluates the radial factors, so it refuses the radius too
    coeffs = CoeffTensor(fhat=np.ones((2, 1), dtype=complex), fcirc={}, spec=spec)
    with pytest.raises(UsageError, match="outside \\[0, 1\\]"):
        synthesize(coeffs, np.array([0.2, bad]), np.zeros(2))
    # the closed interval is accepted
    assert wfunc_radial(spec, [0, 1], [0.0, 1.0]).shape == (2, 2)
    assert ex1_radial([0, 1], 2.0, [0.0, 1.0]).shape == (2, 2)


def test_zernike_radial_orthonormal_polar():
    g = 2.0 * np.pi * radial_gram(zernike_radial, 4, weight=lambda r: r)
    assert np.max(np.abs(g - np.eye(5))) < 1e-10


def test_zernike_does_not_vanish_at_origin():
    assert abs(zernike_radial(0, 0.0)) > 0.1


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


def test_inner_product_box_measure():
    f = lambda r, th: (1.0 - np.asarray(r)) * np.ones_like(np.asarray(th))
    box = inner_product(f, f).real
    assert box == pytest.approx(2.0 * np.pi / 3.0, rel=1e-12)


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


def per_mode_angular_dft(values, d, k_max, mean=False):
    """angular_dft with one tuple index per mode (the reference for the gather)."""
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


@pytest.mark.parametrize("d, shape, k_max", [(2, (5, 16), 5), (2, (16,), 7), (3, (3, 12, 12), 4),
                                             (3, (12, 12), 5), (3, (2, 16, 9), 4)],
                         ids=["d2", "d2-angles-only", "d3", "d3-angles-only", "d3-oblong"])
def test_angular_dft_gather_equals_per_mode_indexing(d, shape, k_max):
    rng = np.random.default_rng(len(shape) + k_max)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mean in (False, True):
        got = angular_dft(values, d, k_max, mean=mean)
        want = per_mode_angular_dft(values, d, k_max, mean=mean)
        assert list(got) == list(want) == angular_modes(d, k_max)
        for mode in want:
            assert got[mode].shape == want[mode].shape
            assert np.array_equal(got[mode], want[mode])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_exponents_are_refused(bad):
    for kind in BasisKind:
        with pytest.raises(UsageError, match="finite"):
            BasisSpec(bad, bad, kind=kind)
        with pytest.raises(UsageError, match="finite"):
            BasisSpec(2.0, bad, kind=kind)
    with pytest.raises(ParameterError, match="finite"):
        ex1_radial(3, bad, 0.5)
