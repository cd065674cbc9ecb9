"""Tests for the Jacobi polynomial and Gauss-Jacobi quadrature layer."""

import numpy as np
import pytest
from scipy.special import eval_jacobi, gamma, roots_jacobi

from ballspec.jacobi import (
    JacobiParams,
    ParameterError,
    gauss_jacobi,
    gauss_jacobi_01,
    jacobi_eval,
    norm_h,
    orthonormal_all,
    orthonormal_deriv_all,
)


def scipy_norm_h(n, a, b):
    return (2.0 ** (a + b + 1) / (2 * n + a + b + 1)) \
        * gamma(n + a + 1) * gamma(n + b + 1) / (gamma(n + a + b + 1) * gamma(n + 1))


def test_jacobi_eval_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=40)
    for a, b in [(2.0, 2.0), (2.0, 0.0), (1.0, 1.0), (2.5, 0.5)]:
        params = JacobiParams(a, b)
        for n in range(12):
            ref = eval_jacobi(n, a, b, x)
            got = jacobi_eval(n, params, x)
            assert np.max(np.abs(got - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_norm_h_matches_gamma_formula():
    for a, b in [(2.0, 2.0), (2.0, 0.0), (1.0, 1.0), (3.5, 1.5)]:
        params = JacobiParams(a, b)
        for n in range(20):
            assert norm_h(n, params) == pytest.approx(scipy_norm_h(n, a, b), rel=1e-12)


def test_orthonormal_family_is_orthonormal_under_quadrature():
    params = JacobiParams(2.0, 2.0)
    rule = gauss_jacobi(30, params)
    vals = orthonormal_all(12, params, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


def test_orthonormal_eval_consistent_with_all():
    params = JacobiParams(1.0, 1.0)
    x = np.linspace(-0.99, 0.99, 17)
    table = orthonormal_all(8, params, x)
    for n in range(9):
        single = jacobi_eval(n, params, x) / np.sqrt(norm_h(n, params))
        assert np.allclose(table[n], single, atol=1e-13)


def test_orthonormal_deriv_by_finite_differences():
    params = JacobiParams(2.0, 2.0)
    x = np.linspace(-0.9, 0.9, 25)
    h = 1e-6
    dvals = orthonormal_deriv_all(8, params, x)
    fd = (orthonormal_all(8, params, x + h) - orthonormal_all(8, params, x - h)) / (2 * h)
    assert np.max(np.abs(dvals - fd)) < 1e-5


def test_gauss_jacobi_weight_sum_and_polynomial_exactness():
    for a, b in [(2.0, 2.0), (1.0, 0.0), (0.5, 1.5)]:
        rule = gauss_jacobi(12, JacobiParams(a, b))
        total = 2.0 ** (a + b + 1) * gamma(a + 1) * gamma(b + 1) / gamma(a + b + 2)
        assert np.sum(rule.weights) == pytest.approx(total, rel=1e-13)
        # exact for x^k up to degree 2*12 - 1
        for k in (3, 11, 23):
            ref = np.polynomial.polynomial.polyval(rule.nodes, [0] * k + [1])
            got = np.dot(rule.weights, ref)
            fine = gauss_jacobi(40, JacobiParams(a, b))
            chk = np.dot(fine.weights, fine.nodes ** k)
            assert got == pytest.approx(chk, abs=1e-12 * total)


def test_gauss_jacobi_01_maps_unit_interval():
    r, w = gauss_jacobi_01(16, 1.0, 1.0)
    assert np.all((r > 0.0) & (r < 1.0))
    # integral of r(1-r) * 1 over [0,1] = beta(2,2) = 1/6
    assert np.sum(w) == pytest.approx(1.0 / 6.0, rel=1e-13)
    # against a smooth integrand: int r(1-r) e^r dr
    from scipy.integrate import quad
    ref = quad(lambda t: t * (1 - t) * np.exp(t), 0, 1)[0]
    assert np.dot(w, np.exp(r)) == pytest.approx(ref, rel=1e-13)


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        JacobiParams(-1.5, 0.0)
    with pytest.raises(ParameterError):
        gauss_jacobi(0, JacobiParams(1.0, 1.0))


@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (-0.3, -0.7)])
def test_gauss_jacobi_with_alpha_plus_beta_minus_one(a, b):
    # the monic recurrence is 0/0 at k = 1 here; the limit must be taken
    assert a + b == -1.0
    for n in (2, 5, 24):
        rule = gauss_jacobi(n, JacobiParams(a, b))
        with np.errstate(invalid="ignore"):   # scipy's own k = 1 term is 0/0 too
            x, w = roots_jacobi(n, a, b)
        assert np.max(np.abs(rule.nodes - x)) < 1e-14
        assert np.max(np.abs(rule.weights - w) / w) < 1e-11


@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (-0.3, -0.7)])
def test_orthonormal_family_with_alpha_plus_beta_minus_one(a, b):
    # h_0 is the weight mass; the log-gamma form is 0 * inf at a + b = -1
    params = JacobiParams(a, b)
    rule = gauss_jacobi(8, params)
    vals = orthonormal_all(7, params, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12
    mass = 2.0 ** (a + b + 1) * gamma(a + 1) * gamma(b + 1) / gamma(a + b + 2)
    assert norm_h(0, params) == pytest.approx(mass, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_exponents_are_refused(bad):
    # every exponent guard is a comparison, which NaN passes
    for a, b in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ParameterError, match="finite"):
            JacobiParams(a, b)
        with pytest.raises(ParameterError, match="finite"):
            gauss_jacobi_01(5, a, b)
