"""Property tests of the shared analysis and synthesis cores.

Each family is analysed by the same core, so one basis function must come
back as its unit indicator and synthesize back to itself, whatever the
family, truncation and exponent.  The exponents are even integers: then the
Gauss-Jacobi rule sees a polynomial and analysis is exact to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballspec.basis import BasisSpec, UsageError, ball_phase, ball_radial, ex1_radial, wfunc_radial
from ballspec.diffmat import build_Dr
from ballspec.expand import (
    analyze,
    analyze_disc,
    analyze_polar_weighted,
    standard_grid,
    synthesize,
)
from ballspec.semisep import SemiSep2
from ballspec.split import make_pos, raw_pair, verify_pos

even = st.sampled_from([2.0, 4.0, 6.0, 8.0])
PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def truncation_and_index(draw, d):
    """(N, K, n, mode) with N <= 12, K <= 4 and the index inside the truncation."""
    N = draw(st.integers(0, 12))
    K = draw(st.integers(0, 4))
    n = draw(st.integers(0, N))
    mode = tuple(draw(st.integers(-K, K)) for _ in range(d - 1))
    return N, K, n, mode


def check_round_trip(coeffs, field, n, mode, d):
    K = coeffs.spec.K
    expected = np.zeros_like(coeffs.fhat)
    expected[(n,) + tuple(k + K for k in mode)] = 1.0
    assert np.max(np.abs(coeffs.fhat - expected)) < 1e-10
    mesh = np.meshgrid(*standard_grid(7, d), indexing="ij")
    assert np.max(np.abs(synthesize(coeffs, *mesh) - field(*mesh))) < 1e-10


@PROPERTY
@given(alpha=even, beta=even, index=truncation_and_index(2))
def test_disc_basis_function_round_trip(alpha, beta, index):
    N, K, n, mode = index
    spec = BasisSpec(alpha=alpha, beta=beta, d=2, N=N, K=K)
    field = lambda r, t: wfunc_radial(spec, n, r) * ball_phase(mode, [t])
    check_round_trip(analyze_disc(raw_pair(field), spec, check=False), field, n, mode, 2)


@PROPERTY
@given(alpha=even, d_index=st.sampled_from([3, 4]).flatmap(
    lambda d: st.tuples(st.just(d), truncation_and_index(d))))
def test_ball_basis_function_round_trip(alpha, d_index):
    d, (N, K, n, mode) = d_index
    spec = BasisSpec(alpha=alpha, beta=alpha, d=d, N=N, K=K)
    field = lambda r, *thetas: ball_radial(spec, n, r) * ball_phase(mode, list(thetas))
    check_round_trip(analyze(raw_pair(field, d=d), spec, check=False), field, n, mode, d)


@PROPERTY
@given(alpha=even, index=truncation_and_index(2))
def test_polar_basis_function_round_trip(alpha, index):
    N, K, n, mode = index
    field = lambda r, t: (2.0 * np.pi) ** -0.5 * ex1_radial(n, alpha, r) * ball_phase(mode, [t])
    check_round_trip(analyze_polar_weighted(field, N, K, alpha), field, n, mode, 2)


@settings(deadline=None)
@given(d=st.integers(-3, 1))
def test_splitting_refuses_other_dimensions(d):
    def field(*args):
        raise AssertionError("the field must not be sampled")
    with pytest.raises(UsageError, match="d >= 2"):
        make_pos(field, d=d)
    with pytest.raises(UsageError, match="d >= 2"):
        verify_pos(raw_pair(field, d=d))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), rank=st.sampled_from([1, 2]),
       masked=st.booleans(), complex_x=st.booleans())
def test_semisep_matvec_equals_dense_matvec(seed, size, rank, masked, complex_x):
    rng = np.random.default_rng(seed)
    rank = 1 if masked else rank  # masked instances carry rank-1 generators
    gen = lambda: rng.standard_normal((rank, size))
    a = SemiSep2(size=size, p=gen(), q=gen(), u=gen(), v=gen(),
                 diag=rng.standard_normal(size), parity_mask=masked)
    x = rng.standard_normal(size) + (1j * rng.standard_normal(size) if complex_x else 0.0)
    dense = a.to_dense()
    bound = 1e-13 * (1.0 + np.abs(dense) @ np.abs(x))
    assert np.all(np.abs(a.matvec(x) - dense @ x) <= bound)


@PROPERTY
@given(n=st.integers(0, 200),
       alpha=st.floats(0.0, 84.0, exclude_min=True, allow_subnormal=False))
def test_radial_differentiation_is_exactly_skew_with_checkerboard(n, alpha):
    dense = build_Dr(n, alpha).to_dense()
    assert np.all(dense + dense.T == 0.0)
    i, j = np.indices(dense.shape)
    assert np.all(dense[(i + j) % 2 == 0] == 0.0)
