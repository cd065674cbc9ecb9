"""Property tests of the shared analysis and synthesis cores.

Each family is analysed by the same core, so one basis function must come
back as its unit indicator and synthesize back to itself, whatever the
family, truncation and exponent.  The exponents are even integers: then the
Gauss-Jacobi rule sees a polynomial and analysis is exact to rounding.  The
split obeys Parseval and commutes with rotations in the first angle, the
radial matrix keeps its structure, the one-core flow equals the dense
exponential of every mode's block, and on random non-normal rank-2 matrices
the contour exponential equals the dense one while every batched shifted
solve is certified or refused.
"""

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from ballspec.basis import (BasisSpec, UsageError, ball_phase, ball_radial,
                            ex1_radial, inner_product, wfunc_radial)
from ballspec.diffmat import build_diff_ops, build_Dr
from ballspec.expand import (
    analyze,
    analyze_disc,
    analyze_polar_weighted,
    standard_grid,
    synthesize,
)
from ballspec.pde import PdeKind, assemble, propagate
from ballspec.jacobi import BallspecError
from ballspec.semisep import SemiSep2, contour_apply, schur_form, solve_shifted
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


def non_normal_semisep(seed, size, norm):
    """A random unmasked rank-2 SemiSep2 scaled to spectral norm ``norm``, and a rng."""
    rng = np.random.default_rng(seed)
    gen = lambda: rng.standard_normal((2, size))
    a = SemiSep2(size=size, p=gen(), q=gen(), u=gen(), v=gen(), diag=rng.standard_normal(size))
    s = norm / np.linalg.norm(a.to_dense(), 2)
    return SemiSep2(size=size, p=a.p * s, q=a.q, u=a.u * s, v=a.v, diag=a.diag * s), rng


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 24), norm=st.floats(0.01, 4.0))
def test_contour_exponential_equals_dense_expm(seed, size, norm):
    a, rng = non_normal_semisep(seed, size, norm)
    v = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    ref = scipy.linalg.expm(a.to_dense()) @ v
    # relative to the result where it exceeds 1: e^A v reaches e^4 |v|
    assert np.max(np.abs(contour_apply(np.exp, a, v) - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 24), norm=st.floats(0.01, 4.0),
       shifts=st.lists(st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                                          allow_infinity=False), min_size=1, max_size=12))
def test_batched_shifted_solve_is_certified_or_refused(seed, size, norm, shifts):
    a, rng = non_normal_semisep(seed, size, norm)
    dense, lams = a.to_dense(), np.array(shifts, dtype=complex)
    # off the spectrum: no shift on an eigenvalue
    assume(np.min(np.abs(lams[:, None] - np.linalg.eigvals(dense))) > 1e-6)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    try:
        x = solve_shifted(schur_form(a), lams, b)
    except BallspecError:
        return
    assert x.shape == (size, lams.size)
    res = np.linalg.norm(x * lams - dense @ x - b[:, None], axis=0)
    assert np.all(res <= 1e-10 * np.linalg.norm(b))


@PROPERTY
@given(n=st.integers(0, 200),
       alpha=st.floats(0.0, 84.0, exclude_min=True, allow_subnormal=False))
def test_radial_differentiation_is_exactly_skew_with_checkerboard(n, alpha):
    dense = build_Dr(n, alpha).to_dense()
    assert np.all(dense + dense.T == 0.0)
    i, j = np.indices(dense.shape)
    assert np.all(dense[(i + j) % 2 == 0] == 0.0)


@PROPERTY
@given(N=st.integers(2, 24), K=st.integers(0, 4), kind=st.sampled_from(list(PdeKind)),
       t=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_propagate_equals_per_mode_dense_expm(N, K, kind, t, seed):
    """The shared-core flow equals expm(s t L_m) of each dense block, s = 1
    (diffusion, t >= 0) or i (Schrodinger, either sign of t)."""
    s = 1j if kind is PdeKind.SCHRODINGER else 1.0
    t = t if kind is PdeKind.SCHRODINGER else abs(t)
    op = assemble(kind, build_diff_ops(BasisSpec(alpha=2.0, beta=2.0, d=2, N=N, K=K)), -1.5)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
    v /= np.linalg.norm(v)
    rows = v.reshape(2 * K + 1, N + 2)
    dense = np.concatenate([scipy.linalg.expm(s * t * op.block(m)) @ row
                            for m, row in zip(op.modes, rows)])
    # both flows are contractions, so the norm of v bounds either result
    assert np.linalg.norm(propagate(op, v, t) - dense) <= 1e-9


def box_norm2(f, d=2):
    return inner_product(f, f, resolution=64, d=d).real


@PROPERTY
@given(scale=st.floats(1e-3, 1e3), N=st.integers(2, 8))
def test_split_and_expansion_obey_parseval(scale, N):
    """||f||^2 = ||f0||^2 + ||f1||^2, and the coefficients of f1 hold at most
    ||f1||^2, on the standard field scaled by s."""
    f = lambda r, th: scale * (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (np.asarray(th) + 0.5))
    pair = make_pos(f)
    f_norm2, f1_norm2 = box_norm2(f), box_norm2(pair.f1)
    assert abs(f_norm2 - box_norm2(pair.f0) - f1_norm2) <= 1e-12 * f_norm2
    fhat = analyze_disc(pair, BasisSpec(alpha=2.0, beta=2.0, d=2, N=N, K=5)).fhat
    assert f1_norm2 - np.sum(np.abs(fhat) ** 2) >= -1e-12 * f_norm2


def rotation_field(d):
    """A band-limited field with modes -3..3 in the first angle (and a second
    angle in d=3) whose origin values all count."""
    def f(r, *thetas):
        r, t1 = np.asarray(r), np.asarray(thetas[0])
        arg = sum(np.exp((0.3 * m - 1.0) * r + 1j * m * (t1 + 0.2 * m)) for m in range(-3, 4))
        for t in thetas[1:]:
            arg = arg * np.exp(2j * np.asarray(t))
        return (1.0 - r) * arg
    return f


@settings(max_examples=10, deadline=None)
@given(phi=st.floats(-np.pi, np.pi), d=st.sampled_from([2, 3]))
def test_make_pos_is_rotation_equivariant(phi, d):
    """theta_1 -> theta_1 + phi maps g_m to g_m e^(i m_1 phi) and keeps c."""
    f = rotation_field(d)
    rotated = lambda r, t1, *rest: f(r, np.asarray(t1) + phi, *rest)
    kw = dict(d=d, k_max=4)
    pair, turned = make_pos(f, **kw), make_pos(rotated, **kw)
    assert list(turned.origin_coeffs) == list(pair.origin_coeffs)
    assert len(pair.origin_coeffs) == 7
    for mode, g in pair.origin_coeffs.items():
        m1 = np.atleast_1d(mode)[0]
        assert abs(turned.origin_coeffs[mode] - g * np.exp(1j * m1 * phi)) <= 1e-12 * abs(g)
        assert abs(turned.c[mode] - pair.c[mode]) <= 1e-12 * abs(pair.c[mode])


@functools.lru_cache(maxsize=None)
def split_and_coefficients(d):
    pair = make_pos(rotation_field(d), d=d, k_max=4)
    return pair, analyze(pair, BasisSpec(2.0, 2.0, d=d, N=8, K=4), check=False)


@PROPERTY
@given(d=st.sampled_from([2, 3]), data=st.data())
def test_open_mesh_equals_full_mesh(d, data):
    """synthesize and f0 on np.meshgrid(..., sparse=True) equal the same
    calls on the full mesh."""
    pair, coeffs = split_and_coefficients(d)
    axis = lambda lo, hi: np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=6)))
    axes = [axis(0.0, 1.0), axis(-np.pi, np.pi)] + [axis(0.0, np.pi) for _ in range(d - 2)]
    for fn in (lambda *mesh: synthesize(coeffs, *mesh), pair.f0):
        got = fn(*np.meshgrid(*axes, indexing="ij", sparse=True))
        want = fn(*np.meshgrid(*axes, indexing="ij"))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
