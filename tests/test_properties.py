"""Property tests of the shared analysis and synthesis cores.

Each family is analysed by the same core, so one basis function must come
back as its unit indicator and synthesize back to itself, whatever the
family, truncation and exponent.  The exponents are even integers: then the
Gauss-Jacobi rule sees a polynomial and analysis is exact to rounding.  The
split obeys Parseval and commutes with rotations in the first angle, the
radial matrix keeps its structure, the one-core flow equals the dense
exponential of every mode's block, and on random non-normal rank-2 matrices
the contour exponential equals the dense one while every batched shifted
solve is certified or refused; the complex Schur form of a real matrix is a
unitary triangularisation with the eigenvalues of scipy's rsf2csf, and that
of a Hermitian or skew-Hermitian one, or of a generator-scaled skew Dr, a
unitary diagonalisation whose shifted solves match dense ones; on
checkerboard skew matrices of any scale from 1e-300 to 1e300, every
shifted solve is certified or refused with a named error.  The one
orthonormal Jacobi table, its derivatives and the radial factors built on
it agree with scipy's Jacobi polynomials and Gauss rules at any exponents.
"""

import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st
from scipy.special import eval_jacobi, gammaln, roots_jacobi

from ballspec.basis import (BasisSpec, UsageError, ball_phase, ball_radial,
                            ex1_radial, inner_product, wfunc_radial)
from ballspec.diffmat import build_diff_ops, build_Dr, build_Dr_quad
from ballspec.expand import (
    analyze,
    analyze_disc,
    analyze_polar_weighted,
    standard_grid,
    synthesize,
)
from ballspec.pde import PdeKind, assemble, propagate
from ballspec.jacobi import (BallspecError, JacobiParams, orthonormal_all,
                             orthonormal_deriv_all)
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
    y = a.matvec(x)
    assert np.all(np.abs(y - dense @ x) <= bound)
    # the counter runs matvec's own kernel
    counted, mults = a.matvec_counted(x)
    assert counted.dtype == y.dtype and counted.tobytes() == y.tobytes()
    assert mults <= 9 * size
    if masked:
        # the checkerboard of the rank-1 form, built here from the stored generators
        i, j = np.indices((size, size))
        plain = np.tril(a.p.T @ a.q, -1) + np.triu(a.u.T @ a.v, 1)
        assert np.array_equal(dense, np.where((i + j) % 2 == 1, plain, 0.0))


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


def real_matrix(kind, n, seed, scale):
    """A real n x n matrix: a general one, a skew rho*Dr/||Dr|| or random
    checkerboard skew one (a diagonal form), the latter plus a triangular
    perturbation of relative size 1e-6 (all its eigenvalues in 2x2 blocks
    but at most one), or a triangular one (no 2x2 block)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if kind == "Dr":
        dense = build_Dr(n - 1, 2.0).to_dense() if n else np.zeros((0, 0))
        return scale * dense / max(np.linalg.norm(dense), 1e-300)
    if kind in ("skew", "perturbed skew"):
        i, j = np.indices((n, n))
        m = np.where((i + j) % 2 == 1, m - m.T, 0.0)
    if kind == "perturbed skew":
        m = m + 1e-6 * np.triu(rng.standard_normal((n, n)))
    if kind == "triangular":
        m = np.triu(m)
    return scale * m


@PROPERTY
@given(kind=st.sampled_from(["general", "Dr", "skew", "perturbed skew", "triangular"]),
       n=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_real_schur_form_is_a_unitary_triangularisation(kind, n, seed, scale):
    a = real_matrix(kind, n, seed, scale)
    form = schur_form(a)
    norm = np.linalg.norm(a)
    assert form.dense.dtype == float and np.array_equal(form.dense, a)
    assert np.all(np.tril(form.t, -1) == 0.0)
    assert np.linalg.norm(form.z.conj().T @ form.z - np.eye(n)) <= 1e-13
    assert np.linalg.norm(form.z @ form.t @ form.z.conj().T - a) <= 1e-13 * norm
    # scipy's per-block conversion of the same real Schur form is the oracle
    want = np.diag(scipy.linalg.rsf2csf(*scipy.linalg.schur(a, output="real"))[0])
    got = form.t.diagonal()
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.all(np.abs(got[rows] - want[cols]) <= 1e-13 * norm)


def hermitian_or_skew(kind, field, n, seed, scale):
    """An n x n Hermitian or skew-Hermitian matrix, real or complex, times
    scale; or, for kind "Dr", scale Dr / ||Dr||_2 in generator form, which
    is skew only to rounding (n >= 2)."""
    rng = np.random.default_rng(seed)
    if kind == "Dr":
        d = build_Dr(max(n, 2) - 1, 2.0)
        s = scale / np.linalg.norm(d.to_dense(), 2)
        return SemiSep2(size=d.size, p=d.p * s, q=d.q, u=d.u * s, v=d.v, parity_mask=d.parity_mask)
    m = rng.standard_normal((n, n))
    if field == "complex":
        m = m + 1j * rng.standard_normal((n, n))
    sign = 1.0 if kind == "hermitian" else -1.0
    return scale * (m + sign * m.conj().T) / 2


@PROPERTY
@given(kind=st.sampled_from(["hermitian", "skew", "Dr"]), field=st.sampled_from(["real", "complex"]),
       n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       shifts=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                          allow_infinity=False), min_size=1, max_size=8))
def test_hermitian_and_skew_forms_are_unitary_diagonalisations(kind, field, n, seed, scale,
                                                               shifts):
    a = hermitian_or_skew(kind, field, n, seed, scale)
    form = schur_form(a)
    dense = a.to_dense() if isinstance(a, SemiSep2) else a
    n, norm = len(dense), np.linalg.norm(dense)
    assert form.diagonal and np.array_equal(form.t, np.diag(form.t.diagonal()))
    assert np.linalg.norm(form.z.conj().T @ form.z - np.eye(n)) <= 1e-13
    assert np.linalg.norm(form.z @ form.t @ form.z.conj().T - dense) <= 1e-13 * norm
    want, got = np.linalg.eigvals(dense), form.t.diagonal()
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.all(np.abs(got[rows] - want[cols]) <= 1e-13 * norm)
    # shifts on the scale of the spectrum, and off it
    lams = np.array(shifts) * np.linalg.norm(dense, 2) if n else np.array(shifts)
    assume(n and np.min(np.abs(lams[:, None] - want[None, :])) > 0.05 * np.linalg.norm(dense, 2))
    b = np.random.default_rng(seed).standard_normal(n) + 0.5j
    x = solve_shifted(form, lams, b)
    ref = np.stack([scipy.linalg.solve(lam * np.eye(n) - dense, b) for lam in lams], axis=1)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300),
       rhs_exponent=st.integers(-300, 300), on_spectrum=st.booleans(),
       shifts=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                          allow_infinity=False), min_size=1, max_size=8))
def test_skew_checkerboard_solves_are_certified_or_refused_at_any_scale(
        n, seed, exponent, rhs_exponent, on_spectrum, shifts):
    a = real_matrix("skew", n, seed, 10.0 ** exponent)
    form = schur_form(a)
    assert (form.u is not None) == bool(np.any(a))
    lams = np.array(shifts, dtype=complex) * 10.0 ** exponent
    if on_spectrum and n:
        lams[0] = form.t.diagonal()[seed % n]
    b = 10.0 ** rhs_exponent * np.random.default_rng(seed).standard_normal(n)
    # a result is certified, else a BallspecError; a bare RuntimeWarning is
    # an error under the suite's warning policy
    try:
        x = solve_shifted(form, lams, b)
    except BallspecError:
        return
    assert x.shape == (n, lams.size) and np.all(np.isfinite(x))
    s = 2.0 ** np.frexp(np.max(np.abs(b), initial=1.0))[1]  # exact: a power of 2
    res = np.linalg.norm((x * lams - a @ x - b[:, None]) / s, axis=0)
    assert np.all(res <= 1e-10 * np.linalg.norm(b / s))


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


@settings(max_examples=10, deadline=None)
@given(s=st.floats(1e-12, 1e6), d=st.sampled_from([2, 3]))
def test_make_pos_is_scale_equivariant(s, d):
    """f -> s f keeps the modes and c and maps g_m to s g_m."""
    f = rotation_field(d)
    scaled = lambda *args: s * f(*args)
    kw = dict(d=d, k_max=4)
    pair, grown = make_pos(f, **kw), make_pos(scaled, **kw)
    assert list(grown.origin_coeffs) == list(pair.origin_coeffs)
    assert len(pair.origin_coeffs) == 7
    for mode, g in pair.origin_coeffs.items():
        assert abs(grown.origin_coeffs[mode] - s * g) <= 1e-12 * abs(s * g)
        assert abs(grown.c[mode] - pair.c[mode]) <= 1e-12 * abs(pair.c[mode])


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


# -- the one orthonormal Jacobi table ----------------------------------------

alpha_ex1 = st.floats(1.0, 8.0, exclude_min=True)
beta_pos = st.floats(0.0, 8.0, exclude_min=True, allow_subnormal=False)
TABLE_X = np.cos(np.linspace(0.0, np.pi, 41))


def scipy_orthonormal(n, a, b, x, deriv=False):
    """Degrees 0..n of P_k^(a,b)(x) / sqrt(h_k), or of their derivatives
    (k+a+b+1)/2 P_{k-1}^(a+1,b+1)(x) / sqrt(h_k), from scipy's eval_jacobi
    and h_k in log-gamma form."""
    k = np.arange(n + 1.0)[:, None]
    log_h = (a + b + 1.0) * np.log(2.0) - np.log(2.0 * k + a + b + 1.0) + gammaln(k + a + 1.0) \
        + gammaln(k + b + 1.0) - gammaln(k + a + b + 1.0) - gammaln(k + 1.0)
    if deriv:
        p = np.where(k > 0, 0.5 * (k + a + b + 1.0)
                     * eval_jacobi(np.maximum(k - 1, 0), a + 1.0, b + 1.0, x), 0.0)
    else:
        p = eval_jacobi(k, a, b, x)
    return p * np.exp(-0.5 * log_h)


def rows_close(got, want, rel):
    """Every row within rel of its own largest entry."""
    return np.all(np.max(np.abs(got - want), axis=1) <= rel * np.max(np.abs(want), axis=1))


@PROPERTY
@given(n=st.integers(0, 24), a=alpha_ex1, b=beta_pos)
def test_orthonormal_table_and_derivatives_match_scipy(n, a, b):
    params = JacobiParams(a, b)
    assert rows_close(orthonormal_all(n, params, TABLE_X), scipy_orthonormal(n, a, b, TABLE_X),
                      1e-11)
    got = orthonormal_deriv_all(n, params, TABLE_X)
    assert np.all(got[0] == 0.0)
    assert rows_close(got[1:], scipy_orthonormal(n, a, b, TABLE_X, deriv=True)[1:], 1e-11)


def rule_01(nq, a, b):
    """scipy's Gauss-Jacobi rule for (1-r)^a r^b on [0, 1]."""
    x, w = roots_jacobi(nq, a, b)
    return 0.5 * (x + 1.0), w * 0.5 ** (a + b + 1.0)


@PROPERTY
@given(n=st.integers(0, 24), a=alpha_ex1, b=beta_pos)
def test_radial_factors_are_orthonormal_under_their_measures(n, a, b):
    degrees = range(n + 1)
    # the box measure dr dtheta: the rule absorbs (1-r)^a r^b of phi_m phi_n
    r, w = rule_01(n + 17, a, b)
    phi = wfunc_radial(BasisSpec(a, b), degrees, r)
    gram = 2.0 * np.pi * (phi * w / ((1.0 - r) ** a * r ** b)) @ phi.T
    assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-11
    # the polar measure r dr (angular factor apart): the rule absorbs (1-r)^a r
    r, w = rule_01(n + 17, a, 1.0)
    phi = ex1_radial(degrees, a, r)
    gram = (phi * w / (1.0 - r) ** a) @ phi.T
    assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-11


@PROPERTY
@given(n=st.integers(1, 24), alpha=alpha_ex1)
def test_quadrature_radial_matrix_equals_the_generator_form(n, alpha):
    # from n = 1 on: at n = 0, D is the 1x1 zero matrix, with no norm to scale by
    want = build_Dr(n, alpha).to_dense()
    assert np.max(np.abs(build_Dr_quad(n, alpha) - want)) <= 1e-11 * np.linalg.norm(want, 2)
