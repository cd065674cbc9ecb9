"""Tests for the rank-2 semi-separable matrix algebra."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import ballspec.semisep as semisep
from ballspec.semisep import (
    CONTOUR_FIRST_NODES,
    CONTOUR_MARGIN,
    CONTOUR_MAX_NODES,
    CONTOUR_TOL,
    ContourError,
    SemiSep2,
    SizeMismatchError,
    SolveError,
    contour_apply,
    default_contour,
    schur_form,
    solve_shifted,
    spectral_radius_estimate,
)
from ballspec.diffmat import build_Dr
from ballspec.jacobi import ParameterError


def random_semisep(rng, n, masked=False):
    rank = 1 if masked else 2
    return SemiSep2(
        size=n,
        p=rng.standard_normal((rank, n)),
        q=rng.standard_normal((rank, n)),
        u=rng.standard_normal((rank, n)),
        v=rng.standard_normal((rank, n)),
        diag=rng.standard_normal(n),
        parity_mask=masked,
    )


def test_matvec_matches_dense_on_seeded_instances():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 50))
        for masked in (False, True):
            a = random_semisep(rng, n, masked)
            x = rng.standard_normal(n)
            y = a.matvec(x)
            worst = max(worst, np.max(np.abs(y - a.to_dense() @ x)))
    assert worst < 1e-12


def sum_of_parts(a):
    """The dense matrix as the sum of its three parts, each an n x n array."""
    p, q, u, v, diag = a._generators()
    return np.tril(p.T @ q, -1) + np.triu(u.T @ v, 1) + np.diag(diag)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 96, 300, 601])
def test_to_dense_equals_the_sum_of_its_parts_bit_for_bit(n, masked):
    # signed zeros included: the sum of the parts turns a -0.0 on the
    # diagonal into +0.0
    a = random_semisep(np.random.default_rng(n), n, masked)
    if not masked:
        a.diag[::3] = -0.0
    got, want = a.to_dense(), sum_of_parts(a)
    assert got.shape == want.shape == (n, n) and got.dtype == want.dtype == float
    assert got.tobytes() == want.tobytes()


def test_to_dense_of_dr_equals_the_sum_of_its_parts_bit_for_bit():
    for a in (build_Dr(95, 2.0), scaled_Dr(96, 24.0), build_Dr(600, 2.0)):
        assert a.to_dense().tobytes() == sum_of_parts(a).tobytes()


def test_matvec_complex_vectors():
    rng = np.random.default_rng(3)
    a = random_semisep(rng, 30)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert np.max(np.abs(a.matvec(x) - a.to_dense() @ x)) < 1e-12


def test_counted_matvec_is_linear_in_size():
    d1 = build_Dr(63, 2.0)
    d2 = build_Dr(127, 2.0)
    rng = np.random.default_rng(1)
    y1, c1 = d1.matvec_counted(rng.standard_normal(64))
    _, c2 = d2.matvec_counted(rng.standard_normal(128))
    assert c2 / c1 <= 2.2
    x = rng.standard_normal(64)
    y, _ = d1.matvec_counted(x)
    assert np.max(np.abs(y - d1.to_dense() @ x)) < 1e-12


def test_solve_shifted_residual():
    d = build_Dr(30, 2.0)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    lam = 0.7 + 0.4j
    x = solve_shifted(d, lam, b)
    assert np.max(np.abs(lam * x - d.to_dense() @ x - b)) < 1e-10


def test_contour_exponential_matches_dense():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (8, 16, 32):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for a in ((m + m.conj().T) / 2, (m - m.conj().T) / 2):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = scipy.linalg.expm(a) @ v
            got = contour_apply(np.exp, a, v)
            worst = max(worst, np.max(np.abs(got - ref)))
    assert worst < 1e-9


def test_contour_on_semiseparable_operator():
    # modest truncation keeps exp moderate on the contour
    d = build_Dr(4, 2.0)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5)
    ref = scipy.linalg.expm(d.to_dense()) @ v
    got = contour_apply(np.exp, d, v)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_contour_that_does_not_converge_raises_contour_error():
    # g jumps across the real axis, so the trapezoidal sums move by about
    # 1/nodes at every doubling and never agree to CONTOUR_TOL
    with pytest.raises(ContourError, match="did not converge"):
        contour_apply(lambda z: float(z.imag > 0.0), np.diag([1.0, 2.0]), np.ones(2))


def symmetric_dense(seed, n=24):
    """A random real symmetric matrix and its eigenvalues."""
    m = np.random.default_rng(seed).standard_normal((n, n))
    a = m + m.T
    return a, np.linalg.eigvalsh(a)


def test_ill_conditioned_dense_shift_is_refused_with_solve_error():
    # lam*I - A is ill-conditioned (rcond ~ 1e-10), yet no pivot is zero;
    # the residual of a solve that large is eps |lam| ||x|| ~ 1e-6 ||rhs||,
    # so the certificate against A refuses the result
    a, w = symmetric_dense(1)
    with pytest.raises(SolveError, match="exceeds tolerance"):
        solve_shifted(a, w[3] + 1e-9, np.ones(24))


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def recorded_shifts(monkeypatch):
    """A list that receives the number of shifts of each later solve_shifted call."""
    shifts = []
    solve_shifted_ = semisep.solve_shifted

    def counted_solve_shifted(form, lams, rhs, **kwargs):
        shifts.append(np.size(lams))
        return solve_shifted_(form, lams, rhs, **kwargs)

    monkeypatch.setattr(semisep, "solve_shifted", counted_solve_shifted)
    return shifts


def test_default_contour_takes_one_eigensolve(monkeypatch):
    # the form is the only eigensolve: the contour comes off its spectrum,
    # and the skew checkerboard Dr's form is one half-size svd
    d = build_Dr(4, 2.0)
    v = np.linspace(-1.0, 1.0, 5)
    want = contour_apply(np.exp, schur_form(d), v)
    calls = {"eigvals": 0, "schur": 0, "eigh": 0, "svd": 0}
    monkeypatch.setattr(np.linalg, "eigvals", counting(calls, "eigvals", np.linalg.eigvals))
    for name in ("schur", "eigh", "svd"):
        monkeypatch.setattr(scipy.linalg, name, counting(calls, name, getattr(scipy.linalg, name)))
    got = contour_apply(np.exp, d, v)
    assert calls == {"eigvals": 0, "schur": 0, "eigh": 0, "svd": 1}
    assert np.array_equal(got, want)


def test_contour_from_a_schur_form_reads_its_diagonal(monkeypatch):
    for a in (build_Dr(9, 2.0), np.diag([2.0j, -0.5j, 3.0j])):
        form = schur_form(a)
        rho, (want_center, want_focus) = np.max(np.abs(np.linalg.eigvals(form.dense))), default_contour(a)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvals", lambda *args: pytest.fail("eigvals was called"))
            center, focus = default_contour(form)
            assert spectral_radius_estimate(form) == pytest.approx(rho, rel=1e-12)
        assert center == want_center and focus == want_focus


@pytest.mark.parametrize("a", [build_Dr(9, 2.0), build_Dr(10, 2.0), np.diag([2.0j, -0.5j, 3.0j]),
                               np.diag([4.0, -1.0, 0.5]), np.diag([-3.0, -2.0]),
                               np.diag([1e3, 1e3 + 1e-6]), np.array([[3.5]]), 5.0j * np.eye(3),
                               np.zeros((2, 2))])
def test_the_contour_foci_are_the_ends_of_the_spectral_segment(a):
    # every eigenvalue is center + t focus with t real and |t| <= 1, and
    # |focus| is half the segment's length, or its floor if that is more
    eig = np.linalg.eigvals(as_dense(a))
    center, focus = default_contour(a)
    t = (eig - center) / focus
    assert np.all(np.abs(t.imag) <= 1e-12) and np.all(np.abs(t.real) <= 1.0 + 1e-12)
    distance = np.abs(eig[:, None] - eig)
    i, j = np.unravel_index(np.argmax(distance), distance.shape)
    assert center == pytest.approx(0.5 * (eig[i] + eig[j]), abs=1e-12)
    assert abs(focus) == pytest.approx(max(0.5 * distance[i, j], 1e-8, 0.1 * abs(center)), rel=1e-12)


@pytest.mark.parametrize("a", [np.array([[3.5]]), -2.0 * np.eye(4), 5.0j * np.eye(3),
                               8.0 * np.eye(2)])
def test_contour_of_a_one_point_spectrum_is_certified(a):
    # the spectrum has no spread, so the focus comes from the centre: a node
    # 1e-8 from lam is solved to only about eps |lam| / 1e-8 relative
    v = np.linspace(-1.0, 1.0, len(a))
    ref = scipy.linalg.expm(a) @ v
    assert np.max(np.abs(contour_apply(np.exp, a, v) - ref)) < 1e-12 * np.max(np.abs(ref))


def scaled(a, norm):
    """The SemiSep2 a scaled to spectral norm ``norm``."""
    s = norm / np.linalg.norm(a.to_dense(), 2)
    return SemiSep2(size=a.size, p=a.p * s, q=a.q, u=a.u * s, v=a.v, diag=a.diag * s,
                    parity_mask=a.parity_mask)


def non_normal_semisep(seed, n=24, norm=2.0):
    """A random unmasked rank-2 SemiSep2 scaled to spectral norm ``norm``."""
    return scaled(random_semisep(np.random.default_rng(seed), n), norm)


def normal_semisep(seed, n=24, norm=2.0, sign=-1.0):
    """A random unmasked rank-2 SemiSep2 scaled to spectral norm ``norm``:
    skew (u = -q, v = p) for sign -1, symmetric (u = q, v = p, with a
    diagonal) for sign 1."""
    a = random_semisep(np.random.default_rng(seed), n)
    diag = a.diag if sign > 0 else None
    return scaled(SemiSep2(size=n, p=a.p, q=a.q, u=sign * a.q, v=a.p, diag=diag), norm)


def test_schur_solve_matches_dense_solve():
    worst = 0.0
    for a in (normal_semisep(11), normal_semisep(11, sign=1.0), build_Dr(30, 2.0)):
        form = schur_form(a)
        rng = np.random.default_rng(6)
        for lam in (0.7 + 0.4j, -3.0 + 0.0j, 0.05 - 2.5j):
            b = rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size)
            dense = scipy.linalg.solve(lam * np.eye(a.size) - a.to_dense(), b)
            worst = max(worst, np.max(np.abs(solve_shifted(form, lam, b) - dense))
                        / np.max(np.abs(dense)))
    assert worst < 1e-12


def test_exactly_singular_shift_raises_solve_error():
    a = np.diag([1.0, 2.0, 3.0])
    for op in (a, schur_form(a)):
        with pytest.raises(SolveError, match="singular"):
            solve_shifted(op, 2.0, np.ones(3))
    # an eigenvalue of the form is an exactly singular shift
    form = schur_form(normal_semisep(12))
    with pytest.raises(SolveError, match="singular"):
        solve_shifted(form, form.eig[3], np.ones(24))


def test_contour_on_normal_rank2_operators_matches_expm():
    worst = 0.0
    for seed, sign in ((13, -1.0), (14, 1.0), (15, -1.0)):
        a = normal_semisep(seed, sign=sign)
        v = np.random.default_rng(seed).standard_normal(a.size)
        ref = scipy.linalg.expm(a.to_dense()) @ v
        worst = max(worst, np.max(np.abs(contour_apply(np.exp, a, v) - ref)))
    assert worst < 1e-9


def converged_node_count(a, v, center, focus):
    """Node count at which the full trapezoidal sums of exp on the ellipse
    center + focus cosh(CONTOUR_MARGIN + i theta) first agree, by one dense
    solve per node; None if they do not within CONTOUR_MAX_NODES nodes."""
    dense = a.to_dense()
    nodes, prev = CONTOUR_FIRST_NODES, None
    while nodes <= CONTOUR_MAX_NODES:
        w = CONTOUR_MARGIN + 2j * np.pi * np.arange(nodes) / nodes
        lams = center + focus * np.cosh(w)
        acc = sum(np.exp(lam) * focus * np.sinh(wj)
                  * np.linalg.solve(lam * np.eye(a.size) - dense, v)
                  for lam, wj in zip(lams, w)) / nodes
        if prev is not None and np.linalg.norm(acc - prev) <= CONTOUR_TOL * np.linalg.norm(v):
            return nodes
        nodes, prev = 2 * nodes, acc
    return None


def test_contour_factors_once_and_solves_once_per_node(monkeypatch):
    a = normal_semisep(16)
    v = np.linspace(-1.0, 1.0, a.size)
    want = converged_node_count(a, v, *default_contour(a))
    calls = {"schur": 0, "eigh": 0, "solve": 0}
    shifts = recorded_shifts(monkeypatch)
    monkeypatch.setattr(scipy.linalg, "schur", counting(calls, "schur", scipy.linalg.schur))
    monkeypatch.setattr(scipy.linalg, "eigh", counting(calls, "eigh", scipy.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "solve", counting(calls, "solve", scipy.linalg.solve))
    contour_apply(np.exp, a, v)
    assert calls == {"schur": 0, "eigh": 1, "solve": 0}
    # one call per batch: the first 2n nodes, whose even columns give the
    # n-node sum, then 2n, 4n, ... new ones
    first = 2 * CONTOUR_FIRST_NODES
    assert shifts == [first] + [first * 2 ** k for k in range(len(shifts) - 1)]
    assert sum(shifts) == want
    assert want > first


def as_dense(a):
    return a.to_dense() if isinstance(a, SemiSep2) else a


def complex_dense(seed, n=20, sign=1.0):
    """A random complex Hermitian (sign 1) or skew-Hermitian (sign -1)
    matrix scaled to spectral norm 2."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + sign * m.conj().T
    return 2.0 * m / np.linalg.norm(m, 2)


SHIFTS = np.array([0.7 + 0.4j, -3.0 + 0.0j, 0.05 - 2.5j, 2.2 + 2.2j, -0.3 - 0.9j])


def test_shift_array_gives_the_scalar_solves_column_by_column():
    worst = 0.0
    for a in (normal_semisep(11), build_Dr(30, 2.0), complex_dense(17),
              complex_dense(18, sign=-1.0)):
        n = as_dense(a).shape[0]
        rng = np.random.default_rng(6)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for op in (schur_form(a), a):
            got = solve_shifted(op, SHIFTS, b)
            assert got.shape == (n, SHIFTS.size)
            for j, lam in enumerate(SHIFTS):
                want = scipy.linalg.solve(lam * np.eye(n) - as_dense(a), b)
                worst = max(worst, np.max(np.abs(got[:, j] - want)) / np.max(np.abs(want)))
    assert worst < 1e-12


@pytest.mark.parametrize("where", [0, 2, 4])
def test_exactly_singular_shift_in_an_array_raises_solve_error(where):
    form = schur_form(normal_semisep(12))
    # an eigenvalue of the form, or the diagonal of a diagonal A, is exactly singular
    for op, lam, n in ((form, form.eig[3], 24), (np.diag([1.0, 2.0, 3.0]), 2.0, 3)):
        lams = SHIFTS.copy()
        lams[where] = lam
        with pytest.raises(SolveError, match="singular"):
            solve_shifted(op, lams, np.ones(n))


def test_one_failing_column_raises_with_the_worst_residual():
    # the middle shift is 1e-9 from an eigenvalue, so its residual is about
    # eps |lam| ||x|| ~ 1e-6 ||b||: only that column fails the default tol
    a, w = symmetric_dense(2)
    lams = np.array([3.0 + 1.0j, w[5] + 1e-9, -2.5j])
    b = np.ones(len(a))
    for op in (a, schur_form(a)):
        x = solve_shifted(op, lams, b, tol=np.inf)
        res = np.linalg.norm(x * lams - a @ x - b[:, None], axis=0)
        assert res[0] <= 1e-10 * np.linalg.norm(b) and res[2] <= 1e-10 * np.linalg.norm(b)
        with pytest.raises(SolveError, match="exceeds tolerance") as err:
            solve_shifted(op, lams, b)
        assert err.value.residual == pytest.approx(res[1], rel=1e-6)
        assert err.value.residual == pytest.approx(np.max(res), rel=1e-6)


def refused_before_any_factorisation(monkeypatch, a):
    """The ParameterError of schur_form, solve_shifted and contour_apply on a,
    with no eigensolve run; the message gives max|A -+ A^H| and the slack."""
    n = as_dense(a).shape[0]
    with monkeypatch.context() as m:
        for name in ("schur", "eigh", "svd"):
            m.setattr(scipy.linalg, name,
                      lambda *args, name=name, **kwargs: pytest.fail(f"{name} was called"))
        for call in (lambda: schur_form(a), lambda: solve_shifted(a, SHIFTS, np.ones(n)),
                     lambda: contour_apply(np.exp, a, np.ones(n))):
            with pytest.raises(ParameterError, match="neither Hermitian nor skew-Hermitian") as err:
                call()
            assert "max|A - A^H| = " in str(err.value) and "the slack " in str(err.value)
    return err.value


@pytest.mark.parametrize("seed", [0, 1])
def test_a_matrix_that_is_neither_hermitian_nor_skew_is_refused(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    for a in (rng.standard_normal((30, 30)), non_normal_semisep(seed),
              complex_dense(seed) * (1.0 + 1.0j), np.diag([1.0 + 2.0j, -0.5, 3.0]),
              np.diag(np.full(23, 2.0), 1)):
        refused_before_any_factorisation(monkeypatch, a)


def scaled_Dr(n, rho):
    """rho Dr / ||Dr||_2 for Dr = build_Dr(n - 1, 2.0), in generator form."""
    return scaled(build_Dr(n - 1, 2.0), rho)


def factorisations(monkeypatch, a):
    """(schur_form(a), {"schur": calls, "eigh": calls, "svd": calls}) for one factorisation of a."""
    calls = {"schur": 0, "eigh": 0, "svd": 0}
    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(scipy.linalg, name, counting(calls, name, getattr(scipy.linalg, name)))
        return schur_form(a), calls


@pytest.mark.parametrize("rho", [1.0, 10.0])
def test_a_generator_scaled_skew_operator_takes_one_half_size_svd(monkeypatch, rho):
    # the benchmark's operator: skew only to rounding, since the generators
    # are scaled before their products are formed, and exactly zero on its
    # even-parity entries
    a = scaled_Dr(96, rho)
    form, calls = factorisations(monkeypatch, a)
    assert not np.array_equal(form.dense, -form.dense.T)
    assert calls == {"schur": 0, "eigh": 0, "svd": 1}
    assert form.u.shape == (48, 48) and form.sigma.shape == (48,) and form.v.shape == (48, 48)
    assert form.z is None and form.eig.shape == (96,)
    v = np.linspace(-1.0, 1.0, 96)
    ref = scipy.linalg.expm(form.dense) @ v
    assert np.max(np.abs(contour_apply(np.exp, form, v) - ref)) < 1e-9


def test_a_perturbed_skew_matrix_is_refused(monkeypatch):
    # a symmetric perturbation of 1e-6 ||A|| is far above rounding, so A is
    # neither skew nor symmetric; the message reports its max|A + A^T|
    skew = scaled_Dr(24, 5.0).to_dense()
    h = np.random.default_rng(8).standard_normal((24, 24))
    h = h + h.T
    a = skew + 1e-6 * np.linalg.norm(skew, 2) / np.linalg.norm(h, 2) * h
    err = refused_before_any_factorisation(monkeypatch, a)
    assert f"max|A + A^H| = {np.max(np.abs(a + a.T)):.3e}" in str(err)


@pytest.mark.parametrize("k", [0, 7, 23])
def test_a_shift_on_the_diagonal_form_is_refused_before_any_division(k):
    form = schur_form(scaled_Dr(24, 5.0))
    lams = SHIFTS.copy()
    lams[2] = form.eig[k]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by zero would warn first
        for lam in (form.eig[k], lams):
            with pytest.raises(SolveError, match="singular"):
                solve_shifted(form, lam, np.ones(24))


@pytest.mark.parametrize("k", [0, 7, 23])
def test_a_shift_next_to_an_eigenvalue_is_certified_or_refused(k):
    a = scaled_Dr(24, 5.0)
    form = schur_form(a)
    lam = form.eig[k] + 1e-14
    assert lam != form.eig[k]
    b = np.linspace(-1.0, 1.0, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = solve_shifted(form, lam, b)
        except SolveError as err:
            assert "exceeds tolerance" in str(err)
            return
    assert np.linalg.norm(lam * x - a.to_dense() @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_real_matrices_never_reach_rsf2csf_and_keep_a_real_dense(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "rsf2csf",
                        lambda *args, **kwargs: pytest.fail("rsf2csf was called"))
    v = np.linspace(-1.0, 1.0, 24)
    general = 0.1 * np.random.default_rng(4).standard_normal((24, 24))
    for a in (scaled_Dr(24, 5.0), normal_semisep(3), normal_semisep(3, sign=1.0),
              general + general.T):
        form = schur_form(a)
        assert form.dense.dtype == float and np.array_equal(form.dense, as_dense(a))
        x = solve_shifted(a, SHIFTS, v)
        assert np.array_equal(x, solve_shifted(form, SHIFTS, v))
        contour_apply(np.exp, a, v)
    assert schur_form(complex_dense(5, n=24)).dense.dtype == complex


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_refused_before_the_eigensolve(monkeypatch, bad):
    a = build_Dr(6, 2.0).to_dense()
    a[2, 3] = bad
    def refuse(name):
        def eigensolve(*args, **kwargs):
            raise AssertionError(f"{name} must not see a non-finite matrix")
        return eigensolve
    monkeypatch.setattr(np.linalg, "eigvals", refuse("eigvals"))
    monkeypatch.setattr(scipy.linalg, "schur", refuse("schur"))
    monkeypatch.setattr(scipy.linalg, "eigh", refuse("eigh"))
    monkeypatch.setattr(scipy.linalg, "svd", refuse("svd"))
    with pytest.raises(ParameterError, match="non-finite"):
        default_contour(a)
    with pytest.raises(ParameterError, match="non-finite"):
        schur_form(a)
    with pytest.raises(ParameterError, match="non-finite"):
        contour_apply(np.exp, a, np.ones(7))
    with pytest.raises(ParameterError, match="non-finite"):
        solve_shifted(a, 2.0, np.ones(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schur_form_refuses_a_non_finite_matrix(bad):
    for a in (np.array([[1.0, bad], [0.0, 2.0]]), np.array([[1.0j, 0.0], [bad, 2.0]])):
        with pytest.raises(ParameterError, match="non-finite"):
            schur_form(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_shift_or_vector_is_refused_before_the_factorisation(monkeypatch, bad):
    a = np.eye(3)
    ops = (a, build_Dr(2, 2.0), schur_form(a))
    finite, non_finite = np.array([1.0, 0.0, 0.0]), np.array([1.0, bad, 0.0])
    for name in ("schur", "eigh", "svd"):
        monkeypatch.setattr(scipy.linalg, name,
                            lambda *args, name=name, **kwargs: pytest.fail(f"{name} was called"))
    for op in ops:
        for lam, rhs in ((2.0, non_finite), (bad, finite), (np.array([2.0, bad]), finite)):
            with pytest.raises(ParameterError, match="non-finite"):
                solve_shifted(op, lam, rhs)
        with pytest.raises(ParameterError, match="non-finite"):
            contour_apply(np.exp, op, non_finite)


@pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), np.float64(2.0)])
def test_a_matrix_that_is_not_square_is_refused_with_size_mismatch(monkeypatch, a):
    for name in ("schur", "eigh", "svd"):
        monkeypatch.setattr(scipy.linalg, name,
                            lambda *args, name=name, **kwargs: pytest.fail(f"{name} was called"))
    rhs = np.ones(np.shape(a)[0] if np.ndim(a) else 1)
    with pytest.raises(SizeMismatchError, match="square"):
        schur_form(a)
    with pytest.raises(SizeMismatchError, match="square"):
        solve_shifted(a, 1.0, rhs)
    with pytest.raises(SizeMismatchError, match="square"):
        contour_apply(np.exp, a, rhs)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(np.inf, 0.0),
                                   complex(0.0, np.nan)])
def test_a_non_finite_value_of_g_is_refused_before_any_solve(monkeypatch, value):
    calls = {"solve_shifted": 0}
    monkeypatch.setattr(semisep, "solve_shifted",
                        counting(calls, "solve_shifted", semisep.solve_shifted))
    with pytest.raises(ParameterError, match="non-finite"):
        contour_apply(lambda z: value, np.eye(2), np.ones(2))
    assert calls == {"solve_shifted": 0}


def test_a_non_finite_value_of_g_is_refused_at_a_later_batch():
    # g jumps across the real axis, so the sums never agree (see the
    # ContourError test above), and turns NaN after the first batch
    calls = []

    def g(z):
        calls.append(z)
        return np.nan if len(calls) > 2 * CONTOUR_FIRST_NODES else float(z.imag > 0.0)

    with pytest.raises(ParameterError, match="non-finite"):
        contour_apply(g, np.diag([1.0, 2.0]), np.ones(2))
    assert len(calls) == 4 * CONTOUR_FIRST_NODES


def test_a_huge_rhs_is_certified_without_an_overflowing_norm():
    # ||rhs||^2 and ||residual||^2 leave the double range above about 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve_shifted(np.eye(2), 5.0, np.array([1e175, 1e175]))
        assert np.allclose(x, 0.25e175, rtol=1e-15, atol=0.0)
        assert np.allclose(solve_shifted(np.eye(2), 5.0, np.array([1e-175, 1e-175])), 0.25e-175,
                           rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_a_scaled_vector_takes_the_same_node_count(monkeypatch, scale):
    # ||v|| overflowed to inf above about 1e154, so the stopping test passed
    # after the first batch whatever the two sums were
    a = scaled_Dr(96, 10.0)
    v = np.random.default_rng(7).standard_normal(96) + 0.5j
    ref = scipy.linalg.expm(a.to_dense()) @ v
    def node_counts(w):
        with monkeypatch.context() as m:
            shifts = recorded_shifts(m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return contour_apply(np.exp, a, w), shifts

    want, want_shifts = node_counts(v)
    got, got_shifts = node_counts(scale * v)
    assert got_shifts == want_shifts and len(want_shifts) > 1
    assert np.linalg.norm(want - ref) <= 1e-10 * np.linalg.norm(v)
    assert np.linalg.norm(got / scale - ref) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("n", [96, 97])
def test_a_skew_checkerboard_contour_takes_one_half_size_svd(monkeypatch, n):
    a = scaled_Dr(n, 10.0)
    v = np.linspace(-1.0, 1.0, n) + 0.25j
    calls = {"eigvals": 0, "schur": 0, "eigh": 0, "svd": 0}
    shapes = []
    svd = scipy.linalg.svd

    def counted_svd(b, *args, **kwargs):
        shapes.append(b.shape)
        return svd(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting(calls, "eigvals", np.linalg.eigvals))
    for name in ("schur", "eigh"):
        monkeypatch.setattr(scipy.linalg, name, counting(calls, name, getattr(scipy.linalg, name)))
    monkeypatch.setattr(scipy.linalg, "svd", counting(calls, "svd", counted_svd))
    got = contour_apply(np.exp, a, v)
    monkeypatch.undo()
    assert calls == {"eigvals": 0, "schur": 0, "eigh": 0, "svd": 1}
    assert shapes == [((n + 1) // 2, n // 2)]
    ref = scipy.linalg.expm(a.to_dense()) @ v
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(v)


def test_an_odd_skew_checkerboard_solves_its_null_vector_and_refuses_a_zero_shift():
    a = scaled_Dr(25, 5.0)
    form = schur_form(a)
    assert form.sigma.shape == (12,) and form.u.shape == (13, 13) and form.v.shape == (12, 12)
    null = scipy.linalg.null_space(a.to_dense())
    assert null.shape == (25, 1)
    for lam in SHIFTS:
        x = solve_shifted(form, lam, null[:, 0])
        assert np.max(np.abs(x - null[:, 0] / lam)) <= 1e-13 / abs(lam)
    b = np.linspace(-1.0, 1.0, 25)
    want = np.stack([scipy.linalg.solve(lam * np.eye(25) - a.to_dense(), b) for lam in SHIFTS], 1)
    assert np.max(np.abs(solve_shifted(form, SHIFTS, b) - want)) <= 1e-12 * np.max(np.abs(want))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, np.array([1.0j, 0.0])):
            with pytest.raises(SolveError, match="singular"):
                solve_shifted(form, lam, b)


@pytest.mark.parametrize("n", [24, 25])
def test_the_exact_shifts_plus_minus_i_sigma_are_refused_without_a_warning(n):
    form = schur_form(scaled_Dr(n, 5.0))
    assert np.array_equal(np.sort_complex(form.eig),
                          np.sort_complex(np.concatenate([1j * form.sigma, -1j * form.sigma,
                                                          np.zeros(n % 2)])))
    b = np.ones(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 5, n // 2 - 1):
            for lam in (1j * form.sigma[k], -1j * form.sigma[k]):
                with pytest.raises(SolveError, match="singular"):
                    solve_shifted(form, lam, b)
                with pytest.raises(SolveError, match="singular"):
                    solve_shifted(form, np.array([0.5, lam]), b)


def test_a_symmetric_or_nearly_checkerboard_matrix_keeps_the_eigh_path(monkeypatch):
    skew = scaled_Dr(24, 5.0).to_dense()
    symmetric = np.abs(skew)  # a symmetric checkerboard
    off = skew.copy()
    off[4, 6] = 1e-300  # one even-parity entry, far below the skew tolerance
    for a in (symmetric, off):
        form, calls = factorisations(monkeypatch, a)
        assert calls == {"schur": 0, "eigh": 1, "svd": 0}
        assert form.u is None and form.z.shape == (24, 24)
        v = np.linspace(-1.0, 1.0, 24)
        x = solve_shifted(form, SHIFTS, v)
        want = np.stack([scipy.linalg.solve(lam * np.eye(24) - a, v) for lam in SHIFTS], 1)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [96, 97])
def test_the_svd_form_of_dr_holds_only_its_spectrum_and_half_blocks(n):
    form = schur_form(build_Dr(n - 1, 2.0))
    assert form.z is None and form.eig.shape == (n,)
    assert form.u.shape == ((n + 1) // 2,) * 2 and form.v.shape == (n // 2,) * 2


@pytest.mark.parametrize("rho", [16.0, 24.0])
def test_a_skew_operator_of_radius_16_or_24_converges(rho):
    # the ellipse reaches only rho sinh(CONTOUR_MARGIN) to the right, so
    # e^z stays small enough on it for the sums to agree to CONTOUR_TOL
    a = scaled_Dr(96, rho)
    v = np.random.default_rng(int(rho)).standard_normal(96) + 0.5j
    ref = scipy.linalg.expm(a.to_dense()) @ v
    assert np.linalg.norm(contour_apply(np.exp, a, v) - ref) <= 1e-8 * np.linalg.norm(v)


@pytest.mark.parametrize("rho", [1.0, 10.0])
def test_a_skew_operator_of_radius_up_to_10_takes_128_nodes_in_two_batches(monkeypatch, rho):
    # the 32- and 64-node sums disagree, the 64- and 128-node sums agree
    shifts = recorded_shifts(monkeypatch)
    contour_apply(np.exp, scaled_Dr(96, rho), np.linspace(-1.0, 1.0, 96) + 0.25j)
    assert shifts == [2 * CONTOUR_FIRST_NODES, 2 * CONTOUR_FIRST_NODES]


def test_an_overflowing_g_is_refused_without_a_warning():
    # exp overflows on the right of the ellipse, which reaches about
    # 2000 sinh(CONTOUR_MARGIN) > 709 on the real axis
    a = scaled_Dr(96, 2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="non-finite"):
            contour_apply(np.exp, a, np.linspace(-1.0, 1.0, 96))


@pytest.mark.parametrize("field", ["p", "q", "u", "v", "diag"])
@pytest.mark.parametrize("bad", [1.0j, np.nan, np.inf])
def test_a_complex_or_non_finite_generator_is_refused(field, bad):
    # a complex generator would lose its imaginary part in the float cast,
    # and a NaN one would give a NaN matvec
    kwargs = {name: np.ones(3) for name in ("p", "q", "u", "v", "diag")}
    kwargs[field] = kwargs[field] * bad if bad == 1.0j else np.array([1.0, bad, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="must be real" if bad == 1.0j else "non-finite"):
            SemiSep2(size=3, **kwargs)


@pytest.mark.parametrize("tol", [np.nan, -1e-10, -np.inf])
def test_a_nan_or_negative_tol_is_refused(tol):
    with pytest.raises(ParameterError, match="tol"):
        solve_shifted(np.eye(2), 5.0, np.ones(2), tol=tol)
    assert np.array_equal(solve_shifted(np.eye(2), 5.0, np.ones(2), tol=np.inf), np.full(2, 0.25))
