"""Tests for the rank-2 semi-separable matrix algebra."""

import numpy as np
import pytest
import scipy.linalg

import ballspec.semisep as semisep
from ballspec.semisep import (
    CONTOUR_TOL,
    ContourError,
    ContourSpec,
    SemiSep2,
    SolveError,
    contour_apply,
    default_contour,
    matvec,
    schur_form,
    solve_shifted,
    to_dense,
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
            y = matvec(a, x)
            worst = max(worst, np.max(np.abs(y - a.to_dense() @ x)))
    assert worst < 1e-12


def test_matvec_complex_vectors():
    rng = np.random.default_rng(3)
    a = random_semisep(rng, 30)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert np.max(np.abs(matvec(a, x) - a.to_dense() @ x)) < 1e-12


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
            got = contour_apply(np.exp, a, v, default_contour(a))
            worst = max(worst, np.max(np.abs(got - ref)))
    assert worst < 1e-9


def test_contour_on_semiseparable_operator():
    # modest truncation keeps exp moderate on the contour circle
    d = build_Dr(4, 2.0)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5)
    ref = scipy.linalg.expm(d.to_dense()) @ v
    got = contour_apply(np.exp, d, v, default_contour(d))
    assert np.max(np.abs(got - ref)) < 1e-9


def test_contour_rejects_non_enclosing_circle():
    d = build_Dr(12, 2.0)
    tiny = ContourSpec(center=0.0, radius=1e-6, nodes=32)
    with pytest.raises(ContourError):
        contour_apply(np.exp, d, np.ones(13), tiny)


def test_default_contour_takes_one_eigensolve(monkeypatch):
    d = build_Dr(4, 2.0)
    v = np.linspace(-1.0, 1.0, 5)
    want = contour_apply(np.exp, d, v, default_contour(d))
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
    got = contour_apply(np.exp, d, v)
    assert len(calls) == 1
    assert np.array_equal(got, want)


def non_normal_semisep(seed, n=24, norm=2.0):
    """A random unmasked rank-2 SemiSep2 scaled to spectral norm ``norm``."""
    a = random_semisep(np.random.default_rng(seed), n)
    s = norm / np.linalg.norm(a.to_dense(), 2)
    return SemiSep2(size=n, p=a.p * s, q=a.q, u=a.u * s, v=a.v, diag=a.diag * s)


def test_schur_solve_matches_dense_solve():
    worst = 0.0
    for a in (non_normal_semisep(11), build_Dr(30, 2.0)):
        form = schur_form(a)
        rng = np.random.default_rng(6)
        for lam in (0.7 + 0.4j, -3.0 + 0.0j, 0.05 - 2.5j):
            b = rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size)
            dense = solve_shifted(a, lam, b)
            worst = max(worst, np.max(np.abs(solve_shifted(form, lam, b) - dense))
                        / np.max(np.abs(dense)))
    assert worst < 1e-12


def test_exactly_singular_shift_raises_solve_error():
    a = np.diag([1.0, 2.0, 3.0])
    for op in (a, schur_form(a)):
        with pytest.raises(SolveError, match="singular"):
            solve_shifted(op, 2.0, np.ones(3))
    # a shift on the diagonal of T makes T - lam*I exactly singular
    form = schur_form(non_normal_semisep(12))
    with pytest.raises(SolveError, match="singular"):
        solve_shifted(form, form.t[3, 3], np.ones(24))


def test_contour_on_non_normal_rank2_operator_matches_expm():
    worst = 0.0
    for seed in (13, 14, 15):
        a = non_normal_semisep(seed)
        v = np.random.default_rng(seed).standard_normal(a.size)
        ref = scipy.linalg.expm(a.to_dense()) @ v
        worst = max(worst, np.max(np.abs(contour_apply(np.exp, a, v) - ref)))
    assert worst < 1e-9


def converged_node_count(a, v, spec):
    """Node count at which the full trapezoidal sums first agree, by dense solves."""
    dense = a.to_dense()
    nodes, prev = spec.nodes, None
    while True:
        lams = spec.center + spec.radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        acc = sum(np.exp(lam) * (lam - spec.center)
                  * np.linalg.solve(lam * np.eye(a.size) - dense, v) for lam in lams) / nodes
        if prev is not None and np.linalg.norm(acc - prev) <= CONTOUR_TOL * np.linalg.norm(v):
            return nodes
        nodes, prev = 2 * nodes, acc


def test_contour_factors_once_and_solves_once_per_node(monkeypatch):
    a = non_normal_semisep(16)
    v = np.linspace(-1.0, 1.0, a.size)
    want = converged_node_count(a, v, default_contour(a))
    calls = {"schur": 0, "solve": 0, "solve_shifted": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    monkeypatch.setattr(scipy.linalg, "solve", counted("solve", scipy.linalg.solve))
    monkeypatch.setattr(semisep, "solve_shifted", counted("solve_shifted", semisep.solve_shifted))
    contour_apply(np.exp, a, v)
    assert calls == {"schur": 1, "solve": 0, "solve_shifted": want}
    assert want > ContourSpec().nodes


@pytest.mark.parametrize("kwargs", [{"radius": 0.0}, {"radius": -1.0}, {"nodes": 4}])
def test_contour_spec_rejects_bad_parameters_with_parameter_error(kwargs):
    with pytest.raises(ParameterError):
        ContourSpec(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_refused_before_the_eigensolve(monkeypatch, bad):
    a = build_Dr(6, 2.0).to_dense()
    a[2, 3] = bad
    def eigvals(m):
        raise AssertionError("eigvals must not see a non-finite matrix")
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with pytest.raises(ParameterError, match="non-finite"):
        default_contour(a)
    with pytest.raises(ParameterError, match="non-finite"):
        contour_apply(np.exp, a, np.ones(7))
    with pytest.raises(ParameterError, match="non-finite"):
        contour_apply(np.exp, a, np.ones(7), ContourSpec(radius=100.0))
