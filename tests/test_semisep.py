"""Tests for the rank-2 semi-separable matrix algebra."""

import numpy as np
import pytest
import scipy.linalg

from ballspec.semisep import (
    ContourError,
    ContourSpec,
    SemiSep2,
    contour_apply,
    default_contour,
    matvec,
    solve_shifted,
    to_dense,
)
from ballspec.diffmat import build_Dr


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
