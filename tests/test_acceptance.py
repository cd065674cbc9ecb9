"""Acceptance suite: one test per headline guarantee, each printing a single
pass/fail line with the measured quantity next to its threshold.

One check (the no-splitting decay-law window in test 06) is retained as an
honest failure: the window it encodes is not what careful recomputation
gives.  The coefficients behind that check are verified inside the test
against an independent adaptive-quadrature oracle before the window is
asserted, so the failure reflects the encoded target, not a defect in the
library.  See README, "Known deviations".
"""

import time

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from ballspec.basis import BasisSpec, wfunc_radial
from ballspec.diffmat import (
    RADIAL_SCALE,
    asymmetry_S_ex1,
    asymmetry_beta0,
    build_Dr,
    build_Dr_quad,
    build_diff_ops,
    compound_radial,
    ex1_Dr_quad,
)
from ballspec.expand import analyze_ball3, analyze_disc, error_report, flatten_index
from ballspec.pde import PdeKind, assemble, norm_bound, propagate, split_by_mode
from ballspec.semisep import SemiSep2, contour_apply
from ballspec.split import make_pos, raw_pair


def standard_field(r, th):
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (np.asarray(th) + 0.5))


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_skew_symmetry_constructed_and_quadrature():
    t0 = time.perf_counter()
    d = build_Dr(64, 2.0).to_dense()
    constructed = np.max(np.abs(d + d.T))
    dq = build_Dr_quad(64, 2.0)
    measured = np.max(np.abs(dq + dq.T))
    elapsed = time.perf_counter() - t0
    ok = constructed == 0.0 and measured <= 1e-10 and elapsed < 5.0
    assert report(1, "skew symmetry", ok,
                  f"constructed {constructed:.1e}, quadrature {measured:.3e}, "
                  f"{elapsed:.2f}s")


def test_02_closed_form_matches_quadrature_oracle():
    d = build_Dr(16, 2.0).to_dense()
    oracle = build_Dr_quad(16, 2.0)
    dev = np.max(np.abs(d - oracle))
    ok = dev <= 1e-10
    assert report(2, "recursion vs quadrature oracle", ok, f"max dev {dev:.3e}")


def test_03_polar_family_obstruction():
    s = asymmetry_S_ex1(10, 2.0)
    d = ex1_Dr_quad(10, 2.0)
    dev = np.max(np.abs((d + d.T) + s))
    ok = s[0, 0] == 4.0 and dev <= 1e-8
    assert report(3, "r-weighted family overlap", ok,
                  f"S[0,0] = {s[0, 0]}, max |D+D^T+S| = {dev:.3e}")


def test_04_beta_zero_obstruction():
    d = RADIAL_SCALE * build_Dr_quad(10, 2.0, 0.0)
    asym = d + d.T
    closed = np.array([[asymmetry_beta0(n, m, 2.0) for m in range(11)]
                       for n in range(11)])
    # the boundary flux enters with a minus sign relative to the published
    # magnitude convention
    dev = np.max(np.abs(asym + closed))
    ok = dev <= 1e-9
    assert report(4, "beta=0 endpoint asymmetry", ok, f"max dev {dev:.3e}")


def test_05_headline_77_coefficient_accuracy():
    t0 = time.perf_counter()
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=5)
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, spec)
    rep = error_report(standard_field, coeffs, M=6)
    elapsed = time.perf_counter() - t0
    ok = rep.e_inf <= 1e-8 and elapsed < 10.0
    assert report(5, "77-coefficient plateau", ok,
                  f"e_inf = {rep.e_inf:.3e}, {elapsed:.2f}s")


def test_06_no_splitting_decay_law():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=5)
    coeffs = analyze_disc(raw_pair(standard_field), spec, check=False)
    rep = error_report(standard_field, coeffs, M=6)

    # certify the coefficients against an independent adaptive oracle first
    vals = np.abs(coeffs.fhat[:, 1 + 5])
    for n in range(7):
        def integrand(r):
            return float((1.0 - r) * np.exp(r) * wfunc_radial(spec, n, r))
        # the angular integral of e^{i theta} against its own phase is 2 pi
        ref = 2.0 * np.pi * abs(quad(integrand, 0.0, 1.0, limit=200)[0])
        assert vals[n] == pytest.approx(ref, abs=1e-12)

    qs = np.array([flatten_index(n, 1, spec) for n in range(7)], dtype=float)
    slope = float(np.polyfit(np.log(qs), np.log(vals), 1)[0])
    nonconv = rep.e_inf >= 1e-2
    in_window = -0.4 <= slope <= -0.1
    ok = nonconv and in_window
    assert report(6, "no-splitting decay window", ok,
                  f"e_inf = {rep.e_inf:.3e} (>= 1e-2: {nonconv}), "
                  f"exponent = {slope:.3f} vs window [-0.4, -0.1]; "
                  f"coefficients oracle-verified, measured law is ~q^-1 "
                  f"on this range and ~q^-1.5 asymptotically")


def pde_operator(kind, n_trunc=16, k_trunc=4):
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=n_trunc, K=k_trunc)
    ops = build_diff_ops(spec)
    s = 1.0 / np.sqrt(2.0 * np.pi / 3.0)
    h = lambda r, th: s * (1.0 - np.asarray(r, dtype=float)) \
        * np.ones_like(np.asarray(th, dtype=float))
    dh = lambda r, th: -s * np.ones(np.broadcast(np.asarray(r), np.asarray(th)).shape)
    return assemble(kind, ops, compound_radial(ops, h, dh))


def test_07_schrodinger_unitarity():
    op = pde_operator(PdeKind.SCHRODINGER)
    rng = np.random.default_rng(2024)
    drift = 0.0
    for _ in range(50):
        v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
        v /= np.linalg.norm(v)
        for t in (0.1, 1.0, 10.0):
            drift = max(drift, abs(np.linalg.norm(propagate(op, v, t)) - 1.0))
    ok = drift <= 1e-9
    assert report(7, "unitary propagation", ok, f"max norm drift {drift:.3e}")


def test_08_diffusion_stability():
    op = pde_operator(PdeKind.DIFFUSION)
    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for _ in range(20):
        v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
        v /= np.linalg.norm(v)
        for t in (0.1, 0.5, 1.0, 5.0, 10.0):
            ratio = np.linalg.norm(propagate(op, v, t)) / norm_bound(op, t)
            worst_ratio = max(worst_ratio, ratio)
    # restricted to data with empty affine slots: plain contraction
    v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
    segs = split_by_mode(op, v)
    for seg in segs.values():
        seg[0] = 0.0
    v = np.concatenate([segs[m] for m in op.modes])
    contract = max(np.linalg.norm(propagate(op, v, t)) / np.linalg.norm(v)
                   for t in (0.1, 1.0, 10.0))
    ok = worst_ratio <= 1.0 + 1e-8 and contract <= 1.0 + 1e-10
    assert report(8, "diffusion stability", ok,
                  f"norm/bound {worst_ratio:.6f}, restricted ratio {contract:.6f}")


def test_09_semiseparable_fast_algebra():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        masked = bool(rng.integers(0, 2))
        rank = 1 if masked else 2
        a = SemiSep2(size=n,
                     p=rng.standard_normal((rank, n)),
                     q=rng.standard_normal((rank, n)),
                     u=rng.standard_normal((rank, n)),
                     v=rng.standard_normal((rank, n)),
                     diag=rng.standard_normal(n),
                     parity_mask=masked)
        x = rng.standard_normal(n)
        worst = max(worst, np.max(np.abs(a.matvec(x) - a.to_dense() @ x)))
    _, c64 = build_Dr(63, 2.0).matvec_counted(rng.standard_normal(64))
    _, c128 = build_Dr(127, 2.0).matvec_counted(rng.standard_normal(128))
    growth = c128 / c64
    ok = worst <= 1e-12 and growth <= 2.2
    assert report(9, "semi-separable fast algebra", ok,
                  f"matvec dev {worst:.3e}, count growth {growth:.3f}")


def test_10_contour_exponential():
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (8, 16, 24, 32):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for a in ((m + m.conj().T) / 2, (m - m.conj().T) / 2):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = scipy.linalg.expm(a) @ v
            got = contour_apply(np.exp, a, v)
            worst = max(worst, np.max(np.abs(got - ref)))
    ok = worst <= 1e-9
    assert report(10, "resolvent-contour exponential", ok, f"max dev {worst:.3e}")


def test_11_three_dimensional_experiment():
    f = lambda r, t1, t2: (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (0.5 + np.asarray(t1) + 2.0 * np.asarray(t2)))
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=5, K=3)
    pair = make_pos(f, d=3)
    coeffs = analyze_ball3(pair, spec)
    rep = error_report(f, coeffs, M=6)
    flat = np.abs(coeffs.fhat).ravel()
    nz = flat[flat > 1e-12 * flat.max()]
    pos = 1.0 + np.arange(len(nz))
    y = np.log(nz)
    slope, intercept = np.polyfit(pos, y, 1)
    resid = y - (slope * pos + intercept)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    ok = slope < 0.0 and r2 >= 0.9 and rep.e_inf <= 1e-6
    assert report(11, "3-ball decay and accuracy", ok,
                  f"slope {slope:.3f}, R^2 {r2:.3f}, e_inf {rep.e_inf:.3e}")
