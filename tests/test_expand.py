"""Tests for coefficient analysis, synthesis, and the error metrics."""

import dataclasses
import json
import os

import numpy as np
import pytest

from ballspec.basis import (
    BasisKind, BasisSpec, UsageError, ball_radial, inner_product, wfunc_radial,
)
from ballspec.expand import (
    CoeffTensor,
    analyze,
    analyze_ball3,
    analyze_disc,
    analyze_polar_weighted,
    coeff_decay_table,
    error_report,
    error_report_polar,
    export_decay_csv,
    export_report_json,
    flatten_index,
    standard_grid,
    synthesize,
    synthesize_polar_weighted,
)
from ballspec import cli, expand
from ballspec.split import SplitPair, make_pos, raw_pair, verify_pos


def standard_field(r, th):
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (np.asarray(th) + 0.5))


def basis_field(spec, n, m):
    def f(r, th):
        from ballspec.basis import wfunc_radial
        return wfunc_radial(spec, n, r) * np.exp(1j * m * np.asarray(th))
    return f


DISC_SPEC = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=5)


def test_analyze_basis_function_gives_unit_indicator():
    f = basis_field(DISC_SPEC, 2, 1)
    coeffs = analyze_disc(raw_pair(f), DISC_SPEC, check=False)
    ref = np.zeros((7, 11))
    ref[2, 1 + 5] = 1.0
    assert np.max(np.abs(coeffs.fhat - ref)) < 1e-12


def test_analyze_theta_independent_field_has_single_mode():
    f = lambda r, th: np.asarray(r) * (1.0 - np.asarray(r)) * np.ones_like(np.asarray(th))
    coeffs = analyze_disc(raw_pair(f), DISC_SPEC, check=False)
    off = coeffs.fhat.copy()
    off[:, 5] = 0.0
    assert np.max(np.abs(off)) < 1e-12


def test_conjugate_symmetry_for_real_fields():
    f = lambda r, th: np.asarray(r) * (1.0 - np.asarray(r)) * np.cos(2.0 * np.asarray(th))
    coeffs = analyze_disc(raw_pair(f), DISC_SPEC, check=False)
    for m in range(1, 6):
        assert np.allclose(coeffs.fhat[:, 5 - m],
                           np.conj(coeffs.fhat[:, 5 + m]), atol=1e-12)


def test_analyze_rejects_unverified_pair():
    with pytest.raises(UsageError):
        analyze_disc(raw_pair(standard_field), DISC_SPEC, check=True)


def test_round_trip_on_basis_function():
    f = basis_field(DISC_SPEC, 3, -2)
    coeffs = analyze_disc(raw_pair(f), DISC_SPEC, check=False)
    mesh = np.meshgrid(*standard_grid(6, 2), indexing="ij")
    err = synthesize(coeffs, *mesh) - f(*mesh)
    assert np.max(np.abs(err)) < 1e-11


def test_headline_accuracy_77_coefficients():
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, DISC_SPEC)
    report = error_report(standard_field, coeffs, M=6)
    assert report.e_inf < 1e-8
    assert report.e_2 < 1e-8 * 10


def test_parseval_inequality_and_gap():
    pair = make_pos(standard_field)
    from ballspec.basis import inner_product
    f1_norm2 = inner_product(pair.f1, pair.f1, resolution=64).real
    prev_gap = None
    for n_trunc in (2, 4, 6):
        spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=n_trunc, K=5)
        coeffs = analyze_disc(pair, spec)
        s = np.sum(np.abs(coeffs.fhat) ** 2)
        gap = f1_norm2 - s
        assert gap > -1e-10
        if prev_gap is not None:
            assert gap < prev_gap * 0.1  # geometric shrinkage
        prev_gap = gap


def test_adjoint_consistency_on_random_tensor():
    rng = np.random.default_rng(4)
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=3, K=2)
    c = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    from ballspec.expand import CoeffTensor
    tensor = CoeffTensor(fhat=c, fcirc={}, spec=spec, pair=None)
    g = basis_field(spec, 2, -1)
    from ballspec.basis import inner_product
    lhs = inner_product(lambda r, th: synthesize(tensor, r, th), g, resolution=64)
    ghat = analyze_disc(raw_pair(g), spec, check=False).fhat
    rhs = np.sum(c * np.conj(ghat))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_flatten_index_bijection():
    spec = DISC_SPEC
    assert flatten_index(0, -5, spec) == 0
    assert flatten_index(6, 5, spec) == 76
    seen = set()
    for n in range(7):
        for m in range(-5, 6):
            q = flatten_index(n, m, spec)
            assert divmod(q, 2 * spec.K + 1) == (n, m + spec.K)
            seen.add(q)
    assert seen == set(range(77))
    with pytest.raises(UsageError):
        flatten_index(7, 0, spec)


def test_single_mode_field_occupies_expected_flat_indices():
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, DISC_SPEC)
    report = error_report(standard_field, coeffs, M=6)
    top = max(v for _, v in report.coeff_decay)
    nonzero = [q for q, v in report.coeff_decay if v > 1e-12 * top]
    assert nonzero == [flatten_index(n, 1, DISC_SPEC) for n in range(7)]


def test_standard_grid_shape_and_endpoints():
    r, th = standard_grid(6, 2)
    assert len(r) == 7 and len(th) == 7
    assert r[0] == 0.0 and r[-1] == pytest.approx(1.0)
    assert th[0] == -np.pi and th[-1] == pytest.approx(np.pi)
    r3, t1, t2 = standard_grid(6, 3)
    assert t2[-1] == pytest.approx(np.pi)


def test_truncation_monotonicity_in_flat_order():
    """Adding coefficients in flat-index order never worsens the plateau."""
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, DISC_SPEC)
    full = error_report(standard_field, coeffs, M=6).e_inf
    from ballspec.expand import CoeffTensor
    flat = coeffs.fhat.reshape(-1)
    errors = []
    for keep in (11, 33, 55, 77):
        trunc = np.zeros_like(flat)
        trunc[:keep] = flat[:keep]
        tensor = CoeffTensor(fhat=trunc.reshape(coeffs.fhat.shape),
                             fcirc=coeffs.fcirc, spec=DISC_SPEC, pair=pair)
        errors.append(error_report(standard_field, tensor, M=6).e_inf)
    assert all(e2 <= e1 * 1.01 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] == pytest.approx(full, rel=1e-10)


def test_ball3_basis_function_round_trip():
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=5, K=3)

    def f(r, t1, t2):
        from ballspec.basis import ball_phase, ball_radial
        return ball_radial(spec, 1, r) * ball_phase(np.array([1, 2]), [t1, t2])

    coeffs = analyze_ball3(raw_pair(f, d=3), spec, check=False)
    ref = np.zeros((6, 7, 7))
    ref[1, 1 + 3, 2 + 3] = 1.0
    assert np.max(np.abs(coeffs.fhat - ref)) < 1e-12


def test_ball3_full_pipeline_accuracy():
    f = lambda r, t1, t2: (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (0.5 + np.asarray(t1) + 2.0 * np.asarray(t2)))
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=5, K=3)
    pair = make_pos(f, d=3)
    coeffs = analyze_ball3(pair, spec)
    report = error_report(f, coeffs, M=6)
    assert report.e_inf < 1e-6


def test_polar_weighted_family_round_trip():
    coeffs = analyze_polar_weighted(standard_field, 6, 5, 2.0)
    report = error_report_polar(standard_field, coeffs, M=6)
    assert report.e_inf < 1e-5
    # decay is geometric for this analytic field
    top = max(v for _, v in report.coeff_decay)
    nz = [v for _, v in report.coeff_decay if v > 1e-12 * top]
    assert nz[-1] < 1e-6 * nz[0]


def test_larger_quad_pad_keeps_converged_coefficients(monkeypatch):
    assert expand.QUAD_PAD == 8
    f = basis_field(DISC_SPEC, 2, 1)
    base = analyze_disc(raw_pair(f), DISC_SPEC, check=False).fhat
    monkeypatch.setattr(expand, "QUAD_PAD", 20)
    padded = analyze_disc(raw_pair(f), DISC_SPEC, check=False).fhat
    assert np.max(np.abs(base - padded)) < 1e-12
    # and so does the split headline configuration
    pair = make_pos(standard_field)
    padded = analyze_disc(pair, DISC_SPEC).fhat
    monkeypatch.setattr(expand, "QUAD_PAD", 8)
    assert np.max(np.abs(analyze_disc(pair, DISC_SPEC).fhat - padded)) < 1e-12


def test_export_round_trips(tmp_path):
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, DISC_SPEC)
    report = error_report(standard_field, coeffs, M=6)
    jpath = tmp_path / "report.json"
    export_report_json(report, jpath)
    back = json.loads(jpath.read_text())
    assert back["e_inf"] == report.e_inf
    assert back["coeff_decay"][5][1] == report.coeff_decay[5][1]
    cpath = tmp_path / "decay.csv"
    export_decay_csv(report, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "q,abs_coeff"
    assert len(lines) == 1 + len(report.coeff_decay)


def reference_synthesis(coeffs, r, *thetas):
    """The closed sum g_m T + f1_m / (1 + c_m) per split mode, with per-degree
    radial calls and an exp per mode on the broadcast angles, and the same
    reductions as the library: degree sums over the distinct radii, modes
    added in flat order."""
    spec, pair = coeffs.spec, coeffs.pair
    K = spec.K
    radial = wfunc_radial if spec.d == 2 else ball_radial
    ru, inv = np.unique(r, return_inverse=True)
    rad = np.array([radial(spec, n, ru) for n in range(spec.N + 1)])
    out = np.zeros(np.broadcast(r, *thetas).shape, dtype=complex)
    cols = coeffs.fhat.reshape(spec.N + 1, -1).T
    if spec.d == 2:
        modes = [(m,) for m in range(-K, K + 1)]
    else:
        modes = [(k1, k2) for k1 in range(-K, K + 1) for k2 in range(-K, K + 1)]
    for mode, col in zip(modes, cols):
        key = mode[0] if spec.d == 2 else mode
        if key in coeffs.fcirc:
            prof = coeffs.fcirc[key] * pair.profile(ru) + (col @ rad) / (1.0 + pair.c[key])
        elif np.any(col):
            prof = col @ rad
        else:
            continue
        arg = mode[0] * thetas[0] if spec.d == 2 else \
            mode[0] * thetas[0] + 2.0 * mode[1] * thetas[1]
        out = out + prof[inv].reshape(r.shape) * np.exp(1j * arg)
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_synthesize_equals_per_degree_per_mode_loop(d):
    if d == 2:
        f = lambda r, th: (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) * sum(
            np.exp(1j * m * (np.asarray(th) + 0.5)) / (1 + m * m) for m in range(-4, 5))
        spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=20, K=4)
        coeffs = analyze_disc(make_pos(f), spec)
    else:
        f = lambda r, t1, t2: (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
            * np.exp(1j * (0.5 + np.asarray(t1) + 2.0 * np.asarray(t2)))
        spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=8, K=2)
        coeffs = analyze_ball3(make_pos(f, d=3), spec)
    # on the open mesh the distinct radii are r itself, so the library's
    # degree sums have the reference's shape
    mesh = np.meshgrid(*standard_grid(24, d), indexing="ij", sparse=True)
    assert np.array_equal(synthesize(coeffs, *mesh), reference_synthesis(coeffs, *mesh))


def test_synthesize_dispatches_on_the_polar_family():
    coeffs = analyze_polar_weighted(standard_field, 6, 5, 2.0)
    mesh = np.meshgrid(*standard_grid(9), indexing="ij")
    assert np.array_equal(synthesize(coeffs, *mesh), synthesize_polar_weighted(coeffs, *mesh))
    general = error_report(standard_field, coeffs, M=6)
    polar = error_report_polar(standard_field, coeffs, M=6)
    assert (general.e_inf, general.e_2) == (polar.e_inf, polar.e_2)
    assert general.e_inf < 1e-5


def test_synthesize_refuses_polar_family_coefficients_off_the_disc():
    # the r-weighted family exists only on the disc, so its spec refuses d=3
    # and no such coefficients can reach synthesis
    with pytest.raises(UsageError, match="disc only"):
        BasisSpec(alpha=2.0, beta=2.0, d=3, N=3, K=1, kind=BasisKind.EX1_WEIGHTED)


@pytest.mark.parametrize("kind", [BasisKind.EX1_WEIGHTED])
def test_analyze_ball3_refuses_other_families(kind):
    # the only other family is the disc's, so the refusal is seen on d=2
    spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=3, K=2, kind=kind)
    field = lambda r, t: np.zeros(np.broadcast(r, t).shape)
    with pytest.raises(UsageError, match="weighted basis"):
        analyze(raw_pair(field), spec, check=False)


def counted(f):
    """f with a running count of the points it is evaluated on."""
    def g(r, *thetas):
        g.points += np.broadcast(np.asarray(r), *thetas).size
        return f(r, *thetas)
    g.points = 0
    return g


def test_synthesize_never_evaluates_the_field():
    f = counted(standard_field)
    coeffs = analyze_disc(make_pos(f), DISC_SPEC)
    f.points = 0
    mesh = np.meshgrid(*standard_grid(24), indexing="ij")
    synthesize(coeffs, *mesh)
    synthesize(coeffs, 0.3, 0.1)
    assert f.points == 0


@pytest.mark.parametrize("spec", [DISC_SPEC, BasisSpec(alpha=2.0, beta=2.0, d=2, N=20, K=9)])
def test_analysis_samples_the_field_once(spec):
    f = counted(standard_field)
    pair = make_pos(f)
    f.points = 0
    analyze_disc(pair, spec, check=False)
    assert f.points == (spec.N + expand.QUAD_PAD) * max(2 * spec.K + 2, 16)


def test_closed_expansion_error_is_the_residual_error_over_one_plus_c():
    # the callback form f0 + sum fhat errs by the truncation error of f1;
    # the closed form by that of f_m - g_m T, which is |1 + c| times smaller
    pair = make_pos(standard_field)
    coeffs = analyze_disc(pair, DISC_SPEC)
    closed = error_report(standard_field, coeffs, M=6).e_inf
    mesh = np.meshgrid(*standard_grid(6), indexing="ij")
    f1_sum = synthesize(CoeffTensor(fhat=coeffs.fhat, fcirc={}, spec=DISC_SPEC), *mesh)
    callback = np.max(np.abs(pair.f0(*mesh) + f1_sum - standard_field(*mesh)))
    assert closed * abs(1.0 + pair.c[1]) == pytest.approx(callback, rel=1e-6)
    assert closed < callback


def test_affine_part_without_pair_is_refused():
    with pytest.raises(UsageError, match="fcirc"):
        CoeffTensor(fhat=np.zeros((7, 11), dtype=complex), fcirc={1: 1.0}, spec=DISC_SPEC)


def test_degenerate_split_expands_the_modes_without_an_origin_value():
    # mode 1 is a template multiple (a degenerate pair); mode 2 vanishes at
    # the origin and is carried by fhat
    f = lambda r, th: (1.0 - np.asarray(r)) * np.exp(1j * np.asarray(th)) \
        + np.asarray(r) * (1.0 - np.asarray(r)) * np.exp(2j * np.asarray(th))
    pair = make_pos(f)
    assert pair.degenerate and list(pair.c) == [1]
    coeffs = analyze_disc(pair, DISC_SPEC)
    assert not np.any(coeffs.fhat[:, 1 + 5])
    assert error_report(f, coeffs, M=6).e_inf < 1e-14


def test_d4_standard_field_splits_and_expands_geometrically():
    # the d=4 analogue of the standard field, at small (N, K)
    f2, f4 = cli.test_field(2), cli.test_field(4)
    pair = make_pos(f4, d=4, k_max=2)
    c2 = make_pos(f2).c
    assert list(pair.c) == [(1, 1, 1)]
    assert abs(pair.c[(1, 1, 1)] - c2[1]) <= 1e-12
    errors = [error_report(f4, analyze(pair, BasisSpec(2.0, 2.0, d=4, N=N, K=1),
                                       check=False)).e_inf for N in (4, 6, 8)]
    assert all(e2 <= 1e-2 * e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-12


def test_analyze_refuses_a_split_of_another_dimension():
    with pytest.raises(UsageError, match="d=2 split"):
        analyze(raw_pair(standard_field), BasisSpec(2.0, 2.0, d=3, N=3, K=2), check=False)


@pytest.mark.parametrize("s", [1.0, 1e4])
def test_split_verification_is_relative_to_the_field_scale(s):
    f = lambda r, th: s * standard_field(r, th)
    pair = make_pos(f)
    analyze(pair, DISC_SPEC)
    bent = dataclasses.replace(pair, f0=lambda r, th: pair.f0(r, th) + 1e-6 * f(r, th))
    with pytest.raises(UsageError, match="fails verification"):
        analyze(bent, DISC_SPEC)


def test_analysis_refuses_a_nan_split():
    # make_pos refuses this field, so it replaces the field of a finite pair
    f = lambda r, th: np.where(np.asarray(r) > 0.5, np.nan, standard_field(r, th))
    pair = dataclasses.replace(make_pos(standard_field), f=f)
    with pytest.raises(UsageError, match="fails verification"):
        analyze(pair, DISC_SPEC)


def recorded(f):
    """f with a record of each call's (largest argument size, broadcast shape)."""
    def g(*args):
        g.calls.append((max(np.size(a) for a in args), np.broadcast(*args).shape))
        return f(*args)
    g.calls = []
    return g


@pytest.mark.parametrize("d", [2, 3])
def test_every_sampling_site_samples_an_open_mesh(d):
    # each site passes coordinates no larger than the mesh's longest axis,
    # and the field still sees every point of the full mesh
    f = recorded(cli.test_field(d))
    spec = BasisSpec(2.0, 2.0, d=d, N=4, K=2)
    body, edge, ortho = (48,) + (32,) * (d - 1), (1,) + (32,) * (d - 1), (48,) * d
    origin, nodes = (1,) + (8,) * (d - 1), (48,) + (8,) * (d - 1)
    calls = {}

    def site(name, run):
        f.calls = []
        out = run()
        calls[name] = f.calls
        return out

    pair = site("make_pos", lambda: make_pos(f, d=d, k_max=2))
    pair.f0 = recorded(pair.f0)
    # f0 re-samples f at r = 1 and r = 0, the radii that are not the split's
    site("verify_pos", lambda: verify_pos(pair))
    calls["verify_pos.f0"] = pair.f0.calls
    coeffs = site("analyze", lambda: analyze(pair, spec, check=False))
    site("inner_product", lambda: inner_product(f, f, resolution=8, d=d))
    site("error_report", lambda: error_report(f, coeffs, M=5))
    want = {
        "make_pos": [origin, nodes],
        "verify_pos": [body, edge, origin, edge, origin, ortho],
        "verify_pos.f0": [body, edge, edge, ortho],
        "analyze": [(4 + expand.QUAD_PAD,) + (16,) * (d - 1)],
        "inner_product": [(8,) * d] * 2,
        "error_report": [(6,) * d],
    }
    assert {name: sorted(shape for _, shape in c) for name, c in calls.items()} == \
        {name: sorted(shapes) for name, shapes in want.items()}
    for name, c in calls.items():
        for largest, shape in c:
            assert largest <= max(shape), name


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("radial", [lambda r: 1.0 - r, lambda r: (1.0 - r) * np.exp(r)])
def test_theta_independent_field_equals_its_full_shape_twin(d, radial):
    flat = lambda r, *th: radial(r)
    full = lambda r, *th: radial(r) * np.ones(np.broadcast(r, *th).shape)
    assert inner_product(flat, flat, d=d) == inner_product(full, full, d=d)
    pair, twin = make_pos(flat, d=d), make_pos(full, d=d)
    assert (pair.origin_coeffs, pair.c) == (twin.origin_coeffs, twin.c)
    spec = BasisSpec(2.0, 2.0, d=d, N=6, K=1)
    reports = [error_report(f, analyze(p, spec)) for f, p in ((flat, pair), (full, twin))]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("site", ["make_pos", "verify_pos", "analyze", "inner_product",
                                  "error_report"])
def test_a_field_of_the_wrong_shape_is_refused(site):
    wrong = lambda r, th: np.ones(3)
    coeffs = analyze_disc(make_pos(standard_field), DISC_SPEC)
    run = {
        "make_pos": lambda: make_pos(wrong),
        "verify_pos": lambda: verify_pos(raw_pair(wrong)),
        "analyze": lambda: analyze(raw_pair(wrong), DISC_SPEC, check=False),
        "inner_product": lambda: inner_product(wrong, standard_field),
        "error_report": lambda: error_report(wrong, coeffs),
    }[site]
    with pytest.raises(UsageError, match=r"mesh returned shape \(3,\)"):
        run()
