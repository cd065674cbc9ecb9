"""Tests for the orthogonal splitting of fields on the disc and ball."""

import dataclasses

import numpy as np
import pytest

from ballspec import cli
from ballspec.basis import (UsageError, angular_dft, angular_grid, cell_measures,
                            inner_product, on_mesh)
from ballspec.jacobi import gauss_jacobi_01
from ballspec.split import (
    N_RADIAL,
    SplitReport,
    check_split,
    make_pos,
    raw_pair,
    verify_pos,
)


def linear_template(r):
    return 1.0 - np.asarray(r, dtype=float)


def cosine_template(r):
    return np.cos(0.5 * np.pi * np.asarray(r, dtype=float))


TEMPLATES = {"linear": linear_template, "cosine": cosine_template}


def standard_field(r, th):
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (np.asarray(th) + 0.5))


def worst_residual(rep):
    return max(rep.sum_residual, rep.boundary_residual,
               rep.origin_residual, rep.orthogonality_residual)


def test_linear_template_split_satisfies_all_conditions():
    pair = make_pos(standard_field)
    assert worst_residual(verify_pos(pair)) < 1e-12
    # the default template is 1 - r, bit for bit
    r = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(pair.profile(r), linear_template(r))


def test_cosine_template_split_satisfies_all_conditions():
    pair = make_pos(standard_field, cosine_template)
    assert worst_residual(verify_pos(pair)) < 1e-12


def test_split_sum_is_pointwise_exact():
    pair = make_pos(standard_field)
    rng = np.random.default_rng(0)
    r = rng.uniform(0.0, 1.0, 30)
    th = rng.uniform(-np.pi, np.pi, 30)
    total = pair.f0(r, th) + pair.f1(r, th)
    assert np.max(np.abs(total - standard_field(r, th))) < 1e-12


def test_split_gram_schmidt_coefficient():
    """One Gram-Schmidt step: c = <g T, f - g T> / ||f - g T||^2 per mode."""
    pair = make_pos(standard_field)
    assert list(pair.c) == [1]
    g = pair.origin_coeffs[1]
    T = linear_template

    from ballspec.jacobi import gauss_jacobi_01
    rq, wq = gauss_jacobi_01(64, 0.0, 0.0)
    fm = (1.0 - rq) * np.exp(rq) * np.exp(0.5j)  # mode-1 radial profile
    resid = fm - g * T(rq)
    c_ref = np.dot(wq, g * T(rq) * np.conj(resid)) / np.dot(wq, np.abs(resid) ** 2)
    assert pair.c[1] == pytest.approx(c_ref, rel=1e-10)


def test_split_orthogonality_under_box_product():
    pair = make_pos(standard_field, cosine_template)
    ip = inner_product(pair.f0, pair.f1, resolution=64)
    assert abs(ip) < 1e-12


def test_template_multiple_is_degenerate():
    # a pure template multiple keeps c = 0 and goes through the general map,
    # so its residual part is zero to rounding
    f = lambda r, th: (1.0 - np.asarray(r)) * np.exp(1j * np.asarray(th))
    pair = make_pos(f)
    assert pair.c == {1: 0j}
    r = np.linspace(0.0, 1.0, 9)
    th = np.zeros(9)
    assert np.max(np.abs(pair.f1(r, th))) <= 4 * np.finfo(float).eps * np.max(np.abs(f(r, th)))
    assert np.max(np.abs(pair.f0(r, th) - f(r, th))) < 1e-14


def test_split_three_dimensional_field():
    f = lambda r, t1, t2: (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (0.5 + np.asarray(t1) + 2.0 * np.asarray(t2)))
    pair = make_pos(f, d=3)
    assert worst_residual(verify_pos(pair)) < 1e-12


def test_custom_template():
    T = lambda r: (1.0 - np.asarray(r)) ** 2
    pair = make_pos(standard_field, T)
    assert pair.profile is T
    assert worst_residual(verify_pos(pair)) < 1e-12


def test_template_must_be_a_radial_callable():
    with pytest.raises(UsageError, match="radial callable"):
        make_pos(standard_field, "cosine")


def test_raw_pair_is_trivial():
    pair = raw_pair(standard_field)
    r = np.linspace(0.0, 1.0, 5)
    th = np.zeros(5)
    assert np.max(np.abs(pair.f0(r, th))) == 0.0
    assert np.max(np.abs(pair.f1(r, th) - standard_field(r, th))) == 0.0


def test_raw_pair_fails_verification_for_nonvanishing_origin():
    rep = verify_pos(raw_pair(standard_field))
    assert rep.origin_residual > 0.1


def test_make_pos_refuses_a_negative_k_max():
    with pytest.raises(UsageError, match="k_max"):
        make_pos(standard_field, k_max=-1)


def multi_mode_field(r, th):
    r, th = np.asarray(r), np.asarray(th)
    return (1.0 - r) * sum(np.exp((0.3 * m - 1.0) * r + 1j * m * (th + 0.2 * m))
                           for m in range(-3, 4))


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_f0_at_split_nodes_equals_resampling_path(template):
    # f0 at make_pos's own radial nodes reuses its samples; the reference
    # re-samples f there and forms g T - c (f_m - g T) in the same mode order
    T = TEMPLATES[template]
    pair = make_pos(multi_mode_field, T)
    rq, _ = gauss_jacobi_01(48, 0.0, 0.0)
    fm = angular_dft(multi_mode_field(*np.meshgrid(rq, *angular_grid(2, 64), indexing="ij")),
                     2, 16, mean=True)
    th = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    mesh = np.meshgrid(rq, th, indexing="ij")
    ref = np.zeros(mesh[0].shape, dtype=complex)
    for m, g in pair.origin_coeffs.items():
        prof = g * T(rq) - pair.c[m] * (fm[m] - g * T(rq))
        ref = ref + prof[:, None] * np.exp(1j * m * th)[None, :]
    assert any(c != 0.0 for c in pair.c.values())
    assert np.array_equal(pair.f0(*mesh), ref)


def test_split_report_worst_is_the_largest_residual():
    rep = verify_pos(raw_pair(standard_field))
    assert rep.worst == worst_residual(rep) > 0.0


def test_tiny_field_keeps_its_origin_mode():
    s = 1e-16
    pair = make_pos(lambda r, th: s * standard_field(r, th))
    assert list(pair.c) == [1]
    assert verify_pos(pair).origin_residual / s < 1e-12


@pytest.mark.parametrize("s", [1e-16, 1e-8, 1e4])
def test_split_coefficient_is_scale_invariant(s):
    c = make_pos(standard_field).c
    scaled = make_pos(lambda r, th: s * standard_field(r, th)).c
    assert list(scaled) == list(c)
    assert abs(scaled[1] - c[1]) <= 1e-12 * abs(c[1])


@pytest.mark.parametrize("f, d, k_max", [(cli.test_field(2), 2, 16), (multi_mode_field, 2, 5),
                                         (cli.test_field(3), 3, 4)],
                         ids=["cli_field", "multi_mode", "d3"])
def test_residual_coeffs_are_the_angular_integrals_of_f1(f, d, k_max):
    # the per-mode map that analysis applies to f's angular integrals gives
    # those of f1 = f - f0, at make_pos's own radii and angles
    pair = make_pos(f, d=d, k_max=k_max)
    rq, _ = gauss_jacobi_01(N_RADIAL, 0.0, 0.0)
    axes = (rq, *angular_grid(d, 4 * max(k_max, 1)))
    F = angular_dft(on_mesh(f, *axes), d, k_max)
    want = pair.residual_coeffs(F, rq, 2.0 * np.pi ** (d - 1))
    got = angular_dft(on_mesh(pair.f1, *axes), d, k_max)
    assert pair.origin_coeffs and got.keys() == want.keys()
    worst = max(np.max(np.abs(got[m] - want[m])) for m in got)
    assert worst <= 1e-13 * max(np.max(np.abs(v)) for v in F.values())


def field_3d(r, t1, t2):
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (0.5 + np.asarray(t1) + 2.0 * np.asarray(t2)))


def degenerate_field(r, th):
    return (1.0 - np.asarray(r)) * np.exp(1j * np.asarray(th))


def callable_report(pair, f1):
    """verify_pos as a formula over callables: every residual re-samples
    pair.f0 and the residual part f1 on its own mesh, and the orthogonality
    residual is the box quadrature of f0 conj(f1) on the Gauss-Legendre
    radii times 48 angles per axis."""
    grids = angular_grid(pair.d, 32)
    rq, wq = gauss_jacobi_01(48, 0.0, 0.0)
    mesh = np.meshgrid(rq, *grids, indexing="ij")
    f = pair.f(*mesh)
    bmesh = np.meshgrid(np.array([1.0]), *grids, indexing="ij")
    omesh = np.meshgrid(np.array([0.0]), *grids, indexing="ij")
    qmesh = np.meshgrid(rq, *angular_grid(pair.d, 48), indexing="ij")
    vals = pair.f0(*qmesh) * np.conj(f1(*qmesh))
    for _ in range(pair.d - 1):
        vals = vals.sum(axis=-1)
    ortho = complex(np.dot(wq, vals) * np.prod(cell_measures(pair.d, 48)))
    return SplitReport(
        sum_residual=float(np.max(np.abs(pair.f0(*mesh) + f1(*mesh) - f))),
        boundary_residual=max(float(np.max(np.abs(pair.f0(*bmesh)))),
                              float(np.max(np.abs(f1(*bmesh))))),
        origin_residual=max(float(np.max(np.abs(f1(*omesh)))),
                            float(np.max(np.abs(pair.f0(*omesh) - pair.f(*omesh))))),
        orthogonality_residual=float(abs(ortho)),
        scale=float(np.max(np.abs(f))))


SPLIT_CASES = {
    "linear": lambda: make_pos(standard_field),
    "cosine": lambda: make_pos(standard_field, cosine_template),
    "multi_mode": lambda: make_pos(multi_mode_field, cosine_template),
    "scaled": lambda: make_pos(lambda r, th: 1e4 * standard_field(r, th)),
    "ball3d": lambda: make_pos(field_3d, d=3),
    "degenerate": lambda: make_pos(degenerate_field),
    "raw": lambda: raw_pair(standard_field),
    "raw_3d": lambda: raw_pair(field_3d, d=3),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_report_equals_the_callable_formula(case):
    pair = SPLIT_CASES[case]()
    # the residual part written out: f itself in a raw pair, f - f0 otherwise
    if case.startswith("raw"):
        f1 = pair.f
    else:
        f1 = lambda r, *thetas: pair.f(r, *thetas) - pair.f0(r, *thetas)
    assert verify_pos(pair) == callable_report(pair, f1)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_residual_part_is_f_minus_f0_bit_for_bit(case):
    pair = SPLIT_CASES[case]()
    rng = np.random.default_rng(5)
    points = [rng.uniform(0.0, 1.0, 40), rng.uniform(-np.pi, np.pi, 40)] + \
        [rng.uniform(0.0, np.pi, 40) for _ in range(pair.d - 2)]
    got = pair.f1(*points)
    want = pair.f(*points) - pair.f0(*points)
    assert got.tobytes() == want.tobytes()
    if case.startswith("raw"):
        assert np.array_equal(got, pair.f(*points))
    if case == "degenerate":
        assert np.max(np.abs(got)) <= 4 * np.finfo(float).eps * np.max(np.abs(pair.f(*points)))


@pytest.mark.parametrize("d, field", [(2, standard_field), (3, field_3d)])
def test_verify_pos_samples_each_field_once_per_mesh(d, field):
    pair = make_pos(field, d=d)
    shapes = {"f": [], "f0": []}

    def counted(name, fn):
        def wrapped(*mesh):
            shapes[name].append(np.broadcast(*mesh).shape)
            return fn(*mesh)
        return wrapped

    pair.f, pair.f0 = counted("f", pair.f), counted("f0", pair.f0)
    verify_pos(pair)
    meshes = [(48,) + (32,) * (d - 1), (1,) + (32,) * (d - 1), (1,) + (32,) * (d - 1),
              (48,) * d]
    assert sorted(shapes["f"]) == sorted(meshes)
    assert sorted(shapes["f0"]) == sorted(meshes)


def test_check_split_gates_the_relative_residual():
    assert check_split(make_pos(standard_field)) == verify_pos(make_pos(standard_field))
    with pytest.raises(UsageError, match="relative residual"):
        check_split(raw_pair(standard_field))


def nan_outside_half(r, th):
    return np.where(np.asarray(r) > 0.5, np.nan, standard_field(r, th))


def inf_near_origin(r, th):
    return np.where(np.asarray(r) < 0.1, np.inf, standard_field(r, th))


def test_check_split_refuses_a_nan_report():
    # make_pos refuses this field; a pair whose field is swapped for it after
    # the split still gets a NaN report, and only the verification refuses it
    pair = dataclasses.replace(make_pos(standard_field), f=nan_outside_half)
    assert np.isnan(verify_pos(pair).relative)
    with pytest.raises(UsageError, match="relative residual nan"):
        check_split(pair)


@pytest.mark.parametrize("field", [nan_outside_half, inf_near_origin])
@pytest.mark.parametrize("d", [2, 3])
def test_make_pos_refuses_non_finite_samples(field, d):
    # nan_outside_half is finite at the origin and not at the split nodes;
    # inf_near_origin is not finite at the origin
    def f(r, *thetas):
        return field(r, thetas[0])
    with pytest.raises(UsageError, match="non-finite"):
        make_pos(f, d=d)
