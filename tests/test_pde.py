"""Tests for the semidiscrete evolution operators."""

import numpy as np
import pytest
import scipy.linalg

from ballspec.basis import BasisSpec, UsageError
from ballspec.diffmat import build_diff_ops, compound_radial
from ballspec.pde import (
    PdeKind,
    abscissa_scan,
    assemble,
    export_trajectory_csv,
    norm_bound,
    propagate,
    spectral_abscissa,
    split_by_mode,
    stability_report,
)


def linear_compound(spec):
    ops = build_diff_ops(spec)
    s = 1.0 / np.sqrt(2.0 * np.pi / 3.0)
    h = lambda r, th: s * (1.0 - np.asarray(r, dtype=float)) \
        * np.ones_like(np.asarray(th, dtype=float))
    dh = lambda r, th: -s * np.ones(np.broadcast(np.asarray(r), np.asarray(th)).shape)
    return ops, compound_radial(ops, h, dh)


SPEC = BasisSpec(alpha=2.0, beta=2.0, d=2, N=8, K=2)


def test_blocks_are_hermitian_and_negative_semidefinite():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    for block in map(op.block, op.modes):
        assert np.max(np.abs(block - block.conj().T)) < 1e-12
        assert np.max(np.linalg.eigvalsh(block)) < 1e-10


def test_angular_mode_shifts_diagonal():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    # one block per mode -K..K of the spec, in that order
    assert op.modes == list(range(-SPEC.K, SPEC.K + 1))
    b0 = op.block(0)
    for m in op.modes:
        # the angular derivative acts as i*m, so mode m shifts the diagonal by -m^2
        shift = op.block(m) - b0
        assert np.max(np.abs(shift - np.diag(np.diag(shift)))) < 1e-12
        assert np.allclose(np.diag(shift), -float(m * m), atol=1e-12)


def test_schrodinger_generator_is_skew_hermitian():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.SCHRODINGER, ops, comp)
    for block in map(op.block, op.modes):
        gen = 1j * block
        assert np.max(np.abs(gen + gen.conj().T)) < 1e-12


def test_assemble_refuses_uncertified_basis():
    bad = BasisSpec(alpha=2.0, beta=0.0, d=2, N=4, K=1)
    good_ops, comp = linear_compound(SPEC)
    from ballspec.diffmat import DiffOpSet
    fake = DiffOpSet(Dr=good_ops.Dr, spec=bad)
    with pytest.raises(UsageError):
        assemble(PdeKind.DIFFUSION, fake, comp)


def test_assemble_refuses_other_dimensions():
    # the shift -m^2 is that of the disc's modes; a d=3 spec has (k1, k2) modes
    spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=4, K=1)
    with pytest.raises(UsageError, match="d=2"):
        assemble(PdeKind.DIFFUSION, build_diff_ops(spec), -1.5)


def test_propagate_identity_at_t_zero():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.total_size)
    assert np.max(np.abs(propagate(op, v, 0.0) - v)) < 1e-12


def test_diffusion_rejects_negative_time():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    with pytest.raises(UsageError):
        propagate(op, np.zeros(op.total_size), -1.0)


@pytest.mark.parametrize("kind", list(PdeKind))
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_propagate_refuses_non_finite_time(kind, t):
    ops, comp = linear_compound(SPEC)
    op = assemble(kind, ops, comp)
    with pytest.raises(UsageError, match="finite"):
        propagate(op, np.ones(op.total_size), t)


@pytest.mark.parametrize("K", [0, 4])
@pytest.mark.parametrize("kind", list(PdeKind))
def test_propagate_makes_one_expm_call_for_all_modes(monkeypatch, kind, K):
    ops, comp = linear_compound(BasisSpec(alpha=2.0, beta=2.0, d=2, N=8, K=K))
    op = assemble(kind, ops, comp)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
    propagate(op, np.ones(op.total_size), 0.5)
    assert calls == [(9, 9)]


def test_schrodinger_unitary_both_time_directions():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.SCHRODINGER, ops, comp)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
    v /= np.linalg.norm(v)
    for t in (-2.0, 0.1, 1.0, 10.0):
        assert abs(np.linalg.norm(propagate(op, v, t)) - 1.0) < 1e-9
    # reversibility
    w = propagate(op, propagate(op, v, 1.3), -1.3)
    assert np.max(np.abs(w - v)) < 1e-9


def test_diffusion_contractive():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
        v /= np.linalg.norm(v)
        for t in (0.1, 1.0, 10.0):
            w = propagate(op, v, t)
            assert np.linalg.norm(w) <= 1.0 + 1e-10
            assert np.linalg.norm(w) <= norm_bound(op, t) * (1.0 + 1e-8)


def test_field_restricted_contractivity():
    """Data supported away from the affine slot decays monotonically."""
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
    segments = split_by_mode(op, v)
    for seg in segments.values():
        seg[0] = 0.0  # zero the affine slot of each mode
    v = np.concatenate([segments[m] for m in op.modes])
    norms = [np.linalg.norm(propagate(op, v, t)) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_self_convergence_under_truncation_doubling():
    rng = np.random.default_rng(5)
    results = []
    for n_trunc in (8, 16, 32):
        spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=n_trunc, K=0)
        ops, comp = linear_compound(spec)
        op = assemble(PdeKind.DIFFUSION, ops, comp)
        v = np.zeros(op.total_size, dtype=complex)
        # smooth initial data: geometric coefficients in the mode-0 block
        v[1:] = 2.0 ** -np.arange(1.0, op.total_size)
        w = propagate(op, v, 0.5)
        results.append(w[:9])
    d1 = np.linalg.norm(results[1] - results[0])
    d2 = np.linalg.norm(results[2] - results[1])
    assert d2 < d1


def test_abscissa_scan_negative_control():
    bad = abscissa_scan(2.0, 0.0, [8, 16, 32])
    assert bad[0][1] > 0.0
    assert bad[1][1] > bad[0][1]
    assert bad[2][1] > bad[1][1]
    good = abscissa_scan(2.0, 2.0, [8, 16, 32], m=1)
    assert max(v for _, v in good) <= 1e-8


def test_stability_report_and_export(tmp_path):
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.DIFFUSION, ops, comp)
    rows = stability_report(op, (0.1, 1.0), rng=np.random.default_rng(7))
    assert all(row.norm_ratio <= row.bound * (1.0 + 1e-8) for row in rows)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,norm,bound"
    assert len(lines) == 3


def test_spectral_abscissa_skew_only():
    ops, comp = linear_compound(SPEC)
    op = assemble(PdeKind.SCHRODINGER, ops, comp)
    assert spectral_abscissa(op) < 1e-10
