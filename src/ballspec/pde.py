"""Stable semidiscretisations of the diffusion and linear Schrodinger
equations built from bordered differentiation operators.

Per Fourier mode m, the generator is assembled from the bordered radial
operator E_r = diag(d, Dr), with the border scalar d of
diffmat.compound_radial, and the angular operator E_t = i*m*I as

    L_m = -(E_r^* E_r + E_t^* E_t),

a Hermitian negative semidefinite block.  Diffusion propagates with
exp(t L), which is contractive; the Schrodinger flow exp(i t L) is exactly
unitary.  The conjugate transpose is used throughout so that both physical
contracts hold by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .basis import UsageError
from .diffmat import DiffOpSet, RADIAL_SCALE, build_Dr_quad


class PdeKind(Enum):
    DIFFUSION = "diffusion"
    SCHRODINGER = "schrodinger"


@dataclass
class SemidiscreteOp:
    """Per-mode Hermitian generator blocks; slot 0 of each block is affine."""

    mode_blocks: dict
    d_scalar: complex
    kind: PdeKind

    @property
    def modes(self):
        return sorted(self.mode_blocks)

    @property
    def total_size(self):
        return sum(b.shape[0] for b in self.mode_blocks.values())


def assemble(kind: PdeKind, ops: DiffOpSet, d_scalar: complex) -> SemidiscreteOp:
    """Hermitian semidiscrete generator from a certified operator set and the
    border scalar d, one block per mode -K..K of ops.spec."""
    if not ops.spec.skew_certified:
        raise UsageError(
            "refusing to assemble from a non-certified basis: the radial "
            "matrix is skew symmetric only for alpha = beta > 0"
        )
    d = complex(d_scalar)
    dr = RADIAL_SCALE * ops.Dr.to_dense()
    radial_core = dr.T @ dr  # = -Dr^2, positive semidefinite for skew Dr
    n1 = dr.shape[0] + 1
    blocks = {}
    for m in range(-ops.spec.K, ops.spec.K + 1):
        block = np.zeros((n1, n1), dtype=complex)
        block[0, 0] = -(abs(d) ** 2 + m * m)
        block[1:, 1:] = -(radial_core + m * m * np.eye(dr.shape[0]))
        blocks[m] = block
    return SemidiscreteOp(mode_blocks=blocks, d_scalar=d, kind=kind)


def split_by_mode(op: SemidiscreteOp, v: np.ndarray):
    """Slice a stacked coefficient vector into per-mode segments."""
    v = np.asarray(v)
    if v.shape != (op.total_size,):
        raise UsageError(f"vector length {v.shape} != {op.total_size}")
    out = {}
    start = 0
    for m in op.modes:
        n = op.mode_blocks[m].shape[0]
        out[m] = v[start:start + n]
        start += n
    return out


def propagate(op: SemidiscreteOp, v: np.ndarray, t: float) -> np.ndarray:
    """Exact flow of the semidiscrete system over time t.

    Diffusion uses exp(t L); Schrodinger uses exp(i t L) and is valid for
    negative t as well.
    """
    if op.kind is PdeKind.DIFFUSION and t < 0.0:
        raise UsageError("diffusion flow is defined for t >= 0 only")
    segments = split_by_mode(op, v)
    out = []
    for m in op.modes:
        gen = op.mode_blocks[m]
        gen = 1j * gen if op.kind is PdeKind.SCHRODINGER else gen
        out.append(scipy.linalg.expm(t * gen) @ segments[m].astype(complex))
    return np.concatenate(out)


def norm_bound(op: SemidiscreteOp, t: float) -> float:
    """Growth bound exp(|d|^2 t) for the diffusion flow; 1 for Schrodinger."""
    if op.kind is PdeKind.SCHRODINGER:
        return 1.0
    return float(np.exp(abs(op.d_scalar) ** 2 * t))


def spectral_abscissa(op: SemidiscreteOp) -> float:
    """Largest real part over the eigenvalues of all generator blocks."""
    worst = -np.inf
    for m in op.modes:
        gen = op.mode_blocks[m]
        gen = 1j * gen if op.kind is PdeKind.SCHRODINGER else gen
        worst = max(worst, float(np.max(np.real(np.linalg.eigvals(gen)))))
    return worst


@dataclass
class StabilityRow:
    t: float
    norm_ratio: float
    bound: float


def stability_report(op: SemidiscreteOp, t_grid, rng=None) -> list:
    """Propagated norm-growth ratios against the analytic bound."""
    rng = rng or np.random.default_rng(0)
    v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
    v /= np.linalg.norm(v)
    rows = []
    for t in t_grid:
        w = propagate(op, v, t)
        rows.append(StabilityRow(t=float(t), norm_ratio=float(np.linalg.norm(w)),
                                 bound=norm_bound(op, t)))
    return rows


def abscissa_scan(alpha: float, beta: float, n_values, m: int = 1) -> list:
    """Spectral abscissa of the raw second-derivative surrogate D @ D - m^2 I
    across truncations, with D built by quadrature for the (alpha, beta)
    family.

    For a skew-symmetric D this equals -(D^T D) - m^2 I and the abscissa is
    nonpositive; for the beta = 0 family the abscissa is positive and grows
    with the truncation, exhibiting the loss of stability.
    """
    rows = []
    for n in n_values:
        d = RADIAL_SCALE * build_Dr_quad(n, alpha, beta)
        gen = d @ d - m * m * np.eye(d.shape[0])
        rows.append((n, float(np.max(np.real(np.linalg.eigvals(gen))))))
    return rows


def export_trajectory_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "norm", "bound"])
        for row in rows:
            writer.writerow([f"{row.t:.17g}", f"{row.norm_ratio:.17g}", f"{row.bound:.17g}"])
