"""Stable semidiscretisations of the diffusion and linear Schrodinger
equations built from bordered differentiation operators.

Per Fourier mode m, the generator is assembled from the bordered radial
operator E_r = diag(d, Dr), with the border scalar d of
diffmat.compound_radial, and the angular operator E_t = i*m*I as

    L_m = -(E_r^* E_r + E_t^* E_t) = -diag(|d|^2, C) - m^2 I,

a Hermitian negative semidefinite block with the real radial core
C = (2 Dr)^T (2 Dr) shared by every mode.  So one exponential of the core
serves all modes, each scaled by its scalar exp(-s t m^2), and the affine
slot is a scalar of its own.  Diffusion (s = 1) is contractive; the
Schrodinger flow (s = i) is exactly unitary.
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
    """The radial core C, the border scalar d and the modes -K..K.

    A stacked vector holds one segment of length N + 2 per mode, in the
    order -K..K; slot 0 of each segment is affine.
    """

    core: np.ndarray
    d_scalar: complex
    K: int
    kind: PdeKind

    @property
    def modes(self):
        return list(range(-self.K, self.K + 1))

    @property
    def total_size(self):
        return (2 * self.K + 1) * (self.core.shape[0] + 1)

    def block(self, m: int) -> np.ndarray:
        """Dense Hermitian generator L_m of mode m, for checks and oracles."""
        n = self.core.shape[0]
        gen = np.zeros((n + 1, n + 1), dtype=complex)
        gen[0, 0] = -(abs(self.d_scalar) ** 2 + m * m)
        gen[1:, 1:] = -(self.core + m * m * np.eye(n))
        return gen


def assemble(kind: PdeKind, ops: DiffOpSet, d_scalar: complex) -> SemidiscreteOp:
    """Semidiscrete generator of the disc from a certified operator set and
    the border scalar d, for the modes -K..K of ops.spec."""
    if not ops.spec.skew_certified:
        raise UsageError(
            "refusing to assemble from a non-certified basis: the radial "
            "matrix is skew symmetric only for alpha = beta > 0"
        )
    if ops.spec.d != 2:
        raise UsageError(f"the generator is assembled for d=2 only, got d={ops.spec.d}")
    dr = RADIAL_SCALE * ops.Dr.to_dense()
    # = -Dr^2, positive semidefinite for skew Dr
    return SemidiscreteOp(core=dr.T @ dr, d_scalar=complex(d_scalar), K=ops.spec.K, kind=kind)


def _segments(op: SemidiscreteOp, v) -> np.ndarray:
    """The stacked vector v as one row per mode."""
    v = np.asarray(v)
    if v.shape != (op.total_size,):
        raise UsageError(f"vector length {v.shape} != {op.total_size}")
    return v.reshape(2 * op.K + 1, -1)


def split_by_mode(op: SemidiscreteOp, v: np.ndarray):
    """Slice a stacked coefficient vector into per-mode segments (views)."""
    return dict(zip(op.modes, _segments(op, v)))


def propagate(op: SemidiscreteOp, v: np.ndarray, t: float) -> np.ndarray:
    """Exact flow exp(s t L) of the semidiscrete system over time t.

    Diffusion (s = 1) needs t >= 0; Schrodinger (s = i) is valid for
    negative t as well.  One expm of the core serves every mode: mode m is
    exp(-s t C) scaled by exp(-s t m^2), and its affine slot is the scalar
    exp(-s t (|d|^2 + m^2)).
    """
    t = float(t)
    if not np.isfinite(t):
        raise UsageError(f"propagation time must be finite, got {t}")
    if op.kind is PdeKind.DIFFUSION and t < 0.0:
        raise UsageError("diffusion flow is defined for t >= 0 only")
    s = 1j if op.kind is PdeKind.SCHRODINGER else 1.0
    rows = _segments(op, v)
    m2 = np.arange(-op.K, op.K + 1) ** 2
    flow = scipy.linalg.expm(-s * t * op.core)
    out = np.empty(rows.shape, dtype=complex)
    out[:, 0] = np.exp(-s * t * (abs(op.d_scalar) ** 2 + m2)) * rows[:, 0]
    out[:, 1:] = np.exp(-s * t * m2)[:, None] * (rows[:, 1:] @ flow.T)
    return out.ravel()


def norm_bound(op: SemidiscreteOp, t: float) -> float:
    """Growth bound exp(|d|^2 t) for the diffusion flow; 1 for Schrodinger."""
    if op.kind is PdeKind.SCHRODINGER:
        return 1.0
    return float(np.exp(abs(op.d_scalar) ** 2 * t))


def spectral_abscissa(op: SemidiscreteOp) -> float:
    """Largest real part over the eigenvalues of all dense generator blocks."""
    s = 1j if op.kind is PdeKind.SCHRODINGER else 1.0
    return max(float(np.max(np.real(np.linalg.eigvals(s * op.block(m))))) for m in op.modes)


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
