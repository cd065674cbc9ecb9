"""Rank-structured matrix kernel: linear-time matvec, shifted solves and
contour-quadrature application of analytic matrix functions.

A SemiSep2 holds an (M+1)x(M+1) matrix through generator sequences: the
strictly lower part is an outer product p q^T, the strictly upper part
u v^T, each of rank at most 2, plus a diagonal.  An optional parity mask
zeroes every entry with even row+column sum; masked instances carry rank-1
generators so that every off-diagonal block of the materialised matrix
still has rank at most 2.

Shifted solves take a SemiSep2, a dense array or a SchurForm A = Z T Z^H.
contour_apply factors A once into a SchurForm, so each contour node costs
O(n^2) triangular solves (one, plus one refinement step) instead of an
O(n^3) LU; every solve is still certified by its residual against the
dense A, never against T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .jacobi import BallspecError, ParameterError


class SizeMismatchError(BallspecError, ValueError):
    pass


class SolveError(BallspecError, RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ContourError(BallspecError, RuntimeError):
    pass


def _as_gen(g, size):
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if g.shape[0] > 2 or g.shape[1] != size:
        raise SizeMismatchError(f"generator shape {g.shape} incompatible with size {size}")
    return g


@dataclass
class SemiSep2:
    """Rank-2 semi-separable matrix in generator form.

    A[i, j] = sum_s p[s, i] q[s, j]   for i > j,
    A[i, j] = sum_s u[s, i] v[s, j]   for i < j,
    A[i, i] = diag[i],
    all multiplied by the parity mask (row+col odd) when parity_mask is set.
    """

    size: int
    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    diag: np.ndarray = None
    parity_mask: bool = False

    def __post_init__(self):
        self.p = _as_gen(self.p, self.size)
        self.q = _as_gen(self.q, self.size)
        self.u = _as_gen(self.u, self.size)
        self.v = _as_gen(self.v, self.size)
        if self.diag is None:
            self.diag = np.zeros(self.size)
        self.diag = np.asarray(self.diag, dtype=float)
        if self.diag.shape != (self.size,):
            raise SizeMismatchError("diagonal length must equal size")
        if self.parity_mask and (self.p.shape[0] > 1 or self.u.shape[0] > 1):
            raise SizeMismatchError("parity-masked instances use rank-1 generators")

    # -- dense interface ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        n = self.size
        lower = self.p.T @ self.q
        upper = self.u.T @ self.v
        out = np.tril(lower, -1) + np.triu(upper, 1) + np.diag(self.diag)
        if self.parity_mask:
            idx = np.arange(n)
            out *= (idx[:, None] + idx[None, :]) % 2
        return out

    # -- fast algebra -------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense-equivalent product A @ x in O(size) flops via prefix sums."""
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise SizeMismatchError(f"vector length {x.shape} != {self.size}")
        if self.parity_mask:
            return self._matvec_masked(x)
        # lower part: y_i += p[:,i] . cumsum_{j<i} q[:,j] x_j
        qx = self.q * x
        lo = np.cumsum(qx, axis=1)
        y = self.diag * x
        y[1:] += np.einsum("si,si->i", self.p[:, 1:], lo[:, :-1])
        # upper part: suffix sums of v x
        vx = self.v * x
        hi = np.cumsum(vx[:, ::-1], axis=1)[:, ::-1]
        y[:-1] += np.einsum("si,si->i", self.u[:, :-1], hi[:, 1:])
        return y

    def _matvec_masked(self, x):
        n = self.size
        idx = np.arange(n)
        y = np.zeros(n, dtype=np.result_type(x.dtype, float))
        # nonzero entries need j of opposite parity to i
        qx = self.q[0] * x
        vx = self.v[0] * x
        for par in (0, 1):
            sel = (idx % 2) == 1 - par  # source parity opposite to target par
            rows = (idx % 2) == par
            lo = np.cumsum(np.where(sel, qx, 0.0))
            hi = np.cumsum(np.where(sel, vx, 0.0)[::-1])[::-1]
            contrib = np.zeros(n, dtype=y.dtype)
            contrib[1:] += self.p[0][1:] * lo[:-1]
            contrib[:-1] += self.u[0][:-1] * hi[1:]
            y[rows] += contrib[rows]
        # diagonal has even parity, always masked out
        return y

    def matvec_counted(self, x):
        """Reference O(size) matvec that counts multiplications.

        Pure-Python prefix-sum sweep used by the complexity harness; returns
        (A @ x, multiply_count).
        """
        n = self.size
        y = [0.0] * n
        mults = 0
        rank_lo = self.p.shape[0]
        rank_hi = self.u.shape[0]
        # forward sweep (strictly lower part)
        if self.parity_mask:
            acc = [0.0, 0.0]  # per source parity
            for i in range(n):
                if i >= 1:
                    y[i] += self.p[0][i] * acc[1 - (i % 2)]
                    mults += 1
                acc[i % 2] += self.q[0][i] * x[i]
                mults += 1
            acc = [0.0, 0.0]
            for i in range(n - 1, -1, -1):
                if i <= n - 2:
                    y[i] += self.u[0][i] * acc[1 - (i % 2)]
                    mults += 1
                acc[i % 2] += self.v[0][i] * x[i]
                mults += 1
        else:
            acc = [0.0] * rank_lo
            for i in range(n):
                for s in range(rank_lo):
                    if i >= 1:
                        y[i] += self.p[s][i] * acc[s]
                        mults += 1
                    acc[s] += self.q[s][i] * x[i]
                    mults += 1
            acc = [0.0] * rank_hi
            for i in range(n - 1, -1, -1):
                for s in range(rank_hi):
                    if i <= n - 2:
                        y[i] += self.u[s][i] * acc[s]
                        mults += 1
                    acc[s] += self.v[s][i] * x[i]
                    mults += 1
            for i in range(n):
                y[i] += self.diag[i] * x[i]
                mults += 1
        return np.array(y), mults


@dataclass(frozen=True)
class SchurForm:
    """Complex Schur form A = Z T Z^H of a dense matrix, kept next to A."""

    dense: np.ndarray
    t: np.ndarray
    z: np.ndarray


def _dense(a) -> np.ndarray:
    """The dense matrix of a SemiSep2, a SchurForm or an array."""
    if isinstance(a, SchurForm):
        return a.dense
    return a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)


def schur_form(a) -> SchurForm:
    """One complex Schur factorisation of a SemiSep2 or dense matrix."""
    # the same values; a complex A is applied to complex iterates without a cast
    dense = _dense(a).astype(complex)
    t, z = scipy.linalg.schur(dense, output="complex")
    return SchurForm(dense=dense, t=t, z=z)


def _schur_solve(form: SchurForm, lam: complex, rhs: np.ndarray) -> np.ndarray:
    """(lam*I - A)^{-1} rhs through A = Z T Z^H, refined once against the dense A."""
    shifted = form.t.copy(order="F")
    np.fill_diagonal(shifted, form.t.diagonal() - lam)  # T - lam*I

    def apply(b):  # (lam*I - Z T Z^H)^{-1} b = -Z (T - lam*I)^{-1} Z^H b
        zh_b = (b.conj() @ form.z).conj()  # Z^H b without copying Z^H
        y = scipy.linalg.solve_triangular(shifted, zh_b, check_finite=False)
        return -(form.z @ y)

    x = apply(rhs)
    # The Schur form's own backward error is the same at every node, so it
    # does not average out over the contour; one refinement step removes it.
    return x + apply(rhs - (lam * x - form.dense @ x))


def solve_shifted(a, lam: complex, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve (lam*I - A) x = rhs with a post-solve residual certificate.

    A may be a SemiSep2 or a dense array (one O(n^3) dense LU per call), or
    a SchurForm (O(n^2): triangular solves with T - lam*I and one step of
    iterative refinement).  Either way ||(lam*I - A) x - rhs|| <= tol ||rhs||
    is checked against the dense A, never against T, and a singular shift or
    a failed certificate raises SolveError.
    """
    dense = _dense(a)
    n = dense.shape[0]
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise SizeMismatchError(f"rhs length {rhs.shape} != {n}")
    try:
        if isinstance(a, SchurForm):
            x = _schur_solve(a, lam, rhs)
        else:
            x = scipy.linalg.solve(lam * np.eye(n) - dense, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SolveError(f"shift {lam} is singular: {exc}") from exc
    res = np.linalg.norm(lam * x - dense @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not res <= tol * scale:
        raise SolveError(f"shifted solve residual {res:.3e} exceeds tolerance", residual=res)
    return x


#: default_contour's radius over the spectrum's spread about its centroid
CONTOUR_MARGIN = 1.25
#: contour_apply's relative agreement target and node budget
CONTOUR_TOL = 1e-10
CONTOUR_MAX_NODES = 1024


@dataclass(frozen=True)
class ContourSpec:
    """Circular contour enclosing the spectrum, sampled at roots of unity."""

    center: complex = 0.0
    radius: float = 1.0
    nodes: int = 32

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ParameterError(f"contour radius must be positive, got {self.radius}")
        if self.nodes < 8:
            raise ParameterError(f"need at least 8 contour nodes, got {self.nodes}")


def _finite_dense(a) -> np.ndarray:
    """_dense(a), refused with ParameterError unless every entry is finite."""
    dense = _dense(a)
    if not np.all(np.isfinite(dense)):
        raise ParameterError("matrix has non-finite entries")
    return dense


def spectral_radius_estimate(a) -> float:
    dense = _finite_dense(a)
    return float(np.max(np.abs(np.linalg.eigvals(dense)))) if dense.size else 0.0


def default_contour(a) -> ContourSpec:
    """Circle centred at the eigenvalue centroid, CONTOUR_MARGIN times its spread."""
    dense = _finite_dense(a)
    if dense.size == 0:
        return ContourSpec(center=0.0, radius=1e-8)
    eig = np.linalg.eigvals(dense)
    center = complex(np.mean(eig))
    spread = float(np.max(np.abs(eig - center)))
    return ContourSpec(center=center, radius=CONTOUR_MARGIN * max(spread, 1e-8))


def contour_apply(g, a, v: np.ndarray, spec: ContourSpec | None = None) -> np.ndarray:
    """Apply the analytic matrix function g(A) to v by resolvent quadrature.

    Trapezoidal rule on a circle enclosing the spectrum; the node count is
    doubled until two successive results agree to CONTOUR_TOL (relative to
    ||v||), up to CONTOUR_MAX_NODES nodes.  A is Schur-factored once, and
    each doubling solves only at its new (odd-indexed) nodes: the 2n-th
    roots of unity contain the n-th ones, so the node sum carries over.
    A matrix with a non-finite entry raises ParameterError before the
    eigensolve that places or checks the contour.
    """
    v = np.asarray(v, dtype=complex)
    dense = _dense(a)
    if spec is None:
        # encloses the spectrum by construction: |lam| <= |c| + spread < |c| + radius
        spec = default_contour(dense)
    else:
        rho = spectral_radius_estimate(dense)
        if rho > abs(spec.center) + spec.radius:
            raise ContourError(
                f"spectral radius {rho:.3e} not enclosed by contour of radius {spec.radius:.3e}"
            )
    form = schur_form(dense)
    scale = max(np.linalg.norm(v), 1e-300)
    total = np.zeros_like(v)
    prev = None
    nodes, new = spec.nodes, np.arange(spec.nodes)
    while nodes <= CONTOUR_MAX_NODES:
        lams = spec.center + spec.radius * np.exp(1j * (2.0 * np.pi * new / nodes))
        for lam in lams:
            total += g(lam) * (lam - spec.center) * solve_shifted(form, lam, v, tol=1e-8)
        acc = total / nodes
        if prev is not None and np.linalg.norm(acc - prev) <= CONTOUR_TOL * scale:
            return acc
        prev = acc
        nodes *= 2
        new = np.arange(1, nodes, 2)
    raise ContourError(f"contour quadrature did not converge within {CONTOUR_MAX_NODES} nodes")
