"""Rank-structured matrix kernel: linear-time matvec, shifted solves and
contour-quadrature application of analytic matrix functions.

A SemiSep2 holds an (M+1)x(M+1) matrix through generator sequences: the
strictly lower part is an outer product p q^T, the strictly upper part
u v^T, each of rank at most 2, plus a diagonal.  An optional parity mask
zeroes every entry with even row+column sum; masked instances carry rank-1
generators so that every off-diagonal block of the materialised matrix
still has rank at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SizeMismatchError(ValueError):
    pass


class SolveError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ContourError(RuntimeError):
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


def matvec(a: SemiSep2, x):
    return a.matvec(x)


def to_dense(a: SemiSep2):
    return a.to_dense()


def solve_shifted(a, lam: complex, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve (lam*I - A) x = rhs with a post-solve residual certificate.

    Desk-scale certified path: dense factorisation.  A may be a SemiSep2 or a
    dense array.
    """
    dense = a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)
    n = dense.shape[0]
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise SizeMismatchError(f"rhs length {rhs.shape} != {n}")
    mat = lam * np.eye(n) - dense
    try:
        x = scipy.linalg.solve(mat, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SolveError(f"shift {lam} is singular: {exc}") from exc
    res = np.linalg.norm(mat @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if res > tol * scale:
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
        if self.radius <= 0.0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 8:
            raise ValueError("need at least 8 contour nodes")


def spectral_radius_estimate(a) -> float:
    dense = a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)
    return float(np.max(np.abs(np.linalg.eigvals(dense)))) if dense.size else 0.0


def default_contour(a) -> ContourSpec:
    """Circle centred at the eigenvalue centroid, CONTOUR_MARGIN times its spread."""
    dense = a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)
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
    ||v||), up to CONTOUR_MAX_NODES nodes.
    """
    v = np.asarray(v, dtype=complex)
    if spec is None:
        # encloses the spectrum by construction: |lam| <= |c| + spread < |c| + radius
        spec = default_contour(a)
    else:
        rho = spectral_radius_estimate(a)
        if rho > abs(spec.center) + spec.radius:
            raise ContourError(
                f"spectral radius {rho:.3e} not enclosed by contour of radius {spec.radius:.3e}"
            )
    scale = max(np.linalg.norm(v), 1e-300)
    prev = None
    nodes = spec.nodes
    while nodes <= CONTOUR_MAX_NODES:
        phis = 2.0 * np.pi * np.arange(nodes) / nodes
        lams = spec.center + spec.radius * np.exp(1j * phis)
        acc = np.zeros_like(v)
        for lam in lams:
            acc += g(lam) * (lam - spec.center) * solve_shifted(a, lam, v, tol=1e-8)
        acc /= nodes
        if prev is not None and np.linalg.norm(acc - prev) <= CONTOUR_TOL * scale:
            return acc
        prev = acc
        nodes *= 2
    raise ContourError(f"contour quadrature did not converge within {CONTOUR_MAX_NODES} nodes")
