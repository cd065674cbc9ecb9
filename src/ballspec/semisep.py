"""Rank-structured matrix kernel: linear-time matvec, shifted solves and
contour-quadrature application of analytic matrix functions.

A SemiSep2 holds an (M+1)x(M+1) matrix through generator sequences: the
strictly lower part is an outer product p q^T, the strictly upper part
u v^T, each of rank at most 2, plus a diagonal.  An optional parity mask
zeroes every entry with even row+column sum; masked instances carry rank-1
generators, and the mask folds them into rank-2 generators of the unmasked
form (p_i q_j [(i+j) odd] = (p*even)_i (q*odd)_j + (p*odd)_i (q*even)_j).
to_dense, matvec and matvec_counted all read that one form, and the
multiply counter counts the kernel that matvec runs.

The complex Schur form A = Z T Z^H (SchurForm) is the one factorisation:
shifted solves, the spectrum and the contour all read it.  A real A takes
LAPACK's real Schur form, whose 2x2 blocks one vectorised rotation step
makes triangular, and stays real in the form: its products with complex
iterates are real products over their interleaved real and imaginary
parts.  solve_shifted takes a SemiSep2, a dense array or a SchurForm, and
one shift or an array of them; every shift shares one back-substitution
sweep over the rows of T and one refinement step, and every column is
certified by its residual against the dense A, never against T.
contour_apply factors A once, places its circle off the diagonal of T,
and makes one batched solve per batch of nodes: the first two node counts
together, then one per doubling.
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
    The mask is applied in one place: _generators folds it into rank-2
    generators of this unmasked form, and every method reads those.
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

    def _generators(self):
        """(p, q, u, v, diag) of the unmasked rank-2 form of this matrix.

        A masked entry p_i q_j [(i+j) odd] is (p*even)_i (q*odd)_j +
        (p*odd)_i (q*even)_j, and likewise above the diagonal; the masked
        diagonal is zero.  Every masked-out entry is then a product with an
        exact zero, so nothing cancels.
        """
        if not self.parity_mask:
            return self.p, self.q, self.u, self.v, self.diag
        odd = np.arange(self.size) % 2
        rows = np.array([1 - odd, odd], dtype=float)  # [even; odd]
        cols = rows[::-1]  # [odd; even]
        return self.p * rows, self.q * cols, self.u * rows, self.v * cols, np.zeros(self.size)

    def to_dense(self) -> np.ndarray:
        p, q, u, v, diag = self._generators()
        return np.tril(p.T @ q, -1) + np.triu(u.T @ v, 1) + np.diag(diag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense-equivalent product A @ x in O(size) flops via prefix sums."""
        return self.matvec_counted(x)[0]

    def matvec_counted(self, x):
        """(A @ x, multiply_count): matvec's own kernel and its multiplies.

        The count is the total size of the arrays the kernel multiplies,
        q x, p lo, diag x, v x and u hi, so it is linear in size: 9 size - 4
        for a masked instance, whose folded generators have rank 2.
        """
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise SizeMismatchError(f"vector length {x.shape} != {self.size}")
        p, q, u, v, diag = self._generators()
        # lower part: y_i += p[:,i] . cumsum_{j<i} q[:,j] x_j
        qx = q * x
        lo = np.cumsum(qx, axis=1)
        y = diag * x
        y[1:] += np.einsum("si,si->i", p[:, 1:], lo[:, :-1])
        # upper part: suffix sums of v x
        vx = v * x
        hi = np.cumsum(vx[:, ::-1], axis=1)[:, ::-1]
        y[:-1] += np.einsum("si,si->i", u[:, :-1], hi[:, 1:])
        return y, qx.size + p[:, 1:].size + y.size + vx.size + u[:, :-1].size


@dataclass(frozen=True)
class SchurForm:
    """Complex Schur form A = Z T Z^H of a dense matrix, kept next to A.

    t is complex upper triangular and z unitary; dense is A itself, real
    for a real A, so that A x for a complex x is one real product.
    """

    dense: np.ndarray
    t: np.ndarray
    z: np.ndarray


def _refuse_non_finite(what: str, x) -> None:
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} has non-finite entries")


def _complex_from_real_schur(t, z):
    """(T, Z) of the complex Schur form from LAPACK's standardised real one.

    Each 2x2 block of t holds a complex pair and is made triangular by one
    Givens rotation, as in scipy's rsf2csf; a block counts when its
    subdiagonal entry exceeds eps (|t_mm| + |t_m+1,m+1|).  A standardised
    block has t_mm = t_m+1,m+1 and t_m,m+1 t_m+1,m < 0, so its pair is
    t_mm +- i sqrt(|t_m,m+1| |t_m+1,m|).  The blocks sit on disjoint row and
    column pairs, so their rotations commute: all are taken from the
    original t and applied at once to t's rows, t's columns and z's columns.
    """
    diag, sub = np.abs(t.diagonal()), t.diagonal(-1)
    lo = np.flatnonzero(np.abs(sub) > np.finfo(float).eps * (diag[:-1] + diag[1:]))
    hi, sub = lo + 1, sub[lo]
    # lam - t_m+1,m+1 for the eigenvalue lam of the block with lam.imag > 0
    mu = 1j * np.sqrt(np.abs(t.diagonal(1)[lo])) * np.sqrt(np.abs(sub))
    r = np.hypot(mu.imag, sub)
    cos, sin = mu / r, sub / r
    t, z = t.astype(complex), z.astype(complex)
    # G = [[conj(cos), sin], [-sin, cos]] on each row pair of t, G^H on each
    # column pair of t and of z
    c, s = cos[:, None], sin[:, None]
    t[lo], t[hi] = c.conj() * t[lo] + s * t[hi], c * t[hi] - s * t[lo]
    for x in (t, z):
        x[:, lo], x[:, hi] = x[:, lo] * cos + x[:, hi] * sin, x[:, hi] * cos.conj() - x[:, lo] * sin
    return np.triu(t), z


def schur_form(a) -> SchurForm:
    """One complex Schur factorisation of a SemiSep2 or dense matrix.

    A real matrix takes LAPACK's real Schur form, whose 2x2 blocks are made
    triangular by one vectorised rotation step (_complex_from_real_schur),
    and keeps a real dense; a complex one takes the complex Schur form.  A
    matrix that is not square and 2-D raises SizeMismatchError, one with a
    non-finite entry ParameterError.  A SchurForm is returned as it is, so
    every caller factors at most once.
    """
    if isinstance(a, SchurForm):
        return a
    dense = a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise SizeMismatchError(f"expected a square 2-D matrix, got shape {dense.shape}")
    _refuse_non_finite("matrix", dense)
    if np.iscomplexobj(dense):
        dense = dense.astype(complex)
        t, z = scipy.linalg.schur(dense, output="complex")
    else:
        dense = dense.astype(float)
        t, z = _complex_from_real_schur(*scipy.linalg.schur(dense, output="real"))
    return SchurForm(dense=dense, t=t, z=z)


def _times_dense(form: SchurForm, x: np.ndarray) -> np.ndarray:
    """A x for a complex (n, k) x; a real A takes one real product with x's
    interleaved real and imaginary parts, an (n, 2k) real view of x."""
    if np.iscomplexobj(form.dense):
        return form.dense @ x
    return (form.dense @ np.ascontiguousarray(x).view(float)).view(complex)


def _schur_solve(form: SchurForm, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns (lam_j*I - A)^{-1} rhs through A = Z T Z^H, refined once against the dense A."""
    shifted = form.t.diagonal()[:, None] - lams  # the diagonals of T - lam_j*I
    singular = np.flatnonzero(np.any(shifted == 0.0, axis=0))
    if singular.size:
        raise SolveError(f"shift {lams[singular[0]]} is singular: T - lam*I has a zero pivot")
    zh = form.z.conj().T

    def apply(b):  # (lam*I - Z T Z^H)^{-1} b = -Z (T - lam*I)^{-1} Z^H b, per column
        c = zh @ b  # one column, or one per shift
        y = np.empty(shifted.shape, dtype=complex)
        # one back-substitution sweep over the rows of T serves every shift
        for i in range(len(y) - 1, -1, -1):
            y[i] = (c[i] - form.t[i, i + 1:] @ y[i + 1:]) / shifted[i]
        return -(form.z @ y)

    rhs = rhs[:, None]
    x = apply(rhs)
    # The Schur form's own backward error is the same at every node, so it
    # does not average out over the contour; one refinement step removes it.
    return x + apply(rhs - (x * lams - _times_dense(form, x)))


def solve_shifted(a, lam, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve (lam*I - A) x = rhs with a post-solve residual certificate.

    lam is one shift, or a 1-D array of shifts: then the result has one
    column per shift.  A is a SchurForm, or a SemiSep2 or dense array that
    is Schur-factored first (O(n^3) once, whatever the number of shifts).
    Every shift shares one back-substitution sweep over the rows of T,
    vectorised across shifts, and one step of iterative refinement, so k
    shifts cost O(k n^2) in matrix-matrix products.  Every column is
    certified, ||(lam*I - A) x - rhs|| <= tol ||rhs||, against the dense A,
    never against T; a singular shift or a failed certificate raises
    SolveError, whose residual is the worst column's.  A non-finite rhs,
    shift or matrix entry raises ParameterError before the factorisation.
    """
    rhs = np.asarray(rhs)
    lams = np.asarray(lam)
    if lams.ndim > 1:
        raise SizeMismatchError(f"shifts must be a scalar or a 1-D array, got shape {lams.shape}")
    _refuse_non_finite("rhs", rhs)
    _refuse_non_finite("shift", lams)
    form = schur_form(a)
    n = form.dense.shape[0]
    if rhs.shape != (n,):
        raise SizeMismatchError(f"rhs length {rhs.shape} != {n}")
    x = _schur_solve(form, np.atleast_1d(lams).astype(complex), rhs)
    res = np.linalg.norm(x * lams.reshape(-1) - _times_dense(form, x) - rhs[:, None], axis=0)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.all(res <= tol * scale):
        worst = float(np.max(res))
        raise SolveError(f"shifted solve residual {worst:.3e} exceeds tolerance", residual=worst)
    return x[:, 0] if lams.ndim == 0 else x


#: default_contour's radius over the spectrum's spread about its centroid
CONTOUR_MARGIN = 1.25
#: contour_apply's relative agreement target, first node count and node budget
CONTOUR_TOL = 1e-10
CONTOUR_FIRST_NODES = 32
CONTOUR_MAX_NODES = 1024


def spectral_radius_estimate(a) -> float:
    """The largest |lam| on the diagonal of A's Schur form."""
    eig = schur_form(a).t.diagonal()
    return float(np.max(np.abs(eig))) if eig.size else 0.0


def default_contour(a) -> tuple[complex, float]:
    """(center, radius): a circle about the eigenvalue centroid, CONTOUR_MARGIN times its spread.

    The spread counts as at least a tenth of the centroid's modulus (and
    1e-8), so the circle strictly encloses every eigenvalue.  The
    eigenvalues are the diagonal of A's Schur form; a SchurForm gives them
    without a further factorisation.
    """
    eig = schur_form(a).t.diagonal()
    if eig.size == 0:
        return 0.0, 1e-8
    center = complex(np.mean(eig))
    spread = float(np.max(np.abs(eig - center)))
    # a node at distance r from an eigenvalue lam is solved to about
    # eps |lam| / r relative, so a spectrum without spread keeps r >= |c| / 10
    floor = max(1e-8, 0.1 * abs(center))
    return center, CONTOUR_MARGIN * max(spread, floor)


def contour_apply(g, a, v: np.ndarray) -> np.ndarray:
    """Apply the analytic matrix function g(A) to v by resolvent quadrature.

    Trapezoidal rule on default_contour's circle, which encloses the
    spectrum; the node count starts at CONTOUR_FIRST_NODES and is doubled
    until two successive results agree to CONTOUR_TOL (relative to ||v||),
    or else ContourError is raised past CONTOUR_MAX_NODES nodes.  A is
    Schur-factored once, and the circle is placed from the eigenvalues on
    the diagonal of T, so no other eigensolve runs.  Every batch of nodes is
    one batched solve_shifted call.  The first batch holds the first two
    node counts: the 2n-th roots of unity contain the n-th ones as their
    even-indexed members, so the n-node sum is read off its even columns.
    Each later doubling solves only at its new (odd-indexed) nodes, and the
    node sum carries over.  g is called once per node with a scalar.  A
    non-finite entry of v or of A raises ParameterError before the Schur
    factorisation, and a non-finite value of g before its batch is solved.
    """
    v = np.asarray(v, dtype=complex)
    _refuse_non_finite("vector", v)
    form = schur_form(a)
    center, radius = default_contour(form)
    scale = max(np.linalg.norm(v), 1e-300)
    total = np.zeros_like(v)
    prev = None
    nodes = 2 * CONTOUR_FIRST_NODES
    new = np.arange(nodes)
    while nodes <= CONTOUR_MAX_NODES:
        lams = center + radius * np.exp(1j * (2.0 * np.pi * new / nodes))
        values = np.array([g(lam) for lam in lams])
        _refuse_non_finite("g on the contour", values)
        weights = values * (lams - center)
        x = solve_shifted(form, lams, v, tol=1e-8)
        if prev is None:
            prev = x[:, ::2] @ weights[::2] / CONTOUR_FIRST_NODES
        total += x @ weights
        acc = total / nodes
        if np.linalg.norm(acc - prev) <= CONTOUR_TOL * scale:
            return acc
        prev = acc
        nodes *= 2
        new = np.arange(1, nodes, 2)
    raise ContourError(f"contour quadrature did not converge within {CONTOUR_MAX_NODES} nodes")
