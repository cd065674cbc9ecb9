"""Rank-structured matrix kernel: linear-time matvec, shifted solves and
contour-quadrature application of analytic matrix functions.

A SemiSep2 holds an (M+1)x(M+1) real matrix through generator sequences:
the strictly lower part is an outer product p q^T, the strictly upper part
u v^T, each of rank at most 2, plus a diagonal.  An optional parity mask
zeroes every entry with even row+column sum; masked instances carry rank-1
generators, and the mask folds them into rank-2 generators of the unmasked
form (p_i q_j [(i+j) odd] = (p*even)_i (q*odd)_j + (p*odd)_i (q*even)_j).
to_dense, matvec and matvec_counted all read that one form, and the
multiply counter counts the kernel that matvec runs.

Every operator the paper builds is normal: the radial differentiation
matrix is skew and every PDE generator block Hermitian.  So the one
factorisation is a diagonal spectral form A = Z diag(eig) Z^H (SchurForm,
from schur_form) of a Hermitian or skew-Hermitian A, up to rounding; any
other matrix raises ParameterError.  The skew checkerboard Dr takes one
real SVD of its half-size block, any other A one eigh.  solve_shifted and
contour_apply read the form: every shift shares one diagonal solve and one
refinement step, and every column is certified by its residual against
the dense A.  contour_apply factors A once and makes one batched solve per
batch of contour nodes, which lie on an ellipse whose foci are the ends of
the spectral segment on the real or the imaginary axis.
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


def _refuse_non_finite(what: str, x) -> None:
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} has non-finite entries")


def _as_real(what: str, x) -> np.ndarray:
    """x as a finite real array; a complex or non-finite x raises ParameterError."""
    if np.iscomplexobj(x):
        raise ParameterError(f"{what} must be real, got a complex array")
    x = np.asarray(x, dtype=float)
    _refuse_non_finite(what, x)
    return x


def _as_gen(what, g, size):
    g = np.atleast_2d(_as_real(f"generator {what}", g))
    if g.shape[0] > 2 or g.shape[1] != size:
        raise SizeMismatchError(f"generator shape {g.shape} incompatible with size {size}")
    return g


#: rows of u^T v that SemiSep2.to_dense forms at a time
_DENSE_ROWS = 256


@dataclass
class SemiSep2:
    """Rank-2 semi-separable matrix in generator form.

    A[i, j] = sum_s p[s, i] q[s, j]   for i > j,
    A[i, j] = sum_s u[s, i] v[s, j]   for i < j,
    A[i, i] = diag[i],
    all multiplied by the parity mask (row+col odd) when parity_mask is set.
    The generators and diagonal are real and finite, else ParameterError.
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
        self.p = _as_gen("p", self.p, self.size)
        self.q = _as_gen("q", self.q, self.size)
        self.u = _as_gen("u", self.u, self.size)
        self.v = _as_gen("v", self.v, self.size)
        if self.diag is None:
            self.diag = np.zeros(self.size)
        self.diag = _as_real("diagonal", self.diag)
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
        """The dense matrix, filled in one n x n array.

        Its lower part is one product p^T q; the upper part and the diagonal
        overwrite it, u^T v a block of _DENSE_ROWS rows at a time, so no
        second n x n array is formed.  The entries equal those of
        tril(p^T q, -1) + triu(u^T v, 1) + diag(diag) bit for bit.
        """
        p, q, u, v, diag = self._generators()
        out = p.T @ q
        for i in range(0, self.size, _DENSE_ROWS):
            rows = u[:, i:i + _DENSE_ROWS].T @ v[:, i:]
            above = np.arange(rows.shape[1]) > np.arange(len(rows))[:, None]
            np.copyto(out[i:i + len(rows), i:], rows, where=above)
        out[np.diag_indices(self.size)] = diag + 0.0  # -0.0 becomes +0.0, as in a sum of parts
        return out

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
    """Diagonal spectral form A = Z diag(eig) Z^H of a Hermitian or
    skew-Hermitian matrix, kept next to A.

    eig is the 1-D spectrum, and dense is A itself, real for a real A, so
    that A x for a complex x is one real product.  z holds the unitary
    eigenvectors of one eigh.  For a real skew A that is zero wherever
    i + j is even, z is None and u, sigma and v hold the SVD
    U diag(sigma) V^T of its half block B = (A[0::2, 1::2] - A[1::2, 0::2]^T) / 2,
    with U square: eig is (i sigma, -i sigma, then 0 for odd n), and the
    eigenvectors (u_k, +-i v_k)/sqrt 2 and (u_last, 0) are never formed.
    """

    dense: np.ndarray
    eig: np.ndarray
    z: np.ndarray | None = None
    u: np.ndarray | None = None
    sigma: np.ndarray | None = None
    v: np.ndarray | None = None


#: A counts as (skew-)Hermitian when max|A -+ A^H| <= this many eps max|A|;
#: a generator-scaled Dr is skew only to rounding, about 1.5 eps max|A|
_HERMITIAN_SLACK = 4.0


def _hermitian_sign(dense) -> int:
    """1 for a Hermitian A, -1 for a skew-Hermitian one (up to rounding);
    any other A raises ParameterError."""
    tol = _HERMITIAN_SLACK * np.finfo(float).eps * np.max(np.abs(dense), initial=0.0)
    adj = dense.conj().T
    minus = np.max(np.abs(dense - adj), initial=0.0)
    if minus <= tol:
        return 1
    plus = np.max(np.abs(dense + adj), initial=0.0)
    if plus <= tol:
        return -1
    raise ParameterError(
        f"matrix is neither Hermitian nor skew-Hermitian: max|A - A^H| = {minus:.3e} and "
        f"max|A + A^H| = {plus:.3e} exceed the slack {tol:.3e}")


def _skew_checkerboard_form(dense) -> SchurForm:
    """The SchurForm of a real skew A that is zero wherever i + j is even.

    Permuted to even then odd indices, A is [[0, B], [-B^T, 0]] up to
    rounding, with B the ceil(n/2) x floor(n/2) block of its exact skew
    projection.  One SVD B = U diag(sigma) V^T (U square) gives every
    eigenpair: A (u_k, +-i v_k) = +-i sigma_k (u_k, +-i v_k), and a column
    of U past sigma (odd n) is a null vector (u, 0).
    """
    u, sigma, vt = scipy.linalg.svd(0.5 * (dense[0::2, 1::2] - dense[1::2, 0::2].T))
    eig = np.concatenate([1j * sigma, -1j * sigma, np.zeros(len(dense) - 2 * len(sigma))])
    return SchurForm(dense=dense, eig=eig, u=u, sigma=sigma, v=vt.T)


def schur_form(a) -> SchurForm:
    """One diagonal spectral form of a Hermitian or skew-Hermitian SemiSep2
    or dense matrix.

    A real skew matrix (up to a few eps max|A|) that is exactly zero
    wherever i + j is even, such as the skew Dr, takes one real SVD of its
    half-size block (_skew_checkerboard_form).  Any other Hermitian or
    skew-Hermitian matrix takes one eigh of its exact Hermitian projection
    H: A = s H = Z diag(s w) Z^H with s = 1 or -i.  A real matrix keeps a
    real dense.  A matrix that is not square and 2-D raises
    SizeMismatchError; one with a non-finite entry, or one that is neither
    Hermitian nor skew-Hermitian, ParameterError.  A SchurForm is returned
    as it is, so every caller factors at most once.
    """
    if isinstance(a, SchurForm):
        return a
    dense = a.to_dense() if isinstance(a, SemiSep2) else np.asarray(a)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise SizeMismatchError(f"expected a square 2-D matrix, got shape {dense.shape}")
    _refuse_non_finite("matrix", dense)
    dense = dense.astype(complex if np.iscomplexobj(dense) else float)
    sign = _hermitian_sign(dense)
    if sign < 0 and dense.dtype == float and not (
            dense[0::2, 0::2].any() or dense[1::2, 1::2].any()):
        return _skew_checkerboard_form(dense)
    # A = s H up to rounding: H = (A + A^H)/2 with s = 1, or
    # H = i (A - A^H)/2 with s = -i
    adj = dense.conj().T
    h, s = (0.5 * (dense + adj), 1.0 + 0.0j) if sign > 0 else (0.5j * (dense - adj), -1.0j)
    # divide and conquer: MRRR's eigenvectors of the +-w pairs of a
    # skew checkerboard lose orthogonality (1e-12 at n = 256)
    w, z = scipy.linalg.eigh(h, driver="evd")
    return SchurForm(dense=dense, eig=w * s, z=z)


def _real_times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x for a real m and an (n, k) x: one real product with x's
    interleaved real and imaginary parts, an (n, 2k) real view of x."""
    return (m @ np.ascontiguousarray(x, dtype=complex).view(float)).view(complex)


def _times_dense(form: SchurForm, x: np.ndarray) -> np.ndarray:
    """A x for a complex (n, k) x; a real A takes one real product."""
    return form.dense @ x if np.iscomplexobj(form.dense) else _real_times(form.dense, x)


def _norm(x: np.ndarray, axis=None):
    """The 2-norm of x, or of each column for axis=0, at any scale.

    np.linalg.norm sums squares, which overflow above about 1e154 and lose
    digits to underflow below about 1e-154; a norm outside [1e-140, 1e140]
    is taken again of x / max|x|.  A non-finite x gives inf or nan.
    """
    with np.errstate(all="ignore"):  # an out-of-range norm is taken again
        norm = np.linalg.norm(x, axis=axis)
    if np.all((norm >= 1e-140) & (norm <= 1e140)):
        return norm
    big = np.max(np.abs(x), axis=axis, initial=0.0)
    unit = np.where(np.isfinite(big) & (big > 0.0), big, 1.0)
    return big * np.linalg.norm(x / unit, axis=axis)


def _refuse_singular(lams: np.ndarray, zero_pivot: np.ndarray) -> None:
    singular = np.flatnonzero(np.any(zero_pivot, axis=0))
    if singular.size:
        raise SolveError(f"shift {lams[singular[0]]} is singular: it is an eigenvalue of the form")


def _pair_solver(form: SchurForm, lams: np.ndarray):
    """b -> (lam_j*I - A)^{-1} b per shift, for a form with a half-size SVD.

    In the coordinates c = U^T b[even] and d = V^T b[odd], the pair k
    solves [[lam, -sigma_k], [sigma_k, lam]] (alpha, beta) = (c, d): with
    w+- = (c +- i d) / (lam +- i sigma_k), alpha = (w+ + w-)/2 and
    beta = (w+ - w-)/(2i).  Each pivot lam +- i sigma_k is divided by on its
    own, never their product lam^2 + sigma_k^2, which over- or underflows
    long before the solution does.  A column of U past sigma (odd n) has
    the pivot lam.  The four products are real and half-size.
    """
    sigma = form.sigma[:, None]
    k = len(sigma)
    plus, minus = lams + 1j * sigma, lams - 1j * sigma
    null = np.broadcast_to(lams, (form.u.shape[1] - k, lams.size))
    _refuse_singular(lams, np.concatenate([plus == 0.0, minus == 0.0, null == 0.0]))

    def apply(b):
        c, d = _real_times(form.u.T, b[0::2]), _real_times(form.v.T, b[1::2])
        w_plus, w_minus = (c[:k] + 1j * d) / plus, (c[:k] - 1j * d) / minus
        alpha = np.empty((len(c), lams.size), dtype=complex)
        alpha[:k] = 0.5 * (w_plus + w_minus)
        alpha[k:] = c[k:] / lams
        x = np.empty((len(b), lams.size), dtype=complex)
        x[0::2] = _real_times(form.u, alpha)
        x[1::2] = _real_times(form.v, -0.5j * (w_plus - w_minus))
        return x

    return apply


def _eigh_solver(form: SchurForm, lams: np.ndarray):
    """b -> (lam_j*I - A)^{-1} b per shift, through A = Z diag(eig) Z^H."""
    shifted = form.eig[:, None] - lams
    _refuse_singular(lams, shifted == 0.0)
    zh = form.z.conj().T

    def apply(b):  # (lam*I - Z E Z^H)^{-1} b = -Z (E - lam*I)^{-1} Z^H b, per column
        return -(form.z @ ((zh @ b) / shifted))

    return apply


def _schur_solve(form: SchurForm, lams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns (lam_j*I - A)^{-1} rhs through the form, refined once against the dense A."""
    apply = (_eigh_solver if form.z is not None else _pair_solver)(form, lams)
    rhs = rhs[:, None]
    x = apply(rhs)
    # The form's own backward error is the same at every node, so it does
    # not average out over the contour; one refinement step removes it.
    return x + apply(rhs - (x * lams - _times_dense(form, x)))


def solve_shifted(a, lam, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve (lam*I - A) x = rhs with a post-solve residual certificate.

    lam is one shift, or a 1-D array of shifts: then the result has one
    column per shift.  A is a SchurForm, or a Hermitian or skew-Hermitian
    SemiSep2 or dense array that is factored first by schur_form (O(n^3)
    once, whatever the number of shifts: one half-size SVD for a skew
    checkerboard A, else one eigh).  Every shift shares one diagonal solve,
    vectorised across shifts, and one step of iterative refinement.  With a
    half-size SVD that solve is four real half-size products and a division
    by each pivot lam -+ i sigma_k, else two products by Z and a division,
    so k shifts cost O(k n^2) in matrix-matrix products.  Every column is
    certified, ||(lam*I - A) x - rhs|| <= tol ||rhs||, against the dense A,
    with norms scaled by the largest entry so that they hold at any scale;
    a singular shift or a failed certificate raises SolveError, whose
    residual is the worst column's.  A column that leaves the double range
    is not finite, so its certificate fails too.  A NaN or negative tol, a
    non-finite rhs, shift or matrix entry, or a matrix that is neither
    Hermitian nor skew-Hermitian raises ParameterError before any solve.
    """
    if not tol >= 0.0:
        raise ParameterError(f"tol must be a nonnegative number, got {tol}")
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
    # an overflow makes a column inf or nan, which its certificate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        x = _schur_solve(form, np.atleast_1d(lams).astype(complex), rhs)
        res = _norm(x * lams.reshape(-1) - _times_dense(form, x) - rhs[:, None], axis=0)
    if not np.all(res <= tol * _norm(rhs)):
        worst = float(np.max(res))
        raise SolveError(f"shifted solve residual {worst:.3e} exceeds tolerance", residual=worst)
    return x[:, 0] if lams.ndim == 0 else x


#: mu of contour_apply's ellipse center + focus cosh(mu + i theta): its sums
#: converge like e^(-mu N), and it reaches |focus| sinh(mu) off the spectral
#: segment, so e^z on it grows like e^(0.52 rho) for a skew A of radius rho
CONTOUR_MARGIN = 0.5
#: contour_apply's relative agreement target, first node count and node budget
CONTOUR_TOL = 1e-10
CONTOUR_FIRST_NODES = 32
CONTOUR_MAX_NODES = 1024


def spectral_radius_estimate(a) -> float:
    """The largest |lam| over the spectrum of A's form."""
    eig = schur_form(a).eig
    return float(np.max(np.abs(eig))) if eig.size else 0.0


def default_contour(a) -> tuple[complex, complex]:
    """(center, focus): the spectrum of A lies on the segment center + t focus, |t| <= 1.

    A Hermitian or skew-Hermitian A has its eigenvalues on the real or the
    imaginary axis, so the ends of the segment are the eigenvalues with the
    least and the greatest real + imaginary part.  |focus| counts as at
    least a tenth of |center| (and 1e-8), so a spectrum without spread
    takes the same ellipse about its point.  contour_apply's ellipse has
    its foci at center -+ focus.  The eigenvalues are read off A's form; a
    SchurForm gives them without a further factorisation.
    """
    eig = schur_form(a).eig
    if eig.size == 0:
        return 0.0, 1e-8
    key = eig.real + eig.imag
    lo, hi = eig[np.argmin(key)], eig[np.argmax(key)]
    center, focus = complex(0.5 * (lo + hi)), complex(0.5 * (hi - lo))
    # a node at distance r from an eigenvalue lam is solved to about
    # eps |lam| / r relative, so a spectrum without spread keeps its nodes
    # |focus| sinh(CONTOUR_MARGIN) >= |c| / 20 from its point
    floor = max(1e-8, 0.1 * abs(center))
    if abs(focus) < floor:
        focus = floor * (focus / abs(focus) if focus else 1.0)
    return center, focus


def contour_apply(g, a, v: np.ndarray) -> np.ndarray:
    """Apply the analytic matrix function g(A) to v by resolvent quadrature.

    Trapezoidal rule on the ellipse z = center + focus cosh(mu + i theta),
    mu = CONTOUR_MARGIN, whose foci center -+ focus are the ends of the
    spectral segment (default_contour), so it encloses the spectrum (Trefethen
    and Weideman, SIAM Review 56, 2014).  The node at theta_j = 2 pi j / N
    has the weight g(z_j) focus sinh(mu + i theta_j) / N, and the sums
    converge like e^(-mu N), while |e^z| grows only like e^(|focus| sinh mu)
    off the segment of a skew A.  The node count starts at
    CONTOUR_FIRST_NODES and is doubled until two successive results agree to
    CONTOUR_TOL (relative to ||v||, both norms scaled so that they hold at
    any scale of v), or else ContourError is raised past CONTOUR_MAX_NODES
    nodes.  A is Hermitian or skew-Hermitian and is factored once by
    schur_form (one half-size SVD for a skew checkerboard A such as the skew
    Dr, else one eigh), and the ellipse is placed from the form's
    eigenvalues, so no other eigensolve runs.  Every batch of nodes is one
    batched solve_shifted call.  The first batch holds the first two node
    counts: the 2n equispaced angles contain the n ones as their
    even-indexed members, so the n-node sum is read off its even columns.
    Each later doubling solves only at its new (odd-indexed) nodes, and the
    node sum carries over.  g is called once per node with a scalar.  A
    non-finite entry of v or of A, or an A that is neither Hermitian nor
    skew-Hermitian, raises ParameterError before the factorisation's
    solves, and a value of g that is not finite, overflow included, before
    its batch is solved.
    """
    v = np.asarray(v, dtype=complex)
    _refuse_non_finite("vector", v)
    form = schur_form(a)
    center, focus = default_contour(form)
    scale = _norm(v)
    total = np.zeros_like(v)
    prev = None
    nodes = 2 * CONTOUR_FIRST_NODES
    new = np.arange(nodes)
    while nodes <= CONTOUR_MAX_NODES:
        w = CONTOUR_MARGIN + 1j * (2.0 * np.pi * new / nodes)
        lams = center + focus * np.cosh(w)
        # an overflowing g gives inf or nan, which the check below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.array([g(lam) for lam in lams])
        _refuse_non_finite("g on the contour", values)
        # dz = i focus sinh(w) d theta, and the 1 / (2 pi i) of the integral
        # leaves focus sinh(w) / nodes per node
        weights = values * (focus * np.sinh(w))
        x = solve_shifted(form, lams, v, tol=1e-8)
        if prev is None:
            prev = x[:, ::2] @ weights[::2] / CONTOUR_FIRST_NODES
        total += x @ weights
        acc = total / nodes
        if _norm(acc - prev) <= CONTOUR_TOL * scale:
            return acc
        prev = acc
        nodes *= 2
        new = np.arange(1, nodes, 2)
    raise ContourError(f"contour quadrature did not converge within {CONTOUR_MAX_NODES} nodes")
