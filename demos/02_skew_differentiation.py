"""Skew-symmetric, semi-separable differentiation matrices.

For the weighted basis with alpha = beta > 0, the Galerkin matrix of d/dx is
exactly skew symmetric and has rank-2 semi-separable structure: below the
diagonal every entry is a_i * b_j, above it -a_j * b_i, and a checkerboard of
entries vanishes by parity.  Folding the checkerboard into the generators
gives rank-2 generators of an unmasked matrix, and prefix sums over them give
O(M) matrix-vector products; the printed counts are the multiplies of that
kernel.  The checkerboard also halves the eigensolve: one SVD of the
half-size block gives every eigenvalue +-i sigma of D.  For contrast we
also build two families where skew symmetry is impossible and show the
closed forms of their obstructions.

Run:  python3 demos/02_skew_differentiation.py
"""

import numpy as np

from ballspec.diffmat import (
    RADIAL_SCALE,
    asymmetry_S_ex1,
    asymmetry_beta0,
    build_Dr,
    build_Dr_quad,
    ex1_Dr_quad,
)
from ballspec.semisep import schur_form

# --- the good case ----------------------------------------------------------

d = build_Dr(32, 2.0)
dense = d.to_dense()
print("alpha = beta = 2, degrees 0..32")
print("  max |D + D^T|           :", np.max(np.abs(dense + dense.T)), "(exact zero)")
quad_oracle = build_Dr_quad(32, 2.0)
print("  vs quadrature oracle    :", np.max(np.abs(dense - quad_oracle)))

rng = np.random.default_rng(0)
x = rng.standard_normal(33)
_, mults = d.matvec_counted(x)
_, mults2 = build_Dr(65, 2.0).matvec_counted(rng.standard_normal(66))
print("  multiplies for n=33/66  :", mults, mults2, "-> linear growth")

# the checkerboard makes D a permuted [[0, B], [-B^T, 0]]: one SVD of the
# 17 x 16 block B gives every eigenvalue +-i sigma (and 0, since n is odd)
form = schur_form(d)
half = np.sort(form.t.diagonal().imag)
eig = np.linalg.eigvals(dense)
eig = eig[np.argsort(eig.imag)]
print("  half-size SVD of B      :", form.u.shape[0], "x", form.v.shape[0])
print("  max |+-i sigma - eig|   :", np.max(np.abs(1j * half - eig)))

# --- obstruction 1: the r-weighted (polar) family ---------------------------

s = asymmetry_S_ex1(6, 2.0)
dq = ex1_Dr_quad(6, 2.0)
print("\nr-weighted family (polar inner product):")
print("  D + D^T = -S with S[0,0] =", s[0, 0])
print("  residual of the identity:", np.max(np.abs(dq + dq.T + s)))
print("  S is a full matrix -> the departure from skew symmetry is substantial.")

# --- obstruction 2: the beta = 0 family -------------------------------------

dq0 = RADIAL_SCALE * build_Dr_quad(6, 2.0, 0.0)
closed = np.array([[asymmetry_beta0(n, m, 2.0) for m in range(7)] for n in range(7)])
print("\nbeta = 0 family (basis does not vanish at r = 0):")
print("  boundary flux at the origin gives D + D^T = -closed_form,")
print("  entry (0,0) =", (dq0 + dq0.T)[0, 0], " closed form =", closed[0, 0])
print("  residual:", np.max(np.abs(dq0 + dq0.T + closed)))
