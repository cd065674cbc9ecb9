"""Provably stable semidiscretisations of diffusion and Schrodinger flows.

Joining the affine slot to the skew-symmetric field block gives a bordered
("compound") operator diag(d, Dr) per angular Fourier mode, with one border
scalar d = <dh/dr, h> for the affine direction h.  Assembling the second-order
generator from conjugate-transpose products makes it Hermitian negative
semidefinite by construction, so the diffusion semigroup is contractive and
the Schrodinger flow exactly unitary -- independent of the truncation.  The
beta = 0 basis, wired in deliberately, shows what goes wrong without skew
symmetry: its spectral abscissa grows with the truncation.

Run:  python3 demos/04_stability_and_unitarity.py
"""

import numpy as np

from ballspec.basis import BasisSpec
from ballspec.diffmat import build_diff_ops, compound_radial
from ballspec.pde import PdeKind, abscissa_scan, assemble, norm_bound, propagate

spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=16, K=4)
ops = build_diff_ops(spec)

scale = 1.0 / np.sqrt(2.0 * np.pi / 3.0)
h = lambda r, th: scale * (1.0 - np.asarray(r, dtype=float)) \
    * np.ones_like(np.asarray(th, dtype=float))
dh = lambda r, th: -scale * np.ones(np.broadcast(np.asarray(r), np.asarray(th)).shape)
d = compound_radial(ops, h, dh)
print("affine drift scalar d =", d.real, "(equals -(1/2) int |h(0,.)|^2 dtheta)")

rng = np.random.default_rng(0)

op = assemble(PdeKind.SCHRODINGER, ops, d)
v = rng.standard_normal(op.total_size) + 1j * rng.standard_normal(op.total_size)
v /= np.linalg.norm(v)
print("\nSchrodinger flow (exactly unitary):")
for t in (0.1, 1.0, 10.0):
    print(f"  t = {t:5.1f}   ||u(t)|| = {np.linalg.norm(propagate(op, v, t)):.15f}")

op = assemble(PdeKind.DIFFUSION, ops, d)
print("\ndiffusion flow (contractive, bound exp(|d|^2 t)):")
for t in (0.1, 1.0, 10.0):
    n = np.linalg.norm(propagate(op, v, t))
    print(f"  t = {t:5.1f}   ||u(t)|| = {n:.3e}   bound = {norm_bound(op, t):.3e}")

print("\nnegative control: spectral abscissa of the second-derivative surrogate")
print("  alpha = beta = 2 (skew):   ", abscissa_scan(2.0, 2.0, [8, 16, 32]))
print("  beta = 0 (no skew symmetry):", abscissa_scan(2.0, 0.0, [8, 16, 32]))
print("the second family's abscissa grows with the truncation -- the")
print("semidiscretisation is not uniformly well posed.")
