"""Orthogonal splitting and spectral expansion on the disc.

The basis functions all vanish at the origin, so a field with f(0, .) != 0
is first split as f = f0 + f1: the affine part f0 carries the value at the
origin along a fixed radial template, f1 vanishes there, both vanish on the
boundary, and the two parts are orthogonal (one Gram-Schmidt step per
angular Fourier mode).  The template is any radial callable T with T(0) = 1
and T(1) = 0; the default is 1 - r.  Expanding f1 in the weighted basis then converges
geometrically; skipping the splitting leaves an O(1) error at the origin.

Run:  python3 demos/03_splitting_and_expansion.py
"""

import numpy as np

from ballspec.basis import BasisSpec
from ballspec.expand import analyze_disc, error_report, flatten_index
from ballspec.split import make_pos, raw_pair, verify_pos


def f(r, th):
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) \
        * np.exp(1j * (np.asarray(th) + 0.5))


spec = BasisSpec(alpha=2.0, beta=2.0, d=2, N=6, K=5)

# --- with splitting ---------------------------------------------------------

pair = make_pos(f)
print("splitting residuals (sum / boundary / origin / orthogonality):")
for name, T in (("1 - r", None), ("cos(pi r / 2)", lambda r: np.cos(0.5 * np.pi * r))):
    rep = verify_pos(pair if T is None else make_pos(f, T))
    print(f"  T = {name:13s}  {rep.sum_residual:.2e}  {rep.boundary_residual:.2e}"
          f"  {rep.origin_residual:.2e}  {rep.orthogonality_residual:.2e}")
print("Gram-Schmidt coefficient per live mode:", {m: f"{c:.6f}" for m, c in pair.c.items()})

coeffs = analyze_disc(pair, spec)
report = error_report(f, coeffs, M=6)
print(f"\nwith splitting  (77 coefficients): e_inf = {report.e_inf:.3e}, "
      f"e_2 = {report.e_2:.3e}")
top = max(v for _, v in report.coeff_decay)
nz = [(q, v) for q, v in report.coeff_decay if v > 1e-12 * top]
print("  nonzero |f_q| (geometric decay):")
for q, v in nz:
    print(f"    q = {q:2d}   {v:.3e}")

# --- without splitting ------------------------------------------------------

coeffs0 = analyze_disc(raw_pair(f), spec, check=False)
report0 = error_report(f, coeffs0, M=6)
nz0 = [(q, v) for q, v in report0.coeff_decay if v > 1e-12 * top]
qs = np.array([q for q, _ in nz0], dtype=float)
vs = np.array([v for _, v in nz0])
slope = np.polyfit(np.log(qs), np.log(vs), 1)[0]
print(f"\nwithout splitting: e_inf = {report0.e_inf:.3e} "
      "(O(1): the origin value cannot be represented)")
print(f"  coefficient decay is only algebraic, fitted exponent {slope:.2f}")

# sanity: the nonzero flat indices sit exactly where a single angular mode puts them
expect = [flatten_index(n, 1, spec) for n in range(7)]
print("  nonzero flat indices:", [q for q, _ in nz0], "as expected:", expect == [q for q, _ in nz0])
