"""Expansion on the 3- and 4-dimensional unit balls.

The same machinery -- weighted radial family, orthogonal splitting, FFT in
the angles, Gauss-Jacobi in the radius -- extends to hyperspherical
coordinates on the d-ball for any d >= 2.  Here d = 3: two angles, with the
second one entering through doubled Fourier modes; then the d = 4 analogue
of the same field, three angles, at small truncations.

Run:  python3 demos/05_ball_3d.py
"""

import numpy as np

from ballspec.basis import BasisSpec
from ballspec.expand import analyze, error_report
from ballspec.split import Template, make_pos, verify_pos


def f(r, t1, *rest):
    """(1 - r) e^r exp(i(0.5 + t1 + 2 t2 + ...)) in any number of angles."""
    phase = 0.5 + np.asarray(t1)
    for t in rest:
        phase = phase + 2.0 * np.asarray(t)
    return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) * np.exp(1j * phase)


spec = BasisSpec(alpha=2.0, beta=2.0, d=3, N=5, K=3)
pair = make_pos(f, Template.LINEAR, d=3)
rep = verify_pos(pair)
print("splitting residuals:", rep)

coeffs = analyze(pair, spec)
report = error_report(f, coeffs, M=6)
print(f"\nN = {spec.N}, K = {spec.K}: e_inf = {report.e_inf:.3e}, e_2 = {report.e_2:.3e}")

flat = np.abs(coeffs.fhat).ravel()
nz = flat[flat > 1e-12 * flat.max()]
print("nonzero coefficient magnitudes (exponential decay):")
for i, v in enumerate(nz):
    print(f"  {i}:  {v:.3e}")
slope = np.polyfit(1.0 + np.arange(len(nz)), np.log(nz), 1)[0]
print(f"log-linear slope {slope:.3f}")

# d = 4: 8 samples per angular axis resolve the modes up to |k| = 2; the
# split's own verification samples a 48^4 mesh, so it is skipped here
pair4 = make_pos(f, Template.LINEAR, d=4, k_max=2, n_samples=8)
print(f"\nd = 4: c = {pair4.c}")
for N in (4, 6, 8):
    spec4 = BasisSpec(alpha=2.0, beta=2.0, d=4, N=N, K=1)
    report4 = error_report(f, analyze(pair4, spec4, check=False), M=6)
    print(f"  N = {N}, K = 1: e_inf = {report4.e_inf:.3e}")
