"""The four workloads of the ballspec benchmark.

Each workload is a closed loop of one client: the next operation (op)
starts when the previous one returns.  A workload supplies

* ``inputs(seed)``: an endless, deterministic op sequence made from the
  seed alone; the library sees only these generated inputs;
* ``prepare()``: benchmark-side oracles, computed once, outside every timed
  region and outside ``setup_s``;
* ``build(bs, rec)``: the one-time builds made through the public API
  (timed as part of ``setup_s``);
* ``op(bs, state, inp, rec)``: the timed call into ``ballspec``;
* ``verify(state, inp, out)``: the untimed correctness gate, returning
  ``(passed, digest)``; the digest lets a traced op be compared bit for bit
  with its untraced twin.

``bs`` is the freshly imported ``ballspec`` package.  ``rec`` is None in
untraced runs; in traced runs it is the span recorder, which counts
evaluations of the fields the benchmark hands to the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from math import lgamma, log

import numpy as np
import scipy.linalg

#: The seven reproduction examples of ``ballspec --example``.
EXAMPLES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ball3d", "pde-demo")

ALPHA = 2.0


def digest(*parts) -> str:
    """Short SHA-256 of arrays (dtype, shape and bytes) and plain values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def dense_Dr(n_max: int, alpha: float) -> np.ndarray:
    """Skew radial differentiation matrix from its closed-form generators.

    Written out here, independently of ``ballspec.diffmat``, so the oracles
    below do not check the library against itself:
    a_m = sqrt(m! (2m+2a+1) / (2 Gamma(m+1+2a))),
    b_n = sqrt((2n+1+2a) Gamma(n+1+2a) / (2 n!)),
    D[i, j] = a_i b_j below the diagonal, -a_j b_i above, 0 where i+j is even.
    """
    k = np.arange(n_max + 1, dtype=float)
    lg_fact = np.array([lgamma(x + 1.0) for x in k])
    lg_shift = np.array([lgamma(x + 1.0 + 2.0 * alpha) for x in k])
    a = np.exp(0.5 * (lg_fact + np.log(2.0 * k + 2.0 * alpha + 1.0) - log(2.0) - lg_shift))
    b = np.exp(0.5 * (np.log(2.0 * k + 1.0 + 2.0 * alpha) + lg_shift - log(2.0) - lg_fact))
    out = np.tril(np.outer(a, b), -1) - np.triu(np.outer(b, a), 1)
    idx = np.arange(n_max + 1)
    out[(idx[:, None] + idx[None, :]) % 2 == 0] = 0.0
    return out


def log_strata(rng, lo: float, hi: float, strata: int = 8):
    """Endless log-uniform draws from [lo, hi], stratified.

    Each block of ``strata`` draws puts exactly one draw in each of
    ``strata`` equal log-width bins, in a seeded order, so every run sees
    the same mix of sizes whatever its seed.
    """
    while True:
        for j in rng.permutation(strata):
            yield lo * (hi / lo) ** ((j + rng.random()) / strata)


def unit_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Workload:
    name = ""
    why = ""
    #: Warm-up ops run at the end of every set-up, inside setup_s.
    warmup_ops = 1

    def prepare(self) -> None:
        """Benchmark-side oracles shared by every op; untimed."""

    def warmup_inputs(self):
        """Fixed warm-up inputs: the first ops of the seed-0 sequence."""
        it = self.inputs(0)
        return [next(it) for _ in range(self.warmup_ops)]

    def after_setup(self, state) -> None:
        """Untimed hook run once the set-up (warm-up included) is done."""

    def record(self) -> dict:
        """Workload facts for the run record."""
        return {}


class Examples(Workload):
    """One op is one pass over all seven ``ballspec --example`` runs.

    Why: this is what users run to reproduce the paper.  It runs every layer
    at the paper's small sizes, and most of its time goes to the d=3
    splitting (ball3d) and the pde-demo checks.  An asymptotic win
    (eigh-once propagation, O(N) solves, O(N) radial tables) should barely
    move it; fixed per-call overhead or a slower d=3 path shows here.

    Each pass runs the examples with their default configs, in-process
    through ``ballspec.cli.main``, into one output directory; the seed only
    permutes their order.  Gate: every exit code is 0 and every artifact is
    byte-identical to the one the warm-up pass wrote.
    """

    name = "examples"
    why = ("Runs all seven --example reproductions at paper sizes; loads split d=3, "
           "pde-demo checks, export and CLI; asymptotic wins should barely move it.")

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.reference = None

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        while True:
            yield tuple(EXAMPLES[i] for i in rng.permutation(len(EXAMPLES)))

    def build(self, bs, rec):
        os.makedirs(self.out_dir, exist_ok=True)
        return None

    def op(self, bs, state, order, rec):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for example in order:
                codes.append(bs.cli.main(["--example", example, "--out", self.out_dir]))
        if rec is not None:
            rec.note("cli", "artifact_bytes", sum(
                e.stat().st_size for e in os.scandir(self.out_dir)))
        return codes

    def artifact_hashes(self) -> dict:
        out = {}
        for entry in sorted(os.scandir(self.out_dir), key=lambda e: e.name):
            with open(entry.path, "rb") as fh:
                out[entry.name] = hashlib.sha256(fh.read()).hexdigest()[:16]
        return out

    def after_setup(self, state):
        self.reference = self.artifact_hashes()

    def verify(self, state, order, codes):
        hashes = self.artifact_hashes()
        ok = all(code == 0 for code in codes) and hashes == self.reference
        return ok, digest(tuple(codes), tuple(sorted(hashes.items())))

    def record(self):
        return {"artifact_sha256_16": self.reference}


class Expansion(Workload):
    """One op splits, analyzes and re-synthesizes one seeded disc field.

    Field: (1-r) sum_{|m|<=16} a_m e^{b_m r} e^{i m theta}, all 33 modes live
    with nonzero origin values |a_m| in [0.5, 1.5] x scale, b_m in [-1, 1],
    the scale drawn log-uniformly (stratified) from ``scale``.  The op runs
    ``make_pos(k_max=16)`` -> ``analyze_disc`` (alpha=beta=2, N=128, K=16,
    verification on) -> ``error_report(M=64)`` on the 65x65 sin^2 grid.

    Why: synthesis dominates.  The per-degree radial rebuild and the ``f0``
    re-sampling of the field do most of the work, with Gauss-Jacobi at N+8
    nodes beside them.  Gate: e_inf <= 1e-8 x max|f| on the grid (relative,
    so a lost origin value counts as a failure).

    The default scale range keeps clear of the two known scale defects
    (origin value dropped below a scale of about 1e-13; the absolute 1e-8
    verification tolerance exceeded above about 5e2, as the orthogonality
    residual grows with the square of the scale); ``probes.py --defects``
    runs the same op on those ranges.
    """

    name = "expansion"
    why = ("Seeded 33-mode disc fields through make_pos, analyze_disc N=128 and "
           "error_report M=64; loads synthesis, f0 re-sampling, Gauss-Jacobi; bypasses pde, semisep.")
    N, K, M = 128, 16, 64
    MODES = np.arange(-16, 17)

    def __init__(self, scale=(1e-9, 30.0)):
        self.scale = scale
        m = np.arange(self.M + 1)
        r = np.sin(0.5 * np.pi * m / self.M) ** 2
        theta = -np.pi + 2.0 * np.pi * m / self.M
        self.grid = np.meshgrid(r, theta, indexing="ij")

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        for scale in log_strata(rng, *self.scale):
            n = len(self.MODES)
            a = scale * rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
            yield a, rng.uniform(-1.0, 1.0, n)

    def field(self, inp):
        a, b = inp
        modes = self.MODES

        def f(r, theta):
            r, theta = np.broadcast_arrays(np.asarray(r, dtype=float),
                                           np.asarray(theta, dtype=float))
            waves = np.exp(r[..., None] * b + 1j * theta[..., None] * modes)
            return (1.0 - r) * (waves @ a)
        return f

    def build(self, bs, rec):
        return bs.basis.BasisSpec(alpha=ALPHA, beta=ALPHA, d=2, N=self.N, K=self.K)

    def op(self, bs, spec, inp, rec):
        f = self.field(inp)
        if rec is not None:
            f = rec.field(f)
        pair = bs.split.make_pos(f, k_max=self.K)
        coeffs = bs.expand.analyze_disc(pair, spec)
        report = bs.expand.error_report(f, coeffs, M=self.M)
        return coeffs.fhat, report.e_inf

    def verify(self, spec, inp, out):
        fhat, e_inf = out
        fmax = float(np.max(np.abs(self.field(inp)(*self.grid))))
        ok = bool(np.isfinite(e_inf) and np.all(np.isfinite(fhat)) and e_inf <= 1e-8 * fmax)
        return ok, digest(fhat, e_inf)


def affine_direction():
    """Unit-norm affine direction h = (1-r)/sqrt(2 pi/3) and its r-derivative."""
    scale = 1.0 / np.sqrt(2.0 * np.pi / 3.0)

    def h(r, theta):
        return scale * (1.0 - np.asarray(r, dtype=float)) * np.ones_like(
            np.asarray(theta, dtype=float))

    def dh(r, theta):
        return -scale * np.ones(np.broadcast(np.asarray(r), np.asarray(theta)).shape)
    return h, dh


#: <dh/dr, h> for the direction above: -(3/(2 pi)) * 2 pi * int_0^1 (1-r) dr.
AFFINE_D = -1.5


class Evolution(Workload):
    """One op is one ``propagate`` of a seeded unit state.

    Set-up: ``build_diff_ops`` + ``compound_radial`` + ``assemble`` for both
    kinds, alpha=beta=2, N=96, K=8.  Ops alternate Schrodinger and
    diffusion; t comes from the 6-point log grid 0.01..10, each grid point
    once per kind in every 12 ops, in seeded order.

    Why: per-mode ``expm`` is almost all the work.  One eigh for all modes
    and all t should pay here, and it moves work into ``setup_s``.  The
    split and expand layers do nothing.  Gate: Schrodinger norm drift
    <= 1e-9; diffusion norm <= norm_bound (1 + 1e-8); both agree with a
    benchmark-side dense ``scipy.linalg.expm`` oracle per (kind, t),
    precomputed from a generator written out independently, to a relative
    1e-9 + 64 u |t| ||L||_2 (u the unit roundoff).  The second term is the
    first-order bound by which two backward-stable evaluations of exp(tL)
    may differ; for Schrodinger at t = 10 it is about 2e-7, and two dense
    expm calls on generators equal to rounding already differ by 5e-8.
    """

    name = "evolution"
    why = ("Alternating Schrodinger/diffusion propagate of seeded unit states, N=96 K=8, "
           "6 times 0.01..10; loads pde expm and setup builds; bypasses split, expand.")
    N, K = 96, 8
    T_GRID = np.logspace(-2.0, 1.0, 6)
    KINDS = ("schrodinger", "diffusion")
    warmup_ops = 2

    @property
    def size(self):
        return (2 * self.K + 1) * (self.N + 2)

    def prepare(self):
        dr = 2.0 * dense_Dr(self.N, ALPHA)
        core = dr.T @ dr
        eye = np.eye(self.N + 1)
        self.gen_norm = float(np.linalg.eigvalsh(core)[-1]) + self.K ** 2 + AFFINE_D ** 2
        self.flows = {}
        for m in range(self.K + 1):
            gen = np.zeros((self.N + 2, self.N + 2), dtype=complex)
            gen[0, 0] = -(AFFINE_D ** 2 + m * m)
            gen[1:, 1:] = -(core + m * m * eye)
            for kind in self.KINDS:
                g = 1j * gen if kind == "schrodinger" else gen
                for ti, t in enumerate(self.T_GRID):
                    self.flows[kind, ti, m] = scipy.linalg.expm(t * g)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        while True:
            order = {kind: rng.permutation(len(self.T_GRID)) for kind in self.KINDS}
            for j in range(len(self.T_GRID)):
                for kind in self.KINDS:
                    yield kind, int(order[kind][j]), unit_vector(rng, self.size)

    def build(self, bs, rec):
        spec = bs.basis.BasisSpec(alpha=ALPHA, beta=ALPHA, d=2, N=self.N, K=self.K)
        ops = bs.diffmat.build_diff_ops(spec)
        h, dh = affine_direction()
        if rec is not None:
            h, dh = rec.field(h), rec.field(dh)
        comp = bs.diffmat.compound_radial(ops, h, dh)
        kinds = {"schrodinger": bs.pde.PdeKind.SCHRODINGER, "diffusion": bs.pde.PdeKind.DIFFUSION}
        return {kind: bs.pde.assemble(kinds[kind], ops, comp) for kind in self.KINDS}, \
            bs.pde.norm_bound

    def op(self, bs, state, inp, rec):
        kind, ti, v = inp
        return bs.pde.propagate(state[0][kind], v, float(self.T_GRID[ti]))

    def oracle(self, kind, ti, v):
        seg = v.reshape(2 * self.K + 1, self.N + 2)
        return np.concatenate([self.flows[kind, ti, abs(m)] @ s
                               for m, s in zip(range(-self.K, self.K + 1), seg)])

    def verify(self, state, inp, out):
        ops, norm_bound = state
        kind, ti, v = inp
        y = np.asarray(out)
        if y.shape != v.shape or not np.all(np.isfinite(y)):
            return False, digest(y)
        norm = np.linalg.norm(y)
        if kind == "schrodinger":
            ok = abs(norm - 1.0) <= 1e-9
        else:
            ok = norm <= norm_bound(ops[kind], float(self.T_GRID[ti])) * (1.0 + 1e-8)
        ref = self.oracle(kind, ti, v)
        t = float(self.T_GRID[ti])
        tol = 1e-9 + 64 * np.finfo(float).eps / 2 * t * self.gen_norm
        ok = ok and np.linalg.norm(y - ref) <= tol * np.linalg.norm(ref)
        return bool(ok), digest(y)


class Resolvent(Workload):
    """One op is one ``contour_apply(np.exp, A, v)``.

    A = rho Dr / ||Dr||_2 in generator form, Dr = ``build_Dr(95, 2.0)``
    (n = 96), rho drawn log-uniformly (stratified) from ``rho``, v a seeded
    complex vector.

    Why: dense ``solve_shifted`` (about 480 solves per op) and two
    ``eigvals`` calls do the work; no other workload calls them, so without
    this one the semisep solver would go unmeasured.  Gate:
    ||y - expm(A) v|| <= 1e-8 ||v|| with a benchmark-side dense expm; any
    raised error or non-finite output is a failure.

    The default range stops at rho = 10, clear of the known circle-contour
    defect (``ContourError`` from about rho = 12.5 on); ``probes.py
    --defects`` runs the same op beyond it.
    """

    name = "resolvent"
    why = ("contour_apply(exp) on rho*Dr/||Dr||, n=96, rho 1..10; loads semisep solve_shifted, "
           "to_dense and eigvals; no other workload reaches them; bypasses split, expand, pde.")
    N_MAX = 95

    def __init__(self, rho=(1.0, 10.0)):
        self.rho = rho

    def prepare(self):
        self.dense = dense_Dr(self.N_MAX, ALPHA)
        self.norm = float(np.linalg.norm(self.dense, 2))

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        for rho in log_strata(rng, *self.rho):
            yield float(rho), unit_vector(rng, self.N_MAX + 1)

    def build(self, bs, rec):
        return bs.diffmat.build_Dr(self.N_MAX, ALPHA)

    def op(self, bs, dr, inp, rec):
        rho, v = inp
        s = rho / self.norm
        a = bs.semisep.SemiSep2(size=dr.size, p=dr.p * s, q=dr.q, u=dr.u * s, v=dr.v,
                                parity_mask=dr.parity_mask)
        return bs.semisep.contour_apply(np.exp, a, v)

    def verify(self, dr, inp, out):
        rho, v = inp
        y = np.asarray(out)
        if y.shape != v.shape or not np.all(np.isfinite(y)):
            return False, digest(y)
        ref = scipy.linalg.expm(rho / self.norm * self.dense) @ v
        return bool(np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(v)), digest(y)


def make(name: str, scratch_dir: str) -> Workload:
    """The workload called ``name``; ``scratch_dir`` holds example artifacts."""
    if name == "examples":
        return Examples(os.path.join(scratch_dir, f"examples-{os.getpid()}"))
    return {"expansion": Expansion, "evolution": Evolution, "resolvent": Resolvent}[name]()


NAMES = ("examples", "expansion", "evolution", "resolvent")
