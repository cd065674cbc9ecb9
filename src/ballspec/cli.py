"""Command-line reproduction suite for the disc and ball experiments.

Each example subcommand rebuilds one experiment with its standard
configuration, writes machine-readable artifacts (coefficient-decay tables,
error reports, asymmetry comparisons), and asserts its own acceptance
thresholds: the exit status is 0 iff every per-example check passes, so the
CLI doubles as a reproduction harness.  Invalid parameters give a one-line
message on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, UsageError
from .diffmat import (
    RADIAL_SCALE,
    asymmetry_S_ex1,
    asymmetry_beta0,
    build_Dr_quad,
    build_diff_ops,
    compound_radial,
    ex1_Dr_quad,
    ex1_S_quad,
)
from .expand import (
    ErrorReport,
    analyze,
    analyze_disc,
    analyze_polar_weighted,
    error_report,
    error_report_polar,
    export_decay_csv,
    export_report_json,
    flatten_index,
)
from .jacobi import BallspecError
from .pde import (
    PdeKind,
    abscissa_scan,
    assemble,
    export_trajectory_csv,
    norm_bound,
    propagate,
    spectral_abscissa,
    stability_report,
)
from .split import Template, check_split, make_pos, raw_pair

EXAMPLES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ball3d", "pde-demo")

# Per-example defaults: (N, K, M, alpha, beta)
DEFAULTS = {
    "ex1": (6, 5, 6, 2.0, 1.0),
    "ex2": (6, 5, 6, 2.0, 0.0),
    "ex3": (6, 5, 6, 2.0, 2.0),
    "ex4": (6, 5, 6, 1.0, 1.0),
    "ex5": (6, 5, 6, 2.0, 2.0),
    "ball3d": (5, 3, 6, 2.0, 2.0),
    "pde-demo": (16, 4, 6, 2.0, 2.0),
}


@dataclass
class RunConfig:
    example: str
    N: int
    K: int
    M: int
    alpha: float
    beta: float
    out: str
    format: str
    seed: int


class AssertionFailure(Exception):
    """A named per-example check that did not hold."""


def _check(name: str, ok: bool, detail: str = ""):
    status = "pass" if ok else "FAIL"
    line = f"  [{status}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    if not ok:
        raise AssertionFailure(name)


def test_field(d: int = 2):
    """The standard smooth test field f(r, theta1, ..., theta_{d-1}), vanishing
    on the boundary r = 1, with phase exp(i(0.5 + theta1 + 2 theta2 + ...))."""
    def f(r, *thetas):
        if len(thetas) != d - 1:
            raise UsageError(f"the d={d} test field takes {d - 1} angles, got {len(thetas)}")
        phase = 0.5 + np.asarray(thetas[0])
        for t in thetas[1:]:
            phase = phase + 2.0 * np.asarray(t)
        return (1.0 - np.asarray(r)) * np.exp(np.asarray(r)) * np.exp(1j * phase)
    return f


def loglog_fit(qs, vals):
    """(slope, r_squared) of a least-squares line through (log q, log v)."""
    x = np.log(np.asarray(qs, dtype=float))
    y = np.log(np.asarray(vals, dtype=float))
    if x.size < 2:
        return 0.0, 1.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


def nonzero_decay(report: ErrorReport, rel_tol: float = 1e-12):
    top = max(v for _, v in report.coeff_decay)
    return [(q, v) for q, v in report.coeff_decay if v > rel_tol * top]


def emit_report(report: ErrorReport, fmt: str, path: str) -> None:
    """Write a report deterministically; CSV holds the decay table columns."""
    if fmt == "json":
        export_report_json(report, path)
    else:
        export_decay_csv(report, path)


def _emit(config: RunConfig, report: ErrorReport, stem: str) -> None:
    ext = "json" if config.format == "json" else "csv"
    path = os.path.join(config.out, f"{stem}_report.{ext}")
    emit_report(report, config.format, path)
    print(f"  wrote {path}")


def _write_asymmetry_csv(path, closed, quad):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "closed_form", "quadrature"])
        n = closed.shape[0]
        for i in range(n):
            for j in range(n):
                writer.writerow([i, j, f"{closed[i, j]:.17g}", f"{quad[i, j]:.17g}"])


def _print_report(report: ErrorReport):
    print(f"  e_inf = {report.e_inf:.6e}   e_2 = {report.e_2:.6e}   (grid M={report.grid_M})")


def run_ex1(config: RunConfig):
    """r-weighted expansion: excellent decay, no skew symmetry (overlap S)."""
    a = config.alpha
    n_max = 10
    s_closed = asymmetry_S_ex1(n_max, a)
    s_quad = ex1_S_quad(n_max, a)
    d_quad = ex1_Dr_quad(n_max, a)
    asym = d_quad + d_quad.T
    _check("overlap_entry_00_equals_4", s_closed[0, 0] == 4.0,
           f"S[0,0] = {s_closed[0, 0]}")
    _check("overlap_closed_matches_quadrature",
           np.max(np.abs(s_closed - s_quad)) <= 1e-8,
           f"max dev {np.max(np.abs(s_closed - s_quad)):.3e}")
    _check("asymmetry_equals_minus_overlap",
           np.max(np.abs(asym + s_closed)) <= 1e-8,
           f"max |D+D^T+S| = {np.max(np.abs(asym + s_closed)):.3e}")
    _write_asymmetry_csv(os.path.join(config.out, "ex1_asymmetry.csv"),
                         -s_closed, asym)
    print(f"  wrote {os.path.join(config.out, 'ex1_asymmetry.csv')}")
    print(f"  headline: max |D + D^T| = {np.max(np.abs(asym)):.6e} "
          "(substantial departure from skew symmetry)")

    coeffs = analyze_polar_weighted(test_field(), config.N, config.K, a)
    report = error_report_polar(test_field(), coeffs, config.M)
    _print_report(report)
    _check("r_weighted_expansion_converges", report.e_inf <= 1e-5,
           f"e_inf = {report.e_inf:.3e}")
    _emit(config, report, "ex1")


def run_ex2(config: RunConfig):
    """beta = 0 family: exponential decay but an endpoint obstruction."""
    a = config.alpha
    n_max = 10
    closed = np.array([[asymmetry_beta0(n, m, a) for m in range(n_max + 1)]
                       for n in range(n_max + 1)])
    d_quad = RADIAL_SCALE * build_Dr_quad(n_max, a, 0.0)
    asym = d_quad + d_quad.T
    _check("asymmetry_matches_closed_form",
           np.max(np.abs(asym + closed)) <= 1e-9,
           f"max dev {np.max(np.abs(asym + closed)):.3e}")
    _check("asymmetry_entry_00_equals_3",
           abs(abs(asym[0, 0]) - 3.0) <= 1e-9,
           f"|entry| = {abs(asym[0, 0]):.12f}")
    _write_asymmetry_csv(os.path.join(config.out, "ex2_asymmetry.csv"),
                         -closed, asym)
    print(f"  wrote {os.path.join(config.out, 'ex2_asymmetry.csv')}")

    spec = BasisSpec(alpha=a, beta=0.0, d=2, N=config.N, K=config.K)
    coeffs = analyze_disc(raw_pair(test_field()), spec, check=False)
    report = error_report(test_field(), coeffs, config.M)
    _print_report(report)
    nz = nonzero_decay(report)
    expected_q = [flatten_index(n, 1, spec) for n in range(config.N + 1)]
    _check("nonzero_flat_indices", [q for q, _ in nz] == expected_q,
           f"q = {[q for q, _ in nz]}")
    _check("direct_expansion_converges", report.e_inf <= 1e-6,
           f"e_inf = {report.e_inf:.3e}")
    _emit(config, report, "ex2")


def run_ex3(config: RunConfig):
    """Skew-symmetric basis applied without splitting: no pointwise
    convergence at the origin and slow algebraic coefficient decay."""
    spec = BasisSpec(alpha=config.alpha, beta=config.beta, d=2,
                     N=config.N, K=config.K)
    coeffs = analyze_disc(raw_pair(test_field()), spec, check=False)
    report = error_report(test_field(), coeffs, config.M)
    _print_report(report)
    nz = nonzero_decay(report)
    slope, r2 = loglog_fit([q for q, _ in nz], [v for _, v in nz])
    print(f"  power-law exponent of nonzero |f_q|: {slope:.4f} (R^2 = {r2:.4f})")
    _check("pointwise_nonconvergence_at_origin", report.e_inf >= 1e-2,
           f"e_inf = {report.e_inf:.3e}")
    _check("algebraic_decay_exponent", -1.2 <= slope <= -0.7,
           f"slope = {slope:.4f}")
    _emit(config, report, "ex3")


def _split_expansion(config: RunConfig, split_tol: float, d: int = 2) -> ErrorReport:
    """Split the test field, check the split residuals, expand and report.

    The split is verified once: check_split applies analyze's relative gate
    and split_tol bounds the absolute residuals of the same report.
    """
    f = test_field(d)
    pair = make_pos(f, Template.LINEAR, d=d)
    worst = check_split(pair).worst
    _check("split_residuals", worst <= split_tol, f"worst = {worst:.3e}")
    # the ball bases need beta == alpha
    spec = BasisSpec(alpha=config.alpha, beta=config.beta if d == 2 else config.alpha,
                     d=d, N=config.N, K=config.K)
    coeffs = analyze(pair, spec, check=False)
    report = error_report(f, coeffs, config.M)
    _print_report(report)
    return report


def run_ex4(config: RunConfig):
    """Orthogonal splitting with a non-analytic basis (alpha = beta = 1):
    the splitting restores boundedness but decay stays algebraic."""
    report = _split_expansion(config, 1e-8)
    nz = nonzero_decay(report)
    tail = nz[len(nz) // 2:]
    slope, r2 = loglog_fit([q for q, _ in tail], [v for _, v in tail])
    print(f"  tail power-law exponent: {slope:.4f} (R^2 = {r2:.4f})")
    _check("bounded_error", report.e_inf <= 1e-2, f"e_inf = {report.e_inf:.3e}")
    _check("algebraic_tail_decay", -4.0 <= slope <= -1.5,
           f"slope = {slope:.4f}")
    _emit(config, report, "ex4")


def run_ex5(config: RunConfig):
    """The headline configuration: splitting plus the analytic skew basis
    gives geometric decay and ~3e-10 accuracy from 77 coefficients."""
    report = _split_expansion(config, 1e-9)
    n_coeff = (2 * config.K + 1) * (config.N + 1)
    print(f"  degrees of freedom: {n_coeff}")
    nz = nonzero_decay(report)
    slope, r2 = loglog_fit(1.0 + np.arange(len(nz)), [v for _, v in nz])
    _check("accuracy_plateau", report.e_inf <= 1e-8,
           f"e_inf = {report.e_inf:.3e}")
    _check("geometric_coefficient_decay",
           nz[-1][1] <= 1e-6 * nz[0][1], f"ratio = {nz[-1][1] / nz[0][1]:.3e}")
    _emit(config, report, "ex5")


def run_ball3d(config: RunConfig):
    """Splitting and analysis on the 3-dimensional ball."""
    report = _split_expansion(config, 1e-9, d=3)
    nz = nonzero_decay(report)
    # geometric decay: log-linear in the position within the nonzero sequence
    pos = 1.0 + np.arange(len(nz))
    y = np.log([v for _, v in nz])
    slope, intercept = np.polyfit(pos, y, 1)
    resid = y - (slope * pos + intercept)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    print(f"  log-linear decay slope: {slope:.4f} (R^2 = {r2:.4f})")
    _check("log_linear_decay", slope < 0.0 and r2 >= 0.9,
           f"slope = {slope:.3f}, R^2 = {r2:.3f}")
    _check("accuracy", report.e_inf <= 1e-6, f"e_inf = {report.e_inf:.3e}")
    _emit(config, report, "ball3d")


def run_pde_demo(config: RunConfig):
    """Stability and unitarity of the semidiscrete evolution operators."""
    spec = BasisSpec(alpha=config.alpha, beta=config.beta, d=2,
                     N=config.N, K=config.K)
    ops = build_diff_ops(spec)
    scale = 1.0 / np.sqrt(2.0 * np.pi / 3.0)
    h = lambda r, th: scale * (1.0 - np.asarray(r, dtype=float)) \
        * np.ones_like(np.asarray(th, dtype=float))
    dh = lambda r, th: -scale * np.ones(
        np.broadcast(np.asarray(r), np.asarray(th)).shape)
    comp = compound_radial(ops, h, dh)
    print(f"  affine drift scalar d = {comp.d_scalar.real:.6f}")

    rng = np.random.default_rng(config.seed)
    t_grid = (0.1, 1.0, 10.0)

    op_s = assemble(PdeKind.SCHRODINGER, ops, comp)
    drift = 0.0
    for _ in range(10):
        v = rng.standard_normal(op_s.total_size) + 1j * rng.standard_normal(op_s.total_size)
        v /= np.linalg.norm(v)
        for t in t_grid:
            drift = max(drift, abs(np.linalg.norm(propagate(op_s, v, t)) - 1.0))
    _check("unitary_propagation", drift <= 1e-9, f"max drift = {drift:.3e}")

    op_d = assemble(PdeKind.DIFFUSION, ops, comp)
    ratio = 0.0
    for _ in range(10):
        v = rng.standard_normal(op_d.total_size) + 1j * rng.standard_normal(op_d.total_size)
        v /= np.linalg.norm(v)
        for t in t_grid:
            ratio = max(ratio, np.linalg.norm(propagate(op_d, v, t)) / norm_bound(op_d, t))
    _check("dissipative_propagation", ratio <= 1.0 + 1e-8,
           f"max norm/bound = {ratio:.6f}")
    abscissa = spectral_abscissa(op_d)
    _check("nonpositive_spectral_abscissa", abscissa <= 1e-10, f"abscissa = {abscissa:.3e}")

    good = abscissa_scan(config.alpha, config.alpha, [8, 16, 32])
    bad = abscissa_scan(config.alpha, 0.0, [8, 16, 32])
    print(f"  abscissa, skew family:   {[f'{v:.3e}' for _, v in good]}")
    print(f"  abscissa, beta=0 family: {[f'{v:.3e}' for _, v in bad]}")
    _check("skew_family_abscissa_bounded",
           max(v for _, v in good) <= 1e-8,
           f"max = {max(v for _, v in good):.3e}")
    _check("beta0_family_abscissa_grows",
           bad[0][1] > 0.0 and bad[2][1] > 2.0 * bad[0][1],
           f"{bad[0][1]:.3e} -> {bad[2][1]:.3e}")

    rows = stability_report(op_d, t_grid, rng=np.random.default_rng(config.seed))
    path = os.path.join(config.out, "pde_trajectory.csv")
    export_trajectory_csv(rows, path)
    print(f"  wrote {path}")


RUNNERS = {
    "ex1": run_ex1,
    "ex2": run_ex2,
    "ex3": run_ex3,
    "ex4": run_ex4,
    "ex5": run_ex5,
    "ball3d": run_ball3d,
    "pde-demo": run_pde_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballspec",
        description="Reproduction suite for the weighted spectral bases on "
                    "the disc and ball.  Each example writes CSV/JSON "
                    "artifacts (decay tables with columns q,abs_coeff; "
                    "asymmetry tables with columns m,n,closed_form,"
                    "quadrature; trajectories with columns t,norm,bound) "
                    "and exits nonzero if any of its named checks fails.",
    )
    parser.add_argument("--example", required=True, choices=EXAMPLES,
                        help="which experiment to run")
    parser.add_argument("--N", type=int, help="radial truncation degree")
    parser.add_argument("--K", type=int, help="angular truncation order")
    parser.add_argument("--M", type=int, help="evaluation grid parameter")
    parser.add_argument("--alpha", type=float, help="first basis exponent")
    parser.add_argument("--beta", type=float, help="second basis exponent")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format for the error report")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks")
    return parser


def config_from_args(args) -> RunConfig:
    n_def, k_def, m_def, a_def, b_def = DEFAULTS[args.example]
    return RunConfig(
        example=args.example,
        N=args.N if args.N is not None else n_def,
        K=args.K if args.K is not None else k_def,
        M=args.M if args.M is not None else m_def,
        alpha=args.alpha if args.alpha is not None else a_def,
        beta=args.beta if args.beta is not None else b_def,
        out=args.out,
        format=args.format,
        seed=args.seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    os.makedirs(config.out, exist_ok=True)
    print(f"{config.example}: N={config.N} K={config.K} M={config.M} "
          f"alpha={config.alpha} beta={config.beta}")
    try:
        RUNNERS[config.example](config)
    except AssertionFailure as exc:
        print(f"{config.example}: FAILED check '{exc}'")
        return 1
    except BallspecError as exc:
        print(f"{config.example}: error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.example}: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
