"""Ungated probes: the scaling sweep and the known-defect probe.

    python3 perfbench/probes.py --sweep      # fitted log-log exponent per layer
    python3 perfbench/probes.py --defects    # how often each known defect fires

Neither is a workload and neither carries a bound.  The sweep times
``gauss_jacobi``, ``solve_shifted``, ``synthesize`` and ``propagate`` over a
few sizes N and fits the slope of log(time) against log(N), so a change from
O(N^3) to O(N) shows as an exponent.  The defect probe runs the workloads'
own ops and gates on the input ranges the workloads keep clear of, and
counts the failures.  Each prints one JSON object as its last line.
"""

from run import clear_quad_pad  # importing run pins the BLAS threads first

import argparse
import json
import statistics
from time import perf_counter

import numpy as np

import harness
import workloads

#: layer -> sizes N swept
SIZES = {
    "jacobi.gauss_jacobi": (256, 512, 1024, 2048),
    "semisep.solve_shifted": (256, 512, 1024, 2048),
    "expand.synthesize": (32, 64, 128, 256),
    "pde.propagate": (32, 64, 128, 256),
}


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _case(bs, layer, n, rng):
    """A zero-argument call of ``layer`` at size n."""
    if layer == "jacobi.gauss_jacobi":
        params = bs.jacobi.JacobiParams(2.0, 2.0)
        return lambda: bs.jacobi.gauss_jacobi(n, params)
    if layer == "semisep.solve_shifted":
        dr = bs.diffmat.build_Dr(n - 1, workloads.ALPHA)
        rhs = workloads.unit_vector(rng, n)
        return lambda: bs.semisep.solve_shifted(dr, 2.0 + 1.0j, rhs)
    if layer == "expand.synthesize":
        spec = bs.basis.BasisSpec(alpha=2.0, beta=2.0, d=2, N=n, K=4)
        fhat = rng.standard_normal((n + 1, 9)) + 1j * rng.standard_normal((n + 1, 9))
        coeffs = bs.expand.CoeffTensor(fhat=fhat, fcirc={}, spec=spec, pair=None)
        r, theta = rng.random(500), rng.uniform(-np.pi, np.pi, 500)
        return lambda: bs.expand.synthesize(coeffs, r, theta)
    spec = bs.basis.BasisSpec(alpha=2.0, beta=2.0, d=2, N=n, K=2)
    ops = bs.diffmat.build_diff_ops(spec)
    comp = bs.diffmat.compound_radial(ops, *workloads.affine_direction())
    op = bs.pde.assemble(bs.pde.PdeKind.DIFFUSION, ops, comp)
    v = workloads.unit_vector(rng, op.total_size)
    return lambda: bs.pde.propagate(op, v, 1.0)


def sweep(repeats=3):
    bs = harness.fresh_import()
    rng = np.random.default_rng(0)
    out = {}
    for layer, sizes in SIZES.items():
        times = [_timed(_case(bs, layer, n, rng), repeats) for n in sizes]
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        out[layer] = {"N": list(sizes), "seconds": times, "exponent": slope}
    return out


#: probe -> (workload, keyword arguments, ops run)
DEFECTS = {
    "expansion.origin_lost_below_1e-13": (workloads.Expansion, {"scale": (1e-16, 1e-14)}, 4),
    "expansion.verify_abs_tol_large_scale": (workloads.Expansion, {"scale": (1e4, 1e6)}, 4),
    "resolvent.circle_contour_rho_13_24": (workloads.Resolvent, {"rho": (13.0, 24.0)}, 3),
}


def defects(seed=0):
    bs = harness.fresh_import()
    out = {}
    for probe, (cls, kwargs, n_ops) in DEFECTS.items():
        wl = cls(**kwargs)
        wl.prepare()
        state = wl.build(bs, None)
        samples = harness.loop(wl, bs, state, seed, float("inf"), harness.Calibrator(),
                               max_ops=n_ops)
        out[probe] = {"attempted": len(samples),
                      "failed": sum(not s.passed for s in samples),
                      "errors": sorted({s.error.split(":")[0] for s in samples if s.error})}
    # propagate(use_contour=True) on the diffusion generator
    spec = bs.basis.BasisSpec(alpha=2.0, beta=2.0, d=2, N=16, K=2)
    ops = bs.diffmat.build_diff_ops(spec)
    comp = bs.diffmat.compound_radial(ops, *workloads.affine_direction())
    op = bs.pde.assemble(bs.pde.PdeKind.DIFFUSION, ops, comp)
    v = workloads.unit_vector(np.random.default_rng(seed), op.total_size)
    try:
        bs.pde.propagate(op, v, 1.0, use_contour=True)
        errors = []
    except Exception as exc:  # the probe reports the defect instead of crashing
        errors = [type(exc).__name__]
    out["pde.contour_diffusion_N16_t1"] = {"attempted": 1, "failed": len(errors),
                                           "errors": errors}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sweep", action="store_true")
    mode.add_argument("--defects", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    record = harness.run_record(args.seed, clear_quad_pad())
    result = sweep() if args.sweep else defects(args.seed)
    for name, row in result.items():
        print(f"  {name:40s} " + ", ".join(f"{k}={v}" for k, v in row.items()))
    print(json.dumps({"mode": "sweep" if args.sweep else "defects", "record": record,
                      "results": result}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except harness.SourceMissing as exc:
        raise SystemExit(f"perfbench: {exc}")
