"""Benchmark of ballspec: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (examples, expansion, evolution, resolvent) in this
process, from the root of a checkout whose ``src/ballspec`` it imports.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones.  It prints a human-readable table and the run record,
and as its last line one JSON object with the keys correct, attempted,
failed and metrics.  ``--workload all`` runs every workload in turn, each in
its own process, and prints every table.

``python3 perfbench/probes.py`` holds the ungated modes: the scaling sweep
and the probe of known defects.
"""

import ctypes
import os

#: Every BLAS/OpenMP pool is pinned to one thread before numpy is imported.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

#: glibc mallopt parameters (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD) and values.
PINNED_MALLOC = {"M_TRIM_THRESHOLD": (-1, 128 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


def pin_malloc() -> dict:
    """Fix glibc's malloc thresholds for this process.

    By default glibc adapts its mmap and trim thresholds to the allocation
    history, so the same op may map, fault in and unmap each large array or
    reuse the heap, and run 25-40% slower or faster depending on what ran
    before it in the process.  Fixed thresholds remove that dependence.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return {"pinned": False}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = {name: value for name, (param, value) in PINNED_MALLOC.items()
            if mallopt(param, value) == 1}
    return {"pinned": len(done) == len(PINNED_MALLOC), **done}


MALLOC = pin_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

UNITS = dict((name, unit) for name, unit, *_ in harness.END_TO_END + spans.PER_LAYER)


def clear_quad_pad() -> dict:
    """Clear BALLSPEC_QUAD_PAD, which changes the radial work per op."""
    return {"before": os.environ.pop("BALLSPEC_QUAD_PAD", None), "during": None}


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(result, record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value['value']:>14.6g} {UNITS[name]}")
    if not record["trace"]:
        print(f"  {'fail_ratio':42s} {record['fail_ratio']:>14.6g} 1")
        print(f"  latency_tail_ms is p{record['latency_tail_percentile']:.2f} of "
              f"{record['latency_tail_samples']} passing ops")
        print(f"  times above are at the reference speed; raw wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_wall"].items()))
    print("run record: " + json.dumps(record, sort_keys=True))


def run_all(args):
    """Each workload in its own process, as the benchmark is meant to run."""
    code = 0
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    harness.require_sources()
    quad_pad = clear_quad_pad()
    harness.SCRATCH.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, str(harness.SCRATCH))
    try:
        result, record = harness.run(wl, args.seed, args.seconds, trace=bool(args.trace))
    finally:
        if isinstance(wl, workloads.Examples):
            shutil.rmtree(wl.out_dir, ignore_errors=True)
    record.update(harness.run_record(args.seed, quad_pad), malloc=MALLOC)
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in result["metrics"].items()}
    print_table(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.SourceMissing as exc:
        sys.exit(f"perfbench: {exc}")
