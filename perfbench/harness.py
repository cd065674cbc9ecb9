"""Timed closed loop, end-to-end statistics and the run record.

``run()`` measures one workload in this process: it sets up several times
(fresh ``import ballspec`` each time) and reports the median set-up time,
then runs ops back to back until the summed op time reaches ``seconds``.
With ``trace=True`` it instead runs the same op sequence twice, untraced and
then traced, for half the time each, and reports per-layer metrics.

Times are reported at a reference machine speed.  The benchmark shares its
cores with other tenants, and their load changes how fast the same code
runs by up to half over periods of seconds to minutes.  So a short
calibration pass that does not touch ``ballspec`` runs before every op and
around every set-up, and each time is scaled by CALIB_REF_S divided by the
local median calibration time: it reads as the time the op would take on
the machine at a speed where the pass takes CALIB_REF_S.  The raw wall
times are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("goodput_ops_s", "ops/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.22),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: Time of one calibration pass at the reference machine speed.
CALIB_REF_S = 0.005


class Calibrator:
    """Fixed work, independent of ballspec, whose time tracks machine speed.

    It mixes the three kinds of work the ops do: interpreted Python, a
    small LAPACK solve and vectorised numpy.
    """

    def __init__(self):
        rng = np.random.default_rng(20231213)
        self.a = rng.standard_normal((120, 120))
        self.b = rng.standard_normal(120)
        self.v = rng.standard_normal(20000)

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(10):
            np.linalg.solve(self.a, self.b)
            np.exp(self.v)
        return perf_counter() - t0


class SourceMissing(RuntimeError):
    """The checkout holds no ballspec sources to benchmark."""


def require_sources() -> None:
    if not (SRC / "ballspec" / "__init__.py").is_file():
        raise SourceMissing(f"no ballspec package under {SRC}")


def fresh_import():
    """Import ``ballspec`` and all its layers anew from the checkout's src/."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ballspec" or m.startswith("ballspec.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ballspec")
    for layer in spans.LAYERS:
        importlib.import_module(f"ballspec.{layer}")
    if Path(pkg.__file__).resolve().parent != SRC / "ballspec":
        raise SourceMissing(f"ballspec was imported from {pkg.__file__}, not from {SRC}")
    return pkg


@dataclass
class Sample:
    seconds: float
    calib: float
    passed: bool
    digest: str | None
    error: str | None


def loop(wl, bs, state, seed, seconds, calib, max_ops=None, rec=None):
    """Closed loop over the seeded op sequence; each op is gated untimed."""
    samples = []
    busy = 0.0
    for i, inp in enumerate(wl.inputs(seed)):
        if busy >= seconds or (max_ops is not None and i >= max_ops):
            break
        if rec is not None:
            rec.op = i
        c = calib()
        t0 = perf_counter()
        try:
            out, error = wl.op(bs, state, inp, rec), None
        except Exception as exc:  # a raised error is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        busy += dt
        passed, dig = wl.verify(state, inp, out) if error is None else (False, None)
        samples.append(Sample(dt, c, passed, dig, error))
    return samples


def setup_once(wl, rec=None):
    """One set-up: fresh import, builds (traced into ``rec`` if given) and
    warm-up.  Returns (seconds, bs, state, tracer or None)."""
    t0 = perf_counter()
    bs = fresh_import()
    tracer = None if rec is None else spans.Tracer(bs, rec)
    if tracer is None:
        state = wl.build(bs, None)
    else:
        with tracer.installed():
            state = wl.build(bs, rec)
    for inp in wl.warmup_inputs():
        wl.op(bs, state, inp, None)
    return perf_counter() - t0, bs, state, tracer


def tail(latencies):
    """(value, percentile) of the highest percentile that still has >= 10
    samples beyond it; with fewer than 11 samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return (xs[-1] if xs else 0.0), 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def scaled(samples):
    """Op times at the reference speed, each scaled by the median of the
    calibration passes of its five nearest ops."""
    calib = [s.calib for s in samples]
    return [s.seconds * CALIB_REF_S / statistics.median(calib[max(0, i - 2):i + 3])
            for i, s in enumerate(samples)]


def timings(samples, times, setup_times):
    passed = [t for t, s in zip(times, samples) if s.passed]
    busy = sum(times)
    value, pct = tail(passed)
    return {
        "setup_s": statistics.median(setup_times),
        "goodput_ops_s": len(passed) / busy if busy else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(passed) if passed else 0.0,
        "latency_tail_ms": 1e3 * value,
    }, pct, len(passed)


def end_to_end(samples, setups):
    """Scaled end-to-end metrics, plus the raw ones and details for the record."""
    metrics, pct, n_passed = timings(samples, scaled(samples), [t for t, _ in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, _, _ = timings(samples, [s.seconds for s in samples], [t for _, t in setups])
    extra = {
        "fail_ratio": (len(samples) - n_passed) / len(samples) if samples else 1.0,
        "latency_tail_percentile": pct,
        "latency_tail_samples": n_passed,
        "raw_wall": raw,
        "calib_median_s": statistics.median(s.calib for s in samples) if samples else None,
        "setup_samples_s": [t for t, _ in setups],
    }
    return metrics, extra


def run(wl, seed, seconds, trace=False, max_ops=None):
    """Measure one workload; returns (result, record) for printing."""
    wl.prepare()
    calib = Calibrator()
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "calib_ref_s": CALIB_REF_S}
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            around = [calib() for _ in range(3)]
            dt, bs, state, _ = setup_once(wl)
            around += [calib() for _ in range(3)]
            setups.append((dt * CALIB_REF_S / statistics.median(around), dt))
        wl.after_setup(state)
        samples = loop(wl, bs, state, seed, seconds, calib, max_ops)
        metrics, extra = end_to_end(samples, setups)
        record.update(extra)
        correct = all(s.passed for s in samples)
    else:
        rec = spans.Recorder()
        _, bs, state, tracer = setup_once(wl, rec)
        wl.after_setup(state)
        base = loop(wl, bs, state, seed, seconds / 2.0, calib, max_ops)
        with tracer.installed():
            samples = loop(wl, bs, state, seed, seconds / 2.0, calib, max_ops, rec)
        overhead = _goodput(samples) / _goodput(base) if _goodput(base) else 0.0
        metrics, observed = spans.per_layer(rec, len(samples), overhead)
        mismatched = [i for i, (a, b) in enumerate(zip(base, samples)) if a.digest != b.digest]
        record.update({
            "traced_ops": len(samples), "untraced_ops": len(base),
            "traced_equals_untraced": not mismatched, "mismatched_ops": mismatched[:10],
            "unbound": tracer.unbound, "observed": sorted(observed),
        })
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / f"spans-{wl.name}-seed{seed}.json"
        rec.dump(str(path))
        record["spans_file"] = str(path.relative_to(ROOT))
        samples = base + samples
        correct = all(s.passed for s in samples) and not mismatched
    errors = [s.error for s in samples if s.error]
    record.update({
        "attempted": len(samples), "failed": sum(not s.passed for s in samples),
        "errors": errors[:10], **wl.record(),
    })
    result = {"correct": bool(correct and samples), "attempted": len(samples),
              "failed": record["failed"], "metrics": metrics}
    return result, record


def _goodput(samples):
    busy = sum(scaled(samples))
    return sum(s.passed for s in samples) / busy if busy else 0.0


def run_record(seed, quad_pad) -> dict:
    """Facts every result is recorded with."""
    return {
        "commit": _commit(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "BALLSPEC_QUAD_PAD": quad_pad,
    }


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ballspec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
