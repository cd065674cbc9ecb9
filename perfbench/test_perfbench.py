"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import spans
import workloads

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Span (or group) source -> workloads on which the layer mostly runs.
MOSTLY_ON = {
    "jacobi.gauss_jacobi": ("expansion", "examples"),
    "jacobi.eval": ("expansion",),
    "basis.radial": ("expansion",),
    "basis.inner_product": ("examples", "expansion"),
    "diffmat.build_Dr": ("evolution", "resolvent"),
    "diffmat.compound_radial": ("evolution",),
    "diffmat.build_Dr_quad": ("examples",),
    "diffmat.oracles": ("examples",),
    "semisep.to_dense": ("resolvent",),
    "semisep.solve_shifted": ("resolvent",),
    "semisep.spectrum": ("resolvent",),
    "semisep.contour_apply": ("resolvent",),
    "split.make_pos": ("examples", "expansion"),
    "split.verify_pos": ("examples", "expansion"),
    "split": ("examples", "expansion"),
    "split.f0": ("expansion",),
    "expand.analyze": ("expansion", "examples"),
    "expand.error_report": ("expansion", "examples"),
    "expand.synthesize": ("expansion",),
    "expand.export": ("examples",),
    "pde.assemble": ("evolution",),
    "pde.propagate": ("evolution", "examples"),
    "pde.spectral": ("examples",),
    "cli": ("examples",),
    "trace": workloads.NAMES,
    **{f"cli.{ex}": ("examples",) for ex in spans.EXAMPLES},
}


def _flat(item):
    if isinstance(item, (tuple, list)):
        return [x for part in item for x in _flat(part)]
    return [item]


def _take(it, n):
    return workloads.digest(*_flat([next(it) for _ in range(n)]))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_given_the_seed(name, tmp_path):
    wl = workloads.make(name, str(tmp_path))
    assert _take(wl.inputs(5), 8) == _take(wl.inputs(5), 8)
    assert _take(wl.inputs(5), 8) != _take(wl.inputs(6), 8)


def test_stratified_draws_cover_every_bin_per_block():
    draws = workloads.log_strata(np.random.default_rng(1), 1.0, 256.0, strata=8)
    block = [next(draws) for _ in range(8)]
    assert sorted(int(np.log2(x)) for x in block) == [0, 1, 2, 3, 4, 5, 6, 7]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, str(tmp_path_factory.mktemp(name)))
        out[name] = harness.run(wl, seed=3, seconds=float("inf"), trace=True, max_ops=2)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_are_bit_identical_to_untraced(traced, name):
    result, record = traced[name]
    assert record["traced_ops"] == record["untraced_ops"] == 2
    assert record["traced_equals_untraced"], record["mismatched_ops"]
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert record["unbound"] == []


def test_every_per_layer_metric_is_non_empty_where_its_layer_runs(traced):
    for name, _unit, _better, source, _num, _den in spans.PER_LAYER:
        on = [wl for wl in workloads.NAMES if source in traced[wl][1]["observed"]]
        assert on, f"{name}: layer {source} recorded nothing on any workload"
        missing = set(MOSTLY_ON[source]) - set(on)
        assert not missing, f"{name}: layer {source} recorded nothing on {sorted(missing)}"


def test_per_layer_values_are_reported_for_every_metric(traced):
    names = [m[0] for m in spans.PER_LAYER]
    for result, _record in traced.values():
        assert list(result["metrics"]) == names
        assert all(np.isfinite(v) for v in result["metrics"].values())
    assert traced["resolvent"][0]["metrics"]["semisep.contour_apply.solves_per_call"] > 0
    assert 0 < traced["expansion"][0]["metrics"]["jacobi.eval.rows_used_ratio"] < 1


def test_metric_names_and_units_are_well_formed():
    rows = harness.END_TO_END + spans.PER_LAYER
    names = [row[0] for row in rows]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in rows:
        assert spans.NAME_RE.fullmatch(name) and len(name) <= 64, name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher")
    assert all(0 < bound <= 0.25 for *_, bound in harness.END_TO_END)


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for entry in spec["workloads"]:
        wl = workloads.make(entry["name"], "unused")
        assert entry["why"] == wl.why and len(wl.why) <= 200
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in harness.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in spans.PER_LAYER]


def test_oracles_agree_with_the_library():
    bs = harness.fresh_import()
    lib = bs.diffmat.build_Dr(95, workloads.ALPHA).to_dense()
    np.testing.assert_allclose(workloads.dense_Dr(95, workloads.ALPHA), lib,
                               rtol=1e-13, atol=1e-13 * np.abs(lib).max())
    wl = workloads.Evolution()
    ops, _ = wl.build(bs, None)
    assert abs(ops["diffusion"].d_scalar - workloads.AFFINE_D) < 1e-12


def test_gates_reject_wrong_outputs():
    bs = harness.fresh_import()
    for wl in (workloads.Expansion(), workloads.Evolution(), workloads.Resolvent()):
        wl.prepare()
        state = wl.build(bs, None)
        inp = next(wl.inputs(1))
        out = wl.op(bs, state, inp, None)
        assert wl.verify(state, inp, out)[0], wl.name
        if wl.name == "expansion":
            bad = (out[0], 1e-3 * np.abs(out[0]).max() + 1.0)
        else:
            bad = out * (1.0 + 1e-6)
        assert not wl.verify(state, inp, bad)[0], wl.name


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([float(x) for x in range(1, 41)]) == (30.0, 75.0)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "expansion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
