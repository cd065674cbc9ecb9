"""Span recorder and the wrappers that trace ``ballspec`` from outside.

A span holds name, start, end, parent span, op id and counters.  Spans are
kept in memory and written out when the run ends.  The wrappers patch each
traced public function at every place a ``ballspec`` module binds it
(``from .jacobi import gauss_jacobi_01`` copies the name into other
modules, and ``cli.RUNNERS`` holds the example runners in a dict), and
restore the originals when tracing stops.  No library file is touched.
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("jacobi", "basis", "diffmat", "semisep", "split", "expand", "pde", "cli")

#: Op id of spans opened during the set-up.
SETUP_OP = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, None
        self.parent, self.op, self.counts = parent, op, {}


class Recorder:
    """In-memory spans plus counters that belong to no span (notes)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.notes = defaultdict(lambda: defaultdict(float))

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self.stack.pop()

    def count(self, key: str, value, idx: int | None = None) -> None:
        """Add to a counter of span ``idx``, by default the innermost open one."""
        if idx is None:
            if not self.stack:
                self.notes["outside"][key] += value
                return
            idx = self.stack[-1]
        counts = self.spans[idx].counts
        counts[key] = counts.get(key, 0) + value

    def note(self, source: str, key: str, value) -> None:
        self.notes[source][key] += value

    def field(self, f):
        """Wrap a field callable so each evaluation counts its points."""
        def counted(*args):
            self.count("field_points", int(np.broadcast(*args).size))
            return f(*args)
        return counted

    def dump(self, path: str) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": rows, "notes": self.notes}, fh)


# -- what is traced -----------------------------------------------------------

def _nodes(rec, idx, args, kwargs):
    rec.count("nodes", int(args[0]), idx)


def _rows(rec, idx, args, kwargs):
    rec.count("rows_built", int(args[0]) + 1, idx)


def _solve(rec, idx, args, kwargs):
    rec.count("solves", 1, idx)


def _points(rec, idx, args, kwargs):
    rec.count("points", int(np.broadcast(*args[1:]).size), idx)


def _export_bytes(rec, idx, args, kwargs, out):
    rec.count("bytes", os.path.getsize(args[1]), idx)
    return out


def _trace_f0(rec, idx, args, kwargs, pair):
    pair.f0 = _wrap(rec, pair.f0, "split.f0")
    return pair


def _count_field(rec, idx, args, kwargs, f):
    return rec.field(f)


#: (module, attribute, span name, before-hook, after-hook)
TARGETS = (
    ("jacobi", "gauss_jacobi", "jacobi.gauss_jacobi", _nodes, None),
    ("jacobi", "jacobi_eval_all", "jacobi.eval", _rows, None),
    ("jacobi", "jacobi_eval", "jacobi.eval_one", None, None),
    ("basis", "wfunc_radial", "basis.radial", None, None),
    ("basis", "ball_radial", "basis.radial", None, None),
    ("basis", "ex1_radial", "basis.radial", None, None),
    ("basis", "zernike_radial", "basis.radial", None, None),
    ("basis", "inner_product", "basis.inner_product", None, None),
    ("diffmat", "build_Dr", "diffmat.build_Dr", None, None),
    ("diffmat", "compound_radial", "diffmat.compound_radial", None, None),
    ("diffmat", "build_Dr_quad", "diffmat.build_Dr_quad", None, None),
    ("diffmat", "ex1_Dr_quad", "diffmat.oracles", None, None),
    ("diffmat", "ex1_S_quad", "diffmat.oracles", None, None),
    ("diffmat", "asymmetry_S_ex1", "diffmat.oracles", None, None),
    ("diffmat", "asymmetry_beta0", "diffmat.oracles", None, None),
    ("semisep", "solve_shifted", "semisep.solve_shifted", _solve, None),
    ("semisep", "default_contour", "semisep.spectrum", None, None),
    ("semisep", "spectral_radius_estimate", "semisep.spectrum", None, None),
    ("semisep", "contour_apply", "semisep.contour_apply", None, None),
    ("split", "make_pos", "split.make_pos", None, _trace_f0),
    ("split", "verify_pos", "split.verify_pos", None, None),
    ("expand", "analyze_disc", "expand.analyze", None, None),
    ("expand", "analyze_ball3", "expand.analyze", None, None),
    ("expand", "analyze_polar_weighted", "expand.analyze", None, None),
    ("expand", "error_report", "expand.error_report", None, None),
    ("expand", "error_report_polar", "expand.error_report", None, None),
    ("expand", "synthesize", "expand.synthesize", _points, None),
    ("expand", "synthesize_polar_weighted", "expand.synthesize", _points, None),
    ("expand", "export_decay_csv", "expand.export", None, _export_bytes),
    ("expand", "export_report_json", "expand.export", None, _export_bytes),
    ("pde", "assemble", "pde.assemble", None, None),
    ("pde", "propagate", "pde.propagate", None, None),
    ("pde", "spectral_abscissa", "pde.spectral", None, None),
    ("pde", "abscissa_scan", "pde.spectral", None, None),
    ("cli", "test_field", "cli.test_field", None, _count_field),
    ("cli", "run_ex1", "cli.ex1", None, None),
    ("cli", "run_ex2", "cli.ex2", None, None),
    ("cli", "run_ex3", "cli.ex3", None, None),
    ("cli", "run_ex4", "cli.ex4", None, None),
    ("cli", "run_ex5", "cli.ex5", None, None),
    ("cli", "run_ball3d", "cli.ball3d", None, None),
    ("cli", "run_pde_demo", "cli.pde-demo", None, None),
)

#: (module, class, method, span name)
METHODS = (("semisep", "SemiSep2", "to_dense", "semisep.to_dense"),)


def _wrap(rec: Recorder, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            if before is not None:
                before(rec, idx, args, kwargs)
            out = fn(*args, **kwargs)
        except Exception:
            rec.count("errors", 1, idx)
            raise
        finally:
            rec.close(idx)
        return out if after is None else after(rec, idx, args, kwargs, out)
    return traced


class Tracer:
    """Installs the wrappers on one imported ``ballspec`` package."""

    def __init__(self, pkg, rec: Recorder):
        self.pkg, self.rec = pkg, rec
        self.modules = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
        self.unbound: list[str] = []
        self._undo: list = []

    def _bindings(self, fn):
        """Every (container, key) under which a ballspec module holds fn."""
        found = []
        for mod in self.modules:
            for key, val in vars(mod).items():
                if val is fn:
                    found.append((mod, key))
                elif isinstance(val, dict):
                    found.extend((val, k) for k, v in val.items() if v is fn)
        return found

    def install(self) -> None:
        self.unbound = []
        for layer, attr, name, before, after in TARGETS:
            fn = getattr(getattr(self.pkg, layer), attr, None)
            if fn is None:
                self.unbound.append(f"{layer}.{attr}")
                continue
            traced = _wrap(self.rec, fn, name, before, after)
            for owner, key in self._bindings(fn):
                self._set(owner, key, traced)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(getattr(self.pkg, layer), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.unbound.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, _wrap(self.rec, fn, name))

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- per-layer metrics ---------------------------------------------------------

#: Spans whose inclusive counters also add up under a layer group.
GROUPS = {"split.make_pos": "split", "split.verify_pos": "split"}

EXAMPLES = ("ex1", "ex2", "ex3", "ex4", "ex5", "ball3d", "pde-demo")

#: name, unit, better, source span (or group/note source), numerator, denominator.
#: A denominator of "op" divides by the traced op count; another key divides
#: by that key of the same source.  "incl.<key>" sums a counter over the span
#: and all its descendants; "self_ms" is duration minus the children's.
PER_LAYER = (
    ("jacobi.gauss_jacobi.calls", "calls/op", "lower", "jacobi.gauss_jacobi", "calls", "op"),
    ("jacobi.gauss_jacobi.nodes", "nodes/op", "lower", "jacobi.gauss_jacobi", "nodes", "op"),
    ("jacobi.gauss_jacobi.self_ms", "ms/op", "lower", "jacobi.gauss_jacobi", "self_ms", "op"),
    ("jacobi.eval.calls", "calls/op", "lower", "jacobi.eval", "calls", "op"),
    ("jacobi.eval.rows_built", "rows/op", "lower", "jacobi.eval", "rows_built", "op"),
    ("jacobi.eval.self_ms", "ms/op", "lower", "jacobi.eval", "self_ms", "op"),
    ("jacobi.eval.rows_used_ratio", "1", "higher", "jacobi.eval", "rows_returned", "rows_built"),
    ("basis.radial.calls", "calls/op", "lower", "basis.radial", "calls", "op"),
    ("basis.radial.self_ms", "ms/op", "lower", "basis.radial", "self_ms", "op"),
    ("basis.inner_product.calls", "calls/op", "lower", "basis.inner_product", "calls", "op"),
    ("basis.inner_product.self_ms", "ms/op", "lower", "basis.inner_product", "self_ms", "op"),
    ("basis.inner_product.field_points", "points/op", "lower", "basis.inner_product",
     "incl.field_points", "op"),
    ("diffmat.build_Dr.self_ms", "ms/op", "lower", "diffmat.build_Dr", "self_ms", "op"),
    ("diffmat.compound_radial.self_ms", "ms/op", "lower", "diffmat.compound_radial",
     "self_ms", "op"),
    ("diffmat.build_Dr_quad.calls", "calls/op", "lower", "diffmat.build_Dr_quad", "calls", "op"),
    ("diffmat.build_Dr_quad.self_ms", "ms/op", "lower", "diffmat.build_Dr_quad", "self_ms", "op"),
    ("diffmat.oracles.self_ms", "ms/op", "lower", "diffmat.oracles", "self_ms", "op"),
    ("semisep.to_dense.calls", "calls/op", "lower", "semisep.to_dense", "calls", "op"),
    ("semisep.to_dense.self_ms", "ms/op", "lower", "semisep.to_dense", "self_ms", "op"),
    ("semisep.solve_shifted.calls", "calls/op", "lower", "semisep.solve_shifted", "calls", "op"),
    ("semisep.solve_shifted.self_ms", "ms/op", "lower", "semisep.solve_shifted", "self_ms", "op"),
    ("semisep.spectrum.self_ms", "ms/op", "lower", "semisep.spectrum", "self_ms", "op"),
    ("semisep.contour_apply.calls", "calls/op", "lower", "semisep.contour_apply", "calls", "op"),
    ("semisep.contour_apply.self_ms", "ms/op", "lower", "semisep.contour_apply", "self_ms", "op"),
    ("semisep.contour_apply.solves_per_call", "solves/call", "lower", "semisep.contour_apply",
     "incl.solves", "calls"),
    ("semisep.contour_apply.errors", "errors/op", "lower", "semisep.contour_apply", "errors", "op"),
    ("split.make_pos.self_ms", "ms/op", "lower", "split.make_pos", "self_ms", "op"),
    ("split.verify_pos.self_ms", "ms/op", "lower", "split.verify_pos", "self_ms", "op"),
    ("split.field_points", "points/op", "lower", "split", "incl.field_points", "op"),
    ("split.f0.calls", "calls/op", "lower", "split.f0", "calls", "op"),
    ("split.f0.self_ms", "ms/op", "lower", "split.f0", "self_ms", "op"),
    ("split.f0.field_points", "points/op", "lower", "split.f0", "incl.field_points", "op"),
    ("expand.analyze.self_ms", "ms/op", "lower", "expand.analyze", "self_ms", "op"),
    ("expand.analyze.field_points", "points/op", "lower", "expand.analyze",
     "incl.field_points", "op"),
    ("expand.error_report.self_ms", "ms/op", "lower", "expand.error_report", "self_ms", "op"),
    ("expand.synthesize.self_ms", "ms/op", "lower", "expand.synthesize", "self_ms", "op"),
    ("expand.synthesize.points", "points/op", "lower", "expand.synthesize", "points", "op"),
    ("expand.synthesize.field_points_per_point", "1", "lower", "expand.synthesize",
     "incl.field_points", "points"),
    ("expand.export.self_ms", "ms/op", "lower", "expand.export", "self_ms", "op"),
    ("expand.export.bytes", "bytes/op", "lower", "expand.export", "bytes", "op"),
    ("pde.assemble.self_ms", "ms/op", "lower", "pde.assemble", "self_ms", "op"),
    ("pde.propagate.calls", "calls/op", "lower", "pde.propagate", "calls", "op"),
    ("pde.propagate.self_ms", "ms/op", "lower", "pde.propagate", "self_ms", "op"),
    ("pde.spectral.self_ms", "ms/op", "lower", "pde.spectral", "self_ms", "op"),
) + tuple(
    (f"cli.{ex}.ms", "ms/op", "lower", f"cli.{ex}", "ms", "op") for ex in EXAMPLES
) + (
    ("cli.artifact_bytes", "bytes/op", "lower", "cli", "artifact_bytes", "op"),
    ("trace.overhead_ratio", "1", "higher", "trace", "overhead_ratio", None),
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def aggregate(rec: Recorder) -> dict:
    """Per span name (and group, and note source): calls, ms, self_ms, counters."""
    stats = defaultdict(lambda: defaultdict(float))
    child_ms = defaultdict(float)
    spans = rec.spans
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += (s.end - s.start) * 1e3
    for idx, s in enumerate(spans):
        ms = (s.end - s.start) * 1e3
        st = stats[s.name]
        st["calls"] += 1
        st["ms"] += ms
        st["self_ms"] += ms - child_ms[idx]
        for key, val in s.counts.items():
            st[key] += val
            # inclusive totals: once per distinct name (or group) on the path
            names, cur = set(), idx
            while cur is not None:
                names.add(spans[cur].name)
                if spans[cur].name in GROUPS:
                    names.add(GROUPS[spans[cur].name])
                cur = spans[cur].parent
            for name in names:
                stats[name]["incl." + key] += val
        if s.name == "jacobi.eval":
            parent = spans[s.parent].name if s.parent is not None else None
            st["rows_returned"] += 1 if parent == "jacobi.eval_one" else s.counts["rows_built"]
    for source, counts in rec.notes.items():
        for key, val in counts.items():
            stats[source][key] += val
    return stats


def per_layer(rec: Recorder, n_ops: int, overhead_ratio: float):
    """(values, observed sources) of every PER_LAYER metric."""
    stats = aggregate(rec)
    stats["trace"]["overhead_ratio"] = overhead_ratio
    values = {}
    for name, _unit, _better, source, num, den in PER_LAYER:
        st = stats.get(source, {})
        top = st.get(num, 0.0)
        if den is None:
            values[name] = top
        elif den == "op":
            values[name] = top / max(n_ops, 1)
        else:
            values[name] = top / st[den] if st.get(den) else 0.0
    return values, set(stats)
