"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a timing wrapper in
every module of the package that holds it under its name: the module that
defines it and each module that imported it by name (``foldsolve`` imports
``real_roots`` that way).  ``Tracer.restore`` puts the originals back.
Geometry primitives are wrapped only where ``foldsolve`` consumes them, so a
geometry span is always a call made by ``verify``, ``solve_all`` or
``chi_from_xi``, never a primitive calling another primitive.

Spans stay in memory as (id, parent id, name, start ns, end ns, error
class) and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import ModuleType, SimpleNamespace

from workloads import CLI_COMMANDS, TOL

TRACED = {
    "polynomial": ("normalize_monic", "real_roots"),
    "foldconfig": ("build_config", "choose_h", "compute_bc", "compute_kpq",
                   "nishimura_pipeline"),
    "foldsolve": ("solve_all", "verify"),
    "render": ("render_gallery",),
}
# the geometry primitives that verify and solve_all call
GEOMETRY = ("fold_xi", "reflect_point", "reflect_line", "intersect", "canonical_gap",
            "bisect_defect", "is_parallel", "parallel_distance", "point_line_distance")
# failures are counted where they leave a layer, by exception class
FAILURES = {
    "foldconfig": ("DegenerateP", "NegativeDiscriminant", "NoValidH", "SingularSystem",
                   "ZeroConstantTerm", "NoScaleFound", "other"),
    "foldsolve": ("ConfigMismatch", "other"),
}
# choose_h's documented trial sequence
H_TRIALS = [2.0**-i for i in range(41)] + [2.0**i for i in range(1, 21)]


class Tracer:
    """Spans in parallel arrays: parent id, name id, start and end in ns."""

    def __init__(self) -> None:
        self.parent = array("q")
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[int, str] = {}
        self.names: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    def install(self, lib: SimpleNamespace) -> None:
        modules = [sys.modules["origami_quintic"], lib.polynomial, lib.foldconfig,
                   lib.foldsolve, lib.geometry, lib.render, lib.cli]
        observers = {
            "polynomial.real_roots": _count_roots,
            "foldconfig.choose_h": _count_trials,
            "foldsolve.solve_all": _count_verified,
            "render.render_gallery": _count_svg,
        }
        # a function the package no longer has is skipped and reports 0 calls
        for layer, names in TRACED.items():
            home = getattr(lib, layer)
            for name in names:
                span = f"{layer}.{name}"
                self._rebind(modules, getattr(home, name, None), span, observers.get(span))
        for name in GEOMETRY:
            self._rebind([lib.foldsolve], getattr(lib.geometry, name, None), f"geometry.{name}")
        self._rebind([lib.cli], lib.cli.main, lambda args: f"cli.main.{args[0][0]}")

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _rebind(self, modules, fn, name, observe=None) -> None:
        if fn is None:
            return
        wrapper = self._wrap(fn, name, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, observe):
        parents, name_ids, starts, ends = self.parent, self.name_id, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        fixed_id = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(self._name_id(name(args)) if fixed_id is None else fixed_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed TSV, one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\terror\n")
            for sid in range(len(self)):
                handle.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name_id[sid]]}\t"
                             f"{self.start[sid]}\t{self.end[sid]}\t{self.errors.get(sid, '')}\n")


def _count_roots(tracer: Tracer, roots) -> None:
    tracer.counts["polynomial.real_roots.roots"] += len(roots)


def _count_trials(tracer: Tracer, h: float) -> None:
    if h in H_TRIALS:
        tracer.counts["foldconfig.choose_h.trials"] += H_TRIALS.index(h) + 1


def _count_verified(tracer: Tracer, sols) -> None:
    tracer.counts["foldsolve.roots_returned"] += len(sols)
    tracer.counts["foldsolve.roots_verified"] += sum(s.residuals.passes(TOL) for s in sols)


def _count_svg(tracer: Tracer, svg: str) -> None:
    tracer.values["render.svg_bytes"].append(len(svg.encode("utf-8")))


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return names + [f"cli.main.{c}" for c in CLI_COMMANDS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.us": "us",
                      f"{name}.self_share": "ratio"})
        if name == "polynomial.real_roots":
            units["polynomial.real_roots.roots"] = "count"
        if name == "foldconfig.choose_h":
            units["foldconfig.choose_h.trials"] = "count"
    for layer, classes in FAILURES.items():
        units.update({f"{layer}.fail.{c}": "count" for c in classes})
    units.update({
        "foldsolve.verified_ratio": "ratio",
        "geometry.calls": "count", "geometry.us": "us", "geometry.self_share": "ratio",
        "render.svg_bytes": "bytes",
        "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.report_bytes": "bytes",
        "trace.goodput_untraced_per_s": "1/s", "trace.goodput_traced_per_s": "1/s",
        "trace.overhead_frac": "ratio", "trace.spans": "count",
    })
    return units


def layer_metrics(tracer: Tracer, traced_ns: int, time_scale: float) -> dict[str, float]:
    """Per-layer numbers from the spans of a traced phase lasting ``traced_ns``.

    ``.calls`` is a total, ``.us`` the median duration per call including
    children, times ``time_scale`` (raw to reference seconds, see
    calibration.py), ``.self_share`` the summed self time over ``traced_ns``.
    ``.roots`` and ``.trials`` are means per call.
    """
    n = len(tracer)
    parent, start, end = tracer.parent, tracer.start, tracer.end
    names = tracer.names
    layer_of = [name.split(".", 1)[0] for name in names]
    key_of = ["geometry" if layer == "geometry" else name
              for name, layer in zip(names, layer_of)]
    child_ns = [0] * n
    for sid in range(n):
        if parent[sid] >= 0:
            child_ns[parent[sid]] += end[sid] - start[sid]
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for sid in range(n):
        key = key_of[tracer.name_id[sid]]
        duration = end[sid] - start[sid]
        durations[key].append(duration)
        self_ns[key] += duration - child_ns[sid]
    fails: dict[str, int] = defaultdict(int)
    for sid, error in tracer.errors.items():
        layer = layer_of[tracer.name_id[sid]]
        up = parent[sid]
        if layer in FAILURES and (up < 0 or layer_of[tracer.name_id[up]] != layer):
            cls = error if error in FAILURES[layer] else "other"
            fails[f"{layer}.fail.{cls}"] += 1

    out: dict[str, float] = {}
    for name in [*span_names(), "geometry"]:
        ds = durations.get(name, [])
        out[f"{name}.calls"] = len(ds)
        out[f"{name}.us"] = statistics.median(ds) / 1e3 * time_scale if ds else 0.0
        out[f"{name}.self_share"] = self_ns.get(name, 0) / traced_ns
    for layer, classes in FAILURES.items():
        for cls in classes:
            out[f"{layer}.fail.{cls}"] = fails.get(f"{layer}.fail.{cls}", 0)
    counts = tracer.counts
    out["polynomial.real_roots.roots"] = _per(counts["polynomial.real_roots.roots"],
                                              out["polynomial.real_roots.calls"])
    out["foldconfig.choose_h.trials"] = _per(counts["foldconfig.choose_h.trials"],
                                             out["foldconfig.choose_h.calls"])
    out["foldsolve.verified_ratio"] = _per(counts["foldsolve.roots_verified"],
                                           counts["foldsolve.roots_returned"])
    svg = tracer.values["render.svg_bytes"]
    out["render.svg_bytes"] = statistics.median(svg) if svg else 0
    out["trace.spans"] = n
    return out


def _per(total: float, base: float) -> float:
    return total / base if base else 0.0
