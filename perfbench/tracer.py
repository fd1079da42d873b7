"""Span tracing for the yvpoly benchmark, installed from outside the package.

`install` replaces the public functions and methods of each yvpoly module
(plus the multiplication operators and the CLI's suite table, which callers
reach by reference) with wrappers that record one span per call: name,
start, end and the index of the enclosing span. Spans stay in memory until
the run ends; `Tracer.summarize` then turns them into per-layer self times, call
counts and the per-function totals the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "family", "intpoly", "ratpoly", "quotient", "roots",
          "relations", "painleve", "series")

# Private names that are hot enough to matter and reached only through
# operators or by reference, so the public-name scan would miss them.
TRACED_OPERATORS = {
    ("intpoly", "IntPoly"): ("__mul__", "__rmul__"),
    ("quotient", "QuotientElement"): ("__mul__", "__rmul__"),
}

# Relation verifiers run the exact or the numeric route depending on `mode`;
# their spans carry the route so the two can be reported apart.
MODE_SPLIT = {"relations.verify_theorem", "relations.verify_corollary",
              "relations.verify_kudryashov"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.roots_lifted = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        split = name in MODE_SPLIT
        count_roots = name == "roots.lift_cube_roots"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}[{kwargs.get('mode', 'exact')}]" if split else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if count_roots:
                self.roots_lifted += len(out.roots)
            return out

        return traced

    def summarize(self, wall_s: float) -> dict:
        """Per-layer self times, per-function totals and call counts.

        A span's self time is its duration minus that of its direct children.
        Time outside every span is `trace.unattributed_s`, so the layer self
        times plus that remainder equal the traced wall time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_time = 0.0
        for name, start, end, parent in spans:
            if parent < 0:
                top_time += end - start
            else:
                child_time[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_name_time = defaultdict(float)
        by_name_calls = defaultdict(int)
        min_self = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_time[i]
            min_self = min(min_self, own)
            layer_self[name.split(".", 1)[0]] += own
            by_name_calls[name] += 1
            if not _has_ancestor_named(spans, parent, name):
                by_name_time[name] += end - start
        metrics = {f"{layer}.self_s": t for layer, t in layer_self.items()}
        for metric, names in SPAN_TOTALS.items():
            metrics[f"{metric}_s"] = sum(by_name_time[n] for n in names)
        for metric in COUNTED:
            metrics[f"{metric}_calls"] = sum(by_name_calls[n]
                                             for n in SPAN_TOTALS[metric])
        metrics["trace.unattributed_s"] = wall_s - top_time
        metrics["trace.spans"] = len(spans)
        metrics["roots.count"] = self.roots_lifted
        accounted = sum(layer_self.values()) + metrics["trace.unattributed_s"]
        tolerance = 1e-6 * max(1.0, wall_s)
        problems = []
        if min_self < -tolerance:
            problems.append(f"negative self time {min_self:.3g} s: spans not nested")
        if metrics["trace.unattributed_s"] < -tolerance:
            problems.append("spans extend outside the timed region")
        if abs(accounted - wall_s) > tolerance:
            problems.append(f"self times plus remainder {accounted:.6f} s "
                            f"!= traced wall {wall_s:.6f} s")
        return {"metrics": metrics, "problems": problems}


def _wrap_class(tracer, layer, cls, replaced):
    extra = TRACED_OPERATORS.get((layer, cls.__name__), ())
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in extra:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr in extra:
            name = f"{layer}.{cls.__name__}.__mul__"  # __rmul__ is an alias
        if isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__
            if fn not in replaced:
                replaced[fn] = tracer.wrap(name, fn)
            setattr(cls, attr, type(member)(replaced[fn]))
        elif inspect.isfunction(member):
            if member not in replaced:
                replaced[member] = tracer.wrap(name, member)
            setattr(cls, attr, replaced[member])


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the layer modules."""
    modules = {layer: importlib.import_module(f"yvpoly.{layer}")
               for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(tracer, layer, obj, replaced)
    # Rebind every module-level reference, including `from x import f` copies.
    package = importlib.import_module("yvpoly")
    for mod in [package, importlib.import_module("yvpoly.report"),
                *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    runners = modules["cli"].SUITE_RUNNERS
    for suite, fn in list(runners.items()):
        runners[suite] = tracer.wrap(f"cli.suite.{suite}", fn)


# ---------------------------------------------------------------------------
# Metrics from spans

SUITES = ("structure", "divisibility", "valuation", "wronskian", "pii",
          "backlund", "relations", "corollary", "kudryashov", "poleseries",
          "sums", "series", "remark")

# metric -> span names whose outermost calls it totals
SPAN_TOTALS = {
    "family.generate": ("family.generate",),
    "family.wronskian": ("family.wronskian_check",),
    "intpoly.mul": ("intpoly.IntPoly.__mul__",),
    "intpoly.exact_div": ("intpoly.IntPoly.exact_div",),
    "roots.find": ("roots.find_roots",),
    "roots.lift": ("roots.lift_cube_roots",),
    "roots.certify": ("roots.certify",),
    "roots.export": ("roots.export_csv", "roots.export_svg"),
    "relations.numeric": tuple(f"{n}[numeric]" for n in sorted(MODE_SPLIT)),
    "relations.exact": tuple(f"{n}[exact]" for n in sorted(MODE_SPLIT)),
    "relations.poleseries": ("relations.pole_series_check",),
    "relations.cross_residue": ("relations.cross_sum_residue",),
    "relations.self_residue": ("relations.self_sum_residue",),
    "quotient.mul": ("quotient.QuotientElement.__mul__",),
    "quotient.inv": ("quotient.QuotientElement.inv",),
    "painleve.rational_solution": ("painleve.rational_solution",),
    "painleve.gcd": ("painleve.poly_gcd",),
    "painleve.backlund": ("painleve.backlund_next",),
    "painleve.pii": ("painleve.pII_residual",),
    "series.power_sums": ("series.inverse_power_sums",),
    "series.cross_check": ("series.cross_check_series",),
    "series.remark": ("series.verify_remark_polynomiality",),
    **{f"cli.suite.{s}": (f"cli.suite.{s}",) for s in SUITES},
}

COUNTED = ("intpoly.mul", "intpoly.exact_div", "relations.poleseries",
           "relations.cross_residue", "relations.self_residue",
           "quotient.mul", "quotient.inv", "painleve.gcd", "series.power_sums")


def _has_ancestor_named(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
