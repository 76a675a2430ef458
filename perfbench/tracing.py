"""Spans around cubekit's layers, installed from outside the package.

`Tracer.install` replaces every public function defined in a layer module
by a wrapper that records a span (name, start, end, parent).  A function is
replaced at every module attribute that binds it: the defining module, each
module that did `from .x import f`, and the package namespace.  Patching only
the defining module would lose every call made through a by-value import,
without any error.  `Tracer.restore` puts every original back.

Two further hooks carry no span of their own:
- `UnitGraph.distance_matrix` is a cached property; its function is wrapped.
- `median_bulk` of `MedianAlgebra` and `TreeProduct` counts the rows it is
  given, so `closure_of` can report its median evaluations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from dataclasses import dataclass

LAYERS = (
    "graphs",
    "median",
    "cubes",
    "walls",
    "projection",
    "hhs",
    "embedding",
    "applications",
    "jsonio",
)

# Per-element helpers, called 10^3 to 10^5 times in one invocation.  A span
# each would cost more than the work inside and flood the span log; their
# time stays in the self time of the caller.
UNTRACED = frozenset(
    {
        "median.median_bulk_on",
        "cubes.edge_halfspace",
        "hhs.domain_coarse_median",
        "hhs.projection_sum",
        "embedding.product_distance",
        "jsonio.jsonable",
        "jsonio.encode_number",
    }
)

DISTANCE_MATRIX = "graphs.distance_matrix"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: str
    counts: dict | None = None


def _closure_counts(tracer, args, kwargs, result, rows_before):
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    return {
        "added": len(result) - len({int(v) for v in seed}),
        "median_evals": tracer.median_rows - rows_before,
    }


# Named counts recorded when the span closes: (tracer, args, kwargs, result,
# median rows at span start) -> {count: value}.
PROBES = {
    "median.closure_of": _closure_counts,
    "cubes.hyperplane_decomposition": lambda t, a, kw, r, b: {
        "hyperplanes": len(r.hyperplanes),
        "dimension": r.dimension,
    },
    "applications.promote_to_cube_complex": lambda t, a, kw, r, b: {
        "input_size": r.input_size,
        "closure_size": r.closure_size,
    },
    "jsonio.canonical_dumps": lambda t, a, kw, r, b: {"report_bytes": len(r)},
}


def package_modules(package) -> list:
    """Every module of the package, imported, with the package itself."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def traced_functions(package) -> dict:
    """Span name -> original function for each public layer function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                out[name] = fn
    return out


class Tracer:
    """Spans kept in memory for one process; single-threaded by design."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.phase = "run"
        self.median_rows = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.phase)
            stack.append(len(spans))
            spans.append(span)
            rows_before = self.median_rows
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.counts = probe(self, args, kwargs, result, rows_before)
            return result

        return traced

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def counting(obj, a, b_arr, c):
            self.median_rows += len(b_arr)
            return fn(obj, a, b_arr, c)

        return counting

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {
            id(fn): (fn, self._wrap(name, fn))
            for name, fn in traced_functions(self.package).items()
        }
        for mod in package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patch(mod, attr, wrapper)
        from cubekit.applications import TreeProduct
        from cubekit.graphs import UnitGraph
        from cubekit.median import MedianAlgebra

        for cls in (MedianAlgebra, TreeProduct):
            self._patch(cls, "median_bulk", self._count_rows(cls.median_bulk))
        prop = UnitGraph.__dict__["distance_matrix"]
        self._patch(prop, "func", self._wrap(DISTANCE_MATRIX, prop.func))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived quantities


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _outermost(spans: list[Span], i: int) -> bool:
    """True when no ancestor of span i has the same name."""
    name = spans[i].name
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def layer_metric(spans: list[Span], selfs: list[float], metric: str, per: int) -> float:
    """Value of a `<module>.<function>.<quantity>` metric over the spans.

    Times and call counts are per invocation (`per` invocations); a named
    count is its mean per span; `closure_yield` is added / median_evals.
    """
    name, quantity = metric.rsplit(".", 1)
    idx = [i for i, s in enumerate(spans) if s.name == name]
    if quantity == "s":
        return sum(spans[i].end - spans[i].start for i in idx if _outermost(spans, i)) / per
    if quantity == "self_s":
        return sum(selfs[i] for i in idx) / per
    if quantity == "calls":
        return len(idx) / per
    counts = [spans[i].counts for i in idx if spans[i].counts]
    if quantity == "closure_yield":
        evals = sum(c["median_evals"] for c in counts)
        return sum(c["added"] for c in counts) / evals if evals else 0.0
    return statistics.fmean(c[quantity] for c in counts) if counts else 0.0


def hottest(spans: list[Span], selfs: list[float]) -> tuple[str, float]:
    """Span name with the largest total self time, and that time."""
    total: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + t
    name = max(total, key=total.get)
    return name, total[name]
