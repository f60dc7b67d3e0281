"""In-memory spans around the package's public functions.

The traced run wraps each function listed in ``TARGETS`` and rebinds every
module attribute of the ``isodiam`` package that refers to it: modules
import functions by name (``from .geometry import convex_hull_indices``),
so the defining module alone is not enough. Nothing under ``src/`` is
edited, and ``uninstall`` puts the originals back.

A span records its name, start, end and the span that caused it. Spans
stay in memory; ``Tracer.summary`` turns them into per-span self times
(duration minus the time covered by child spans) when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from math import comb

# (layer, attribute, counter kind) for each traced function; the layer is
# the defining module and methods are given as "Class.method". The span
# name is "<layer>.<function>"; counter kinds are handled in _count.
TARGETS = (
    ("cli", "run", None),
    ("geometry", "convex_hull_indices", "hull"),
    ("geometry", "min_enclosing_circle", None),
    ("geometry", "load_points_csv", None),
    ("diameters", "diam", None),
    ("diameters", "diam3", "diam3"),
    ("diameters", "diam_ab", "subsets"),
    ("diameters", "tab_check", "subsets"),
    ("diameters", "triameter", None),
    ("bounds", "bound_profile", None),
    ("bounds", "circle_bound", None),
    ("bounds", "gen_jung_radius", None),
    ("bounds", "stmt1_value", None),
    ("bounds", "stmt3_interior", None),
    ("regions", "rasterize", None),
    ("regions", "region_diam", None),
    ("regions", "region_diam3_sampled", None),
    ("regions", "arc_tab_check", None),
    ("regions", "arc_measure", None),
    ("regions", "u_delta_measure", None),
    ("regions", "u_delta_shape", None),
    ("regions", "PixelRegion.corner_points", None),
    ("regions", "PixelRegion.cell_centers", None),
    ("search", "anneal", None),
    ("search", "anneal_chains", None),
    ("search", "evaluate_candidates", None),
    ("poisoning", "kill_probability", "bites"),
    ("poisoning", "lethal_region", None),
    ("poisoning", "validate_strategy", None),
    ("svgplot", "curves_svg", "svg"),
    ("svgplot", "region_svg", "svg"),
)

LAYERS = ("cli", "geometry", "diameters", "bounds", "regions", "search", "poisoning", "svgplot")


def _count(kind: str, counters: dict, args: tuple, result) -> None:
    """Work counters taken at the layer boundary from arguments and results."""
    if kind == "hull":
        counters["geometry.convex_hull_points"] += len(args[0])
    elif kind == "diam3":
        counters["diameters.diam3_calls"] += 1
        counters["diameters.diam3_points"] += len(args[0])
    elif kind == "subsets":
        n, a = len(args[0]), args[1]
        counters["diameters.subsets_required"] += comb(n, a) if n >= a else 0
    elif kind == "bites":
        strategy, config = args[0], args[1]
        sources = len(strategy.point_masses)
        if strategy.density is not None:
            sources += len(strategy.density.region.cells)
        counters["poisoning.bites"] += config.samples
        counters["poisoning.dose_pairs"] += config.samples * sources
    elif kind == "svg":
        counters["svgplot.svg_bytes"] += len(result.encode("utf-8"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, kind: str | None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if kind is not None:
                _count(kind, self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind each ``isodiam`` attribute naming it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "isodiam" or k.startswith("isodiam.")]
        for layer, attr, kind in TARGETS:
            owner = sys.modules[f"isodiam.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{layer}.{meth}", original, kind))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{layer}.{attr}", original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def mark(self) -> tuple[int, dict[str, float]]:
        """Position to summarize from, so each pass can be summarized alone."""
        return len(self.names), dict(self.counters)

    def summary(self, since: tuple[int, dict[str, float]] = (0, {})) -> dict[str, float]:
        """Self seconds per span name, per-layer self totals and counters
        for the spans recorded after ``since``."""
        first, counters0 = since
        child = defaultdict(float)
        for i in range(first, len(self.names)):
            if self.parents[i] >= first:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.names)):
            own = self.ends[i] - self.starts[i] - child[i]
            out[f"{self.names[i]}_s"] += own
            out[f"{self.names[i].split('.')[0]}.self_s"] += own
        out["trace.spans"] = len(self.names) - first
        for key, value in self.counters.items():
            out[key] = value - counters0.get(key, 0.0)
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
