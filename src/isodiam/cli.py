"""Command line front end.

Every subcommand emits a JSON report with a ``schema`` tag and a run
manifest (tool version, arguments, seed, sha256 of input files,
timestamp), so a run can be reproduced byte for byte. Timestamps come
from the clock unless pinned via ``--timestamp`` or the
``ISODIAM_TIMESTAMP`` environment variable.

Exit codes: 0 on success, 2 on bad input, overflowing input included, 3
when a computation refuses to start (subset budget exceeded, raster, pair
or triple count over its cap, infeasible search seed) or runs out of
memory.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import chain

from . import __version__
from .bounds import CIRCLE_LEMMA_MIN_RADIUS, bound_profile, circle_bound, gen_jung_radius
from .diameters import BudgetExceededError, DEFAULT_SUBSET_BUDGET, diam, diam3, diam_ab, tab_check, triameter
from .geometry import Disk, DiskUnion, Point, PointSet, load_points_csv
from .poisoning import (
    PointMass,
    PoisonConfig,
    PoisonStrategy,
    kill_probability,
    lethal_region,
)
from .regions import ArcSet, arc_measure, arc_tab_check, region_diam, u_delta_measure, u_delta_shape
from .search import InfeasibleStartError, SearchConfig, anneal_chains, best_known_measure, evaluate_candidates
from . import svgplot

SCHEMA = 1
_TOOL = "isodiam"
# the thread-count flag is kept only so invocations that pass 1 still parse
_ONE_THREAD = "isodiam runs on one thread: runs are seeded and deterministic, and a thread pool made them slower"
# the most rows bounds and conjecture build, one per step
_MAX_STEPS = 100_000


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_timestamp(ns: argparse.Namespace) -> str:
    pinned = getattr(ns, "timestamp", None) or os.environ.get("ISODIAM_TIMESTAMP")
    if pinned:
        return pinned
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _manifest(ns: argparse.Namespace, seed: int | None, inputs: list[str]) -> dict:
    args = {
        k: v
        for k, v in sorted(vars(ns).items())
        if k not in ("func", "subcommand") and not k.startswith("_")
    }
    return {
        "args": args,
        "input_digests": {p: _sha256(p) for p in inputs},
        "seed": seed,
        "subcommand": ns.subcommand,
        "timestamp": _resolve_timestamp(ns),
        "tool": _TOOL,
        "version": __version__,
    }


_encode_str = json.encoder.encode_basestring_ascii


def _flat_int_pairs(items: list | tuple) -> tuple | None:
    """The ints of items, pair after pair, if items holds only pairs of ints
    (region cells); else None."""
    if set(map(type, items)) <= {list, tuple} and set(map(len, items)) == {2}:
        flat = tuple(chain.from_iterable(items))
        if set(map(type, flat)) == {int}:
            return flat
    return None


def _dumps(value: object, outer: str = "\n") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    writes it, for dicts with str keys, lists, tuples, str, int, float, bool
    and None; outer is the newline and indent of value's own line.

    With an indent, json.dumps takes its pure-Python encoder, one call per
    element. Here a list of int pairs (region cells) is one join, and every
    other value is at most one call. Non-finite floats raise ValueError, as
    in json.dumps; any other type raises TypeError, and so does a dict key
    that is not a str.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = outer + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        flat = _flat_int_pairs(value)
        if flat is not None:
            pair = f"[{inner}  %d,{inner}  %d{inner}]"
            body = sep.join([pair] * len(value)) % flat
        else:
            body = sep.join([_dumps(v, inner) for v in value])
        return f"[{inner}{body}{outer}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("report keys must be str")
        body = ("," + inner).join([f"{_encode_str(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())])
        return f"{{{inner}{body}{outer}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(ns: argparse.Namespace, report: dict, seed: int | None = None, inputs: list[str] | None = None) -> None:
    payload = {
        "manifest": _manifest(ns, seed, inputs or []),
        "report": report,
        "schema": SCHEMA,
    }
    text = _dumps(payload) + "\n"
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_points(path: str) -> PointSet:
    points = load_points_csv(path)
    if len(points) == 0:
        raise ValueError(f"{path}: no points")
    return points


def _parse_ab(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a,b (two comma separated integers)")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected a,b (two comma separated integers)")
    return a, b


# ---------------------------------------------------------------- commands


def cmd_diameters(ns: argparse.Namespace) -> int:
    points = _load_points(ns.points)
    # the refusals come first: an over-budget --ab, then an over-cap hull
    # for triameter; _dumps sorts the keys
    report = {
        "ab": [{"a": a, "b": b, "value": diam_ab(points, a, b, budget=ns.budget)} for a, b in ns.ab],
        "triameter": triameter(points),
        "diam": diam(points),
        "diam3": diam3(points),
        "n": len(points),
    }
    _emit(ns, report, inputs=[ns.points])
    return 0


def cmd_check(ns: argparse.Namespace) -> int:
    points = _load_points(ns.points)
    result = tab_check(points, ns.a, ns.b, ns.threshold, budget=ns.budget)
    witness = list(result.witness) if result.witness is not None else None
    report = {
        "a": ns.a,
        "b": ns.b,
        "holds": result.holds,
        "n": len(points),
        "threshold": ns.threshold,
        "witness_indices": witness,
        "witness_points": points.to_array()[witness].tolist() if witness is not None else None,
    }
    _emit(ns, report, inputs=[ns.points])
    return 0


def _covered(mec: Disk, rho: float) -> bool:
    """Whether the enclosing circle fits in radius rho, with a relative
    slack of 1e-9, so the verdict does not change with the set's scale."""
    return mec.radius <= rho * (1 + 1e-9)


def cmd_jung(ns: argparse.Namespace) -> int:
    points = _load_points(ns.points)
    delta = diam(points)
    if delta <= 0.0:
        raise ValueError("need at least two distinct points")
    # an over-budget --ab is refused before diam3 and the circle run
    ab_values = [diam_ab(points, a, b, budget=ns.budget) for a, b in ns.ab]
    d3 = diam3(points)
    tau = min(d3, delta)
    rho = gen_jung_radius(delta, tau)
    mec = points.enclosing_circle()
    ab_rows = []
    for (a, b), value in zip(ns.ab, ab_values):
        row: dict = {"a": a, "b": b, "value": value}
        if 0.0 < value <= delta:
            row["rho"] = gen_jung_radius(delta, value)
            row["covered"] = _covered(mec, row["rho"])
        else:
            row["rho"] = None
            row["covered"] = None
        ab_rows.append(row)
    report = {
        "ab": ab_rows,
        "covered": _covered(mec, rho),
        "diam": delta,
        "diam3": d3,
        "mec": {"center": [mec.center.x, mec.center.y], "radius": mec.radius},
        "n": len(points),
        "rho": rho,
        "tau": tau,
    }
    _emit(ns, report, inputs=[ns.points])
    return 0


def _bounds_rows(delta_min: float, delta_max: float, steps: int) -> list[dict]:
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if steps > _MAX_STEPS:
        raise MemoryError(f"--steps {steps} is over the cap of {_MAX_STEPS} rows")
    if not (0.0 < delta_min < delta_max < math.inf):
        raise ValueError(f"need 0 < --delta-min < --delta-max < inf, got {delta_min} and {delta_max}")
    rows = []
    for k in range(steps):
        delta = delta_min + (delta_max - delta_min) * k / (steps - 1)
        # a flat dataclass: its field dict, without the deep copy of asdict
        rows.append(dict(vars(bound_profile(delta))))
    return rows


def cmd_bounds(ns: argparse.Namespace) -> int:
    rows = _bounds_rows(ns.delta_min, ns.delta_max, ns.steps)
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(["" if v is None else repr(v) for v in row.values()])
    if ns.svg:
        xs = [row["delta"] for row in rows]
        series = {
            name: [row[name] for row in rows]
            for name in ("stmt1", "stmt2", "stmt3", "convex_blaschke", "convex_improved", "symmetric")
        }
        with open(ns.svg, "w", encoding="utf-8") as fh:
            fh.write(svgplot.curves_svg(xs, series, title="area bounds by diameter"))
    _emit(ns, {"rows": rows})
    return 0


def cmd_search(ns: argparse.Namespace) -> int:
    config = SearchConfig(
        delta=ns.delta,
        h=ns.h,
        iterations=ns.iterations,
        seed=ns.seed,
    )
    result = anneal_chains(config, chains=ns.chains)
    if ns.region_out:
        result.best_region.save(ns.region_out)
    if ns.svg:
        with open(ns.svg, "w", encoding="utf-8") as fh:
            fh.write(
                svgplot.region_svg(
                    result.best_region,
                    outline=u_delta_shape(ns.delta),
                    title=f"search delta={ns.delta}",
                )
            )
    report = {
        "accepted_moves": result.accepted_moves,
        "baseline_measure": result.baseline_measure,
        "best_measure": result.best_measure,
        "bound_value": result.bound_value,
        "candidates": [asdict(row) for row in evaluate_candidates(ns.delta)],
        "cells": len(result.best_region.cells),
        "config": asdict(config),
        "conjecture_exceeded": result.conjecture_exceeded,
        "feasibility": asdict(result.feasibility),
        "iterations": result.iterations,
        "region": result.best_region.to_json_dict(),
    }
    _emit(ns, report, seed=config.seed)
    return 0


def cmd_conjecture(ns: argparse.Namespace) -> int:
    rows = []
    for profile in _bounds_rows(ns.delta_min, ns.delta_max, ns.steps):
        delta = profile["delta"]
        known = best_known_measure(delta)
        # stmt3 applies inside the window 4/sqrt(3) < delta < 4, where the
        # best known candidate is max(U_delta, 4*pi/3)
        rows.append(
            {
                "best_known": known,
                "best_known_below_stmt3": known < profile["stmt3"] if profile["stmt3"] is not None else None,
                "delta": delta,
                "stmt3": profile["stmt3"],
                "symmetric": profile["symmetric"],
                "u_delta": u_delta_measure(delta) if 2.0 < delta < 4.0 else None,
            }
        )
    all_below = all(row["best_known_below_stmt3"] is not False for row in rows)
    if ns.svg:
        xs = [row["delta"] for row in rows]
        series = {name: [row[name] for row in rows] for name in ("stmt3", "symmetric", "best_known")}
        mid = (ns.delta_min + ns.delta_max) / 2.0
        marks = [(mid, row.measure, row.name) for row in evaluate_candidates(mid)]
        with open(ns.svg, "w", encoding="utf-8") as fh:
            fh.write(svgplot.curves_svg(xs, series, title="candidate area against upper bounds", marks=marks))
    _emit(ns, {"all_below_stmt3": all_below, "rows": rows})
    return 0


def cmd_poison(ns: argparse.Namespace) -> int:
    config = PoisonConfig(
        R=ns.R,
        h_available=ns.h_available,
        lethal_dose=ns.dose,
        samples=ns.samples,
        seed=ns.seed,
    )
    inputs = []
    if ns.strategy:
        strategy = PoisonStrategy.load(ns.strategy)
        inputs.append(ns.strategy)
    else:
        strategy = PoisonStrategy(point_masses=(PointMass(Point(0.0, 0.0), ns.h_available),))
    kill = asdict(kill_probability(strategy, config))
    stats = kill.pop("stats")
    lethal = None
    if ns.grid is not None or ns.svg:
        grid_h = ns.grid if ns.grid is not None else 0.05
        region = lethal_region(strategy, config, grid_h)
        lethal = {
            "cells": len(region.cells),
            "diam": region_diam(region) if not region.is_empty() else None,
            "grid_h": grid_h,
            "measure": region.measure,
        }
        if ns.svg:
            with open(ns.svg, "w", encoding="utf-8") as fh:
                fh.write(
                    svgplot.region_svg(
                        region,
                        outline=DiskUnion(((0.0, 0.0, config.R - 1.0),)),
                        title=f"lethal region R={config.R}",
                    )
                )
    report = {
        "config": asdict(config),
        "kill": kill,
        "lethal": lethal,
        "stats": stats,
        "strategy": strategy.to_json_dict(),
    }
    _emit(ns, report, seed=config.seed, inputs=inputs)
    return 0


def cmd_circle(ns: argparse.Namespace) -> int:
    arcs = ArcSet.load(ns.arcs)
    measure = arc_measure(arcs)
    if arcs.r > CIRCLE_LEMMA_MIN_RADIUS:
        bound = circle_bound(arcs.r)
        result = arc_tab_check(arcs)
        holds = result.holds
        witness = list(result.witness) if result.witness is not None else None
        exceeds = measure > bound
    else:
        bound = None
        holds = None
        witness = None
        exceeds = None
    report = {
        "bound": bound,
        "exceeds_bound": exceeds,
        "holds": holds,
        "measure": measure,
        "r": arcs.r,
        "witness": witness,
    }
    _emit(ns, report, inputs=[ns.arcs])
    return 0


# ---------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser, seed: bool = False) -> None:
    sub.add_argument("--out", help="write the JSON report here instead of stdout")
    sub.add_argument("--timestamp", help="pin the manifest timestamp (for reproducible bytes)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_TOOL,
        description="diameter-constrained planar sets: measurements, bounds, search",
    )
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("diameters", help="diam, diam3, triameter and optional diam_ab of a point set")
    p.add_argument("points", help="CSV file of x,y rows")
    p.add_argument("--ab", type=_parse_ab, action="append", default=[], metavar="A,B")
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_diameters)

    p = subs.add_parser("check", help="decide whether diam_ab of a point set stays within a threshold")
    p.add_argument("points")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("jung", help="compare the smallest enclosing circle with the two-distance radius")
    p.add_argument("points")
    p.add_argument("--ab", type=_parse_ab, action="append", default=[], metavar="A,B")
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_jung)

    p = subs.add_parser("bounds", help="tabulate area bounds over a diameter range")
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--csv", help="also write the sweep as CSV")
    p.add_argument("--svg", help="also write a plot")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("search", help="anneal a pixel region against the area bound")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, choices=(1,), help=_ONE_THREAD)
    p.add_argument("--region-out", help="save the best region as JSON")
    p.add_argument("--svg", help="plot the best region over the two-disk candidate")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("conjecture", help="compare the best known candidate against the bounds")
    p.add_argument("--delta-min", type=float, default=2.4)
    p.add_argument("--delta-max", type=float, default=3.9)
    p.add_argument("--steps", type=int, default=151)
    p.add_argument("--svg")
    _add_common(p)
    p.set_defaults(func=cmd_conjecture)

    p = subs.add_parser("poison", help="estimate the kill probability of a poison placement")
    p.add_argument("--R", type=float, required=True, help="pie radius")
    p.add_argument("--h-available", type=float, required=True, help="total grams of poison")
    p.add_argument("--dose", type=float, default=1.0, help="lethal dose in grams")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--strategy", help="JSON strategy file (default: everything at the centre)")
    p.add_argument("--grid", type=float, help="lethal-region raster pitch")
    p.add_argument("--threads", type=int, default=1, choices=(1,), help=_ONE_THREAD)
    p.add_argument("--svg", help="plot the lethal region")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_poison)

    p = subs.add_parser("circle", help="measure an arc set and test the circular three-point condition")
    p.add_argument("arcs", help="JSON arc-set file")
    _add_common(p)
    p.set_defaults(func=cmd_circle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: building takes about 2 ms, and
    parsing leaves the parser as it was."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return ns.func(ns)
    except (BudgetExceededError, InfeasibleStartError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
