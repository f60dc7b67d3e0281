"""Oracles: independent checks of the CLI reports, run outside the timed region.

Each check takes the run directory, the invocation's output files (report
first) and the invocation's ``params``, and returns a list of failure
messages; an empty list means the report passed. The checks recompute
what they can by brute force with numpy and never call ``isodiam``.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

REL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def _report(directory: Path, name: str) -> dict:
    payload = json.loads((directory / name).read_text(encoding="utf-8"))
    if payload.get("schema") != 1:
        raise ValueError(f"{name}: schema {payload.get('schema')!r}, expected 1")
    return payload["report"]


def _points(directory: Path, name: str) -> np.ndarray:
    return np.loadtxt(directory / name, delimiter=",", ndmin=2)


def _pair_d2(p: np.ndarray) -> np.ndarray:
    diff = p[:, None, :] - p[None, :, :]
    return np.sum(diff * diff, axis=2)


def max_pair_distance(p: np.ndarray, chunk: int = 256) -> float:
    """Largest pairwise distance over all pairs, in row chunks."""
    best = 0.0
    for lo in range(0, len(p), chunk):
        diff = p[lo : lo + chunk, None, :] - p[None, :, :]
        best = max(best, float(np.sum(diff * diff, axis=2).max()))
    return math.sqrt(best)


def diam_ab_brute(p: np.ndarray, a: int, b: int) -> float:
    """sup over a-subsets of min over b-subsets of the b-subset's diameter."""
    if len(p) < a:
        return 0.0
    dist = np.sqrt(_pair_d2(p))
    subsets = np.array(list(combinations(range(len(p)), a)), dtype=np.int64)
    inner = np.full(len(subsets), np.inf)
    for sigma in combinations(range(a), b):
        widest = np.zeros(len(subsets))
        for u, v in combinations(sigma, 2):
            widest = np.maximum(widest, dist[subsets[:, u], subsets[:, v]])
        inner = np.minimum(inner, widest)
    return float(inner.max())


def triameter_brute(p: np.ndarray) -> float:
    t = np.array(list(combinations(range(len(p)), 3)), dtype=np.int64)
    a, b, c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    return float(np.abs(cross).max()) / 2.0


def _cell_centers(region: dict) -> np.ndarray:
    idx = np.array(region["cells"], dtype=np.float64).reshape(-1, 2)
    return (idx + 0.5) * region["h"] + np.array(region["origin"], dtype=np.float64)


# ---------------------------------------------------------------- checks


def check_search(directory: Path, outputs, delta: float, h: float, iterations: int, region_file: str | None) -> list[str]:
    r = _report(directory, outputs[0])
    fail = []
    feas = r["feasibility"]
    if feas["diam_ok"] is not True or feas["diam3_ok"] is not True:
        fail.append(f"feasibility flags diam_ok={feas['diam_ok']} diam3_ok={feas['diam3_ok']}")
    if r["iterations"] != iterations:
        fail.append(f"iterations {r['iterations']} != requested {iterations}")
    if not 0 <= r["accepted_moves"] <= iterations:
        fail.append(f"accepted_moves {r['accepted_moves']} outside [0, {iterations}]")
    region = r["region"]
    if len(region["cells"]) != r["cells"]:
        fail.append(f"cells {r['cells']} != {len(region['cells'])} cells in the region")
    if not _close(r["best_measure"], r["cells"] * h * h):
        fail.append(f"best_measure {r['best_measure']} != cells*h^2 = {r['cells'] * h * h}")
    if r["best_measure"] < r["baseline_measure"]:
        fail.append(f"best_measure {r['best_measure']} < baseline {r['baseline_measure']}")
    if region_file is not None:
        saved = json.loads((directory / region_file).read_text(encoding="utf-8"))
        if saved != region:
            fail.append(f"{region_file} differs from the report's region")
        region = saved
    center_diam = max_pair_distance(_cell_centers(region))
    if center_diam > delta + 1e-9:
        fail.append(f"region centre diameter {center_diam} > delta {delta}")
    return fail


def check_diameters(directory: Path, outputs, points: str, triples: bool) -> list[str]:
    r = _report(directory, outputs[0])
    p = _points(directory, points)
    fail = []
    if r["n"] != len(p):
        fail.append(f"n {r['n']} != {len(p)} points")
    want = max_pair_distance(p)
    if not _close(r["diam"], want):
        fail.append(f"diam {r['diam']} != brute force {want}")
    if triples:
        d3 = diam_ab_brute(p, 3, 2)
        if not _close(r["diam3"], d3):
            fail.append(f"diam3 {r['diam3']} != brute force over triples {d3}")
        tri = triameter_brute(p)
        if not math.isclose(r["triameter"], tri, rel_tol=1e-9):
            fail.append(f"triameter {r['triameter']} != brute force {tri}")
        for row in r["ab"]:
            if row["b"] == 2:
                want_ab = diam_ab_brute(p, row["a"], 2)
                if not _close(row["value"], want_ab):
                    fail.append(f"diam_ab({row['a']},2) {row['value']} != brute force {want_ab}")
    return fail


def _violates(p: np.ndarray, witness: list[int], b: int, t: float) -> bool:
    """No b points of the witness are pairwise within t."""
    dist = np.sqrt(_pair_d2(p[witness]))
    for sigma in combinations(range(len(witness)), b):
        if all(dist[u, v] <= t for u, v in combinations(sigma, 2)):
            return False
    return True


def check_check(directory: Path, outputs, points: str, diameters: str | None) -> list[str]:
    r = _report(directory, outputs[0])
    p = _points(directory, points)
    a, b, t = r["a"], r["b"], r["threshold"]
    fail = []
    if r["holds"]:
        if r["witness_indices"] is not None:
            fail.append("holds but a witness is reported")
    else:
        w = r["witness_indices"]
        if w is None or len(set(w)) != a or not all(0 <= i < len(p) for i in w):
            fail.append(f"witness {w} is not {a} distinct indices")
        else:
            if not np.array_equal(np.array(r["witness_points"]), p[w]):
                fail.append("witness points differ from the indexed input points")
            if not _violates(p, w, b, t):
                fail.append(f"witness {w} has {b} points pairwise within {t}")
    if diameters is not None:
        value = next(row["value"] for row in _report(directory, diameters)["ab"] if (row["a"], row["b"]) == (a, b))
    else:
        value = diam_ab_brute(p, a, b)
    if r["holds"] != (value <= t):
        fail.append(f"holds={r['holds']} but diam_ab({a},{b}) = {value} against threshold {t}")
    return fail


def check_jung(directory: Path, outputs, points: str) -> list[str]:
    r = _report(directory, outputs[0])
    p = _points(directory, points)
    fail = []
    if r["covered"] is not True:
        fail.append(f"covered is {r['covered']}")
    want = max_pair_distance(p)
    if not _close(r["diam"], want):
        fail.append(f"diam {r['diam']} != brute force {want}")
    center, radius = np.array(r["mec"]["center"]), r["mec"]["radius"]
    reach = float(np.sqrt(np.sum((p - center) ** 2, axis=1)).max())
    if reach > radius * (1 + 1e-12) + 1e-12:
        fail.append(f"enclosing circle of radius {radius} misses a point at {reach}")
    if radius > r["rho"] + 1e-9:
        fail.append(f"enclosing radius {radius} exceeds rho {r['rho']}")
    return fail


def check_bounds(directory: Path, outputs, steps: int) -> list[str]:
    r = _report(directory, outputs[0])
    fail = []
    if len(r["rows"]) != steps:
        fail.append(f"{len(r['rows'])} rows, expected {steps}")
    lines = (directory / outputs[1]).read_text(encoding="utf-8").splitlines()
    if len(lines) != steps + 1:
        fail.append(f"CSV has {len(lines)} lines, expected {steps + 1}")
    if not (directory / outputs[2]).read_text(encoding="utf-8").startswith("<svg"):
        fail.append("SVG output does not start with <svg")
    return fail


def check_conjecture(directory: Path, outputs, steps: int) -> list[str]:
    r = _report(directory, outputs[0])
    fail = []
    if len(r["rows"]) != steps:
        fail.append(f"{len(r['rows'])} rows, expected {steps}")
    if r["all_below_stmt3"] is not True:
        fail.append("the two-disk candidate is not below stmt3 across the window")
    return fail


def check_poison(directory: Path, outputs) -> list[str]:
    """Kill estimate against lethal-region measure / pi (R-1)^2.

    Tolerance: 4 standard errors of the estimate plus the raster error of
    the center-sampled lethal region. Only cells crossed by the boundary
    can be misclassified and each lies within h*sqrt(2) of it, so the error
    is at most the area of that band, 2*sqrt(2)*h*L, with the perimeter L
    taken as pi*diam (the bound for convex sets; the lethal regions here
    are single central blobs).
    """
    r = _report(directory, outputs[0])
    kill, lethal = r["kill"], r["lethal"]
    n, p = kill["samples"], kill["estimate"]
    fail = []
    if kill["hits"] / n != p:
        fail.append(f"estimate {p} != hits/samples {kill['hits']}/{n}")
    if not kill["ci95"][0] <= p <= kill["ci95"][1]:
        fail.append(f"estimate {p} outside its ci95 {kill['ci95']}")
    if lethal is None or lethal["cells"] == 0:
        return fail + ["no lethal region to compare with"]
    area = math.pi * (r["config"]["R"] - 1.0) ** 2
    raster = lethal["measure"] / area
    tol = 4.0 * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    tol += 2.0 * math.sqrt(2.0) * lethal["grid_h"] * math.pi * lethal["diam"] / area
    if abs(p - raster) > tol:
        fail.append(f"kill estimate {p} vs lethal-region share {raster}: off by more than {tol}")
    return fail


def check_circle(directory: Path, outputs, arcs: str) -> list[str]:
    r = _report(directory, outputs[0])
    data = json.loads((directory / arcs).read_text(encoding="utf-8"))
    fail = []
    want = data["r"] * sum(t2 - t1 for t1, t2 in data["arcs"])
    if not _close(r["measure"], want):
        fail.append(f"measure {r['measure']} != r * total width {want}")
    if r["witness"] is not None:
        angles = r["witness"]
        if not all(any(t1 <= t < t2 for t1, t2 in data["arcs"]) for t in angles):
            fail.append(f"witness angles {angles} are not all on the arcs")
        for s, t in combinations(angles, 2):
            chord = 2.0 * data["r"] * abs(math.sin((s - t) / 2.0))
            if chord <= 2.0:
                fail.append(f"witness chord {chord} is not beyond 2")
    if r["holds"] != (r["witness"] is None):
        fail.append(f"holds={r['holds']} disagrees with witness {r['witness']}")
    return fail


CHECKS = {
    "search": check_search,
    "diameters": check_diameters,
    "check": check_check,
    "jung": check_jung,
    "bounds": check_bounds,
    "conjecture": check_conjecture,
    "poison": check_poison,
    "circle": check_circle,
}


def run_check(directory: Path, inv) -> list[str]:
    """Apply the invocation's oracle; a report that cannot be read fails."""
    try:
        return CHECKS[inv.check](directory, inv.outputs, **inv.params)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
