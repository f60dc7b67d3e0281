"""Per-point oracles for the array fast paths of geometry, diameters and
poisoning, the reference enclosing circle, and the CSV writer for
point-set fixtures.

convex_hull_indices reads numpy scalars one at a time, diam3 sorts the
pairs of the whole set above a stride-sample floor, and triameter makes one
pass per pair of hull vertices. These are the routines the fast paths
replaced, kept as they were so the tests can require equal results, not
close ones. min_enclosing_circle is the seeded Welzl loop over every point
of a set: the library runs the same loop on the hull vertices alone, so on
those it gives the library's disk bit for bit, and on the whole set a
radius within rounding of it. diam3_brute takes the maximum
over all triples directly. is_lethal scores one bite by its exact dose,
the verdict that the Monte Carlo's table must reproduce. save_points_csv
writes what load_points_csv reads.
"""

import itertools
import math
import random
from pathlib import Path
from typing import Sequence

import numpy as np

from isodiam.diameters import _PREFILTER_MIN, _SUBSAMPLE, _first_clique_d2
from isodiam.geometry import Disk, Point, PointSet, _circle_two, circumcircle
from isodiam.poisoning import _TOL, PoisonConfig, PoisonStrategy, _dose_at, _is_lethal_dose, _patch_rows


def convex_hull_indices(coords: np.ndarray) -> list[int]:
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if n == 0:
        return []
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    uniq: list[int] = []
    for idx in order:
        if uniq and coords[idx, 0] == coords[uniq[-1], 0] and coords[idx, 1] == coords[uniq[-1], 1]:
            continue
        uniq.append(int(idx))
    if len(uniq) <= 2:
        return uniq

    def cross(o: int, a: int, b: int) -> float:
        return (coords[a, 0] - coords[o, 0]) * (coords[b, 1] - coords[o, 1]) - (
            coords[a, 1] - coords[o, 1]
        ) * (coords[b, 0] - coords[o, 0])

    lower: list[int] = []
    for idx in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], idx) <= 0:
            lower.pop()
        lower.append(idx)
    upper: list[int] = []
    for idx in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], idx) <= 0:
            upper.pop()
        upper.append(idx)
    hull = lower[:-1] + upper[:-1]
    if not hull:
        return [uniq[0], uniq[-1]]
    return hull


def points(s: PointSet) -> list[Point]:
    """The points of s, in order."""
    return [Point(x, y) for x, y in s.to_array().tolist()]


def min_enclosing_circle(s: PointSet) -> Disk:
    pts = points(s)
    if not pts:
        raise ValueError("min_enclosing_circle of an empty point set")
    random.Random(0x1D0D1A).shuffle(pts)
    disk: Disk | None = None
    for i, p in enumerate(pts):
        if disk is None or not disk.contains(p):
            disk = _mec_with_one(pts[: i + 1], p)
    assert disk is not None
    return disk


def _mec_with_one(pts: Sequence[Point], p: Point) -> Disk:
    disk = Disk(p, 0.0)
    for i, q in enumerate(pts):
        if not disk.contains(q):
            if disk.radius == 0.0:
                disk = _circle_two(p, q)
            else:
                disk = _mec_with_two(pts[: i + 1], p, q)
    return disk


def _mec_with_two(pts: Sequence[Point], p: Point, q: Point) -> Disk:
    circ = _circle_two(p, q)
    left: Disk | None = None
    right: Disk | None = None
    px, py = p.x, p.y
    dx, dy = q.x - px, q.y - py
    for r in pts:
        if circ.contains(r):
            continue
        cross = dx * (r.y - py) - dy * (r.x - px)
        c = circumcircle(p, q, r)
        if c is None:
            continue
        ccross = dx * (c.center.y - py) - dy * (c.center.x - px)
        if cross > 0.0 and (left is None or ccross > dx * (left.center.y - py) - dy * (left.center.x - px)):
            left = c
        elif cross < 0.0 and (right is None or ccross < dx * (right.center.y - py) - dy * (right.center.x - px)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def diam3(s: PointSet) -> float:
    """diam3 with the stride-sample floor and no point dropped."""
    coords = s.to_array()
    n = len(coords)
    if n < 3:
        return 0.0
    floor2 = 0.0
    if n > _PREFILTER_MIN:
        floor2 = _first_clique_d2(coords[:: n // _SUBSAMPLE], 0.0, 3)
    return float(np.sqrt(_first_clique_d2(coords, floor2, 3)))


def diam3_brute(s: PointSet) -> float:
    """Max over triples of the smallest squared side, each side the
    expression diam3 computes, then one square root."""
    xy = s.to_array().tolist()
    if len(xy) < 3:
        return 0.0

    def d2(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return dx * dx + dy * dy

    best = max(min(d2(a, b), d2(a, c), d2(b, c)) for a, b, c in itertools.combinations(xy, 3))
    return float(np.sqrt(best))


def triameter(s: PointSet) -> float:
    coords = s.to_array()
    if len(coords) < 3:
        return 0.0
    hull = convex_hull_indices(coords)
    if len(hull) < 3:
        return 0.0
    pts = coords[hull]
    m = len(pts)
    best = 0.0
    for i in range(m - 2):
        for j in range(i + 1, m - 1):
            vx = pts[j, 0] - pts[i, 0]
            vy = pts[j, 1] - pts[i, 1]
            rest = pts[j + 1 :]
            cross = vx * (rest[:, 1] - pts[i, 1]) - vy * (rest[:, 0] - pts[i, 0])
            peak = float(np.abs(cross).max())
            if peak > best:
                best = peak
    return best / 2.0


def is_lethal(strategy: PoisonStrategy, p: Point, config: PoisonConfig) -> bool:
    """Does the bite centered at p ingest at least the lethal dose?

    p must lie in the closed sampling disk of radius R - 1, up to _TOL.
    """
    if math.hypot(p.x, p.y) > config.R - 1.0 + _TOL:
        raise ValueError(f"bite center ({p.x}, {p.y}) outside the disk of radius {config.R - 1}")
    dose = _dose_at(strategy, _patch_rows(strategy), np.array([p.x]), np.array([p.y]))
    return bool(_is_lethal_dose(dose, config)[0])


def save_points_csv(s: PointSet, path: str | Path) -> None:
    lines = [f"{x!r},{y!r}" for x, y in s.to_array().tolist()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
