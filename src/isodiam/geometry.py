"""Exact planar primitives: points, disks, triangles, enclosing circles.

Everything in this module is a pure function over immutable values.
Coordinates are float64 throughout and all tolerances are documented at the
definition site.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Point",
    "PointSet",
    "Disk",
    "DiskUnion",
    "Triangle",
    "TriangleKind",
    "distance",
    "circumcircle",
    "triangle_classify",
    "min_enclosing_circle",
    "convex_hull_indices",
    "hull_diameter",
    "load_points_csv",
    "save_points_csv",
]

# A triangle counts as degenerate when twice its area is below this fraction
# of the squared longest side.
DEGENERACY_REL_TOL = 1e-12

# A triangle is "right" when the cosine of its largest angle is within this
# tolerance of zero (about 1e-9 radians at 90 degrees).
RIGHT_ANGLE_COS_TOL = 1e-9

# Containment slack used by the enclosing-circle routines, multiplicative on
# the radius. Matches the usual practice for Welzl-style implementations.
_CONTAINS_EPS = 1 + 1e-14


@dataclass(frozen=True)
class Point:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


class DiskUnion:
    """A union of closed disks, given by its circles (cx, cy, r): the shape
    that regions rasterizes and svgplot outlines."""

    circles: tuple[tuple[float, float, float], ...]

    def bbox(self) -> tuple[float, float, float, float]:
        c = self.circles
        return (
            min(x - r for x, _, r in c),
            min(y - r for _, y, r in c),
            max(x + r for x, _, r in c),
            max(y + r for _, y, r in c),
        )

    def contains_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact closed containment of coordinate arrays, no slack."""
        mask = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for cx, cy, r in self.circles:
            mask |= (x - cx) ** 2 + (y - cy) ** 2 <= r**2
        return mask


@dataclass(frozen=True)
class Disk(DiskUnion):
    """A closed disk with center and nonnegative radius."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"disk radius must be finite and >= 0, got {self.radius}")

    def contains(self, p: Point) -> bool:
        """Closed containment with multiplicative slack on the radius."""
        return distance(self.center, p) <= self.radius * _CONTAINS_EPS

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def circles(self) -> tuple[tuple[float, float, float], ...]:
        return ((self.center.x, self.center.y, self.radius),)


@dataclass(frozen=True)
class Triangle:
    a: Point
    b: Point
    c: Point


class TriangleKind(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"
    DEGENERATE = "degenerate"


class PointSet:
    """An ordered, immutable collection of points. Duplicates are retained.

    Order matters for witness reporting: subset scans enumerate indices in
    the order points were supplied.
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[Point]):
        self._points = tuple(points)
        for p in self._points:
            if not isinstance(p, Point):
                raise TypeError(f"PointSet expects Point elements, got {type(p).__name__}")

    @classmethod
    def from_xy(cls, pairs: Iterable[tuple[float, float]]) -> "PointSet":
        return cls(Point(float(x), float(y)) for x, y in pairs)

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    def to_array(self) -> np.ndarray:
        """Coordinates as an (n, 2) float64 array."""
        if not self._points:
            return np.empty((0, 2), dtype=np.float64)
        return np.array([(p.x, p.y) for p in self._points], dtype=np.float64)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __getitem__(self, i: int) -> Point:
        return self._points[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"PointSet({len(self._points)} points)"


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _twice_area(a: Point, b: Point, c: Point) -> float:
    return abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y))


def _is_degenerate(t: Triangle) -> bool:
    longest_sq = max(
        (t.a.x - t.b.x) ** 2 + (t.a.y - t.b.y) ** 2,
        (t.b.x - t.c.x) ** 2 + (t.b.y - t.c.y) ** 2,
        (t.c.x - t.a.x) ** 2 + (t.c.y - t.a.y) ** 2,
    )
    if longest_sq == 0.0:  # all three vertices coincide
        return True
    return _twice_area(t.a, t.b, t.c) < DEGENERACY_REL_TOL * longest_sq


def circumcircle(t: Triangle) -> Disk | None:
    """Circle through the three vertices, or None for a degenerate triangle.

    Degeneracy rule: twice the area below DEGENERACY_REL_TOL times the squared
    longest side. The center is computed from the perpendicular-bisector
    linear system after translating vertex a to the origin, which keeps the
    arithmetic well scaled for distant triangles.
    """
    if _is_degenerate(t):
        return None
    ax, ay = t.a.x, t.a.y
    bx, by = t.b.x - ax, t.b.y - ay
    cx, cy = t.c.x - ax, t.c.y - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(ax + ux, ay + uy)
    radius = max(distance(center, t.a), distance(center, t.b), distance(center, t.c))
    return Disk(center, radius)


def triangle_classify(t: Triangle) -> TriangleKind:
    """Classify by the largest angle.

    Right means the cosine of the largest angle lies within
    RIGHT_ANGLE_COS_TOL of zero; degenerate triangles are detected first
    with the area rule shared with circumcircle().
    """
    if _is_degenerate(t):
        return TriangleKind.DEGENERATE
    s1 = (t.a.x - t.b.x) ** 2 + (t.a.y - t.b.y) ** 2
    s2 = (t.b.x - t.c.x) ** 2 + (t.b.y - t.c.y) ** 2
    s3 = (t.c.x - t.a.x) ** 2 + (t.c.y - t.a.y) ** 2
    s1, s2, s3 = sorted((s1, s2, s3))
    # cos of the angle opposite the longest side
    cos_largest = (s1 + s2 - s3) / (2.0 * math.sqrt(s1 * s2))
    if abs(cos_largest) <= RIGHT_ANGLE_COS_TOL:
        return TriangleKind.RIGHT
    if cos_largest < 0.0:
        return TriangleKind.OBTUSE
    return TriangleKind.ACUTE


# ---------------------------------------------------------------------------
# Minimum enclosing circle
# ---------------------------------------------------------------------------


def _circle_two(p: Point, q: Point) -> Disk:
    cx = (p.x + q.x) / 2.0
    cy = (p.y + q.y) / 2.0
    c = Point(cx, cy)
    return Disk(c, max(distance(c, p), distance(c, q)))


def _circle_three(p: Point, q: Point, r: Point) -> Disk | None:
    return circumcircle(Triangle(p, q, r))


def min_enclosing_circle(s: PointSet) -> Disk:
    """Smallest closed disk containing every point of s.

    Incremental Welzl-style construction in expected linear time. The input
    order is shuffled with a fixed-seed generator so results are deterministic
    for identical inputs while still defeating adversarial orderings. Raises
    ValueError on an empty set.
    """
    pts = list(s.points)
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
        c = _circle_three(p, q, r)
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
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


# ---------------------------------------------------------------------------
# Convex hull (shared helper for diameters and pixel regions)
# ---------------------------------------------------------------------------


def convex_hull_indices(coords: np.ndarray) -> list[int]:
    """Indices of hull vertices in counterclockwise order (monotone chain).

    Collinear boundary points are dropped. For fewer than three distinct
    points the result simply lists the distinct extremes.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if n == 0:
        return []
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    # skip duplicates while keeping the first occurrence
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
        # all points collinear: keep the two extremes
        return [uniq[0], uniq[-1]]
    return hull


def hull_diameter(coords: np.ndarray) -> float:
    """Largest pairwise distance of an (n, 2) float64 array; 0.0 for fewer
    than two distinct points.

    The largest distance is attained at convex hull vertices, so only those
    pairs are compared, on squared distances, with one square root at the
    end.
    """
    pts = coords[convex_hull_indices(coords)]
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = float(np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1).max())
        if d2 > best:
            best = d2
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def load_points_csv(path: str | Path) -> PointSet:
    """Read a point set from CSV: one `x,y` pair per line.

    Blank lines and lines starting with `#` are ignored. Decimal separator
    is the dot; the file must be UTF-8. Malformed lines raise ValueError
    with the offending line number.
    """
    points: list[Point] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number in {raw!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}:{lineno}: coordinates must be finite")
        points.append(Point(x, y))
    return PointSet(points)


def save_points_csv(s: PointSet, path: str | Path) -> None:
    lines = [f"{p.x!r},{p.y!r}" for p in s]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
