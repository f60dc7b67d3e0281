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
    "in_window",
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

# The coordinate window. Where every nonzero coordinate has a magnitude in
# [2^-250, 2^250], every nonzero coordinate difference lies in [2^-302,
# 2^251] (floats above 2^-250 are multiples of 2^-302), so the squares and
# cubes of differences that the circumcircle terms take stay normal floats
# and nothing overflows. load_points_csv refuses coordinates outside it, and
# the array scans of min_enclosing_circle and diameters.diam3 run only
# inside it.
_WINDOW = (2.0**-250, 2.0**250)

# Relative margin of the array scans' certain verdicts: it dwarfs the few
# ulps by which their squared terms can differ from the exact tests'.
_MARGIN = 1e-9


def in_window(coords: np.ndarray) -> bool:
    """True when every nonzero entry of coords has a magnitude inside the
    coordinate window."""
    lo, hi = _WINDOW
    a = np.abs(coords)
    return bool(np.all((a == 0.0) | ((a >= lo) & (a <= hi))))


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

    The scans are array passes that give the disk of the per-point loops
    bit for bit. The next point outside a disk is found by _first_outside.
    Inside the coordinate window, _mec_with_two_scan picks the two
    circumcircles the per-point loop of _mec_with_two would keep; outside
    it, where a square or a cube can leave the normal float range, the
    per-point loop runs.
    """
    pts = list(s.points)
    if not pts:
        raise ValueError("min_enclosing_circle of an empty point set")
    random.Random(0x1D0D1A).shuffle(pts)
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    scan = in_window(x) and in_window(y)

    def with_one(hi: int) -> Disk:
        # the disk of pts[:hi] with pts[hi - 1] on its boundary
        p = pts[hi - 1]
        disk = Disk(p, 0.0)
        j = _first_outside(disk, pts, x, y, 0, hi)
        while j < hi:
            q = pts[j]
            if disk.radius == 0.0:
                disk = _circle_two(p, q)
            elif scan:
                disk = _mec_with_two_scan(pts, x, y, j + 1, p, q)
            else:
                disk = _mec_with_two(pts[: j + 1], p, q)
            j = _first_outside(disk, pts, x, y, j + 1, hi)
        return disk

    disk = with_one(1)
    i = _first_outside(disk, pts, x, y, 1, len(pts))
    while i < len(pts):
        disk = with_one(i + 1)
        i = _first_outside(disk, pts, x, y, i + 1, len(pts))
    return disk


def _sure_sides(disk: Disk, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the points (x, y) that Disk.contains certainly puts inside,
    and certainly outside, decided on squared distances.

    Where the squared slackened radius r2 is a normal float of magnitude in
    [2^-1000, 2^1000], the squared distance d2 and r2 are within a few ulps
    of their exact values, plus underflow far below r2 * _MARGIN, and hypot
    is within an ulp of the true length. So d2 <= r2 * (1 - _MARGIN) means
    contained and d2 >= r2 * (1 + _MARGIN) means not, overflow to inf
    included. Otherwise no point is certain.
    """
    reach = disk.radius * _CONTAINS_EPS
    r2 = reach * reach
    if not 2.0**-1000 <= r2 <= 2.0**1000:
        none = np.zeros(len(x), dtype=bool)
        return none, none
    with np.errstate(over="ignore"):
        dx = x - disk.center.x
        dy = y - disk.center.y
        dx *= dx
        dy *= dy
        dx += dy
    return dx <= r2 * (1 - _MARGIN), dx >= r2 * (1 + _MARGIN)


def _first_outside(disk: Disk, pts: Sequence[Point], x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> int:
    """Index of the first of pts[lo:hi] that disk does not contain, or hi.
    Points not certainly inside go through Disk.contains in order."""
    inside, outside = _sure_sides(disk, x[lo:hi], y[lo:hi])
    for k in np.flatnonzero(~inside).tolist():
        if outside[k] or not disk.contains(pts[lo + k]):
            return lo + k
    return hi


def _mec_with_two(pts: Sequence[Point], p: Point, q: Point) -> Disk:
    """The disk of pts with p and q on its boundary, point by point."""
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
    return _pick(circ, left, right)


def _pick(circ: Disk, left: Disk | None, right: Disk | None) -> Disk:
    if left is None and right is None:
        return circ
    if left is None:
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _mec_with_two_scan(pts: Sequence[Point], x: np.ndarray, y: np.ndarray, hi: int, p: Point, q: Point) -> Disk:
    """_mec_with_two in array passes, for point sets inside the coordinate
    window.

    The points outside the circle on pq come from _sure_sides, with
    Disk.contains deciding the uncertain ones. For each, cross, the
    circumcentre and ccross are the expressions of _mec_with_two and
    circumcircle, elementwise, so they are the same floats. Twice the
    triangle's area is |cross|. _is_degenerate squares by pow, which can
    differ from a product by an ulp, so a triangle is flat or not by the
    array test only outside a relative margin of _MARGIN, and by
    _is_degenerate inside it. The loop keeps the first strict maximum of
    ccross among cross > 0 and the first strict minimum among cross < 0:
    argmax and argmin. Only those two circles are built, by circumcircle.
    """
    circ = _circle_two(p, q)
    inside, outside = _sure_sides(circ, x[:hi], y[:hi])
    unsure = np.flatnonzero(~(inside | outside))
    outside[unsure] = [not circ.contains(pts[k]) for k in unsure.tolist()]
    idx = np.flatnonzero(outside)
    px, py = p.x, p.y
    dx, dy = q.x - px, q.y - py
    rx, ry = x[idx] - px, y[idx] - py
    cross = dx * ry - dy * rx
    twice_area = np.abs(cross)
    # circumcircle's b2 and c2 are two of the squared sides _is_degenerate
    # takes, here as products
    b2 = dx * dx + dy * dy
    c2 = rx * rx + ry * ry
    qx, qy = q.x - x[idx], q.y - y[idx]
    tol = DEGENERACY_REL_TOL * np.maximum(np.maximum(b2, qx * qx + qy * qy), c2)
    flat = twice_area < tol * (1 - _MARGIN)
    unsure = np.flatnonzero(~flat & (twice_area < tol * (1 + _MARGIN)))
    flat[unsure] = [_is_degenerate(Triangle(p, q, pts[k])) for k in idx[unsure].tolist()]
    keep = ~flat
    idx, rx, ry, c2, cross = idx[keep], rx[keep], ry[keep], c2[keep], cross[keep]
    # circumcircle(Triangle(p, q, r)) with a = p, b = q, c = r, whose
    # d is 2 * cross; the loop takes ccross on the centre (px + ux, py + uy)
    d = 2.0 * cross
    ux = (ry * b2 - dy * c2) / d
    uy = (dx * c2 - rx * b2) / d
    ccross = dx * ((py + uy) - py) - dy * ((px + ux) - px)

    def circle(side: np.ndarray, best) -> Disk | None:
        k = np.flatnonzero(side)
        if not len(k):
            return None
        return circumcircle(Triangle(p, q, pts[int(idx[k[best(ccross[k])]])]))

    return _pick(circ, circle(cross > 0.0, np.argmax), circle(cross < 0.0, np.argmin))


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
    # equal points sort next to each other: keep the first of each run
    sx, sy = coords[order, 0], coords[order, 1]
    first = np.ones(n, dtype=bool)
    first[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    uniq: list[int] = order[first].tolist()
    if len(uniq) <= 2:
        return uniq
    # the chain reads single coordinates: as Python floats, not numpy scalars
    xs, ys = coords[:, 0].tolist(), coords[:, 1].tolist()

    def chain(seq: Iterable[int]) -> list[int]:
        out: list[int] = []
        for b in seq:
            xb, yb = xs[b], ys[b]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                xo, yo = xs[o], ys[o]
                if not (xs[a] - xo) * (yb - yo) - (ys[a] - yo) * (xb - xo) <= 0:
                    break
                out.pop()
            out.append(b)
        return out

    lower = chain(uniq)
    upper = chain(reversed(uniq))
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
    is the dot; the file must be UTF-8. Malformed lines, and nonzero
    coordinates outside the coordinate window, raise ValueError with the
    offending line number.
    """
    lo, hi = _WINDOW
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
        if not ((x == 0.0 or lo <= abs(x) <= hi) and (y == 0.0 or lo <= abs(y) <= hi)):
            raise ValueError(f"{path}:{lineno}: nonzero coordinates must have magnitudes in [2**-250, 2**250]")
        points.append(Point(x, y))
    return PointSet(points)


def save_points_csv(s: PointSet, path: str | Path) -> None:
    lines = [f"{p.x!r},{p.y!r}" for p in s]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
