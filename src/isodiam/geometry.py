"""Exact planar primitives: points, disks, triangles, enclosing circles.

Everything in this module is a pure function over immutable values.
Coordinates are float64 throughout and all tolerances are documented at the
definition site. A PointSet checks its coordinates once, when it is built:
each must be finite, and each nonzero one must lie in the coordinate window
[2^-250, 2^250], so the array scans over it need no fallback.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Point",
    "PointSet",
    "Disk",
    "DiskUnion",
    "Triangle",
    "distance",
    "circumcircle",
    "min_enclosing_circle",
    "convex_hull_indices",
    "hull_diameter",
    "load_points_csv",
]

# A triangle counts as degenerate when twice its area is below this fraction
# of the squared longest side.
DEGENERACY_REL_TOL = 1e-12

# Containment slack used by the enclosing-circle routines, multiplicative on
# the radius. Matches the usual practice for Welzl-style implementations.
_CONTAINS_EPS = 1 + 1e-14

# The coordinate window. Where every nonzero coordinate has a magnitude in
# [2^-250, 2^250], every nonzero coordinate difference lies in [2^-302,
# 2^251] (floats above 2^-250 are multiples of 2^-302), so the squares and
# cubes of differences that the circumcircle terms take stay normal floats
# and nothing overflows. A PointSet holds only coordinates inside it, so
# the array scans of min_enclosing_circle and diameters.diam3 may rely on
# it.
_WINDOW = (2.0**-250, 2.0**250)

# Relative margin of the array scans' certain verdicts: it dwarfs the few
# ulps by which their squared terms can differ from the exact tests'.
_MARGIN = 1e-9


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


class PointSet:
    """An ordered, immutable collection of points, held as one read-only
    (n, 2) float64 array. Duplicates are retained.

    Order matters for witness reporting: subset scans enumerate indices in
    the order points were supplied. Every coordinate is checked once, here:
    a coordinate that is not finite, or nonzero with a magnitude outside
    the coordinate window [2^-250, 2^250], raises ValueError.
    """

    __slots__ = ("_xy",)

    def __init__(self, points: Iterable[Point]):
        pairs = []
        for p in points:
            if not isinstance(p, Point):
                raise TypeError(f"PointSet expects Point elements, got {type(p).__name__}")
            pairs.append((p.x, p.y))
        self._xy = _checked(pairs)

    @classmethod
    def from_xy(cls, pairs: Iterable[tuple[float, float]] | np.ndarray) -> "PointSet":
        """The set of (x, y) pairs, or of the rows of an (n, 2) array."""
        s = cls.__new__(cls)
        s._xy = _checked(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        return s

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)

    def to_array(self) -> np.ndarray:
        """Coordinates as a read-only (n, 2) float64 array."""
        return self._xy

    def __len__(self) -> int:
        return len(self._xy)

    def __iter__(self) -> Iterator[Point]:
        return (Point(x, y) for x, y in self._xy.tolist())

    def __getitem__(self, i: int) -> Point:
        return Point(*self._xy[i].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return np.array_equal(self._xy, other._xy)

    def __hash__(self) -> int:
        # hashed as floats, so that 0.0 and -0.0 hash alike, as they compare
        return hash(tuple(self._xy.ravel().tolist()))

    def __repr__(self) -> str:
        return f"PointSet({len(self._xy)} points)"


def _checked(pairs: Sequence[tuple[float, float]] | np.ndarray) -> np.ndarray:
    """A read-only float64 copy of pairs, refused as PointSet documents."""
    xy = np.array(pairs, dtype=np.float64)
    if not xy.size:
        xy = xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected (x, y) pairs, got an array of shape {xy.shape}")
    if (refused := _refusal(xy)) is not None:
        raise ValueError(f"point {refused[0]}: {refused[1]}")
    xy.flags.writeable = False
    return xy


def _refusal(xy: np.ndarray) -> tuple[int, str] | None:
    """The first row of xy with a coordinate that is not finite, or nonzero
    outside the coordinate window, and why it is refused; or None."""
    lo, hi = _WINDOW
    a = np.abs(xy)
    refused = np.flatnonzero(~((a == 0.0) | ((a >= lo) & (a <= hi))).all(axis=1))
    if not len(refused):
        return None
    k = int(refused[0])
    if not np.isfinite(xy[k]).all():
        return k, "coordinates must be finite"
    return k, "nonzero coordinates must have magnitudes in [2**-250, 2**250]"


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


# ---------------------------------------------------------------------------
# Minimum enclosing circle
# ---------------------------------------------------------------------------


def _circle_two(p: Point, q: Point) -> Disk:
    cx = (p.x + q.x) / 2.0
    cy = (p.y + q.y) / 2.0
    c = Point(cx, cy)
    return Disk(c, max(distance(c, p), distance(c, q)))


def min_enclosing_circle(s: PointSet) -> Disk:
    """Smallest closed disk containing every point of s.

    Incremental Welzl-style construction in expected linear time. The input
    order is shuffled with a fixed-seed generator so results are deterministic
    for identical inputs while still defeating adversarial orderings. Raises
    ValueError on an empty set.

    The scans are array passes that give the disk of the per-point loops
    bit for bit: _first_outside finds the next point outside a disk, and
    _mec_with_two picks the two circumcircles the per-point loop would keep.
    """
    xy = s.to_array()
    if not len(xy):
        raise ValueError("min_enclosing_circle of an empty point set")
    # random.shuffle permutes by length alone, so the indices take the
    # order that shuffling the points themselves would give them
    order = list(range(len(xy)))
    random.Random(0x1D0D1A).shuffle(order)
    x, y = xy[order, 0], xy[order, 1]

    def with_one(hi: int) -> Disk:
        # the disk of the first hi points with the last of them on its boundary
        p = _point(x, y, hi - 1)
        disk = Disk(p, 0.0)
        j = _first_outside(disk, x, y, 0, hi)
        while j < hi:
            q = _point(x, y, j)
            if disk.radius == 0.0:
                disk = _circle_two(p, q)
            else:
                disk = _mec_with_two(x[: j + 1], y[: j + 1], p, q)
            j = _first_outside(disk, x, y, j + 1, hi)
        return disk

    disk = with_one(1)
    i = _first_outside(disk, x, y, 1, len(x))
    while i < len(x):
        disk = with_one(i + 1)
        i = _first_outside(disk, x, y, i + 1, len(x))
    return disk


def _point(x: np.ndarray, y: np.ndarray, k: int) -> Point:
    return Point(float(x[k]), float(y[k]))


def _sure_sides(disk: Disk, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the points (x, y) that Disk.contains certainly puts inside,
    and certainly outside, decided on squared distances.

    In the coordinate window a disk's radius is 0 or at least 2^-303, half
    the distance of two points, and the degeneracy test keeps circumcentres
    within 2^292 of the origin. So the squared slackened radius r2 and each
    squared distance d2 are within a few ulps of their exact values, with no
    overflow and any underflow far below r2 * _MARGIN, and hypot is within
    an ulp of the true length: d2 <= r2 * (1 - _MARGIN) means contained and
    d2 > r2 * (1 + _MARGIN) means not. At r2 = 0 they read d2 == 0 and
    d2 > 0, exact, as the points' nonzero differences square to normals.
    """
    reach = disk.radius * _CONTAINS_EPS
    r2 = reach * reach
    dx = x - disk.center.x
    dy = y - disk.center.y
    dx *= dx
    dy *= dy
    dx += dy
    return dx <= r2 * (1 - _MARGIN), dx > r2 * (1 + _MARGIN)


def _first_outside(disk: Disk, x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> int:
    """Index of the first of the points lo..hi-1 of (x, y) that disk does
    not contain, or hi. Points not certainly inside go through
    Disk.contains in order."""
    inside, outside = _sure_sides(disk, x[lo:hi], y[lo:hi])
    for k in np.flatnonzero(~inside).tolist():
        if outside[k] or not disk.contains(_point(x, y, lo + k)):
            return lo + k
    return hi


def _mec_with_two(x: np.ndarray, y: np.ndarray, p: Point, q: Point) -> Disk:
    """The disk of the points (x, y) with p and q on its boundary, in array
    passes that give the disk of the per-point loop.

    The points outside the circle on pq come from _sure_sides, with
    Disk.contains deciding the uncertain ones. For each, cross, the
    circumcentre and ccross are the expressions of the per-point loop and
    circumcircle, elementwise, so they are the same floats. Twice the
    triangle's area is |cross|. _is_degenerate squares by pow, which can
    differ from a product by an ulp, so a triangle is flat or not by the
    array test only outside a relative margin of _MARGIN, and by
    _is_degenerate inside it. The loop keeps the first strict maximum of
    ccross among cross > 0 and the first strict minimum among cross < 0:
    argmax and argmin. Only those two circles are built, by circumcircle.
    """
    circ = _circle_two(p, q)
    inside, outside = _sure_sides(circ, x, y)
    unsure = np.flatnonzero(~(inside | outside))
    outside[unsure] = [not circ.contains(_point(x, y, k)) for k in unsure.tolist()]
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
    flat[unsure] = [_is_degenerate(Triangle(p, q, _point(x, y, k))) for k in idx[unsure].tolist()]
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
        return circumcircle(Triangle(p, q, _point(x, y, int(idx[k[best(ccross[k])]]))))

    # the smaller of the two side circles, the left one on a tie
    sides = [c for c in (circle(cross > 0.0, np.argmax), circle(cross < 0.0, np.argmin)) if c is not None]
    return min(sides, key=lambda c: c.radius) if sides else circ


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
# CSV input
# ---------------------------------------------------------------------------


def load_points_csv(path: str | Path) -> PointSet:
    """Read a point set from CSV: one `x,y` pair per line.

    Blank lines and lines starting with `#` are ignored. Decimal separator
    is the dot; the file must be UTF-8. Malformed lines, and coordinates
    that PointSet refuses, raise ValueError with the offending line number.
    """
    pairs: list[tuple[float, float]] = []
    linenos: list[int] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number in {raw!r}") from exc
        linenos.append(lineno)
    try:
        return PointSet.from_xy(pairs)
    except ValueError:
        k, why = _refusal(np.array(pairs))
        raise ValueError(f"{path}:{linenos[k]}: {why}") from None

