"""Exact planar primitives: points, disks, disk unions, enclosing circles.

Everything in this module is a pure function over immutable values.
Coordinates are float64 throughout and all tolerances are documented at the
definition site. A PointSet checks its coordinates once, when it is built:
each must be finite, and each nonzero one must lie in the coordinate window
[2^-250, 2^250], so the array scans over it need no fallback. Each
PointSet computes its convex hull and its enclosing circle once;
min_enclosing_circle runs Welzl's construction on the hull's vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Point",
    "PointSet",
    "Disk",
    "DiskUnion",
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
# circumcircle and the array scans of diameters.diam3 may rely on it.
_WINDOW = (2.0**-250, 2.0**250)


@dataclass(frozen=True)
class Point:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
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
class Disk:
    """A closed disk with center and nonnegative radius: the circle that
    min_enclosing_circle and circumcircle return."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"disk radius must be finite and >= 0, got {self.radius}")

    def contains(self, p: Point) -> bool:
        """Closed containment with multiplicative slack on the radius."""
        return distance(self.center, p) <= self.radius * _CONTAINS_EPS


class PointSet:
    """An ordered, immutable collection of points, held as one read-only
    (n, 2) float64 array. Duplicates are retained.

    Order matters for witness reporting: subset scans enumerate indices in
    the order points were supplied. Every coordinate is checked once, here:
    a coordinate that is not finite, or nonzero with a magnitude outside
    the coordinate window [2^-250, 2^250], raises ValueError.
    """

    __slots__ = ("_xy", "_hull", "_disk")

    def __init__(self, pairs: Iterable[tuple[float, float]] | np.ndarray):
        """The set of (x, y) pairs, or of the rows of an (n, 2) array."""
        self._xy = _checked(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        self._hull: np.ndarray | None = None
        self._disk: Disk | None = None

    def to_array(self) -> np.ndarray:
        """Coordinates as a read-only (n, 2) float64 array."""
        return self._xy

    def hull(self) -> np.ndarray:
        """Indices of the convex hull's vertices (convex_hull_indices) as a
        read-only array, computed on the first call: the set cannot change,
        so diam, diam3, triameter and min_enclosing_circle share one hull."""
        if self._hull is None:
            hull = np.array(convex_hull_indices(self._xy), dtype=np.intp)
            hull.flags.writeable = False
            self._hull = hull
        return self._hull

    def enclosing_circle(self) -> Disk:
        """min_enclosing_circle of the set, computed on the first call, so
        diam3's prune and the jung report share one Welzl run."""
        if self._disk is None:
            self._disk = min_enclosing_circle(self)
        return self._disk

    def __len__(self) -> int:
        return len(self._xy)

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


def _is_degenerate(a: Point, b: Point, c: Point) -> bool:
    longest_sq = max(
        (a.x - b.x) ** 2 + (a.y - b.y) ** 2,
        (b.x - c.x) ** 2 + (b.y - c.y) ** 2,
        (c.x - a.x) ** 2 + (c.y - a.y) ** 2,
    )
    if longest_sq == 0.0:  # all three vertices coincide
        return True
    twice_area = abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y))
    return twice_area < DEGENERACY_REL_TOL * longest_sq


def circumcircle(a: Point, b: Point, c: Point) -> Disk | None:
    """Circle through the three points, or None for a degenerate triangle.

    Degeneracy rule: twice the area below DEGENERACY_REL_TOL times the squared
    longest side. The center is computed from the perpendicular-bisector
    linear system after translating a to the origin, which keeps the
    arithmetic well scaled for distant triangles.
    """
    if _is_degenerate(a, b, c):
        return None
    ax, ay = a.x, a.y
    bx, by = b.x - ax, b.y - ay
    cx, cy = c.x - ax, c.y - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(ax + ux, ay + uy)
    radius = max(distance(center, a), distance(center, b), distance(center, c))
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

    Welzl's incremental construction, in expected linear time, on the
    vertices of the set's cached hull (PointSet.hull): the smallest disk
    that holds the hull vertices holds their convex hull. A point the hull
    drops lies inside it, or on one of its edges up to the rounding of the
    hull's cross products, a few ulps of the set's diameter. That is far
    below the relative slack of 1e-14 on the radius that Disk.contains
    allows, so the disk contains every point of s. The vertices are
    shuffled with a fixed-seed generator, so results are deterministic for
    identical inputs while adversarial orderings are still defeated.
    Raises ValueError on an empty set.
    """
    pts = [Point(x, y) for x, y in s.to_array()[s.hull()].tolist()]
    if not pts:
        raise ValueError("min_enclosing_circle of an empty point set")
    random.Random(0x1D0D1A).shuffle(pts)
    disk = Disk(pts[0], 0.0)
    for i, p in enumerate(pts):
        if not disk.contains(p):
            disk = _mec_with_one(pts[: i + 1], p)
    return disk


def _mec_with_one(pts: Sequence[Point], p: Point) -> Disk:
    """The smallest disk of pts with p, the last of them, on its boundary."""
    disk = Disk(p, 0.0)
    for i, q in enumerate(pts):
        if not disk.contains(q):
            disk = _circle_two(p, q) if disk.radius == 0.0 else _mec_with_two(pts[: i + 1], p, q)
    return disk


def _mec_with_two(pts: Sequence[Point], p: Point, q: Point) -> Disk:
    """The smallest disk of pts with p and q on its boundary: the circle on
    pq, or the smaller of the two circumcircles through p, q and a point
    outside it whose centres lie farthest to the left and to the right of
    pq (the left one on a tie)."""
    circ = _circle_two(p, q)
    px, py = p.x, p.y
    dx, dy = q.x - px, q.y - py
    left: tuple[float, Disk] | None = None
    right: tuple[float, Disk] | None = None
    for r in pts:
        if circ.contains(r):
            continue
        c = circumcircle(p, q, r)
        if c is None:
            continue
        cross = dx * (r.y - py) - dy * (r.x - px)
        ccross = dx * (c.center.y - py) - dy * (c.center.x - px)
        if cross > 0.0 and (left is None or ccross > left[0]):
            left = (ccross, c)
        elif cross < 0.0 and (right is None or ccross < right[0]):
            right = (ccross, c)
    sides = [side[1] for side in (left, right) if side is not None]
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
    # each chain keeps its first and last points, so the hull has two or
    # more: collinear points give the two extremes
    return lower[:-1] + upper[:-1]


def hull_diameter(pts: np.ndarray) -> float:
    """Largest pairwise distance of a point set, given the (m, 2) float64
    array of its convex hull vertices; 0.0 for fewer than two.

    The largest distance is attained at hull vertices, so only their pairs
    are compared, on squared distances, with one square root at the end.
    """
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = float(np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1).max())
        if d2 > best:
            best = d2
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


# Bytes that a file parsed in bulk by load_points_csv holds only as its
# separators are those kept here: the ASCII controls, among them every line
# break but "\n", the comma, DEL and every byte of a non-ASCII character.
_CSV_FIELD_BYTES = bytes(b for b in range(32, 127) if b != ord(","))


def load_points_csv(path: str | Path) -> PointSet:
    """Read a point set from CSV: one `x,y` pair per line.

    Blank lines and lines starting with `#` are ignored. Decimal separator
    is the dot; the file must be UTF-8. Malformed lines, and coordinates
    that PointSet refuses, raise ValueError with the offending line number.

    A file of `x,y` lines and nothing else, as save_points_csv writes it,
    is parsed in bulk (_bulk_pairs); any other file, or one whose bulk
    parse fails, is read line by line (_csv_lines), which gives the same
    values and raises the errors.
    """
    text = Path(path).read_text(encoding="utf-8")
    xy = _bulk_pairs(text)
    if xy is not None:
        try:
            return PointSet(xy)
        except ValueError:
            pass
    return _csv_lines(path, text)


def _bulk_pairs(text: str) -> np.ndarray | None:
    """The (n, 2) array of text's `x,y` lines, or None where text is not
    lines of exactly one comma each, ended by "\n" (the last end optional)
    and holding no other control character or non-ASCII character, or
    where a field is not a float.

    One bytes.translate keeps the separators: they must alternate "," and
    "\n". Then every line holds one comma, and "\n" is its only line
    break, so it is a line of the loop, and its fields are the loop's up
    to the whitespace that float ignores. A blank line breaks the
    alternation, and a `#` line, like every other malformed field, fails
    float.
    """
    ended = text.endswith("\n")
    data = text.encode() if ended else (text + "\n").encode()
    if data.translate(None, _CSV_FIELD_BYTES) != b",\n" * data.count(b"\n"):
        return None
    body = text[:-1] if ended else text
    try:
        values = np.fromiter(map(float, body.replace("\n", ",").split(",")), np.float64)
    except ValueError:
        return None
    return values.reshape(-1, 2)


def _csv_lines(path: str | Path, text: str) -> PointSet:
    """load_points_csv's line loop over the file's text."""
    pairs: list[tuple[float, float]] = []
    linenos: list[int] = []
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
        return PointSet(pairs)
    except ValueError:
        k, why = _refusal(np.array(pairs))
        raise ValueError(f"{path}:{linenos[k]}: {why}") from None

