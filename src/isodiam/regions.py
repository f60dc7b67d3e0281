"""Pixel regions, analytic shapes, and circle-restricted arc sets.

A PixelRegion is a finite set of grid cells of pitch h anchored at an
origin: cell (i, j) covers [ox + i*h, ox + (i+1)*h] x [oy + j*h, oy + (j+1)*h].
Rasterization uses center sampling (a cell belongs to the raster of a shape
exactly when its center lies in the shape), so the measure |cells| * h^2
carries an O(h) error proportional to the shape's perimeter. The inner
raster of a union of disks keeps exactly the cells that fit in one disk,
so it lies inside the shape.

ArcSet models a subset of the circle of radius r as disjoint half-open
angular intervals, normalized to [0, 2*pi) with wraparound split at zero.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diameters
from .bounds import CIRCLE_LEMMA_MIN_RADIUS, TWO_PI
from .geometry import Disk, DiskUnion, Point, PointSet, convex_hull_indices, hull_diameter

__all__ = [
    "PixelRegion",
    "Disk",
    "TwoDisksUnion",
    "DisjointDisks",
    "rasterize",
    "inner_raster",
    "lens_area",
    "u_delta_shape",
    "u_delta_measure",
    "region_diam",
    "region_diam3_sampled",
    "ArcSet",
    "ArcCheckResult",
    "arc_measure",
    "arc_tab_check",
]

# ---------------------------------------------------------------------------
# Analytic shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoDisksUnion(DiskUnion):
    """Union of two unit disks with centers (±d/2, 0).

    For 0 <= d < 2 the disks overlap and the area is 2*pi minus the lens;
    for d >= 2 they are disjoint (tangent at d = 2) with area 2*pi. The
    diameter is d + 2. With d = delta - 2 this is the candidate U_delta
    for the window 4/sqrt(3) < delta < 4.
    """

    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ValueError(f"center distance must be finite and >= 0, got {self.d}")

    @property
    def area(self) -> float:
        if self.d >= 2.0:
            return TWO_PI
        return TWO_PI - lens_area(self.d)

    @property
    def diameter(self) -> float:
        return self.d + 2.0

    @property
    def circles(self) -> tuple[tuple[float, float, float], ...]:
        half = self.d / 2.0
        return ((-half, 0.0, 1.0), (half, 0.0, 1.0))


@dataclass(frozen=True)
class DisjointDisks(DiskUnion):
    """count unit disks with centers spaced `spacing` apart on the x axis.

    spacing must exceed 4 so that all pairwise center distances exceed 4,
    the configuration realizing the T(a,2) extremal measure (a-1)*pi with
    count = a - 1 disks.
    """

    count: int
    spacing: float

    def __post_init__(self) -> None:
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError(f"count must be a positive integer, got {self.count}")
        if not (math.isfinite(self.spacing) and self.spacing > 4.0):
            raise ValueError(f"spacing must exceed 4, got {self.spacing}")

    @property
    def area(self) -> float:
        return self.count * math.pi

    @property
    def diameter(self) -> float:
        return (self.count - 1) * self.spacing + 2.0

    @property
    def circles(self) -> tuple[tuple[float, float, float], ...]:
        return tuple((k * self.spacing, 0.0, 1.0) for k in range(self.count))


# ---------------------------------------------------------------------------
# Pixel regions
# ---------------------------------------------------------------------------


def _json_number(value) -> float:
    """A JSON number as a float: float() would also take strings and bools."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class PixelRegion:
    """Immutable set of grid cells of pitch h anchored at origin: cells is a
    read-only (n, 2) int64 array of distinct (i, j), sorted by i, then j.
    The constructor sorts and deduplicates an array or iterable of pairs."""

    origin: Point
    h: float
    cells: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"pitch h must be finite and > 0, got {self.h}")
        cells = self.cells
        if not isinstance(cells, np.ndarray):
            # an empty list would make a float array of shape (0,)
            cells = np.array(list(cells) or np.empty((0, 2), dtype=np.int64))
        # a cast would truncate 0.5 to 0, a reshape re-pair triples' entries
        if cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu" or cells.dtype == np.uint64:
            raise ValueError(f"cells must be (n, 2) integer pairs, got shape {cells.shape} of {cells.dtype}")
        # an int64 array that owns its data and is read-only is already
        # frozen for its holder, as rasterize hands its cells over; any
        # other array is copied, so a caller's array stays theirs
        flags = cells.flags
        if not (cells.dtype == np.int64 and flags.c_contiguous and flags.owndata and not flags.writeable):
            cells = cells.astype(np.int64)
        i, j = cells[:, 0], cells[:, 1]
        # cells from a row-order grid scan come sorted and skip the sort
        if not np.all((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))):
            cells = cells[np.lexsort((j, i))]
            cells = cells[np.concatenate([[True], (cells[1:] != cells[:-1]).any(axis=1)])]
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PixelRegion):
            return NotImplemented
        return (self.origin, self.h) == (other.origin, other.h) and np.array_equal(self.cells, other.cells)

    @property
    def measure(self) -> float:
        return len(self.cells) * self.h * self.h

    def is_empty(self) -> bool:
        return len(self.cells) == 0

    def _xy(self, grid: np.ndarray) -> np.ndarray:
        """(n, 2) float64 coordinates of points given in cell units: grid
        corner (i, j), or center (i + 0.5, j + 0.5) of cell (i, j). Every
        corner and center is placed by this one expression, so a point is
        the same float wherever it is computed."""
        return grid.astype(np.float64) * self.h + [self.origin.x, self.origin.y]

    @property
    def row_starts(self) -> np.ndarray:
        """Index in cells of each row's first cell, then len(cells): row k's
        block of the sorted cells is cells[starts[k]:starts[k + 1]]."""
        i = self.cells[:, 0]
        return np.append(np.flatnonzero(np.diff(i, prepend=i[:1] - 1)), len(i))

    def cell_centers(self) -> np.ndarray:
        return self._xy(self.cells + 0.5)

    def corner_points(self) -> np.ndarray:
        """Unique cell corners as an (m, 2) float64 array."""
        idx = self.cells
        return self._xy(np.unique(np.concatenate([idx, idx + [1, 0], idx + [0, 1], idx + [1, 1]]), axis=0))

    def to_json_dict(self) -> dict:
        return {"origin": [self.origin.x, self.origin.y], "h": self.h, "cells": self.cells.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PixelRegion":
        try:
            ox, oy = (_json_number(v) for v in data["origin"])
            h = _json_number(data["h"])
            cells = data["cells"]
            # bool is an int subtype, and JSON true is no index
            if not all(type(i) is int and type(j) is int for i, j in cells):
                raise ValueError("cell indices must be integers")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed region JSON: {exc}") from exc
        return cls(origin=Point(ox, oy), h=h, cells=cells)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PixelRegion":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# Cap on the grid rasterize lays over a shape's bounding box: 5,000 x 5,000
# cells. It bounds the work; scanning the grid in bands of about
# _RASTER_BAND centers bounds the memory.
_MAX_RASTER_CELLS = 25_000_000
_RASTER_BAND = 1 << 18


def _grid_index(rounding, q: float) -> int | float:
    """rounding(q), or an infinite q, from a pitch so fine that an extent
    over it overflows, left infinite for _check_raster_cells to refuse."""
    return rounding(q) if math.isfinite(q) else q


def _check_raster_cells(what: str, size: int | float) -> None:
    """MemoryError for a grid of more than _MAX_RASTER_CELLS cells."""
    if size > _MAX_RASTER_CELLS:
        raise MemoryError(f"{what} {size} cells, more than the cap of {_MAX_RASTER_CELLS}")


def rasterize(shape, h: float, origin: Point = Point(0.0, 0.0)) -> PixelRegion:
    """Center-sampled raster of a shape on the grid of pitch h.

    A cell is included exactly when its center lies in the (closed) shape.
    Any object with bbox() and contains_xy(x, y) serves as the shape. The
    grid is scanned in bands of whole rows, so the cells come out sorted;
    one of more than _MAX_RASTER_CELLS cells raises MemoryError first.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"pitch h must be finite and > 0, got {h}")
    xmin, ymin, xmax, ymax = shape.bbox()
    i_lo = _grid_index(math.floor, (xmin - origin.x) / h) - 1
    i_hi = _grid_index(math.ceil, (xmax - origin.x) / h) + 1
    j_lo = _grid_index(math.floor, (ymin - origin.y) / h) - 1
    j_hi = _grid_index(math.ceil, (ymax - origin.y) / h) + 1
    _check_raster_cells(f"a raster of pitch {h} needs", (i_hi - i_lo + 1) * (j_hi - j_lo + 1))
    ii = np.arange(i_lo, i_hi + 1, dtype=np.int64)
    jj = np.arange(j_lo, j_hi + 1, dtype=np.int64)
    cx = origin.x + (ii + 0.5) * h
    cy = origin.y + (jj + 0.5) * h
    rows = max(1, _RASTER_BAND // len(jj))
    cells = []
    for lo in range(0, len(ii), rows):
        gx, gy = np.meshgrid(cx[lo : lo + rows], cy, indexing="ij")
        sel_i, sel_j = np.nonzero(shape.contains_xy(gx, gy))
        cells.append(np.column_stack([ii[lo + sel_i], jj[sel_j]]))
    # the last band's grids and selections go before the bands are joined,
    # and the band pieces before PixelRegion takes the join
    del gx, gy, sel_i, sel_j
    cells = np.concatenate(cells)
    cells.flags.writeable = False
    return PixelRegion(origin=origin, h=h, cells=cells)


def inner_raster(shape: DiskUnion, h: float) -> PixelRegion:
    """The cells of pitch h, anchored at the origin, whose four corners lie
    in one closed disk of shape.circles, decided in integers.

    Every float is a dyadic rational, so scaling h and each circle's
    center and radius by the lcm of their denominators gives integers H,
    CX, CY and R. The cells of row i span x in [i*H, (i+1)*H], and their
    farthest corners from the center take the end farther from CX, at x
    offset X <= R. Cell j then fits iff its farther end in y lies within
    s = isqrt(R^2 - X^2) of CY: CY - s <= j*H and (j+1)*H <= CY + s.
    Like rasterize, it raises MemoryError when the bounding box spans more
    cells than the raster cap.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"pitch h must be finite and > 0, got {h}")
    xmin, ymin, xmax, ymax = shape.bbox()
    size = (_grid_index(math.ceil, (xmax - xmin) / h) + 2) * (_grid_index(math.ceil, (ymax - ymin) / h) + 2)
    _check_raster_cells(f"an inner raster of pitch {h} spans", size)
    ratios = [v.as_integer_ratio() for v in (h, *(v for circle in shape.circles for v in circle))]
    scale = math.lcm(*(d for _, d in ratios))
    H, *scaled = (n * (scale // d) for n, d in ratios)
    spans = []
    for k in range(0, len(scaled), 3):
        CX, CY, R = scaled[k : k + 3]
        # the rows whose x span lies in [CX - R, CX + R]
        for i in range(-((R - CX) // H), (CX + R) // H):
            X = max(abs(i * H - CX), abs((i + 1) * H - CX))
            s = math.isqrt(R * R - X * X)
            spans.append((i, -((s - CY) // H), (CY + s) // H))
    rows, lo, hi = np.array(spans, dtype=np.int64).reshape(-1, 3).T
    counts = np.maximum(hi - lo, 0)
    # a row's k-th cell has j = lo + k
    firsts = np.cumsum(counts) - counts
    cells = np.column_stack([np.repeat(rows, counts), np.arange(counts.sum()) + np.repeat(lo - firsts, counts)])
    return PixelRegion(origin=Point(0.0, 0.0), h=h, cells=cells)


def lens_area(d: float) -> float:
    """Area of the intersection of two unit disks with centers d apart.

    2*acos(d/2) - (d/2)*sqrt(4 - d^2) for 0 <= d <= 2; pi at d = 0, zero
    at d = 2.
    """
    if not (math.isfinite(d) and 0.0 <= d <= 2.0):
        raise ValueError(f"lens needs center distance in [0, 2], got {d}")
    return 2.0 * math.acos(d / 2.0) - (d / 2.0) * math.sqrt(4.0 - d * d)


def u_delta_shape(delta: float) -> TwoDisksUnion:
    """The two-unit-disk union of diameter delta, for 2 < delta < 4."""
    if not (math.isfinite(delta) and 2.0 < delta < 4.0):
        raise ValueError(f"u_delta needs 2 < delta < 4, got {delta}")
    return TwoDisksUnion(delta - 2.0)


def u_delta_measure(delta: float) -> float:
    """Measure 2*pi - lens_area(delta - 2) of the candidate U_delta."""
    return u_delta_shape(delta).area


def _row_extreme_corners(r: PixelRegion) -> np.ndarray:
    """Outer corners of each row's min-j and max-j cells, the ends of its
    block of the sorted cells. Raises ValueError on an empty region.

    Every hull vertex of the corner set is among these at most 4 * rows
    points: it is the lowest or highest corner on its vertical grid line,
    and those belong to the extreme cells of the rows on either side.
    """
    if r.is_empty():
        raise ValueError("diameter of an empty region")
    starts = r.row_starts
    first, last = r.cells[starts[:-1]], r.cells[starts[1:] - 1]
    return r._xy(np.concatenate([first, first + [1, 0], last + [0, 1], last + [1, 1]]))


def region_diam(r: PixelRegion) -> float:
    """Exact diameter of the union of closed cells.

    The diameter of a union of axis-aligned squares is attained at cell
    corners, so it is the largest pairwise distance among hull vertices of
    the corner set, which the rows' extreme corners hold. Raises
    ValueError on an empty region.
    """
    return hull_diameter(_row_extreme_corners(r))


def _corner_hull(r: PixelRegion) -> np.ndarray:
    """Hull vertices of the cell corners, in convex_hull_indices order,
    found among the rows' extreme corners."""
    corners = _row_extreme_corners(r)
    return corners[convex_hull_indices(corners)]


def region_diam3_sampled(r: PixelRegion) -> float:
    """Sampled lower bound for the region's diam3.

    Evaluates diam3 on 2000 seeded-uniform cell centers (with replacement,
    seed 0) plus every convex hull vertex of the cell corners. A lower
    bound only: thin features between samples can hide a larger value.
    """
    if r.is_empty():
        raise ValueError("diam3 of an empty region")
    centers = r.cell_centers()
    take = np.random.default_rng(0).integers(0, len(centers), size=2000)
    pts = np.concatenate([centers[take], _corner_hull(r)], axis=0)
    return diameters.diam3(PointSet.from_xy(pts))


# ---------------------------------------------------------------------------
# Arc sets on a circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcSet:
    """Disjoint half-open arcs [t1, t2) on the circle of radius r.

    Stored normalized: starts in [0, 2*pi), ends in (start, 2*pi], sorted,
    overlaps merged, wraparound split at zero. Construct via from_intervals
    unless the input is already normalized.
    """

    r: float
    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"circle radius must be > 0, got {self.r}")
        prev_end = -1.0
        for t1, t2 in self.arcs:
            if not (math.isfinite(t1) and math.isfinite(t2)):
                raise ValueError("arc endpoints must be finite")
            if not (0.0 <= t1 < t2 <= TWO_PI):
                raise ValueError(f"arc [{t1}, {t2}) is not normalized to [0, 2*pi)")
            if t1 < prev_end:
                raise ValueError("arcs overlap or are out of order")
            prev_end = t2

    @classmethod
    def from_intervals(cls, r: float, intervals: Sequence[Sequence[float]]) -> "ArcSet":
        """Normalize arbitrary [t1, t2) intervals.

        Each interval sweeps counterclockwise from t1 to t2 and must have
        width in (0, 2*pi]; intervals crossing zero are split. Overlapping
        input arcs are merged. Zero-width intervals are rejected.
        """
        pieces: list[tuple[float, float]] = []
        for entry in intervals:
            if len(entry) != 2:
                raise ValueError(f"arc entry must be a pair, got {entry!r}")
            t1, t2 = float(entry[0]), float(entry[1])
            if not (math.isfinite(t1) and math.isfinite(t2)):
                raise ValueError("arc endpoints must be finite")
            width = t2 - t1
            if not (0.0 < width <= TWO_PI):
                raise ValueError(f"arc [{t1}, {t2}) must have width in (0, 2*pi]")
            start = math.fmod(t1, TWO_PI)
            if start < 0.0:
                start += TWO_PI
            end = start + width
            if end <= TWO_PI:
                pieces.append((start, end))
            else:
                pieces.append((start, TWO_PI))
                pieces.append((0.0, end - TWO_PI))
        pieces.sort()
        merged: list[tuple[float, float]] = []
        for t1, t2 in pieces:
            if merged and t1 <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], t2))
            else:
                merged.append((t1, t2))
        return cls(r=r, arcs=tuple(merged))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "arcs": [[t1, t2] for t1, t2 in self.arcs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArcSet":
        try:
            r = _json_number(data["r"])
            intervals = [(_json_number(t1), _json_number(t2)) for t1, t2 in data["arcs"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed arc JSON: {exc}") from exc
        try:
            # already-normalized data loads verbatim, keeping round trips
            # bit exact
            return cls(r=r, arcs=tuple(intervals))
        except ValueError:
            return cls.from_intervals(r, intervals)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ArcSet":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def arc_measure(arcs: ArcSet) -> float:
    """One-dimensional measure r * (total angular width)."""
    return arcs.r * sum(t2 - t1 for t1, t2 in arcs.arcs)


@dataclass(frozen=True)
class ArcCheckResult:
    holds: bool
    witness: tuple[float, float, float] | None = None


def arc_tab_check(arcs: ArcSet) -> ArcCheckResult:
    """Exact T(3,2) check on an arc set: are three of its points pairwise
    at chord distance beyond 2?

    A chord exceeds 2 exactly when the circular gap exceeds
    theta* = 2*asin(1/r). The gaps are strict, so three angles of the
    half-open arcs with all three gaps > theta* exist iff the largest
    smallest gap over the closed arcs exceeds theta*. With the first angle
    x0 fixed, the best others are greedy infima: the first arc point beyond
    x0 + theta*, then beyond that plus theta*. As x0 rises inside its arc
    the third gap shrinks only where x0, or a greedy angle moving with it,
    passes an arc end e, so it suffices to let x0 rise to each e,
    e - theta* and e - 2*theta* (left limits) on the arcs unrolled over
    three turns: O(m log m) in m arcs.

    Each candidate names three arcs, and t is the largest margin by which
    every gap can exceed theta* with every angle that far inside its arc
    (a closed form over the ten cycles of the constraint graph). The
    witness, from the candidate with the largest t, is the least solution
    at margin t/2. A violation is reported only with a witness that lies
    in the half-open arcs and passes the gap and chord tests in floating
    point, so one that exists only within rounding (t near 1e-15, as when
    the largest smallest gap ties theta*) reports holds. Needs
    r > 2/sqrt(3): below that no triple can violate.
    """
    if arcs.r <= CIRCLE_LEMMA_MIN_RADIUS:
        raise ValueError(f"arc check needs r > 2/sqrt(3), got r={arcs.r}")
    if not arcs.arcs:
        return ArcCheckResult(holds=True)
    theta = 2.0 * math.asin(1.0 / arcs.r)
    base = np.array(arcs.arcs, dtype=np.float64)
    m = len(base)
    # three turns: x1 lies at most one turn past x0's arc end e0 and x2
    # below e0 + 2*pi + theta, so every index below stays in range
    starts = np.concatenate([base[:, 0] + TWO_PI * c for c in range(3)])
    ends = np.concatenate([base[:, 1] + TWO_PI * c for c in range(3)])

    # x0 rises to p in (0, 2*pi] inside a closed arc [s, e] with s < p
    p = np.concatenate([base[:, 1], base[:, 1] - theta, base[:, 1] - 2.0 * theta])
    p = np.where(p <= 0.0, p + TWO_PI, p)
    k0 = np.searchsorted(ends[:m], p, side="left")
    inside = (k0 < m) & (starts[np.minimum(k0, m - 1)] < p)
    p, k0 = p[inside], k0[inside]
    # x1 tends to x0 + theta from below inside its arc (sliding), or sits
    # at the start of the first arc beyond it
    a1 = p + theta
    k1 = np.searchsorted(ends, a1, side="left")
    sliding = starts[k1] < a1
    # a sliding x1 drags x2 along; a fixed x1 leaves x2 the first arc
    # point strictly beyond x1 + theta
    a2 = np.maximum(a1, starts[k1]) + theta
    k2 = np.where(sliding, np.searchsorted(ends, a2, side="left"), np.searchsorted(ends, a2, side="right"))

    k = (k0, k1, k2)
    lo = [starts[ki] for ki in k]
    hi = [ends[ki] for ki in k]
    t = np.full(len(p), (TWO_PI - 3.0 * theta) / 3.0)
    for i in range(3):
        t = np.minimum(t, (hi[i] - lo[i]) / 2.0)
        for steps in (1, 2):
            j = (i + steps) % 3
            turn = TWO_PI if i + steps >= 3 else 0.0
            t = np.minimum(t, (hi[j] + turn - lo[i] - steps * theta) / (steps + 2))
    best = int(np.argmax(t))
    if t[best] <= 0.0:
        return ArcCheckResult(holds=True)

    u = float(t[best]) / 2.0
    x = [float(bound[best]) + u for bound in lo]
    for j in (1, 2, 0, 1):
        turn = TWO_PI if j == 0 else 0.0
        x[j] = max(x[j], x[j - 1] + theta + u - turn)
    a, b, c = sorted(x[i] - TWO_PI * (int(k[i][best]) // m) for i in range(3))
    if not _is_witness(arcs, (a, b, c), theta):
        return ArcCheckResult(holds=True)
    return ArcCheckResult(holds=False, witness=(a, b, c))


def _is_witness(arcs: ArcSet, angles: tuple[float, float, float], theta: float) -> bool:
    """Whether sorted angles lie in the half-open arcs with all three
    circular gaps above theta and every chord beyond 2."""
    a, b, c = angles
    for angle in angles:
        slot = bisect.bisect_right(arcs.arcs, angle, key=lambda arc: arc[0]) - 1
        if slot < 0 or angle >= arcs.arcs[slot][1]:
            return False
    if min(b - a, c - b, TWO_PI - (c - a)) <= theta:
        return False
    return all(2.0 * arcs.r * abs(math.sin((s - t) / 2.0)) > 2.0 for s, t in ((a, b), (b, c), (a, c)))
