"""Frozenset oracles for pixel regions.

PixelRegion holds its cells as a sorted int64 array. These helpers answer
the same questions from a plain set of (i, j) tuples, by brute force, so
the tests can check the array code against them. `in` on an array tests
single coordinates, not cells, so membership goes through cell_set.
minkowski_difference is the one that returns a PixelRegion: it finds the
difference set by FFT correlation, for rasters too large for difference.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from isodiam.geometry import Point, convex_hull_indices
from isodiam.regions import PixelRegion
from isodiam.search import _NEIGHBORS


def cell_set(region) -> frozenset[tuple[int, int]]:
    """The region's cells as a set of (i, j) tuples."""
    return frozenset(map(tuple, region.cells.tolist()))


def json_dict(origin, h: float, cells: frozenset) -> dict:
    return {"origin": [origin.x, origin.y], "h": h, "cells": [list(c) for c in sorted(cells)]}


def measure(h: float, cells: frozenset) -> float:
    return len(cells) * h * h


def _xy(origin, h: float, grid) -> np.ndarray:
    return np.array(grid, dtype=np.float64).reshape(-1, 2) * h + [origin.x, origin.y]


def cell_centers(origin, h: float, cells: frozenset) -> np.ndarray:
    return _xy(origin, h, [(i + 0.5, j + 0.5) for i, j in sorted(cells)])


def region_diam(origin, h: float, cells: frozenset) -> float:
    """Largest distance between hull vertices of every cell corner."""
    corners = {(i + di, j + dj) for i, j in cells for di in (0, 1) for dj in (0, 1)}
    pts = _xy(origin, h, sorted(corners))
    pts = pts[convex_hull_indices(pts)]
    best = 0.0
    for k in range(len(pts) - 1):
        best = max(best, float(np.sum((pts[k + 1 :] - pts[k]) ** 2, axis=1).max()))
    return math.sqrt(best)


def difference(cells: frozenset) -> frozenset:
    return frozenset((i1 - i2, j1 - j2) for i1, j1 in cells for i2, j2 in cells)


def minkowski_difference(r: PixelRegion) -> PixelRegion:
    """Cell-index difference set {c1 - c2} at the same pitch, origin-anchored.

    This is the grid-level stand-in for the pointwise difference body
    S - S: its measure |diff| * h^2 tracks lambda_2(S - S) to within a
    boundary term. The support is found by correlating the indicator grid
    with itself, by numpy's real FFT at the full (2w - 1, 2v - 1) size, so
    nothing wraps around; counts are integers and the rounding error is far
    below one half, so thresholding at one half is exact.
    Symmetric under index negation by construction. The difference of an
    empty region is empty.
    """
    idx = r.cells
    if len(idx) == 0:
        return PixelRegion(origin=Point(0.0, 0.0), h=r.h, cells=idx)
    i_min, j_min = idx.min(axis=0)
    i_max, j_max = idx.max(axis=0)
    w = int(i_max - i_min) + 1
    v = int(j_max - j_min) + 1
    grid = np.zeros((w, v), dtype=np.float64)
    grid[idx[:, 0] - i_min, idx[:, 1] - j_min] = 1.0
    shape = (2 * w - 1, 2 * v - 1)
    spectrum = np.fft.rfft2(grid, shape) * np.fft.rfft2(grid[::-1, ::-1], shape)
    corr = np.fft.irfft2(spectrum, shape)
    di, dj = np.nonzero(corr > 0.5)
    cells = np.column_stack([di - (w - 1), dj - (v - 1)])
    cells.flags.writeable = False
    return PixelRegion(origin=Point(0.0, 0.0), h=r.h, cells=cells)


def corner_k(cells) -> np.ndarray:
    """Farthest-corner distance^2 / h^2 of every pair of cells, by trying
    all 16 corner pairs in integer index units."""
    idx = np.array(sorted(cells), dtype=np.int64).reshape(-1, 2)
    best = np.zeros((len(idx), len(idx)), dtype=np.int64)
    for a in itertools.product((0, 1), repeat=4):
        dx = (idx[:, None, 0] + a[0]) - (idx[None, :, 0] + a[1])
        dy = (idx[:, None, 1] + a[2]) - (idx[None, :, 1] + a[3])
        best = np.maximum(best, dx * dx + dy * dy)
    return best


def exact_far(k: np.ndarray, h: float) -> np.ndarray:
    """Which corner metrics put two cells' points more than 2 apart, in
    Fraction from the exact value of h."""
    far = [v for v in np.unique(k).tolist() if v * Fraction(h) ** 2 > 4]
    return np.isin(k, far)


def oracle_diam_ok(cells, h: float, delta: float) -> bool:
    return int(corner_k(cells).max()) * Fraction(h) ** 2 <= Fraction(delta) ** 2


def has_far_triple(cells, h: float) -> bool:
    """Whether three of the cells are pairwise far, over every triple."""
    far = exact_far(corner_k(cells), h).astype(np.int64)
    return bool(((far @ far) * far).any())


def oracle_diam3_ok(cells, h: float) -> bool:
    """No triple of boundary cells is pairwise far, over every triple."""
    boundary = [(i, j) for i, j in cells if any((i + di, j + dj) not in cells for di, dj in _NEIGHBORS)]
    far = exact_far(corner_k(boundary), h)
    return not any(far[a, b] and far[a, c] and far[b, c] for a, b, c in itertools.combinations(range(len(boundary)), 3))


def inner_raster_cells(circles, h: float) -> list[tuple[int, int]]:
    """The sorted cells, on the grid of pitch h anchored at the origin,
    with all four corners in one closed disk (cx, cy, r), one corner at a
    time in Fraction over each circle's bounding box."""
    H = Fraction(h)
    cells = set()
    for cx, cy, r in circles:
        cx, cy, r = Fraction(cx), Fraction(cy), Fraction(r)
        # squared offsets of the grid lines from the center
        dx2 = {i: (i * H - cx) ** 2 for i in range(math.floor((cx - r) / H), math.ceil((cx + r) / H) + 1)}
        dy2 = {j: (j * H - cy) ** 2 for j in range(math.floor((cy - r) / H), math.ceil((cy + r) / H) + 1)}
        rows, cols, r2 = list(dx2)[:-1], list(dy2)[:-1], r * r
        for i in rows:
            for j in cols:
                if all(dx2[i + a] + dy2[j + b] <= r2 for a in (0, 1) for b in (0, 1)):
                    cells.add((i, j))
    return sorted(cells)
