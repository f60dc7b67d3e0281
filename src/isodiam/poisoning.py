"""The poisoned-pie game: place h grams of poison in a pie of radius R,
someone eats a random unit-disk bite, one gram in the bite kills.

The bite center is uniform in the concentric disk of radius R - 1 (the
bite always stays inside the pie), the bite is the closed unit disk around
that center, and lethality is the closed inequality dose >= lethal_dose,
up to the tolerance _TOL that also governs validate_strategy.
Strategies mix point masses with an optional uniform density patch over a
pixel region; the density dose inside a bite is the patch's grams per cell
times the number of cell centers within distance 1 of the bite center.
Those cells are counted row by row, not tested one by one: in a row they
are the cells whose column lies in one range, and the ends of that range
follow from the bite's half-width at the row (see _PatchRows).

Most bites are decided without computing their dose. A verdict table
(_VerdictTable) cuts the sampling square into _TABLE x _TABLE cells and
marks each cell certainly lethal, certainly safe or uncertain, from
bounds that hold for every point of the cell under the float arithmetic
of _dose_at. It is built coarse to fine: the cells near the poison are
bounded 32 to a side first, and only the 8 x 8 children of the uncertain
ones again. The bounds are monotone in the box, so that gives the
verdicts of bounding every cell on its own. Each cell holds a share of
the sampling disk: its cell area where it lies inside, its exact area in
the disk on the rim. The Monte Carlo counts the bites in the cells of
certain verdict with one multinomial draw over those shares, and draws
points only in the uncertain cells, giving each the exact dose. Every
verdict is the one the dose would give, so hit counts follow the law of
scoring every bite, and lethal regions are those of the dose.

With a single gram to place, any lethal bite-center set has diameter at
most 2: two lethal centers more than 2 apart would need disjoint unit
bites each holding a full gram.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Point
from .regions import PixelRegion, _json_number, rasterize

__all__ = [
    "PointMass",
    "DensityPatch",
    "PoisonStrategy",
    "PoisonConfig",
    "DrawStats",
    "KillReport",
    "validate_strategy",
    "kill_probability",
    "lethal_region",
]

_BLOCK = 16384  # points drawn in unsure cells at most at a time (_unsure_hits)
_TABLE = 256  # cells per side of the verdict table
_COARSE = 32  # cells per side of the table's first, coarse bound; divides _TABLE
# Grams and lengths within _TOL of a limit count as at it: the strategy's
# total and placement in validate_strategy, and the dose in _is_lethal_dose,
# so that k masses of 1/k g, which sum to 1 - 1e-16 for k = 6, kill like
# the 1 g they were validated as.
_TOL = 1e-9
_SAFE, _LETHAL, _UNSURE = 0, 1, 2  # verdicts of the table's cells


@dataclass(frozen=True)
class PointMass:
    position: Point
    grams: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.grams) and self.grams > 0.0):
            raise ValueError(f"mass grams must be finite and > 0, got {self.grams}")


@dataclass(frozen=True)
class DensityPatch:
    """grams spread uniformly over a pixel region."""

    region: PixelRegion
    grams: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.grams) and self.grams > 0.0):
            raise ValueError(f"density grams must be finite and > 0, got {self.grams}")
        if self.region.is_empty():
            raise ValueError("density patch over an empty region")


@dataclass(frozen=True)
class PoisonStrategy:
    point_masses: tuple[PointMass, ...] = ()
    density: DensityPatch | None = None

    @property
    def total_grams(self) -> float:
        total = sum(m.grams for m in self.point_masses)
        if self.density is not None:
            total += self.density.grams
        return total

    def to_json_dict(self) -> dict:
        out: dict = {
            "masses": [[m.position.x, m.position.y, m.grams] for m in self.point_masses]
        }
        if self.density is not None:
            out["density"] = {
                "grams": self.density.grams,
                "region": self.density.region.to_json_dict(),
            }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PoisonStrategy":
        if not isinstance(data, dict):
            raise ValueError(f"malformed strategy JSON: expected an object, got {type(data).__name__}")
        try:
            masses = tuple(
                PointMass(position=Point(_json_number(x), _json_number(y)), grams=_json_number(g))
                for x, y, g in data.get("masses", [])
            )
            density = None
            if data.get("density") is not None:
                density = DensityPatch(
                    region=PixelRegion.from_json_dict(data["density"]["region"]),
                    grams=_json_number(data["density"]["grams"]),
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed strategy JSON: {exc}") from exc
        return cls(point_masses=masses, density=density)

    @classmethod
    def load(cls, path: str | Path) -> "PoisonStrategy":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class PoisonConfig:
    R: float
    h_available: float
    lethal_dose: float = 1.0
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 2.0):
            raise ValueError(f"pie radius must exceed 2, got {self.R}")
        # squared distances between points of the pie's bounding square,
        # as the sampling and the verdict table compute them, stay finite
        side = 2.0 * self.R
        if not math.isfinite(side * side + side * side):
            raise ValueError(f"pie radius {self.R} is too large: (2R)^2 + (2R)^2 overflows")
        if not (math.isfinite(self.lethal_dose) and self.lethal_dose > 0.0):
            raise ValueError(f"lethal dose must be > 0, got {self.lethal_dose}")
        if not (math.isfinite(self.h_available) and self.h_available >= self.lethal_dose):
            raise ValueError(
                f"available poison {self.h_available} must be at least the "
                f"lethal dose {self.lethal_dose}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def validate_strategy(strategy: PoisonStrategy, config: PoisonConfig) -> None:
    """All poison inside the closed pie, all of it placed: total grams must
    equal h_available to within _TOL."""
    for m in strategy.point_masses:
        if math.hypot(m.position.x, m.position.y) > config.R + _TOL:
            raise ValueError(
                f"mass at ({m.position.x}, {m.position.y}) lies outside the pie of radius {config.R}"
            )
    if strategy.density is not None:
        centers = strategy.density.region.cell_centers()
        if np.any(np.hypot(centers[:, 0], centers[:, 1]) > config.R + _TOL):
            raise ValueError("density patch extends outside the pie")
    if abs(strategy.total_grams - config.h_available) > _TOL:
        raise ValueError(
            f"strategy places {strategy.total_grams} grams, but h_available "
            f"is {config.h_available}; place all of it"
        )


# Margin in squared distance, per unit of coordinate size, that keeps the
# inner and outer cell ranges of _PatchRows.ranks clear of rounding.
_EPS = 1e-9


def _far_near(a: np.ndarray, b: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest |t - c| over t in [a[k], b[k]], for each k."""
    return np.maximum(np.abs(a - c), np.abs(b - c)), np.maximum(np.maximum(a - c, c - b), 0.0)


def _disk_areas(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray, r: float) -> np.ndarray:
    """Area of each rectangle [x0[k], x1[k]] x [y0[k], y1[k]] inside the
    disk of radius r about the origin, in closed form: the areas of the
    disk within the rectangles spanned by the origin and each corner,
    signed by the corner's quadrant and added with the signs of inclusion
    and exclusion. Rounding leaves a few ulps of r^2, never a negative
    area. Heights sqrt((r - s)(r + s)) and angles by atan2 keep the digits
    that arcsin(s / r) loses within ulps of the circle (up to 1e-9 r^2)."""
    x, y = np.stack([x1, x0, x1, x0]), np.stack([y1, y1, y0, y0])
    a, b = np.minimum(np.abs(x), r), np.minimum(np.abs(y), r)
    # the columns [0, u] of the corner's rectangle hold its full height b, the
    # columns [u, a] the disk's, h at u = a or at the circle's point (u, b)
    ha, hb = np.sqrt((r - a) * (r + a)), np.sqrt((r - b) * (r + b))
    t, h = np.stack([a, np.where(hb < a, hb, a)]), np.stack([ha, np.where(hb < a, b, ha)])
    arc = 0.5 * (t * h + r * r * np.arctan2(t, h))
    q = np.sign(x) * np.sign(y) * (b * t[1] + arc[0] - arc[1])
    return np.maximum(q[0] - q[1] - q[2] + q[3], 0.0)


def _disk_runs(sq: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """For each j, the int16 run [start, stop) of the i with sq[i] + sq[j] <= r2,
    for sq that falls, then rises with i: a float sum does not fall as one term
    grows, so those i hold the k smallest sq. k is read off r2 - sq[j], then
    moved past rounding to the exact boundary. An empty run is [0, 0)."""
    order = np.argsort(sq, kind="stable")
    s = np.concatenate([[-np.inf], sq[order], [np.inf]])  # s[k]: the k-th smallest
    k = np.searchsorted(s, r2 - sq, "right") - 1
    while (step := (s[k + 1] + sq <= r2).astype(np.intp) - (s[k] + sq > r2)).any():
        k += step
    first, last = np.minimum.accumulate(order), np.maximum.accumulate(order)
    return np.append(0, first)[k].astype(np.int16), np.append(0, last + 1)[k].astype(np.int16)


class _PatchRows:
    """A density patch's cells grouped by row, for counting the cells
    inside unit bites.

    Per occupied row i: its center x, and its cells as runs of consecutive
    columns j. Center y of every cell, sorted by (i, j), and y0, that of
    column 0. All sizes are
    O(cells), none follows the patch's bounding box, and the floats are
    those cell_centers() gives. Built once per call and read by every
    block. A point costs O(rows + runs) work near the patch, against
    O(cells) for testing every cell. eps, _EPS times the coordinates'
    size, exceeds the rounding of the test dx*dx + dy*dy <= 1.0 and of the
    column bounds by a factor of about a million.
    """

    def __init__(self, patch: DensityPatch) -> None:
        region = patch.region
        centers = region.cell_centers()
        self.starts = region.row_starts
        self.runs: list[list[tuple[int, int]]] = []
        for lo, hi in zip(self.starts[:-1], self.starts[1:]):
            cols = region.cells[lo:hi, 1]
            breaks = np.flatnonzero(np.diff(cols) != 1) + 1
            firsts = cols[np.concatenate([[0], breaks])]
            lengths = np.diff(np.concatenate([[0], breaks, [len(cols)]]))
            self.runs.append(list(zip(firsts.tolist(), lengths.tolist())))
        self.cx = centers[self.starts[:-1], 0]
        self.cy = centers[:, 1]
        self.h = region.h
        self.y0 = region.origin.y + 0.5 * region.h
        self.per_cell = patch.grams / len(region.cells)
        scale = 2.0 + float(np.abs(centers).max()) + abs(region.origin.x) + abs(region.origin.y)
        self.eps = _EPS * scale

    def _rank(self, r: int, j: np.ndarray) -> np.ndarray:
        """Number of cells of row r whose column is below j, for integral
        float j (infinities included)."""
        out = np.zeros(j.shape)
        for first, length in self.runs[r]:
            d = j - first
            np.maximum(d, 0.0, out=d)
            np.minimum(d, length, out=d)
            out += d
        return out

    def _near_rows(self, xa: np.ndarray, xb: np.ndarray):
        """Each row r, with its x, that some box [xa[k], xb[k]] comes within
        1 + eps of in x, and the slice s of those boxes. xa and xb must be
        sorted."""
        reach = 1.0 + self.eps
        for r, cx in enumerate(self.cx.tolist()):
            s = slice(int(np.searchsorted(xb, cx - reach)), int(np.searchsorted(xa, cx + reach, "right")))
            if s.start < s.stop:
                yield r, cx, s

    def ranks(
        self, r: int, far2: np.ndarray, near2: np.ndarray, ya: np.ndarray, yb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Positions a_out <= a_in <= b_in <= b_out among row r's cells, as
        floats, for boxes whose squared x offsets from the row lie in
        [near2, far2] and whose y edges, less y0, are ya <= yb. The arrays
        broadcast; a point is a box with near2 = far2 and ya = yb.

        Every point of a box passes the test dx*dx + dy*dy <= 1.0 on the
        cells of [a_in, b_in) and fails it on the cells outside
        [a_out, b_out). The inner range takes the columns within half-width
        sqrt(1 - eps - far2) of both y edges, the outer one those within
        sqrt(1 + eps - near2) of either: the columns within w of y run from
        ceil to floor of (y -+ w) / h, and the row's runs turn them into
        positions among its cells. Where 1 - eps - far2 < 0 the inner range
        is empty, at a_out.
        """
        h, eps = self.h, self.eps
        rest_in = 1.0 - eps - far2
        w_out = np.sqrt(np.maximum(1.0 + eps - near2, 0.0))
        w_in = np.sqrt(np.maximum(rest_in, 0.0))
        a_out = self._rank(r, np.ceil((ya - w_out) / h))
        b_out = self._rank(r, np.floor((yb + w_out) / h) + 1.0)
        a_in = self._rank(r, np.ceil((yb - w_in) / h))
        b_in = np.maximum(a_in, self._rank(r, np.floor((ya + w_in) / h) + 1.0))
        thin = rest_in < 0.0
        np.copyto(a_in, a_out, where=thin)
        np.copyto(b_in, a_out, where=thin)
        return a_out, a_in, b_in, b_out

    def box_counts(
        self, xa: np.ndarray, xb: np.ndarray, ya: np.ndarray, yb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds lo <= counts(x, y) <= hi for every point (x, y) of each
        box [xa[k], xb[k]] x [ya[k], yb[k]], as two float arrays: per row,
        the cells of the inner and of the outer range of ranks. The four
        arrays are parallel, and xa and xb must be sorted.
        """
        in_min = np.zeros(xa.size)
        in_max = np.zeros(xa.size)
        ya, yb = ya - self.y0, yb - self.y0
        for r, cx, s in self._near_rows(xa, xb):
            far, near = _far_near(xa[s], xb[s], cx)
            a_out, a_in, b_in, b_out = self.ranks(r, far * far, near * near, ya[s], yb[s])
            in_min[s] += b_in - a_in
            in_max[s] += b_out - a_out
        return in_min, in_max

    def counts(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Number of cell centers (cx, cy) with (x - cx)^2 + (y - cy)^2 <= 1
        for each point of the flat arrays xs, ys.

        The count is that of testing every cell with this expression. Per
        row, the cells of the inner range of ranks are counted without
        testing, and the few between the inner and the outer range are
        tested with the expression itself, on the same floats. Points are
        sorted by x, so each row reads the one slice of points within reach
        of it.
        """
        order = np.argsort(xs, kind="stable")
        xs, ys = xs[order], ys[order]
        yc = ys - self.y0
        counts = np.zeros(xs.size)
        for r, cx, s in self._near_rows(xs, xs):
            dx = xs[s] - cx
            dx2, y = dx * dx, ys[s]
            a_out, a_in, b_in, b_out = self.ranks(r, dx2, dx2, yc[s], yc[s])
            row = b_in - a_in
            for lo, hi in ((a_out, a_in), (b_in, b_out)):
                who = np.flatnonzero(lo < hi)
                pos = lo[who].astype(np.int64) + self.starts[r]
                end = hi[who].astype(np.int64) + self.starts[r]
                while who.size:
                    ddy = y[who] - self.cy[pos]
                    row[who] += dx2[who] + ddy * ddy <= 1.0
                    pos += 1
                    keep = pos < end
                    who, pos, end = who[keep], pos[keep], end[keep]
            counts[s] += row
        out = np.empty(xs.size, dtype=np.int64)
        out[order] = counts
        return out


def _patch_rows(strategy: PoisonStrategy) -> _PatchRows | None:
    return None if strategy.density is None else _PatchRows(strategy.density)


def _dose_at(
    strategy: PoisonStrategy, patch: _PatchRows | None, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Poison dose inside the closed unit bite around each (x, y).

    patch is _patch_rows(strategy), built once by the caller. The density
    part counts, per patch row, the cells certainly inside the bite without
    testing them, and tests the cells between that range and the outer one
    with the original dx*dx + dy*dy <= 1.0 on the floats of cell_centers(),
    so the count is exactly that of testing every cell (_PatchRows.counts).
    """
    dose = np.zeros(xs.shape, dtype=np.float64)
    for m in strategy.point_masses:
        hit = (xs - m.position.x) ** 2 + (ys - m.position.y) ** 2 <= 1.0
        dose += m.grams * hit
    if patch is not None:
        dose += patch.per_cell * patch.counts(xs.ravel(), ys.ravel()).reshape(xs.shape)
    return dose


def _is_lethal_dose(dose: np.ndarray, config: PoisonConfig) -> np.ndarray:
    """Which doses kill: at least the lethal dose, up to _TOL."""
    return dose >= config.lethal_dose - _TOL


class _VerdictTable:
    """What becomes of the bite centers in each cell of the sampling
    square, for one strategy and config: which certainly kill, which
    certainly do not, and, for the Monte Carlo, which lie in the sampling
    disk and which only meet it. kill_probability and lethal_region share
    one table per strategy and config (_verdict_table).

    The square [-r, r]^2, r = R - 1, is cut into _TABLE x _TABLE cells,
    cell (i, j) spanning [e[i], e[i + 1]] x [e[j], e[j + 1]] with the
    edges e[k] = low + span * (k / _TABLE), low = -r and span = 2r. Each
    cell is taken as that box grown by eps = _EPS times the coordinates'
    size. The Monte Carlo draws an unsure cell (i, j) and an offset pair v in
    [0, 1)^2, and maps them to low + (span / _TABLE) * ((i, j) + v). The
    division by _TABLE, a power of 2, is exact, so that is e[i] at v = 0;
    i + v rounds into [i, i + 1] and the map is monotone, so the center
    lies in [e[i], e[i + 1]] x [e[j], e[j + 1]], the cell's box
    (_unsure_hits). lethal_region's raster points find their cell by index:
    floor((x - low) * _TABLE / span), clamped to the table. It does not decrease as x grows, and its
    rounding moves x by a few ulps of r, far less than eps, so a point
    whose index is k lies in cell k's grown box. A clamped point that lies
    outside the grown box of its edge cell is more than eps outside the
    square, and eps dwarfs the rounding of x*x, so it fails the disk test
    x*x + y*y <= r*r.

    Verdicts. A cell whose box stays more than 1 + 2 eps from all poison
    in x or in y holds bites of dose exactly 0, and takes that dose's
    verdict. Every other cell, in the near-poison block, is bounded as a
    box (_verdicts): a mass certainly counts when the box's farthest
    corner is within 1 - eps and may count when its nearest point is
    within 1 + eps, and eps dwarfs the rounding of the test
    dx*dx + dy*dy <= 1.0. The patch cells certainly and possibly inside
    come from the row runs, within the patch's own margin
    (_PatchRows.box_counts). Float + and * round monotonically, so the
    mass terms summed in mass order, plus per_cell times a count, bound
    the dose _dose_at gives at any point of the box: dose_min <= dose <=
    dose_max. The box is _LETHAL when dose_min passes the lethal test,
    _SAFE when dose_max fails it, and _UNSURE otherwise.

    Coarse to fine. The near-poison block is bounded first at _COARSE
    cells a side. With s = _TABLE / _COARSE, coarse cell k spans the
    grown edges e[s k] - eps to e[s k + s] + eps: the union of the grown
    boxes of its s x s children, the table cells it covers. A child's box
    lies in its parent's, and every step of the bound is monotone in the
    box: the corner distances and their squares and sums, sqrt, the
    column bounds and the ranks of the row runs, and the dose's sums and
    products. A patch row out of a child's reach is more than 1 + eps
    from the child, so from the parent too, and adds no cell to the
    parent's lower count. So a child's dose_min is at least its parent's
    and its dose_max at most, and a certain coarse verdict is the one the
    child gets bounded on its own. Only the children in the block of the
    uncertain coarse cells are bounded again, one box per table cell: the
    table is that of bounding every cell of the block at _TABLE a side,
    cell for cell, from a fraction of the boxes.

    Strata. A cell is in when the farthest corner of its grown box passes
    the disk test, so that its whole box lies in the disk, and it meets the
    disk when the nearest corner passes it. in_lethal and in_safe count the
    in cells with a certain verdict; each holds 4 / (_TABLE^2 pi) of the
    disk. Every other cell that meets the disk, a rim cell or an uncertain
    one, holds its box's area in the disk over pi r^2, in closed form
    (_disk_areas). lethal_share adds up the lethal cells' shares and
    unsure_share the uncertain cells', so an empty stratum has share 0;
    both are clipped so that they add up to at most 1. unsure holds the
    uncertain cells that meet the disk, by their index i + _TABLE j into
    verdict.ravel(): verdict holds cell (i, j) at [j, i] of a
    (_TABLE, _TABLE) array.
    """

    def __init__(self, strategy: PoisonStrategy, config: PoisonConfig) -> None:
        self.strategy, self.config = strategy, config
        self.patch = patch = _patch_rows(strategy)
        radius = config.R - 1.0
        self.low, self.span, self.r2 = -radius, 2.0 * radius, radius * radius
        self.inv = _TABLE / self.span
        px = [m.position.x for m in strategy.point_masses]
        py = [m.position.y for m in strategy.point_masses]
        if patch is not None:
            px += [float(patch.cx.min()), float(patch.cx.max())]
            py += [float(patch.cy.min()), float(patch.cy.max())]
        self.eps = eps = _EPS * (2.0 + config.R + max(map(abs, px + py)))
        edges = self.low + self.span * (np.arange(_TABLE + 1) / _TABLE)
        lo, hi = edges[:-1] - eps, edges[1:] + eps

        # the cells [ia, ib) x [ja, jb) come within 1 + 2 eps of the poison
        reach = 1.0 + 2.0 * eps
        ia, ib = np.searchsorted(hi, min(px) - reach), np.searchsorted(lo, max(px) + reach, "right")
        ja, jb = np.searchsorted(hi, min(py) - reach), np.searchsorted(lo, max(py) + reach, "right")
        dose_0 = _is_lethal_dose(np.zeros(1), config)[0]
        self.verdict = np.full((_TABLE, _TABLE), _LETHAL if dose_0 else _SAFE, dtype=np.uint8)
        verdict = self.verdict.T  # cell (i, j) at [i, j]

        # the coarse cells over the block, i-major so that their x edges
        # are sorted; each verdict is copied to its step x step children
        step = _TABLE // _COARSE
        ci = np.arange(ia // step, -(-ib // step)) * step
        cj = np.arange(ja // step, -(-jb // step)) * step
        ii, jj = np.divmod(np.arange(ci.size * cj.size), cj.size)
        coarse = self._verdicts((lo[ci], hi[ci + step - 1]), (lo[cj], hi[cj + step - 1]), ii, jj)
        fine = coarse.reshape(ci.size, cj.size).repeat(step, axis=0).repeat(step, axis=1)
        i0, j0 = ia // step * step, ja // step * step
        near_poison = verdict[ia:ib, ja:jb]
        near_poison[:] = fine[ia - i0 : ib - i0, ja - j0 : jb - j0]
        # children of the uncertain coarse cells, bounded one table cell each
        i, j = np.nonzero(near_poison == _UNSURE)
        i += ia
        j += ja
        verdict[i, j] = self._verdicts((lo, hi), (lo, hi), i, j)

        # the cells [in_a, in_b) of row j lie in the disk, and [a, b) meet it
        far, near = _far_near(lo, hi, 0.0)
        (in_a, in_b), (a, b) = _disk_runs(far * far, self.r2), _disk_runs(near * near, self.r2)
        cols = np.arange(_TABLE, dtype=np.int16)
        certain = (cols >= in_a[:, None]) & (cols < in_b[:, None]) & (self.verdict != _UNSURE)
        self.in_lethal = int(np.count_nonzero(certain & (self.verdict == _LETHAL)))
        self.in_safe = int(np.count_nonzero(certain)) - self.in_lethal
        other = np.flatnonzero((cols >= a[:, None]) & (cols < b[:, None]) & ~certain)
        j, i = np.divmod(other, _TABLE)
        share = _disk_areas(edges[i], edges[i + 1], edges[j], edges[j + 1], radius) / (math.pi * self.r2)
        kind = self.verdict.ravel()[other]
        self.unsure = other[kind == _UNSURE]
        lethal = self.in_lethal * (4.0 / (_TABLE * _TABLE * math.pi)) + float(share[kind == _LETHAL].sum())
        self.lethal_share = min(lethal, 1.0)
        self.unsure_share = min(float(share[kind == _UNSURE].sum()), 1.0 - self.lethal_share)

    def _verdicts(self, cols: tuple, rows: tuple, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The verdict of each box [xa[i[k]], xb[i[k]]] x [ya[j[k]], yb[j[k]]],
        with (xa, xb) = cols and (ya, yb) = rows, from bounds on the dose at
        every point of it. Each mass's terms are computed once per column
        and per row. xa, xb and i must be sorted."""
        eps, config = self.eps, self.config
        dose_min = np.zeros(i.size)
        dose_max = np.zeros(i.size)
        for m in self.strategy.point_masses:
            far_x, near_x = _far_near(*cols, m.position.x)
            far_y, near_y = _far_near(*rows, m.position.y)
            dose_min += m.grams * ((far_x * far_x)[i] + (far_y * far_y)[j] <= 1.0 - eps)
            dose_max += m.grams * ((near_x * near_x)[i] + (near_y * near_y)[j] <= 1.0 + eps)
        if self.patch is not None:
            in_min, in_max = self.patch.box_counts(cols[0][i], cols[1][i], rows[0][j], rows[1][j])
            dose_min += self.patch.per_cell * in_min
            dose_max += self.patch.per_cell * in_max
        verdict = np.full(i.size, _UNSURE, dtype=np.uint8)
        verdict[_is_lethal_dose(dose_min, config)] = _LETHAL
        verdict[~_is_lethal_dose(dose_max, config)] = _SAFE
        return verdict

    def index(self, t: np.ndarray) -> np.ndarray:
        """The table's cell index of each coordinate t, clamped to the
        table. It does not decrease as t grows."""
        k = (t - self.low) * self.inv
        np.maximum(k, 0.0, out=k)
        np.minimum(k, _TABLE - 1.0, out=k)
        return k.astype(np.intp)

    def exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which bites kill, from the exact dose at each point."""
        return _is_lethal_dose(_dose_at(self.strategy, self.patch, x, y), self.config)

    def bbox(self) -> tuple[float, float, float, float]:
        """The sampling square, which holds the lethal set."""
        return (self.low, self.low, -self.low, -self.low)

    def contains_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which points are lethal bite centers inside the sampling disk:
        the cell's verdict, and the exact one where it is uncertain."""
        inside = x * x + y * y <= self.r2
        cell = self.index(y)
        cell *= _TABLE
        cell += self.index(x)
        verdict = self.verdict.take(cell)
        lethal = verdict == _LETHAL
        who = np.flatnonzero(inside & (verdict == _UNSURE))
        lethal.flat[who] = self.exact(x.flat[who], y.flat[who])
        return inside & lethal


# The table of the last strategy and config it was built for: a poison run
# asks kill_probability and lethal_region about the same pair.
_last_table: _VerdictTable | None = None


def _verdict_table(strategy: PoisonStrategy, config: PoisonConfig) -> _VerdictTable:
    global _last_table
    if _last_table is None or _last_table.strategy is not strategy or _last_table.config != config:
        _last_table = _VerdictTable(strategy, config)
    return _last_table


@dataclass(frozen=True)
class DrawStats:
    """The work of a Monte Carlo run (kill_probability): the bites counted
    in cells of certain verdict, in the disk or on its rim; the points
    drawn in unsure cells up to the last needed bite; and the bites given
    the exact dose, all the others (samples - bites_decided)."""

    bites_decided: int
    points_drawn: int
    bites_exact_dose: int


@dataclass(frozen=True)
class KillReport:
    estimate: float
    ci95: tuple[float, float]
    samples: int
    hits: int
    stats: DrawStats


def _unsure_hits(
    table: _VerdictTable, cells: np.random.Generator, offsets: np.random.Generator, quota: int
) -> tuple[int, int]:
    """Hits of quota bites uniform on the unsure cells' part of the disk,
    and the points drawn up to the last of them.

    A point is an unsure cell (i, j) from cells.integers and an offset pair
    v from offsets.random, at low + (span / _TABLE) * ((i, j) + v). Points
    failing the disk test are redrawn; the rest get the exact dose, a
    block of at most _BLOCK points at a time. Points past the quota-th
    accepted one are dropped, and integers and random draws split across
    calls equal one whole call (PCG64 keeps its unused half word), so no
    result depends on the block sizes.
    """
    step = table.span / _TABLE
    hits = drawn = 0
    remaining = quota
    while remaining > 0:
        size = min(_BLOCK, 2 * remaining)
        j, i = np.divmod(table.unsure[cells.integers(table.unsure.size, size=size)], _TABLE)
        v = offsets.random((size, 2))
        x = table.low + step * (i + v[:, 0])
        y = table.low + step * (j + v[:, 1])
        accepted = np.flatnonzero(x * x + y * y <= table.r2)[:remaining]
        drawn += accepted[-1] + 1 if accepted.size == remaining else size
        remaining -= accepted.size
        hits += np.count_nonzero(table.exact(x[accepted], y[accepted]))
    return int(hits), int(drawn)


def kill_probability(strategy: PoisonStrategy, config: PoisonConfig) -> KillReport:
    """Seeded Monte Carlo estimate of the probability a random bite kills.

    Each cell of the verdict table holds its share of the disk
    (_VerdictTable), so one multinomial draw counts the bites in the
    lethal cells, in the unsure ones and, the rest, in the safe ones. Only
    the unsure cells' bites get points (_unsure_hits). So hits follow the
    law of n uniform bites scored with the exact dose. SeedSequence(seed)
    spawns the two PCG64 streams, so identical seeds give identical
    results. The interval is the normal-approximation 95% band; stats
    counts the work.
    """
    validate_strategy(strategy, config)
    n = config.samples
    table = _verdict_table(strategy, config)
    cells, offsets = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    shares = [table.lethal_share, table.unsure_share]
    lethal, quota, safe = cells.multinomial(n, [*shares, 1.0 - shares[0] - shares[1]]).tolist()
    hits, drawn = _unsure_hits(table, cells, offsets, quota)
    hits += lethal
    p_hat = hits / n
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    ci = (max(0.0, p_hat - 1.96 * se), min(1.0, p_hat + 1.96 * se))
    return KillReport(estimate=p_hat, ci95=ci, samples=n, hits=hits, stats=DrawStats(lethal + safe, drawn, quota))


def lethal_region(strategy: PoisonStrategy, config: PoisonConfig, h_grid: float) -> PixelRegion:
    """Center-sampled raster of the lethal bite-center set.

    A cell belongs to the region when its center lies in the sampling disk
    of radius R - 1 and the bite at the center is lethal, as the verdict
    table decides: the same table as kill_probability's on the same
    strategy and config. The grid is rasterize's, with its cap on the
    cell count.
    """
    validate_strategy(strategy, config)
    return rasterize(_verdict_table(strategy, config), h_grid)
