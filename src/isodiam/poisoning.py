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

Most bites are decided without computing their dose. A verdict grid
(_VerdictGrid) covers the reach of the poison at a pitch of about
_GRID_PITCH and marks each cell certainly lethal, certainly safe or
uncertain, from bounds that hold for every point of the cell under the
float arithmetic of _dose_at. A bite in a certain cell takes its cell's
verdict; only the few bites in cells the lethal boundary crosses get the
exact dose. The Monte Carlo reads most draws from a sampling table
(_SamplingTable) instead: its cells, indexed by the generator's raw
doubles, are those whose draws are all rejected or all accepted with one
certain grid verdict, so one table lookup decides acceptance and verdict
together, and only draws in the other cells are mapped to bite centers.
Every verdict is the one the dose would give, so hit counts and lethal
regions are those of scoring every bite.

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
    "KillReport",
    "validate_strategy",
    "is_lethal",
    "kill_probability",
    "lethal_region",
]

_BATCH = 1 << 17
_CHUNK = 8192  # pairs per sub-draw of a batch (see _batch_hits)
_PENDING = 2048  # _SLOW pairs gathered before they are scored (see _batch_hits)
_TABLE = 128  # cells per side of the sampling table (see _SamplingTable)
# Grams and lengths within _TOL of a limit count as at it: the strategy's
# total and placement in validate_strategy, the bite center in is_lethal,
# and the dose in _is_lethal_dose, so that k masses of 1/k g, which sum to
# 1 - 1e-16 for k = 6, kill like the 1 g they were validated as.
_TOL = 1e-9
# Pitch of the verdict grid, and the cap on its cells, border included:
# a reach box that would need more cells gets a coarser pitch.
_GRID_PITCH = 0.04
_GRID_CELLS = 1 << 14
_SAFE, _LETHAL, _UNSURE = 0, 1, 2  # verdicts of the grid's cells
_OUT, _SLOW, _IN_SAFE, _IN_LETHAL = 0, 1, 2, 3  # codes of the sampling table's cells


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

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()), encoding="utf-8")

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
        # as the sampling and the verdict grid compute them, stay finite
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


class _PatchRows:
    """A density patch's cells grouped by row, for counting the cells
    inside unit bites.

    Per occupied row i: its center x, and its cells as runs of consecutive
    columns j. Center y of every cell, sorted by (i, j), and y0, that of
    column 0. All sizes are
    O(cells), none follows the patch's bounding box, and the floats are
    those cell_centers() gives. Built once per call and read by every
    batch. A point costs O(rows + runs) work near the patch, against
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
            out += np.clip(j - first, 0.0, length)
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
        box [xa[k], xb[k]] x [ya[l], yb[l]], as two (len(xa), len(ya))
        float arrays: per row, the cells of the inner and of the outer
        range of ranks. xa and xb must be sorted.
        """
        in_min = np.zeros((xa.size, ya.size))
        in_max = np.zeros((xa.size, ya.size))
        ya, yb = ya - self.y0, yb - self.y0
        for r, cx, s in self._near_rows(xa, xb):
            far, near = _far_near(xa[s], xb[s], cx)
            a_out, a_in, b_in, b_out = self.ranks(r, (far * far)[:, None], (near * near)[:, None], ya, yb)
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


def is_lethal(strategy: PoisonStrategy, p: Point, config: PoisonConfig) -> bool:
    """Does the bite centered at p ingest at least the lethal dose?

    p must lie in the closed sampling disk of radius R - 1.
    """
    if math.hypot(p.x, p.y) > config.R - 1.0 + _TOL:
        raise ValueError(f"bite center ({p.x}, {p.y}) outside the disk of radius {config.R - 1}")
    dose = _dose_at(strategy, _patch_rows(strategy), np.array([p.x]), np.array([p.y]))
    return bool(_is_lethal_dose(dose, config)[0])


class _VerdictGrid:
    """Which bite centers certainly kill and which certainly do not, cell
    by cell, for one strategy and config.

    The grid covers the reach box of the poison (the masses' and patch
    cells' bounding box grown by 1 + 2 eps, clipped to the sampling
    square) with nx by ny cells of pitch p, plus a border of one cell on
    every side. A bite beyond the reach box is at distance > 1 + eps from
    all poison, so its dose is exactly 0, and the border cells hold the
    verdict of dose 0. Where the sampling square clips the box, the
    border beyond it is uncertain instead: no bite lands there, and
    lethal_region's raster reaches only one cell past the disk. p is
    _GRID_PITCH, doubled until the cells number at most _GRID_CELLS,
    whatever R is and however far apart the poison lies.

    Each interior cell is taken as its box grown by eps = _EPS times the
    coordinates' size, far more than the rounding of the index computed
    for a point, so every point looked up in a cell lies in its box. Over
    the box a mass certainly counts when its farthest corner is within
    1 - eps and may count when its nearest point is within 1 + eps, and
    eps dwarfs the rounding of the test dx*dx + dy*dy <= 1.0. The patch
    cells certainly and possibly inside come from the row runs, within the
    patch's own margin (_PatchRows.box_counts). Float + and * round
    monotonically, so the mass terms summed in mass order, plus per_cell
    times a count, bound the dose _dose_at gives at any point of the box:
    dose_min <= dose <= dose_max. The cell is lethal when dose_min passes
    the lethal test and safe when dose_max fails it.
    """

    def __init__(self, strategy: PoisonStrategy, config: PoisonConfig) -> None:
        self.strategy, self.config = strategy, config
        self.patch = patch = _patch_rows(strategy)
        px = [m.position.x for m in strategy.point_masses]
        py = [m.position.y for m in strategy.point_masses]
        if patch is not None:
            px += [float(patch.cx.min()), float(patch.cx.max())]
            py += [float(patch.cy.min()), float(patch.cy.max())]
        eps = _EPS * (2.0 + config.R + max(map(abs, px + py)))
        reach, edge = 1.0 + 2.0 * eps, config.R - 1.0 + eps
        lo_x, hi_x = min(px) - reach, max(px) + reach
        lo_y, hi_y = min(py) - reach, max(py) + reach
        clipped = (lo_x < -edge, hi_x > edge, lo_y < -edge, hi_y > edge)
        lo_x, hi_x, lo_y, hi_y = max(lo_x, -edge), min(hi_x, edge), max(lo_y, -edge), min(hi_y, edge)
        p = _GRID_PITCH

        def cells(lo: float, hi: float) -> int:
            return max(1, math.ceil((hi - lo) / p))

        while (cells(lo_x, hi_x) + 2) * (cells(lo_y, hi_y) + 2) > _GRID_CELLS:
            p *= 2.0
        nx, ny = cells(lo_x, hi_x), cells(lo_y, hi_y)
        # cell k of the padded grid covers [x0 + k p, x0 + (k + 1) p)
        self.pitch, self.nx, self.ny = p, nx, ny
        self.x0, self.y0, self.inv = lo_x - p, lo_y - p, 1.0 / p
        xa = lo_x + np.arange(nx) * p - eps
        xb = xa + (p + 2.0 * eps)
        ya = lo_y + np.arange(ny) * p - eps
        yb = ya + (p + 2.0 * eps)

        dose_min = np.zeros((nx, ny))
        dose_max = np.zeros((nx, ny))
        for m in strategy.point_masses:
            far_x, near_x = _far_near(xa, xb, m.position.x)
            far_y, near_y = _far_near(ya, yb, m.position.y)
            dose_min += m.grams * ((far_x * far_x)[:, None] + (far_y * far_y)[None, :] <= 1.0 - eps)
            dose_max += m.grams * ((near_x * near_x)[:, None] + (near_y * near_y)[None, :] <= 1.0 + eps)
        if patch is not None:
            in_min, in_max = patch.box_counts(xa, xb, ya, yb)
            dose_min += patch.per_cell * in_min
            dose_max += patch.per_cell * in_max
        dose_0 = _is_lethal_dose(np.zeros(1), config)[0]
        verdict = np.full((nx + 2, ny + 2), _LETHAL if dose_0 else _SAFE, dtype=np.uint8)
        for side, clip in zip((verdict[0], verdict[-1], verdict[:, 0], verdict[:, -1]), clipped):
            if clip:
                side[:] = _UNSURE
        inner = np.full((nx, ny), _UNSURE, dtype=np.uint8)
        inner[_is_lethal_dose(dose_min, config)] = _LETHAL
        inner[~_is_lethal_dose(dose_max, config)] = _SAFE
        verdict[1:-1, 1:-1] = inner
        self.verdict = verdict

    def index(self, t: np.ndarray, t0: float, n: int) -> np.ndarray:
        """The padded grid's cell index of each coordinate t, on the axis
        with origin t0 and n interior cells. It does not decrease as t
        grows."""
        return np.clip((t - t0) * self.inv, 0.0, n + 1.0).astype(np.intp)

    def lookup(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The verdict of the cell of each point, same shape as x."""
        ix = self.index(x, self.x0, self.nx)
        ix *= self.ny + 2
        ix += self.index(y, self.y0, self.ny)
        return self.verdict.take(ix)

    def exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which bites kill, from the exact dose at each point."""
        return _is_lethal_dose(_dose_at(self.strategy, self.patch, x, y), self.config)

    def bbox(self) -> tuple[float, float, float, float]:
        """The sampling square, which holds the lethal set."""
        radius = self.config.R - 1.0
        return (-radius, -radius, radius, radius)

    def contains_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Which points are lethal bite centers inside the sampling disk:
        the cell's verdict, and the exact one where it is uncertain."""
        radius = self.config.R - 1.0
        verdict = self.lookup(x, y)
        lethal = verdict == _LETHAL
        who = np.flatnonzero(verdict == _UNSURE)
        lethal.flat[who] = self.exact(x.flat[who], y.flat[who])
        return (x * x + y * y <= radius * radius) & lethal


def _box_sums(sat: np.ndarray, a0: np.ndarray, b0: np.ndarray, a1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Sums over the index boxes [a0[i], b0[i]) x [a1[j], b1[j]), as an
    array over (i, j), from summed-area counts: sat[k, l] sums the cells
    [0, k) x [0, l). The longer axis of sat is summed first, so no array
    outgrows len(a0) or len(a1) times its shorter axis."""
    if sat.shape[0] >= sat.shape[1]:
        part = sat[b0]
        part -= sat[a0]
        out = part[:, b1]
        out -= part[:, a1]
    else:
        part = sat[:, b1]
        part -= sat[:, a1]
        out = part[b0]
        out -= part[a0]
    return out


class _SamplingTable:
    """What becomes of the bite centers drawn in each cell of the sampling
    square, where that is certain: rejected, accepted and safe, or
    accepted and lethal. Built once per kill_probability call, with the
    buffers every batch draws into.

    A bite center is drawn as a pair of the generator's doubles u in
    [0, 1) and mapped to x = low + span * u, with low = -r, span = 2r and
    r = R - 1. That is Generator.uniform(-r, r), bit for bit: numpy
    computes low + (high - low) * u, and high - low = 2r is exact. Cell
    (i, j) of the table's _TABLE x _TABLE cells holds the pairs with
    floor(_TABLE * u) = (i, j); the product is exact, so casting it to an
    integer finds the cell. The map is monotone, so the centers drawn in
    a cell lie in the box between the images of the cell's corners, and
    the table grows that box by eps, _EPS times the coordinates' size.

    A cell is _OUT when every point of its box fails the disk test
    x*x + y*y <= r*r, and in when every point passes it: float * and +
    round monotonically, so the nearest and the farthest corner decide.
    An in cell is _IN_SAFE or _IN_LETHAL when every verdict-grid cell
    that lookup can return for a point of its box holds that verdict.
    lookup's index does not decrease along either axis, so those are the
    grid cells of one index rectangle, and summed-area counts of the
    cells that hold another verdict find them. Every other cell, on the
    disk's edge or without a certain verdict, is _SLOW: its pairs take the
    disk test, lookup and the exact dose as _batch_hits gives them.

    code[j, i] is the code of cell (i, j), so code.ravel() is indexed by
    i + 256 j: the little-endian uint16 that the uint8 pair (i, j) reads
    as.
    """

    def __init__(self, grid: _VerdictGrid) -> None:
        config = grid.config
        radius = config.R - 1.0
        self.grid, self.low, self.span, self.r2 = grid, -radius, 2.0 * radius, radius * radius
        edges = self.low + self.span * (np.arange(_TABLE + 1) / _TABLE)
        eps = _EPS * (2.0 + config.R)
        lo, hi = edges[:-1] - eps, edges[1:] + eps
        far, near = _far_near(lo, hi, 0.0)
        far, near = far * far, near * near
        # lookup returns the grid cells [ax, bx) x [ay, by) for the points of the boxes
        ax, bx = grid.index(lo, grid.x0, grid.nx), grid.index(hi, grid.x0, grid.nx) + 1
        ay, by = grid.index(lo, grid.y0, grid.ny), grid.index(hi, grid.y0, grid.ny) + 1
        inside = far[:, None] + far[None, :] <= self.r2
        self.code = np.full((_TABLE, 256), _SLOW, dtype=np.uint8)
        code = self.code[:, :_TABLE]
        for verdict, certain in ((_SAFE, _IN_SAFE), (_LETHAL, _IN_LETHAL)):
            sat = np.zeros((grid.nx + 3, grid.ny + 3), dtype=np.int32)
            sat[1:, 1:] = grid.verdict != verdict
            np.cumsum(sat, axis=0, out=sat)
            np.cumsum(sat, axis=1, out=sat)
            code[inside & (_box_sums(sat, ax, bx, ay, by).T == 0)] = certain
        code[near[:, None] + near[None, :] > self.r2] = _OUT
        self.draws = np.empty((_CHUNK, 2))
        self.cells = np.empty((_CHUNK, 2), dtype=np.uint8)


@dataclass(frozen=True)
class KillReport:
    estimate: float
    ci95: tuple[float, float]
    samples: int
    hits: int


def _batch_hits(table: _SamplingTable, batch_index: int, quota: int) -> int:
    """Accepted-sample hits for one seeded batch.

    Bite centers are drawn by rejection from the bounding square of the
    radius R - 1 disk until quota of them are accepted: the accepted stream
    is the first quota accepted pairs of the batch's generator, a
    deterministic function of (seed, batch_index).

    Pairs are drawn into the table's one buffer, at most _CHUNK at a time.
    PCG64 gives one double per 64-bit output and buffers none, so
    sub-draws of any sizes yield the generator's doubles in the same
    order. remaining counts the pairs still to accept, the pending _SLOW
    pairs among them, and a sub-draw holds at most remaining - pending
    pairs: every pair it accepts counts, whatever becomes of the pending
    ones, and no pair is drawn past the quota. The largest array a
    sub-draw allocates is the 64 KiB of take's intp indices, and none is
    sized by the batch.

    Each pair takes the code of its table cell: one take, then two counts
    for the pairs the cell decides. The _SLOW pairs are gathered; once
    _PENDING of them wait, or no pair may be drawn before they are scored,
    they are mapped to their bite centers and take the exact disk test
    and the verdict of their grid cell. Those the grid leaves uncertain
    are set aside and scored with the exact dose, _CHUNK points or fewer
    at a time, and once more at the end of the batch. The table's and the
    grid's verdicts are the exact dose's, so the hits are those of scoring
    every bite.
    """
    grid = table.grid
    rng = np.random.default_rng([grid.config.seed, batch_index])
    hits = 0
    remaining = quota
    slow: list[np.ndarray] = []
    pending = 0
    unsure_x: list[np.ndarray] = []
    unsure_y: list[np.ndarray] = []
    unsure = 0

    def flush() -> int:
        if not unsure_x:
            return 0
        lethal = grid.exact(np.concatenate(unsure_x), np.concatenate(unsure_y))
        unsure_x.clear()
        unsure_y.clear()
        return int(np.count_nonzero(lethal))

    while remaining > 0:
        size = min(_CHUNK, remaining - pending)
        if size > 0 and pending < _PENDING:
            draws, cells = table.draws[:size], table.cells[:size]
            rng.random(out=draws)
            np.multiply(draws, _TABLE, out=cells, casting="unsafe")
            code = table.code.take(cells.view("<u2").ravel())
            gathered = draws.compress(code == _SLOW, axis=0)
            slow.append(gathered)
            pending += len(gathered)
            hits += int(np.count_nonzero(code == _IN_LETHAL))
            # accepted: every pair not _OUT, less the _SLOW ones still pending
            remaining -= int(np.count_nonzero(code)) - len(gathered)
            continue
        xy = np.concatenate(slow)
        slow.clear()
        pending = 0
        xy *= table.span
        xy += table.low
        x, y = xy.T
        inside = x * x + y * y <= table.r2
        remaining -= int(np.count_nonzero(inside))
        verdict = grid.lookup(x, y)
        hits += int(np.count_nonzero(inside & (verdict == _LETHAL)))
        who = np.flatnonzero(inside & (verdict == _UNSURE))
        if who.size:
            if unsure + who.size > _CHUNK:
                hits += flush()
                unsure = 0
            unsure_x.append(x[who])
            unsure_y.append(y[who])
            unsure += who.size
    return hits + flush()


def kill_probability(strategy: PoisonStrategy, config: PoisonConfig) -> KillReport:
    """Seeded Monte Carlo estimate of the probability a random bite kills.

    Samples are split into fixed batches with independent per-batch seed
    streams, run in order; the merge is a plain hit count, so the estimate
    is identical for identical seeds. The interval is the
    normal-approximation 95% band.

    One verdict grid (_VerdictGrid) and the sampling table on it
    (_SamplingTable), built per call and read by every batch, decide most
    bites without their dose; the rest get the exact dose. Their verdicts
    are certified, and the draws, batches and seeds are those of scoring
    every bite, so the hits are too.
    """
    validate_strategy(strategy, config)
    n = config.samples
    table = _SamplingTable(_VerdictGrid(strategy, config))
    hits = sum(_batch_hits(table, k, min(_BATCH, n - start)) for k, start in enumerate(range(0, n, _BATCH)))
    p_hat = hits / n
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    ci = (max(0.0, p_hat - 1.96 * se), min(1.0, p_hat + 1.96 * se))
    return KillReport(estimate=p_hat, ci95=ci, samples=n, hits=hits)


def lethal_region(strategy: PoisonStrategy, config: PoisonConfig, h_grid: float) -> PixelRegion:
    """Center-sampled raster of the lethal bite-center set.

    A cell belongs to the region when its center lies in the sampling disk
    of radius R - 1 and the bite at the center is lethal, as the verdict
    grid decides. The grid is rasterize's, with its cap on the cell count.
    """
    validate_strategy(strategy, config)
    return rasterize(_VerdictGrid(strategy, config), h_grid)
