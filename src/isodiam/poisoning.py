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

With a single gram to place, any lethal bite-center set has diameter at
most 2: two lethal centers more than 2 apart would need disjoint unit
bites each holding a full gram.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Point
from .regions import PixelRegion, rasterize

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
_CHUNK = 8192  # pairs per sub-draw of a rejection round (see _batch_hits)
# Grams and lengths within _TOL of a limit count as at it: the strategy's
# total and placement in validate_strategy, the bite center in is_lethal,
# and the dose in _is_lethal_dose, so that k masses of 1/k g, which sum to
# 1 - 1e-16 for k = 6, kill like the 1 g they were validated as.
_TOL = 1e-9


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
        try:
            masses = tuple(
                PointMass(position=Point(float(x), float(y)), grams=float(g))
                for x, y, g in data.get("masses", [])
            )
            density = None
            if data.get("density") is not None:
                density = DensityPatch(
                    region=PixelRegion.from_json_dict(data["density"]["region"]),
                    grams=float(data["density"]["grams"]),
                )
        except (KeyError, TypeError, ValueError) as exc:
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
# inner and outer cell ranges of _PatchRows.counts clear of rounding.
_EPS = 1e-9


class _PatchRows:
    """A density patch's cells grouped by row, for counting the cells
    inside unit bites.

    Per occupied row i: its center x, and its cells as runs of consecutive
    columns j. Center y of every cell, sorted by (i, j). All sizes are
    O(cells), none follows the patch's bounding box, and the floats are
    those cell_centers() gives. Read-only once built, so one table serves
    every batch and thread of a call. A point costs O(rows + runs) work
    near the patch, against O(cells) for testing every cell.
    """

    def __init__(self, patch: DensityPatch) -> None:
        region = patch.region
        idx = region.cell_index_array()
        centers = region.cell_centers()
        new_row = np.flatnonzero(np.diff(idx[:, 0])) + 1
        self.starts = np.concatenate([[0], new_row, [len(idx)]])
        self.runs: list[list[tuple[int, int]]] = []
        for lo, hi in zip(self.starts[:-1], self.starts[1:]):
            cols = idx[lo:hi, 1]
            breaks = np.flatnonzero(np.diff(cols) != 1) + 1
            firsts = cols[np.concatenate([[0], breaks])]
            lengths = np.diff(np.concatenate([[0], breaks, [len(cols)]]))
            self.runs.append(list(zip(firsts.tolist(), lengths.tolist())))
        self.cx = centers[self.starts[:-1], 0]
        self.cy = centers[:, 1]
        self.h = region.h
        self.y0 = region.origin.y + 0.5 * region.h
        self.per_cell = patch.grams / len(idx)
        scale = 2.0 + float(np.abs(centers).max()) + abs(region.origin.x) + abs(region.origin.y)
        self.eps = _EPS * scale

    def _rank(self, r: int, j: np.ndarray) -> np.ndarray:
        """Number of cells of row r whose column is below j, for integral
        float j (infinities included)."""
        out = np.zeros(j.shape)
        for first, length in self.runs[r]:
            out += np.clip(j - first, 0.0, length)
        return out

    def counts(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Number of cell centers (cx, cy) with (x - cx)^2 + (y - cy)^2 <= 1
        for each point of the flat arrays xs, ys.

        The count is that of testing every cell with this expression. In a
        row at x offset dx = x - cx the test holds where dy^2 <= rest =
        1 - dx^2. Cells with |y - cy| <= sqrt(rest - eps) pass it with room
        to spare, and cells with |y - cy| > sqrt(rest + eps) fail it: eps
        grows with the coordinates' size and exceeds the rounding of the
        test and of the column bounds by a factor of about a million. The
        columns of a range run from ceil to floor of (y - oy -+ half-width)
        / h - 1/2, and the row's runs turn them into positions among the
        row's cells. The inner range is
        counted without testing. The few cells between the inner and outer
        ranges are tested with the expression itself, on the same floats.
        Where rest < eps the inner range is not trusted, and the whole
        outer range is tested once. Points are sorted by x, so each row
        reads the one slice of points within reach of it.
        """
        order = np.argsort(xs, kind="stable")
        xs, ys = xs[order], ys[order]
        yc = ys - self.y0
        counts = np.zeros(xs.size)
        h, eps = self.h, self.eps
        reach = 1.0 + eps  # points farther in x than this miss the whole row
        for r, cx in enumerate(self.cx.tolist()):
            s0 = int(np.searchsorted(xs, cx - reach, "left"))
            s1 = int(np.searchsorted(xs, cx + reach, "right"))
            if s0 == s1:
                continue
            dx = xs[s0:s1] - cx
            rest = 1.0 - dx * dx
            w_in = np.sqrt(np.maximum(rest - eps, 0.0))
            w_out = np.sqrt(np.maximum(rest + eps, 0.0))
            yr = yc[s0:s1]
            a_out = self._rank(r, np.ceil((yr - w_out) / h))
            b_out = self._rank(r, np.floor((yr + w_out) / h) + 1.0)
            a_in = self._rank(r, np.ceil((yr - w_in) / h))
            b_in = self._rank(r, np.floor((yr + w_in) / h) + 1.0)
            thin = np.flatnonzero(rest < eps)
            a_in[thin] = b_in[thin] = a_out[thin]
            row = b_in - a_in
            y = ys[s0:s1]
            for lo, hi in ((a_out, a_in), (b_in, b_out)):
                who = np.flatnonzero(lo < hi)
                pos = lo[who].astype(np.int64) + self.starts[r]
                end = hi[who].astype(np.int64) + self.starts[r]
                while who.size:
                    ddx = dx[who]
                    ddy = y[who] - self.cy[pos]
                    row[who] += ddx * ddx + ddy * ddy <= 1.0
                    pos += 1
                    keep = pos < end
                    who, pos, end = who[keep], pos[keep], end[keep]
            counts[s0:s1] += row
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
    part counts, per patch row, the cells certainly inside the bite (half-
    width sqrt(1 - dx^2 - eps)) without testing them, and tests the cells
    between that range and the outer one (half-width sqrt(1 - dx^2 + eps))
    with the original dx*dx + dy*dy <= 1.0 on the floats of cell_centers().
    eps, 1e-9 times the coordinates' size, dwarfs every rounding, so the
    count is exactly that of testing every cell (_PatchRows.counts).
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


@dataclass(frozen=True)
class KillReport:
    estimate: float
    ci95: tuple[float, float]
    samples: int
    hits: int


def _batch_hits(
    strategy: PoisonStrategy, patch: _PatchRows | None, config: PoisonConfig, batch_index: int, quota: int
) -> int:
    """Accepted-sample hits for one seeded batch.

    Bite centers are drawn by rejection from the bounding square of the
    radius R - 1 disk; each round draws enough pairs to meet the rest of
    the quota most of the time, and rounds repeat until it is met, so the
    accepted stream is a deterministic function of (seed, batch_index).

    A round is drawn and scored in sub-draws of _CHUNK pairs. PCG64 gives
    one double per 64-bit output and buffers none, so the sub-draws of a
    round yield the round's doubles in the same order, and the accepted
    points are the same prefix in the same order. Draws left in a round
    once the quota is met are discarded, as is the generator. _CHUNK pairs
    keep every temporary at 128 KiB at most, glibc's default mmap
    threshold: it stays in cache, and malloc reuses heap memory for it,
    where the 1-3 MB arrays of a whole round get fresh pages mapped and
    unmapped on every batch.
    """
    rng = np.random.default_rng([config.seed, batch_index])
    radius = config.R - 1.0
    hits = 0
    remaining = quota
    while remaining > 0:
        draw = int(remaining * 4.0 / math.pi * 1.05) + 16
        for lo in range(0, draw, _CHUNK):
            x, y = rng.uniform(-radius, radius, size=(min(_CHUNK, draw - lo), 2)).T
            idx = np.flatnonzero(x * x + y * y <= radius * radius)[:remaining]
            dose = _dose_at(strategy, patch, x[idx], y[idx])
            hits += int(np.count_nonzero(_is_lethal_dose(dose, config)))
            remaining -= idx.size
            if remaining == 0:
                break
    return hits


def kill_probability(
    strategy: PoisonStrategy, config: PoisonConfig, threads: int = 1
) -> KillReport:
    """Seeded Monte Carlo estimate of the probability a random bite kills.

    Samples are split into fixed batches with independent per-batch seed
    streams; the merge is a plain hit count, so the estimate is identical
    for identical seeds no matter how many workers run the batches. The
    interval is the normal-approximation 95% band. Raises ValueError when
    threads < 1. At most one worker runs per batch and per CPU, whatever
    threads asks for.
    """
    validate_strategy(strategy, config)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = config.samples
    patch = _patch_rows(strategy)
    quotas = [(_BATCH if (k + 1) * _BATCH <= n else n - k * _BATCH) for k in range((n + _BATCH - 1) // _BATCH)]
    workers = min(threads, len(quotas), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hit_list = list(
                pool.map(lambda kq: _batch_hits(strategy, patch, config, kq[0], kq[1]), enumerate(quotas))
            )
    else:
        hit_list = [_batch_hits(strategy, patch, config, k, q) for k, q in enumerate(quotas)]
    hits = int(sum(hit_list))
    p_hat = hits / n
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    ci = (max(0.0, p_hat - 1.96 * se), min(1.0, p_hat + 1.96 * se))
    return KillReport(estimate=p_hat, ci95=ci, samples=n, hits=hits)


@dataclass(frozen=True)
class _LethalSet:
    """The lethal bite centers inside the sampling disk, as a shape for
    rasterize."""

    strategy: PoisonStrategy
    patch: _PatchRows | None
    config: PoisonConfig

    def bbox(self) -> tuple[float, float, float, float]:
        radius = self.config.R - 1.0
        return (-radius, -radius, radius, radius)

    def contains_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        radius = self.config.R - 1.0
        dose = _dose_at(self.strategy, self.patch, x, y)
        return (x * x + y * y <= radius * radius) & _is_lethal_dose(dose, self.config)


def lethal_region(strategy: PoisonStrategy, config: PoisonConfig, h_grid: float) -> PixelRegion:
    """Center-sampled raster of the lethal bite-center set.

    A cell belongs to the region when its center lies in the sampling disk
    of radius R - 1 and the bite at the center is lethal. The grid is
    rasterize's, with its cap on the cell count.
    """
    validate_strategy(strategy, config)
    return rasterize(_LethalSet(strategy, _patch_rows(strategy), config), h_grid)
