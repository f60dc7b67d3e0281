"""Candidate evaluation and annealing search in the conjectural window.

For diameters strictly between 4/sqrt(3) and 4 no extremal T(3,2)-set is
known; the conjectured one is U_delta, two unit disks with centers
delta - 2 apart. The anneal below starts from the rasterized U_delta and
flips single boundary cells, rejecting flips that break the diameter cap
or the diam3 cap on cell centers, both checked exactly, trying to find
anything measurably larger. The returned region's diam3 is bracketed
deterministically from its boundary corners. Nothing here proves
extremality; beating the baseline beyond discretization slack is flagged
loudly, never claimed as a counterexample.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from .regions import (
    PixelRegion,
    rasterize,
    region_center_diam,
    region_diam,
    region_diam3,
    u_delta_measure,
    u_delta_shape,
)

__all__ = [
    "SearchConfig",
    "FeasibilityReport",
    "SearchResult",
    "CandidateRow",
    "InfeasibleStartError",
    "evaluate_candidates",
    "anneal",
    "anneal_chains",
    "convex_candidate_measure",
]

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)


class InfeasibleStartError(RuntimeError):
    """The rasterized seed is empty: the pitch h is too coarse for delta."""


@dataclass(frozen=True)
class SearchConfig:
    """Annealing knobs. Defaults follow the move granularity of one cell:
    flipping a cell changes the measure by h^2, so the initial temperature
    is a tenth of that."""

    delta: float
    h: float = 0.05
    iterations: int = 10_000
    seed: int = 0
    temperature_init: float | None = None
    cooling: float = 0.9995

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not (0.0 < self.cooling <= 1.0):
            raise ValueError(f"cooling must be in (0, 1], got {self.cooling}")
        if self.temperature_init is not None and self.temperature_init <= 0.0:
            raise ValueError("temperature_init must be > 0 when given")

    @property
    def t0(self) -> float:
        return self.temperature_init if self.temperature_init is not None else 0.1 * self.h**2

    @property
    def diam_tol(self) -> float:
        return 2.0 * self.h * _SQRT2


@dataclass(frozen=True)
class FeasibilityReport:
    """Post-hoc feasibility of the returned region.

    diam_centers is the enforced metric (largest center-to-center
    distance); diam_corners is the exact diameter of the union of closed
    cells, which exceeds it by at most h*sqrt(2). diam3_lower and
    diam3_upper bracket the region's diam3 (regions.region_diam3);
    diam3_ok checks the lower end against 2 + tolerance, the cap the
    center invariant guarantees.
    """

    diam_centers: float
    diam_corners: float
    diam_ok: bool
    diam3_lower: float
    diam3_upper: float
    diam3_ok: bool
    tolerance: float


@dataclass(frozen=True)
class CandidateRow:
    name: str
    measure: float
    feasible: bool


@dataclass(frozen=True)
class SearchResult:
    best_region: PixelRegion
    best_measure: float
    baseline_measure: float
    bound_value: float
    feasibility: FeasibilityReport
    accepted_moves: int
    iterations: int
    conjecture_exceeded: bool


def evaluate_candidates(delta: float) -> tuple[CandidateRow, ...]:
    """Known candidate shapes at this diameter, with analytic measures.

    The disk is feasible as a T(3,2)-set exactly up to 4/sqrt(3) (its
    inscribed equilateral triangle has side delta*sqrt(3)/2); the two-disk
    shapes are T(3,2) for any delta since two of any three points share a
    unit disk.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    rows = [
        CandidateRow(
            name="disk",
            measure=bounds.stmt1_value(delta),
            feasible=delta <= bounds.DISK_REGIME_MAX,
        )
    ]
    if 2.0 < delta < 4.0:
        rows.append(CandidateRow(name="u_delta", measure=u_delta_measure(delta), feasible=True))
    if delta >= 4.0:
        rows.append(CandidateRow(name="two_unit_disks", measure=2.0 * math.pi, feasible=True))
    return tuple(rows)


def convex_candidate_measure(delta: float) -> float:
    """Area of the convex hull of a unit disk and a concentric segment of
    length delta (the conjectured convex extremal).

    With L = delta/2 the hull adds two tangent caps to the disk:
    pi + 2*(sqrt(L^2 - 1) - acos(1/L)). Requires delta >= 2; below that
    the segment hides inside the disk and the shape degenerates.
    """
    if not (math.isfinite(delta) and delta >= 2.0):
        raise ValueError(f"convex candidate needs delta >= 2, got {delta}")
    half = delta / 2.0
    if half == 1.0:
        return math.pi
    return math.pi + 2.0 * (math.sqrt(half * half - 1.0) - math.acos(1.0 / half))


class _IndexedSet:
    """Set with O(1) membership, insert, discard, and uniform choice."""

    __slots__ = ("_items", "_pos")

    def __init__(self) -> None:
        self._items: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: tuple[int, int]) -> None:
        if item not in self._pos:
            self._pos[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: tuple[int, int]) -> None:
        slot = self._pos.pop(item, None)
        if slot is None:
            return
        last = self._items.pop()
        if last != item:
            self._items[slot] = last
            self._pos[last] = slot

    def choose(self, rng: np.random.Generator) -> tuple[int, int]:
        return self._items[int(rng.integers(0, len(self._items)))]


_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _row_extremes(ci: np.ndarray, cj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The min-j and max-j cell of each row i of an integer cell set.

    Every convex hull vertex of the set is one of them (a cell with cells
    on both sides in its row lies inside their segment), and the diameter
    is attained at hull vertices, so the largest pairwise distance of
    these at most 2 * rows cells equals that of the whole set.
    """
    base = ci.min()
    row = ci - base
    lo = np.full(int(row.max()) + 1, np.iinfo(np.int64).max)
    hi = np.full_like(lo, np.iinfo(np.int64).min)
    np.minimum.at(lo, row, cj)
    np.maximum.at(hi, row, cj)
    rows = np.flatnonzero(hi >= lo)
    return np.concatenate([rows, rows]) + base, np.concatenate([lo[rows], hi[rows]])


def anneal(config: SearchConfig) -> SearchResult:
    """Measure-maximizing annealing over single boundary-cell flips.

    Seeded at the rasterized U_delta. A flip that would push the
    center-to-center diameter beyond delta, or create a triple of cell
    centers pairwise farther than 2 + h*sqrt(2), is rejected outright;
    feasible additions are always taken and removals are taken with
    probability exp(delta_measure / T) under geometric cooling. Removals
    cannot create new far triples (diam3 is monotone under subsets), and
    an addition only creates triples through the new cell, so checking
    those against every current cell keeps the center invariant exact.
    Corner points of closed cells sit at most h/sqrt(2) from their
    centers, so the region itself stays within 2 + 2*h*sqrt(2). The seed
    needs no check: its centers lie in U_delta, whose diameter is delta
    and whose diam3 is at most 2. The result carries a post-hoc report
    with the exact diameters and the region_diam3 bracket.

    Three shortcuts leave the result unchanged. Whether an addition is
    feasible is monotone in the region: more cells only add far pairs and
    far triples. So a rejected cell stays rejected until a removal is
    accepted, and is not re-evaluated before then; the check draws no
    random numbers. The far cells' largest pairwise distance is taken over
    each row's two extreme cells (see _row_extremes), in integer index
    units, so the comparison with the cap is the same. And the loop stops
    once nothing can change: the removal probability is 0.0 (the
    temperature has underflowed it) and every frontier cell is
    memo-rejected. The report still gives the requested iterations.

    Deterministic for a given config: the proposal stream is a single
    seeded generator, so a longer run extends a shorter one's trajectory.
    """
    delta, h = config.delta, config.h
    if not (bounds.DISK_REGIME_MAX < delta < 4.0):
        raise ValueError(
            f"anneal explores the window 4/sqrt(3) < delta < 4, got delta={delta}"
        )

    seed_region = rasterize(u_delta_shape(delta), h)
    if seed_region.is_empty():
        raise InfeasibleStartError(f"h={h} too coarse for delta={delta}: empty raster")

    # the region's cells, each mapped to its slot in the index arrays
    slot_of = {cell: slot for slot, cell in enumerate(sorted(seed_region.cells))}
    count = len(slot_of)
    # cell indices in slots [0, count); the arrays double when full
    I = np.empty(2 * count, dtype=np.int64)
    J = np.empty_like(I)
    I[:count], J[:count] = seed_region.cell_index_array().T

    add_frontier = _IndexedSet()
    remove_frontier = _IndexedSet()

    def refresh_frontier(center: tuple[int, int]) -> None:
        """Re-file the cell and its four neighbours in the frontiers."""
        for ci, cj in [center] + [(center[0] + di, center[1] + dj) for di, dj in _NEIGHBORS]:
            cell = (ci, cj)
            inside = cell in slot_of
            has_out = any((ci + di, cj + dj) not in slot_of for di, dj in _NEIGHBORS)
            has_in = any((ci + di, cj + dj) in slot_of for di, dj in _NEIGHBORS)
            if inside and has_out:
                remove_frontier.add(cell)
            else:
                remove_frontier.discard(cell)
            if not inside and has_in:
                add_frontier.add(cell)
            else:
                add_frontier.discard(cell)

    for cell in slot_of:
        refresh_frontier(cell)

    max_diam_units2 = (delta / h) ** 2
    # center cap in index units; corners inflate distances by at most
    # h*sqrt(2), so regions built under this cap stay within 2 + 2*h*sqrt(2)
    cap_units2 = (2.0 / h + _SQRT2) ** 2
    move_rng = np.random.default_rng(config.seed)
    measure = count * h * h
    best_measure = measure
    best_cells = frozenset(slot_of)
    accepted = 0
    temperature = config.t0
    # additions found infeasible since the last accepted removal
    rejected: set[tuple[int, int]] = set()

    def add_is_feasible(cell: tuple[int, int]) -> bool:
        ci, cj = cell
        di = I[:count] - ci
        dj = J[:count] - cj
        d2 = di * di + dj * dj
        if count and float(d2.max()) > max_diam_units2:
            return False
        # a new far triple must pass through the new cell: reject iff two
        # cells far from it are also far from each other
        far = d2 > cap_units2
        if int(far.sum()) < 2:
            return True
        fi = I[:count][far]
        fj = J[:count][far]
        span = float(fi.max() - fi.min()) ** 2 + float(fj.max() - fj.min()) ** 2
        if span <= cap_units2:
            return True
        fi, fj = _row_extremes(fi, fj)
        pair2 = (fi[:, None] - fi[None, :]) ** 2 + (fj[:, None] - fj[None, :]) ** 2
        return float(pair2.max()) <= cap_units2

    def apply_flip(cell: tuple[int, int], adding: bool) -> None:
        nonlocal count, I, J
        if adding:
            if count == len(I):
                I = np.concatenate([I, np.empty_like(I)])
                J = np.concatenate([J, np.empty_like(J)])
            I[count], J[count] = cell
            slot_of[cell] = count
            count += 1
        else:
            slot = slot_of.pop(cell)
            count -= 1
            if slot != count:
                last = (int(I[count]), int(J[count]))
                I[slot], J[slot] = I[count], J[count]
                slot_of[last] = slot
        refresh_frontier(cell)

    for _ in range(config.iterations):
        remove_probability = math.exp(-(h * h) / temperature) if temperature > 0.0 else 0.0
        # Between accepted removals every rejected cell stays outside the
        # region next to it, so rejected is a subset of add_frontier; equal
        # sizes mean every add is memo-rejected. With removals refused too,
        # no later move changes anything, and the rest of the proposal
        # stream is never used.
        if remove_probability == 0.0 and len(rejected) == len(add_frontier):
            break
        can_add = len(add_frontier) > 0
        can_remove = len(remove_frontier) > 0 and count > 1
        if not (can_add or can_remove):
            break
        if can_add and can_remove:
            adding = bool(move_rng.integers(0, 2))
        else:
            adding = can_add
        if adding:
            cell = add_frontier.choose(move_rng)
            if cell in rejected or not add_is_feasible(cell):
                rejected.add(cell)
            else:
                apply_flip(cell, adding=True)
                accepted += 1
                measure = count * h * h
                if measure > best_measure:
                    best_measure = measure
                    best_cells = frozenset(slot_of)
        else:
            cell = remove_frontier.choose(move_rng)
            u = float(move_rng.random())
            if u < remove_probability:
                apply_flip(cell, adding=False)
                rejected.clear()
                accepted += 1
                measure = count * h * h
        temperature *= config.cooling

    best_region = PixelRegion(origin=seed_region.origin, h=h, cells=best_cells)
    tol = config.diam_tol
    diam_centers = region_center_diam(best_region)
    diam3_lower, diam3_upper = region_diam3(best_region)
    report = FeasibilityReport(
        diam_centers=diam_centers,
        diam_corners=region_diam(best_region),
        diam_ok=(delta - tol <= diam_centers <= delta + 1e-9),
        diam3_lower=diam3_lower,
        diam3_upper=diam3_upper,
        diam3_ok=(diam3_lower <= 2.0 + tol),
        tolerance=tol,
    )
    bound_value = min(bounds.stmt3_interior(delta), bounds.TWO_PI)
    # rasterization can move the measure by about err <= 2 * perimeter * h;
    # U_delta's perimeter is below 4*pi
    slack = 8.0 * math.pi * h
    exceeded = best_measure > u_delta_measure(delta) + slack
    if exceeded:
        logger.warning(
            "anneal found measure %.6f above the conjectured extremal %.6f "
            "plus discretization slack %.6f at delta=%.6f; inspect before "
            "believing it",
            best_measure,
            u_delta_measure(delta),
            slack,
            delta,
        )
    return SearchResult(
        best_region=best_region,
        best_measure=best_measure,
        baseline_measure=seed_region.measure,
        bound_value=bound_value,
        feasibility=report,
        accepted_moves=accepted,
        iterations=config.iterations,
        conjecture_exceeded=exceeded,
    )


def anneal_chains(config: SearchConfig, chains: int, threads: int = 1) -> SearchResult:
    """Run independent chains seeded seed, seed+1, ... and keep the best.

    Ties go to the smaller seed. Results do not depend on threads, which
    only caps the worker pool.
    """
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    configs = [dataclasses.replace(config, seed=config.seed + k) for k in range(chains)]
    if threads > 1 and chains > 1:
        with ThreadPoolExecutor(max_workers=min(threads, chains)) as pool:
            results = list(pool.map(anneal, configs))
    else:
        results = [anneal(c) for c in configs]
    best = results[0]
    for res in results[1:]:
        if res.best_measure > best.best_measure:
            best = res
    return best
