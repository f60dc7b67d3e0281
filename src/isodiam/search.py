"""Candidate evaluation and annealing search in the conjectural window.

For diameters strictly between 4/sqrt(3) and 4 no extremal T(3,2)-set is
known. The anneal below starts from the cells of U_delta (two unit disks
with centers delta - 2 apart) that fit in one of its disks, and flips
single boundary cells to grow the measure. Its regions are unions of
closed cells, and every one it keeps is a T(3,2)-set of diameter at most
delta: the move check and the final verification compare one integer
corner metric with caps taken exactly from h and delta. So the measure
it returns is a certified lower bound on the extremal measure, and
beating the best known candidate is a genuine improvement on it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, diameters
from .geometry import Point
from .regions import PixelRegion, _check_raster_cells, _grid_index, region_diam, u_delta_measure

__all__ = [
    "SearchConfig",
    "FeasibilityReport",
    "SearchResult",
    "CandidateRow",
    "InfeasibleStartError",
    "evaluate_candidates",
    "best_known_measure",
    "anneal",
    "anneal_chains",
    "convex_candidate_measure",
]


class InfeasibleStartError(RuntimeError):
    """The seed is empty: the pitch h is too coarse for delta."""


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


@dataclass(frozen=True)
class FeasibilityReport:
    """Exact feasibility of the returned region, a union of closed cells.

    diam_corners is its diameter (regions.region_diam). diam_ok holds when
    no two cells have corners more than delta apart, and diam3_ok when no
    three boundary cells (cells with an absent 4-neighbour) are pairwise
    far, both decided in integers (see _feasibility).
    """

    diam_corners: float
    diam_ok: bool
    diam3_ok: bool


@dataclass(frozen=True)
class CandidateRow:
    name: str
    measure: float


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

    The disk of diameter min(delta, 4/sqrt(3)) is a T(3,2)-set at every
    delta: three points pairwise farther than 2 would need a disk of
    diameter above 4/sqrt(3), the circumdiameter of the equilateral
    triangle of side 2. The two-disk shapes are T(3,2) for any delta
    since two of any three points share a unit disk.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    rows = [CandidateRow(name="disk", measure=bounds.stmt1_value(min(delta, bounds.DISK_REGIME_MAX)))]
    if 2.0 < delta < 4.0:
        rows.append(CandidateRow(name="u_delta", measure=u_delta_measure(delta)))
    if delta >= 4.0:
        rows.append(CandidateRow(name="two_unit_disks", measure=2.0 * math.pi))
    return tuple(rows)


def best_known_measure(delta: float) -> float:
    """The largest measure among the candidates at this diameter:
    max(U_delta, 4*pi/3) in the window 4/sqrt(3) < delta < 4."""
    return max(row.measure for row in evaluate_candidates(delta))


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

    def __init__(self, items: list[tuple[int, int]]) -> None:
        """File distinct items in the given order."""
        self._items = items
        self._pos = {item: slot for slot, item in enumerate(items)}

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

    def choose(self, moves: _MoveStream) -> tuple[int, int]:
        return self._items[moves.integers(len(self._items))]


def _raw_words(bitgen: np.random.PCG64, block: int = 1024):
    """The bit generator's 64-bit words as Python ints, drawn in blocks."""
    while True:
        yield from bitgen.random_raw(block).tolist()


class _MoveStream:
    """The draws of np.random.default_rng(seed), integers(n) and random(),
    read from blocks of raw PCG64 words at a fraction of the cost of a
    scalar Generator call.

    default_rng(seed) is Generator(PCG64(seed)), and for 1 < n <= 2^32 its
    integers(n) is Lemire's bounded draw on 32-bit words: the low half of
    a 64-bit word first, with the high half kept for the next 32-bit draw.
    A word w is taken as (w * n) >> 32 unless its low 32 bits fall below
    2^32 mod n, in which case another is drawn. integers(1) draws nothing,
    and random() takes a whole word, (w >> 11) * 2^-53, and leaves the kept
    half alone. Outside 1 <= n <= 2^32 numpy takes another path, so those
    n raise ValueError.
    """

    __slots__ = ("_words", "_half")

    def __init__(self, seed: int) -> None:
        self._words = _raw_words(np.random.PCG64(seed))
        self._half: int | None = None

    def integers(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"the move stream draws integers(n) for 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        while True:
            if self._half is None:
                word = next(self._words)
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                m = self._half * n
                self._half = None
            low = m & 0xFFFFFFFF
            if low >= n or low >= (1 << 32) % n:
                return m >> 32

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0**-53


_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _corner_k(di, dj):
    """The corner metric k = (|di| + 1)^2 + (|dj| + 1)^2 of two cells whose
    indices differ by (di, dj): their farthest corners lie sqrt(k) * h
    apart. Takes ints or integer arrays."""
    return (abs(di) + 1) ** 2 + (abs(dj) + 1) ** 2


def _caps(delta: float, h: float) -> tuple[int, int]:
    """The integer caps (diam_cap, far_cap) on the corner metric.

    Two cells hold points more than 2 apart, are far, iff k * h^2 > 4,
    that is k > far_cap = floor(4 / h^2); a region's corners lie within
    delta of each other iff every k <= diam_cap = floor(delta^2 / h^2).
    Both are taken in Fraction from the exact values of the floats.
    """
    h2 = Fraction(h) ** 2
    return math.floor(Fraction(delta) ** 2 / h2), math.floor(4 / h2)


def _seed_cells(delta: float, h: float) -> list[tuple[int, int]]:
    """The sorted cells, on the grid of pitch h anchored at the origin,
    whose four corners lie in one closed unit disk of U_delta, decided in
    exact arithmetic.

    Against the disk centered at (c, 0), the cells of row i span x in
    [i*h, (i+1)*h], and their farthest corners take the end farther from
    c, at x offset X. Cell j spans y in [j*h, (j+1)*h], so it fits iff
    max(|j|, |j + 1|)^2 <= r = (1 - X^2) / h^2, that is -m <= j < m with
    m = floor(sqrt(r)) = isqrt(floor(r)). Like rasterize, it raises
    MemoryError when the bounding box of U_delta spans more cells than the
    raster cap.
    """
    size = (_grid_index(math.ceil, delta / h) + 2) * (_grid_index(math.ceil, 2.0 / h) + 2)
    _check_raster_cells(f"a seed of pitch {h} spans", size)
    h = Fraction(h)
    cells: set[tuple[int, int]] = set()
    for c in (Fraction(delta) / 2 - 1, 1 - Fraction(delta) / 2):
        for i in range(math.floor((c - 1) / h), math.ceil((c + 1) / h)):
            x = max(abs(i * h - c), abs((i + 1) * h - c))
            if x <= 1:
                m = math.isqrt(math.floor((1 - x * x) / (h * h)))
                cells.update((i, j) for j in range(-m, m))
    return sorted(cells)


def _row_extremes(ci: np.ndarray, cj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The min-j and max-j cell of each row i of an integer cell set.

    The largest corner metric of a cell set is its corner diameter^2 / h^2,
    attained at two hull vertices of its corners. Each hull vertex is the
    lowest or highest corner on its vertical grid line, a corner of an
    extreme cell of a row beside that line, so the largest corner metric
    over these at most 2 * rows cells equals that of the whole set.
    """
    base = ci.min()
    row = ci - base
    lo = np.full(int(row.max()) + 1, np.iinfo(np.int64).max)
    hi = np.full_like(lo, np.iinfo(np.int64).min)
    np.minimum.at(lo, row, cj)
    np.maximum.at(hi, row, cj)
    rows = np.flatnonzero(hi >= lo)
    return np.concatenate([rows, rows]) + base, np.concatenate([lo[rows], hi[rows]])


def _largest_k(ci: np.ndarray, cj: np.ndarray) -> int:
    """Largest corner metric over pairs of the cells, self-pairs (k = 2)
    included."""
    ci, cj = _row_extremes(ci, cj)
    return int(_corner_k(ci[:, None] - ci, cj[:, None] - cj).max())


def _feasibility(region: PixelRegion, delta: float) -> FeasibilityReport:
    """Verify a nonempty region against the exact caps of _caps.

    diam_ok compares the largest corner metric, over the rows' extreme
    cells, with diam_cap. diam3_ok holds when the subset search of
    diameters finds no triple of boundary cells pairwise far. That makes
    the region a T(3,2)-set: three of its points pairwise farther than 2
    can each move away from the other two until they meet the boundary
    (diam3(S) = diam3(boundary of S)), where they lie in three boundary
    cells that are then pairwise far; three, because two points of one
    cell are at most h*sqrt(2) <= 2 apart whenever a cell fits in a unit
    disk. The boundary k matrix grows as n^2: more boundary-cell pairs
    than the pair cap of diameters raises MemoryError before it is built.
    """
    diam_cap, far_cap = _caps(delta, region.h)
    idx = region.cells
    boundary = _boundary_cells(idx)
    n = len(boundary)
    diameters._check_pairs(f"verifying {n} boundary cells", n)
    bi, bj = boundary.T
    far_triple = diameters._first_violating(
        diameters._close_masks(_corner_k(bi[:, None] - bi, bj[:, None] - bj), far_cap), n, 3, 2
    )
    return FeasibilityReport(
        diam_corners=region_diam(region),
        diam_ok=_largest_k(idx[:, 0], idx[:, 1]) <= diam_cap,
        diam3_ok=far_triple is None,
    )


def _boundary_cells(idx: np.ndarray) -> np.ndarray:
    """The rows of a nonempty (n, 2) cell index array with a 4-neighbour
    outside it, in their order. Each cell is keyed
    (i - imin + 1) * w + (j - jmin + 1) with w = jmax - jmin + 3, so the
    column neighbours are key +- 1 without wrapping into the next row, and
    the row neighbours are key +- w."""
    i, j = idx[:, 0], idx[:, 1]
    w = int(j.max() - j.min()) + 3
    keys = (i - i.min() + 1) * w + (j - j.min() + 1)
    inner = np.isin(keys + 1, keys) & np.isin(keys - 1, keys) & np.isin(keys + w, keys) & np.isin(keys - w, keys)
    return idx[~inner]


def _refile(center: tuple[int, int], region, add_frontier: _IndexedSet, remove_frontier: _IndexedSet) -> None:
    """Re-file a cell and its four neighbours in the frontiers of region:
    a cell of the region with an absent neighbour can be removed, and an
    absent cell with a neighbour in the region can be added."""
    for ci, cj in [center] + [(center[0] + di, center[1] + dj) for di, dj in _NEIGHBORS]:
        cell = (ci, cj)
        inside = cell in region
        has_out = any((ci + di, cj + dj) not in region for di, dj in _NEIGHBORS)
        has_in = any((ci + di, cj + dj) in region for di, dj in _NEIGHBORS)
        if inside and has_out:
            remove_frontier.add(cell)
        else:
            remove_frontier.discard(cell)
        if not inside and has_in:
            add_frontier.add(cell)
        else:
            add_frontier.discard(cell)


def _seed_frontiers(region) -> tuple[_IndexedSet, _IndexedSet]:
    """The (add, remove) frontiers of region, filed in the order that
    _refile on each of its cells, in iteration order, would give.

    The region does not change while it is filed, so every visit to a cell
    gives the same verdict, the discards are no-ops, and each frontier
    lists its cells in the order of their first visit among (cell, +i, -i,
    +j, -j). Every visited cell outside the region neighbours the cell it
    was visited from.
    """
    visits = dict.fromkeys((i + di, j + dj) for i, j in region for di, dj in ((0, 0),) + _NEIGHBORS)
    add, remove = [], []
    for cell in visits:
        if cell not in region:
            add.append(cell)
        else:
            i, j = cell
            if not ((i + 1, j) in region and (i - 1, j) in region and (i, j + 1) in region and (i, j - 1) in region):
                remove.append(cell)
    return _IndexedSet(add), _IndexedSet(remove)


def anneal(config: SearchConfig) -> SearchResult:
    """Measure-maximizing annealing over single boundary-cell flips.

    Seeded at the cells whose corners lie in one unit disk of U_delta
    (_seed_cells). Of any three seed cells two share a disk, so no two of
    their points are more than 2 apart, and every corner lies in U_delta,
    whose diameter is delta. A flip that would give two cells a corner
    metric above diam_cap, or make three cells pairwise far (_caps), is
    rejected outright; feasible additions are always taken and removals
    are taken with probability exp(delta_measure / T) under geometric
    cooling. Removals cannot create far pairs or triples, and an addition
    only creates them through the new cell, so checking those against
    every current cell keeps both invariants exact. The result carries
    the post-hoc verification of _feasibility.

    Three shortcuts leave the result unchanged. Whether an addition is
    feasible is monotone in the region: more cells only add far pairs and
    far triples. So a rejected cell stays rejected until a removal is
    accepted, and is not re-evaluated before then; the check draws no
    random numbers. Two cells far from the new one are far from each other
    only if the corner metric of the far cells' bounding box exceeds
    far_cap, and otherwise the largest corner metric among the far cells
    is taken over each row's two extreme cells (see _row_extremes). And
    the loop stops once nothing can change: the removal probability is 0.0
    (the temperature has underflowed it) and every frontier cell is
    memo-rejected. The report still gives the requested iterations.

    Deterministic for a given config: the proposal stream is the draws of
    np.random.default_rng(seed), read from raw PCG64 words by _MoveStream.
    A move on a region of more than one cell with a removable one draws
    integers(2) to pick addition (1) or removal (0), and any other move
    adds; the cell is frontier item integers(len(frontier)), and a
    removal then draws random() against its probability. A longer run
    extends a shorter one's trajectory.
    """
    delta, h = config.delta, config.h
    if not (bounds.DISK_REGIME_MAX < delta < 4.0):
        raise ValueError(
            f"anneal explores the window 4/sqrt(3) < delta < 4, got delta={delta}"
        )

    seed_cells = _seed_cells(delta, h)
    if not seed_cells:
        raise InfeasibleStartError(f"h={h} too coarse for delta={delta}: no cell fits in a unit disk")

    # the region's cells, each mapped to its slot in the index arrays
    slot_of = {cell: slot for slot, cell in enumerate(seed_cells)}
    count = len(slot_of)
    # cell indices in slots [0, count); the arrays double when full
    I = np.empty(2 * count, dtype=np.int64)
    J = np.empty_like(I)
    I[:count], J[:count] = np.array(seed_cells, dtype=np.int64).T

    add_frontier, remove_frontier = _seed_frontiers(slot_of)
    diam_cap, far_cap = _caps(delta, h)
    moves = _MoveStream(config.seed)
    measure = count * h * h
    baseline_measure = best_measure = measure
    # the best region is copied only when a removal leaves it, or at the end
    at_best = True
    accepted = 0
    temperature = config.t0
    # additions found infeasible since the last accepted removal
    rejected: set[tuple[int, int]] = set()

    def add_is_feasible(cell: tuple[int, int]) -> bool:
        ci, cj = cell
        k = _corner_k(I[:count] - ci, J[:count] - cj)
        if int(k.max()) > diam_cap:
            return False
        # a new far triple must pass through the new cell: reject iff two
        # cells far from it are also far from each other
        far = k > far_cap
        if np.count_nonzero(far) < 2:
            return True
        fi = I[:count][far]
        fj = J[:count][far]
        if _corner_k(fi.max() - fi.min(), fj.max() - fj.min()) <= far_cap:
            return True
        return _largest_k(fi, fj) <= far_cap

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
        _refile(cell, slot_of, add_frontier, remove_frontier)

    for _ in range(config.iterations):
        remove_probability = math.exp(-(h * h) / temperature) if temperature > 0.0 else 0.0
        # Between accepted removals every rejected cell stays outside the
        # region next to it, so rejected is a subset of add_frontier; equal
        # sizes mean every add is memo-rejected. With removals refused too,
        # no later move changes anything, and the rest of the proposal
        # stream is never used.
        if remove_probability == 0.0 and len(rejected) == len(add_frontier):
            break
        # a nonempty finite region always has a cell to add beside it
        adding = not (len(remove_frontier) > 0 and count > 1) or bool(moves.integers(2))
        if adding:
            cell = add_frontier.choose(moves)
            if cell in rejected or not add_is_feasible(cell):
                rejected.add(cell)
            else:
                apply_flip(cell, adding=True)
                accepted += 1
                measure = count * h * h
                if measure > best_measure:
                    best_measure = measure
                    at_best = True
        else:
            cell = remove_frontier.choose(moves)
            if moves.random() < remove_probability:
                if at_best:
                    best_cells = np.column_stack([I[:count], J[:count]])
                    at_best = False
                apply_flip(cell, adding=False)
                rejected.clear()
                accepted += 1
        temperature *= config.cooling

    if at_best:
        best_cells = np.column_stack([I[:count], J[:count]])
    best_region = PixelRegion(origin=Point(0.0, 0.0), h=h, cells=best_cells)
    return SearchResult(
        best_region=best_region,
        best_measure=best_measure,
        baseline_measure=baseline_measure,
        bound_value=bounds.bound_profile(delta).stmt3,
        feasibility=_feasibility(best_region, delta),
        accepted_moves=accepted,
        iterations=config.iterations,
        conjecture_exceeded=best_measure > best_known_measure(delta),
    )


def anneal_chains(config: SearchConfig, chains: int) -> SearchResult:
    """Run independent chains seeded seed, seed+1, ... and keep the best.

    Ties go to the smaller seed.
    """
    if chains < 1:
        raise ValueError(f"chains must be >= 1, got {chains}")
    results = (anneal(dataclasses.replace(config, seed=config.seed + k)) for k in range(chains))
    return max(results, key=lambda res: res.best_measure)
