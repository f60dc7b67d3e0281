"""Candidate evaluation and annealing search in the conjectural window.

For diameters strictly between 4/sqrt(3) and 4 no extremal T(3,2)-set is
known. The anneal below starts from the inner raster of U_delta (two
unit disks with centers delta - 2 apart), the cells that fit in one of
its disks, and flips single boundary cells to grow the measure. Its
regions are unions of closed cells, and every one it keeps is a
T(3,2)-set of diameter at most delta: the move check and the final
verification compare one integer corner metric with caps taken exactly
from h and delta. So the measure it returns is a certified lower bound
on the extremal measure, and beating the best known candidate is a
genuine improvement on it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, diameters
from .geometry import Point
from .regions import PixelRegion, inner_raster, region_diam, u_delta_measure, u_delta_shape

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


class _IndexedSet(dict):
    """Set with O(1) membership, insert and discard, whose items a move
    picks by slot: each item maps to its slot in the list listed (not
    items, which would hide dict.items)."""

    __slots__ = ("listed",)

    def __init__(self, items: list[tuple[int, int]]) -> None:
        """File distinct items in the given order."""
        super().__init__(zip(items, range(len(items))))
        self.listed = items

    def add(self, item: tuple[int, int]) -> None:
        if item not in self:
            self[item] = len(self)
            self.listed.append(item)

    def discard(self, item: tuple[int, int]) -> int | None:
        """Unfile item, moving the last item into its slot; the slot it
        vacated, or None if it was not filed."""
        slot = self.pop(item, None)
        if slot is None:
            return None
        last = self.listed.pop()
        if last != item:
            self.listed[slot] = last
            self[last] = slot
        return slot


class _MoveStream:
    """The raw words of np.random.PCG64(seed), in order, one per move.

    A move reads one word w; its frontier item is ((w & 0xFFFFFFFF) * n)
    >> 32 of n items, Lemire's multiply-shift without the rejection step,
    which biases a frontier item by under n * 2^-32. When a removal is
    possible bit 32 picks addition (1) or removal (0), and a removal is
    taken iff (w >> 33) * 2^-31 < p. Words are drawn in blocks; drawing
    ahead into the buffer does not change which word a move reads.
    """

    __slots__ = ("_bitgen", "_words", "_next", "position")
    BLOCK = 1024

    def __init__(self, seed: int) -> None:
        self._bitgen = np.random.PCG64(seed)
        self._words = np.empty(0, dtype=np.uint64)
        # the index in _words of the next word, and the words read so far
        self._next = self.position = 0

    def word(self) -> int:
        if self._next == len(self._words):
            self._words, self._next = self._bitgen.random_raw(self.BLOCK), 0
        self._next += 1
        self.position += 1
        return self._words.item(self._next - 1)

    def ahead(self, k: int, skip: int = 0) -> np.ndarray:
        """A view of the k words that the moves after the next skip read. A
        buffer short of them drops the words already read and draws the
        rest."""
        short = self._next + skip + k - len(self._words)
        if short > 0:
            fresh = self._bitgen.random_raw(max(short, self.BLOCK))
            self._words, self._next = np.concatenate([self._words[self._next :], fresh]), 0
        return self._words[self._next + skip : self._next + skip + k]


def _warm_iterations(hh: float, temperature: float, cooling: float) -> float:
    """An upper bound, or math.inf, on the iterations from temperature T > 0
    on whose removal probability exp(-hh / T) is not 0.0, as it is once
    T <= hh / 746. A rounded T * cooling is at most T * cooling * (1 + 2^-53)
    while normal, so the count to hh / 747 comes from logs, with a margin.
    Cooling 1.0 never lowers T, and nor may a subnormal T: no bound."""
    cold = hh / 747.0
    step = math.log(cooling) + 2.0**-52
    if step >= 0.0 or cold < 2.0**-1000:
        return math.inf
    return math.ceil((math.log(temperature) - math.log(cold)) / -step * (1.0 + 1e-9)) + 2


# the most words one frozen check draws ahead into the move buffer
_SCAN = 64 * _MoveStream.BLOCK


def _first_live_word(moves: _MoveStream, words: int, p: float) -> int | None:
    """The stream position of the first live word among the next words,
    one per move, or None. A word is live when its move would take a
    removal at probability 2p (p doubled in case a later p rounds above
    it): bit 32 is clear and w >> 33 is below ceil(2p * 2^31), which is
    >= 1 as 0 < p. With more than _SCAN words and none of the first _SCAN
    live, the answer is the last of those, so that the loop checks again
    there and the buffer stays small."""
    cutoff = math.ceil(2.0 * p * 2.0**31)
    for skip in range(0, min(words, _SCAN), moves.BLOCK):
        w = moves.ahead(min(moves.BLOCK, words - skip), skip)
        live = (w >> 32 & 1 == 0) & (w >> 33 < cutoff)
        if live.any():
            return moves.position + skip + int(live.argmax())
    return None if words <= _SCAN else moves.position + _SCAN - 1


_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _corner_k(di, dj):
    """The corner metric k = (|di| + 1)^2 + (|dj| + 1)^2 of two cells whose
    indices differ by (di, dj): their farthest corners lie sqrt(k) * h
    apart. Takes ints or integer arrays; _addition_is_feasible inlines it."""
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
    cells, with diam_cap. diam3_ok holds when no three boundary cells are
    pairwise far: when no far pair of them closes a triangle in the clique
    sweep of diameters._first_clique. That makes the region a T(3,2)-set:
    three of its points pairwise farther than 2 can each move away from
    the other two until they meet the boundary (diam3(S) = diam3(boundary
    of S)), where they lie in three boundary cells that are then pairwise
    far; three, because two points of one cell are at most h*sqrt(2) <= 2
    apart whenever a cell fits in a unit disk. The boundary pairs grow as
    n^2: more of them than the pair cap of diameters raises MemoryError
    before they are built.
    """
    diam_cap, far_cap = _caps(delta, region.h)
    idx = region.cells
    boundary = _boundary_cells(idx)
    n = len(boundary)
    diameters._check_pairs(f"verifying {n} boundary cells", n)
    bi, bj = boundary.T
    iu, ju = np.triu_indices(n, 1)
    far = _corner_k(bi[iu] - bi[ju], bj[iu] - bj[ju]) > far_cap
    return FeasibilityReport(
        diam_corners=region_diam(region),
        diam_ok=_largest_k(idx[:, 0], idx[:, 1]) <= diam_cap,
        diam3_ok=diameters._first_clique(n, iu[far], ju[far], 3) is None,
    )


def _cell_keys(idx: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Integer keys of the rows of a nonempty (n, 2) cell index array, with
    the key width w and the cell (i0, j0) of key 0.

    Cell (i, j) is keyed (i - i0) * w + (j - j0), with i0 = imin - 1,
    j0 = jmin - 1 and w = jmax - jmin + 3. So the cells and their
    4-neighbours have distinct nonnegative keys: the column neighbours are
    key +- 1 without wrapping into the next row, and the row neighbours
    are key +- w.
    """
    i, j = idx[:, 0], idx[:, 1]
    i0, j0 = int(i.min()) - 1, int(j.min()) - 1
    w = int(j.max()) - j0 + 2
    return (i - i0) * w + (j - j0), w, i0, j0


def _boundary_cells(idx: np.ndarray) -> np.ndarray:
    """The rows of a nonempty (n, 2) cell index array with a 4-neighbour
    outside it, in their order, found by key (_cell_keys)."""
    keys, w, _, _ = _cell_keys(idx)
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


def _seed_frontiers(cells: np.ndarray) -> tuple[_IndexedSet, _IndexedSet]:
    """The (add, remove) frontiers of the region of the distinct rows of a
    nonempty (n, 2) cell array, filed in cell key order (_cell_keys).

    Every cell of a frontier is a region cell or one of its 4-neighbours,
    whose keys are the region keys plus (0, w, -w, 1, -1). Only the
    frontier cells become tuples.
    """
    keys, w, i0, j0 = _cell_keys(cells)
    # sorted and deduplicated here: np.unique (numpy >= 2.3) imports
    # numpy.ma, some 15 ms, to rule out a masked array
    visits = np.sort(keys[:, None] + np.array([0, w, -w, 1, -1]), axis=None)
    visited = visits[np.diff(visits, prepend=-1) != 0]
    held = np.isin(visited, keys)
    kept = visited[held]
    inner = np.isin(kept + w, keys) & np.isin(kept - w, keys) & np.isin(kept + 1, keys) & np.isin(kept - 1, keys)

    def filed(q: np.ndarray) -> _IndexedSet:
        return _IndexedSet(list(zip((q // w + i0).tolist(), (q % w + j0).tolist())))

    return filed(visited[~held]), filed(kept[~inner])


def _addition_is_feasible(
    I: np.ndarray,
    J: np.ndarray,
    count: int,
    cell: tuple[int, int],
    caps: tuple[int, int],
    witnesses: list[tuple[int, int, int, int, int]],
) -> bool:
    """Whether adding cell to the region of the cells (I[s], J[s]) for
    s < count keeps every corner metric within diam_cap and makes no three
    cells pairwise far, given caps = (diam_cap, far_cap) and a region that
    already does both.

    A new far triple must pass through the new cell, so the addition is
    rejected iff a region cell lies beyond diam_cap from it, or two region
    cells far from it are far from each other. Each rejection found by a
    scan appends its witness to witnesses as (cap, ai, aj, bi, bj): a cell
    beyond diam_cap is (diam_cap, a, a), and a far pair is (far_cap, a,
    b). A later candidate beyond cap from both cells of a witness is
    rejected without a scan, most recent witness first. That is exact
    while every witness cell stays in the region: the caller clears
    witnesses whenever it removes a cell.
    """
    diam_cap, far_cap = caps
    ci, cj = cell
    for cap, ai, aj, bi, bj in reversed(witnesses):
        if (abs(ai - ci) + 1) ** 2 + (abs(aj - cj) + 1) ** 2 > cap and (abs(bi - ci) + 1) ** 2 + (abs(bj - cj) + 1) ** 2 > cap:
            return False
    I, J = I[:count], J[:count]
    k = _corner_k(I - ci, J - cj)
    top = int(k.argmax())
    if k[top] > diam_cap:
        ti, tj = int(I[top]), int(J[top])
        witnesses.append((diam_cap, ti, tj, ti, tj))
        return False
    far = k > far_cap
    if np.count_nonzero(far) < 2:
        return True
    fi, fj = I[far], J[far]
    # two far cells are far from each other only if their bounding box is
    if _corner_k(fi.max() - fi.min(), fj.max() - fj.min()) <= far_cap:
        return True
    # otherwise the farthest pair is among the rows' extreme cells
    ri, rj = _row_extremes(fi, fj)
    k = _corner_k(ri[:, None] - ri, rj[:, None] - rj)
    a, b = divmod(int(k.argmax()), len(ri))
    if k[a, b] <= far_cap:
        return True
    witnesses.append((far_cap, int(ri[a]), int(rj[a]), int(ri[b]), int(rj[b])))
    return False


def anneal(config: SearchConfig) -> SearchResult:
    """Measure-maximizing annealing over single boundary-cell flips.

    Seeded at the inner raster of U_delta (regions.inner_raster), the
    cells whose corners lie in one of its unit disks. Of any three seed
    cells two share a disk, so no two of their points are more than 2
    apart, and every corner lies in U_delta, whose diameter is delta. A
    flip that would give two cells a corner metric above diam_cap, or
    make three cells pairwise far (_caps), is rejected outright;
    feasible additions are always taken and removals are taken with
    probability exp(delta_measure / T) under geometric cooling. Removals
    cannot create far pairs or triples, and an addition only creates
    them through the new cell, so checking those against every current
    cell keeps both invariants exact. The result carries the post-hoc
    verification of _feasibility.

    Four shortcuts leave the result unchanged. Whether an addition is
    feasible is monotone in the region: more cells only add far pairs and
    far triples. So a rejected cell stays rejected until a removal is
    accepted, and is not re-evaluated before then; the check draws no
    random numbers. By the same monotonicity a rejection's witness, the
    region cell beyond diam_cap or the far pair that rejected it, rejects
    every later candidate beyond the cap from it (from both cells of a
    pair) for as long as its cells stay in the region, that is until a
    removal is accepted; those candidates skip the scan
    (_addition_is_feasible). Two cells far from the new one are far from
    each other only if the corner metric of the far cells' bounding box
    exceeds far_cap, and otherwise the largest corner metric among the far
    cells is taken over each row's two extreme cells (see _row_extremes).
    And the loop stops once nothing can change. With every frontier cell
    memo-rejected only an accepted removal can, in one of the R iterations
    before the falling removal probability p is 0.0 (_warm_iterations).
    They read the next R words; the loop stops when none is live
    (_first_live_word). A check changes no move's word, the next one waits
    until the region changes or the loop reads past the live word it
    found, and none starts while p * R >= 1. The report gives the
    requested iterations.

    Deterministic for a given config: every move reads the next raw word of
    np.random.PCG64(seed), laid out as in _MoveStream. A move on a region
    of more than one cell, with a removable one, picks addition or removal
    by bit 32, and any other move adds; the cell is the frontier item
    of the low 32 bits, and a removal is taken by the top 31 bits. A
    longer run extends a shorter one's trajectory.
    """
    delta, h = config.delta, config.h
    if not (bounds.DISK_REGIME_MAX < delta < 4.0):
        raise ValueError(
            f"anneal explores the window 4/sqrt(3) < delta < 4, got delta={delta}"
        )

    seed = inner_raster(u_delta_shape(delta), h)
    if seed.is_empty():
        raise InfeasibleStartError(f"h={h} too coarse for delta={delta}: no cell fits in a unit disk")

    # the region's cells, filed in the slots of the index arrays I and J
    region = _IndexedSet(list(map(tuple, seed.cells.tolist())))
    # cell indices in slots [0, len(region)); the arrays double when full
    I = np.empty(2 * len(region), dtype=np.int64)
    J = np.empty_like(I)
    I[: len(region)], J[: len(region)] = seed.cells.T

    add_frontier, remove_frontier = _seed_frontiers(seed.cells)
    caps = _caps(delta, h)
    moves = _MoveStream(config.seed)
    measure = len(region) * h * h
    baseline_measure = best_measure = measure
    # the best region is copied only when a removal leaves it, or at the end
    at_best = True
    accepted = 0
    temperature = config.t0
    # additions found infeasible since the last accepted removal, and the
    # region cells that showed it (see _addition_is_feasible)
    rejected: set[tuple[int, int]] = set()
    witnesses: list[tuple[int, int, int, int, int]] = []
    # the live word a frozen check found, or -1 once the region changes
    recheck = -1


    def apply_flip(cell: tuple[int, int], adding: bool) -> None:
        nonlocal I, J, recheck
        recheck = -1
        if adding:
            slot = len(region)
            if slot == len(I):
                I = np.concatenate([I, np.empty_like(I)])
                J = np.concatenate([J, np.empty_like(J)])
            I[slot], J[slot] = cell
            region.add(cell)
        else:
            # the last slot's cell moves into the vacated one
            slot, last = region.discard(cell), len(region)
            I[slot], J[slot] = I[last], J[last]
        _refile(cell, region, add_frontier, remove_frontier)

    hh, cooling, word = h * h, config.cooling, moves.word
    for left in range(config.iterations, 0, -1):
        remove_probability = math.exp(-hh / temperature) if temperature > 0.0 else 0.0
        # Between accepted removals every rejected cell stays outside the
        # region next to it, so rejected is a subset of add_frontier; equal
        # sizes mean every add is memo-rejected (see the docstring).
        if len(rejected) == len(add_frontier) and moves.position > recheck:
            warm = min(left, _warm_iterations(hh, temperature, cooling)) if remove_probability else 0
            if remove_probability * warm < 1.0:
                recheck = _first_live_word(moves, warm, remove_probability)
                if recheck is None:
                    break
        w = word()
        # a nonempty finite region always has a cell to add beside it
        if not (len(remove_frontier) > 0 and len(region) > 1) or w >> 32 & 1:
            cell = add_frontier.listed[(w & 0xFFFFFFFF) * len(add_frontier) >> 32]
            if cell in rejected or not _addition_is_feasible(I, J, len(region), cell, caps, witnesses):
                rejected.add(cell)
            else:
                apply_flip(cell, adding=True)
                accepted += 1
                measure = len(region) * h * h
                if measure > best_measure:
                    best_measure = measure
                    at_best = True
        else:
            cell = remove_frontier.listed[(w & 0xFFFFFFFF) * len(remove_frontier) >> 32]
            if (w >> 33) * 2.0**-31 < remove_probability:
                if at_best:
                    best_cells = np.column_stack([I[: len(region)], J[: len(region)]])
                    at_best = False
                apply_flip(cell, adding=False)
                rejected.clear()
                witnesses.clear()
                accepted += 1
        temperature *= cooling

    if at_best:
        best_cells = np.column_stack([I[: len(region)], J[: len(region)]])
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
