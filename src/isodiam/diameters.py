"""Generalized diameters of finite planar point sets.

diam     largest pairwise distance.
diam3    largest t such that three points are pairwise at distance >= t
         (equivalently the sup over triples of the smallest pairwise
         distance inside the triple). A set satisfies the T(3,2) property
         with threshold 2 exactly when diam3 <= 2.
diam_ab  sup over a-subsets of the min over b-subsets of the largest
         pairwise distance inside the b-subset. diam_ab(s, 3, 2) coincides
         with diam3 by definition.
tab_check  decision form: among any a points, some b of them are pairwise
         within the threshold.

All routines are pure and operate on immutable PointSet values, whose
coordinates were checked against the coordinate window once, when the set
was built, so their squared differences stay normal floats; diam, diam3
and triameter share the set's one convex hull. diam_ab and tab_check share
one exact subset search over Python-int bitmasks of the "within the
threshold" graph. A search that runs long partitions the points into
cliques of that graph, in coordinate order, and cuts by pigeonhole: a
violating a-subset holds at most b - 1 points of a clique, so a partial
that cannot reach a points that way has no violating subset below it, and
cliques whose capacities sum below a prove the property outright. Both
still guard up front on C(n, a) against a configurable budget and raise
BudgetExceededError naming the budget a call would need, before any
distance is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .geometry import PointSet, hull_diameter

__all__ = [
    "DEFAULT_SUBSET_BUDGET",
    "BudgetExceededError",
    "TabCheckResult",
    "diam",
    "diam3",
    "diam_ab",
    "triameter",
    "tab_check",
]

# Default cap on the number of a-subsets a scan may enumerate. Chosen so a
# worst-case scan stays a desk-scale computation.
DEFAULT_SUBSET_BUDGET = 50_000_000


class BudgetExceededError(ValueError):
    """A subset scan would need more a-subsets than the configured budget."""

    def __init__(self, n: int, a: int, budget: int):
        self.required = comb(n, a)
        self.budget = budget
        super().__init__(
            f"scanning all {a}-subsets of {n} points needs a budget of "
            f"{self.required}, configured budget is {budget}"
        )


@dataclass(frozen=True)
class TabCheckResult:
    """Outcome of tab_check. witness is None when the property holds,
    otherwise the lexicographically first violating a-subset, as indices
    into the input point set."""

    holds: bool
    witness: tuple[int, ...] | None = None


def diam(s: PointSet) -> float:
    """Largest pairwise distance. Raises ValueError on an empty set."""
    coords = s.to_array()
    if len(coords) == 0:
        raise ValueError("diam of an empty point set")
    return hull_diameter(coords[s.hull()])


def diam3(s: PointSet) -> float:
    """Sup over triples of the smallest pairwise distance in the triple.

    Zero for fewer than three points. Computed by inserting pairs in order
    of decreasing distance until the first triangle closes; that edge is
    the smallest edge of the best triple, so its length is the answer. The
    closing length is max over triples of the min side whatever the order
    among tied pairs, so the result is exact, with no tolerance, and does
    not depend on how ties are broken.

    Three shortcuts keep it exact. Above _PREFILTER_MIN points, diam3 of a
    stride sub-sample of about _SUBSAMPLE points joined with the convex
    hull's vertices is a lower bound L: its best triple is a triple of the
    full set. The best triple of the full set has every side >= L, so only
    pairs at squared distance >= L^2 are sorted; squared distances are
    computed the same way for the sample and the full set, so the bound
    holds bit for bit. The pairs are then inserted _BLOCK at a time into
    bit-packed adjacency rows: if no edge of a block has a common neighbour
    afterwards, no triangle has closed yet (a triangle closed in the block
    would show on its last edge), and only the block where one first closes
    is replayed pair by pair.

    The points that cannot be in the best triple are dropped first: those
    whose largest squared distance to a hull vertex is below
    L^2 * (1 - 1e-9). The farthest point from any point p is a vertex of
    the exact hull, and its distance from p is at least half the diameter
    D. The computed hull drops only points within a few ulps of D of its
    boundary, and the squared distances, normal floats inside the
    coordinate window, are within a few ulps of exact, so each vertex of
    the best triple reaches a hull vertex at squared distance
    >= L^2 * (1 - 1e-12): the 1e-9 margin dwarfs the rounding. The
    survivors keep their order, so each of their pairs has the squared
    distance the full set computes for it, from the same expression on the
    same floats; every triangle among them is one of the full set, and the
    best triple is among them. So the closing pair is the same float.

    Pairs are built _BAND rows at a time and only those above the floor
    are kept, so memory grows as _BAND * n plus the kept pairs, not as
    n^2. The work still grows as n^2: a set of more than _MAX_PAIRS pairs
    raises MemoryError before any pair is built.
    """
    coords = s.to_array()
    n = len(coords)
    if n < 3:
        return 0.0
    _check_pairs(f"diam3 of {n} points", n)
    floor2 = 0.0
    if n > _PREFILTER_MIN:
        hull = s.hull()
        floor2 = _first_triangle_d2(coords[np.union1d(np.arange(0, n, n // _SUBSAMPLE), hull)], 0.0)
        coords = coords[_farthest_d2(coords, coords[hull]) >= floor2 * (1 - 1e-9)]
    return float(np.sqrt(_first_triangle_d2(coords, floor2)))


# See diam3: sub-sample size and threshold of the prefilter, and the
# number of pairs inserted per vectorized triangle test.
_PREFILTER_MIN = 400
_SUBSAMPLE = 200
_BLOCK = 512
# rows per band of the pair build: the band's distance arrays take
# _BAND * n floats, whatever n is
_BAND = 64

# Cap on the pairs diam3 measures and search verifies, the raster cap of
# regions: up to 7,071 points. It bounds the work; the bands bound the
# memory. The kept pairs can still approach the cap on sets whose pairs are
# nearly all equally long.
_MAX_PAIRS = 25_000_000

# Cap on the hull-vertex triples triameter measures: up to 1,145 vertices,
# about 3 s. Points in general position have few hull vertices, but points
# on a circle are all vertices.
_MAX_TRIPLES = 250_000_000


def _check_pairs(what: str, n: int) -> None:
    """Raise MemoryError, before anything is built, when n items have more
    than _MAX_PAIRS pairs."""
    pairs = n * (n - 1) // 2
    if pairs > _MAX_PAIRS:
        raise MemoryError(f"{what} needs {pairs} pairs, more than the cap of {_MAX_PAIRS}")


def _farthest_d2(coords: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Largest squared distance from each point of coords to the points
    of ends, taken _BAND ends at a time."""
    x, y = coords[:, :1], coords[:, 1:]
    best = np.zeros(len(coords))
    for lo in range(0, len(ends), _BAND):
        e = ends[lo : lo + _BAND]
        dx = x - e[:, 0]
        dx *= dx
        dy = y - e[:, 1]
        dy *= dy
        dx += dy
        np.maximum(best, dx.max(axis=1), out=best)
    return best


def _toggle_edges(adj: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> None:
    """Flip the bits of edges (iu[k], ju[k]) in both adjacency rows."""
    for a, b in ((iu, ju), (ju, iu)):
        bits = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
        np.bitwise_xor.at(adj, (a, b >> 6), bits)


def _first_triangle_d2(coords: np.ndarray, floor2: float) -> float:
    """Squared length of the first pair that closes a triangle when pairs
    at squared distance >= floor2 are inserted longest first."""
    n = len(coords)
    x, y = coords[:, 0], coords[:, 1]
    iu, ju, d2 = [], [], []
    for lo in range(0, n - 1, _BAND):
        # rows lo..hi-1 against columns lo+1..n-1: entry (r, c) is the pair
        # (lo + r, lo + 1 + c), and c >= r keeps the pairs with j > i
        hi = min(lo + _BAND, n - 1)
        band = x[lo:hi, None] - x[None, lo + 1 :]
        band *= band
        dy = y[lo:hi, None] - y[None, lo + 1 :]
        dy *= dy
        band += dy
        r, c = np.nonzero(band >= floor2)
        upper = c >= r
        r, c = r[upper], c[upper]
        iu.append(r + lo)
        ju.append(c + (lo + 1))
        d2.append(band[r, c])
    # kept pairs in triu row-major order, as one flat triu layout would list them
    iu, ju, d2 = np.concatenate(iu), np.concatenate(ju), np.concatenate(d2)
    order = np.argsort(-d2)
    iu, ju, d2 = iu[order], ju[order], d2[order]
    # little-endian words, so a row's bytes read as one Python int below
    adj = np.zeros((n, (n + 63) >> 6), dtype="<u8")
    for lo in range(0, len(d2), _BLOCK):
        bi, bj = iu[lo : lo + _BLOCK], ju[lo : lo + _BLOCK]
        if lo + _BLOCK < len(d2):
            _toggle_edges(adj, bi, bj)
            if not (adj[bi] & adj[bj]).any():
                continue
            _toggle_edges(adj, bi, bj)
        # a triangle closes in this block (the last block always closes
        # one): replay it pair by pair on Python-int copies of its rows
        rows = {r: int.from_bytes(adj[r].tobytes(), "little") for r in {*bi.tolist(), *bj.tolist()}}
        for i, j, dd in zip(bi.tolist(), bj.tolist(), d2[lo : lo + _BLOCK].tolist()):
            if rows[i] & rows[j]:
                return dd
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    raise AssertionError("no triangle among the pairs above the floor")


def _distance_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise distances sqrt(dx * dx + dy * dy), from (n, n) arrays."""
    dx = coords[:, :1] - coords[:, 0]
    dx *= dx
    dy = coords[:, 1:] - coords[:, 1]
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _check_budget(n: int, a: int, budget: int) -> None:
    if budget < 0:
        raise ValueError(f"subset budget must be >= 0, got {budget}")
    if comb(n, a) > budget:
        raise BudgetExceededError(n, a, budget)


def _validate_ab(a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)) or not (a > b >= 2):
        raise ValueError(f"need integers a > b >= 2, got a={a}, b={b}")


def diam_ab(
    s: PointSet,
    a: int,
    b: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> float:
    """Generalized (a, b) diameter by guarded subset scan.

    Returns 0 when the set has fewer than a points. The value is the max
    over a-subsets W of v(W), the min over b-subsets of W of the largest
    pair distance, and T(a, b) holds at threshold t exactly when the value
    is <= t. Starting at t = 0, while the subset search finds a violating
    W at t, t moves up to v(W): v(W) > t because W violates, and v(W) is at
    most the value. When the search finds no violating subset, t is the
    value. Every t is an entry of the distance matrix, so the result is the
    pair distance itself, bit for bit. Each step is one search that stops
    at its first witness; only the last one explores a whole tree. A
    search that runs long builds its clique partition at its own t: one
    built at an earlier, smaller t would still be valid, but has more
    cliques and prunes less.
    """
    _validate_ab(a, b)
    coords = s.to_array()
    n = len(coords)
    _check_budget(n, a, budget)
    if n < a:
        return 0.0
    D = _distance_matrix(coords)
    value = 0.0

    def cliques() -> _Partition:
        return _clique_partition(coords, D, value)

    while (w := _first_violating(_close_masks(D, value), n, a, b, cliques)) is not None:
        value = min(max(D[u, v] for u, v in combinations(sub, 2)) for sub in combinations(w, b))
    return float(value)


def tab_check(
    s: PointSet,
    a: int,
    b: int,
    threshold: float,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> TabCheckResult:
    """Does every a-subset contain b points pairwise within the threshold?

    The inequality is closed: a pair at exactly the threshold counts as
    within it. The lexicographically first violating a-subset is the
    witness (see _first_violating). Fewer than a points hold vacuously.
    """
    _validate_ab(a, b)
    if not np.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    coords = s.to_array()
    n = len(coords)
    _check_budget(n, a, budget)
    if n < a:
        return TabCheckResult(holds=True)
    D = _distance_matrix(coords)
    witness = _first_violating(
        _close_masks(D, threshold), n, a, b, lambda: _clique_partition(coords, D, threshold)
    )
    if witness is None:
        return TabCheckResult(holds=True)
    return TabCheckResult(holds=False, witness=witness)


def _close_masks(D: np.ndarray, t: float) -> list[int]:
    """Bit j of entry i is set when j > i and D[i, j] <= t. The subset
    search only ever looks at points above the last one chosen, so each
    packed row of D <= t has its bits up to i shifted out."""
    packed = np.packbits(D <= t, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") >> i + 1 << i + 1 for i in range(len(D))]


# a partition of the points into cliques: the clique masks, and the index
# of each point's clique
_Partition = tuple[list[int], list[int]]


def _clique_partition(coords: np.ndarray, D: np.ndarray, t: float) -> _Partition:
    """A partition of the points into cliques of the close graph D <= t.

    Grown greedily in coordinate order (x, then y): each clique starts at
    the first point left and takes, in that order, every point left that is
    close to all its members. The rows are those of the close masks' own
    test, D <= t, packed in coordinate order, so each member costs one
    big-int AND. A clique at t is a clique at any larger t.
    """
    n = len(coords)
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    packed = np.packbits((D <= t).take(order, 0).take(order, 1), axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    rows = [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]
    order = order.tolist()
    masks: list[int] = []
    label = [0] * n
    left = (1 << n) - 1
    while left:
        # the first point left is close to itself: it joins first
        common = rows[(left & -left).bit_length() - 1] & left
        mask = 0
        while common:
            low = common & -common
            common = (common ^ low) & rows[low.bit_length() - 1]
            left ^= low
            i = order[low.bit_length() - 1]
            mask |= 1 << i
            label[i] = len(masks)
        masks.append(mask)
    return masks, label


def _fits(partition: _Partition, b: int, taken: int, nxt: int, want: int) -> bool:
    """Whether the pigeonhole bound lets a partial of the points taken add
    want points from the candidates nxt: the sum over the cliques C of the
    partition of min(|nxt in C|, b - 1 - |taken in C|) reaches want. The
    cliques holding candidates are visited lowest candidate first, and the
    sum stops once it reaches want."""
    masks, label = partition
    got = 0
    while nxt and got < want:
        m = masks[label[(nxt & -nxt).bit_length() - 1]]
        got += min((nxt & m).bit_count(), b - 1 - (taken & m).bit_count())
        nxt &= ~m
    return got >= want


# Candidates handed to a subset search, per point, before it builds its
# clique partition. The build costs about 2 to 5 times n candidate tries
# (n = 50 and 600), so a search that gets this far has spent about as much
# as the build will cost.
_PARTITION_AFTER = 4


class _Proved(Exception):
    """The pigeonhole bound leaves no violating subset anywhere."""


def _first_violating(
    close: list[int],
    n: int,
    a: int,
    b: int,
    cliques: Callable[[], _Partition],
) -> tuple[int, ...] | None:
    """Lexicographically first a-subset with no b points pairwise close.

    A b-subset is pairwise within the threshold exactly when it is a
    b-clique of the close graph. Index-ascending partial subsets are
    extended depth first in increasing index order, so the first full
    a-subset reached is the lexicographically first violating one. A point
    may join only if it completes no b-clique: it must lie outside the
    common close neighbourhood of every (b - 1)-clique already chosen.
    Those neighbourhoods are ORed into the forbid mask. The cliques of 1 to
    b - 2 chosen points are kept level by level, as the masks of their
    common neighbourhoods, so that the (b - 1)-cliques can be grown as
    points join.

    Two bounds cut subtrees with no full subset in them, so the witness is
    unchanged. A partial whose remaining candidates are too few for the
    points it still needs is not extended. And by pigeonhole: a violating
    subset holds at most b - 1 points of any clique C of the close graph,
    so given a partition of the points into cliques (cliques() builds one,
    see _clique_partition), the points a partial can still add are at most
    the sum over C of min(|candidates in C|, b - 1 - |chosen in C|). A
    partial whose sum falls short of what it needs is not extended, and a
    partition whose sum of min(|C|, b - 1) is below a proves that no
    a-subset violates. The partition is built only once the search has
    been handed _PARTITION_AFTER * n candidates, so the build costs about
    what the search has already spent, and a search that stops earlier
    pays nothing for it.
    """
    above = [((1 << n) - 1) ^ ((1 << (i + 1)) - 1) for i in range(n)]
    partition: _Partition | None = None
    handed = 0

    def extend(cand: int, forbid: int, levels: list[list[int]], taken: int, need: int) -> int | None:
        nonlocal partition, handed
        if partition is None:
            handed += cand.bit_count()
            if handed >= _PARTITION_AFTER * n:
                partition = cliques()
                if sum(min(m.bit_count(), b - 1) for m in partition[0]) < a:
                    raise _Proved
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            if n - j < need:
                return None
            if need == 1:
                return taken | low
            cj = close[j]
            grown = []
            prev = [-1]  # the empty clique: every point is its neighbour
            for level in levels:
                grown.append(level + [m & cj for m in prev if m & low])
                prev = level
            grown_forbid = forbid
            for m in prev:
                if m & low:
                    grown_forbid |= m & cj
            nxt = above[j] & ~grown_forbid
            if nxt.bit_count() < need - 1 or partition and not _fits(partition, b, taken | low, nxt, need - 1):
                continue
            got = extend(nxt, grown_forbid, grown, taken | low, need - 1)
            if got is not None:
                return got
        return None

    try:
        witness = extend((1 << n) - 1, 0, [[] for _ in range(b - 2)], 0, a)
    except _Proved:
        return None
    return None if witness is None else tuple(i for i in range(n) if witness >> i & 1)


def triameter(s: PointSet) -> float:
    """Largest triangle area over point triples, zero below three points.

    A maximal-area triangle has its vertices on the convex hull, so only
    hull vertices are enumerated: for each first vertex i, one pass over
    the m^2 block of cross products of the later vertices j and k. A hull
    of more than _MAX_TRIPLES triples raises MemoryError before the first.
    """
    coords = s.to_array()
    if len(coords) < 3:
        return 0.0
    hull = s.hull()
    if len(hull) < 3:
        return 0.0
    triples = comb(len(hull), 3)
    if triples > _MAX_TRIPLES:
        raise MemoryError(
            f"triameter of {len(hull)} hull vertices needs {triples} triples, more than the cap of {_MAX_TRIPLES}"
        )
    pts = coords[hull]
    best = 0.0
    for i in range(len(pts) - 2):
        v = pts[i + 1 :] - pts[i]
        # entry (j, k) is twice the signed area of (i, j, k), and entry (k, j)
        # is its exact negation: the largest magnitude is that of some k > j
        cross = np.multiply.outer(v[:, 0], v[:, 1])
        cross -= np.multiply.outer(v[:, 1], v[:, 0])
        best = max(best, float(np.abs(cross, out=cross).max()))
    return best / 2.0
