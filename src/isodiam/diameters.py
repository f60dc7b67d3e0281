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
was built, so their squared differences stay normal floats. diam_ab
and tab_check share one exact subset search over Python-int bitmasks of
the "within the threshold" graph. Both still guard up front on C(n, a)
against a configurable budget and raise BudgetExceededError naming the
budget a call would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .geometry import PointSet, convex_hull_indices, hull_diameter

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
    return hull_diameter(coords)


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
        hull = convex_hull_indices(coords)
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
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


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
    at its first witness; only the last one explores a whole tree.
    """
    _validate_ab(a, b)
    coords = s.to_array()
    n = len(coords)
    _check_budget(n, a, budget)
    if n < a:
        return 0.0
    D = _distance_matrix(coords)
    value = 0.0
    while (w := _first_violating(_close_masks(D, value), n, a, b)) is not None:
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
    witness = _first_violating(_close_masks(_distance_matrix(coords), threshold), n, a, b)
    if witness is None:
        return TabCheckResult(holds=True)
    return TabCheckResult(holds=False, witness=witness)


def _close_masks(D: np.ndarray, t: float) -> list[int]:
    """Bit j of entry i is set when j > i and D[i, j] <= t. The subset
    search only ever looks at points above the last one chosen."""
    packed = np.packbits(np.triu(D <= t, k=1), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _first_violating(close: list[int], n: int, a: int, b: int) -> tuple[int, ...] | None:
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
    points join. A partial whose remaining candidates are too few for the
    points it still needs is not extended; that cuts only subtrees with no
    full subset in them, so the witness is unchanged.
    """
    above = [((1 << n) - 1) ^ ((1 << (i + 1)) - 1) for i in range(n)]
    chosen: list[int] = []

    def extend(cand: int, forbid: int, levels: list[list[int]]) -> tuple[int, ...] | None:
        need = a - len(chosen)
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            if n - j < need:
                return None
            if need == 1:
                return (*chosen, j)
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
            if nxt.bit_count() < need - 1:
                continue
            chosen.append(j)
            got = extend(nxt, grown_forbid, grown)
            if got is not None:
                return got
            chosen.pop()
        return None

    return extend((1 << n) - 1, 0, [[] for _ in range(b - 2)])


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
    hull = convex_hull_indices(coords)
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
