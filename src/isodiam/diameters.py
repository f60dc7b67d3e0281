"""Generalized diameters of finite planar point sets.

diam     largest pairwise distance.
diam3    largest t such that three points are pairwise at distance >= t
         (equivalently the sup over triples of the smallest pairwise
         distance inside the triple). A set satisfies the T(3,2) property
         with threshold 2 exactly when diam3 <= 2.
diam_ab  sup over a-subsets of the min over b-subsets of the largest
         pairwise distance inside the b-subset; at b = 2, of the smallest
         pairwise distance, so diam_ab(s, 3, 2) is diam3 by definition.
tab_check  decision form: among any a points, some b of them are pairwise
         within the threshold.

All routines are pure and operate on immutable PointSet values, whose
coordinates were checked against the coordinate window once, when the set
was built, so their squared differences stay normal floats; diam, diam3
and triameter share the set's one convex hull. diam3 and diam_ab at b = 2
are one sweep that inserts pairs longest first until a clique of a points
closes. Above 400 points the sweep keeps only the points that can be in a
far clique: those with a hull vertex beyond a sampled floor L, and room
in the set's enclosing disk for two partners at least L from them and
from each other. tab_check runs one exact subset search over Python-int
bitmasks of the "within the threshold" graph, pruned by pigeonhole on a
partition of that graph into cliques; diam_ab at b >= 3 climbs from
witness to witness, resuming each search at the last witness and adding
each pair to the masks once.
diam_ab and tab_check guard up front on C(n, a) against a configurable
budget and raise BudgetExceededError naming the budget a call would need,
before any distance is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .geometry import Point, PointSet, hull_diameter

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
    """Sup over triples of their smallest pairwise distance: _clique_diam at a = 3."""
    return _clique_diam(s, 3, "diam3")


def _clique_diam(s: PointSet, a: int, what: str) -> float:
    """Largest t such that some a points are pairwise at distance >= t,
    zero below a points: the length of the pair that closes the first
    a-clique when pairs go in longest first (_first_clique), exactly and
    whatever the order among tied pairs.

    Above _PREFILTER_MIN points, the value L of a stride sample of about
    _SUBSAMPLE points joined with the hull vertices is a lower bound: its
    best a points are points of the full set, pairwise at squared distance
    >= L^2 by the same expression on the same floats. So only those pairs
    are sorted, among the points that pass two tests which every point of
    a best a-subset passes. First, its largest squared distance to a hull
    vertex is at least L^2 * (1 - 1e-9): each of the best a points has a
    partner at least L away, and the farthest point from any point is a
    vertex of the exact hull, at least half the diameter D away. The
    computed hull drops only points within a few ulps of D of its
    boundary, and squared distances inside the coordinate window are
    within a few ulps of exact, so the margin dwarfs the rounding. Second,
    where L > 0, the enclosing disk leaves room for two partners at least
    L apart (_room_for_two). The survivors keep their order and their
    pairs' floats, so the sweep closes on the unpruned sweep's float.

    Pairs are built _BAND rows at a time, keeping those above the floor,
    so memory grows as _BAND * n plus the kept pairs; more than _MAX_PAIRS
    pairs raise MemoryError before any is built.
    """
    coords = s.to_array()
    n = len(coords)
    if n < a:
        return 0.0
    _check_pairs(f"{what} of {n} points", n)
    floor2 = 0.0
    if n > _PREFILTER_MIN:
        hull = s.hull()
        # sorted and deduplicated here: np.union1d (numpy >= 2.3) imports
        # numpy.ma, some 15 ms, to rule out a masked array
        picks = np.sort(np.concatenate([np.arange(0, n, n // _SUBSAMPLE), hull]))
        floor2 = _first_clique_d2(coords[picks[np.diff(picks, prepend=-1) != 0]], 0.0, a)
        keep = _farthest_d2(coords, coords[hull]) >= floor2 * (1 - 1e-9)
        if floor2 > 0.0:
            keep &= _room_for_two(coords, coords[hull], s.enclosing_circle().center, floor2)
        coords = coords[keep]
    return float(np.sqrt(_first_clique_d2(coords, floor2, a)))


# See _clique_diam: sub-sample size and threshold of the prefilter; and
# the number of pairs _first_clique inserts per vectorized test.
_PREFILTER_MIN = 400
_SUBSAMPLE = 200
_BLOCK = 512
# rows per band of the pair build: the band's distance arrays take
# _BAND * n floats, whatever n is
_BAND = 64

# Cap on the pairs of diam3, diam_ab, tab_check and search's verifier, the
# raster cap of regions: up to 7,071 points. It bounds the work; the bands
# bound the sweep's memory, unless nearly all its pairs are equally long.
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


def _room_for_two(coords: np.ndarray, hull: np.ndarray, center: Point, floor2: float) -> np.ndarray:
    """Whether the part of the disk D(c, rho) at least L = sqrt(floor2)
    from each point p of coords may hold two points at least L apart.

    rho^2 is the largest squared distance from c to a hull vertex, so the
    disk holds every point whatever c is, and in a best a-subset (a >= 3)
    with pairs at least L long, the other points of p's subset lie in that
    part, two of them at least L apart. The part lies in the cap of the
    disk beyond the chord where the circle of radius L around p crosses
    the disk's circle: with c at the origin and p on the positive x axis,
    |x - p|^2 >= L^2 and |x|^2 <= rho^2 give x_1 <= (rho^2 + |p|^2 - L^2)
    / (2 |p|). In units of rho^2, with t = |p - c|^2, lambda = L^2 and
    g = t + 1 - lambda, that cap is smaller than a half disk exactly when
    g < 0, and its diameter is then its chord, of squared length
    (4t - g^2) / t. So p is dropped when g < 0 and 4t - g^2 < lambda * t.
    An empty part (sqrt(t) + 1 < sqrt(lambda)) is among these: then
    g < -2 sqrt(t), and 4t - g^2 is negative.

    Each margin, a relative 1e-9, only keeps more points. rho^2 is grown:
    the disk then also holds the points the computed hull drops within a
    few ulps of its edges, and a larger disk leaves a larger part. L^2 is
    shrunk: the part at least L from p grows and the partners need less
    room. The right-hand side is shrunk: a p within rounding of the
    boundary stays. The ratios keep t, lambda and g of order 1 (t is at
    most 1 up to rounding), so each is within a few ulps of 1 of exact,
    far inside the margins, and no term overflows or underflows anywhere
    in the coordinate window. floor2 must be > 0, so that rho^2 is.
    """
    cx, cy = center.x, center.y
    rho2 = float(_farthest_d2(np.array([[cx, cy]]), hull)[0]) * (1 + 1e-9)
    lam = floor2 * (1 - 1e-9) / rho2
    dx = coords[:, 0] - cx
    dy = coords[:, 1] - cy
    t = (dx * dx + dy * dy) / rho2
    g = t + (1.0 - lam)
    return (g >= 0.0) | (4.0 * t - g * g >= lam * (1 - 1e-9) * t)


def _toggle_edges(adj: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> None:
    """Flip the bits of edges (iu[k], ju[k]) in both adjacency rows."""
    for a, b in ((iu, ju), (ju, iu)):
        bits = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
        np.bitwise_xor.at(adj, (a, b >> 6), bits)


def _first_clique_d2(coords: np.ndarray, floor2: float, a: int) -> float:
    """Squared length of the pair that closes the first a-clique when pairs
    of squared length >= floor2 go in longest first; 0.0 if none does."""
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
    k = _first_clique(n, iu[order], ju[order], a)
    return 0.0 if k is None else float(d2[order[k]])


class _Rows(dict):
    """Python-int copies of the packed rows of adj, made on first use."""

    def __init__(self, adj: np.ndarray):
        super().__init__()
        self.adj = adj

    def __missing__(self, r: int) -> int:
        self[r] = row = int.from_bytes(self.adj[r].tobytes(), "little")
        return row

    def has_clique(self, cand: int, k: int) -> bool:
        """Whether the points of mask cand hold a k-clique (k >= 1), trying a
        point only with k - 1 points left and as many later neighbours."""
        while cand.bit_count() >= k:
            low = cand & -cand
            cand ^= low
            if k == 1:
                return True
            nbrs = cand & self[low.bit_length() - 1]
            if nbrs.bit_count() >= k - 1 and (k == 2 or self.has_clique(nbrs, k - 1)):
                return True
        return False


def _first_clique(n: int, iu: np.ndarray, ju: np.ndarray, a: int) -> int | None:
    """Index of the first pair (iu[k], ju[k]) that closes an a-clique of n
    points when the pairs go in in order, or None. They go into bit-packed
    adjacency rows _BLOCK at a time, and a block in which no pair's ends
    share a neighbour closes no clique (one would show on its last pair).
    Any other block is replayed pair by pair on Python-int rows, testing
    each pair's common neighbourhood for an (a - 2)-clique; a replayed
    block that closes none (only possible for a > 3) stays in.
    """
    # little-endian words, so a row's bytes read as one Python int
    adj = np.zeros((n, (n + 63) >> 6), dtype="<u8")
    for lo in range(0, len(iu), _BLOCK):
        bi, bj = iu[lo : lo + _BLOCK], ju[lo : lo + _BLOCK]
        _toggle_edges(adj, bi, bj)
        if not (adj[bi] & adj[bj]).any():
            continue
        _toggle_edges(adj, bi, bj)
        rows = _Rows(adj)
        for k, (i, j) in enumerate(zip(bi.tolist(), bj.tolist()), lo):
            if rows.has_clique(rows[i] & rows[j], a - 2):
                return k
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        _toggle_edges(adj, bi, bj)
    return None


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
    is <= t. At b = 2, v(W) is the smallest pair distance in W, and the
    value is one clique sweep (_clique_diam). At b >= 3, starting at t = 0,
    while the subset search finds a violating W at t, t moves up to v(W):
    v(W) > t because W violates, and v(W) is at most the value. When the
    search finds no violating subset, t is the value. Every t is an entry
    of the distance matrix, so the result is the pair distance itself, bit
    for bit. Raising t only adds close pairs, so neither W nor a subset
    before it violates at v(W), and each search starts at W (the floor of
    _first_violating): together they walk the a-subsets once. Each builds
    its clique partition at its own t, not at an earlier, smaller one. The
    close masks only gain bits as t rises, so the pairs are sorted by
    distance once, and each step ORs in those that t has passed.
    """
    _validate_ab(a, b)
    coords = s.to_array()
    n = len(coords)
    _check_budget(n, a, budget)
    if b == 2:
        return _clique_diam(s, a, "diam_ab")
    if n < a:
        return 0.0
    _check_pairs(f"diam_ab of {n} points", n)
    D = _distance_matrix(coords)
    value = 0.0

    def cliques() -> _Partition:
        return _clique_partition(coords, D, value)

    # the pairs i < j by distance: close[i] gets bit j once D[i, j] <= value
    iu, ju = np.triu_indices(n, 1)
    d = D[iu, ju]
    order = np.argsort(d)
    iu, ju, d = iu[order], ju[order], d[order]
    close = [0] * n
    done, w = 0, None
    while True:
        upto = int(np.searchsorted(d, value, side="right"))
        for i, j in zip(iu[done:upto].tolist(), ju[done:upto].tolist()):
            close[i] |= 1 << j
        done = upto
        if (w := _first_violating(close, n, a, b, cliques, w)) is None:
            return float(value)
        value = min(max(D[u, v] for u, v in combinations(sub, 2)) for sub in combinations(w, b))


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
    _check_pairs(f"tab_check of {n} points", n)
    D = _distance_matrix(coords)
    witness = _first_violating(_close_masks(D, threshold), n, a, b, lambda: _clique_partition(coords, D, threshold))
    return TabCheckResult(holds=witness is None, witness=witness)


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
    floor: tuple[int, ...] | None = None,
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
    points it still needs is not extended. And by pigeonhole (_fits): a
    violating subset holds at most b - 1 points of each clique C of the
    partition cliques() builds (_clique_partition), so a partial whose
    candidates cannot supply what it needs that way is not extended, and a
    partition whose sum of min(|C|, b - 1) is below a proves that no
    a-subset violates. The partition is built only once the search has
    been handed _PARTITION_AFTER * n candidates, so the build costs about
    what the search has already spent, and a search that stops earlier
    pays nothing for it. A floor W, an a-subset, starts the search at W:
    while the partial is W's prefix of d points, the candidates below W[d]
    are dropped, and a pick above W[d] leaves the prefix and the floor.
    """
    partition: _Partition | None = None
    handed = 0
    prefix = [sum(1 << i for i in floor[:d]) for d in range(a)] if floor else []  # floor[:d] as masks

    def extend(cand: int, forbid: int, levels: list[list[int]], taken: int, need: int) -> int | None:
        nonlocal partition, handed
        if prefix and taken == prefix[a - need]:
            cand &= -1 << floor[a - need]
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
            nxt = cand & ~grown_forbid  # cand: the candidates above j, none in forbid
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
