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

All routines are pure and operate on immutable PointSet values. Subset
scans guard up front on C(n, a) against a configurable budget and raise
BudgetExceededError naming the budget a call would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .geometry import Point, PointSet, convex_hull_indices

__all__ = [
    "DEFAULT_SUBSET_BUDGET",
    "BudgetExceededError",
    "TabCheckResult",
    "DiameterReport",
    "diam",
    "diam3",
    "diam_ab",
    "triameter",
    "tab_check",
    "diameter_report",
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

    def witness_points(self, s: PointSet) -> tuple[Point, ...] | None:
        if self.witness is None:
            return None
        return tuple(s[i] for i in self.witness)


@dataclass(frozen=True)
class DiameterReport:
    diam: float
    diam3: float
    triameter: float
    ab_entries: tuple[tuple[int, int, float], ...] = ()


def _coords(s: PointSet | Sequence[Point]) -> np.ndarray:
    if isinstance(s, PointSet):
        return s.to_array()
    return PointSet(s).to_array()


def diam(s: PointSet | Sequence[Point]) -> float:
    """Largest pairwise distance. Raises ValueError on an empty set."""
    coords = _coords(s)
    n = len(coords)
    if n == 0:
        raise ValueError("diam of an empty point set")
    if n == 1:
        return 0.0
    hull = convex_hull_indices(coords)
    pts = coords[hull]
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1).max()
        if d2 > best:
            best = float(d2)
    return float(np.sqrt(best))


def diam3(s: PointSet | Sequence[Point]) -> float:
    """Sup over triples of the smallest pairwise distance in the triple.

    Zero for fewer than three points. Computed by inserting pairs in order
    of decreasing distance until the first triangle closes; that edge is
    the smallest edge of the best triple, so its length is the answer. The
    closing length is max over triples of the min side whatever the order
    among tied pairs, so the result is exact, with no tolerance, and does
    not depend on how ties are broken.

    Two shortcuts keep it exact. Above _PREFILTER_MIN points, diam3 of a
    stride sub-sample of about _SUBSAMPLE points is a lower bound L: its
    best triple is a triple of the full set. The best triple of the full
    set has every side >= L, so only pairs at squared distance >= L^2 are
    sorted; squared distances are computed the same way for the sample
    and the full set, so the bound holds bit for bit. The pairs are then
    inserted _BLOCK at a time into bit-packed adjacency rows: if no edge of
    a block has a common neighbour afterwards, no triangle has closed yet
    (a triangle closed in the block would show on its last edge), and only
    the block where one first closes is replayed pair by pair.
    """
    coords = _coords(s)
    n = len(coords)
    if n < 3:
        return 0.0
    floor2 = 0.0
    if n > _PREFILTER_MIN:
        floor2 = _first_triangle_d2(coords[:: n // _SUBSAMPLE], 0.0)
    return float(np.sqrt(_first_triangle_d2(coords, floor2)))


# See diam3: sub-sample size and threshold of the prefilter, and the
# number of pairs inserted per vectorized triangle test.
_PREFILTER_MIN = 400
_SUBSAMPLE = 200
_BLOCK = 512


def _toggle_edges(adj: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> None:
    """Flip the bits of edges (iu[k], ju[k]) in both adjacency rows."""
    for a, b in ((iu, ju), (ju, iu)):
        bits = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
        np.bitwise_xor.at(adj, (a, b >> 6), bits)


def _first_triangle_d2(coords: np.ndarray, floor2: float) -> float:
    """Squared length of the first pair that closes a triangle when pairs
    at squared distance >= floor2 are inserted longest first."""
    iu, ju = np.triu_indices(len(coords), k=1)
    x, y = coords[:, 0], coords[:, 1]
    d2 = x[iu] - x[ju]
    d2 *= d2
    dy = y[iu] - y[ju]
    dy *= dy
    d2 += dy
    keep = np.flatnonzero(d2 >= floor2)
    order = keep[np.argsort(-d2[keep])]
    iu, ju, d2 = iu[order], ju[order], d2[order]
    # little-endian words, so a row's bytes read as one Python int below
    adj = np.zeros((len(coords), (len(coords) + 63) >> 6), dtype="<u8")
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
    if comb(n, a) > budget:
        raise BudgetExceededError(n, a, budget)


def _validate_ab(a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)) or not (a > b >= 2):
        raise ValueError(f"need integers a > b >= 2, got a={a}, b={b}")


def diam_ab(
    s: PointSet | Sequence[Point],
    a: int,
    b: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> float:
    """Generalized (a, b) diameter by guarded subset scan.

    Returns 0 when the set has fewer than a points. The scan is a
    depth-first enumeration of a-subsets in lexicographic order; a branch
    is cut when the running min over b-subsets of the partial selection
    can no longer beat the best value found, which never changes the
    result because adding points only shrinks that min.
    """
    _validate_ab(a, b)
    coords = _coords(s)
    n = len(coords)
    if n < a:
        return 0.0
    _check_budget(n, a, budget)
    D = _distance_matrix(coords)

    inner_pairs = list(combinations(range(b), 2))
    best = 0.0
    chosen: list[int] = []

    def sub_max(sigma: tuple[int, ...]) -> float:
        return max(D[sigma[u], sigma[v]] for u, v in inner_pairs)

    def extend(start: int, running_min: float) -> None:
        nonlocal best
        depth = len(chosen)
        if depth == a:
            if running_min > best:
                best = running_min
            return
        for j in range(start, n - (a - depth) + 1):
            new_min = running_min
            if depth >= b - 1:
                for rest in combinations(chosen, b - 1):
                    val = sub_max(rest + (j,))
                    if val < new_min:
                        new_min = val
            if new_min <= best and best > 0.0:
                continue
            chosen.append(j)
            extend(j + 1, new_min)
            chosen.pop()

    extend(0, float("inf"))
    return float(best)


def tab_check(
    s: PointSet | Sequence[Point],
    a: int,
    b: int,
    threshold: float,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> TabCheckResult:
    """Does every a-subset contain b points pairwise within the threshold?

    The inequality is closed: a pair at exactly the threshold counts as
    within it. Violations are searched depth first over index-ascending
    partial subsets, skipping any partial that already contains a
    satisfied b-subset (every completion of such a partial is satisfied
    too), so the first full a-subset reached is the lexicographically
    first violating one. Fewer than a points hold vacuously.
    """
    _validate_ab(a, b)
    if not np.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    coords = _coords(s)
    n = len(coords)
    if n < a:
        return TabCheckResult(holds=True)
    _check_budget(n, a, budget)
    D = _distance_matrix(coords)

    if b == 2:
        witness = _first_far_clique(D, n, a, threshold)
    else:
        witness = _first_violating_generic(D, n, a, b, threshold)
    if witness is None:
        return TabCheckResult(holds=True)
    return TabCheckResult(holds=False, witness=witness)


def _first_far_clique(D: np.ndarray, n: int, a: int, t: float) -> tuple[int, ...] | None:
    """Lexicographically first a-subset with all pairs strictly beyond t.

    For b = 2 a violating subset is exactly a clique of the "farther than
    t" graph, so the scan carries candidate sets as integer bitmasks.
    """
    far = D > t
    adj = [int.from_bytes(np.packbits(far[i], bitorder="little").tobytes(), "little") for i in range(n)]
    above = [((1 << n) - 1) ^ ((1 << (i + 1)) - 1) for i in range(n)]
    chosen: list[int] = []

    def extend(cand: int) -> tuple[int, ...] | None:
        if len(chosen) == a:
            return tuple(chosen)
        need = a - len(chosen)
        c = cand
        while c:
            j = (c & -c).bit_length() - 1
            c &= c - 1
            if n - j < need:
                return None
            chosen.append(j)
            got = extend(cand & adj[j] & above[j])
            if got is not None:
                return got
            chosen.pop()
        return None

    return extend((1 << n) - 1)


def _first_violating_generic(
    D: np.ndarray, n: int, a: int, b: int, t: float
) -> tuple[int, ...] | None:
    chosen: list[int] = []

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == a:
            return tuple(chosen)
        need = a - len(chosen)
        for j in range(start, n - need + 1):
            # adding j must not complete a b-subset that sits within t
            satisfied = False
            if len(chosen) >= b - 1:
                for rest in combinations(chosen, b - 1):
                    sigma = rest + (j,)
                    if all(D[u, v] <= t for u, v in combinations(sigma, 2)):
                        satisfied = True
                        break
            if satisfied:
                continue
            chosen.append(j)
            got = extend(j + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    return extend(0)


def triameter(s: PointSet | Sequence[Point]) -> float:
    """Largest triangle area over point triples, zero below three points.

    A maximal-area triangle has its vertices on the convex hull, so only
    hull vertices are enumerated.
    """
    coords = _coords(s)
    if len(coords) < 3:
        return 0.0
    hull = convex_hull_indices(coords)
    if len(hull) < 3:
        return 0.0
    pts = coords[hull]
    m = len(pts)
    best = 0.0
    for i in range(m - 2):
        for j in range(i + 1, m - 1):
            vx = pts[j, 0] - pts[i, 0]
            vy = pts[j, 1] - pts[i, 1]
            rest = pts[j + 1 :]
            cross = vx * (rest[:, 1] - pts[i, 1]) - vy * (rest[:, 0] - pts[i, 0])
            peak = float(np.abs(cross).max())
            if peak > best:
                best = peak
    return best / 2.0


def diameter_report(
    s: PointSet | Sequence[Point],
    ab_pairs: Sequence[tuple[int, int]] = (),
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> DiameterReport:
    """Bundle diam, diam3, triameter and any requested (a, b) entries."""
    entries = tuple((a, b, diam_ab(s, a, b, budget=budget)) for a, b in ab_pairs)
    return DiameterReport(
        diam=diam(s),
        diam3=diam3(s),
        triameter=triameter(s),
        ab_entries=entries,
    )
