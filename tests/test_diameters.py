import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isodiam.diameters as diameters_mod
import isodiam.geometry as geometry_mod
from isodiam.diameters import (
    BudgetExceededError,
    TabCheckResult,
    diam,
    diam3,
    diam_ab,
    tab_check,
    triameter,
)
from isodiam.geometry import PointSet
from isodiam.regions import _corner_hull, rasterize, u_delta_shape

# a PointSet refuses nonzero coordinates of magnitude below 2^-250
coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False).filter(
    lambda v: v == 0.0 or abs(v) >= 2.0**-250
)
small_sets = st.lists(st.tuples(coord, coord), min_size=3, max_size=8).map(PointSet)


def brute_diam3(s: PointSet) -> float:
    """sup over triples of the min pairwise distance, by full enumeration."""
    best = 0.0
    for a, b, c in itertools.combinations(s.to_array().tolist(), 3):
        m = min(math.dist(a, b), math.dist(a, c), math.dist(b, c))
        best = max(best, m)
    return best


def sorted_pair_diam3(s: PointSet) -> float:
    """diam3 by the plain scan: insert every pair longest first, one at a
    time, with Python-int bitsets, until a triangle closes."""
    coords = s.to_array()
    n = len(coords)
    if n < 3:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    d2 = np.sum((coords[iu] - coords[ju]) ** 2, axis=1)
    order = np.argsort(-d2, kind="stable")
    adj = [0] * n
    for idx in order:
        i = int(iu[idx])
        j = int(ju[idx])
        if adj[i] & adj[j]:
            return float(np.sqrt(d2[idx]))
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    raise AssertionError("no triangle closed")


def brute_diam_ab(s: PointSet, a: int, b: int) -> float:
    pts = s.to_array().tolist()
    if len(pts) < a:
        return 0.0
    best = 0.0
    for sub in itertools.combinations(pts, a):
        inner = min(
            max(math.dist(p, q) for p, q in itertools.combinations(bsub, 2))
            for bsub in itertools.combinations(sub, b)
        )
        best = max(best, inner)
    return best


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise distances, computed as the library computes them."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def dfs_diam_ab(s: PointSet, a: int, b: int) -> float:
    """diam_ab by the plain depth-first scan of a-subsets in lexicographic
    order, cutting a branch once the running min over b-subsets of the
    partial selection can no longer beat the best value found."""
    coords = s.to_array()
    n = len(coords)
    if n < a:
        return 0.0
    D = distance_matrix(coords)
    inner_pairs = list(itertools.combinations(range(b), 2))
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
                for rest in itertools.combinations(chosen, b - 1):
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


def generic_first_violating(s: PointSet, a: int, b: int, t: float) -> tuple[int, ...] | None:
    """Lexicographically first a-subset in which every b-subset has a pair
    beyond t, by a depth-first walk over index-ascending partial subsets
    that skips any partial already holding a b-subset within t."""
    coords = s.to_array()
    n = len(coords)
    D = distance_matrix(coords)
    chosen: list[int] = []

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == a:
            return tuple(chosen)
        need = a - len(chosen)
        for j in range(start, n - need + 1):
            satisfied = False
            if len(chosen) >= b - 1:
                for rest in itertools.combinations(chosen, b - 1):
                    sigma = rest + (j,)
                    if all(D[u, v] <= t for u, v in itertools.combinations(sigma, 2)):
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


def test_diam_basics():
    assert diam(PointSet([(0, 0)])) == 0.0
    assert diam(PointSet([(0, 0), (3, 4)])) == 5.0
    with pytest.raises(ValueError):
        diam(PointSet([]))


def test_diam3_unit_square():
    s = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert diam3(s) == pytest.approx(1.0, abs=1e-12)


def test_diam3_pair_cap_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(diameters_mod, "_MAX_PAIRS", 10)
    assert diam3(PointSet([(k, k * k) for k in range(5)])) > 0.0  # 10 pairs
    with pytest.raises(MemoryError, match="diam3 of 6 points needs 15 pairs"):
        diam3(PointSet([(k, k * k) for k in range(6)]))


@pytest.mark.parametrize("scan", [lambda s: diam_ab(s, 4, 3), lambda s: tab_check(s, 4, 3, 1.0)], ids=["diam_ab", "tab_check"])
def test_subset_scan_pair_cap_is_checked_before_the_distance_matrix(monkeypatch, scan):
    monkeypatch.setattr(diameters_mod, "_MAX_PAIRS", 10)
    assert scan(PointSet([(k, k * k) for k in range(5)])) is not None  # 10 pairs
    monkeypatch.setattr(diameters_mod, "_distance_matrix", mock.Mock(side_effect=AssertionError("built D")))
    with pytest.raises(MemoryError, match="of 6 points needs 15 pairs"):
        scan(PointSet([(k, k * k) for k in range(6)]))


def test_diam3_small_sets():
    assert diam3(PointSet([(0, 0), (5, 5)])) == 0.0
    s = PointSet([(0, 0), (2, 0), (1, math.sqrt(3))])  # equilateral side 2
    assert diam3(s) == pytest.approx(2.0, abs=1e-12)


def test_diam3_matches_bruteforce_seeded():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(3, 10))
        s = PointSet([tuple(r) for r in rng.uniform(-4, 4, size=(n, 2))])
        assert diam3(s) == pytest.approx(brute_diam3(s), abs=1e-9)


@functools.cache
def _diam3_equivalence_inputs() -> dict[str, PointSet]:
    """Inputs above the sub-sample threshold, for the exact comparison."""
    rng = np.random.default_rng(5)
    cases = {f"uniform-{n}": rng.uniform(-3, 3, size=(n, 2)) for n in (401, 1200, 2500)}
    gi, gj = np.meshgrid(np.arange(40), np.arange(36), indexing="ij")
    cases["lattice-centers"] = (np.stack([gi.ravel(), gj.ravel()], axis=1) + 0.5) * 0.05
    for delta in (3.0, 3.6):
        region = rasterize(u_delta_shape(delta), 0.05)
        # 2000 cell centers drawn with seed 1, then the corner hull
        centers = region.cell_centers()
        take = np.random.default_rng(1).integers(0, len(centers), size=2000)
        cases[f"support-u{delta}"] = np.concatenate([centers[take], _corner_hull(region)], axis=0)
    base = rng.uniform(-1, 1, size=(150, 2))
    cases["duplicates"] = np.concatenate([base, base, base[::-1]], axis=0)
    t = np.sort(rng.uniform(0, 1, size=450))
    cases["collinear"] = np.stack([1.0 - 3.0 * t, 2.0 + 1.5 * t], axis=1)
    # n - 1 rows have partners, so the last band is a full one
    cases["full-last-band"] = rng.uniform(-3, 3, size=(10 * diameters_mod._BAND + 1, 2))
    return {name: PointSet(pts) for name, pts in cases.items()}


@pytest.mark.parametrize("name", sorted(_diam3_equivalence_inputs()))
def test_diam3_equals_sorted_pair_scan(name):
    s = _diam3_equivalence_inputs()[name]
    assert len(s) > diameters_mod._PREFILTER_MIN
    assert diam3(s) == sorted_pair_diam3(s)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=30), st.integers(1, 8), st.integers(1, 8))
def test_diam3_prefilter_and_blocks_on_small_sets(pairs, block, band):
    """Forcing the sub-sample, tiny blocks and bands of 1 to 8 rows onto
    small sets exercises the prefilter, block boundaries, the replay,
    single-row bands, a short last band and a band wider than the set
    against both oracles."""
    s = PointSet(pairs)
    with (
        mock.patch.object(diameters_mod, "_PREFILTER_MIN", 2),
        mock.patch.object(diameters_mod, "_SUBSAMPLE", 3),
        mock.patch.object(diameters_mod, "_BLOCK", block),
        mock.patch.object(diameters_mod, "_BAND", band),
        mock.patch.object(geometry_mod, "_BAND", band),
    ):
        fast = diam3(s)
    assert fast == sorted_pair_diam3(s)
    assert fast == pytest.approx(brute_diam3(s), abs=1e-9)


def test_diam3_peak_memory_is_banded():
    """2,000 points make 2M pairs, 76 MiB as one flat pair layout; the
    bands and the kept pairs above the sub-sample floor fit in 16 MiB."""
    rng = np.random.default_rng(2)
    r = 1.5 * np.sqrt(rng.uniform(0, 1, 2000))
    t = rng.uniform(0, 2 * np.pi, 2000)
    s = PointSet(zip(r * np.cos(t), r * np.sin(t)))
    tracemalloc.start()
    try:
        value = diam3(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert value == sorted_pair_diam3(s)


def test_room_test_drops_most_of_a_uniform_disk():
    """On 2,000 points uniform in a disk, the farthest-vertex test keeps
    the points of an outer ring, and the enclosing disk's room test drops
    at least 80% of those: on the ring's near side, two far partners of a
    point would have to sit in a cap narrower than the floor."""
    rng = np.random.default_rng(3)
    r, t = 1.5 * np.sqrt(rng.uniform(0, 1, 2000)), rng.uniform(0, 2 * np.pi, 2000)
    s = PointSet(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    first = diameters_mod._first_clique_d2

    def survivors(room):
        sizes = []

        def spy(coords, floor2, a):
            sizes.append(len(coords))
            return first(coords, floor2, a)

        with (
            mock.patch.object(diameters_mod, "_first_clique_d2", spy),
            mock.patch.object(diameters_mod, "_room_for_two", room),
        ):
            value = diam3(s)
        return sizes[-1], value

    kept, value = survivors(diameters_mod._room_for_two)
    far, same = survivors(lambda coords, *rest: np.ones(len(coords), dtype=bool))
    assert value == same == sorted_pair_diam3(s)
    assert kept <= 0.2 * far


@settings(max_examples=60, deadline=None)
@given(small_sets)
def test_diam3_at_most_diam(s):
    assert diam3(s) <= diam(s) + 1e-9


def test_diam_ab_32_is_diam3():
    rng = np.random.default_rng(3)
    for _ in range(40):
        s = PointSet([tuple(r) for r in rng.uniform(0, 3, size=(7, 2))])
        assert diam_ab(s, 3, 2) == diam3(s)


def test_b2_sweep_above_the_prefilter_equals_the_unpruned_sweep():
    """Above _PREFILTER_MIN, diam_ab(s, 3, 2) is diam3, and at a = 3, 4
    and 5 the sample floor and hull prune give the unpruned sweep's float."""
    n = 450
    s = PointSet(np.random.default_rng(n).uniform(-3, 3, size=(n, 2)))
    assert n > diameters_mod._PREFILTER_MIN
    assert diam_ab(s, 3, 2) == diam3(s)
    for a in (3, 4, 5):
        value = diam_ab(s, a, 2, budget=10**15)
        with mock.patch.object(diameters_mod, "_PREFILTER_MIN", n):
            assert value == diam_ab(s, a, 2, budget=10**15)


@pytest.mark.parametrize("block", [1, 3])
def test_b2_sweep_replays_blocks_that_close_no_clique(block):
    """With blocks of 1 and 3 pairs, a pair whose ends share a neighbour
    but no (a - 2)-clique makes a replayed block that closes nothing and
    stays in; diam_ab(s, a, 2) still equals the depth-first scan."""
    rng = np.random.default_rng(17)
    replays = []

    class Rows(diameters_mod._Rows):
        def __init__(self, adj):
            super().__init__(adj)
            replays.append(1)

    with mock.patch.object(diameters_mod, "_BLOCK", block), mock.patch.object(diameters_mod, "_Rows", Rows):
        for _ in range(30):
            n = int(rng.integers(5, 13))
            s = PointSet(np.round(rng.uniform(-2, 2, size=(n, 2)), int(rng.integers(0, 3))))
            for a in (4, 5):
                assert diam_ab(s, a, 2) == dfs_diam_ab(s, a, 2)
    # each of the 60 sweeps replays one block that closes its clique; the
    # other replays closed none
    assert len(replays) > 2 * 60


@pytest.mark.parametrize("a", [3, 4, 5])
def test_b2_runs_no_subset_search_and_no_diam3(a):
    """diam_ab(s, a, 2) is the clique sweep alone: diam3 (which the
    benchmark counts), the subset search and its masks are never called."""
    s = _u3_points()
    want = dfs_diam_ab(s, a, 2)
    boom = AssertionError("b = 2 reached the subset search or diam3")
    with (
        mock.patch.object(diameters_mod, "diam3", side_effect=boom),
        mock.patch.object(diameters_mod, "_first_violating", side_effect=boom),
        mock.patch.object(diameters_mod, "_close_masks", side_effect=boom),
        mock.patch.object(diameters_mod, "_clique_partition", side_effect=boom),
    ):
        assert diam_ab(s, a, 2) == want


def test_diam_ab_matches_bruteforce():
    rng = np.random.default_rng(19)
    for a, b in ((3, 2), (4, 2), (4, 3), (5, 3)):
        for _ in range(25):
            n = int(rng.integers(a, 9))
            s = PointSet([tuple(r) for r in rng.uniform(-2, 2, size=(n, 2))])
            assert diam_ab(s, a, b) == pytest.approx(brute_diam_ab(s, a, b), abs=1e-9)


def test_diam_ab_short_set_is_zero():
    s = PointSet([(0, 0), (1, 0)])
    assert diam_ab(s, 4, 2) == 0.0


def test_diam_ab_monotone_in_b():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = PointSet([tuple(r) for r in rng.uniform(0, 4, size=(8, 2))])
        assert diam_ab(s, 5, 2) <= diam_ab(s, 5, 3) + 1e-12
        assert diam_ab(s, 5, 3) <= diam_ab(s, 5, 4) + 1e-12


def test_validate_ab():
    s = PointSet([(0, 0), (1, 0), (2, 0)])
    for a, b in ((2, 2), (3, 1), (2, 3), (3, 3)):
        with pytest.raises(ValueError):
            diam_ab(s, a, b)


def test_budget_guard():
    s = PointSet([(i, 0) for i in range(30)])
    with pytest.raises(BudgetExceededError) as exc:
        diam_ab(s, 10, 2, budget=1000)
    assert exc.value.required == math.comb(30, 10)
    assert exc.value.budget == 1000
    # BudgetExceededError is a ValueError so CLI-level handling stays simple
    assert isinstance(exc.value, ValueError)


def test_tab_check_agrees_with_diam_ab():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        s = PointSet([tuple(r) for r in rng.uniform(0, 4, size=(n, 2))])
        a, b = (3, 2) if rng.integers(0, 2) else (4, 3)
        value = diam_ab(s, a, b)
        for t in (value - 1e-6, value + 1e-6):
            if t < 0:
                continue
            res = tab_check(s, a, b, t)
            assert res.holds == (value <= t)
            if not res.holds:
                assert res.witness is not None
                pts = s.to_array()[list(res.witness)].tolist()
                # every b-subset of the witness realises a distance beyond t
                for bsub in itertools.combinations(pts, b):
                    assert max(math.dist(p, q) for p, q in itertools.combinations(bsub, 2)) > t


def test_tab_check_vacuous_when_short():
    s = PointSet([(0, 0), (10, 0)])
    assert tab_check(s, 3, 2, 0.1).holds


def test_tab_check_fast_path_matches_generic():
    """The bitset search's verdict and witness agree with the generic
    subset walk."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(4, 10))
        s = PointSet([tuple(r) for r in rng.uniform(0, 4, size=(n, 2))])
        t = float(rng.uniform(0.5, 4.0))
        a = int(rng.integers(3, 5))
        res = tab_check(s, a, 2, t)
        generic = generic_first_violating(s, a, 2, t)
        assert res.holds == (generic is None)
        assert res.witness == generic


@st.composite
def scan_cases(draw):
    """Point sets of 3 to 14 points: uniform, half-grid lattices with many
    tied distances, collinear, and any of those with repeated points."""
    n = draw(st.integers(3, 14))
    kind = draw(st.sampled_from(["uniform", "lattice", "collinear"]))
    if kind == "uniform":
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    elif kind == "lattice":
        half = st.integers(0, 6).map(lambda k: 0.5 * k)
        pts = draw(st.lists(st.tuples(half, half), min_size=n, max_size=n))
    else:
        ts = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        pts = [(1.0 + 2.0 * u, -0.5 + 0.75 * u) for u in ts]
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        pts = pts + [pts[i] for i in picks]
    return PointSet(pts), draw(st.integers(3, 6))


@settings(max_examples=250, deadline=None)
@given(scan_cases(), st.randoms(use_true_random=False))
def test_subset_scans_equal_dfs_oracles(case, rnd):
    """diam_ab values, tab_check verdicts and witnesses equal the old
    depth-first scans exactly, at thresholds on a pair distance and one
    ulp to either side of it (pinning the closed <= convention)."""
    s, a = case
    D = distance_matrix(s.to_array())
    pair_distances = sorted(set(D[np.triu_indices(len(s), k=1)].tolist()))
    for b in range(2, a):
        value = diam_ab(s, a, b)
        assert value == dfs_diam_ab(s, a, b)
        for d in {value, rnd.choice(pair_distances)}:
            for t in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
                if t < 0:
                    continue
                res = tab_check(s, a, b, float(t))
                want = generic_first_violating(s, a, b, float(t)) if len(s) >= a else None
                assert res.witness == want
                assert res.holds == (want is None) == (value <= t)


def witness_value(D: np.ndarray, w: tuple[int, ...], b: int) -> float:
    """v(W): the min over b-subsets of W of the largest pair distance."""
    return min(max(D[u, v] for u, v in itertools.combinations(sub, 2)) for sub in itertools.combinations(w, b))


def restart_climb(s: PointSet, a: int, b: int) -> list[tuple[int, ...] | None]:
    """The results of the witness climb that searches from the root at
    every t: the generic walk's first violating a-subset at t = 0, then at
    each witness's value, up to the None that ends the climb."""
    D = distance_matrix(s.to_array())
    found: list[tuple[int, ...] | None] = [generic_first_violating(s, a, b, 0.0)]
    while found[-1] is not None:
        found.append(generic_first_violating(s, a, b, witness_value(D, found[-1], b)))
    return found


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_diam_ab_searches_equal_a_restart_from_the_root(case):
    """diam_ab's subset searches, each floored at the last witness, return
    the witnesses of the climb that restarts every search at the root, in
    strictly increasing lexicographic order."""
    s, a = case
    if len(s) < a:
        return
    real = diameters_mod._first_violating
    for b in range(3, a):
        got = []

        def spy(*args):
            got.append(real(*args))
            return got[-1]

        with mock.patch.object(diameters_mod, "_first_violating", spy):
            diam_ab(s, a, b)
        assert got == restart_climb(s, a, b)
        assert all(u < v for u, v in zip(got[:-2], got[1:-1]))


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.sampled_from([0, diameters_mod._PARTITION_AFTER]), st.randoms(use_true_random=False))
def test_a_floor_at_the_witness_keeps_the_next_search(case, after, rnd):
    """For W the first violating a-subset at t (a pair distance or one ulp
    to either side of it), the search floored at W at t' = v(W) returns
    what the unfloored search returns at t', with the clique partition
    built at once or at its default point."""
    s, a = case
    coords = s.to_array()
    n = len(coords)
    if n < a:
        return
    D = diameters_mod._distance_matrix(coords)
    d = rnd.choice(sorted(set(D[np.triu_indices(n, k=1)].tolist())))

    def search(t: float, b: int, floor: tuple[int, ...] | None) -> tuple[int, ...] | None:
        close = diameters_mod._close_masks(D, t)
        return diameters_mod._first_violating(close, n, a, b, lambda: diameters_mod._clique_partition(coords, D, t), floor)

    with mock.patch.object(diameters_mod, "_PARTITION_AFTER", after):
        for b in range(3, a):
            for t in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
                if t < 0 or (w := search(float(t), b, None)) is None:
                    continue
                t2 = float(witness_value(D, w, b))
                assert search(t2, b, w) == search(t2, b, None)


@functools.cache
def _600_points(kind: str) -> PointSet:
    """600 uniform points in [0, 4]^2 sorted by (x, y), or 600 points of
    the line (1 + 2u, -0.5 + 0.75u), u sorted uniform in [-3, 3]."""
    if kind == "uniform":
        pts = np.random.default_rng(0).uniform(0.0, 4.0, size=(600, 2))
        return PointSet(pts[np.lexsort((pts[:, 1], pts[:, 0]))])
    u = np.sort(np.random.default_rng(1).uniform(-3.0, 3.0, 600))
    return PointSet(np.column_stack([1.0 + 2.0 * u, -0.5 + 0.75 * u]))


@pytest.mark.parametrize(
    "kind,a,value",
    [("uniform", 4, 5.43216703998894), ("collinear", 4, 12.740190576586466), ("collinear", 5, 6.386210315042843)],
)
def test_diam_ab_at_b3_on_600_points_is_pinned(kind, a, value):
    """Values recorded when every witness search started at the root."""
    assert diam_ab(_600_points(kind), a, 3, budget=math.comb(600, a)) == value


@functools.cache
def _u3_points() -> PointSet:
    """50 points of U_3 (unit disks centred at (-0.5, 0) and (0.5, 0)), the
    size and shape of the benchmark's subset-scan input."""
    rng = np.random.default_rng(7)
    pts = rng.uniform([-1.5, -1.0], [1.5, 1.0], size=(400, 2))
    inside = np.minimum(np.hypot(pts[:, 0] + 0.5, pts[:, 1]), np.hypot(pts[:, 0] - 0.5, pts[:, 1])) <= 1.0
    return PointSet(pts[inside][:50])


@pytest.mark.parametrize("a,b", [(4, 2), (5, 3)])
def test_diam_ab_equals_dfs_on_50_points(a, b):
    s = _u3_points()
    assert len(s) == 50
    assert diam_ab(s, a, b) == dfs_diam_ab(s, a, b)


def test_tab_check_holds_on_50_points():
    # any 5 points of U_3 put 3 in one unit disk, so T(5, 3) holds at 2
    s = _u3_points()
    assert generic_first_violating(s, 5, 3, 2.0) is None
    assert tab_check(s, 5, 3, 2.0) == TabCheckResult(holds=True)


def _is_partition_into_cliques(masks: list[int], label: list[int], D: np.ndarray, t: float) -> bool:
    """masks are disjoint, cover every point, label names each point's
    mask, and every pair inside a mask has D <= t."""
    n = len(D)
    members = [[i for i in range(n) if m >> i & 1] for m in masks]
    return (
        sorted(i for ms in members for i in ms) == list(range(n))
        and all(label[i] == k for k, ms in enumerate(members) for i in ms)
        and all(D[i, j] <= t for ms in members for i, j in itertools.combinations(ms, 2))
    )


def test_u3_points_are_two_cliques_at_2_and_proved_at_the_root():
    """Coordinate order splits the 50 points of U_3 into its two disks at
    t = 2, each a clique, so a 5-subset holds at most 2 + 2 points with no
    3 pairwise close: the search proves T(5, 3) before it reads a row."""
    s = _u3_points()
    coords = s.to_array()
    D = distance_matrix(coords)
    masks, label = diameters_mod._clique_partition(coords, D, 2.0)
    assert len(masks) == 2
    assert _is_partition_into_cliques(masks, label, D, 2.0)
    reads = []

    class Rows(list):
        def __getitem__(self, j):
            reads.append(j)
            return super().__getitem__(j)

    close = Rows(diameters_mod._close_masks(D, 2.0))
    with mock.patch.object(diameters_mod, "_PARTITION_AFTER", 0):
        got = diameters_mod._first_violating(close, 50, 5, 3, lambda: (masks, label))
    assert got is None
    assert reads == []


@settings(max_examples=200, deadline=None)
@given(scan_cases(), st.randoms(use_true_random=False))
def test_clique_partition_takes_no_pair_beyond_t(case, rnd):
    """At a pair distance and one ulp to either side of it, every part is
    a clique of the exact D <= t test, lattice ties included."""
    s, _ = case
    coords = s.to_array()
    D = distance_matrix(coords)
    d = rnd.choice(sorted(set(D[np.triu_indices(len(s), k=1)].tolist())))
    for t in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
        if t >= 0:
            assert _is_partition_into_cliques(*diameters_mod._clique_partition(coords, D, float(t)), D, float(t))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fits_is_the_pigeonhole_sum(data):
    """_fits says whether sum over the parts C of min(|nxt in C|, b - 1 -
    |taken in C|) reaches want, for partials that hold at most b - 1
    points of each part."""
    n = data.draw(st.integers(1, 12))
    b = data.draw(st.integers(2, 4))
    label = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = sorted(set(label))
    label = [parts.index(k) for k in label]
    masks = [sum(1 << i for i in range(n) if label[i] == k) for k in range(len(parts))]
    taken = 0
    for m in masks:
        inside = [i for i in range(n) if m >> i & 1]
        for i in data.draw(st.lists(st.sampled_from(inside), max_size=b - 1, unique=True)):
            taken |= 1 << i
    nxt = data.draw(st.integers(0, (1 << n) - 1)) & ~taken
    want = data.draw(st.integers(1, n))
    room = sum(min((nxt & m).bit_count(), b - 1 - (taken & m).bit_count()) for m in masks)
    assert diameters_mod._fits((masks, label), b, taken, nxt, want) == (room >= want)


@st.composite
def clustered_cases(draw):
    """k tight clusters on a half-grid, so the clique partition prunes:
    points on a quarter-grid around each centre (tied distances) or
    jittered by at most 0.05, and any of them repeated."""
    k = draw(st.integers(1, 4))
    half = st.integers(0, 8).map(lambda v: 0.5 * v)
    centres = draw(st.lists(st.tuples(half, half), min_size=k, max_size=k))
    n = draw(st.integers(4, 13))
    which = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        step = st.integers(-1, 1).map(lambda v: 0.25 * v)
    else:
        step = st.floats(-0.05, 0.05).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-250)
    offsets = draw(st.lists(st.tuples(step, step), min_size=n, max_size=n))
    pts = [(centres[c][0] + dx, centres[c][1] + dy) for c, (dx, dy) in zip(which, offsets)]
    picks = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return PointSet(pts + [pts[i] for i in picks]), draw(st.integers(3, 6))


@settings(max_examples=150, deadline=None)
@given(clustered_cases(), st.sampled_from([0, 1, diameters_mod._PARTITION_AFTER]), st.randoms(use_true_random=False))
def test_pigeonhole_bound_keeps_witnesses_and_values(case, after, rnd):
    """With the partition built at once, after n candidates or at its
    default point, tab_check witnesses equal the generic walk's and
    diam_ab values the depth-first scan's, at a pair distance and one ulp
    to either side of it."""
    s, a = case
    D = distance_matrix(s.to_array())
    pair_distances = sorted(set(D[np.triu_indices(len(s), k=1)].tolist()))
    with mock.patch.object(diameters_mod, "_PARTITION_AFTER", after):
        for b in range(2, a):
            value = diam_ab(s, a, b)
            assert value == dfs_diam_ab(s, a, b)
            for d in {value, rnd.choice(pair_distances)}:
                for t in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
                    if t < 0:
                        continue
                    want = generic_first_violating(s, a, b, float(t)) if len(s) >= a else None
                    assert tab_check(s, a, b, float(t)).witness == want


@pytest.mark.parametrize("scan", [lambda s: diam_ab(s, 5, 3), lambda s: tab_check(s, 5, 3, 2.0)])
def test_budget_refusal_comes_before_any_matrix_or_partition(scan):
    """2,000 points hold C(2000, 5) 5-subsets, far over the default
    budget: the refusal comes before D or a clique partition is built."""
    s = PointSet(np.random.default_rng(9).uniform(-1.5, 1.5, size=(2000, 2)))
    boom = AssertionError("built past the budget guard")
    with (
        mock.patch.object(diameters_mod, "_distance_matrix", side_effect=boom) as matrix,
        mock.patch.object(diameters_mod, "_clique_partition", side_effect=boom) as partition,
        pytest.raises(BudgetExceededError),
    ):
        scan(s)
    assert matrix.call_count == partition.call_count == 0


def test_tab_check_threshold_validation():
    s = PointSet([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ValueError):
        tab_check(s, 3, 2, -1.0)
    with pytest.raises(ValueError):
        tab_check(s, 3, 2, float("nan"))


def test_triameter_known_values():
    equi = PointSet([(0, 0), (2, 0), (1, math.sqrt(3))])
    assert triameter(equi) == pytest.approx(math.sqrt(3), abs=1e-12)
    line = PointSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert triameter(line) == 0.0
    assert triameter(PointSet([(0, 0), (1, 0)])) == 0.0


def test_triameter_triple_cap_counts_hull_vertices(monkeypatch):
    monkeypatch.setattr(diameters_mod, "_MAX_TRIPLES", 10)
    # an interior point adds no triple: 5 hull vertices have 10
    assert triameter(PointSet([(k, k * k) for k in range(5)] + [(2, 5)])) > 0.0
    with pytest.raises(MemoryError, match="triameter of 6 hull vertices needs 20 triples"):
        triameter(PointSet([(k, k * k) for k in range(6)]))


def test_triameter_matches_bruteforce():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        pts = rng.uniform(-3, 3, size=(n, 2))
        s = PointSet([tuple(r) for r in pts])
        best = 0.0
        for i, j, k in itertools.combinations(range(n), 3):
            ab = pts[j] - pts[i]
            ac = pts[k] - pts[i]
            best = max(best, abs(ab[0] * ac[1] - ab[1] * ac[0]) / 2.0)
        assert triameter(s) == pytest.approx(best, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(small_sets)
def test_triameter_bounded_by_diam(s):
    # the equilateral triangle maximises area at fixed diameter
    d = diam(s)
    assert triameter(s) <= math.sqrt(3) / 4 * d * d + 1e-9

