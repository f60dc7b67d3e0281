import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cell_oracles import cell_set, corner_k, has_far_triple, inner_raster_cells, oracle_diam3_ok, oracle_diam_ok
from isodiam import diameters, search
from isodiam.bounds import DISK_REGIME_MAX, stmt3_interior
from isodiam.geometry import Point
from isodiam.regions import PixelRegion, inner_raster, u_delta_measure, u_delta_shape
from isodiam.search import (
    _NEIGHBORS,
    InfeasibleStartError,
    SearchConfig,
    _addition_is_feasible,
    _boundary_cells,
    _caps,
    _corner_k,
    _feasibility,
    _IndexedSet,
    _largest_k,
    _MoveStream,
    _refile,
    _row_extremes,
    _seed_frontiers,
    anneal,
    anneal_chains,
    evaluate_candidates,
)



def test_config_defaults():
    cfg = SearchConfig(delta=3.0, h=0.05)
    assert cfg.t0 == pytest.approx(0.1 * 0.05**2)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(delta=-1.0)
    with pytest.raises(ValueError):
        SearchConfig(delta=3.0, h=0.0)
    with pytest.raises(ValueError):
        SearchConfig(delta=3.0, iterations=-1)
    with pytest.raises(ValueError):
        SearchConfig(delta=3.0, cooling=0.0)
    with pytest.raises(ValueError):
        SearchConfig(delta=3.0, temperature_init=-0.5)


def test_candidates_disk_regime():
    rows = {r.name: r for r in evaluate_candidates(2.2)}
    assert rows["disk"].measure == pytest.approx(math.pi * 2.2**2 / 4)
    assert rows["u_delta"].measure == pytest.approx(u_delta_measure(2.2))


def test_candidates_window():
    rows = {r.name: r for r in evaluate_candidates(3.0)}
    # the disk of diameter 4/sqrt(3), whose inscribed triangle has side 2
    assert rows["disk"].measure == pytest.approx(4 * math.pi / 3)
    assert rows["u_delta"].measure == pytest.approx(u_delta_measure(3.0))
    assert "two_unit_disks" not in rows


def test_candidates_wide():
    rows = {r.name: r for r in evaluate_candidates(4.5)}
    assert rows["two_unit_disks"].measure == pytest.approx(2 * math.pi)
    assert "u_delta" not in rows


def test_anneal_window_guard():
    with pytest.raises(ValueError):
        anneal(SearchConfig(delta=2.0, h=0.1, iterations=10))
    with pytest.raises(ValueError):
        anneal(SearchConfig(delta=4.0, h=0.1, iterations=10))


def test_anneal_infeasible_when_too_coarse():
    with pytest.raises(InfeasibleStartError):
        anneal(SearchConfig(delta=2.4, h=3.0, iterations=10))


def test_anneal_improves_and_stays_feasible():
    out = anneal(SearchConfig(delta=3.0, h=0.1, iterations=2000, seed=1))
    assert out.best_measure >= out.baseline_measure
    assert out.feasibility.diam_ok
    assert out.feasibility.diam3_ok
    assert out.feasibility.diam_corners <= 3.0
    assert out.accepted_moves <= out.iterations
    assert out.bound_value == pytest.approx(min(stmt3_interior(3.0), 2 * math.pi))
    assert out.best_measure <= u_delta_measure(3.0)
    assert not out.conjecture_exceeded


def test_anneal_zero_iterations_returns_seed():
    out = anneal(SearchConfig(delta=3.0, h=0.1, iterations=0, seed=0))
    assert out.best_measure == pytest.approx(out.baseline_measure)
    assert out.accepted_moves == 0


def test_anneal_deterministic():
    a = anneal(SearchConfig(delta=3.0, h=0.1, iterations=400, seed=7))
    b = anneal(SearchConfig(delta=3.0, h=0.1, iterations=400, seed=7))
    assert a.best_measure == b.best_measure
    assert a.best_region == b.best_region
    assert a.accepted_moves == b.accepted_moves


def test_anneal_seed_changes_trajectory():
    a = anneal(SearchConfig(delta=3.0, h=0.1, iterations=800, seed=0))
    b = anneal(SearchConfig(delta=3.0, h=0.1, iterations=800, seed=123))
    assert a.best_region != b.best_region


def test_chains_pick_best_and_ignore_threads():
    cfg = SearchConfig(delta=3.0, h=0.1, iterations=300, seed=0)
    best = anneal_chains(cfg, chains=3)
    singles = [anneal(SearchConfig(delta=3.0, h=0.1, iterations=300, seed=k)) for k in range(3)]
    top = max(s.best_measure for s in singles)
    first_top = next(s for s in singles if s.best_measure == top)
    assert best.best_measure == top
    assert best.best_region == first_top.best_region
    with pytest.raises(ValueError):
        anneal_chains(cfg, chains=0)


def test_chain_ties_go_to_the_smaller_seed(monkeypatch):
    measures = {4: 1.0, 5: 2.0, 6: 2.0, 7: 1.5}
    monkeypatch.setattr(search, "anneal", lambda cfg: SimpleNamespace(seed=cfg.seed, best_measure=measures[cfg.seed]))
    assert anneal_chains(SearchConfig(delta=3.0, seed=4), chains=4).seed == 5


def test_window_constant():
    assert DISK_REGIME_MAX == pytest.approx(4 / math.sqrt(3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=60))
def test_row_extremes_keep_the_diameter(cells):
    ci = np.array([c[0] for c in cells], dtype=np.int64)
    cj = np.array([c[1] for c in cells], dtype=np.int64)
    ri, rj = _row_extremes(ci, cj)
    rows = sorted(set(ci.tolist()))
    lo = [min(j for i, j in cells if i == row) for row in rows]
    hi = [max(j for i, j in cells if i == row) for row in rows]
    assert ri.tolist() == rows + rows
    assert rj.tolist() == lo + hi
    assert _largest_k(ci, cj) == int(corner_k(set(cells)).max())


region_cells = st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(region_cells, st.floats(0.05, 1.4), st.floats(0.2, 12.0))
def test_feasibility_equals_the_fraction_oracle(cells, h, delta):
    report = _feasibility(PixelRegion(origin=Point(0.0, 0.0), h=h, cells=frozenset(cells)), delta)
    assert report.diam_ok == oracle_diam_ok(cells, h, delta)
    assert report.diam3_ok == oracle_diam3_ok(cells, h)
    # the annealer's invariant, no far triple among all cells, is enough
    if not has_far_triple(cells, h):
        assert report.diam3_ok


def test_feasibility_caps_are_exact_at_ties():
    """The float 0.1 exceeds 1/10, so a corner metric of exactly
    (2/0.1)^2 = 400 or (3/0.1)^2 = 900, which float caps let through, puts
    corners beyond 2 or 3."""
    h = 0.1
    assert corner_k({(0, 0), (11, 15)}).max() == 400  # 12^2 + 16^2
    tie_triple = frozenset({(0, 0), (11, 15), (-20, 0)})
    report = _feasibility(PixelRegion(origin=Point(0.0, 0.0), h=h, cells=tie_triple), 10.0)
    assert not report.diam3_ok and not oracle_diam3_ok(set(tie_triple), h)
    assert corner_k({(0, 0), (17, 23)}).max() == 900  # 18^2 + 24^2
    tie_pair = frozenset({(0, 0), (17, 23)})
    report = _feasibility(PixelRegion(origin=Point(0.0, 0.0), h=h, cells=tie_pair), 3.0)
    assert not report.diam_ok and not oracle_diam_ok(set(tie_pair), h, 3.0)
    assert _caps(3.0, h) == (899, 399)


HOLED_SQUARE = frozenset((i, j) for i in range(-2, 3) for j in range(-2, 3)) - {(0, 0)}


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.frozensets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=80),
        st.builds(
            lambda i, js: frozenset((i, j) for j in js),
            st.integers(-6, 6),
            st.frozensets(st.integers(-20, 20), min_size=1, max_size=30),
        ),
    )
)
@example(HOLED_SQUARE)
@example(frozenset({(-3, -7)}))
@example(frozenset({(0, j) for j in range(-4, 5)}))
def test_boundary_cells_equal_the_set_lookup_scan(cells):
    """Holes, single cells, negative indices and one-row regions."""
    idx = np.array(sorted(cells), dtype=np.int64)
    expected = [(i, j) for i, j in idx.tolist() if any((i + di, j + dj) not in cells for di, dj in _NEIGHBORS)]
    assert _boundary_cells(idx).tolist() == [list(c) for c in expected]


def test_feasibility_refuses_too_many_boundary_cells():
    """7,072 cells in one row are all boundary cells: 25,003,056 pairs."""
    row = frozenset((0, j) for j in range(7072))
    with pytest.raises(MemoryError, match="7072 boundary cells"):
        _feasibility(PixelRegion(origin=Point(0.0, 0.0), h=0.001, cells=row), 10.0)


def first_violating_ok(cells, h: float) -> bool:
    """diam3_ok by the subset search of diameters over the boundary cells."""
    boundary = _boundary_cells(np.array(sorted(cells), dtype=np.int64))
    bi, bj = boundary.T
    k, cap = _corner_k(bi[:, None] - bi, bj[:, None] - bj), _caps(3.0, h)[1]
    close = diameters._close_masks(k, cap)
    witness = diameters._first_violating(close, len(boundary), 3, 2, lambda: diameters._clique_partition(boundary, k, cap))
    return witness is None


U3_AT_H01 = frozenset(map(tuple, inner_raster(u_delta_shape(3.0), 0.1).cells.tolist()))


@settings(max_examples=150, deadline=None)
@given(region_cells, st.floats(0.05, 1.4), st.sampled_from([1, 3, 512]))
@example(frozenset({(0, 0), (11, 15), (-20, 0)}), 0.1, 512)  # k = 400 = far_cap + 1 on a pair
@example(frozenset({(0, 0), (4, 4), (9, -4)}), 0.281, 512)  # k = 50 = far_cap on a pair
@example(frozenset({(0, 0), (4, 5), (9, -4)}), 0.281, 512)
@example(frozenset({(2, -3)}), 0.5, 512)  # one boundary cell, no edges
@example(frozenset({(0, 0), (5, 5)}), 0.5, 512)  # two boundary cells, one far edge
@example(frozenset({(0, 0), (0, 1)}), 1.5, 512)  # every pair far, a cell too: no triangle of two cells
@example(frozenset({(0, 0), (5, -6), (5, 6), (10, 0), (15, 0)}), 0.2, 1)  # the first far edge is in no triangle
@example(U3_AT_H01, 0.1, 512)  # 810 far edges, no far triangle
@example(U3_AT_H01 | {(26, 0)}, 0.1, 512)
def test_packed_verifier_equals_the_subset_search(cells, h, block):
    """The far-triangle test over packed rows, in blocks of any size,
    gives the verdict of the subset search and of the all-triples oracle."""
    with mock.patch.object(diameters, "_BLOCK", block):
        ok = _feasibility(PixelRegion(origin=Point(0.0, 0.0), h=h, cells=frozenset(cells)), 3.0).diam3_ok
    assert ok == first_violating_ok(cells, h) == oracle_diam3_ok(cells, h)


def test_packed_verifier_ties_and_blocks():
    """The recorded cases of the test above hold what they say."""
    tie = frozenset({(0, 0), (4, 4), (9, -4)})
    assert int(corner_k({(0, 0), (4, 4)}).max()) == _caps(3.0, 0.281)[1] == 50
    assert first_violating_ok(tie, 0.281) and not first_violating_ok(tie - {(4, 4)} | {(4, 5)}, 0.281)
    h = 0.1
    far_cap = _caps(3.0, h)[1]
    boundary = _boundary_cells(np.array(sorted(U3_AT_H01), dtype=np.int64))
    bi, bj = boundary.T
    iu, ju = np.nonzero(np.triu(_corner_k(bi[:, None] - bi, bj[:, None] - bj) > far_cap, 1))
    assert len(iu) == 810 > diameters._BLOCK
    assert diameters._first_clique(len(boundary), iu, ju, 3) is None and not oracle_diam3_ok(U3_AT_H01 | {(26, 0)}, h)
    # no pairs, on zero points and on one
    none = np.zeros(0, dtype=np.int64)
    assert diameters._first_clique(0, none, none, 3) is None and diameters._first_clique(1, none, none, 3) is None
    late = frozenset({(0, 0), (5, -6), (5, 6), (10, 0), (15, 0)})
    # all five are boundary cells, in the sorted order of corner_k
    assert len(_boundary_cells(np.array(sorted(late), dtype=np.int64))) == 5
    far = corner_k(late) > _caps(3.0, 0.2)[1]
    a, b = np.nonzero(np.triu(far, 1))
    assert not (far[a[0]] & far[b[0]]).any() and not oracle_diam3_ok(late, 0.2)


@pytest.mark.parametrize(
    "delta,h",
    [(3.0, 0.5), (3.0, 0.25), (2.5, 0.125), (3.0, 0.1), (2.8, 0.3), (3.6, 0.3), (2.8, 0.03), (3.0, 0.02)],
)
def test_seed_equals_the_four_corner_test(delta, h):
    """Dyadic pitches put corners exactly on the circles. At 0.3, 0.03 and
    0.02 a float disk test admits cells whose farthest corner lies outside
    by a rounding error (cell (3, 1) at delta 2.8, h 0.3, by 4e-17)."""
    shape = u_delta_shape(delta)
    assert inner_raster(shape, h).cells.tolist() == [list(c) for c in inner_raster_cells(shape.circles, h)]


def test_anneal_stays_below_the_proved_bound():
    """The relaxed caps once returned 6.3475 here, above the 2*pi that
    bounds every T(3,2)-set."""
    out = anneal(SearchConfig(delta=3.6, h=0.05, iterations=5000, seed=1))
    assert out.best_measure == pytest.approx(5.695)
    assert out.best_measure <= out.bound_value == 2 * math.pi
    assert out.feasibility.diam_ok and out.feasibility.diam3_ok


def best_cells_digest(region: PixelRegion) -> str:
    """sha256 of the repr of the sorted cells as a list of (i, j) tuples."""
    cells = sorted(map(tuple, region.cells.tolist()))
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def test_anneal_beats_the_best_known_candidate():
    """A certified region above U_2.6 = 4.3233, and above the disk of
    diameter 4/sqrt(3), needs no slack to be flagged."""
    out = anneal(SearchConfig(delta=2.6, h=0.025, iterations=40_000, seed=1))
    assert out.feasibility.diam_ok and out.feasibility.diam3_ok
    assert (out.accepted_moves, out.best_measure) == (263, 4.359375)
    assert best_cells_digest(out.best_region) == "2755ee54a74e1930e8716b51a11765bb4a1b60a9f1717ed9a33438d517193ea8"
    assert out.best_measure > u_delta_measure(2.6) > 4 * math.pi / 3
    assert out.conjecture_exceeded


def test_anneal_keeps_the_best_region_it_leaves():
    """At temperature h^2, 87 accepted removals leave a best region, which
    is copied only then."""
    out = anneal(SearchConfig(delta=2.6, h=0.025, iterations=40_000, seed=1, temperature_init=0.025**2))
    assert (out.accepted_moves, out.best_measure) == (687, 4.351875000000001)
    assert best_cells_digest(out.best_region) == "a148b952c619f29472915204f7d53db92f5d043d0ce23fb5c585c106d35e3844"
    assert len(out.best_region.cells) * 0.025 * 0.025 == out.best_measure
    assert out.feasibility.diam_ok and out.feasibility.diam3_ok


# (delta, temperature_init) -> accepted_moves, best_measure and the sha256
# of the sorted best cells, recorded when each move came to read one
# PCG64 word. At temperature h^2 removals are accepted, which runs the
# memo's clear-on-removal path.
PINNED_TRAJECTORIES = {
    (2.5, None): (34, 3.9800000000000004, "f067d18053be1827a76580aeb32a2bdc1344f8872af11ad983cb5255dce76fc4"),
    (3.0, None): (26, 4.7, "cc86301b152e18418d739a95810fac2dc56521588148f86a49f98c0c187611cd"),
    (3.6, 0.01): (440, 5.340000000000001, "0d4b7def31d861c245542e06d245d61e5650e2154acc24d3cf23cf4cb5fd82db"),
}


@pytest.mark.parametrize("delta,t0", sorted(PINNED_TRAJECTORIES, key=str))
def test_anneal_trajectory_is_pinned(delta, t0):
    h = 0.1
    out = anneal(SearchConfig(delta=delta, h=h, iterations=2000, seed=3, temperature_init=t0))
    cells = cell_set(out.best_region)
    digest = best_cells_digest(out.best_region)
    assert (out.accepted_moves, out.best_measure, digest) == PINNED_TRAJECTORIES[(delta, t0)]
    assert out.feasibility.diam_ok and out.feasibility.diam3_ok
    # the exact invariants the move check keeps, over every cell pair and triple
    assert oracle_diam_ok(cells, h, delta)
    assert not has_far_triple(cells, h)
    if t0 is not None:
        # with additions only, the best region would hold every accepted cell
        assert len(cells) < round(out.baseline_measure / h**2) + out.accepted_moves


def test_anneal_survives_zero_temperature():
    """Cooling 0.5 underflows the temperature to 0.0 within the run; the
    removal probability is then 0, not a division by zero."""
    cfg = SearchConfig(delta=3.0, h=0.5, iterations=3000, cooling=0.5)
    assert cfg.t0 * cfg.cooling**3000 == 0.0
    out = anneal(cfg)
    assert out.iterations == 3000
    assert out.best_measure >= out.baseline_measure


def test_anneal_grows_its_cell_arrays():
    """A 4-cell seed, whose index arrays start with 8 slots, ends with 9
    cells."""
    assert len(inner_raster(u_delta_shape(2.8), 0.6).cells) == 4
    out = anneal(SearchConfig(delta=2.8, h=0.6, iterations=300, seed=0))
    assert out.accepted_moves == 5
    assert out.best_measure == 3.2399999999999998
    assert out.best_region.cells.tolist() == [[i, j] for i in (-1, 0, 1) for j in (-2, -1, 0)]
    assert oracle_diam_ok(cell_set(out.best_region), 0.6, 2.8)
    assert not has_far_triple(cell_set(out.best_region), 0.6)


def test_anneal_stops_once_frozen():
    """Once every frontier cell is memo-rejected and no word left to the
    run accepts a removal, nothing changes, so a run of 10**13 iterations
    returns at once, without allocating per iteration, and equals a
    shorter one apart from the requested count it reports."""
    short = anneal(SearchConfig(delta=3.0, h=0.5, iterations=20_000, seed=1))
    huge = anneal(SearchConfig(delta=3.0, h=0.5, iterations=10**13, seed=1))
    assert huge.iterations == 10**13
    assert dataclasses.replace(huge, iterations=short.iterations) == short


FROZEN_AT_COOLING_1 = dict(delta=3.0, h=0.5, seed=0, t0_in_h2=None, cooling=1.0, iterations=3000)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(DISK_REGIME_MAX, 4.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(0, 50),
    st.sampled_from([None, 1.0, 3.0]),
    st.sampled_from([0.5, 0.9995, 1.0]),
    st.integers(0, 3000),
)
@example(delta=2.5, h=0.5, seed=0, t0_in_h2=1.0, cooling=0.9995, iterations=3000)
@example(**FROZEN_AT_COOLING_1)
def test_anneal_stop_equals_the_step_by_step_loop(delta, h, seed, t0_in_h2, cooling, iterations):
    """With the frozen check patched to find a live word at every call,
    the loop runs every iteration; the result is the same. Cooling 1.0
    never lowers the temperature, so the frozen check takes no bound on
    the warm iterations: FROZEN_AT_COOLING_1 freezes with p > 0 there."""
    t0 = None if t0_in_h2 is None else t0_in_h2 * h * h
    cfg = SearchConfig(delta=delta, h=h, iterations=iterations, seed=seed, temperature_init=t0, cooling=cooling)
    bounds = []
    warm = search._warm_iterations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_warm_iterations", lambda *args: bounds.append(warm(*args)) or bounds[-1])
        out = anneal(cfg)
    assert all((bound == math.inf) == (cooling == 1.0) for bound in bounds)
    case = dict(delta=delta, h=h, seed=seed, t0_in_h2=t0_in_h2, cooling=cooling, iterations=iterations)
    assert bounds or case != FROZEN_AT_COOLING_1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_first_live_word", lambda moves, *args: moves.position)
        assert anneal(cfg) == out


@pytest.mark.parametrize("delta,iterations,stop,words", [(3.0, 20_000, 3482, 8620), (3.6, 5000, 2611, 5000)])
def test_anneal_stops_at_its_first_frozen_check(monkeypatch, delta, iterations, stop, words):
    """The two benchmark searches at seed 7 freeze after stop iterations,
    and the first frozen check stops them there. The stop rule it replaced,
    which waited for a removal probability of 0.0 (no words left to
    check), read one word a move to the underflow at delta 3 and to the
    last iteration at 3.6: words in all."""
    streams, checks = [], []
    first_live_word = search._first_live_word
    monkeypatch.setattr(search, "_MoveStream", lambda seed: streams.append(_MoveStream(seed)) or streams[-1])
    monkeypatch.setattr(search, "_first_live_word", lambda *args: checks.append(first_live_word(*args)) or checks[-1])
    cfg = SearchConfig(delta=delta, h=0.05, iterations=iterations, seed=7)
    out = anneal(cfg)
    assert (checks, streams[-1].position) == ([None], stop)
    monkeypatch.setattr(search, "_first_live_word", lambda moves, words, *args: None if words == 0 else moves.position)
    assert anneal(cfg) == out
    assert streams[-1].position == words


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(1, 3000))
def test_move_stream_reads_one_raw_call(seed, pattern, length):
    """Random interleavings of word() and ahead(k, skip), long enough to
    cross blocks, read the words of one PCG64(seed).random_raw call: a
    move reads the next word, and ahead returns the words after the next
    skip without moving the stream."""
    order = random.Random(pattern)
    raw = np.random.PCG64(seed).random_raw(length + 5000).tolist()
    moves = _MoveStream(seed)
    for _ in range(length):
        if order.random() < 0.1:
            k, skip = order.randint(1, 2500), order.randint(0, 2500)
            assert moves.ahead(k, skip).tolist() == raw[moves.position + skip : moves.position + skip + k]
        else:
            assert raw[moves.position] == moves.word()


def takes_removal(word: int, p: float) -> bool:
    """Whether a move that may remove a cell takes a removal, at
    probability p, on this word."""
    return not word >> 32 & 1 and (word >> 33) * 2.0**-31 < p


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 3),
    st.sampled_from([0.0, 5e-324, 1e-12, 1e-4, 1e-3, 0.01, 0.5]),
    st.integers(0, 1500),
)
@example(seed=0, lead=0, p=1e-3, iterations=600)
def test_live_word_check_equals_a_frozen_replay(seed, lead, p, iterations):
    """Wherever the check finds no live word among the next iterations
    words, a replay of that many frozen moves takes no removal, even at
    probability 2p; where it finds one, it is the first word of the replay
    that takes a removal at 2p. The check leaves the stream where it was."""
    checked, twin = _MoveStream(seed), _MoveStream(seed)
    for moves in (checked, twin):
        for _ in range(lead):
            moves.word()
    live = search._first_live_word(checked, iterations, p)
    words = [checked.word() for _ in range(iterations)]
    assert words == [twin.word() for _ in range(iterations)]
    taken = [k for k, word in enumerate(words) if takes_removal(word, 2 * p)]
    assert live == (lead + taken[0] if taken else None)


def test_live_word_check_draws_at_most_scan_words_ahead():
    """With no live word among the first _SCAN, the check answers the last
    of them. The buffer holds no more than _SCAN words and a block, also
    when moves read on between checks."""
    moves = _MoveStream(0)
    moves.word()
    assert search._first_live_word(moves, 10 * search._SCAN, 5e-324) == search._SCAN
    for _ in range(8):
        for _ in range(search._SCAN // 2):
            moves.word()
        search._first_live_word(moves, 10 * search._SCAN, 5e-324)
        assert len(moves._words) <= search._SCAN + moves.BLOCK


def refile_each(region) -> tuple[_IndexedSet, _IndexedSet]:
    """The frontiers as _refile on each cell of region, in iteration order,
    files them: every cell and its neighbours about five times."""
    add, remove = _IndexedSet([]), _IndexedSet([])
    for cell in region:
        _refile(cell, region, add, remove)
    return add, remove


def assert_same_frontiers(cells: np.ndarray) -> None:
    """_seed_frontiers files the cells that _refile on each cell files,
    each in its own slot of the frontier's list."""
    add, remove = _seed_frontiers(cells)
    want_add, want_remove = refile_each(dict.fromkeys(map(tuple, cells.tolist())))
    for got, want in ((add, want_add), (remove, want_remove)):
        assert set(got) == set(want) and len(got.listed) == len(got)
        assert all(got.listed[slot] == cell for cell, slot in got.items())


@pytest.mark.parametrize("delta,h", [(3.0, 0.1), (2.5, 0.1), (3.6, 0.1), (2.8, 0.6), (2.6, 0.025), (3.0, 0.05)])
def test_seed_frontiers_file_in_the_refile_order(delta, h):
    assert_same_frontiers(inner_raster(u_delta_shape(delta), h).cells)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=60, unique=True))
def test_seed_frontiers_file_any_region_in_the_refile_order(cells):
    assert_same_frontiers(np.array(cells, dtype=np.int64))


def witnessed_checks(h: float, delta: float, moves) -> tuple[int, int]:
    """Run a stream of moves on a region grown from its first cell: an
    (i, j) cell is checked for addition and added when feasible, and an
    int removes the region cell it indexes. Every verdict, with the
    witnesses gathered since the last removal, must equal the brute force
    on the region with the cell. Returns the rejections and the scans."""
    caps = _caps(delta, h)
    region = [moves[0]]
    witnesses = []
    rejections = scans = 0
    for move in moves[1:]:
        if isinstance(move, int):
            if len(region) > 1:
                region.pop(move % len(region))
                witnesses.clear()
            continue
        if move in region:
            continue
        # slots beyond count hold junk that a check must not read
        idx = np.array(region + [(10**6, -(10**6))] * 3, dtype=np.int64)
        before = len(witnesses)
        got = _addition_is_feasible(idx[:, 0], idx[:, 1], len(region), move, caps, witnesses)
        union = set(region) | {move}
        assert got == (oracle_diam_ok(union, h, delta) and not has_far_triple(union, h))
        if got:
            region.append(move)
        else:
            rejections += 1
            scans += len(witnesses) > before
    return rejections, scans


moves_strategy = st.lists(
    st.one_of(st.tuples(st.integers(-7, 7), st.integers(-7, 7)), st.integers(0, 50)), min_size=2, max_size=80
).filter(lambda moves: isinstance(moves[0], tuple))


@settings(max_examples=200, deadline=None)
@given(moves_strategy, st.floats(0.15, 0.6), st.floats(1.0, 6.0))
def test_move_check_with_witnesses_equals_the_brute_force(moves, h, delta):
    witnessed_checks(h, delta, moves)


def test_move_check_witnesses_decide_without_a_scan():
    """Most rejections of a long stream come from a witness, and a witness
    rejects a candidate without reading the region, here an empty one."""
    stream = random.Random(7)
    moves = [(0, 0)] + [(stream.randint(-7, 7), stream.randint(-7, 7)) for _ in range(300)]
    rejections, scans = witnessed_checks(0.3, 3.0, moves)
    assert scans < rejections / 2
    h, caps = 0.5, _caps(3.0, 0.5)
    assert caps == (36, 16)
    none = np.empty(0, dtype=np.int64)
    # a cell beyond diam_cap: k((0, 0), (5, 0)) = 37
    region = np.array([[0, 0], [1, 0]])
    witnesses = []
    assert not _addition_is_feasible(region[:, 0], region[:, 1], 2, (5, 0), caps, witnesses)
    assert witnesses == [(36, 0, 0, 0, 0)]
    assert not _addition_is_feasible(none, none, 0, (5, 1), caps, witnesses)
    # a far pair: (0, 0) and (4, 0) are far, and both are far from (2, 3)
    region = np.array([[0, 0], [4, 0]])
    witnesses = []
    assert not _addition_is_feasible(region[:, 0], region[:, 1], 2, (2, 3), caps, witnesses)
    assert sorted([witnesses[0][1:3], witnesses[0][3:]]) == [(0, 0), (4, 0)]
    assert not _addition_is_feasible(none, none, 0, (2, 4), caps, witnesses)
    assert not has_far_triple({(0, 0), (4, 0)}, h) and has_far_triple({(0, 0), (4, 0), (2, 4)}, h)


def test_move_check_witness_goes_stale_on_removal():
    """Removing the witness cell (0, 0) makes (5, 1) feasible: a kept
    witness would still reject it, so removals clear them."""
    caps = _caps(3.0, 0.5)
    region = np.array([[0, 0], [1, 0]])
    witnesses = []
    assert not _addition_is_feasible(region[:, 0], region[:, 1], 2, (5, 0), caps, witnesses)
    left = np.array([[1, 0]])
    assert oracle_diam_ok({(1, 0), (5, 1)}, 0.5, 3.0) and not has_far_triple({(1, 0), (5, 1)}, 0.5)
    assert not _addition_is_feasible(left[:, 0], left[:, 1], 1, (5, 1), caps, list(witnesses))
    assert _addition_is_feasible(left[:, 0], left[:, 1], 1, (5, 1), caps, [])
