import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isodiam.bounds import DISK_REGIME_MAX, stmt3_interior
from isodiam.geometry import convex_hull_indices
from isodiam.regions import PixelRegion, u_delta_measure
from isodiam.search import (
    InfeasibleStartError,
    SearchConfig,
    _row_extremes,
    anneal,
    anneal_chains,
    convex_candidate_measure,
    evaluate_candidates,
)

CONVEX_CANDIDATE_AT_3 = 3.695523289953722  # pi + 2*(sqrt(5)/2 - acos(2/3))


def all_centers_diam(region: PixelRegion) -> float:
    """The annealer's center diameter as it was computed before it moved
    to regions.region_center_diam: the hull of every cell center."""
    centers = region.cell_centers()
    if len(centers) < 2:
        return 0.0
    hull = centers[convex_hull_indices(centers)]
    best = 0.0
    for i in range(len(hull) - 1):
        d2 = float(np.sum((hull[i + 1 :] - hull[i]) ** 2, axis=1).max())
        if d2 > best:
            best = d2
    return math.sqrt(best)


def all_centers_diam3(region: PixelRegion) -> float:
    """diam3 of every cell center by enumerating all triples i < j < k,
    one smallest index i at a time."""
    c = region.cell_centers()
    d = np.sqrt(np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2))
    best = 0.0
    for i in range(len(c) - 2):
        row, rest = d[i, i + 1 :], d[i + 1 :, i + 1 :]
        sides = np.minimum(np.minimum.outer(row, row), rest)
        best = max(best, float(sides[np.triu_indices(len(row), k=1)].max()))
    return best


def test_config_defaults():
    cfg = SearchConfig(delta=3.0, h=0.05)
    assert cfg.t0 == pytest.approx(0.1 * 0.05**2)
    assert cfg.diam_tol == pytest.approx(2 * 0.05 * math.sqrt(2))


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
    assert rows["disk"].feasible
    assert rows["disk"].measure == pytest.approx(math.pi * 2.2**2 / 4)
    assert rows["u_delta"].feasible


def test_candidates_window():
    rows = {r.name: r for r in evaluate_candidates(3.0)}
    assert not rows["disk"].feasible  # inscribed triple would stretch past 2
    assert rows["u_delta"].measure == pytest.approx(u_delta_measure(3.0))
    assert "two_unit_disks" not in rows


def test_candidates_wide():
    rows = {r.name: r for r in evaluate_candidates(4.5)}
    assert rows["two_unit_disks"].measure == pytest.approx(2 * math.pi)
    assert rows["two_unit_disks"].feasible
    assert "u_delta" not in rows


def test_convex_candidate_measure():
    assert convex_candidate_measure(2.0) == pytest.approx(math.pi, abs=1e-12)
    assert convex_candidate_measure(3.0) == pytest.approx(CONVEX_CANDIDATE_AT_3, abs=1e-12)
    assert convex_candidate_measure(3.5) > convex_candidate_measure(3.0)
    with pytest.raises(ValueError):
        convex_candidate_measure(1.9)


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
    assert out.feasibility.diam_centers <= 3.0 + 1e-9
    assert out.feasibility.diam3_lower <= 2.0 + out.feasibility.tolerance
    assert out.feasibility.diam3_upper == out.feasibility.diam3_lower + 0.1
    assert out.accepted_moves <= out.iterations
    assert out.bound_value == pytest.approx(min(stmt3_interior(3.0), 2 * math.pi))
    # the relaxed grid constraints cannot certify more than the bound allows
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
    serial = anneal_chains(cfg, chains=3, threads=1)
    threaded = anneal_chains(cfg, chains=3, threads=3)
    assert serial.best_measure == threaded.best_measure
    assert serial.best_region == threaded.best_region
    singles = [anneal(SearchConfig(delta=3.0, h=0.1, iterations=300, seed=k)) for k in range(3)]
    assert serial.best_measure == max(s.best_measure for s in singles)
    with pytest.raises(ValueError):
        anneal_chains(cfg, chains=0)


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
    full = (ci[:, None] - ci[None, :]) ** 2 + (cj[:, None] - cj[None, :]) ** 2
    reduced = (ri[:, None] - ri[None, :]) ** 2 + (rj[:, None] - rj[None, :]) ** 2
    assert reduced.max() == full.max()


# (delta, temperature_init) -> accepted_moves, best_measure and the sha256
# of the sorted best cells, recorded before rejected additions were
# memoized and the far set was cut to its row extremes. At temperature
# h^2 removals are accepted, which runs the memo's clear-on-removal path.
PINNED_TRAJECTORIES = {
    (2.5, None): (89, 5.010000000000001, "1e95828ab87557536ad8ba5d83097d36fdec2658533ba0f4abb8285d55001064"),
    (3.0, None): (58, 5.66, "e3e8237ec7f9e60ad2c50191c6420138b670e5897981f714243b3c21af9ff298"),
    (3.6, 0.01): (495, 6.65, "a75f7adcc21096712be878e366f95aaa5ed4327e43c36a058eaa38404b76df40"),
}


@pytest.mark.parametrize("delta,t0", sorted(PINNED_TRAJECTORIES, key=str))
def test_anneal_trajectory_is_pinned(delta, t0):
    h = 0.1
    out = anneal(SearchConfig(delta=delta, h=h, iterations=2000, seed=3, temperature_init=t0))
    cells = sorted((int(i), int(j)) for i, j in out.best_region.cells)
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()
    assert (out.accepted_moves, out.best_measure, digest) == PINNED_TRAJECTORIES[(delta, t0)]
    assert out.feasibility.diam_centers == all_centers_diam(out.best_region)
    # the exact center invariant the move check keeps
    assert all_centers_diam3(out.best_region) <= 2.0 + h * math.sqrt(2) + 1e-9
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
    """A 4-cell seed that ends with 9 cells doubles the index arrays twice;
    the result is the one recorded with arrays sized for every iteration."""
    out = anneal(SearchConfig(delta=2.4, h=0.8, iterations=300, seed=0))
    assert out.accepted_moves == 5
    assert out.best_measure == 5.760000000000001
    assert sorted(out.best_region.cells) == [(i, j) for i in (-2, -1, 0) for j in (-2, -1, 0)]
    assert all_centers_diam(out.best_region) <= 2.4 + 1e-9


def test_anneal_stops_once_frozen():
    """Once removals have probability 0.0 and every frontier cell is
    memo-rejected nothing changes, so a run of 10**13 iterations returns
    at once, without allocating per iteration, and equals a shorter one
    apart from the requested count it reports."""
    short = anneal(SearchConfig(delta=3.0, h=0.5, iterations=20_000, seed=1))
    huge = anneal(SearchConfig(delta=3.0, h=0.5, iterations=10**13, seed=1))
    assert huge.iterations == 10**13
    assert dataclasses.replace(huge, iterations=short.iterations) == short
