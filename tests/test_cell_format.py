"""PixelRegion holds its cells as one sorted, read-only int64 array. Every
producer gives that format, and every consumer answers as the frozenset
oracles of cell_oracles do."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cell_oracles as oracle
from isodiam.geometry import DiskUnion, Point
from isodiam.poisoning import PoisonConfig, PoisonStrategy, PointMass, lethal_region
from isodiam.regions import PixelRegion, rasterize, region_diam, u_delta_shape
from isodiam.search import SearchConfig, _feasibility, anneal


def assert_canonical(region: PixelRegion) -> None:
    cells = region.cells
    assert isinstance(cells, np.ndarray)
    assert cells.dtype == np.int64 and cells.ndim == 2 and cells.shape[1] == 2
    assert not cells.flags.writeable
    assert cells.tolist() == [list(c) for c in sorted(set(map(tuple, cells.tolist())))]


# duplicates, negative indices, and rows of one cell all occur; the list
# is also passed as an array
pair_lists = st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=40).map(
    lambda pairs: pairs + pairs[: len(pairs) // 2]
)


@settings(max_examples=200, deadline=None)
@given(
    pair_lists,
    st.booleans(),
    st.floats(0.05, 1.4),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(0.2, 12.0),
)
@example([(3, -2)], False, 0.5, 0.0, 0.0, 3.0)
@example([(0, 1), (0, 1), (-2, 5), (-2, -5), (1, 0)], True, 0.3, 0.1, -0.2, 2.5)
def test_consumers_equal_the_frozenset_oracle(pairs, as_array, h, ox, oy, delta):
    origin = Point(ox, oy)
    region = PixelRegion(origin=origin, h=h, cells=np.array(pairs) if as_array else pairs)
    cells = frozenset(pairs)
    assert_canonical(region)
    assert oracle.cell_set(region) == cells
    assert region.to_json_dict() == oracle.json_dict(origin, h, cells)
    assert region.measure == oracle.measure(h, cells)
    assert np.array_equal(region.cell_centers(), oracle.cell_centers(origin, h, cells))
    assert region_diam(region) == oracle.region_diam(origin, h, cells)

    diff = oracle.minkowski_difference(region)
    assert_canonical(diff)
    assert oracle.cell_set(diff) == oracle.difference(cells)

    report = _feasibility(region, delta)
    assert report.diam_corners == oracle.region_diam(origin, h, cells)
    assert report.diam_ok == oracle.oracle_diam_ok(cells, h, delta)
    assert report.diam3_ok == oracle.oracle_diam3_ok(cells, h)

    back = PixelRegion.from_json_dict(region.to_json_dict())
    assert_canonical(back)
    assert back == region


def test_an_empty_region_has_no_cells():
    for cells in ((), [], frozenset(), np.empty((0, 2), dtype=np.int64)):
        region = PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=cells)
        assert_canonical(region)
        assert region.is_empty() and region.measure == 0.0
        assert region.to_json_dict()["cells"] == []
        assert oracle.minkowski_difference(region).is_empty()


def test_every_producer_gives_the_canonical_format():
    strategy = PoisonStrategy(point_masses=(PointMass(Point(0.0, 0.0), 1.0),))
    config = PoisonConfig(R=3.0, h_available=1.0, samples=10)
    # a hot anneal accepts removals, so the best cells are copied mid-run
    hot = anneal(SearchConfig(delta=3.0, h=0.25, iterations=400, seed=2, temperature_init=0.25**2))
    regions = [
        rasterize(u_delta_shape(3.0), 0.1),
        oracle.minkowski_difference(rasterize(DiskUnion(((0.0, 0.0, 0.5),)), 0.1)),
        lethal_region(strategy, config, 0.1),
        anneal(SearchConfig(delta=3.0, h=0.25, iterations=400, seed=2)).best_region,
        hot.best_region,
    ]
    for region in regions:
        assert not region.is_empty()
        assert_canonical(region)


def test_the_constructor_leaves_the_callers_array_alone():
    pairs = np.array([[2, 0], [1, 5], [2, 0]], dtype=np.int32)
    region = PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=pairs)
    assert region.cells.tolist() == [[1, 5], [2, 0]]
    assert pairs.flags.writeable and pairs.tolist() == [[2, 0], [1, 5], [2, 0]]
    with pytest.raises(ValueError):
        region.cells[0, 0] = 7


def test_only_a_frozen_int64_array_is_taken_without_a_copy():
    """rasterize hands over a read-only array of its own, so a raster
    holds its cells once. A caller's writable array in the same canonical
    form is still copied and stays writable."""
    pairs = np.array([[1, 5], [2, 0]], dtype=np.int64)
    region = PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=pairs)
    assert region.cells is not pairs and pairs.flags.writeable and not region.cells.flags.writeable
    pairs.flags.writeable = False
    assert PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=pairs).cells is pairs


@pytest.mark.parametrize(
    "cells",
    [
        np.array([[0.5, 1.0]]),
        np.array([[0.0, 1.0]]),
        np.array([[0, 1, 2], [3, 4, 5]]),
        np.array([0, 1]),
        np.array([[True, False]]),
        np.array([[2**63, 0]], dtype=np.uint64),
        [(0, 1), (2,)],
        [(0, 1, 2)],
        [(0.5, 0)],
        [("0", 1)],
    ],
)
def test_the_constructor_rejects_what_is_no_integer_pair_list(cells):
    with pytest.raises(ValueError):
        PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=cells)


def test_regions_compare_by_value():
    a = PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=[(1, 2), (0, 0)])
    assert a == PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=np.array([[0, 0], [1, 2], [1, 2]]))
    assert a != PixelRegion(origin=Point(0.0, 0.0), h=0.1, cells=[(0, 0)])
    assert a != PixelRegion(origin=Point(0.0, 0.0), h=0.2, cells=[(1, 2), (0, 0)])
    assert a != PixelRegion(origin=Point(0.1, 0.0), h=0.1, cells=[(1, 2), (0, 0)])
