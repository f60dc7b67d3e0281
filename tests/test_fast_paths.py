"""The array fast paths of convex_hull_indices, min_enclosing_circle and
diam3 against the per-point routines they replaced (geometry_oracles).
Every comparison is ==: the fast paths compute the same floats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geometry_oracles as oracle
from isodiam.diameters import _PREFILTER_MIN, diam3
from isodiam.geometry import Point, PointSet, _mec_with_two_scan, convex_hull_indices, in_window, min_enclosing_circle

KINDS = ("normal", "uniform", "grid", "kgon", "collinear")
# powers of two scale exactly; the base sets reach both sides of the
# window's edges at 2^-250 and 2^250
SCALES = (1.0, 2.0**-250, 2.0**250)


def base_set(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0)
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, size=(n, 2))
    if kind == "grid":
        # few distinct values: ties in x, in y and in distance, and duplicates
        return rng.integers(-4, 5, size=(n, 2)) * 0.25
    # relative offsets off the circle or the line, around the margins of
    # the exact tests: the 1e-14 slack of Disk.contains, the 1e-12
    # degeneracy tolerance and the 1e-9 margin of the array scans
    wobble = rng.choice([0.0, 1e-15, 1e-13, 1e-12, 1e-10, 1e-9, 1e-8]) * rng.choice([-1.0, 0.0, 1.0], size=n)
    if kind == "kgon":
        # cocircular under a few rotations, with repeated vertices
        k = max(3, n // 2)
        t = rng.choice([0.0, math.pi / 7, math.pi / 4, math.pi / k]) + 2.0 * math.pi * np.arange(k) / k
        ring = np.column_stack([np.cos(t), np.sin(t)])
        ring = ring[rng.integers(0, k, size=n)] if n > k else ring[:n]
        return ring * (rng.uniform(0.5, 4.0) * (1.0 + wobble))[:, None] + rng.uniform(-2.0, 2.0, 2)
    t = rng.uniform(-2.0, 2.0, n)
    direction = rng.choice([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, -0.8)])
    return np.column_stack([t * direction[0] - wobble * direction[1] + 0.5, t * direction[1] + wobble * direction[0] - 1.0])


def point_set(coords: np.ndarray) -> PointSet:
    return PointSet.from_xy(map(tuple, coords.tolist()))


@st.composite
def coordinate_sets(draw, sizes=st.integers(1, 60)):
    kind = draw(st.sampled_from(KINDS))
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return base_set(kind, n, rng) * draw(st.sampled_from(SCALES))


@settings(max_examples=300, deadline=None)
@given(coordinate_sets(st.integers(0, 80)))
def test_hull_matches_the_numpy_scalar_chain(coords):
    assert convex_hull_indices(coords) == oracle.convex_hull_indices(coords)


@settings(max_examples=300, deadline=None)
@given(coordinate_sets())
def test_welzl_array_scans_match_the_per_point_loops(coords):
    s = point_set(coords)
    assert min_enclosing_circle(s) == oracle.min_enclosing_circle(s)


@settings(max_examples=150, deadline=None)
@given(coordinate_sets(st.integers(3, 60)))
def test_diam3_matches_the_unpruned_scan_and_all_triples(coords):
    s = point_set(coords)
    assert diam3(s) == oracle.diam3(s) == oracle.diam3_brute(s)


@settings(max_examples=40, deadline=None)
@given(coordinate_sets(st.integers(_PREFILTER_MIN - 1, _PREFILTER_MIN + 2)))
def test_diam3_around_the_prefilter_threshold_matches_the_unpruned_scan(coords):
    s = point_set(coords)
    assert diam3(s) == oracle.diam3(s)


@pytest.mark.parametrize("kind", KINDS)
def test_large_sets_match(kind):
    rng = np.random.default_rng(7)
    coords = base_set(kind, 2000, rng)
    s = point_set(coords)
    assert convex_hull_indices(coords) == oracle.convex_hull_indices(coords)
    assert min_enclosing_circle(s) == oracle.min_enclosing_circle(s)
    assert diam3(s) == oracle.diam3(s)


@pytest.mark.parametrize(
    "low, scale, inside",
    [
        (1.0, 2.0**-250, True),
        (1.0, 2.0**-251, False),
        (0.5, 2.0**250, True),
        (0.5, 2.0**251, False),
    ],
    ids=["low-edge", "below", "high-edge", "above"],
)
def test_fast_paths_at_the_window_edges(low, scale, inside):
    """Magnitudes in [low, 2 * low) scaled to either side of each edge: the
    array scans run inside the window, the per-point loops and the
    unpruned scan outside it, and both give the oracles' results."""
    rng = np.random.default_rng(3)
    shape = (_PREFILTER_MIN + 1, 2)
    coords = rng.uniform(low, 2.0 * low, size=shape) * rng.choice([-1.0, 1.0], size=shape) * scale
    assert in_window(coords) is inside
    s = point_set(coords)
    assert min_enclosing_circle(s) == oracle.min_enclosing_circle(s)
    assert diam3(s) == oracle.diam3(s)


@pytest.mark.parametrize("delta", [-1e-4, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-4])
def test_the_three_point_step_at_the_degeneracy_tolerance(delta):
    """Points off the line pq by twice-area / longest-side^2 within a
    relative delta of DEGENERACY_REL_TOL: the flattest triangle that is not
    degenerate has the farthest circumcentre, so its circle is the one
    kept, and only the exact test tells it from a degenerate one."""
    p, q = Point(0.0, 0.0), Point(1.0, 0.0)
    # twice the area of (p, q, (2, h)) is |h|, its longest squared side 4 + h^2
    rs = [Point(2.0, sign * 4e-12 * (1.0 + delta) * (1.0 + k * 1e-3)) for k in range(3) for sign in (1.0, -1.0)]
    pts = [p, *rs, q]
    x, y = np.array([r.x for r in pts]), np.array([r.y for r in pts])
    assert _mec_with_two_scan(pts, x, y, len(pts), p, q) == oracle._mec_with_two(pts, p, q)


def test_welzl_overflow_raises_as_the_per_point_loops_do():
    """At 1e200 the squares of _is_degenerate overflow; outside the window
    the per-point loops run, so the error is the loops' own."""
    coords = np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 2)) * 1e200
    s = point_set(coords)
    with pytest.raises(OverflowError) as want:
        oracle.min_enclosing_circle(s)
    with pytest.raises(OverflowError) as got:
        min_enclosing_circle(s)
    assert str(got.value) == str(want.value)
