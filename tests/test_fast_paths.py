"""The array fast paths of convex_hull_indices, diam3 and triameter against
the per-point routines they replaced (geometry_oracles): every comparison
is ==, as the fast paths compute the same floats. And min_enclosing_circle,
the per-point Welzl loop run on the hull's vertices, against the same loop
run on every point. Sets outside the coordinate window never reach them:
PointSet refuses those."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geometry_oracles as oracle
from isodiam.diameters import _PREFILTER_MIN, diam3, triameter
from isodiam.geometry import PointSet, convex_hull_indices, min_enclosing_circle

KINDS = ("normal", "uniform", "grid", "kgon", "collinear")
# powers of two scale exactly; the base sets stay inside the coordinate
# window at the first three scales, and reach past its edges at 2^-250 and
# 2^250
SCALES = (1.0, 2.0**-200, 2.0**200, 2.0**-250, 2.0**250)


def base_set(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0)
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, size=(n, 2))
    if kind == "grid":
        # few distinct values: ties in x, in y and in distance, and duplicates
        return rng.integers(-4, 5, size=(n, 2)) * 0.25
    # relative offsets off the circle or the line, around the tolerances of
    # the exact tests: the 1e-14 slack of Disk.contains and the 1e-12
    # degeneracy tolerance
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


def point_set(coords: np.ndarray) -> PointSet | None:
    """The PointSet of coords, or None once PointSet has refused coords
    with a nonzero magnitude outside [2^-250, 2^250]."""
    a = np.abs(coords)
    if np.all((a == 0.0) | ((a >= 2.0**-250) & (a <= 2.0**250))):
        return PointSet(coords)
    with pytest.raises(ValueError, match="nonzero coordinates must have magnitudes in"):
        PointSet(coords)
    return None


@st.composite
def coordinate_sets(draw, sizes=st.integers(1, 60), kinds=st.sampled_from(KINDS), scales=st.sampled_from(SCALES)):
    kind = draw(kinds)
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return base_set(kind, n, rng) * draw(scales)


@settings(max_examples=300, deadline=None)
@given(coordinate_sets(st.integers(0, 80)))
def test_hull_matches_the_numpy_scalar_chain(coords):
    assert convex_hull_indices(coords) == oracle.convex_hull_indices(coords)


@pytest.mark.parametrize("scale", SCALES[:3], ids=["1", "2^-200", "2^200"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_circle_of_the_hull_covers_every_point(kind, scale, data):
    """At each scale whose sets stay inside the coordinate window: the
    circle contains every point under Disk.contains, its radius is
    within 1e-12 relative of the loop over all points, and it is the loop's
    disk, bit for bit, on the hull vertices in the library's order."""
    s = PointSet(data.draw(coordinate_sets(kinds=st.just(kind), scales=st.just(scale))))
    disk = min_enclosing_circle(s)
    assert all(disk.contains(p) for p in oracle.points(s))
    assert math.isclose(disk.radius, oracle.min_enclosing_circle(s).radius, rel_tol=1e-12)
    assert disk == oracle.min_enclosing_circle(PointSet(s.to_array()[s.hull()]))


@settings(max_examples=150, deadline=None)
@given(coordinate_sets(st.integers(3, 60)))
def test_diam3_matches_the_unpruned_scan_and_all_triples(coords):
    s = point_set(coords)
    assert s is None or diam3(s) == oracle.diam3(s) == oracle.diam3_brute(s)


@settings(max_examples=40, deadline=None)
@given(coordinate_sets(st.integers(_PREFILTER_MIN - 1, _PREFILTER_MIN + 2)))
def test_diam3_around_the_prefilter_threshold_matches_the_unpruned_scan(coords):
    s = point_set(coords)
    assert s is None or diam3(s) == oracle.diam3(s)


@settings(max_examples=300, deadline=None)
@given(coordinate_sets(st.integers(0, 60)))
def test_triameter_matches_the_pair_loop(coords):
    s = point_set(coords)
    assert s is None or triameter(s) == oracle.triameter(s)


@pytest.mark.parametrize("kind", KINDS)
def test_large_sets_match(kind):
    rng = np.random.default_rng(7)
    coords = base_set(kind, 2000, rng)
    s = point_set(coords)
    assert convex_hull_indices(coords) == oracle.convex_hull_indices(coords)
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
    """Magnitudes in [low, 2 * low) scaled to either side of each edge:
    inside the window diam3's array scans give the oracle's result, and
    outside it PointSet refuses the set."""
    rng = np.random.default_rng(3)
    shape = (_PREFILTER_MIN + 1, 2)
    coords = rng.uniform(low, 2.0 * low, size=shape) * rng.choice([-1.0, 1.0], size=shape) * scale
    s = point_set(coords)
    assert (s is not None) is inside
    if inside:
        assert diam3(s) == oracle.diam3(s)


def test_sets_whose_squares_would_overflow_are_refused():
    """At 1e200 the squares of _is_degenerate would overflow: PointSet
    refuses the set, at its first point."""
    coords = np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 2)) * 1e200
    with pytest.raises(ValueError, match="point 0: nonzero coordinates must have magnitudes in"):
        PointSet(coords)
