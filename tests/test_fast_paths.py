"""The array fast paths of convex_hull_indices, diam3 and triameter against
the per-point routines they replaced (geometry_oracles): every comparison
is ==, as the fast paths compute the same floats. The hull's octagon
prefilter and the clique sweep's prefilter against the chain and the
sweep with no point dropped. And
min_enclosing_circle, the per-point Welzl loop run on the hull's vertices,
against the same loop run on every point. Sets outside the coordinate
window never reach them: PointSet refuses those."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geometry_oracles as oracle
from isodiam import diameters
from isodiam.diameters import _PREFILTER_MIN, _clique_diam, diam3, triameter
from isodiam.geometry import PointSet, _outside_octagon, convex_hull_indices, min_enclosing_circle

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


# the octagon filter keeps every point unless the set's extent is above
# 1e-140 and its magnitudes below 1e140: these scales put the sets on both
# sides of each edge
HULL_SCALES = SCALES + (1e-160, 1e-139, 1e139, 1e160)


@settings(max_examples=300, deadline=None)
@given(
    coordinate_sets(st.integers(0, 300), scales=st.sampled_from(HULL_SCALES)),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_hull_matches_the_numpy_scalar_chain(coords, copies, seed):
    """Each point repeated up to three times, in a shuffled order: the
    chain, run above _OCTAGON_MIN distinct points on those outside the
    octagon of the extremes, picks the same vertices, each the first of
    its equal points, as the chain over every point. The filter warns of
    no overflow or underflow at any scale; the chain's own cross products
    overflow at 1e160, the same floats on both sides, and the oracle's
    numpy scalars warn of it."""
    coords = np.random.default_rng(seed).permutation(np.concatenate([coords] * copies))
    hull = convex_hull_indices(coords)
    with np.errstate(over="ignore", invalid="ignore"):
        assert hull == oracle.convex_hull_indices(coords)


@pytest.mark.parametrize("shift", [0.0, 1e5, 1e9])
def test_octagon_prefilter_drops_the_inside_of_a_disk(shift):
    """The margin scales with the set's extent, not with its distance from
    the origin: a shifted disk loses as many points as one about it."""
    rng = np.random.default_rng(2000)
    r, t = 1.5 * np.sqrt(rng.uniform(size=2000)), rng.uniform(0.0, 2.0 * math.pi, 2000)
    coords = np.column_stack([r * np.cos(t), r * np.sin(t)]) + shift
    assert _outside_octagon(coords).sum() < len(coords) // 4
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


def unpruned(s: PointSet, a: int) -> float:
    """The clique sweep at a with no sample floor and no point dropped."""
    with mock.patch.object(diameters, "_PREFILTER_MIN", len(s)):
        return _clique_diam(s, a, "unpruned")


# The sizes at which each a's sweep stays cheap. At a >= 4 on rings and
# lines nearly every block is replayed, seconds per set, so those kinds
# run at a = 3 and 4 only.
_LARGEST = {3: 700, 4: 550, 5: 450}
_REPLAYED = ("kgon", "collinear")


@pytest.mark.parametrize("scale", SCALES, ids=["1", "2^-200", "2^200", "2^-250", "2^250"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_the_prefilter_keeps_the_unpruned_sweep(kind, scale, data):
    """Above _PREFILTER_MIN, at a = 3, 4 and 5, the sample floor, the
    farthest-vertex test and the enclosing disk's room test give the float
    of the sweep with no point dropped."""
    a = data.draw(st.sampled_from((3, 4) if kind in _REPLAYED else (3, 4, 5)))
    sizes = st.integers(_PREFILTER_MIN + 1, _LARGEST[a])
    s = point_set(data.draw(coordinate_sets(sizes, st.just(kind), st.just(scale))))
    assert s is None or _clique_diam(s, a, "pruned") == unpruned(s, a)


def test_the_room_test_keeps_equilateral_triples_on_its_boundary():
    """p, q and r pairwise at the floor, q and r on the enclosing circle:
    the circle of radius L around p cuts the chord qr from the disk, of
    length L, so p sits on the room test's boundary (and on the circle
    too when the angle at the centre is 60 degrees). On 3,000 such
    triples, turned, moved, scaled and rounded to floats, the margins keep
    all three at the floor of the triple's shortest side."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        half = rng.uniform(math.radians(5), math.radians(60))
        c, s = math.cos(half), math.sin(half)
        # (-1, 0) makes the unit circle the enclosing one
        pts = np.array([[c - math.sqrt(3) * s, 0.0], [c, s], [c, -s], [-1.0, 0.0]])
        turn = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        xy = (pts @ rot.T + rng.uniform(2, 3, 2)) * rng.choice([1.0, 3.0, 0.1, 2.0**-240, 2.0**240])
        d = xy[:3] - np.roll(xy[:3], 1, axis=0)
        floor2 = float((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).min())
        points = PointSet(xy)
        hull = xy[points.hull()]
        assert diameters._room_for_two(xy[:3], hull, points.enclosing_circle().center, floor2).all()


def test_coincident_points_skip_the_room_test():
    """Where every sampled triple holds a coincident pair the floor is 0
    and the room test, whose disk may have radius 0, is not run."""
    boom = AssertionError("room test at a zero floor")
    cases = [[(1.0, -2.0)] * 450, [(0.0, 0.0)] * 300 + [(3.0, 4.0)] * 150]
    with mock.patch.object(diameters, "_room_for_two", side_effect=boom):
        for pairs in cases:
            s = PointSet(pairs)
            assert diam3(s) == unpruned(s, 3) == 0.0


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
    inside the window diam3's array scans give the oracle's result, the
    prefilter at a = 4 and 5 the unpruned sweep's, and outside it PointSet
    refuses the set."""
    rng = np.random.default_rng(3)
    shape = (_PREFILTER_MIN + 1, 2)
    coords = rng.uniform(low, 2.0 * low, size=shape) * rng.choice([-1.0, 1.0], size=shape) * scale
    s = point_set(coords)
    assert (s is not None) is inside
    if inside:
        assert diam3(s) == oracle.diam3(s)
        assert _clique_diam(s, 4, "pruned") == unpruned(s, 4)
        # one quadrant: on all four the sweep at a = 5 replays for seconds
        quadrant = PointSet(np.abs(coords))
        assert _clique_diam(quadrant, 5, "pruned") == unpruned(quadrant, 5)


def test_sets_whose_squares_would_overflow_are_refused():
    """At 1e200 the squares of _is_degenerate would overflow: PointSet
    refuses the set, at its first point."""
    coords = np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 2)) * 1e200
    with pytest.raises(ValueError, match="point 0: nonzero coordinates must have magnitudes in"):
        PointSet(coords)
