import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geometry_oracles import save_points_csv
from isodiam.geometry import (
    Disk,
    Point,
    PointSet,
    Triangle,
    _circle_two,
    circumcircle,
    convex_hull_indices,
    distance,
    load_points_csv,
    min_enclosing_circle,
)

# a PointSet refuses nonzero coordinates of magnitude below 2^-250
coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False).filter(
    lambda v: v == 0.0 or abs(v) >= 2.0**-250
)


def min_enclosing_circle_bruteforce(s: PointSet) -> Disk:
    """Reference O(n^4) construction used to cross-check the fast path.

    Considers every circle spanned by a pair (as a diameter) or a triple
    (circumcircle) and returns the smallest one containing all points.
    """
    pts = list(s)
    if len(pts) == 1:
        return Disk(pts[0], 0.0)
    candidates = [_circle_two(p, q) for p, q in itertools.combinations(pts, 2)]
    candidates += [c for p, q, r in itertools.combinations(pts, 3) if (c := circumcircle(Triangle(p, q, r))) is not None]
    return min((c for c in candidates if all(c.contains(p) for p in pts)), key=lambda c: c.radius)


def test_distance():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(1, 1), Point(1, 1)) == 0.0


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_disk_rejects_negative_radius():
    with pytest.raises(ValueError):
        Disk(Point(0, 0), -0.1)


def test_one_disk_class_serves_as_shape():
    from isodiam import regions

    assert regions.Disk is Disk
    d = Disk(Point(1.0, -2.0), 0.5)
    assert (d.area, d.diameter, d.bbox()) == (math.pi * 0.25, 1.0, (0.5, -2.5, 1.5, -1.5))
    assert d.contains_xy(np.array([1.5, 1.6]), np.array([-2.0, -2.0])).tolist() == [True, False]
    assert Disk(Point(0, 0), 0.0).contains_xy(np.array([0.0]), np.array([0.0])).tolist() == [True]


def test_disk_contains_boundary():
    d = Disk(Point(0, 0), 1.0)
    assert d.contains(Point(1.0, 0.0))
    assert d.contains(Point(0.0, 0.0))
    assert not d.contains(Point(1.001, 0.0))


def test_circumcircle_right_triangle():
    """For a right triangle the circumcenter sits at the hypotenuse midpoint."""
    circ = circumcircle(Triangle(Point(0, 0), Point(4, 0), Point(0, 3)))
    assert circ is not None
    assert circ.radius == pytest.approx(2.5, abs=1e-12)
    assert circ.center.x == pytest.approx(2.0, abs=1e-12)
    assert circ.center.y == pytest.approx(1.5, abs=1e-12)


def test_circumcircle_collinear_is_none():
    assert circumcircle(Triangle(Point(0, 0), Point(1, 1), Point(2, 2))) is None
    assert circumcircle(Triangle(Point(0, 0), Point(0, 0), Point(1, 0))) is None


def test_circumcircle_far_from_origin():
    # translation invariance of the construction
    off = 1e6
    circ = circumcircle(Triangle(Point(off, off), Point(off + 4, off), Point(off, off + 3)))
    assert circ is not None
    assert circ.radius == pytest.approx(2.5, rel=1e-9)


def test_mec_two_points():
    s = PointSet.from_xy([(0, 0), (2, 0)])
    d = min_enclosing_circle(s)
    assert d.radius == pytest.approx(1.0, abs=1e-12)
    assert d.center.x == pytest.approx(1.0, abs=1e-12)


def test_mec_single_point():
    d = min_enclosing_circle(PointSet.from_xy([(3, 4)]))
    assert d.radius == 0.0


def test_mec_empty_raises():
    with pytest.raises(ValueError):
        min_enclosing_circle(PointSet([]))


def test_mec_matches_bruteforce_seeded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        s = PointSet.from_xy([tuple(row) for row in rng.uniform(-3, 3, size=(n, 2))])
        fast = min_enclosing_circle(s)
        slow = min_enclosing_circle_bruteforce(s)
        assert fast.radius == pytest.approx(slow.radius, abs=1e-9)
        for p in s:
            assert fast.contains(p)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
def test_mec_covers_and_is_minimal(pairs):
    s = PointSet.from_xy(pairs)
    fast = min_enclosing_circle(s)
    for p in s:
        assert distance(fast.center, p) <= fast.radius * (1 + 1e-9) + 1e-9
    slow = min_enclosing_circle_bruteforce(s)
    assert fast.radius <= slow.radius + 1e-7 * max(1.0, slow.radius)


def test_hull_square_with_interior_point():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    hull = convex_hull_indices(coords)
    assert sorted(hull) == [0, 1, 2, 3]


def test_hull_collinear():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    hull = convex_hull_indices(coords)
    got = {tuple(coords[i]) for i in hull}
    assert got == {(0.0, 0.0), (3.0, 3.0)}


def test_hull_duplicates_collapse():
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    hull = convex_hull_indices(coords)
    assert len(hull) == 2


def test_csv_round_trip(tmp_path):
    s = PointSet.from_xy([(0.1, -2.5), (1e-17, 3.0), (123.456, 789.0)])
    path = tmp_path / "pts.csv"
    save_points_csv(s, path)
    back = load_points_csv(path)
    assert back == s


def test_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# header\n1,2\n\n3,4\n")
    s = load_points_csv(path)
    assert len(s) == 2


def test_csv_reports_bad_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\noops\n")
    with pytest.raises(ValueError, match=":2"):
        load_points_csv(path)


@pytest.mark.parametrize(
    "value, ok",
    [(0.0, True), (-0.0, True), (2.0**-250, True), (-(2.0**250), True), (2.0**-251, False), (-(2.0**251), False),
     (1e-170, False), (1e200, False)],
)
def test_csv_refuses_coordinates_outside_the_window(tmp_path, value, ok):
    path = tmp_path / "pts.csv"
    path.write_text(f"1,2\n3,{value!r}\n")
    if ok:
        assert load_points_csv(path)[1].y == value
    else:
        with pytest.raises(ValueError, match=r"pts.csv:2: nonzero coordinates must have magnitudes in"):
            load_points_csv(path)


@pytest.mark.parametrize(
    "value, ok",
    [(0.0, True), (-0.0, True), (2.0**-250, True), (-(2.0**250), True), (2.0**-251, False), (-(2.0**251), False),
     (1e-170, False), (1e200, False), (math.inf, False), (math.nan, False)],
)
def test_pointset_refuses_coordinates_outside_the_window(value, ok):
    pairs = [(1.0, 2.0), (3.0, value)]
    if ok:
        assert PointSet.from_xy(pairs)[1].y == value
        return
    why = "nonzero coordinates must have magnitudes in" if math.isfinite(value) else "coordinates must be finite"
    with pytest.raises(ValueError, match=f"point 1: {why}"):
        PointSet.from_xy(pairs)
    with pytest.raises(ValueError, match=f"point 1: {why}"):
        PointSet.from_xy(np.array(pairs))
    if math.isfinite(value):
        with pytest.raises(ValueError, match=f"point 1: {why}"):
            PointSet([Point(1.0, 2.0), Point(3.0, value)])


def test_pointset_constructors_agree():
    pairs = [(0.5, -1.0), (2.0, 3.25), (0.5, -1.0), (0.0, 7.0)]
    s = PointSet([Point(x, y) for x, y in pairs])
    assert s == PointSet.from_xy(pairs) == PointSet.from_xy(np.array(pairs))
    assert list(s) == list(s.points) == [Point(x, y) for x, y in pairs]
    assert s[-1] == Point(0.0, 7.0) and len(s) == 4
    assert PointSet([]) == PointSet.from_xy([]) == PointSet.from_xy(np.empty((0, 2)))


def test_pointset_copies_its_input_and_is_read_only():
    xy = np.array([[0.0, 1.0], [2.0, 3.0]])
    s = PointSet.from_xy(xy)
    xy[0, 0] = 5.0
    assert s[0] == Point(0.0, 1.0)
    assert s.to_array() is s.to_array()
    with pytest.raises(ValueError, match="read-only"):
        s.to_array()[0, 0] = 5.0


def test_pointset_equality_and_hash():
    a = PointSet.from_xy([(0, 0), (1, 1)])
    b = PointSet.from_xy([(0, 0), (1, 1)])
    c = PointSet.from_xy([(1, 1), (0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != c  # order is part of identity
    # signed zeros compare equal, so they hash alike too
    z, nz = PointSet.from_xy([(0.0, 1)]), PointSet.from_xy([(-0.0, 1)])
    assert z == nz and hash(z) == hash(nz)
