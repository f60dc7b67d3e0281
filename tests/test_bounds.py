import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from isodiam.bounds import (
    CIRCLE_LEMMA_MIN_RADIUS,
    DISK_REGIME_MAX,
    TWO_PI,
    bound_profile,
    circle_bound,
    convex_blaschke_interior,
    convex_improved_interior,
    crossover,
    gen_jung_radius,
    jung_radius,
    nb_of,
    stmt1_value,
    stmt3_interior,
    symmetric_interior,
    ta2_bound,
)
from isodiam.geometry import Point, Triangle, circumcircle

# closed forms for where each capped bound meets 2*pi, derived by solving
# interior(delta) = 2*pi by hand; frozen here as regression anchors
STMT3_ROOT = 2.8625749040714124  # sqrt((28 + sqrt(448)) / 6)
IMPROVED_ROOT = 2.613125929752753  # sqrt(4 + 2*sqrt(2))
BLASCHKE_ROOT = 2.598076211353316  # 3*sqrt(3)/2
SYMMETRIC_ROOT = 3.0550504633038935  # sqrt(28/3)


def test_jung_radius():
    assert jung_radius(2.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)


def test_gen_jung_matches_isosceles_circumradius():
    """rho(delta, tau) is the circumradius of the (delta, delta, tau)
    isosceles triangle; the circumcircle routine is an independent path."""
    for delta, tau in ((2.0, 1.0), (3.0, 2.0), (5.0, 5.0), (1.0, 0.25)):
        apex_y = math.sqrt(delta * delta - tau * tau / 4.0)
        tri = Triangle(Point(-tau / 2, 0.0), Point(tau / 2, 0.0), Point(0.0, apex_y))
        circ = circumcircle(tri)
        assert circ is not None
        assert gen_jung_radius(delta, tau) == pytest.approx(circ.radius, abs=1e-9)


def test_gen_jung_reduces_to_jung():
    for delta in (0.5, 1.0, 2.0, 4.0, 7.5):
        assert gen_jung_radius(delta, delta) == pytest.approx(jung_radius(delta), abs=1e-12)


def test_gen_jung_frozen_value():
    assert gen_jung_radius(4.0, 2.0) == pytest.approx(2.065591117977289, abs=1e-12)


def test_gen_jung_domain():
    with pytest.raises(ValueError):
        gen_jung_radius(1.0, 1.5)  # tau beyond delta
    assert gen_jung_radius(1.0, 0.0) == 0.5  # no three points apart: half the diameter
    with pytest.raises(ValueError):
        gen_jung_radius(1.0, -1e-300)
    with pytest.raises(ValueError):
        gen_jung_radius(0.0, 0.0)
    with pytest.raises(ValueError):
        gen_jung_radius(float("inf"), 1.0)


@pytest.mark.parametrize(
    "delta,tau,named", [(1e200, 2.0, "delta=1e+200"), (1e160, 1e160, "delta=1e+160"), (1e-200, 1e-200, "delta=1e-200")]
)
def test_gen_jung_refuses_a_delta_whose_square_is_not_normal(delta, tau, named):
    """The expression gave NaN past the overflow of delta^2 and divided by
    zero past its underflow."""
    with pytest.raises(OverflowError, match=re.escape(named)):
        gen_jung_radius(delta, tau)
    # the largest and smallest deltas with a normal square still give rho
    assert gen_jung_radius(1e154, 1e154) == pytest.approx(1e154 / math.sqrt(3.0))
    assert gen_jung_radius(1.5e-154, 0.0) == pytest.approx(0.75e-154)


def test_circle_bound_refuses_an_overflowing_radius():
    assert circle_bound(1e307) == 4.0 * math.pi * 1e307 / 3.0
    with pytest.raises(OverflowError, match=r"r=2e\+307"):
        circle_bound(2e307)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=2.0001, max_value=50.0))
def test_gen_jung_tau2_below_jung(delta):
    # fixing tau = 2 shrinks the covering radius once delta passes 2
    assert gen_jung_radius(delta, 2.0) < jung_radius(delta)


def test_stmt1_value():
    assert stmt1_value(2.0) == pytest.approx(math.pi, abs=1e-12)
    assert stmt1_value(DISK_REGIME_MAX) == pytest.approx(4 * math.pi / 3, abs=1e-12)


def test_interior_bound_values_at_three():
    assert stmt3_interior(3.0) == pytest.approx(6.6977010045282395, abs=1e-12)
    assert symmetric_interior(3.0) == pytest.approx(6.1086523819801535, abs=1e-12)
    assert convex_blaschke_interior(3.0) == pytest.approx(7.255197456936871, abs=1e-12)
    assert convex_improved_interior(3.0) == pytest.approx(7.9521564043991635, abs=1e-12)


def test_interior_domain_guard():
    for fn in (stmt3_interior, convex_improved_interior):
        with pytest.raises(ValueError):
            fn(1.0)
        with pytest.raises(ValueError):
            fn(0.5)


@pytest.mark.parametrize(
    "bound,root",
    [
        (stmt3_interior, STMT3_ROOT),
        (convex_improved_interior, IMPROVED_ROOT),
        (convex_blaschke_interior, BLASCHKE_ROOT),
        (symmetric_interior, SYMMETRIC_ROOT),
    ],
    ids=lambda v: v.__name__.removesuffix("_interior") if callable(v) else None,
)
def test_crossover_roots(bound, root):
    found = crossover(bound, TWO_PI, 2.4, 3.5)
    assert found == pytest.approx(root, abs=1e-7)


def test_crossover_rejects_no_sign_change():
    with pytest.raises(ValueError):
        crossover(stmt3_interior, TWO_PI, 3.0, 3.5)  # both ends above 2*pi


def test_crossover_accepts_callable():
    found = crossover(lambda d: d * d, 4.0, 0.0, 10.0)
    assert found == pytest.approx(2.0, abs=1e-8)


def test_profile_disk_regime():
    """Only stmt1 and the radii hold at delta <= 4/sqrt(3)."""
    p = bound_profile(2.0)
    assert p.stmt1 == pytest.approx(math.pi)
    assert (p.stmt2, p.stmt3, p.convex_blaschke, p.convex_improved, p.symmetric) == (None,) * 5
    assert p.gen_jung_radius_tau2 == pytest.approx(p.jung_radius, abs=1e-12)


def test_profile_window_regime():
    p = bound_profile(3.0)
    assert (p.stmt1, p.stmt2) == (None, None)
    assert p.stmt3 == pytest.approx(TWO_PI)
    assert p.convex_blaschke == min(convex_blaschke_interior(3.0), TWO_PI)
    assert p.convex_improved == min(convex_improved_interior(3.0), TWO_PI)
    assert p.symmetric == pytest.approx(6.1086523819801535, abs=1e-12)


def test_profile_large_delta():
    p = bound_profile(4.5)
    assert p.stmt2 == pytest.approx(TWO_PI)
    assert (p.stmt1, p.stmt3) == (None, None)
    assert p.convex_blaschke == pytest.approx(TWO_PI)
    assert p.convex_improved == pytest.approx(TWO_PI)
    assert p.symmetric == pytest.approx(TWO_PI)


def test_profile_tiny_delta():
    p = bound_profile(0.8)
    assert p.stmt1 == stmt1_value(0.8)
    assert (p.stmt2, p.stmt3, p.convex_blaschke, p.convex_improved, p.symmetric) == (None,) * 5
    assert p.gen_jung_radius_tau2 is None


def test_profile_window_edges():
    """stmt3 holds strictly inside 4/sqrt(3) < delta < 4, stmt2 from 4 on."""
    at_disk_max, at_four = bound_profile(DISK_REGIME_MAX), bound_profile(4.0)
    assert at_disk_max.stmt1 is not None and at_disk_max.stmt3 is None and at_disk_max.symmetric is None
    assert at_four.stmt3 is None and at_four.stmt2 == TWO_PI


@settings(max_examples=120, deadline=None)
@given(st.floats(min_value=2.31, max_value=3.99))
def test_profile_orderings_in_window(delta):
    p = bound_profile(delta)
    # capped values never exceed the universal 2*pi
    assert p.stmt3 <= TWO_PI + 1e-12
    assert p.symmetric <= TWO_PI + 1e-12
    # central symmetry only strengthens the general bound
    assert p.symmetric <= p.stmt3 + 1e-12
    # the quartic refinement beats the Blaschke rolling bound
    assert p.convex_improved <= p.convex_blaschke + 1e-12


def test_circle_bound():
    assert circle_bound(1.5) == pytest.approx(2 * math.pi, abs=1e-12)
    assert circle_bound(3.0) == pytest.approx(4 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        circle_bound(CIRCLE_LEMMA_MIN_RADIUS)
    with pytest.raises(ValueError):
        circle_bound(1.0)


def test_ta2_bound():
    assert ta2_bound(3) == pytest.approx(2 * math.pi)
    assert ta2_bound(5) == pytest.approx(4 * math.pi)
    with pytest.raises(ValueError):
        ta2_bound(2)


def test_nb_of():
    # (b-1)a - b + 2: subset size forcing b mutually close points
    assert nb_of(3, 2) == 3
    assert nb_of(4, 2) == 4
    assert nb_of(4, 3) == 7
    assert nb_of(5, 4) == 13


@pytest.mark.parametrize("bound", [stmt3_interior, convex_improved_interior])
def test_an_overflowing_fourth_power_names_its_delta(bound):
    with pytest.raises(OverflowError, match=r"delta=1e\+100"):
        bound(1e100)
