"""Closed-form radius and area bounds for T(3,2)- and T(a,2)-sets.

The central quantity is the generalized Jung radius

    rho(delta, tau) = delta^2 / (2 * sqrt(delta^2 - tau^2 / 4)),

the circumradius of an isosceles triangle with two sides delta and base
tau. A set with diameter delta whose diam3 is at most tau fits inside a
disk of this radius; with tau = delta it reduces to Jung's delta/sqrt(3).

Area bounds come in several flavours, each exposed both as the raw closed
form (the "interior" expression, useful for crossover hunting) and, in
bound_profile(), capped at 2*pi and None outside the window of delta
where its hypothesis holds:

    stmt1            pi*delta^2/4 (below 2*pi)          delta <= 4/sqrt(3)
    stmt2            2*pi                               delta >= 4
    stmt3            pi/6*delta^4/(delta^2-1) + 4*pi/9  4/sqrt(3) < delta < 4
    convex_blaschke  4*pi*delta/(3*sqrt(3))             delta > 4/sqrt(3)
    convex_improved  pi/4*delta^4/(delta^2-1)           delta > 4/sqrt(3)
    symmetric        pi*delta^2/6 + 4*pi/9              delta > 4/sqrt(3)

(The source statement prints 4*pi/3 as the lower end of the stmt3 window,
which exceeds 4 and would make the window empty; 4/sqrt(3) is the endpoint
consistent with the disk regime ending at 4/sqrt(3) and with the proof.)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "TWO_PI",
    "DISK_REGIME_MAX",
    "BoundProfile",
    "jung_radius",
    "gen_jung_radius",
    "stmt1_value",
    "stmt3_interior",
    "convex_blaschke_interior",
    "convex_improved_interior",
    "symmetric_interior",
    "bound_profile",
    "crossover",
    "circle_bound",
    "ta2_bound",
    "nb_of",
]

TWO_PI = 2.0 * math.pi

# Boundary between the disk regime and the conjectural window.
DISK_REGIME_MAX = 4.0 / math.sqrt(3.0)

# Radius below which the circle lemma does not apply (an inscribed
# equilateral triangle still has side <= 2 there).
CIRCLE_LEMMA_MIN_RADIUS = 2.0 / math.sqrt(3.0)


def jung_radius(delta: float) -> float:
    """Jung's covering radius delta/sqrt(3) for a set of diameter delta."""
    _require_positive(delta)
    return delta / math.sqrt(3.0)


def gen_jung_radius(delta: float, tau: float) -> float:
    """Covering radius for diameter delta and diam3 at most tau.

    Equals the circumradius of the isosceles triangle (delta, delta, tau)
    and reduces to Jung's radius at tau = delta, to delta/2 at tau = 0.
    Requires 0 <= tau <= delta, and a delta whose square is a normal
    float: past that range the expression gives NaN or divides by zero.
    """
    _require_positive(delta)
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau > delta:
        raise ValueError(f"tau must not exceed delta, got tau={tau} > delta={delta}")
    if not sys.float_info.min <= delta * delta < math.inf:
        raise OverflowError(f"delta^2 is not a normal float at delta={delta}")
    return 0.5 * delta * delta / math.sqrt(delta * delta - tau * tau / 4.0)


def stmt1_value(delta: float) -> float:
    """Disk-regime area bound pi*delta^2/4."""
    _require_positive(delta)
    return math.pi * delta * delta / 4.0


def _require_positive(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")


def _fourth_power(delta: float) -> float:
    """delta^4 for the delta^4/(delta^2-1) bounds, which need delta > 1."""
    _require_positive(delta)
    if delta <= 1.0:
        raise ValueError(f"delta must exceed 1 for delta^4/(delta^2-1) bounds, got {delta}")
    try:
        return delta**4
    except OverflowError:
        raise OverflowError(f"delta^4 overflows at delta={delta}") from None


def stmt3_interior(delta: float) -> float:
    """Uncapped polar-integration bound pi/6*delta^4/(delta^2-1) + 4*pi/9."""
    return math.pi / 6.0 * _fourth_power(delta) / (delta * delta - 1.0) + 4.0 * math.pi / 9.0


def convex_blaschke_interior(delta: float) -> float:
    """Uncapped Blaschke triameter bound 4*pi*delta/(3*sqrt(3))."""
    _require_positive(delta)
    return 4.0 * math.pi * delta / (3.0 * math.sqrt(3.0))


def convex_improved_interior(delta: float) -> float:
    """Uncapped convex bound pi/4*delta^4/(delta^2-1)."""
    return math.pi / 4.0 * _fourth_power(delta) / (delta * delta - 1.0)


def symmetric_interior(delta: float) -> float:
    """Uncapped centrally-symmetric bound pi*delta^2/6 + 4*pi/9."""
    _require_positive(delta)
    return math.pi * delta * delta / 6.0 + 4.0 * math.pi / 9.0


@dataclass(frozen=True)
class BoundProfile:
    """Every bound at a single delta, None outside its window (see the
    module docstring); the tau = 2 radius needs delta >= 2."""

    delta: float
    stmt1: float | None
    stmt2: float | None
    stmt3: float | None
    convex_blaschke: float | None
    convex_improved: float | None
    symmetric: float | None
    jung_radius: float
    gen_jung_radius_tau2: float | None


def bound_profile(delta: float) -> BoundProfile:
    _require_positive(delta)
    beyond_disk = delta > DISK_REGIME_MAX
    return BoundProfile(
        delta=delta,
        stmt1=None if beyond_disk else stmt1_value(delta),
        stmt2=TWO_PI if delta >= 4.0 else None,
        stmt3=min(stmt3_interior(delta), TWO_PI) if beyond_disk and delta < 4.0 else None,
        convex_blaschke=min(convex_blaschke_interior(delta), TWO_PI) if beyond_disk else None,
        convex_improved=min(convex_improved_interior(delta), TWO_PI) if beyond_disk else None,
        symmetric=min(symmetric_interior(delta), TWO_PI) if beyond_disk else None,
        jung_radius=jung_radius(delta),
        gen_jung_radius_tau2=gen_jung_radius(delta, 2.0) if delta >= 2.0 else None,
    )


def crossover(
    bound: Callable[[float], float],
    reference: float,
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect bound(delta) - reference to a root within tol.

    The bracket must produce a sign change; otherwise ValueError. Use the
    *_interior expressions when hunting the 2*pi crossings, since the
    capped forms are flat at the reference beyond the crossing.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = bound(lo) - reference
    fhi = bound(hi) - reference
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)-ref={flo:.6g}, f(hi)-ref={fhi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = bound(mid) - reference
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def circle_bound(r: float) -> float:
    """Arc-length cap (4/3)*pi*r for a T(3,2) subset of the circle of radius r.

    Only valid for r > 2/sqrt(3); at or below that radius an inscribed
    equilateral triangle has side <= 2 and no cap holds. Raises
    OverflowError where 4*pi*r overflows.
    """
    if not (math.isfinite(r) and r > CIRCLE_LEMMA_MIN_RADIUS):
        raise ValueError(f"circle bound needs r > 2/sqrt(3) = {CIRCLE_LEMMA_MIN_RADIUS:.6f}, got {r}")
    if not math.isfinite(4.0 * math.pi * r):
        raise OverflowError(f"circle bound overflows at r={r}")
    return 4.0 * math.pi * r / 3.0


def ta2_bound(a: int) -> float:
    """Area cap (a-1)*pi for T(a,2)-sets, attained by a-1 far-apart unit disks."""
    if not isinstance(a, int) or a < 3:
        raise ValueError(f"need integer a >= 3, got {a}")
    return (a - 1) * math.pi


def nb_of(a: int, b: int) -> int:
    """The N_b = (b-1)*a - b + 2 for which the T(a,2) extremal is also
    T(N_b, b)-extremal."""
    if not isinstance(a, int) or a < 3:
        raise ValueError(f"need integer a >= 3, got {a}")
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"need integer b >= 2, got {b}")
    return (b - 1) * a - b + 2
