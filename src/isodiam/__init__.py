"""Diameter-constrained planar sets: measurements, area bounds, search.

The package revolves around three notions of size for a planar set: the
usual diameter, the three-point diameter diam3 (largest distance that
every triple must realise somewhere), and the subset diameters diam_ab.
On top of those it provides sharp area bounds for sets whose triples
stay within distance 2, pixel-region machinery to hunt for large
feasible sets, and a Monte Carlo model of the poisoned-pie puzzle that
motivated the whole thing.
"""

from .geometry import Disk, DiskUnion, Point, PointSet, circumcircle, distance, min_enclosing_circle
from .diameters import (
    BudgetExceededError,
    TabCheckResult,
    diam,
    diam3,
    diam_ab,
    tab_check,
    triameter,
)
from .bounds import BoundProfile, bound_profile, circle_bound, crossover, gen_jung_radius, jung_radius
from .regions import ArcSet, PixelRegion, arc_tab_check, rasterize, u_delta_shape
from .search import InfeasibleStartError, SearchConfig, SearchResult, anneal, anneal_chains
from .poisoning import PoisonConfig, PoisonStrategy, kill_probability, lethal_region

__version__ = "0.1.0"

__all__ = [
    "ArcSet",
    "BoundProfile",
    "BudgetExceededError",
    "Disk",
    "DiskUnion",
    "InfeasibleStartError",
    "PixelRegion",
    "Point",
    "PointSet",
    "PoisonConfig",
    "PoisonStrategy",
    "SearchConfig",
    "SearchResult",
    "TabCheckResult",
    "anneal",
    "anneal_chains",
    "arc_tab_check",
    "bound_profile",
    "circle_bound",
    "circumcircle",
    "crossover",
    "diam",
    "diam3",
    "diam_ab",
    "distance",
    "gen_jung_radius",
    "jung_radius",
    "kill_probability",
    "lethal_region",
    "min_enclosing_circle",
    "rasterize",
    "tab_check",
    "triameter",
    "u_delta_shape",
    "__version__",
]
