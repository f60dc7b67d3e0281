import importlib.util
import json
import math
import random
import sys
import tracemalloc
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cell_oracles import cell_set
from geometry_oracles import is_lethal
from isodiam import cli, poisoning
from isodiam.geometry import DiskUnion, Point
from isodiam.poisoning import (
    DensityPatch,
    _dose_at,
    _patch_rows,
    _PatchRows,
    _LETHAL,
    _SAFE,
    _TABLE,
    _UNSURE,
    _VerdictTable,
    PointMass,
    PoisonConfig,
    PoisonStrategy,
    kill_probability,
    lethal_region,
    validate_strategy,
)
from isodiam.regions import PixelRegion, rasterize, region_diam


def central(grams: float) -> PoisonStrategy:
    return PoisonStrategy(point_masses=(PointMass(Point(0.0, 0.0), grams),))


@pytest.mark.filterwarnings("error")
def test_pie_radius_is_refused_where_squared_distances_overflow():
    """At R = 6.5e153, (2R)^2 is finite, but squared distances between
    far masses and far verdict cells overflowed. The largest
    accepted radii run without a numpy warning."""
    for R in (6.5e153, 1e200, 1e308):
        with pytest.raises(ValueError, match="pie radius .* is too large"):
            PoisonConfig(R=R, h_available=1.0)
    R = 4.7e153
    rim = 0.999999 * R
    strat = PoisonStrategy(point_masses=(
        PointMass(Point(-rim, 0.0), 1 / 3), PointMass(Point(0.0, -rim), 1 / 3),
        PointMass(Point(rim * math.sqrt(0.5), rim * math.sqrt(0.5)), 1 / 3),
    ))
    cfg = PoisonConfig(R=R, h_available=1.0, samples=2000, seed=1)
    assert kill_probability(strat, cfg).hits == 0
    assert lethal_region(strat, cfg, R / 50).is_empty()


def test_config_validation():
    with pytest.raises(ValueError):
        PoisonConfig(R=2.0, h_available=1.0)  # pie too small for a bite
    with pytest.raises(ValueError):
        PoisonConfig(R=3.0, h_available=0.5)  # less poison than one dose
    with pytest.raises(ValueError):
        PoisonConfig(R=3.0, h_available=1.0, lethal_dose=0.0)
    with pytest.raises(ValueError):
        PoisonConfig(R=3.0, h_available=1.0, samples=0)


def test_strategy_total_and_validation():
    cfg = PoisonConfig(R=3.0, h_available=1.5)
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(1.0, 0.0), 1.0), PointMass(Point(-1.0, 0.0), 0.5))
    )
    assert strat.total_grams == pytest.approx(1.5)
    validate_strategy(strat, cfg)
    with pytest.raises(ValueError):
        validate_strategy(central(1.0), cfg)  # grams must match the supply
    outside = PoisonStrategy(point_masses=(PointMass(Point(4.0, 0.0), 1.5),))
    with pytest.raises(ValueError):
        validate_strategy(outside, cfg)


def test_point_mass_validation():
    with pytest.raises(ValueError):
        PointMass(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        PointMass(Point(0, 0), -1.0)


def test_strategy_json_round_trip(tmp_path):
    patch = DensityPatch(
        region=rasterize(DiskUnion(((0.5, 0.0, 0.4),)), 0.1),
        grams=0.5,
    )
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(0.25, -0.125), 1.0),),
        density=patch,
    )
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(strat.to_json_dict()))
    back = PoisonStrategy.load(path)
    assert back == strat
    assert back.total_grams == pytest.approx(1.5)


def test_is_lethal_geometry():
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    strat = central(1.0)
    assert is_lethal(strat, Point(0.5, 0.0), cfg)
    assert is_lethal(strat, Point(1.0, 0.0), cfg)  # bite boundary is closed
    assert not is_lethal(strat, Point(1.2, 0.0), cfg)
    with pytest.raises(ValueError):
        is_lethal(strat, Point(2.5, 0.0), cfg)  # bites stay inside the pie


def test_is_lethal_requires_full_dose():
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(0.0, 0.0), 0.6), PointMass(Point(1.8, 0.0), 0.4))
    )
    assert not is_lethal(strat, Point(0.0, 0.0), cfg)  # 0.6 g only
    assert is_lethal(strat, Point(0.9, 0.0), cfg)  # collects both masses


@pytest.mark.parametrize("k", range(3, 11))
def test_equal_masses_summing_to_the_dose_kill(k):
    """k masses of 1/k g on a circle of radius 0.5 all lie in the bite at
    the origin; their float sum falls short of 1 g for k = 6, 7 and 10."""
    masses = tuple(
        PointMass(Point(0.5 * math.cos(2 * math.pi * t / k), 0.5 * math.sin(2 * math.pi * t / k)), 1.0 / k)
        for t in range(k)
    )
    strat = PoisonStrategy(point_masses=masses)
    cfg = PoisonConfig(R=3.0, h_available=1.0, samples=2000, seed=1)
    validate_strategy(strat, cfg)
    assert is_lethal(strat, Point(0.0, 0.0), cfg)
    assert kill_probability(strat, cfg).hits > 0
    # the cell's center (0.25, 0.25) lies within 0.86 of every mass
    assert (0, 0) in cell_set(lethal_region(strat, cfg, 0.5))


def test_patch_summing_to_the_dose_kills():
    """1 g over 49 cells inside one bite: 49 * (1/49) is 1 - 1e-16."""
    region = PixelRegion(origin=Point(-0.35, -0.35), h=0.1, cells=frozenset((i, j) for i in range(7) for j in range(7)))
    strat = PoisonStrategy(density=DensityPatch(region=region, grams=1.0))
    cfg = PoisonConfig(R=3.0, h_available=1.0, samples=2000, seed=1)
    assert 49 * (1.0 / 49) < 1.0
    assert is_lethal(strat, Point(0.0, 0.0), cfg)
    assert kill_probability(strat, cfg).hits > 0
    assert not lethal_region(strat, cfg, 0.1).is_empty()


def test_kill_probability_central_quarter():
    """A central 1 g mass kills the bites within 1 of it, 1/4 of the disk
    of radius 2. Over seeds 0-99, the 95% band holds 1/4 in at least 88
    runs, and the mean estimate lies within 3 standard errors of it."""
    covered = 0
    estimates = []
    for seed in range(100):
        rep = kill_probability(central(1.0), PoisonConfig(R=3.0, h_available=1.0, samples=200_000, seed=seed))
        lo, hi = rep.ci95
        covered += lo <= 0.25 <= hi
        estimates.append(rep.estimate)
        assert rep.samples == 200_000
        assert rep.estimate == pytest.approx(0.25, abs=0.01)
    assert covered >= 88
    assert abs(np.mean(estimates) - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / (100 * 200_000))


def test_kill_probability_is_deterministic_per_seed():
    cfg = PoisonConfig(R=3.0, h_available=1.0, samples=300_000, seed=11)
    a = kill_probability(central(1.0), cfg)
    b = kill_probability(central(1.0), cfg)
    assert a.hits == b.hits
    other = kill_probability(
        central(1.0), PoisonConfig(R=3.0, h_available=1.0, samples=300_000, seed=12)
    )
    assert other.hits != a.hits


def test_kill_probability_ci_shrinks():
    small = kill_probability(central(1.0), PoisonConfig(R=3.0, h_available=1.0, samples=10_000))
    large = kill_probability(central(1.0), PoisonConfig(R=3.0, h_available=1.0, samples=640_000))
    assert (large.ci95[1] - large.ci95[0]) < (small.ci95[1] - small.ci95[0])


def test_density_patch_dose():
    # all poison spread over a small patch: a bite centered on the patch
    # swallows it whole, a far bite gets nothing
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    patch = DensityPatch(
        region=rasterize(DiskUnion(((0.0, 0.0, 0.3),)), 0.05),
        grams=1.0,
    )
    strat = PoisonStrategy(point_masses=(), density=patch)
    validate_strategy(strat, cfg)
    assert is_lethal(strat, Point(0.0, 0.0), cfg)
    assert not is_lethal(strat, Point(1.9, 0.0), cfg)


def test_lethal_region_central():
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    h = 0.05
    region = lethal_region(central(1.0), cfg, h)
    assert abs(region.measure - math.pi) < 10 * h
    assert region_diam(region) <= 2.0 + 2 * h * math.sqrt(2)


def test_lethal_region_empty_when_spread_thin():
    cfg = PoisonConfig(R=4.0, h_available=1.0)
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(-2.5, 0.0), 0.5), PointMass(Point(2.5, 0.0), 0.5))
    )
    region = lethal_region(strat, cfg, 0.1)
    assert region.is_empty()


def test_lethal_region_diameter_cap_when_supply_is_short():
    """With less than two doses on the pie no two lethal bite centers can
    sit farther than 2 apart, whatever the placement."""
    rng = np.random.default_rng(17)
    h = 0.05
    for _ in range(15):
        R = float(rng.uniform(2.5, 4.0))
        cfg = PoisonConfig(R=R, h_available=1.5)
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k)) * 1.5
        radius = float(rng.uniform(0.0, R - 1.0))
        masses = []
        for w in weights:
            ang = float(rng.uniform(0, 2 * math.pi))
            rad = float(rng.uniform(0, radius)) if radius > 0 else 0.0
            masses.append(PointMass(Point(rad * math.cos(ang), rad * math.sin(ang)), float(w)))
        strat = PoisonStrategy(point_masses=tuple(masses))
        validate_strategy(strat, cfg)
        region = lethal_region(strat, cfg, h)
        if not region.is_empty():
            assert region_diam(region) <= 2.0 + 2 * h * math.sqrt(2)


# ---------------------------------------------------------- density kernel


def brute_cell_counts(region: PixelRegion, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The density loop that _PatchRows replaced: test every (point, cell)
    pair with dx*dx + dy*dy <= 1.0, in chunks."""
    centers = region.cell_centers()
    counts = np.zeros(xs.shape, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, len(centers)))
    flat_x = xs.ravel()
    flat_y = ys.ravel()
    flat_counts = counts.ravel()
    for lo in range(0, flat_x.size, chunk):
        hi = lo + chunk
        dx = flat_x[lo:hi, None] - centers[None, :, 0]
        dy = flat_y[lo:hi, None] - centers[None, :, 1]
        flat_counts[lo:hi] = np.sum(dx * dx + dy * dy <= 1.0, axis=1)
    return counts


def probe_points(region: PixelRegion, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Points at distance 1 from cell centers along the axes, one ulp
    either side of that, on the diagonal, plus uniform points."""
    c = region.cell_centers()
    x, y = c[:, 0], c[:, 1]
    up, down = np.inf, -np.inf
    xs = [x + 1.0, x - 1.0, x, x, np.nextafter(x + 1.0, up), np.nextafter(x - 1.0, down),
          np.nextafter(x + 1.0, down), x, x, x + math.sqrt(0.5), x + 0.3]
    ys = [y, y, y + 1.0, y - 1.0, y, y, y, np.nextafter(y + 1.0, up), np.nextafter(y - 1.0, up),
          y - math.sqrt(0.5), y + 0.2]
    rng = np.random.default_rng(seed)
    lo, hi = c.min(axis=0) - 1.5, c.max(axis=0) + 1.5
    pts = rng.uniform(lo, hi, size=(300, 2))
    return np.concatenate(xs + [pts[:, 0]]), np.concatenate(ys + [pts[:, 1]])


cell_sets = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=50)


@settings(max_examples=250, deadline=None)
@given(
    cell_sets,
    st.floats(0.01, 2.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_row_counts_equal_the_pairwise_loop(cells, h, ox, oy, seed):
    region = PixelRegion(origin=Point(ox, oy), h=h, cells=frozenset(cells))
    xs, ys = probe_points(region, seed)
    got = _PatchRows(DensityPatch(region=region, grams=1.0)).counts(xs, ys)
    assert np.array_equal(got, brute_cell_counts(region, xs, ys))


@pytest.mark.parametrize(
    "cells",
    [
        [(0, 0)],  # one row, one cell
        [(0, 0), (0, 1), (0, 5), (0, 9), (0, 10), (3, -4)],  # gaps and a lone cell
        [(i, j) for i in range(-6, 7) for j in range(-6, 7) if (i + j) % 2 == 0],  # all gaps
    ],
)
@pytest.mark.parametrize("h", [0.013, 0.05, 0.35, 1.0, 2.0])
def test_row_counts_on_rows_with_gaps_and_single_cells(cells, h):
    region = PixelRegion(origin=Point(0.37, -1.21), h=h, cells=frozenset(cells))
    xs, ys = probe_points(region, 5)
    got = _PatchRows(DensityPatch(region=region, grams=1.0)).counts(xs, ys)
    assert np.array_equal(got, brute_cell_counts(region, xs, ys))


@settings(max_examples=100, deadline=None)
@given(cell_sets, st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
def test_paired_ranks_equal_the_outer_ranks(cells, h, seed):
    """ranks on k x l boxes built from the outer product of x and y edges,
    and on the k * l boxes given one by one, give the same four ranks, in
    order."""
    region = PixelRegion(origin=Point(0.37, -1.21), h=h, cells=frozenset(cells))
    rows = _PatchRows(DensityPatch(region=region, grams=1.0))
    c = region.cell_centers()
    lo, hi = c.min(axis=0) - 1.5, c.max(axis=0) + 1.5
    rng = np.random.default_rng(seed)
    xa, ya = rng.uniform(lo, hi, size=(12, 2)).T
    xb, yb = xa + rng.uniform(0.0, 0.5, 12), ya + rng.uniform(0.0, 0.5, 12)
    xb[:3], yb[:3] = xa[:3], ya[:3]  # points among the boxes
    ya, yb = ya - rows.y0, yb - rows.y0
    k, l = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
    k, l = k.ravel(), l.ravel()
    for r, cx in enumerate(rows.cx.tolist()):
        far, near = poisoning._far_near(xa, xb, cx)
        far2, near2 = far * far, near * near
        outer = rows.ranks(r, far2[:, None], near2[:, None], ya[None, :], yb[None, :])
        paired = rows.ranks(r, far2[k], near2[k], ya[l], yb[l])
        for got, want in zip(outer, paired):
            assert np.array_equal(got.ravel(), want)
        a_out, a_in, b_in, b_out = paired
        assert np.all((a_out <= a_in) & (a_in <= b_in) & (b_in <= b_out))


def test_dose_on_the_lethal_region_grid():
    """lethal_region hands _dose_at 2-D meshgrid arrays."""
    region = rasterize(DiskUnion(((0.3, -0.2, 0.6),)), 0.05)
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(0.5, 0.5), 0.4),),
        density=DensityPatch(region=region, grams=0.6),
    )
    cx = (np.arange(-50, 51) + 0.5) * 0.04
    gx, gy = np.meshgrid(cx, cx, indexing="ij")
    dose = _dose_at(strat, _PatchRows(strat.density), gx, gy)
    mass = 0.4 * ((gx - 0.5) ** 2 + (gy - 0.5) ** 2 <= 1.0)
    assert dose.shape == gx.shape
    assert np.array_equal(dose, mass + (0.6 / len(region.cells)) * brute_cell_counts(region, gx, gy))


def test_density_patch_bite_boundary_is_closed():
    """A one-cell patch centered exactly at the origin: the bite at
    distance exactly 1 takes the cell, one ulp farther does not."""
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    cell = PixelRegion(origin=Point(-0.5, -0.5), h=1.0, cells=frozenset({(0, 0)}))
    assert cell.cell_centers().tolist() == [[0.0, 0.0]]
    strat = PoisonStrategy(density=DensityPatch(region=cell, grams=1.0))
    beyond = float(np.nextafter(1.0, 2.0))
    assert is_lethal(strat, Point(1.0, 0.0), cfg)
    assert is_lethal(strat, Point(0.0, -1.0), cfg)
    assert not is_lethal(strat, Point(beyond, 0.0), cfg)
    assert not is_lethal(strat, Point(0.0, -beyond), cfg)


# ------------------------------------------------------ point-mass stream


def whole_round_dose_at(strategy, patch, xs, ys):
    """The mass-by-mass dose expression, frozen here as the oracle for
    _dose_at and for split_hits."""
    dose = np.zeros(xs.shape, dtype=np.float64)
    for m in strategy.point_masses:
        hit = (xs - m.position.x) ** 2 + (ys - m.position.y) ** 2 <= 1.0
        dose += m.grams * hit
    if patch is not None:
        dose += patch.per_cell * patch.counts(xs.ravel(), ys.ravel()).reshape(xs.shape)
    return dose


def uniform_batch_hits(strategy, patch, config, batch_index, quota):
    """The batch loop of the earlier stream, kept as an independent
    estimator of the same law: each rejection round is one (draw, 2)
    array of Generator.uniform(-r, r), filtered by a boolean mask."""
    rng = np.random.default_rng([config.seed, batch_index])
    radius = config.R - 1.0
    hits = 0
    remaining = quota
    while remaining > 0:
        draw = int(remaining * 4.0 / math.pi * 1.05) + 16
        pts = rng.uniform(-radius, radius, size=(draw, 2))
        keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= radius * radius
        accepted = pts[keep][:remaining]
        if len(accepted) == 0:
            continue
        dose = whole_round_dose_at(strategy, patch, accepted[:, 0], accepted[:, 1])
        hits += int(np.sum(dose >= config.lethal_dose - poisoning._TOL))
        remaining -= len(accepted)
    return hits


def unsure_replay(strategy, patch, config, unsure, cells, offsets, quota):
    """_unsure_hits's draw replayed in whole rounds, one call of each
    stream per round: a round of m points takes m unsure cells from
    cells.integers(len(unsure), size=m) and m offset pairs from
    offsets.random((m, 2)). Every accepted point is scored with
    whole_round_dose_at; the first quota accepted count. Returns the hits
    and the points drawn up to the last of them. The table size is read at
    call time, so a patched poisoning._TABLE reaches it."""
    side = poisoning._TABLE
    radius = config.R - 1.0
    low, step = -radius, 2.0 * radius / side
    hits = drawn = 0
    remaining = quota
    while remaining > 0:
        draw = min(2 * remaining + 64, 1 << 18)
        cell = unsure[cells.integers(unsure.size, size=draw)]
        v = offsets.random((draw, 2))
        x = low + step * (cell % side + v[:, 0])
        y = low + step * (cell // side + v[:, 1])
        keep = np.flatnonzero(x * x + y * y <= radius * radius)[:remaining]
        drawn += int(keep[-1]) + 1 if keep.size == remaining else draw
        dose = whole_round_dose_at(strategy, patch, x[keep], y[keep])
        hits += int(np.count_nonzero(dose >= config.lethal_dose - poisoning._TOL))
        remaining -= keep.size
    return hits, drawn


def split_hits(strategy, patch, config, strata=None):
    """kill_probability's two streams replayed whole, with its hits and
    stats. SeedSequence(seed) spawns the two PCG64 streams; the first gives
    the multinomial counts of bites in the lethal cells, in the unsure ones
    and in the safe ones, and then unsure_replay draws the unsure bites.
    strata is (unsure, (lethal share, unsure share)), flat_table's by
    default."""
    unsure, (lethal_share, unsure_share) = strata or flat_table(strategy, config)[3:]
    cells, offsets = streams(config.seed)
    pvals = [lethal_share, unsure_share, 1.0 - lethal_share - unsure_share]
    lethal, quota, safe = cells.multinomial(config.samples, pvals).tolist()
    hits, drawn = unsure_replay(strategy, patch, config, unsure, cells, offsets, quota)
    return lethal + hits, lethal + safe, drawn, quota


@st.composite
def mass_lists(draw, reach):
    """1-12 masses on at most four distinct spots, so some coincide."""
    coord = st.floats(-reach, reach, allow_nan=False)
    spots = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(spots) - 1), st.sampled_from([0.125, 0.25, 0.5, 1.0])),
        min_size=1, max_size=12,
    ))
    return tuple(PointMass(Point(*spots[i]), grams) for i, grams in picks)


@st.composite
def stream_cases(draw):
    """Masses (some coincident), patches with gaps and single cells, both
    mixed, k masses of 1/k g whose float sum falls in the _TOL band below
    1 g, and masses on the pie rim. One lethal dose in four is at most
    _TOL, where a bite holding no poison already kills."""
    R = draw(st.sampled_from([2.5, 3.0, 7.3]))
    kind = draw(st.sampled_from(["masses", "density", "mixed", "k-gon", "rim"]))
    masses: tuple[PointMass, ...] = ()
    density = None
    if kind in ("masses", "mixed"):
        masses = draw(mass_lists(R - 1.0))
    elif kind == "k-gon":
        k = draw(st.integers(3, 10))
        rho = draw(st.floats(0.0, 1.0))
        cx, cy = draw(st.floats(-(R - 2.0), R - 2.0)), draw(st.floats(-(R - 2.0), R - 2.0))
        masses = tuple(
            PointMass(Point(cx + rho * math.cos(2 * math.pi * t / k), cy + rho * math.sin(2 * math.pi * t / k)), 1.0 / k)
            for t in range(k)
        )
    elif kind == "rim":
        angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4))
        masses = tuple(PointMass(Point(R * math.cos(a), R * math.sin(a)), 1.0 / len(angles)) for a in angles)
    if kind in ("density", "mixed"):
        region = PixelRegion(
            origin=Point(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
            h=draw(st.sampled_from([0.05, 0.1, 0.3])),
            cells=frozenset(draw(cell_sets)),
        )
        density = DensityPatch(region=region, grams=draw(st.sampled_from([0.5, 1.0])))
    config = PoisonConfig(
        R=R, h_available=1.0, lethal_dose=draw(st.sampled_from([1.0, 1.0, 0.5, 1e-10])), samples=1,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return PoisonStrategy(point_masses=masses, density=density), config


def streams(seed):
    """kill_probability's two generators for a seed, PCG64 each."""
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(2)]


@settings(max_examples=60, deadline=None)
@given(stream_cases(), st.sampled_from([1, 17, poisoning._BLOCK - 1, poisoning._BLOCK + 1]))
def test_streamed_batch_equals_the_whole_round_draw(case, n):
    """kill_probability's hits and stats are those of split_hits, which
    scores every unsure bite with the exact dose, for n samples. So are
    those of the unsure stratum alone with a quota of n, where it holds a
    share of the disk: at n either side of _BLOCK, its first block of
    _BLOCK points falls short of the quota and more blocks follow. The
    cases need not place h_available, so validation is bypassed."""
    strategy, config = case
    config = replace(config, samples=n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisoning, "validate_strategy", lambda *_: None)
        rep = kill_probability(strategy, config)
    got = (rep.hits, *astuple(rep.stats))
    assert all(type(k) is int for k in got)
    patch = _patch_rows(strategy)
    assert got == split_hits(strategy, patch, config)
    hits, decided, drawn, exact = got
    assert hits <= n and exact == n - decided <= drawn
    table = _VerdictTable(strategy, config)
    assert table.unsure.size or table.unsure_share == 0.0  # an empty stratum draws no bite
    if table.unsure_share > 0.0:
        got = poisoning._unsure_hits(table, *streams(config.seed), n)
        assert got == unsure_replay(strategy, patch, config, table.unsure, *streams(config.seed), n)


@pytest.mark.parametrize("quota", [1, 17])
def test_a_block_accepting_exactly_the_quota_is_cut_at_its_last_bite(quota):
    """When a block accepts exactly the unsure bites still to accept, the
    points after the last of them are not drawn: they count neither as
    drawn nor as scored. A 1 g mass at the center of a pie of radius 2.001
    puts the lethal set's edge 0.001 inside the sampling circle, so the
    unsure cells straddle the circle too and a third of their points are
    redrawn. Stream pairs 0-399 reach that case in the first block: the
    quota-th accepted point comes before the block's last point, and the
    (quota + 1)-th after it."""
    strat = central(1.0)
    cfg = PoisonConfig(R=2.001, h_available=1.0, seed=7)
    table = _VerdictTable(strat, cfg)
    first_block = min(poisoning._BLOCK, 2 * quota)
    reached = 0
    for k in range(400):
        want = unsure_replay(strat, None, cfg, table.unsure, *streams(k), quota)
        assert poisoning._unsure_hits(table, *streams(k), quota) == want
        reached += want[1] < first_block < unsure_replay(strat, None, cfg, table.unsure, *streams(k), quota + 1)[1]
    assert reached >= 2


def test_uncertain_bites_flushed_mid_batch_score_the_same_hits(monkeypatch):
    """A 316-cell patch, like the pie workload's, sends a few thousand
    bites of a 150,000-bite run to the exact dose, a block at a time.
    Blocks of 1, 3 or 257 points score them in other pieces and read the
    streams in other pieces: neither moves a hit or a count, no scoring
    holds more than a block, and the scorings add up to the count."""
    patch = DensityPatch(region=rasterize(DiskUnion(((0.0, 0.0, 0.5),)), 0.05), grams=1.5)
    strat = PoisonStrategy(density=patch)
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=150_000, seed=4)
    want = kill_probability(strat, cfg)
    assert want.stats.bites_exact_dose > 0
    exact = _VerdictTable.exact
    for block in (1, 3, 257):
        scored = []

        def spy(table, x, y):
            scored.append(len(x))
            return exact(table, x, y)

        monkeypatch.setattr(poisoning, "_BLOCK", block)
        monkeypatch.setattr(_VerdictTable, "exact", spy)
        assert kill_probability(strat, cfg) == want
        assert len(scored) > 2
        assert max(scored) <= block
        assert sum(scored) == want.stats.bites_exact_dose


@pytest.mark.parametrize("radius", [1e-3, 0.3, 1.0, 1.5, 2.0, 6.3, 1234.5678, 1e6 - 1.0, 1e6])
def test_cell_offset_center_lies_in_its_cell(radius):
    """An unsure cell i's bite center is the affine map
    low + (span / _TABLE) * (i + v) of its offset v, a double of
    Generator.random in [0, 1). At the first, second, middle and last
    cell, and at the offsets 0, 2^-53, 1/2 and 1 - 2^-53 and a few drawn
    ones, it lies in [e[i], e[i + 1]], inside the cell's grown box, also
    where i + v rounds up to i + 1."""
    low, span = -radius, 2.0 * radius
    e = low + span * (np.arange(_TABLE + 1) / _TABLE)
    i = np.array([0, 1, _TABLE // 2 - 1, _TABLE - 1])[:, None]
    drawn = np.random.default_rng(0).random(16)
    v = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], drawn])[None, :]
    t = low + (span / _TABLE) * (i + v)
    assert np.all((e[i] <= t) & (t <= e[i + 1]))
    assert np.array_equal(t[:, 0], e[i[:, 0]])
    assert np.array_equal(i[1:, 0] + v[0, 3], i[1:, 0] + 1.0)  # rounds up
    assert np.array_equal(t[1:, 3], e[i[1:, 0] + 1])


def sampling_probes() -> np.ndarray:
    """Raw doubles u at every cell edge k / _TABLE and one ulp either side
    of it, inside [0, 1), and a few random ones."""
    edges = np.arange(_TABLE + 1) / _TABLE
    u = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(0).random(200)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def assert_table_is_sound(strategy: PoisonStrategy, config: PoisonConfig) -> None:
    """At every probe pair (u, v): a probe in the disk lies in a cell whose
    grown box meets the disk, and in an unsure cell where its verdict is
    uncertain; every unsure cell's verdict is uncertain; the cells whose
    grown box lies in the disk have all their probes in it, and those of
    them with a certain verdict are the in_lethal and in_safe ones; and a
    certain verdict is that of the exact dose."""
    table = _VerdictTable(strategy, config)
    u = sampling_probes()
    uu, vv = np.meshgrid(u, u, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    flat = (_TABLE * uu).astype(np.intp) + _TABLE * (_TABLE * vv).astype(np.intp)
    verdict = table.verdict.ravel()[flat]
    x = table.low + table.span * uu
    y = table.low + table.span * vv
    inside = x * x + y * y <= table.r2
    e = table.low + table.span * (np.arange(_TABLE + 1) / _TABLE)
    far, near = poisoning._far_near(e[:-1] - table.eps, e[1:] + table.eps, 0.0)
    far, near = far * far, near * near  # symmetric in (i, j), so either layout
    assert np.all((near[:, None] + near[None, :] <= table.r2).ravel()[flat[inside]])
    assert np.all(np.isin(flat[inside & (verdict == _UNSURE)], table.unsure))
    assert np.all(table.verdict.ravel()[table.unsure] == _UNSURE)
    in_box = np.flatnonzero(far[:, None] + far[None, :] <= table.r2)
    probes = np.bincount(flat, minlength=_TABLE**2)
    assert np.array_equal(np.bincount(flat[inside], minlength=_TABLE**2)[in_box], probes[in_box])
    in_verdict = table.verdict.ravel()[in_box]
    assert (table.in_lethal, table.in_safe) == (np.count_nonzero(in_verdict == _LETHAL), np.count_nonzero(in_verdict == _SAFE))
    certain = inside & (verdict != _UNSURE)
    exact = poisoning._is_lethal_dose(_dose_at(strategy, _patch_rows(strategy), x[certain], y[certain]), config)
    assert np.array_equal(verdict[certain] == _LETHAL, exact)


@settings(max_examples=60, deadline=None)
@given(stream_cases())
def test_certain_table_cells_give_the_disk_test_and_the_verdict_of_the_dose(case):
    assert_table_is_sound(*case)


@pytest.mark.parametrize("lethal_dose", [1.0, 1e-10])
def test_table_is_sound_on_a_huge_pie(lethal_dose):
    R = 1e6
    rim = R * math.sqrt(0.5)
    strat = PoisonStrategy(point_masses=(PointMass(Point(rim, rim), 0.5), PointMass(Point(-rim, -rim), 0.5)))
    assert_table_is_sound(strat, PoisonConfig(R=R, h_available=1.0, lethal_dose=lethal_dose))


@pytest.mark.parametrize("lethal_dose", [1.0, 1e-10])
def test_grid_is_capped_on_a_huge_pie(lethal_dose):
    """Masses on opposite rims of a pie of radius 1e6: the verdict table
    stays 256 cells a side, each about 7,812 wide, and the hits are still
    those of scoring every bite."""
    R = 1e6
    rim = R * math.sqrt(0.5)
    strat = PoisonStrategy(point_masses=(PointMass(Point(rim, rim), 0.5), PointMass(Point(-rim, -rim), 0.5)))
    cfg = PoisonConfig(R=R, h_available=1.0, lethal_dose=lethal_dose, samples=20_000, seed=3)
    table = _VerdictTable(strat, cfg)
    assert table.verdict.shape == (256, 256)
    assert table.span / _TABLE > 7800
    hits = kill_probability(strat, cfg).hits
    assert hits == split_hits(strat, None, cfg)[0]
    assert hits == (cfg.samples if lethal_dose < poisoning._TOL else 0)


def test_table_decides_most_of_the_disk_at_radius_7_3():
    """At R = 7.3 a table cell is 12.6 / 256 = 0.049 wide, and the table
    still decides most of the disk."""
    cfg = PoisonConfig(R=7.3, h_available=1.5)
    table = _VerdictTable(tour_hexagon(), cfg)
    assert table.in_lethal + table.in_safe > 0.7 * _TABLE**2
    assert table.in_lethal > 0
    assert_table_is_sound(tour_hexagon(), cfg)


def flat_table(strategy: PoisonStrategy, config: PoisonConfig) -> tuple:
    """The verdict array, in_lethal, in_safe, unsure and (lethal_share,
    unsure_share) of _VerdictTable, built flat: every cell of the
    near-poison block is bounded as one box of a _TABLE x _TABLE grid, the
    masses by axis and the patch rows by _PatchRows.ranks over the grid,
    with no coarse pass. The oracle for the coarse-to-fine build, which
    must equal it cell for cell, and for kill_probability's strata. The
    table size is read at call time, so a patched poisoning._TABLE reaches
    it."""
    _TABLE = poisoning._TABLE
    patch = _patch_rows(strategy)
    radius = config.R - 1.0
    low, span = -radius, 2.0 * radius
    px = [m.position.x for m in strategy.point_masses]
    py = [m.position.y for m in strategy.point_masses]
    if patch is not None:
        px += [float(patch.cx.min()), float(patch.cx.max())]
        py += [float(patch.cy.min()), float(patch.cy.max())]
    eps = poisoning._EPS * (2.0 + config.R + max(map(abs, px + py)))
    edges = low + span * (np.arange(_TABLE + 1) / _TABLE)
    lo, hi = edges[:-1] - eps, edges[1:] + eps
    reach = 1.0 + 2.0 * eps
    ia, ib = np.searchsorted(hi, min(px) - reach), np.searchsorted(lo, max(px) + reach, "right")
    ja, jb = np.searchsorted(hi, min(py) - reach), np.searchsorted(lo, max(py) + reach, "right")
    xa, xb, ya, yb = lo[ia:ib], hi[ia:ib], lo[ja:jb], hi[ja:jb]
    dose_min = np.zeros((xa.size, ya.size))
    dose_max = np.zeros((xa.size, ya.size))
    for m in strategy.point_masses:
        far_x, near_x = poisoning._far_near(xa, xb, m.position.x)
        far_y, near_y = poisoning._far_near(ya, yb, m.position.y)
        dose_min += m.grams * ((far_x * far_x)[:, None] + (far_y * far_y)[None, :] <= 1.0 - eps)
        dose_max += m.grams * ((near_x * near_x)[:, None] + (near_y * near_y)[None, :] <= 1.0 + eps)
    if patch is not None:
        in_min = np.zeros((xa.size, ya.size))
        in_max = np.zeros((xa.size, ya.size))
        for r, cx, rows in patch._near_rows(xa, xb):
            far, near = poisoning._far_near(xa[rows], xb[rows], cx)
            a_out, a_in, b_in, b_out = patch.ranks(
                r, (far * far)[:, None], (near * near)[:, None], ya - patch.y0, yb - patch.y0
            )
            in_min[rows] += b_in - a_in
            in_max[rows] += b_out - a_out
        dose_min += patch.per_cell * in_min
        dose_max += patch.per_cell * in_max
    dose_0 = poisoning._is_lethal_dose(np.zeros(1), config)[0]
    verdict = np.full((_TABLE, _TABLE), _LETHAL if dose_0 else _SAFE, dtype=np.uint8)  # cell (i, j) at [i, j]
    near_poison = verdict[ia:ib, ja:jb]
    near_poison[:] = _UNSURE
    near_poison[poisoning._is_lethal_dose(dose_min, config)] = _LETHAL
    near_poison[~poisoning._is_lethal_dose(dose_max, config)] = _SAFE
    far, near = poisoning._far_near(lo, hi, 0.0)
    inside = (far * far)[:, None] + (far * far)[None, :] <= radius * radius
    meets = (near * near)[:, None] + (near * near)[None, :] <= radius * radius
    in_lethal = int(np.count_nonzero(inside & (verdict == _LETHAL)))
    in_safe = int(np.count_nonzero(inside & (verdict == _SAFE)))
    other = np.flatnonzero((meets & ~(inside & (verdict != _UNSURE))).T)  # at i + _TABLE j
    j, i = np.divmod(other, _TABLE)
    area = poisoning._disk_areas(edges[i], edges[i + 1], edges[j], edges[j + 1], radius)
    share = area / (math.pi * (radius * radius))
    other_verdict = verdict.T.ravel()[other]
    lethal = in_lethal * (4.0 / (_TABLE * _TABLE * math.pi)) + float(share[other_verdict == _LETHAL].sum())
    lethal = min(lethal, 1.0)
    shares = (lethal, min(float(share[other_verdict == _UNSURE].sum()), 1.0 - lethal))
    return verdict.T, in_lethal, in_safe, other[other_verdict == _UNSURE], shares


def _load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench_workloads = _load_bench_workloads()


@st.composite
def bench_cases(draw):
    """The pie and tour workloads' strategies at their R = 3, from a drawn
    bench seed: the turned hexagon, the 316-cell patch and the mixed one."""
    make = draw(st.sampled_from(["masses_strategy", "patch_strategy", "mixed_strategy"]))
    data = getattr(bench_workloads, make)(random.Random(draw(st.integers(0, 2**32 - 1))))
    grams = bench_workloads.PIE_GRAMS
    config = PoisonConfig(R=bench_workloads.PIE_R, h_available=grams, seed=draw(st.integers(0, 2**32 - 1)))
    return PoisonStrategy.from_json_dict(data), config


@settings(max_examples=80, deadline=None)
@given(st.one_of(stream_cases(), bench_cases()))
def test_coarse_to_fine_table_equals_the_flat_build(case):
    table = _VerdictTable(*case)
    verdict, in_lethal, in_safe, unsure, shares = flat_table(*case)
    assert np.array_equal(table.verdict, verdict)
    assert (table.in_lethal, table.in_safe) == (in_lethal, in_safe)
    assert np.array_equal(table.unsure, unsure)
    assert (table.lethal_share, table.unsure_share) == shares


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_disk_runs_are_the_rows_of_the_full_mask(data):
    """For sq that falls, then rises, each row of the full mask
    sq[i] + sq[j] <= r2 is the run _disk_runs gives, with r2 on a pair sum
    or one ulp to either side of it, tied values and empty runs included."""
    value = st.floats(0.0, 1e6) | st.sampled_from([0.0, 0.25, 1.0, 2.0])
    left = sorted(data.draw(st.lists(value, max_size=12)), reverse=True)
    sq = np.array(left + sorted(data.draw(st.lists(value, min_size=1, max_size=12))))
    sums = sq[:, None] + sq[None, :]
    r2 = data.draw(st.sampled_from(sums.ravel().tolist()))
    cols = np.arange(sq.size)
    for t in (np.nextafter(r2, -np.inf), r2, np.nextafter(r2, np.inf)):
        start, stop = poisoning._disk_runs(sq, float(t))
        assert np.array_equal((cols >= start[:, None]) & (cols < stop[:, None]), sums <= t)


def test_unsure_cells_cover_under_1_percent_of_the_tour_table():
    """On the tour hexagon at R = 3 a table cell is 4 / 256 wide, and the
    unsure cells, the ones that the lethal boundary crosses, cover 0.65%
    of the table. The 1,020 cells that only the disk's rim crosses are
    all safe and hold their area in the disk, not points."""
    table = _VerdictTable(tour_hexagon(), PoisonConfig(R=3.0, h_available=1.5))
    assert table.unsure.size < 0.01 * _TABLE**2


def integrated_disk_area(x0: float, x1: float, y0: float, y1: float, r: float) -> float:
    """The area of [x0, x1] x [y0, y1] inside the disk of radius r about
    the origin, integrated numerically. x = r sin t turns the disk's
    half-height at x into r cos t and dx into r cos t dt; between the t
    where a side of the rectangle meets the circle, the clipped chord takes
    one smooth branch, and 40-node Gauss-Legendre quadrature integrates
    each piece to rounding."""
    lo, hi = (math.asin(min(max(x / r, -1.0), 1.0)) for x in (x0, x1))
    cuts = {lo, hi}
    for y in (y0, y1):
        if abs(y) < r:
            cuts |= {math.acos(abs(y) / r), -math.acos(abs(y) / r)}
    knots = sorted(t for t in cuts if lo <= t <= hi)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        half = r * np.cos(0.5 * (b - a) * nodes + 0.5 * (a + b))
        chord = np.maximum(np.minimum(y1, half) - np.maximum(y0, -half), 0.0)
        total += 0.5 * (b - a) * float(np.sum(weights * chord * half))
    return total


def disk_area(x0: float, x1: float, y0: float, y1: float, r: float) -> float:
    return float(poisoning._disk_areas(*(np.array([t]) for t in (x0, x1, y0, y1)), r)[0])


@st.composite
def disk_rectangles(draw):
    """A radius r and a rectangle around its disk, its sides anywhere
    within 1.5 r of the center, on an axis, tangent to the circle (at
    +-r), or through the points of the circle at 30 and 45 degrees."""
    r = draw(st.floats(0.5, 8.0))
    marks = [0.0, 0.5, math.sqrt(0.5), math.sqrt(0.75), 1.0]
    side = st.one_of(st.floats(-1.5, 1.5), st.sampled_from(marks + [-t for t in marks]))
    x0, x1 = sorted((draw(side) * r, draw(side) * r))
    y0, y1 = sorted((draw(side) * r, draw(side) * r))
    return x0, x1, y0, y1, r


@settings(max_examples=300, deadline=None)
@given(disk_rectangles())
@example((0.0, 1.875, 0.0, 2.23517418e-07, 1.875))  # a strip along the x axis up to the circle
def test_rectangle_area_in_the_disk_equals_the_integral(case):
    assert disk_area(*case) == pytest.approx(integrated_disk_area(*case), rel=0.0, abs=1e-12 * case[-1] ** 2)


@pytest.mark.parametrize("sx, sy", [(1, 1), (-1, 1), (-1, -1), (1, -1)])
def test_rectangle_area_in_each_quadrant_and_across_the_axes(sx, sy):
    """Rectangles in each quadrant, across an axis, across both, inside the
    disk, outside it and tangent to it from outside, against the integral
    or their known areas."""
    r = 2.0
    x0, x1 = sorted((sx * 0.3, sx * 1.9))
    y0, y1 = sorted((sy * 0.2, sy * 1.7))
    assert disk_area(x0, x1, y0, y1, r) == pytest.approx(integrated_disk_area(x0, x1, y0, y1, r), abs=1e-12)
    x0, x1 = sorted((-sx * 0.5, sx * 2.5))
    assert disk_area(x0, x1, y0, y1, r) == pytest.approx(integrated_disk_area(x0, x1, y0, y1, r), abs=1e-12)
    corner = sorted((0.0, sx * r)), sorted((0.0, sy * r))
    assert disk_area(*corner[0], *corner[1], r) == pytest.approx(math.pi, abs=1e-12)  # a quarter disk
    assert disk_area(-r, r, *sorted((0.0, sy * 3.0)), r) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert disk_area(-r, r, -r, r, r) == pytest.approx(4.0 * math.pi, abs=1e-12)
    x0, x1 = sorted((sx * 0.25, sx * 0.75))
    assert disk_area(x0, x1, *sorted((sy * 0.5, sy * 1.5)), r) == pytest.approx(0.5, abs=1e-12)  # inside
    assert disk_area(*sorted((sx * r, sx * 3.0)), -1.0, 1.0, r) == 0.0  # tangent at (+-r, 0)
    assert disk_area(-1.0, 1.0, *sorted((sy * r, sy * 3.0)), r) == 0.0  # tangent at (0, +-r)
    assert disk_area(*sorted((sx * 1.5, sx * 3.0)), *sorted((sy * 1.5, sy * 3.0)), r) == 0.0  # outside


@pytest.mark.parametrize("R", [2.001, 3.0, 7.3, 1e6])
def test_cell_areas_fill_the_disk(R):
    """The table's cells that meet the disk hold areas that add up to
    pi r^2 within 1e-12 relative, and each cell inside the disk holds its
    cell area, to within rounding."""
    radius = R - 1.0
    e = -radius + 2.0 * radius * (np.arange(_TABLE + 1) / _TABLE)
    far, near = poisoning._far_near(e[:-1], e[1:], 0.0)
    far, near = far * far, near * near
    i, j = np.nonzero(near[:, None] + near[None, :] <= radius * radius)
    area = poisoning._disk_areas(e[i], e[i + 1], e[j], e[j + 1], radius)
    disk = math.pi * radius * radius
    assert abs(float(area.sum()) - disk) <= 1e-12 * disk
    inside = far[i] + far[j] <= radius * radius
    assert inside.sum() > 0.7 * i.size
    cell = (e[i + 1] - e[i]) * (e[j + 1] - e[j])
    assert np.allclose(area[inside], cell[inside], rtol=0.0, atol=1e-14 * radius * radius)


def lens_area(d: float, r1: float, r2: float) -> float:
    """Area of the intersection of two disks of radii r1 and r2 whose
    centers lie d apart, with |r1 - r2| < d < r1 + r2."""
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return a1 + a2 - 0.5 * math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))


def test_lethal_rim_cells_give_the_exact_kill():
    """A 1 g mass 2.3 from the center of a pie of radius 3: its unit bite
    disk crosses the sampling circle of radius 2, so rim cells inside it
    are lethal and join the lethal share by their area in the disk. The
    kill probability is the two disks' lens over 4 pi. Over seeds 0-99 at
    20,000 samples, the 95% band holds it in at least 88 runs, and the mean
    lies within 3 standard errors of it."""
    strat = PoisonStrategy(point_masses=(PointMass(Point(2.3 * math.cos(0.4), 2.3 * math.sin(0.4)), 1.0),))
    cfg = PoisonConfig(R=3.0, h_available=1.0, samples=20_000)
    table = _VerdictTable(strat, cfg)
    assert table.lethal_share - table.in_lethal * (4.0 / (_TABLE * _TABLE * math.pi)) > 1e-3
    exact = lens_area(2.3, 1.0, 2.0) / (4.0 * math.pi)
    covered, total = 0, 0.0
    for seed in range(100):
        rep = kill_probability(strat, replace(cfg, seed=seed))
        covered += rep.ci95[0] <= exact <= rep.ci95[1]
        total += rep.estimate
    assert covered >= 88
    assert abs(total / 100 - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / (100 * cfg.samples))


def ulp_ring(cx: float, cy: float) -> tuple[np.ndarray, np.ndarray]:
    """Points at distance 1 from (cx, cy) along the axes, one ulp either
    side of that, and on the diagonal."""
    up, down = np.inf, -np.inf
    xs = [cx + 1.0, cx - 1.0, cx, cx, np.nextafter(cx + 1.0, up), np.nextafter(cx + 1.0, down),
          np.nextafter(cx - 1.0, down), np.nextafter(cx - 1.0, up), cx, cx, cx + math.sqrt(0.5)]
    ys = [cy, cy, cy + 1.0, cy - 1.0, cy, cy, cy, cy, np.nextafter(cy + 1.0, up),
          np.nextafter(cy - 1.0, up), cy - math.sqrt(0.5)]
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


@pytest.mark.parametrize("with_patch", [False, True])
def test_dose_equals_the_whole_round_expression(with_patch):
    masses = (
        PointMass(Point(0.5, -0.25), 0.25),  # dyadic: the ring points sit at distance exactly 1
        PointMass(Point(0.5, -0.25), 0.5),
        PointMass(Point(-0.3, 0.7), 0.25),
        PointMass(Point(0.1, 0.1), 0.125),
    )
    density = None
    if with_patch:
        density = DensityPatch(region=rasterize(DiskUnion(((-0.2, 0.1, 0.4),)), 0.05), grams=0.5)
    strat = PoisonStrategy(point_masses=masses, density=density)
    patch = _patch_rows(strat)
    rings = [ulp_ring(m.position.x, m.position.y) for m in masses]
    xs = np.concatenate([r[0] for r in rings])
    ys = np.concatenate([r[1] for r in rings])
    assert _dose_at(strat, patch, np.array([1.5]), np.array([-0.25]))[0] >= 0.75
    assert np.array_equal(_dose_at(strat, patch, xs, ys), whole_round_dose_at(strat, patch, xs, ys))
    cx = (np.arange(-60, 61) + 0.5) * 0.025  # a lethal_region grid
    gx, gy = np.meshgrid(cx, cx, indexing="ij")
    dose = _dose_at(strat, patch, gx, gy)
    assert dose.shape == gx.shape
    assert np.array_equal(dose, whole_round_dose_at(strat, patch, gx, gy))


def raster_probes(table: _VerdictTable, strategy: PoisonStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Every corner of the table's cells and the points one ulp either side
    of it in x and in y, with points up to one raster pitch outside the
    sampling square, for the pitches 0.05 and 2r; the ulp_ring of every
    mass; probe_points around the patch's cells."""
    e = table.low + table.span * (np.arange(_TABLE + 1) / _TABLE)
    beyond = np.append(np.linspace(0.0, 0.05, 6)[1:], table.span)
    t = np.concatenate([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf), e[0] - beyond, e[-1] + beyond])
    gx, gy = np.meshgrid(t, t, indexing="ij")
    parts = [(gx.ravel(), gy.ravel())]
    parts += [ulp_ring(m.position.x, m.position.y) for m in strategy.point_masses]
    if strategy.density is not None:
        parts.append(probe_points(strategy.density.region, 0))
    return np.concatenate([x for x, _ in parts]), np.concatenate([y for _, y in parts])


@settings(max_examples=150, deadline=None)
@given(stream_cases())
def test_certain_grid_cells_give_the_verdict_of_the_dose(case):
    """A raster point inside the sampling disk takes the exact dose's
    verdict from the table cell its coordinate index finds, wherever that
    verdict is certain, so contains_xy is the disk test and the exact
    dose's verdict."""
    strategy, config = case
    table = _VerdictTable(strategy, config)
    xs, ys = raster_probes(table, strategy)
    verdict = table.verdict.take(table.index(ys) * _TABLE + table.index(xs))
    inside = xs * xs + ys * ys <= table.r2
    exact = poisoning._is_lethal_dose(_dose_at(strategy, _patch_rows(strategy), xs, ys), config)
    certain = inside & (verdict != _UNSURE)
    assert np.array_equal(verdict[certain] == _LETHAL, exact[certain])
    assert np.array_equal(table.contains_xy(xs, ys), inside & exact)


@pytest.mark.parametrize("kind", ["hexagon", "patch", "mixed"])
def test_lethal_region_equals_the_dose_raster(kind):
    """The raster built from the table's verdicts is the raster of the
    exact dose at every cell center."""
    patch = DensityPatch(region=rasterize(DiskUnion(((0.1, -0.2, 0.5),)), 0.05), grams=1.5)
    strat = {
        "hexagon": tour_hexagon(),
        "patch": PoisonStrategy(density=patch),
        "mixed": PoisonStrategy(
            point_masses=(PointMass(Point(0.4, 0.0), 0.3), PointMass(Point(-0.2, 0.35), 0.3)),
            density=DensityPatch(region=patch.region, grams=0.9),
        ),
    }[kind]
    cfg = PoisonConfig(R=3.0, h_available=1.5)
    got = lethal_region(strat, cfg, 0.03)
    assert not got.is_empty()
    assert got == dose_raster(strat, cfg, 0.03)


def dose_raster(strategy: PoisonStrategy, config: PoisonConfig, h: float) -> PixelRegion:
    """The raster of the exact dose at every cell center of the sampling
    disk, for a pie of radius 3."""

    class ExactLethalSet:
        def bbox(self):
            return (-2.0, -2.0, 2.0, 2.0)

        def contains_xy(self, x, y):
            dose = _dose_at(strategy, _patch_rows(strategy), x, y)
            return (x * x + y * y <= 4.0) & poisoning._is_lethal_dose(dose, config)

    return rasterize(ExactLethalSet(), h)


def tour_hexagon() -> PoisonStrategy:
    """Six 0.25 g masses on a hexagon of radius 0.6: a bite kills when it
    holds four of them."""
    return PoisonStrategy(point_masses=tuple(
        PointMass(Point(0.6 * math.cos(math.pi * k / 3.0), 0.6 * math.sin(math.pi * k / 3.0)), 0.25)
        for k in range(6)
    ))


def test_hexagon_hits_are_pinned():
    """The hits and counts were recorded from split_hits."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=300_000, seed=7)
    rep = kill_probability(tour_hexagon(), cfg)
    assert rep.hits == 33367
    assert astuple(rep.stats) == (297558, 2442, 2442)


def test_hits_are_a_python_int_and_the_report_is_written(tmp_path):
    """json.dumps refuses a numpy integer, so hits summed as np.int64 would
    fail every poison report while the count itself was right."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=20_000, seed=4)
    hits = kill_probability(tour_hexagon(), cfg).hits
    assert type(hits) is int
    strat_path, out = tmp_path / "hexagon.json", tmp_path / "poison.json"
    strat_path.write_text(json.dumps(tour_hexagon().to_json_dict()))
    argv = ["poison", "--R", "3", "--h-available", "1.5", "--strategy", str(strat_path), "--samples", "20000",
            "--seed", "4", "--out", str(out)]
    assert cli.run(argv) == 0
    report = json.loads(out.read_text())["report"]
    assert report["kill"]["hits"] == hits
    assert report["stats"] == asdict(kill_probability(tour_hexagon(), cfg).stats)


def test_poison_run_builds_one_verdict_table(tmp_path, monkeypatch):
    """cmd_poison asks kill_probability and lethal_region about one
    strategy and config, and they share one table."""
    built = []

    class CountedTable(poisoning._VerdictTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(poisoning, "_VerdictTable", CountedTable)
    out = tmp_path / "poison.json"
    argv = ["poison", "--R", "3", "--h-available", "1.5", "--samples", "20000", "--grid", "0.05",
            "--seed", "4", "--out", str(out)]
    assert cli.run(argv) == 0
    assert len(built) == 1
    assert json.loads(out.read_text())["report"]["lethal"]["cells"] > 0


def test_calls_on_one_strategy_keep_their_own_seeds():
    """Back-to-back calls on one strategy object with different seeds each
    give the hits of their own seed's draw."""
    strat = mixed_strategy()
    for seed in (11, 12, 11):
        cfg = PoisonConfig(R=3.0, h_available=1.5, samples=5000, seed=seed)
        rep = kill_probability(strat, cfg)
        assert (rep.hits, *astuple(rep.stats)) == split_hits(strat, _patch_rows(strat), cfg)


def mixed_strategy() -> PoisonStrategy:
    """Three 0.3 g masses around a 716-cell patch of 0.6 g, like the pie
    workload's mixed strategy."""
    masses = tuple(PointMass(Point(0.4 * math.cos(t), 0.4 * math.sin(t)), 0.3) for t in (0.1, 2.2, 4.3))
    return PoisonStrategy(
        point_masses=masses,
        density=DensityPatch(region=rasterize(DiskUnion(((0.0, 0.0, 0.75),)), 0.05), grams=0.6),
    )


def test_point_mass_batches_stay_cache_sized():
    """The whole-round kernel peaked at about 8 MiB of temporaries on the
    hexagon. With the table's build, the hexagon peaks at about 1.4 MiB
    here and the mixed strategy at about 1.1 MiB."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=400_000, seed=1)
    for strat in (tour_hexagon(), mixed_strategy()):
        tracemalloc.start()
        try:
            kill_probability(strat, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def test_lethal_region_scans_the_grid_in_bands():
    """rasterize evaluates the lethal set on bands of rows, not on its whole
    1,000 x 1,000 grid at once, which peaked at about 38 MiB here."""
    cfg = PoisonConfig(R=3.0, h_available=1.0)
    tracemalloc.start()
    try:
        region = lethal_region(central(1.0), cfg, 0.004)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(region.cells) == 196364
    assert peak < 20 << 20


def test_all_slow_uncertain_batches_stay_block_sized(monkeypatch):
    """A table whose every cell is _UNSURE sends every bite to the disk
    test and every accepted one to the exact dose. Scoring 2^20 such bites
    at once would hold 16 MiB of centers alone; they are scored a block at
    a time, at a peak of about 1.2 MiB, and the hits are still those of
    the exact dose."""
    strat = tour_hexagon()
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=1 << 20, seed=2)
    table = _VerdictTable(strat, cfg)
    table.verdict[:] = _UNSURE
    table.in_lethal = table.in_safe = 0
    table.unsure = np.arange(_TABLE**2)
    table.lethal_share, table.unsure_share = 0.0, 1.0
    monkeypatch.setattr(poisoning, "_last_table", table)
    want = split_hits(strat, None, cfg, (table.unsure, (0.0, 1.0)))
    tracemalloc.start()
    try:
        rep = kill_probability(strat, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.hits, *astuple(rep.stats)) == want
    assert rep.stats.bites_decided == 0
    assert rep.stats.bites_exact_dose == cfg.samples < rep.stats.points_drawn
    assert peak < 4 << 20


@pytest.mark.parametrize("kind", ["masses_strategy", "patch_strategy", "mixed_strategy"])
def test_cell_stream_estimates_agree_with_uniform_draws(kind):
    """The split draw and Generator.uniform draw bite centers from one
    law: on the bench's strategies, over fixed seeds, the two estimates
    agree within 4 standard errors of their difference."""
    grams = bench_workloads.PIE_GRAMS
    n = 200_000
    for seed in (1, 2, 3):
        strat = PoisonStrategy.from_json_dict(getattr(bench_workloads, kind)(random.Random(seed)))
        cfg = PoisonConfig(R=bench_workloads.PIE_R, h_available=grams, samples=n, seed=seed)
        p_new = kill_probability(strat, cfg).estimate
        old = uniform_batch_hits(strat, _patch_rows(strat), cfg, 0, n)
        p = (p_new + old / n) / 2.0
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_new - old / n) <= 4.0 * se * math.sqrt(2.0)


def test_stats_count_the_work_and_not_the_blocks(monkeypatch):
    """Every bite the table does not decide from its cell is a point drawn
    in an unsure cell and gets the exact dose; how many points a block
    draws moves none of the counts. A run whose bites all land in certain
    cells draws no point and scores none."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=262_151, seed=5)
    for strat in (tour_hexagon(), mixed_strategy()):
        want = kill_probability(strat, cfg)
        s = want.stats
        assert 0 < s.bites_exact_dose == cfg.samples - s.bites_decided <= s.points_drawn
        # the table decides all but about 1% of the bites from their cell
        assert s.points_drawn < 0.02 * cfg.samples
        for block in (7, 1000):
            monkeypatch.setattr(poisoning, "_BLOCK", block)
            assert kill_probability(strat, cfg) == want
        monkeypatch.undo()
    scored = []
    exact = _VerdictTable.exact
    monkeypatch.setattr(_VerdictTable, "exact", lambda table, x, y: scored.append(len(x)) or exact(table, x, y))
    certain = 0
    for seed in range(20):
        scored.clear()
        stats = kill_probability(tour_hexagon(), replace(cfg, samples=1, seed=seed)).stats
        if stats.bites_decided == 1:
            certain += 1
            assert astuple(stats) == (1, 0, 0) and scored == []
    assert certain > 10


def test_a_table_of_128_a_side_gives_the_same_results(monkeypatch):
    """Nothing ties the table to 256 cells a side: at 128 the raster is
    still that of the exact dose, and the Monte Carlo still that of the
    split draw."""
    monkeypatch.setattr(poisoning, "_TABLE", 128)
    monkeypatch.setattr(poisoning, "_last_table", None)
    strat = mixed_strategy()
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=20_000, seed=6)
    table = poisoning._verdict_table(strat, cfg)
    assert table.verdict.shape == (128, 128)
    verdict, in_lethal, in_safe, unsure, shares = flat_table(strat, cfg)
    assert np.array_equal(table.verdict, verdict) and np.array_equal(table.unsure, unsure)
    assert (table.in_lethal, table.in_safe, table.lethal_share, table.unsure_share) == (in_lethal, in_safe, *shares)
    got = lethal_region(strat, cfg, 0.03)
    assert not got.is_empty()
    assert got == dose_raster(strat, cfg, 0.03)
    rep = kill_probability(strat, cfg)
    assert (rep.hits, *astuple(rep.stats)) == split_hits(strat, _patch_rows(strat), cfg)
