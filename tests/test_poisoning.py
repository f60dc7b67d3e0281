import importlib.util
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cell_oracles import cell_set
from geometry_oracles import is_lethal
from isodiam import cli, poisoning
from isodiam.geometry import DiskUnion, Point
from isodiam.poisoning import (
    _BATCH,
    _CHUNK,
    DensityPatch,
    _batch_hits,
    _dose_at,
    _patch_rows,
    _PatchRows,
    _IN_LETHAL,
    _IN_SAFE,
    _LETHAL,
    _OUT,
    _SAFE,
    _SLOW,
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
    cfg = PoisonConfig(R=3.0, h_available=1.0, samples=200_000, seed=0)
    rep = kill_probability(central(1.0), cfg)
    lo, hi = rep.ci95
    assert lo <= 0.25 <= hi
    assert rep.samples == 200_000
    assert rep.estimate == pytest.approx(0.25, abs=0.01)


def test_kill_probability_two_masses():
    cfg = PoisonConfig(R=4.0, h_available=2.0, samples=200_000, seed=3)
    strat = PoisonStrategy(
        point_masses=(PointMass(Point(-1.5, 0.0), 1.0), PointMass(Point(1.5, 0.0), 1.0))
    )
    rep = kill_probability(strat, cfg)
    lo, hi = rep.ci95
    assert lo <= 2.0 / 9.0 <= hi


def test_kill_probability_deterministic_and_thread_invariant():
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
    _dose_at and for whole_round_batch_hits."""
    dose = np.zeros(xs.shape, dtype=np.float64)
    for m in strategy.point_masses:
        hit = (xs - m.position.x) ** 2 + (ys - m.position.y) ** 2 <= 1.0
        dose += m.grams * hit
    if patch is not None:
        dose += patch.per_cell * patch.counts(xs.ravel(), ys.ravel()).reshape(xs.shape)
    return dose


def whole_round_batch_hits(strategy, patch, config, batch_index, quota):
    """The batch loop that _batch_hits replaced: each rejection round is
    one (draw, 2) array, filtered by a boolean mask."""
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


@settings(max_examples=60, deadline=None)
@given(
    stream_cases(),
    st.sampled_from([1, 17, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, _BATCH]),
    st.integers(0, 40),
)
def test_streamed_batch_equals_the_whole_round_draw(case, quota, batch_index):
    strategy, config = case
    got = _batch_hits(_VerdictTable(strategy, config), batch_index, quota)
    assert type(got) is int
    assert got == whole_round_batch_hits(strategy, _patch_rows(strategy), config, batch_index, quota)


def test_uncertain_bites_flushed_mid_batch_score_the_same_hits(monkeypatch):
    """A 316-cell patch, like the pie workload's, sets aside at most about
    a thousand uncertain bites a batch, fewer than _CHUNK, so they are
    scored once, at the end of the batch. With _CHUNK at 64 or 257 they
    are flushed mid-batch, and the sub-draws take other sizes: neither
    moves a hit."""
    patch = DensityPatch(region=rasterize(DiskUnion(((0.0, 0.0, 0.5),)), 0.05), grams=1.5)
    strat = PoisonStrategy(density=patch)
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=200_000, seed=4)
    batches = -(-cfg.samples // _BATCH)
    want = kill_probability(strat, cfg).hits
    exact = _VerdictTable.exact
    for chunk in (64, 257):
        scored = []

        def spy(table, x, y):
            scored.append(len(x))
            return exact(table, x, y)

        monkeypatch.setattr(poisoning, "_CHUNK", chunk)
        monkeypatch.setattr(_VerdictTable, "exact", spy)
        assert kill_probability(strat, cfg).hits == want
        # one scoring at the end of each batch, and the flushes before it
        assert len(scored) > batches
        # a flush comes before a sub-batch joins, which it does whole
        assert max(scored) <= poisoning._PENDING + chunk - 1


@pytest.mark.parametrize("radius", [1e-3, 0.3, 1.0, 1.5, 2.0, 6.3, 1234.5678, 1e6 - 1.0, 1e6])
def test_uniform_is_the_affine_map_of_random(radius):
    """_VerdictTable reads the cell of a bite center from the raw doubles
    of Generator.random and maps the few it must to -r + 2r u: that is what
    Generator.uniform(-r, r) returns, bit for bit, in sub-draws of any size
    from one buffer."""
    want = np.random.default_rng([5, 3]).uniform(-radius, radius, size=(3000, 2))
    rng = np.random.default_rng([5, 3])
    buf = np.empty((1024, 2))
    got = []
    for size in (1, 1023, 1024, 7, 945):
        u = buf[:size]
        rng.random(out=u)
        got.append(-radius + 2.0 * radius * u)
        u *= 2.0 * radius
        u += -radius
        assert np.array_equal(u, got[-1])
    assert np.array_equal(np.concatenate(got), want)


def sampling_probes() -> np.ndarray:
    """Raw doubles u at every cell edge k / _TABLE and one ulp either side
    of it, inside [0, 1), and a few random ones."""
    edges = np.arange(_TABLE + 1) / _TABLE
    u = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(0).random(200)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def assert_table_is_sound(strategy: PoisonStrategy, config: PoisonConfig) -> None:
    """At every probe pair (u, v): a certain code gives the disk test's
    answer and the cell's verdict, and a certain verdict, the one
    _batch_hits gives a _SLOW pair, is that of the exact dose."""
    table = _VerdictTable(strategy, config)
    u = sampling_probes()
    uu, vv = np.meshgrid(u, u, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    cell = (_TABLE * vv).astype(np.intp), (_TABLE * uu).astype(np.intp)
    code, verdict = table.code[cell], table.verdict[cell]
    x = table.low + table.span * uu
    y = table.low + table.span * vv
    inside = x * x + y * y <= table.r2
    assert not inside[code == _OUT].any()
    assert inside[code == _IN_SAFE].all() and (verdict[code == _IN_SAFE] == _SAFE).all()
    assert inside[code == _IN_LETHAL].all() and (verdict[code == _IN_LETHAL] == _LETHAL).all()
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
    assert table.verdict.shape == table.code.shape == (256, 256)
    assert table.span / _TABLE > 7800
    hits = kill_probability(strat, cfg).hits
    assert hits == whole_round_batch_hits(strat, None, cfg, 0, cfg.samples)
    assert hits == (cfg.samples if lethal_dose < poisoning._TOL else 0)


def test_table_decides_most_of_the_disk_at_radius_7_3():
    """At R = 7.3 a table cell is 12.6 / 256 = 0.049 wide, and the table
    still decides most of the disk."""
    cfg = PoisonConfig(R=7.3, h_available=1.5)
    code = _VerdictTable(tour_hexagon(), cfg).code
    assert np.count_nonzero(code >= _IN_SAFE) > 0.7 * code.size
    assert np.count_nonzero(code == _IN_LETHAL) > 0
    assert_table_is_sound(tour_hexagon(), cfg)


def flat_table(strategy: PoisonStrategy, config: PoisonConfig) -> tuple[np.ndarray, np.ndarray]:
    """The verdict and code arrays of _VerdictTable, built flat: every cell
    of the near-poison block is bounded as one box of a _TABLE x _TABLE
    grid, the masses by axis and the patch rows by _PatchRows.ranks over
    the grid, with no coarse pass. The oracle for the coarse-to-fine
    build, which must equal it cell for cell."""
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
    code = np.full((_TABLE, _TABLE), _SLOW, dtype=np.uint8)
    code[inside & (verdict == _SAFE)] = _IN_SAFE
    code[inside & (verdict == _LETHAL)] = _IN_LETHAL
    code[(near * near)[:, None] + (near * near)[None, :] > radius * radius] = _OUT
    return verdict.T, code.T


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
    verdict, code = flat_table(*case)
    assert np.array_equal(table.verdict, verdict)
    assert np.array_equal(table.code, code)


def test_slow_cells_cover_under_3_percent_of_the_tour_table():
    """On the tour hexagon at R = 3 a table cell is 4 / 256 wide, and the
    _SLOW cells, the ones that lethal boundary or the disk's rim crosses,
    cover 2.2% of the table (4.4% at 128 a side)."""
    code = _VerdictTable(tour_hexagon(), PoisonConfig(R=3.0, h_available=1.5)).code
    assert np.count_nonzero(code == _SLOW) < 0.03 * code.size


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
    verdict = table.verdict.take(table.index(ys) * 256 + table.index(xs))
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

    class ExactLethalSet:
        def bbox(self):
            return (-2.0, -2.0, 2.0, 2.0)

        def contains_xy(self, x, y):
            dose = _dose_at(strat, _patch_rows(strat), x, y)
            return (x * x + y * y <= 4.0) & poisoning._is_lethal_dose(dose, cfg)

    got = lethal_region(strat, cfg, 0.03)
    assert not got.is_empty()
    assert got == rasterize(ExactLethalSet(), 0.03)


def tour_hexagon() -> PoisonStrategy:
    """Six 0.25 g masses on a hexagon of radius 0.6: a bite kills when it
    holds four of them."""
    return PoisonStrategy(point_masses=tuple(
        PointMass(Point(0.6 * math.cos(math.pi * k / 3.0), 0.6 * math.sin(math.pi * k / 3.0)), 0.25)
        for k in range(6)
    ))


def test_hexagon_hits_are_pinned():
    """300,000 samples are three batches, the last one partial. The count
    was recorded from the whole-round kernel."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=300_000, seed=7)
    assert kill_probability(tour_hexagon(), cfg).hits == 33441


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
    assert json.loads(out.read_text())["report"]["kill"]["hits"] == hits


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
        hits = kill_probability(strat, cfg).hits
        assert hits == whole_round_batch_hits(strat, _patch_rows(strat), cfg, 0, cfg.samples)


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
    hexagon. The mixed strategy peaks at about 0.8 MiB here."""
    cfg = PoisonConfig(R=3.0, h_available=1.5, samples=3 * _BATCH + 5, seed=1)
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
