import re

import pytest
from hypothesis import example, given, settings, strategies as st

from isodiam.geometry import DiskUnion, Point
from isodiam.regions import PixelRegion, rasterize, u_delta_shape
from isodiam.svgplot import _fmt, curves_svg, region_svg


def test_curves_svg_basic():
    xs = [0.0, 1.0, 2.0, 3.0]
    svg = curves_svg(xs, {"linear": [0, 1, 2, 3], "flat": [1, 1, 1, 1]}, title="demo")
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg


def test_curves_svg_skips_gaps():
    svg = curves_svg([0, 1, 2, 3, 4], {"broken": [0.0, 1.0, None, 3.0, 4.0]})
    # the None splits the series into two polylines
    assert svg.count("<polyline") == 2


def test_curves_svg_deterministic():
    xs = list(range(10))
    series = {"a": [x * 0.5 for x in xs]}
    assert curves_svg(xs, series) == curves_svg(xs, series)


def test_curves_svg_empty_raises():
    with pytest.raises(ValueError):
        curves_svg([], {})
    with pytest.raises(ValueError):
        curves_svg([0.0, 1.0], {"gone": [None, None]})


def test_curves_svg_marks():
    svg = curves_svg([0, 1], {"s": [0, 1]}, marks=[(0.5, 0.5, "peak")])
    assert "<circle" in svg
    assert "peak" in svg


def test_region_svg_counts_cells():
    region = PixelRegion(origin=Point(0, 0), h=0.5, cells=frozenset({(0, 0), (1, 0), (0, 1)}))
    svg = region_svg(region)
    # one background rect plus one per run: column 0 holds a run of two cells
    assert svg.count("<rect") == 3
    assert svg.endswith("</svg>")


def test_region_svg_with_outline():
    region = rasterize(u_delta_shape(3.0), 0.2)
    svg = region_svg(region, outline=u_delta_shape(3.0), title="u3")
    assert svg.count("<circle") == 2
    assert "u3" in svg


def test_region_svg_disk_outline():
    disk = DiskUnion(((0.0, 0.0, 1.0),))
    svg = region_svg(rasterize(disk, 0.25), outline=disk)
    assert svg.count("<circle") == 1


# a run rect's x, y, width and height
_RUN = re.compile(
    r'<rect x="(-?[0-9.]+)" y="(-?[0-9.]+)" width="([0-9.]+)" height="([0-9.]+)" fill="#1f77b4" fill-opacity="0.85"/>'
)


def per_cell_frame(region, outline=None, title=""):
    """The lines of region_svg as it was written with one rect per cell,
    less those rects: the frame and outline that drawing runs leaves as
    they were."""
    idx = region.cells
    h = region.h
    ox, oy = region.origin.x, region.origin.y
    if len(idx) == 0:
        x_lo = y_lo = -1.0
        x_hi = y_hi = 1.0
    else:
        x_lo, y_lo = region._xy(idx.min(axis=0))
        x_hi, y_hi = region._xy(idx.max(axis=0) + 1)
    circles = outline.circles if outline is not None else ()
    if circles:
        bx_lo, by_lo, bx_hi, by_hi = outline.bbox()
        x_lo, y_lo = min(x_lo, bx_lo), min(y_lo, by_lo)
        x_hi, y_hi = max(x_hi, bx_hi), max(y_hi, by_hi)
    pad = 0.05 * max(x_hi - x_lo, y_hi - y_lo)
    x_lo -= pad
    x_hi += pad
    y_lo -= pad
    y_hi += pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="720" '
        f'viewBox="{_fmt(x_lo)} {_fmt(-y_hi)} {_fmt(x_hi - x_lo)} {_fmt(y_hi - y_lo)}">',
        f"<title>{title}</title>",
        f'<rect x="{_fmt(x_lo)}" y="{_fmt(-y_hi)}" width="{_fmt(x_hi - x_lo)}" '
        f'height="{_fmt(y_hi - y_lo)}" fill="white"/>',
        '<g transform="scale(1,-1)">',
    ]
    for cx, cy, r in circles:
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
            f'stroke="#d62728" stroke-width="{_fmt(max((x_hi - x_lo) / 400.0, 1e-3))}"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return parts


_OUTLINES = {"none": None, "disk": DiskUnion(((0.4, -0.3, 2.0),)), "u3": u_delta_shape(3.0)}


@settings(max_examples=150, deadline=None)
@given(
    cells=st.frozensets(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=80),
    h=st.sampled_from([0.1, 1 / 3, 0.05, 0.013]),
    origin=st.just((0.0, 0.0)) | st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    outline=st.sampled_from(sorted(_OUTLINES)),
)
@example(cells=frozenset(), h=0.1, origin=(0.0, 0.0), outline="none")
@example(cells=frozenset(), h=1 / 3, origin=(0.25, -1.5), outline="u3")
@example(cells=frozenset({(-7, 3)}), h=0.1, origin=(0.0, 0.0), outline="none")
@example(cells=frozenset({(-7, 3)}), h=1 / 3, origin=(0.004, -0.007), outline="disk")
def test_region_svg_runs_decode_to_the_cells(cells, h, origin, outline):
    """Read back, the run rects cover exactly the region's cells, in order,
    no two of them could be one, and everything else is the per-cell
    writer's frame and outline."""
    region = PixelRegion(origin=Point(*origin), h=h, cells=cells)
    shape = _OUTLINES[outline]
    svg = region_svg(region, outline=shape, title=outline)
    lines = [line for line in svg.split("\n") if 'fill="#1f77b4"' in line]
    runs = []
    for line in lines:
        x, y, width, height = (float(v) for v in _RUN.fullmatch(line).groups())
        assert width == float(_fmt(h))
        runs.append((round((x - region.origin.x) / h), round((y - region.origin.y) / h), round(height / h)))
    assert [[i, j + k] for i, j, n in runs for k in range(n)] == region.cells.tolist()
    assert all(n >= 1 for _, _, n in runs)
    assert not any(i == i2 and j + n == j2 for (i, j, n), (i2, j2, _) in zip(runs, runs[1:]))
    frame = [line for line in svg.split("\n") if line not in lines]
    assert frame == per_cell_frame(region, outline=shape, title=outline)

