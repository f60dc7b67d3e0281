"""Tiny deterministic SVG emitters for reports. Presentation only."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .geometry import DiskUnion
from .regions import PixelRegion

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def curves_svg(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float | None]],
    title: str = "",
    marks: Sequence[tuple[float, float, str]] = (),
) -> str:
    """Polyline chart of one or more named series over a shared x grid.

    None entries break the line. marks are (x, y, label) points drawn as
    small circles.
    """
    width, height, margin = 720.0, 480.0, 60.0
    finite = [v for vals in series.values() for v in vals if v is not None]
    finite += [y for _, y, _ in marks]
    if not finite or not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes with a handful of ticks
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>'
    )
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>')
    for k in range(5):
        xv = x_lo + (x_hi - x_lo) * k / 4
        yv = y_lo + (y_hi - y_lo) * k / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{py(yv) + 4:.1f}" text-anchor="end" font-size="11">{yv:.3g}</text>'
        )
    for idx, (name, vals) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        run: list[str] = []
        chunks: list[list[str]] = []
        for x, v in zip(xs, vals):
            if v is None or not math.isfinite(v):
                if run:
                    chunks.append(run)
                run = []
            else:
                run.append(f"{px(x):.2f},{py(v):.2f}")
        if run:
            chunks.append(run)
        for chunk in chunks:
            if len(chunk) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 16 * idx + 12:.1f}" font-size="11" fill="{color}" '
            f'text-anchor="start" transform="translate(-110,0)">{name}</text>'
        )
    for x, y, label in marks:
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{px(x) + 6:.2f}" y="{py(y) - 6:.2f}" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def region_svg(region: PixelRegion, outline: DiskUnion | None = None, title: str = "") -> str:
    """Region cells as filled squares, optional analytic outline on top.

    Drawn in data coordinates with the y axis flipped.
    """
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
    # a lethal region has thousands of cells on a few dozen rows and columns
    xs = {i: _fmt(ox + i * h) for i in set(idx[:, 0].tolist())}
    ys = {j: _fmt(oy + j * h) for j in set(idx[:, 1].tolist())}
    tail = f'" width="{_fmt(h)}" height="{_fmt(h)}" fill="#1f77b4" fill-opacity="0.85"/>'
    parts += [f'<rect x="{xs[i]}" y="{ys[j]}{tail}' for i, j in idx.tolist()]
    for cx, cy, r in circles:
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
            f'stroke="#d62728" stroke-width="{_fmt(max((x_hi - x_lo) / 400.0, 1e-3))}"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
