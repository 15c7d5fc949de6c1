"""Deterministic SVG rendering of an instance: dominated points, skyline
staircase, and covering disks around the chosen centers.

Output is byte-stable for a fixed input: fixed canvas, fixed formatting
of every coordinate, no timestamps.
"""

from __future__ import annotations

from typing import Sequence

from .geom import Point, PointSet, SkylineArray

CANVAS = 640.0
MARGIN = 48.0


def _fmt(v: float) -> str:
    return format(v, ".6f")


class _Frame:
    """Affine map from data space to the fixed canvas (y flipped)."""

    def __init__(self, points: Sequence[Point], radius: float):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        lo_x, hi_x = min(xs) - radius, max(xs) + radius
        lo_y, hi_y = min(ys) - radius, max(ys) + radius
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
        self.scale = (CANVAS - 2 * MARGIN) / span
        self.lo_x = lo_x
        self.hi_y = hi_y

    def x(self, v: float) -> float:
        return MARGIN + (v - self.lo_x) * self.scale

    def y(self, v: float) -> float:
        return MARGIN + (self.hi_y - v) * self.scale

    def r(self, v: float) -> float:
        return v * self.scale


def render_svg(P: PointSet, sky: SkylineArray, centers: Sequence[Point],
               lambda_star: float) -> str:
    """Full document as a string; one covering disk per center."""
    frame = _Frame(P.points, lambda_star)
    sky_set = set(sky.pts)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS)}" '
        f'height="{int(CANVAS)}" viewBox="0 0 {int(CANVAS)} {int(CANVAS)}">',
        f'<rect width="{int(CANVAS)}" height="{int(CANVAS)}" fill="#ffffff"/>',
    ]
    for c in centers:
        lines.append(
            f'<circle class="disk" cx="{_fmt(frame.x(c.x))}" '
            f'cy="{_fmt(frame.y(c.y))}" r="{_fmt(frame.r(lambda_star))}" '
            f'fill="#9ecae1" fill-opacity="0.35" stroke="#3182bd" '
            f'stroke-width="1"/>')
    if len(sky) > 1:
        coords = " ".join(f"{_fmt(frame.x(p.x))},{_fmt(frame.y(p.y))}"
                          for p in sky)
        lines.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="#636363" stroke-width="1.5"/>')
    for p in P.points:
        if p in sky_set:
            continue
        lines.append(f'<circle cx="{_fmt(frame.x(p.x))}" '
                     f'cy="{_fmt(frame.y(p.y))}" r="2.000000" '
                     f'fill="#bdbdbd"/>')
    for p in sky:
        lines.append(f'<circle cx="{_fmt(frame.x(p.x))}" '
                     f'cy="{_fmt(frame.y(p.y))}" r="3.000000" '
                     f'fill="#252525"/>')
    for c in centers:
        lines.append(f'<circle cx="{_fmt(frame.x(c.x))}" '
                     f'cy="{_fmt(frame.y(c.y))}" r="4.000000" '
                     f'fill="#d7301f"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
