"""SVG rendering of an analysis: the spectrum, its convex hull, and the
inscribed ellipse.

Fixed 800x800 viewport, equal x/y scale, 5% padding around the hull bounding
box.  The ellipse is drawn as two arc segments between its major vertices so
degenerate (flat) ellipses render as their segment.  It is drawn in the
traceless frame at A0's unit scale; with the view centered on the hull and
no axes, neither gamma nor any power-of-two scale moves a pixel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cli import Analysis

VIEW = 800.0
PAD_FRACTION = 0.05

_HULL_STYLE = 'fill="none" stroke="#1f6feb" stroke-width="1.5"'
_POINT_STYLE = 'fill="#d1242f"'
_ELLIPSE_STYLE = 'fill="none" stroke="#2da44e" stroke-width="1.5"'
_FOCUS_STYLE = 'stroke="#000000" stroke-width="1.2"'


def _fmt(v: float) -> str:
    return format(v, ".4f")


def render_svg(an: Analysis) -> str:
    hull, e = an.hull, an.ellipse
    xs = [v.real for v in hull]
    ys = [v.imag for v in hull]
    cx = (max(xs) + min(xs)) / 2.0
    cy = (max(ys) + min(ys)) / 2.0
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    if span <= 0.0:
        span = 1.0
    side = span * (1.0 + 2.0 * PAD_FRACTION)
    scale = VIEW / side

    def to_svg(z: complex) -> tuple[float, float]:
        return (VIEW / 2.0 + (z.real - cx) * scale, VIEW / 2.0 - (z.imag - cy) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(VIEW)}" '
        f'height="{int(VIEW)}" viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
    ]

    verts = [to_svg(v) for v in hull]
    if len(verts) >= 3:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in verts)
        parts.append(f'<polygon points="{coords}" {_HULL_STYLE}/>')
    elif len(verts) == 2:
        (x0, y0), (x1, y1) = verts
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" {_HULL_STYLE}/>'
        )
    else:
        x0, y0 = verts[0]
        parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="4" {_HULL_STYLE}/>')

    for p in an.spectrum.values:
        x, y = to_svg(p)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" {_POINT_STYLE}/>')

    if e is not None:
        rx = e.semimajor * scale
        ry = e.semiminor * scale
        rot = -math.degrees(math.atan2(e.major_dir.imag, e.major_dir.real))
        p1, p2 = (to_svg(s * e.semimajor * e.major_dir) for s in (1.0, -1.0))
        parts.append(
            f'<path d="M {_fmt(p1[0])} {_fmt(p1[1])} '
            f'A {_fmt(rx)} {_fmt(ry)} {_fmt(rot)} 0 1 {_fmt(p2[0])} {_fmt(p2[1])} '
            f'A {_fmt(rx)} {_fmt(ry)} {_fmt(rot)} 0 1 {_fmt(p1[0])} {_fmt(p1[1])} Z" '
            f"{_ELLIPSE_STYLE}/>"
        )
        for focus in e.foci:
            x, y = to_svg(focus)
            parts.append(
                f'<line x1="{_fmt(x - 5)}" y1="{_fmt(y)}" x2="{_fmt(x + 5)}" y2="{_fmt(y)}" {_FOCUS_STYLE}/>'
            )
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y - 5)}" x2="{_fmt(x)}" y2="{_fmt(y + 5)}" {_FOCUS_STYLE}/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
