"""Deterministic SVG pictures of triangulations, spheres and certificates.

Vertex 0 sits at the top of a regular polygon and labels increase clockwise;
the last vertex is drawn as "oo".  Coordinates are rounded so that equal
objects give byte-identical output.
"""

from __future__ import annotations

import math

from .heawood import SphereTriangulation
from .phi import triangulation_from_permutation
from .signing import Certificate
from .triangulation import Coloring, Triangulation, faces
from .words import abs_word

PALETTE = [
    "#a6cee3", "#b2df8a", "#fdbf6f", "#cab2d6", "#fb9a99",
    "#ffff99", "#1f78b4", "#33a02c", "#ff7f00", "#6a3d9a",
]

SIZE = 220.0
MARGIN = 26.0


def _positions(n: int) -> dict[int, tuple[float, float]]:
    m = n + 2
    r = SIZE / 2 - MARGIN
    cx = cy = SIZE / 2
    pos = {}
    for v in range(m):
        theta = math.pi / 2 - 2 * math.pi * v / m
        pos[v] = (round(cx + r * math.cos(theta), 6), round(cy - r * math.sin(theta), 6))
    return pos


def _vertex_name(v: int, n: int) -> str:
    return "oo" if v == n + 1 else str(v)


def _panel(t: Triangulation, colors: Coloring | None, signs: Coloring | None,
           dx: float, title: str) -> list[str]:
    pos = {v: (x + dx, y) for v, (x, y) in _positions(t.n).items()}
    parts = []
    if t.n >= 1:
        for f in faces(t):
            pts = " ".join(f"{pos[v][0]},{pos[v][1]}" for v in f)
            fill = "none"
            if colors is not None:
                fill = PALETTE[(colors[f.label - 1] - 1) % len(PALETTE)]
            parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')
    ring = list(range(t.n + 2))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        parts.append(
            f'<line x1="{pos[a][0]}" y1="{pos[a][1]}" x2="{pos[b][0]}" y2="{pos[b][1]}" '
            'stroke="#333333" stroke-width="1.5"/>'
        )
    for a, b in t.diagonals:
        parts.append(
            f'<line x1="{pos[a][0]}" y1="{pos[a][1]}" x2="{pos[b][0]}" y2="{pos[b][1]}" '
            'stroke="#555555" stroke-width="1.0"/>'
        )
    for v in range(t.n + 2):
        x, y = pos[v]
        parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#111111"/>')
        parts.append(
            f'<text x="{round(x, 6)}" y="{round(y - 6, 6)}" font-size="9" '
            f'text-anchor="middle" fill="#111111">{_vertex_name(v, t.n)}</text>'
        )
    if t.n >= 1:
        for f in faces(t):
            cx = round(sum(pos[v][0] for v in f) / 3, 6)
            cy = round(sum(pos[v][1] for v in f) / 3, 6)
            text = str(f.label)
            if signs is not None:
                text += "+" if signs[f.label - 1] > 0 else "-"
            parts.append(
                f'<text x="{cx}" y="{cy}" font-size="9" text-anchor="middle" '
                f'fill="#222222">{text}</text>'
            )
    parts.append(
        f'<text x="{round(dx + SIZE / 2, 6)}" y="{round(SIZE - 6, 6)}" font-size="10" '
        f'text-anchor="middle" fill="#111111">{title}</text>'
    )
    return parts


def _document(panels: list[list[str]]) -> str:
    width = SIZE * len(panels)
    body = "\n".join(line for panel in panels for line in panel)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{SIZE:g}" '
        f'viewBox="0 0 {width:g} {SIZE:g}">\n{body}\n</svg>\n'
    )


def render_triangulation(t: Triangulation, colors: Coloring | None = None,
                         signs: Coloring | None = None) -> str:
    return _document([_panel(t, colors, signs, 0.0, "")])


def render_sphere(s: SphereTriangulation) -> str:
    north_signs, south_signs = s.signs or (None, None)
    north = _panel(s.north, None, north_signs, 0.0, "north")
    south = _panel(s.south, None, south_signs, SIZE, "south")
    return _document([north, south])


def render_certificate(cert: Certificate) -> str:
    """One panel per chain entry: the triangulation of the letters, with the
    letter signs shown as face signs."""
    panels = []
    for i, word in enumerate(cert.chain):
        perm = abs_word(word)
        t = triangulation_from_permutation(perm)
        signs = tuple(1 if v > 0 else -1 for v in sorted(word, key=abs))
        tag = "start" if i == 0 else cert.kinds[i - 1]
        title = f"{i}: {','.join(map(str, word))} ({tag})"
        panels.append(_panel(t, None, signs, SIZE * i, title))
    return _document(panels)
