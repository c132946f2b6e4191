"""The flip kernel: every flip of a shape, and the signed flip rule.

A flip replaces a diagonal by the other chord of the quadrilateral made of
its two faces.  The two faces involved keep their labels (the middle
vertices of the quadrilateral), so colorings and signings indexed by face
label transform by editing at most two entries.  ``ShapeTable.row`` is the
one route that computes flips; ``flip_between`` names the flip joining two
given shapes from their diagonal sets alone.  This module reads only
``triangulation``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .triangulation import (
    Coloring,
    Diagonal,
    Triangulation,
    chord_code,
    face_tree,
    rise_mask,
    up_mask,
    weakly_increasing,
)


class FlipQuad(NamedTuple):
    """The quadrilateral a < b < c < d around a flipped diagonal."""

    a: int
    b: int
    c: int
    d: int
    old: Diagonal
    new: Diagonal

    def sides(self) -> tuple[Diagonal, ...]:
        a, b, c, d = self.a, self.b, self.c, self.d
        return ((a, b), (b, c), (c, d), (a, d))


def _quads(t: Triangulation) -> Iterator[tuple[int, int, Diagonal, Diagonal]]:
    """The quadrilateral around each diagonal (i, j) of t, in diagonal order,
    as its middle pair b < c and its old and new chords: below it lies the
    face y with (lo[y], hi[y]) = (i, j), and beyond it face up[y], which is
    i = (lo[i], i, j) or j = (i, j, hi[j])."""
    lo, hi, below, up = face_tree(t)
    for i, j in t.diagonals:
        y = below[i, j]
        if up[y] == i:
            yield i, y, (i, j), (lo[i], y)
        else:
            yield y, j, (i, j), (y, hi[j])


def _flipped(t: Triangulation, quad: FlipQuad) -> Triangulation:
    return Triangulation(t.n, tuple(e for e in t.diagonals if e != quad.old) + (quad.new,))


def flip_between(t1: Triangulation, t2: Triangulation) -> FlipQuad | None:
    """The quadrilateral of the one flip taking t1 to t2, or None if there is
    none: t2 swaps one diagonal old of t1 for a new one, and {old, new} is
    {(a, c), (b, d)} for their ends a < b < c < d.  Between triangulations,
    a one-diagonal swap is always a flip; no face is read."""
    if t1.n != t2.n:
        return None
    gone = set(t1.diagonals).difference(t2.diagonals)
    came = set(t2.diagonals).difference(t1.diagonals)
    if len(gone) != 1 or len(came) != 1:
        return None
    old, new = gone.pop(), came.pop()
    a, b, c, d = sorted(old + new)
    if not a < b < c < d or {old, new} != {(a, c), (b, d)}:
        return None
    return FlipQuad(a, b, c, d, old, new)


def flip_signs(signs: Coloring, b: int, c: int) -> Coloring | None:
    """The signed flip rule on face signs: faces b and c must carry equal
    signs, and the flip negates both; None if their signs differ."""
    if signs[b - 1] != signs[c - 1]:
        return None
    signs2 = list(signs)
    signs2[b - 1] = signs2[c - 1] = -signs[b - 1]
    return tuple(signs2)


class ShapeTable:
    """The shapes of one traversal, numbered in the order they are added,
    and their flip rows over those numbers.

    Shapes are keyed by ``chord_code``: ``row(i)`` is built the first time
    it is asked for, from one pass over shape i's flip quadrilaterals read
    as plain tuples, and each flip result is the code with the old
    diagonal's bit swapped for the new one's.  Only a code not yet in the
    table is built into a shape, from the ``FlipQuad`` of the flip that
    reached it, and added.  The entry (j, mask, b, c, d) flips
    shape i across its diagonal d to shape j, exchanging faces b < c, in
    diagonal order.
    A signing is a bitmask with bit n - k set when face k is positive, and
    mask holds the bits of faces b and c: a signed flip of s is legal iff
    ``s & mask in (0, mask)`` and gives ``s ^ mask``.

    ``simple(eps)`` tests each shape against a coloring with one AND of its
    ``up_mask``, kept in a list that each call extends to every shape.
    """

    def __init__(self, shapes: Iterable[Triangulation]):
        self.shapes = list(shapes)
        self.index = {chord_code(t): i for i, t in enumerate(self.shapes)}
        self._rows: dict[int, list[tuple[int, int, int, int, Diagonal]]] = {}
        self._ups: list[int] = []  # up_mask of shapes[i]

    def row(self, i: int) -> list[tuple[int, int, int, int, Diagonal]]:
        row = self._rows.get(i)
        if row is None:
            t, index = self.shapes[i], self.index
            n, w, code = t.n, t.n + 2, chord_code(t)
            row = []
            for b, c, old, new in _quads(t):
                (i1, j1), (i2, j2) = old, new
                flipped = code ^ 1 << i1 * w + j1 | 1 << i2 * w + j2
                j = index.get(flipped)
                if j is None:
                    j = self._number(flipped, t, old, new)
                row.append((j, 1 << (n - b) | 1 << (n - c), b, c, old))
            self._rows[i] = row
        return row

    def simple(self, eps: Coloring) -> list[int]:
        """The indices of the shapes that eps makes simple, by ``is_simple``'s
        rule: eps weakly increases and ``up_mask & ~rise_mask(eps) == 0``."""
        if not weakly_increasing(eps):
            return []
        ups = self._ups
        ups.extend(map(up_mask, self.shapes[len(ups):]))
        falls = ~rise_mask(eps)
        return [i for i, up in enumerate(ups) if not up & falls]

    def _number(self, code: int, t: Triangulation, old: Diagonal, new: Diagonal) -> int:
        """Add the shape of a code the table lacks, t flipped from old to new."""
        j = self.index[code] = len(self.shapes)
        self.shapes.append(_flipped(t, FlipQuad(*sorted(old + new), old, new)))
        return j


def mask_signs(s: int, n: int) -> Coloring:
    """The face signs of the signing bitmask s of size n."""
    return tuple(1 if s >> (n - k) & 1 else -1 for k in range(1, n + 1))
