"""The flip kernel: every flip of a shape, and the signed flip rule.

A flip replaces a diagonal by the other chord of the quadrilateral made of
its two faces.  The two faces involved keep their labels (the middle
vertices of the quadrilateral), so colorings and signings indexed by face
label transform by editing at most two entries.  ``ShapeTable.row`` is the
one route that computes flips, on chord codes; ``flip_between`` names the
flip joining two given shapes from their diagonal sets alone.  This module
reads only ``triangulation``.
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


def _diagonals(n: int, code: int) -> list[Diagonal]:
    """The diagonals of a chord code in order: set bit i*(n+2)+j is (i, j)."""
    out = []
    while code:
        out.append(divmod((code & -code).bit_length() - 1, n + 2))
        code &= code - 1
    return out


def _quads(n: int, code: int) -> Iterator[tuple[int, int, Diagonal, Diagonal]]:
    """The quadrilateral around each diagonal (i, j) of the shape of chord
    code ``code``, in diagonal order, as its middle pair b < c and its old
    and new chords: below it lies the face y with (lo[y], hi[y]) = (i, j),
    and beyond it face up[y], which is i = (lo[i], i, j) or j = (i, j, hi[j])."""
    diagonals = _diagonals(n, code)
    lo, hi, below, up = face_tree(n, diagonals)
    for i, j in diagonals:
        y = below[i, j]
        if up[y] == i:
            yield i, y, (i, j), (lo[i], y)
        else:
            yield y, j, (i, j), (y, hi[j])


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

    Shape i is held as its chord code ``codes[i]``, and ``index`` maps a
    code back to i.  ``row(i)`` is built the first time it is asked for, from
    one pass over the flip quadrilaterals of the diagonals decoded from
    ``codes[i]``; each flip result is the code with the old diagonal's bit
    swapped for the new one's, numbered next if the table lacks it.  The
    entry (j, mask, b, c, d) flips shape i across its diagonal d to shape j,
    exchanging faces b < c, in diagonal order.  A signing is a bitmask with
    bit n - k set when face k is positive, and mask holds the bits of faces
    b and c: a signed flip of s is legal iff ``s & mask in (0, mask)`` and
    gives ``s ^ mask``.  ``shape(j)`` returns a shape the table was given
    as is and builds any other from its code.  ``simple(eps)`` tests each
    code by one AND of its ``up_mask``, kept in a list each call extends.
    """

    def __init__(self, shapes: Iterable[Triangulation]):
        self._shapes = list(shapes)
        self.n = self._shapes[0].n if self._shapes else 0
        self.codes = [chord_code(t) for t in self._shapes]
        self.index = {code: i for i, code in enumerate(self.codes)}
        self._rows: dict[int, list[tuple[int, int, int, int, Diagonal]]] = {}
        self._ups: list[int] = []  # up_mask of shape i

    def row(self, i: int) -> list[tuple[int, int, int, int, Diagonal]]:
        row = self._rows.get(i)
        if row is None:
            n, w, code, codes, index = self.n, self.n + 2, self.codes[i], self.codes, self.index
            row = []
            for b, c, old, new in _quads(n, code):
                (i1, j1), (i2, j2) = old, new
                flipped = code ^ 1 << i1 * w + j1 | 1 << i2 * w + j2
                j = index.get(flipped)
                if j is None:
                    j = index[flipped] = len(codes)
                    codes.append(flipped)
                row.append((j, 1 << (n - b) | 1 << (n - c), b, c, old))
            self._rows[i] = row
        return row

    def shape(self, j: int) -> Triangulation:
        """Shape j as a triangulation: as given, or built from its code."""
        if j < len(self._shapes):
            return self._shapes[j]
        return Triangulation(self.n, tuple(_diagonals(self.n, self.codes[j])))

    def simple(self, eps: Coloring) -> list[int]:
        """The indices of the shapes that eps makes simple, by ``is_simple``'s
        rule: eps weakly increases and ``up_mask & ~rise_mask(eps) == 0``."""
        if not weakly_increasing(eps):
            return []
        ups, n = self._ups, self.n
        ups.extend(up_mask(n, _diagonals(n, code)) for code in self.codes[len(ups):])
        falls = ~rise_mask(eps)
        return [i for i, up in enumerate(ups) if not up & falls]


def mask_signs(s: int, n: int) -> Coloring:
    """The face signs of the signing bitmask s of size n."""
    return tuple(1 if s >> (n - k) & 1 else -1 for k in range(1, n + 1))
