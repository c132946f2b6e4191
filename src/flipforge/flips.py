"""The flip kernel: every flip of a shape, and the signed flip rule.

A flip replaces a diagonal by the other chord of the quadrilateral made of
its two faces.  The two faces involved keep their labels (the middle
vertices of the quadrilateral), so colorings and signings indexed by face
label transform by editing at most two entries.  ``ShapeTable.row`` is the
one route that computes flips: one pass over a chord code's set bits reads
each quadrilateral by its diagonal's chord bit.  ``flip_between`` names the
flip joining two given shapes from their diagonal sets alone.  This module
reads only ``triangulation``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import triangulation
from .triangulation import Coloring, Diagonal, Triangulation, chord_code, rise_mask, up_mask


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
    code back to i.  ``row(i)`` is built the first time it is asked for, in
    one pass over the set bits of ``codes[i]`` after one ``face_ends`` call;
    each flip result is the code with the old diagonal's bit swapped for the
    new one's, numbered next if the table lacks it.  A diagonal is one tuple
    per table, made when its chord bit is first decoded.  The entry
    (j, mask, b, c, d) flips shape i across its diagonal d to shape j,
    exchanging faces b < c, in diagonal order.  A signing is a bitmask with
    bit n - k set when face k is positive, and mask holds the bits of faces
    b and c: a signed flip of s is legal iff ``s & mask in (0, mask)`` and
    gives ``s ^ mask``.  ``shape(j)`` returns a shape the table was given
    as is and builds any other from its code.  ``simple(eps)`` tests each
    code by one AND of its up mask, decoded once into a list each call extends.
    """

    def __init__(self, shapes: Iterable[Triangulation]):
        self._shapes = list(shapes)
        self.n = self._shapes[0].n if self._shapes else 0
        self.codes = [chord_code(t) for t in self._shapes]
        self.index = {code: i for i, code in enumerate(self.codes)}
        self._rows: dict[int, list[tuple[int, int, int, int, Diagonal]]] = {}
        self._ups: list[int] = []  # up mask of shape i
        # by chord bit: its diagonal once decoded, and the face below it in the current row
        self._chords: dict[int, Diagonal] = {}
        self._below: dict[int, int] = {}

    def _decode(self, code: int) -> list[Diagonal]:
        """The diagonals of a chord code in order, bit i*(n+2)+j as the table's tuple (i, j)."""
        chords, w, out = self._chords, self.n + 2, []
        while code:
            k = (code & -code).bit_length() - 1
            d = chords.get(k)
            if d is None:
                d = chords[k] = divmod(k, w)
            out.append(d)
            code &= code - 1
        return out

    def row(self, i: int) -> list[tuple[int, int, int, int, Diagonal]]:
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._build_row(i)
        return row

    def _build_row(self, s: int) -> list[tuple[int, int, int, int, Diagonal]]:
        """Shape s's row, over the set bits k = i*(n+2)+j of its code.  Face y
        lies below base (i, j) = (lo[y], hi[y]); the row first writes y at bit
        k of ``_below`` for all n faces, so each diagonal's entry is this
        row's.  The face beyond it is ``face_tree``'s ``up`` rule: face
        i = (lo[i], i, j) iff hi[i] = j, and the flip exchanges faces i, y for
        (lo[i], y), else face j = (i, j, hi[j]), and it exchanges faces y, j
        for (y, hi[j])."""
        n, w, code, codes, index = self.n, self.n + 2, self.codes[s], self.codes, self.index
        below = self._below
        diagonals = self._decode(code)
        lo, hi = triangulation.face_ends(n, diagonals)
        for y in range(1, n + 1):
            below[lo[y] * w + hi[y]] = y
        row = []
        for d in diagonals:
            i, j = d
            k = i * w + j
            y = below[k]
            if hi[i] == j:
                b, c, new = i, y, lo[i] * w + y
            else:
                b, c, new = y, j, y * w + hi[j]
            flipped = code ^ 1 << k | 1 << new
            r = index.get(flipped)
            if r is None:
                r = index[flipped] = len(codes)
                codes.append(flipped)
            row.append((r, 1 << n - b | 1 << n - c, b, c, d))
        return row

    def shape(self, j: int) -> Triangulation:
        """Shape j as a triangulation: as given, or built from its code."""
        if j < len(self._shapes):
            return self._shapes[j]
        return Triangulation(self.n, tuple(self._decode(self.codes[j])))

    def simple(self, eps: Coloring) -> list[int]:
        """The indices of the shapes that eps makes simple, the library's one
        test of the three rules: (a) colors weakly increase along 1..n, (b) no
        diagonal joins two inner vertices of equal color, (c) for consecutive
        equal-colored vertices i, i+1 the face on the edge {i, i+1} points
        down: t_i < i.  Requires valid shapes and one color per vertex.

        Equivalently, with eps_y the color of y: the colors weakly increase and
        eps_{y-1} < eps_y for every y >= 2 that tops no diagonal (lo[y] = y - 1),
        i.e. ``up_mask(n, diagonals) & ~rise_mask(eps) == 0``.
        The face on {y-1, y} is face y iff lo[y] = y - 1, else face y - 1, and
        only face y points up; so this is (c).  (a) and (c) give (b): an inner
        diagonal (i, j) with eps_i = eps_j forces eps_i = eps_{i+1} by (a), and
        no diagonal reaches i + 1 from below i without crossing (i, j), so
        lo[i+1] = i and (c) fails.
        """
        if any(a > b for a, b in zip(eps, eps[1:])):
            return []
        ups, n = self._ups, self.n
        ups.extend(up_mask(n, self._decode(code)) for code in self.codes[len(ups):])
        falls = ~rise_mask(eps)
        return [i for i, up in enumerate(ups) if not up & falls]


def mask_signs(s: int, n: int) -> Coloring:
    """The face signs of the signing bitmask s of size n."""
    return tuple(1 if s >> (n - k) & 1 else -1 for k in range(1, n + 1))
