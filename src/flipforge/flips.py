"""Diagonal flips, their restricted variants, and diagonal signings.

A flip replaces a diagonal by the other chord of the quadrilateral made of
its two faces.  The two faces involved keep their labels (the middle
vertices of the quadrilateral), so colorings and signings indexed by face
label transform by editing at most two entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .triangulation import (
    Coloring,
    Diagonal,
    Triangulation,
    all_triangulations,
    canonical_key,
    chord_code,
    face_tree,
    is_simple,
    rise_mask,
    up_mask,
    weakly_increasing,
)
from .phi import least_reading
from .words import Word


class FlipQuad(NamedTuple):
    """The quadrilateral a < b < c < d around a flipped diagonal."""

    a: int
    b: int
    c: int
    d: int
    old: Diagonal
    new: Diagonal

    @property
    def labels(self) -> tuple[int, int]:
        """Labels of the two faces bordering either chord of the quadrilateral."""
        return (self.b, self.c)

    def sides(self) -> tuple[Diagonal, ...]:
        a, b, c, d = self.a, self.b, self.c, self.d
        return ((a, b), (b, c), (c, d), (a, d))


def _quads(t: Triangulation) -> Iterator[FlipQuad]:
    """The quadrilateral around each diagonal (i, j) of t, in diagonal order:
    below it lies the face y with (lo[y], hi[y]) = (i, j), and beyond it face
    up[y], which is i = (lo[i], i, j) or j = (i, j, hi[j])."""
    lo, hi, below, up = face_tree(t)
    for i, j in t.diagonals:
        y = below[i, j]
        if up[y] == i:
            yield FlipQuad(lo[i], i, y, j, old=(i, j), new=(lo[i], y))
        else:
            yield FlipQuad(i, y, j, hi[j], old=(i, j), new=(y, hi[j]))


def _flipped(t: Triangulation, quad: FlipQuad) -> Triangulation:
    return Triangulation(t.n, tuple(e for e in t.diagonals if e != quad.old) + (quad.new,))


def flip_quad(t: Triangulation, d: Diagonal) -> FlipQuad:
    d = (min(d), max(d))
    if d not in t.diagonals:
        raise ValueError(f"{d} is not a diagonal of {t.diagonals}")
    return next(quad for quad in _quads(t) if quad.old == d)


def flip(t: Triangulation, d: Diagonal) -> tuple[Triangulation, FlipQuad]:
    quad = flip_quad(t, d)
    return _flipped(t, quad), quad


def flip_between(t1: Triangulation, t2: Triangulation) -> FlipQuad | None:
    """The quadrilateral of the one flip taking t1 to t2, or None if there is none."""
    if t1.n != t2.n:
        return None
    gone = set(t1.diagonals) - set(t2.diagonals)
    if len(gone) != 1:
        return None
    t2_check, quad = flip(t1, gone.pop())
    return quad if t2_check == t2 else None


def flip_readings(t: Triangulation, quad: FlipQuad, t2: Triangulation) -> tuple[Word, Word]:
    """Readings u x z v of t and u z x v of t2, its flip across quad.

    The two exchanged letters are the face labels of the flip quadrilateral
    and the tail v carries no letter strictly between them, which is exactly
    what separates a flip from a within-class exchange.  Each word is the
    least reading that puts the faces inside the quadrilateral first, then
    its two letters in order, then the rest, each group by label.
    """
    a, d = quad.a, quad.d
    order = (quad.b, quad.c) if quad.old == (a, quad.c) else (quad.c, quad.b)
    words = []
    for shape, (x, z) in ((t, order), (t2, order[::-1])):
        rank = {x: 1, z: 2}
        w = least_reading(shape, lambda y: (rank.get(y, 0 if a < y < d else 3), y))
        if w[d - a - 3:d - a - 1] != (x, z):
            raise AssertionError(f"{x}, {z} are not read right after the inside of the quad")
        words.append(w)
    return words[0], words[1]


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
    it is asked for, from one pass over shape i's flip quadrilaterals, and
    each flip result is the code with the old diagonal's bit swapped for the
    new one's.  Only a code not yet in the table is built into a shape, by
    the flip that reached it, and added.  The entry (j, mask, b, c, d) flips
    shape i across its diagonal d to shape j, exchanging faces b < c, in
    diagonal order.
    A signing is a bitmask with bit n - k set when face k is positive, and
    mask holds the bits of faces b and c: a signed flip of s is legal iff
    ``s & mask in (0, mask)`` and gives ``s ^ mask``.

    ``up(i)`` is shape i's ``up_mask``, likewise computed on first read, so
    ``simple(eps)`` tests each shape against a coloring with one AND.
    """

    def __init__(self, shapes: Iterable[Triangulation]):
        self.shapes = list(shapes)
        self.index = {chord_code(t): i for i, t in enumerate(self.shapes)}
        self._rows: dict[int, list[tuple[int, int, int, int, Diagonal]]] = {}
        self._ups: dict[int, int] = {}

    def row(self, i: int) -> list[tuple[int, int, int, int, Diagonal]]:
        row = self._rows.get(i)
        if row is None:
            t = self.shapes[i]
            n, w, code = t.n, t.n + 2, chord_code(t)
            row = []
            for q in _quads(t):
                (i1, j1), (i2, j2) = q.old, q.new
                j = self._number(code ^ 1 << i1 * w + j1 | 1 << i2 * w + j2, t, q)
                row.append((j, 1 << (n - q.b) | 1 << (n - q.c), q.b, q.c, q.old))
            self._rows[i] = row
        return row

    def up(self, i: int) -> int:
        mask = self._ups.get(i)
        if mask is None:
            mask = self._ups[i] = up_mask(self.shapes[i])
        return mask

    def simple(self, eps: Coloring) -> list[int]:
        """The indices of the shapes that eps makes simple, by ``is_simple``'s
        rule: eps weakly increases and ``up(i) & ~rise_mask(eps) == 0``."""
        if not weakly_increasing(eps):
            return []
        falls = ~rise_mask(eps)
        return [i for i in range(len(self.shapes)) if not self.up(i) & falls]

    def _number(self, code: int, t: Triangulation, quad: FlipQuad) -> int:
        j = self.index.get(code)
        if j is None:
            j = self.index[code] = len(self.shapes)
            self.shapes.append(_flipped(t, quad))
        return j


def flip_table(n: int) -> ShapeTable:
    """Every shape of size n sorted by canonical key, so the states
    ``i << n | s`` count the shapes by canonical key and, within a shape, the
    signings in the order of ``product((-1, 1), repeat=n)``."""
    return ShapeTable(sorted(all_triangulations(n), key=canonical_key))


def mask_signs(s: int, n: int) -> Coloring:
    """The face signs of the signing bitmask s of size n."""
    return tuple(1 if s >> (n - k) & 1 else -1 for k in range(1, n + 1))


def signed_flip(
    t: Triangulation, signs: Coloring, d: Diagonal
) -> tuple[Triangulation, Coloring] | None:
    """Flip d if its two faces carry equal signs, negating both; else None."""
    t2, quad = flip(t, d)
    signs2 = flip_signs(signs, *quad.labels)
    return None if signs2 is None else (t2, signs2)


def homogeneous_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Flips whose two faces share a color; the coloring is unchanged."""
    table = ShapeTable([t])
    return [(table.shapes[j], eps) for j, _, b, c, _ in table.row(0) if eps[b - 1] == eps[c - 1]]


def switched_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Different-color flips from a simple state whose result stays simple."""
    if not is_simple(t, eps):
        raise ValueError("switched flips are only defined between simple colored triangulations")
    table = ShapeTable([t])
    row = table.row(0)  # adds the results to the table before simple() reads it
    simple = set(table.simple(eps))
    return [(table.shapes[j], eps) for j, _, b, c, _ in row
            if eps[b - 1] != eps[c - 1] and j in simple]


@dataclass
class DiagonalSigning:
    """A triangulation with signs on some (possibly all) of its diagonals."""

    base: Triangulation
    signs: dict[Diagonal, int]


def signed_flip_diagonal(ds: DiagonalSigning, d: Diagonal) -> DiagonalSigning | None:
    """Flip d unless it is negative: the new diagonal is positive and the
    signed sides of the quadrilateral change sign.  An unsigned d is free to
    take either sign, so it flips as a positive one; a negative d refuses.
    Every update of diagonal signs goes through here.
    """
    d = (min(d), max(d))
    if d not in ds.base.diagonals:
        raise ValueError(f"{d} is not a diagonal of the base triangulation")
    if ds.signs.get(d) == -1:
        return None
    t2, quad = flip(ds.base, d)
    signs = dict(ds.signs)
    signs.pop(d, None)
    for side in quad.sides():
        if side in signs:
            signs[side] = -signs[side]
    signs[quad.new] = 1
    return DiagonalSigning(t2, signs)
