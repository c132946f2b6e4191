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
    from_chord_code,
    is_simple,
    rise_mask,
    up_mask,
    validate,
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


def flip_characterization(t1: Triangulation, t2: Triangulation) -> tuple[Word, Word] | None:
    """Readings u x z v of t1 and u z x v of t2 witnessing a single flip, or
    None unless t1 and t2 differ by one flip; see ``flip_readings``."""
    quad = flip_between(t1, t2)
    return None if quad is None else flip_readings(t1, quad, t2)


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


def flip_row(t: Triangulation) -> list[tuple[Diagonal, Triangulation, int, int]]:
    """Every flip of t in diagonal order, as (diagonal, result, b, c) with b < c
    the labels of the two faces it exchanges.  Signs and colors never change a
    row; one read of the face ends serves it.  ``ShapeTable.row`` numbers the
    same flips by chord code instead of building each result."""
    return [(quad.old, _flipped(t, quad), *quad.labels) for quad in _quads(t)]


class ShapeTable:
    """The shapes of one traversal, numbered in the order they are added,
    and their flip rows over those numbers.

    Shapes are keyed by ``chord_code``: ``row(i)`` is built the first time
    it is asked for, from one pass over shape i's flip quadrilaterals, and
    each flip result is the code with the old diagonal's bit swapped for the
    new one's.  Only a code not yet in the table is decoded, and the shape
    is added to it.  The entry (j, mask, b, c, d) flips shape i across its
    diagonal d to shape j, exchanging faces b < c, in diagonal order.
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
                j = self._number(n, code ^ 1 << i1 * w + j1 | 1 << i2 * w + j2)
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

    def _number(self, n: int, code: int) -> int:
        j = self.index.get(code)
        if j is None:
            j = self.index[code] = len(self.shapes)
            self.shapes.append(from_chord_code(n, code))
        return j


def flip_table(n: int) -> ShapeTable:
    """Every shape of size n sorted by canonical key, so the states
    ``i << n | s`` count the shapes by canonical key and, within a shape, the
    signings in the order of ``product((-1, 1), repeat=n)``."""
    return ShapeTable(sorted(all_triangulations(n), key=canonical_key))


def mask_signs(s: int, n: int) -> Coloring:
    """The face signs of the signing bitmask s of size n."""
    return tuple(1 if s >> (n - k) & 1 else -1 for k in range(1, n + 1))


def signed_moves(row, signs: Coloring) -> Iterator[tuple[Diagonal, Triangulation, Coloring]]:
    """The signed flips of a row: each diagonal whose two faces carry equal
    signs flips and negates both, giving (diagonal, result, new signs)."""
    for d, t2, b, c in row:
        if signs[b - 1] == signs[c - 1]:
            signs2 = list(signs)
            signs2[b - 1] = signs2[c - 1] = -signs[b - 1]
            yield d, t2, tuple(signs2)


def signed_flip(
    t: Triangulation, signs: Coloring, d: Diagonal
) -> tuple[Triangulation, Coloring] | None:
    """Flip d if its two faces carry equal signs, negating both; else None."""
    t2, quad = flip(t, d)
    for _, t2, signs2 in signed_moves([(quad.old, t2, *quad.labels)], signs):
        return t2, signs2
    return None


def homogeneous_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Flips whose two faces share a color; the coloring is unchanged."""
    return [(t2, eps) for _, t2, b, c in flip_row(t) if eps[b - 1] == eps[c - 1]]


def switched_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Different-color flips from a simple state whose result stays simple."""
    if not is_simple(t, eps):
        raise ValueError("switched flips are only defined between simple colored triangulations")
    return [(t2, eps) for _, t2, b, c in flip_row(t)
            if eps[b - 1] != eps[c - 1] and is_simple(t2, eps)]


@dataclass
class DiagonalSigning:
    """A triangulation with signs on some (possibly all) of its diagonals."""

    base: Triangulation
    signs: dict[Diagonal, int]

    def is_total(self) -> bool:
        return set(self.signs) == set(self.base.diagonals)


def _valid_face_tree(t: Triangulation):
    problems = validate(t)
    if problems:
        raise ValueError(problems[0])
    return face_tree(t)


def diagonal_signing_from_faces(t: Triangulation, face_signs: Coloring) -> DiagonalSigning:
    """Sign the base of each face y but the root by the product of the signs
    of y and of up[y], the face beyond it."""
    _, _, below, up = _valid_face_tree(t)
    return DiagonalSigning(t, {d: face_signs[y - 1] * face_signs[up[y] - 1]
                               for d, y in sorted(below.items()) if up[y]})


def face_signs_from_diagonals(ds: DiagonalSigning, anchor_sign: int) -> Coloring:
    """Recover face signs from a total diagonal signing and the sign of face 1.

    Faces adjacent across a diagonal have sign product equal to the diagonal
    sign, and the faces form a tree: sign each face relative to the root,
    from the root down, and scale so that face 1 has the anchor's sign.
    """
    if not ds.is_total():
        raise ValueError("face signs need a total diagonal signing")
    t = ds.base
    lo, hi, _, up = _valid_face_tree(t)
    rel = [1] * (t.n + 2)
    for y in sorted(t.ring.inner, key=lambda y: lo[y] - hi[y]):
        if up[y]:
            rel[y] = rel[up[y]] * ds.signs[lo[y], hi[y]]
    scale = anchor_sign * rel[1]
    return tuple(scale * rel[y] for y in t.ring.inner)


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
