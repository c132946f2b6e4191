"""Diagonal flips, their restricted variants, and diagonal signings.

A flip replaces a diagonal by the other chord of the quadrilateral made of
its two faces.  The two faces involved keep their labels (the middle
vertices of the quadrilateral), so colorings and signings indexed by face
label transform by editing at most two entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .phi import colored_readings
from .triangulation import (
    Coloring,
    Diagonal,
    Triangulation,
    cut_ear,
    cut_ears,
    edge_adjacency,
    is_simple,
)
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


def flip_quad(t: Triangulation, d: Diagonal) -> FlipQuad:
    d = (min(d), max(d))
    if d not in t.diagonals:
        raise ValueError(f"{d} is not a diagonal of {t.diagonals}")
    adj = edge_adjacency(t)
    common = adj[d[0]] & adj[d[1]]
    if len(common) != 2:
        raise ValueError(f"diagonal {d} does not bound exactly two faces")
    u, v = sorted(common)
    quad = sorted((d[0], d[1], u, v))
    return FlipQuad(*quad, old=d, new=(u, v))


def flip(t: Triangulation, d: Diagonal) -> tuple[Triangulation, FlipQuad]:
    quad = flip_quad(t, d)
    diagonals = tuple(e for e in t.diagonals if e != quad.old) + (quad.new,)
    return Triangulation(t.n, diagonals), quad


def flip_characterization(t1: Triangulation, t2: Triangulation) -> tuple[Word, Word] | None:
    """Readings u x z v of t1 and u z x v of t2 witnessing a single flip.

    The two exchanged letters are the face labels of the flip quadrilateral
    and the tail v carries no letter strictly between them, which is exactly
    what separates a flip from a within-class exchange.  Returns None unless
    t1 and t2 differ by one flip.
    """
    if t1.n != t2.n or t1 == t2:
        return None
    gone = set(t1.diagonals) - set(t2.diagonals)
    if len(gone) != 1:
        return None
    d = gone.pop()
    t2_check, quad = flip(t1, d)
    if t2_check != t2:
        return None
    a, b, c, dd = quad.a, quad.b, quad.c, quad.d

    live = list(t1.ring.vertices)
    diags = set(t1.diagonals)
    interior = set(range(a + 1, b)) | set(range(b + 1, c)) | set(range(c + 1, dd))
    prefix = cut_ears(live, diags, interior, min)

    def finish(diags_: set, first: int, second: int) -> list[int]:
        live_ = list(live)
        for v in (first, second):
            if any(v in e for e in diags_):
                raise AssertionError(f"vertex {v} not an ear after clearing the quad")
            cut_ear(live_, diags_, v)
        return [first, second] + cut_ears(live_, diags_, t1.ring.inner, min)

    if quad.old == (a, c):
        first1, second1 = b, c
    else:
        first1, second1 = c, b
    w1 = tuple(prefix + finish(set(diags), first1, second1))
    w2 = tuple(prefix + finish((diags - {quad.old}) | {quad.new}, second1, first1))
    return w1, w2


def flip_row(t: Triangulation) -> list[tuple[Diagonal, Triangulation, int, int]]:
    """Every flip of t in diagonal order, as (diagonal, result, b, c) with b < c
    the labels of the two faces it exchanges.  Signs and colors never change a
    row, so every flip loop reads one."""
    row = []
    for d in t.diagonals:
        t2, quad = flip(t, d)
        row.append((d, t2, *quad.labels))
    return row


class FlipTable(dict):
    """The flip rows of one traversal, keyed by triangulation and built on
    first lookup, so a shape met under many signings is flipped once."""

    def __missing__(self, t: Triangulation) -> list[tuple[Diagonal, Triangulation, int, int]]:
        row = self[t] = flip_row(t)
        return row


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


def switched_candidates(
    t: Triangulation, eps: Coloring
) -> tuple[list[tuple[Triangulation, Coloring]], list[tuple[Triangulation, Coloring]]]:
    """Different-color flips from a simple state, split by simplicity of the result."""
    if not is_simple(t, eps):
        raise ValueError("switched flips are only defined between simple colored triangulations")
    kept, dropped = [], []
    for _, t2, b, c in flip_row(t):
        if eps[b - 1] != eps[c - 1]:
            (kept if is_simple(t2, eps) else dropped).append((t2, eps))
    return kept, dropped


def switched_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    kept, _ = switched_candidates(t, eps)
    return kept


@dataclass
class DiagonalSigning:
    """A triangulation with signs on some (possibly all) of its diagonals."""

    base: Triangulation
    signs: dict[Diagonal, int]

    def is_total(self) -> bool:
        return set(self.signs) == set(self.base.diagonals)


def diagonal_signing_from_faces(t: Triangulation, face_signs: Coloring) -> DiagonalSigning:
    """Sign every diagonal by the product of its two face signs."""
    signs = {d: face_signs[b - 1] * face_signs[c - 1] for d, _, b, c in flip_row(t)}
    return DiagonalSigning(t, signs)


def face_signs_from_diagonals(ds: DiagonalSigning, anchor_sign: int) -> Coloring:
    """Recover face signs from a total diagonal signing and the sign of face 1.

    Faces adjacent across a diagonal have sign product equal to the diagonal
    sign, and the face adjacency is a tree, so one anchor determines all.
    """
    if not ds.is_total():
        raise ValueError("face signs need a total diagonal signing")
    t = ds.base
    sign_of = {1: anchor_sign}
    pending = [(ds.signs[d], b, c) for d, _, b, c in flip_row(t)]
    while pending:
        progressed = False
        remaining = []
        for sign, b, c in pending:
            if b in sign_of and c not in sign_of:
                sign_of[c] = sign_of[b] * sign
            elif c in sign_of and b not in sign_of:
                sign_of[b] = sign_of[c] * sign
            elif b not in sign_of and c not in sign_of:
                remaining.append((sign, b, c))
                continue
            progressed = True
        if not progressed and remaining:
            raise ValueError("face adjacency is not connected; invalid triangulation")
        pending = remaining
    if t.n >= 1 and len(sign_of) != t.n:
        # faces not adjacent to any diagonal only occur for n = 1
        for label in t.ring.inner:
            sign_of.setdefault(label, anchor_sign)
    return tuple(sign_of[label] for label in t.ring.inner)


def signed_flip_diagonal(ds: DiagonalSigning, d: Diagonal) -> DiagonalSigning | None:
    """Flip a positively signed diagonal: the new one is positive and the
    signed sides of the quadrilateral change sign.  A negative d refuses."""
    d = (min(d), max(d))
    if d not in ds.base.diagonals:
        raise ValueError(f"{d} is not a diagonal of the base triangulation")
    if d not in ds.signs:
        raise ValueError(f"diagonal {d} is unsigned; flip is undefined")
    if ds.signs[d] == -1:
        return None
    t2, quad = flip(ds.base, d)
    signs = dict(ds.signs)
    del signs[d]
    for side in quad.sides():
        if side in signs:
            signs[side] = -signs[side]
    signs[quad.new] = 1
    return DiagonalSigning(t2, signs)


def readings_exchange_oracle(
    t1: Triangulation, t2: Triangulation, eps: Coloring
) -> bool:
    """Brute-force test used against switched_neighbors: do colored readings
    w = u x z v of t1 and u z x v of t2 exist with x != z and no tail letter
    between them (in either order)?"""
    r2 = colored_readings(t2, eps)
    for w in colored_readings(t1, eps):
        for i in range(len(w) - 1):
            x, z = w[i], w[i + 1]
            if x == z:
                continue
            swapped = w[:i] + (z, x) + w[i + 2 :]
            if swapped not in r2:
                continue
            lo, hi = min(x, z), max(x, z)
            if not any(lo <= y < hi for y in w[i + 2 :]):
                return True
    return False
