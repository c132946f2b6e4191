"""From permutations and words to triangulations.

``triangulation_from_permutation`` scans a permutation left to right, keeping
the not-yet-seen vertices on a live ring: each letter (except the last) adds
the diagonal joining its live neighbours, then leaves the ring.  Reading a
triangulation back means repeatedly recording and cutting an inner ear; the
set of readings of a triangulation is exactly one sylvester class, so the map
realizes the class quotient.

``colored_triangulation_from_word`` pairs the image of the standardization
with the weakly increasing coloring given by the word's evaluation; the
result is always simple.  The same object can be grown one vertex at a time
with ``insert``.
"""

from __future__ import annotations

import math
from functools import cache

from .triangulation import Coloring, Triangulation, cut_ear, cut_ears, faces, is_simple
from .words import Word, block_coloring, evaluation, standardize

ColoredTriangulation = tuple[Triangulation, Coloring]


def triangulation_from_permutation(sigma: Word) -> Triangulation:
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation")
    pred = list(range(-1, n + 1))
    succ = list(range(1, n + 3))
    diagonals = []
    for v in sigma[: n - 1]:
        p, s = pred[v], succ[v]
        diagonals.append((p, s))
        succ[p] = s
        pred[s] = p
    return Triangulation(n, tuple(diagonals))


def readings(t: Triangulation) -> frozenset[Word]:
    """All words obtained by repeatedly cutting an inner ear of t."""
    inner = set(t.ring.inner)

    @cache
    def rec(live: tuple[int, ...], diags: frozenset) -> frozenset[Word]:
        cuttable = [v for v in live if v in inner]
        if not cuttable:
            return frozenset({()})
        touched = {v for d in diags for v in d}
        out = set()
        for v in cuttable:
            if v in touched:
                continue
            live2, diags2 = list(live), set(diags)
            cut_ear(live2, diags2, v)
            out.update((v,) + w for w in rec(tuple(live2), frozenset(diags2)))
        return frozenset(out)

    return rec(tuple(t.ring.vertices), frozenset(t.diagonals))


def reading_count(t: Triangulation) -> int:
    """len(readings(t)) without enumerating them: face (x, y, z) spans the
    z - x - 1 letters of a subtree whose root y is read after all of them,
    so t has n! / prod(z - x - 1) readings (the hook-length formula)."""
    return math.factorial(t.n) // math.prod(z - x - 1 for x, _, z in faces(t))


def canonical_reading(t: Triangulation) -> Word:
    """The reading that always cuts the greatest-labelled ear (lex-greatest)."""
    return tuple(cut_ears(list(t.ring.vertices), set(t.diagonals), set(t.ring.inner), max))


def colored_triangulation_from_word(w: Word) -> ColoredTriangulation:
    """The triangulation of the standardization, colored by the evaluation."""
    return triangulation_from_permutation(standardize(w)), block_coloring(evaluation(w))


def colored_readings(t: Triangulation, eps: Coloring) -> frozenset[Word]:
    """Color each reading letterwise; requires a simple colored triangulation."""
    if not is_simple(t, eps):
        raise ValueError("colored readings are only defined for simple colored triangulations")
    return frozenset(tuple(eps[v - 1] for v in word) for word in readings(t))


def insert(state: ColoredTriangulation, value: int, color: int) -> ColoredTriangulation:
    """Grow a simple colored triangulation by one vertex of the given color.

    The new vertex lands after the last vertex colored below ``color``
    (vertex 0 acting as a colorless floor, the roof as a ceiling); the old
    boundary edge it covers becomes a diagonal and the new face takes the
    new color.  ``value`` names the vertex being inserted and does not
    affect the position.  Labels are renumbered to stay contiguous.
    """
    t, eps = state
    if not is_simple(t, eps):
        raise ValueError(f"cannot insert color {color}: state is not simple (coloring {eps})")
    pos = sum(1 for c in eps if c < color)

    def shift(v: int) -> int:
        return v + 1 if v > pos else v

    diagonals = [(shift(i), shift(j)) for i, j in t.diagonals]
    if t.n > 0:
        diagonals.append((pos, pos + 2))
    eps2 = eps[:pos] + (color,) + eps[pos:]
    return Triangulation(t.n + 1, tuple(diagonals)), eps2


def insertion_trace(w: Word) -> list[ColoredTriangulation]:
    """States of the right-to-left insertion fold of w, ending at its image."""
    pairs = list(zip(standardize(w), w))
    state: ColoredTriangulation = (Triangulation(0, ()), ())
    trace = [state]
    for value, color in reversed(pairs):
        state = insert(state, value, color)
        trace.append(state)
    return trace
