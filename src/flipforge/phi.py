"""From permutations and words to triangulations.

``triangulation_from_permutation`` scans a permutation left to right, keeping
the not-yet-seen vertices on a live ring: each letter (except the last) adds
the diagonal joining its live neighbours, then leaves the ring.  A reading
lists the faces so that each comes after the faces below its two sides: it
is a linear extension of the face tree.  The readings of a triangulation
form exactly one sylvester class, so the map realizes the class quotient.

``colored_triangulation_from_word`` pairs the image of the standardization
with the weakly increasing coloring given by the word's evaluation; the
result is always simple.  The same object can be grown one vertex at a time
with ``insert``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from typing import Any, Callable

from .triangulation import Coloring, Triangulation, face_tree, faces, is_simple
from .words import Word, is_permutation, standardize

ColoredTriangulation = tuple[Triangulation, Coloring]


def triangulation_from_permutation(sigma: Word) -> Triangulation:
    if not is_permutation(sigma):
        raise ValueError(f"{sigma} is not a permutation")
    n = len(sigma)
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
    """Every reading of t, from the leaves of its face tree to the root: face
    y is read after the faces below its sides (lo[y], y) and (y, hi[y]), so
    its readings are the shuffles of theirs, each followed by y."""
    lo, hi, below, _ = face_tree(t)
    read: dict[int, list[Word]] = {}

    def under(i: int, j: int) -> list[Word]:
        return read.pop(below[i, j]) if j - i > 1 else [()]

    for y in sorted(range(1, t.n + 1), key=lambda y: hi[y] - lo[y]):
        words = []
        for u, v in product(under(lo[y], y), under(y, hi[y])):
            u, v = sorted((u, v), key=len)
            for places in combinations(range(len(u) + len(v)), len(u)):
                w = list(v)
                for p, a in zip(places, u):
                    w.insert(p, a)
                w.append(y)
                words.append(tuple(w))
        read[y] = words
    return frozenset(under(0, t.n + 1))


def reading_count(t: Triangulation) -> int:
    """len(readings(t)) without enumerating them: face (x, y, z) spans the
    z - x - 1 letters of a subtree whose root y is read after all of them,
    so t has n! / prod(z - x - 1) readings (the hook-length formula)."""
    return math.factorial(t.n) // math.prod(z - x - 1 for x, _, z in faces(t))


def least_reading(t: Triangulation, key: Callable[[int], Any]) -> Word:
    """The reading that is lexicographically least when letters are compared
    by key: it always reads next the least face whose children are read,
    face y waiting for one child below each of its sides that is a diagonal."""
    lo, hi, _, up = face_tree(t)
    inner = range(1, t.n + 1)
    waiting = [0] + [(y - lo[y] > 1) + (hi[y] - y > 1) for y in inner]
    ready = [(key(y), y) for y in inner if not waiting[y]]
    heapify(ready)
    word = []
    while ready:
        y = heappop(ready)[1]
        word.append(y)
        p = up[y]
        waiting[p] -= 1
        if p and not waiting[p]:
            heappush(ready, (key(p), p))
    return tuple(word)


def canonical_reading(t: Triangulation) -> Word:
    """The lexicographically greatest reading."""
    return least_reading(t, lambda y: -y)


def colored_triangulation_from_word(w: Word) -> ColoredTriangulation:
    """The triangulation of the standardization, colored by sorted(w)."""
    return triangulation_from_permutation(standardize(w)), tuple(sorted(w))


def insert(state: ColoredTriangulation, color: int) -> ColoredTriangulation:
    """Grow a simple colored triangulation by one vertex of the given color.

    The new vertex lands after the last vertex colored below ``color``
    (vertex 0 acting as a colorless floor, the roof as a ceiling); the old
    boundary edge it covers becomes a diagonal and the new face takes the
    new color.  Labels are renumbered to stay contiguous.
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
    state: ColoredTriangulation = (Triangulation(0, ()), ())
    trace = [state]
    for color in reversed(w):
        state = insert(state, color)
        trace.append(state)
    return trace
