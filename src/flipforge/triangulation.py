"""Triangulations of a convex polygon with two boundary markers.

The polygon on ``n + 2`` vertices is labelled ``0 < 1 < ... < n < n+1``.
Vertex ``0`` and vertex ``n+1`` (the "roof", written oo) are markers; the
inner vertices ``1..n`` carry colors or signs.  A triangulation is a maximal
set of ``n - 1`` pairwise noncrossing diagonals; it has exactly ``n``
triangular faces, and labelling every face by its middle vertex is a
bijection onto ``1..n``.

Every face is read off one rule: if lo[y] and hi[y] are the lowest and
highest vertex joined to y (``face_ends``), face y is (lo[y], y, hi[y]),
where y's neighbours above it meet those below it.  Its base side
(lo[y], hi[y]) is a diagonal or the roof edge (0, n+1).

The faces form a binary tree (``face_tree``): face y's children are the faces
whose bases are its sides (lo[y], y) and (y, hi[y]), its parent lies beyond
its base, the root lies on the roof edge, and face y's subtree holds the
hi[y] - lo[y] - 1 faces between its ends.  ``validate`` rests on this rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

Diagonal = tuple[int, int]
Coloring = tuple[int, ...]


class Face(NamedTuple):
    """A triangular face; its label is the middle vertex."""

    x: int
    y: int
    z: int

    @property
    def label(self) -> int:
        return self.y


@dataclass(frozen=True)
class Triangulation:
    """An immutable triangulation; diagonals are kept sorted for hashing."""

    n: int
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self) -> None:
        norm = sorted([(i, j) if i < j else (j, i) for i, j in self.diagonals])
        object.__setattr__(self, "diagonals", tuple(norm))


def validate(t: Triangulation) -> list[str]:
    """Return the list of violated triangulation invariants (empty when valid).

    Past the range, boundary and count checks, the one test left is that the
    face bases (lo[y], hi[y]) are the diagonals and the roof edge, each once.
    Then the diagonals are distinct and noncrossing.  Say (a, c) and (b, d)
    cross, a < b < c < d: the face y on base (b, d) is joined to b and d and
    to nothing outside [b, d], and y != c, as c is joined to a < b.  So
    (y, d) if y < c, else (b, y), is a shorter diagonal crossing (a, c), and
    this descent must end.  Faces y < y' on one base (i, j) would give the
    crossing diagonals (y, j) and (i, y'), so no diagonal is listed twice.
    """
    n = t.n
    if n < 0:
        return [f"n must be nonnegative, got {n}"]
    problems: list[str] = []
    for d in t.diagonals:
        i, j = d
        if not (0 <= i < j <= n + 1):
            problems.append(f"diagonal {d} is not a pair of distinct vertices in 0..{n + 1}")
        elif j == i + 1 or (i, j) == (0, n + 1):
            problems.append(f"diagonal {d} is a boundary edge of the polygon")
    if problems:
        return problems
    if len(t.diagonals) != max(n - 1, 0):
        return [f"expected {max(n - 1, 0)} diagonals for n={n}, got {len(t.diagonals)}"]
    lo, hi = face_ends(n, t.diagonals)
    bases = sorted((lo[y], hi[y]) for y in range(1, n + 1))
    if n and bases != sorted(t.diagonals + ((0, n + 1),)):
        return [f"face bases {bases} are not the diagonals and the roof edge, each once"]
    return []


def face_ends(n: int, diagonals: Sequence[Diagonal]) -> tuple[list[int], list[int]]:
    """The lowest and highest vertex joined to each vertex 0..n+1 by the
    diagonals, as the two lists (lo, hi); face y is (lo[y], y, hi[y])."""
    lo, hi = list(range(-1, n + 1)), list(range(1, n + 3))
    lo[0], hi[0], lo[n + 1], hi[n + 1] = 1, n + 1, 0, n
    for i, j in diagonals:
        if i < lo[j]:
            lo[j] = i
        if j > hi[i]:
            hi[i] = j
    return lo, hi


def face_tree(n: int, diagonals: Sequence[Diagonal]) -> tuple[list[int], list[int], list[int]]:
    """``face_ends`` and ``up``: face y's parent ``up[y]`` lies beyond its base
    (i, j), face i = (lo[i], i, j) if hi[i] = j, else face j = (i, j, hi[j]);
    as hi[0] = n+1, ``up`` of the root, below the roof edge, is 0."""
    lo, hi = face_ends(n, diagonals)
    up = [0] + [lo[y] if hi[lo[y]] == hi[y] else hi[y] for y in range(1, n + 1)]
    return lo, hi, up


def faces(t: Triangulation) -> list[Face]:
    """The n faces (lo[y], y, hi[y]) by label y; requires a valid triangulation."""
    lo, hi = face_ends(t.n, t.diagonals)
    return [Face(lo[y], y, hi[y]) for y in range(1, t.n + 1)]


def up_mask(n: int, diagonals: Sequence[Diagonal]) -> int:
    """Bit y set for each y in 2..n that tops no diagonal (lo[y] == y - 1),
    that is, whose face y lies on the edge {y-1, y} and points up."""
    tops = 0
    for _, j in diagonals:
        tops |= 1 << j
    return (1 << n + 1) - 1 & ~3 & ~tops


def rise_mask(eps: Coloring) -> int:
    """Bit y set for each y >= 2 colored strictly above y - 1."""
    return sum(1 << y for y in range(2, len(eps) + 1) if eps[y - 2] < eps[y - 1])


def canonical_key(t: Triangulation) -> str:
    """Stable text key: "<n>:" then the sorted diagonals, e.g. "2:0-2"."""
    return f"{t.n}:" + ";".join(f"{i}-{j}" for i, j in t.diagonals)


def chord_code(t: Triangulation) -> int:
    """Integer key: bit i*(n+2)+j set for each diagonal (i, j)."""
    w = t.n + 2
    return sum(1 << i * w + j for i, j in t.diagonals)


def all_triangulations(n: int) -> Iterator[Triangulation]:
    """Enumerate every triangulation of the (n+2)-gon (c_n of them)."""

    def rec(vs: Sequence[int]) -> Iterator[tuple[Diagonal, ...]]:
        if len(vs) <= 2:
            yield ()
            return
        first, last = vs[0], vs[-1]
        for k in range(1, len(vs) - 1):
            apex = vs[k]
            extra: tuple[Diagonal, ...] = ()
            if k > 1:
                extra += ((first, apex),)
            if k < len(vs) - 2:
                extra += ((apex, last),)
            rights = list(rec(vs[k:]))
            for dl in rec(vs[: k + 1]):
                for dr in rights:
                    yield dl + dr + extra

    for diags in rec(range(n + 2)):
        yield Triangulation(n, diags)
    del rec  # a cycle through its own closure would keep it until a collection
