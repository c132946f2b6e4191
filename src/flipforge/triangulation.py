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


@dataclass(frozen=True)
class VertexRing:
    """The cyclically ordered vertex set 0, 1, ..., n, n+1 of the polygon."""

    n: int

    @property
    def infinity(self) -> int:
        return self.n + 1

    @property
    def vertices(self) -> range:
        return range(self.n + 2)

    @property
    def inner(self) -> range:
        """Vertices that label faces and carry colors or signs (excludes 0 and oo)."""
        return range(1, self.n + 1)

    def boundary_edges(self) -> set[Diagonal]:
        edges = {(v, v + 1) for v in range(self.infinity)}
        edges.add((0, self.infinity))
        return edges


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

    @property
    def ring(self) -> VertexRing:
        return VertexRing(self.n)


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
    lo, hi = face_ends(t)
    bases = sorted((lo[y], hi[y]) for y in t.ring.inner)
    if n and bases != sorted(t.diagonals + ((0, n + 1),)):
        return [f"face bases {bases} are not the diagonals and the roof edge, each once"]
    return []


def face_ends(t: Triangulation) -> tuple[list[int], list[int]]:
    """The lowest and highest vertex joined to each vertex 0..n+1, as the two
    lists (lo, hi); face y is (lo[y], y, hi[y])."""
    n = t.n
    lo, hi = list(range(-1, n + 1)), list(range(1, n + 3))
    lo[0], hi[0], lo[n + 1], hi[n + 1] = 1, n + 1, 0, n
    for i, j in t.diagonals:
        if i < lo[j]:
            lo[j] = i
        if j > hi[i]:
            hi[i] = j
    return lo, hi


def face_tree(t: Triangulation) -> tuple[list[int], list[int], dict[Diagonal, int], list[int]]:
    """``face_ends``, ``below`` and ``up``.  ``below`` maps each base
    (lo[y], hi[y]) to its face y; the faces below the sides (lo[y], y) and
    (y, hi[y]) are face y's children, and the root lies below the roof edge.
    ``up[y]``, face y's parent, lies beyond its base (i, j): it is face
    i = (lo[i], i, j) if hi[i] = j, else face j = (i, j, hi[j]); as
    hi[0] = n+1, ``up`` of the root is 0."""
    lo, hi = face_ends(t)
    up = [0] + [lo[y] if hi[lo[y]] == hi[y] else hi[y] for y in t.ring.inner]
    return lo, hi, {(lo[y], hi[y]): y for y in t.ring.inner}, up


def faces(t: Triangulation) -> list[Face]:
    """The n faces (lo[y], y, hi[y]) by label y; requires a valid triangulation."""
    lo, hi = face_ends(t)
    return [Face(lo[y], y, hi[y]) for y in t.ring.inner]


def up_mask(t: Triangulation) -> int:
    """Bit y set for each y >= 2 that tops no diagonal (lo[y] == y - 1), that
    is, whose face y lies on the edge {y-1, y} and points up."""
    lo, _ = face_ends(t)
    return sum(1 << y for y in range(2, t.n + 1) if lo[y] == y - 1)


def rise_mask(eps: Coloring) -> int:
    """Bit y set for each y >= 2 colored strictly above y - 1."""
    return sum(1 << y for y in range(2, len(eps) + 1) if eps[y - 2] < eps[y - 1])


def weakly_increasing(eps: Coloring) -> bool:
    """Whether the colors never fall along 1..n."""
    return all(a <= b for a, b in zip(eps, eps[1:]))


def is_simple(t: Triangulation, eps: Coloring) -> bool:
    """Whether the colored triangulation satisfies the three simplicity rules.

    (a) colors weakly increase along 1..n, (b) no diagonal joins two inner
    vertices of equal color, (c) for consecutive equal-colored vertices
    i, i+1 the face on the edge {i, i+1} points down: t_i < i.

    Equivalently, with eps_y the color of y: the colors weakly increase and
    eps_{y-1} < eps_y for every y >= 2 that tops no diagonal (lo[y] = y - 1),
    i.e. ``up_mask(t) & ~rise_mask(eps) == 0``.
    The face on {y-1, y} is face y iff lo[y] = y - 1, else face y - 1, and
    only face y points up; so this is (c).  (a) and (c) give (b): an inner
    diagonal (i, j) with eps_i = eps_j forces eps_i = eps_{i+1} by (a), and
    no diagonal reaches i + 1 from below i without crossing (i, j), so
    lo[i+1] = i and (c) fails.  Requires a valid triangulation.
    """
    if len(eps) != t.n:
        raise ValueError(f"coloring has length {len(eps)}, expected {t.n}")
    return weakly_increasing(eps) and not up_mask(t) & ~rise_mask(eps)


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
            for dl in rec(vs[: k + 1]):
                for dr in rec(vs[k:]):
                    yield dl + dr + extra

    for diags in rec(range(n + 2)):
        yield Triangulation(n, diags)
