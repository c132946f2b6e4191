"""Triangulations of a convex polygon with two boundary markers.

The polygon on ``n + 2`` vertices is labelled ``0 < 1 < ... < n < n+1``.
Vertex ``0`` and vertex ``n+1`` (the "roof", written oo) are markers; the
inner vertices ``1..n`` carry colors or signs.  A triangulation is a maximal
set of ``n - 1`` pairwise noncrossing diagonals; it has exactly ``n``
triangular faces, and labelling every face by its middle vertex is a
bijection onto ``1..n``.
"""

from __future__ import annotations

import itertools
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
        """Vertices that may be cut, colored or signed (excludes 0 and oo)."""
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
        norm = tuple(sorted((min(d), max(d)) for d in self.diagonals))
        object.__setattr__(self, "diagonals", norm)

    @property
    def ring(self) -> VertexRing:
        return VertexRing(self.n)


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """Whether two chords of the polygon cross in their interiors."""
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return a < c < b < d or c < a < d < b


def validate(t: Triangulation) -> list[str]:
    """Return the list of violated triangulation invariants (empty when valid)."""
    problems: list[str] = []
    ring = t.ring
    if t.n < 0:
        return [f"n must be nonnegative, got {t.n}"]
    boundary = ring.boundary_edges()
    for d in t.diagonals:
        i, j = d
        if not (0 <= i < j <= ring.infinity):
            problems.append(f"diagonal {d} is not a pair of distinct vertices in 0..{ring.infinity}")
        elif d in boundary:
            problems.append(f"diagonal {d} is a boundary edge of the polygon")
    if problems:
        return problems
    if len(set(t.diagonals)) != len(t.diagonals):
        problems.append("duplicate diagonals")
    if len(t.diagonals) != max(t.n - 1, 0):
        problems.append(f"expected {max(t.n - 1, 0)} diagonals for n={t.n}, got {len(t.diagonals)}")
    for d1, d2 in itertools.combinations(t.diagonals, 2):
        if crossing(d1, d2):
            problems.append(f"diagonals {d1} and {d2} cross")
            break
    if not problems and t.n >= 1:
        # n-1 pairwise noncrossing non-boundary chords are automatically maximal;
        # clipping ears certifies that and checks the face-label bijection.
        labels = sorted(f.label for f in faces(t))
        if labels != list(ring.inner):
            problems.append(f"face labels {labels} are not a bijection onto 1..{t.n}")
    return problems


def is_valid(t: Triangulation) -> bool:
    return not validate(t)


def edge_adjacency(t: Triangulation) -> dict[int, set[int]]:
    """Vertex adjacency of the polygon boundary together with the diagonals."""
    adj: dict[int, set[int]] = {v: set() for v in t.ring.vertices}
    for i, j in t.ring.boundary_edges() | set(t.diagonals):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def ears(t: Triangulation) -> set[int]:
    """Vertices of degree two, i.e. vertices met by no diagonal."""
    touched = {v for d in t.diagonals for v in d}
    return {v for v in t.ring.vertices if v not in touched}


def cut_ear(live: list[int], diags: set[Diagonal], v: int) -> tuple[int, int]:
    """Cut the ear v off the live ring and return its two ring neighbours.

    The chord joining the neighbours, which closed the ear, leaves ``diags``;
    both arguments are edited in place.  v must be met by no chord in diags.
    """
    idx = live.index(v)
    a, b = live[idx - 1], live[(idx + 1) % len(live)]
    diags.discard((min(a, b), max(a, b)))
    live.pop(idx)
    return a, b


def cut_ears(live: list[int], diags: set[Diagonal], allowed, pick) -> list[int]:
    """Cut ears among ``allowed`` while any is left, each time the one ``pick``
    (``min`` or ``max``) chooses; returns the vertices in the order cut."""
    cut = []
    while True:
        touched = {v for d in diags for v in d}
        candidates = [v for v in live if v in allowed and v not in touched]
        if not candidates:
            return cut
        v = pick(candidates)
        cut_ear(live, diags, v)
        cut.append(v)


def faces(t: Triangulation) -> list[Face]:
    """The n triangular faces, sorted by label.  Requires a valid triangulation."""
    live = list(t.ring.vertices)
    degree = {v: 0 for v in live}
    for i, j in t.diagonals:
        degree[i] += 1
        degree[j] += 1
    diags = set(t.diagonals)
    out: list[Face] = []
    while len(live) > 2:
        for v in live:
            if not degree[v]:
                break
        else:
            raise ValueError("no ear found; not a triangulation")
        chords = len(diags)
        a, b = cut_ear(live, diags, v)
        out.append(Face(*sorted((a, v, b))))
        if len(diags) < chords:
            degree[a] -= 1
            degree[b] -= 1
    return sorted(out, key=lambda f: f.label)


def third_vertex(t: Triangulation, i: int) -> int:
    """The third vertex t_i of the unique face containing the edge {i, i+1}."""
    if not 1 <= i <= t.n - 1:
        raise ValueError(f"edge index {i} out of range 1..{t.n - 1}")
    return _apex(edge_adjacency(t), i)


def _apex(adj: dict[int, set[int]], i: int) -> int:
    """third_vertex read from the vertex adjacency of the triangulation."""
    common = adj[i] & adj[i + 1]
    if len(common) != 1:
        raise ValueError(f"edge ({i}, {i + 1}) does not bound a unique face: {sorted(common)}")
    return common.pop()


def is_simple(t: Triangulation, eps: Coloring) -> bool:
    """Whether the colored triangulation satisfies the three simplicity rules.

    (a) colors weakly increase along 1..n, (b) no diagonal joins two inner
    vertices of equal color, (c) for consecutive equal-colored vertices
    i, i+1 the face on the edge {i, i+1} points down: t_i < i.
    """
    if len(eps) != t.n:
        raise ValueError(f"coloring has length {len(eps)}, expected {t.n}")
    if any(eps[i] > eps[i + 1] for i in range(t.n - 1)):
        return False
    for i, j in t.diagonals:
        if 1 <= i and j <= t.n and eps[i - 1] == eps[j - 1]:
            return False
    runs = [i for i in range(1, t.n) if eps[i - 1] == eps[i]]
    if not runs:
        return True
    adj = edge_adjacency(t)
    return all(_apex(adj, i) < i for i in runs)


def canonical_key(t: Triangulation) -> str:
    """Stable text key: "<n>:" then the sorted diagonals, e.g. "2:0-2"."""
    return f"{t.n}:" + ";".join(f"{i}-{j}" for i, j in t.diagonals)


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
