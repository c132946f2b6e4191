"""Sphere triangulations from two polygon triangulations, and four-coloring.

Gluing two triangulations of the same polygon along their boundary gives a
triangulation of the sphere.  A signing of its faces is a Heawood signing
when the signs around every vertex sum to 0 mod 3; such a signing exists
exactly when the vertices admit a proper four-coloring, and gluing any
triangulation to itself with mirror-opposite signs always produces one.
A sphere trusts its hemispheres: ``jsonio`` validates each shape it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangulation import Coloring, Diagonal, Triangulation, faces


@dataclass
class SphereTriangulation:
    """north and south glued along the boundary of their polygon; ``signs``
    is the pair (north signs, south signs), each a +-1 tuple by face label."""

    north: Triangulation
    south: Triangulation
    signs: tuple[Coloring, Coloring] | None = None

    def __post_init__(self) -> None:
        if self.north.n != self.south.n:
            raise ValueError(f"cannot glue n={self.north.n} and n={self.south.n}")
        if self.signs is not None and any(len(signs) != self.n for signs in self.signs):
            raise ValueError(f"each hemisphere needs one face sign per label 1..{self.n}")

    @property
    def n(self) -> int:
        return self.north.n


def mirror_sphere(t: Triangulation, eps: Coloring) -> SphereTriangulation:
    """Glue t to itself, the south copy carrying the opposite face signs."""
    return SphereTriangulation(t, t, (eps, tuple(-s for s in eps)))


def sphere_edges(s: SphereTriangulation) -> set[Diagonal]:
    """The n+2 boundary edges of the polygon and both hemispheres' diagonals."""
    edges = {(v, v + 1) for v in range(s.n + 1)} | {(0, s.n + 1)}
    return edges | set(s.north.diagonals) | set(s.south.diagonals)


def heawood_check(s: SphereTriangulation) -> list[int]:
    """Vertices whose incident face signs do not sum to 0 mod 3 (empty = pass)."""
    if s.signs is None:
        raise ValueError("heawood check needs face signs")
    total = [0] * (s.n + 2)
    for t, signs in zip((s.north, s.south), s.signs):
        for face, sign in zip(faces(t), signs):
            for v in face:
                total[v] += sign
    return [v for v in range(s.n + 2) if total[v] % 3]


def color_graph(vertices: list[int], edges: set[tuple[int, int]]) -> dict[int, int] | None:
    """Greedy-ordered backtracking proper coloring with colors 0..3; None when
    impossible.  Vertices are colored by falling degree, each with its least
    color that no colored neighbour holds; a vertex left with none sends the
    search back one vertex, to that vertex's next color."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = sorted(vertices, key=lambda v: (-len(adj[v]), v))
    assignment: dict[int, int] = {}
    untried = [0] * len(order)  # the least color not yet tried at each depth
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        assignment.pop(v, None)
        used = {assignment[u] for u in adj[v] if u in assignment}
        c = next((c for c in range(untried[i], 4) if c not in used), None)
        if c is None:
            untried[i] = 0
            i -= 1
        else:
            assignment[v], untried[i] = c, c + 1
            i += 1
    return assignment if i == len(order) else None


def four_color(s: SphereTriangulation) -> dict[int, int] | None:
    """A proper vertex coloring of the glued sphere with colors 0..3."""
    return color_graph(list(range(s.n + 2)), sphere_edges(s))


def verify_coloring(s: SphereTriangulation, coloring: dict[int, int]) -> bool:
    """Whether coloring gives the two ends of every edge of s two different colors."""
    return all(a in coloring and b in coloring and coloring[a] != coloring[b] for a, b in sphere_edges(s))
