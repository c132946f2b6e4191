"""Test-only reference code: brute-force or second routes to what the
library computes, and every name that only the tests reach, which
``tests/test_layout.py`` keeps out of ``src/``.
"""

from collections import deque
from functools import cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from flipforge.flips import FlipQuad, ShapeTable, flip_between
from flipforge.graphs import catalan, diagram_report, flip_table, same_color_orbit
from flipforge.phi import readings, triangulation_from_permutation
from flipforge.signing import (
    Certificate,
    DiagonalSigning,
    PathSigning,
    SignedPath,
    SignedState,
    StateCapExceeded,
    flip_readings,
    sign_letters,
    step_kind,
)
from flipforge.triangulation import (
    Coloring,
    Diagonal,
    Face,
    Triangulation,
    all_triangulations,
    canonical_key,
    face_ends,
    face_tree,
    validate,
)
from flipforge.words import (
    ClosureCapExceeded,
    SignedWord,
    Word,
    adjacent_difference,
    block_coloring,
    exchange_witness,
    is_permutation,
    is_signed_word,
    sylvester_class,
)


def catalan_by_recurrence(n: int) -> int:
    """The Catalan number by the first-triangle split, as an independent route."""
    table = [1] * (n + 1)
    for m in range(1, n + 1):
        table[m] = sum(table[k] * table[m - 1 - k] for k in range(m))
    return table[n]


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


def readings_by_ears(t: Triangulation) -> frozenset[Word]:
    """All words obtained by repeatedly cutting an inner ear of t off a live
    vertex ring, as a memoized recursion over (ring, chords) states."""
    inner = set(range(1, t.n + 1))

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

    return rec(tuple(range(t.n + 2)), frozenset(t.diagonals))


def canonical_reading_by_ears(t: Triangulation) -> Word:
    """The reading that always cuts the greatest-labelled ear."""
    return tuple(cut_ears(list(range(t.n + 2)), set(t.diagonals), set(range(1, t.n + 1)), max))


def flip_readings_by_ears(t: Triangulation, quad: FlipQuad) -> tuple[Word, Word]:
    """flip_readings by ear cutting: cut the ears strictly inside the
    quadrilateral other than b and c, least first; then cut its two letters,
    which must be ears, in order; then every other ear, least first.  The
    flipped word starts from the same ring with the chord exchanged."""
    a, b, c, dd = quad.a, quad.b, quad.c, quad.d
    live = list(range(t.n + 2))
    diags = set(t.diagonals)
    interior = set(range(a + 1, b)) | set(range(b + 1, c)) | set(range(c + 1, dd))
    prefix = cut_ears(live, diags, interior, min)

    def finish(diags_: set, first: int, second: int) -> list[int]:
        live_ = list(live)
        for v in (first, second):
            if any(v in e for e in diags_):
                raise AssertionError(f"vertex {v} not an ear after clearing the quad")
            cut_ear(live_, diags_, v)
        return [first, second] + cut_ears(live_, diags_, range(1, t.n + 1), min)

    first, second = (b, c) if quad.old == (a, c) else (c, b)
    w1 = tuple(prefix + finish(set(diags), first, second))
    w2 = tuple(prefix + finish((diags - {quad.old}) | {quad.new}, second, first))
    return w1, w2


def faces_by_ears(t: Triangulation) -> list[Face]:
    """The n faces sorted by label, found by clipping ears off the polygon:
    each cut vertex v with its two ring neighbours is a face, and the chord
    that closed the ear leaves the set.  Requires a valid triangulation."""
    live = list(range(t.n + 2))
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


def is_simple(t: Triangulation, eps: Coloring) -> bool:
    """The definition of a simple colored triangulation, rule by rule, on
    faces found by clipping ears: (a) colors weakly increase along 1..n,
    (b) no diagonal joins two inner vertices of equal color, (c) for
    consecutive equal-colored vertices i, i+1 the face on the edge {i, i+1}
    points down: its third vertex is below i.  The library's one test,
    ``ShapeTable.simple``, reads a mask rule instead.  Requires a valid
    triangulation."""
    if list(eps) != sorted(eps):
        return False
    if any(1 <= i and j <= t.n and eps[i - 1] == eps[j - 1] for i, j in t.diagonals):
        return False
    equal = [i for i in range(1, t.n) if eps[i - 1] == eps[i]]
    fs = faces_by_ears(t) if equal else []
    for i in equal:
        (face,) = [f for f in fs if i in f and i + 1 in f]
        if next(v for v in face if v not in (i, i + 1)) >= i:
            return False
    return True


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """Whether two chords of the polygon cross in their interiors."""
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return a < c < b < d or c < a < d < b


@cache
def boundary_edges(n: int) -> frozenset[Diagonal]:
    """The n+2 sides of the polygon 0, 1, ..., n+1."""
    return frozenset({(v, v + 1) for v in range(n + 1)} | {(0, n + 1)})


def validate_by_crossings(t: Triangulation) -> list[str]:
    """validate by the boundary-edge set, a duplicate check and a scan of all
    pairs of diagonals for a crossing, before the face-bases test."""
    n, infinity = t.n, t.n + 1
    if n < 0:
        return [f"n must be nonnegative, got {n}"]
    problems: list[str] = []
    boundary = boundary_edges(n)
    for d in t.diagonals:
        i, j = d
        if not (0 <= i < j <= infinity):
            problems.append(f"diagonal {d} is not a pair of distinct vertices in 0..{infinity}")
        elif d in boundary:
            problems.append(f"diagonal {d} is a boundary edge of the polygon")
    if problems:
        return problems
    if len(set(t.diagonals)) != len(t.diagonals):
        problems.append("duplicate diagonals")
    if len(t.diagonals) != max(n - 1, 0):
        problems.append(f"expected {max(n - 1, 0)} diagonals for n={n}, got {len(t.diagonals)}")
    for d1, d2 in combinations(t.diagonals, 2):
        if crossing(d1, d2):
            problems.append(f"diagonals {d1} and {d2} cross")
            break
    if not problems and n >= 1:
        lo, hi = face_ends(t.n, t.diagonals)
        bases = sorted((lo[y], hi[y]) for y in range(1, infinity))
        if bases != sorted(t.diagonals + ((0, infinity),)):
            problems.append(f"face bases {bases} are not the diagonals and the roof edge, each once")
    return problems


def edge_adjacency(t: Triangulation) -> dict[int, set[int]]:
    """Vertex adjacency of the polygon boundary together with the diagonals."""
    adj: dict[int, set[int]] = {v: set() for v in range(t.n + 2)}
    for i, j in boundary_edges(t.n) | set(t.diagonals):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def quad_by_adjacency(t: Triangulation, d: Diagonal) -> FlipQuad:
    """The quadrilateral around the diagonal d, from the two vertices joined
    to both of its ends in the vertex adjacency of t."""
    adj = edge_adjacency(t)
    common = adj[d[0]] & adj[d[1]]
    if len(common) != 2:
        raise ValueError(f"diagonal {d} does not bound exactly two faces")
    u, v = sorted(common)
    return FlipQuad(*sorted((d[0], d[1], u, v)), old=d, new=(u, v))


def flip_quad(t: Triangulation, d: Diagonal) -> FlipQuad:
    """The quadrilateral around the diagonal d of t; ValueError if d is none."""
    d = (min(d), max(d))
    if d not in t.diagonals:
        raise ValueError(f"{d} is not a diagonal of {t.diagonals}")
    return quad_by_adjacency(t, d)


def flip(t: Triangulation, d: Diagonal) -> tuple[Triangulation, FlipQuad]:
    """The object route to one flip: t with d exchanged for the other chord
    of its quadrilateral, and that quadrilateral."""
    quad = flip_quad(t, d)
    return Triangulation(t.n, tuple(e for e in t.diagonals if e != quad.old) + (quad.new,)), quad


def signed_flip(
    t: Triangulation, signs: Coloring, d: Diagonal
) -> tuple[Triangulation, Coloring] | None:
    """Flip d if its two faces carry equal signs, negating both; else None."""
    t2, quad = flip(t, d)
    b, c = quad.b, quad.c
    if signs[b - 1] != signs[c - 1]:
        return None
    return t2, tuple(-v if k in (b, c) else v for k, v in enumerate(signs, 1))


def flip_row(t: Triangulation) -> list[tuple[Diagonal, Triangulation, int, int]]:
    """Every flip of t in diagonal order, as (diagonal, result, b, c) with b < c
    the labels of the two faces it exchanges: the object route, one ``flip``
    per diagonal, that ``ShapeTable.row`` must equal."""
    row = []
    for d in t.diagonals:
        t2, quad = flip(t, d)
        row.append((d, t2, quad.b, quad.c))
    return row


def homogeneous_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Flips whose two faces share a color; the coloring is unchanged."""
    return [(t2, eps) for _, t2, b, c in flip_row(t) if eps[b - 1] == eps[c - 1]]


def switched_neighbors(t: Triangulation, eps: Coloring) -> list[tuple[Triangulation, Coloring]]:
    """Different-color flips from a simple state whose result stays simple."""
    if not is_simple(t, eps):
        raise ValueError("switched flips are only defined between simple colored triangulations")
    return [(t2, eps) for _, t2, b, c in flip_row(t)
            if eps[b - 1] != eps[c - 1] and is_simple(t2, eps)]


def signed_moves(row, signs: Coloring) -> Iterator[tuple[Diagonal, Triangulation, Coloring]]:
    """The signed flips of a flip_row: each diagonal whose two faces carry
    equal signs flips and negates both, giving (diagonal, result, new signs)."""
    for d, t2, b, c in row:
        if signs[b - 1] == signs[c - 1]:
            signs2 = list(signs)
            signs2[b - 1] = signs2[c - 1] = -signs[b - 1]
            yield d, t2, tuple(signs2)


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


def sign_permutation_path(
    perms: Sequence[Word], initial_signs: Coloring
) -> tuple[Certificate | None, int | None]:
    """Walk a path of adjacent-transposition moves, signing letters on the way.

    Starts from perms[0] signed by face signs ``initial_signs``.  A move
    with a later letter between the exchanged pair is a K1 exchange; any
    other move needs equal signs on the pair and bars both (K2).  Returns
    (certificate, None) on success or (None, index of the blocked step).
    """
    w = sign_letters(perms[0], initial_signs)
    chain = [w]
    kinds: list[str] = []
    for step in range(len(perms) - 1):
        p, q = perms[step], perms[step + 1]
        diff = [i for i in range(len(p)) if p[i] != q[i]]
        if len(diff) != 2 or diff[1] != diff[0] + 1 or (p[diff[0]], p[diff[0] + 1]) != (
            q[diff[0] + 1],
            q[diff[0]],
        ):
            raise ValueError(f"step {step}: {p} -> {q} is not an adjacent transposition")
        i = diff[0]
        lo, hi = sorted((abs(w[i]), abs(w[i + 1])))
        if any(lo < abs(b) < hi for b in w[i + 2 :]):
            w = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            kinds.append("K1")
        else:
            alpha, gamma = w[i], w[i + 1]
            if (alpha > 0) != (gamma > 0):
                return None, step
            w = w[:i] + (-gamma, -alpha) + w[i + 2 :]
            kinds.append("K2")
        chain.append(w)
    return Certificate(chain, kinds), None


def sylvester_neighbors(w: Word) -> Iterator[Word]:
    """Every word one allowed adjacent exchange from w, in position order."""
    for i in range(len(w) - 1):
        if exchange_witness(w, i) is not None:
            yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def sylvester_class_by_neighbors(w: Word, cap: int = 1_000_000) -> frozenset[Word]:
    """The congruence class of w by a stack over ``sylvester_neighbors``,
    each exchange found by an ``exchange_witness`` suffix scan; raises
    ``ClosureCapExceeded`` on reaching a member past the cap."""
    seen = {w}
    stack = [w]
    while stack:
        current = stack.pop()
        for nxt in sylvester_neighbors(current):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"class of {w} exceeds cap {cap}")
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def class_bridge_by_search(w_from: Word, w_to: Word) -> list[Word]:
    """Shortest chain of adjacent exchanges between two class members, by a
    breadth-first search over the class that expands exchanges in position
    order."""
    if w_from == w_to:
        return [w_from]
    parent = {w_from: None}
    queue = deque([w_from])
    while queue:
        w = queue.popleft()
        for nxt in sylvester_neighbors(w):
            if nxt in parent:
                continue
            parent[nxt] = w
            if nxt == w_to:
                chain = [nxt]
                while parent[chain[-1]] is not None:
                    chain.append(parent[chain[-1]])
                return list(reversed(chain))
            queue.append(nxt)
    raise ValueError(f"{w_to} is not in the class of {w_from}")


def first_reached(start_tri: Triangulation) -> Iterator[tuple[SignedState, SignedState | None]]:
    """A breadth-first search over SignedState keys, seeded with every signing
    of start_tri in product order, flips in diagonal order and one flip_row
    per shape kept in a dict: each reachable signed state once, in the order
    the search first reaches it, with the state it was reached from, or None
    for a seed."""
    sources = [SignedState(start_tri, signs) for signs in product((-1, 1), repeat=start_tri.n)]
    seen = set(sources)
    for state in sources:
        yield state, None
    queue = deque(sources)
    rows: dict = {}
    while queue:
        state = queue.popleft()
        row = rows.get(state.tri)
        if row is None:
            row = rows[state.tri] = flip_row(state.tri)
        for _, t2, signs2 in signed_moves(row, state.signs):
            ns = SignedState(t2, signs2)
            if ns not in seen:
                seen.add(ns)
                queue.append(ns)
                yield ns, state


def signable_path_by_states(start_tri: Triangulation, end_tri: Triangulation) -> SignedPath | None:
    """signable_path_search, uncapped, by the route on SignedState keys: the
    path to the first state of end_tri that ``first_reached`` meets."""
    if start_tri == end_tri:
        return SignedPath([SignedState(start_tri, (-1,) * start_tri.n)])
    parent: dict = {}
    for state, via in first_reached(start_tri):
        parent[state] = via
        if state.tri == end_tri:
            states = [state]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            return SignedPath(reversed(states))
    return None


def depths_below_end(start_tri: Triangulation, end_tri: Triangulation) -> dict[SignedState, int]:
    """Each signed state at distance < d from the signings of start_tri, with
    its distance, where d is the distance to the nearest state of end_tri (or
    infinite when none is reachable); by ``first_reached``, whose order is by
    distance."""
    depth: dict[SignedState, int] = {}
    if start_tri == end_tri:
        return depth
    for state, via in first_reached(start_tri):
        if state.tri == end_tri:
            return {s: t for s, t in depth.items() if t <= depth[via]}
        depth[state] = 0 if via is None else depth[via] + 1
    return depth


def states_on_shortest_paths(start_tri: Triangulation, end_tri: Triangulation) -> dict[SignedState, int]:
    """Each signed state on a shortest path from the signings of start_tri to
    a state of end_tri, with its distance from them, for start_tri !=
    end_tri (empty when no path exists): the end states one signed flip from
    distance d - 1, then, nearer by one each time, the states of
    ``depths_below_end`` one signed flip from those already taken."""
    depth = depths_below_end(start_tri, end_tri)
    path = signable_path_by_states(start_tri, end_tri)
    if path is None:
        return {}
    d = len(path.flips)
    by_depth: dict[int, list[SignedState]] = {}
    for state, t in depth.items():
        by_depth.setdefault(t, []).append(state)
    rows: dict = {}

    def moves(state: SignedState) -> set[SignedState]:
        row = rows.get(state.tri)
        if row is None:
            row = rows[state.tri] = flip_row(state.tri)
        return {SignedState(t2, signs2) for _, t2, signs2 in signed_moves(row, state.signs)}

    later = {s for state in by_depth[d - 1] for s in moves(state) if s.tri == end_tri}
    on = dict.fromkeys(later, d)
    for t in range(d - 1, -1, -1):
        later = {state for state in by_depth[t] if moves(state) & later}
        on.update(dict.fromkeys(later, t))
    return on


def states_below_end(start_tri: Triangulation, end_tri: Triangulation) -> int:
    """The signed states at distance < d from the signings of start_tri, d the
    distance to end_tri: the least cap under which signable_path_search
    returns a path."""
    return len(depths_below_end(start_tri, end_tri))


def flipped_diagonal(t1: Triangulation, t2: Triangulation) -> Diagonal:
    """The diagonal of t1 whose flip gives t2; ValueError if there is none."""
    gone = set(t1.diagonals) - set(t2.diagonals)
    if len(gone) != 1 or flip(t1, next(iter(gone)))[0] != t2:
        raise ValueError(f"{canonical_key(t1)} -> {canonical_key(t2)} is not a flip")
    return gone.pop()


def signed_flip_diagonal(ds: DiagonalSigning, d: Diagonal) -> DiagonalSigning | None:
    """Flip d unless it is negative: the new diagonal is positive and the
    signed sides of the quadrilateral change sign.  An unsigned d is free to
    take either sign, so it flips as a positive one; a negative d refuses.
    The oracle of each step of ``sign_path_diagonals``, which applies the
    same rule to the quadrilateral it holds and builds no shape.
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


def sign_path_diagonals_by_tracking(path: Sequence[Triangulation]) -> PathSigning:
    """sign_path_diagonals by explicit bookkeeping on diagonal signs.

    Forward pass: track signs of the diagonals created along the path; a
    step flipping a negative tracked diagonal makes the path unsignable.  On
    success, unsigned diagonals of the final triangulation get +, and the
    earlier signings are recovered by undoing one flip at a time.
    """
    if not path:
        raise ValueError("empty path")
    steps = [flipped_diagonal(path[i], path[i + 1]) for i in range(len(path) - 1)]
    tracked: dict[Diagonal, int] = {}
    for i, d in enumerate(steps):
        if tracked.get(d) == -1:
            return PathSigning(False, failed_step=i)
        quad = flip_quad(path[i], d)
        tracked.pop(d, None)
        for side in quad.sides():
            if side in tracked:
                tracked[side] = -tracked[side]
        tracked[quad.new] = 1

    final = {d: tracked.get(d, 1) for d in path[-1].diagonals}
    signings = [final]
    for i in reversed(range(len(steps))):
        quad = flip_quad(path[i], steps[i])
        nxt = signings[0]
        prev: dict[Diagonal, int] = {}
        for d in path[i].diagonals:
            if d == steps[i]:
                prev[d] = 1
            elif d in quad.sides():
                prev[d] = -nxt[d]
            else:
                prev[d] = nxt[d]
        signings.insert(0, prev)
    return PathSigning(True, signings=[DiagonalSigning(t, s) for t, s in zip(path, signings)])


def face_sign_walk(path: Sequence[Triangulation], eps0: Coloring) -> list[Coloring] | None:
    """Replay a flip path under face signs starting from eps0, or None if refused."""
    signs = eps0
    out = [signs]
    for i in range(len(path) - 1):
        d = flipped_diagonal(path[i], path[i + 1])
        nxt = signed_flip(path[i], signs, d)
        if nxt is None:
            return None
        signs = nxt[1]
        out.append(signs)
    return out


def path_signable_by_faces(path: Sequence[Triangulation]) -> bool:
    """Free-start oracle: does any initial face signing survive the whole path?"""
    n = path[0].n
    return any(face_sign_walk(path, eps) is not None for eps in product((-1, 1), repeat=n))


class ConflictingSigningError(RuntimeError):
    """One triangulation reached with two different signings in one closure."""


def sigma_closure(start: SignedState, max_states: int = 1_000_000) -> frozenset[SignedState]:
    """All signed states reachable from start by signed flips.

    While exploring, checks that no triangulation shows up under two
    different signings; a violation raises ConflictingSigningError.
    """
    if max_states < 1:
        raise ValueError(f"state cap must be at least 1, got {max_states}")
    seen = {start}
    signs_of = {start.tri: start.signs}
    queue = deque([start])
    while queue:
        tri, signs = queue.popleft()
        # a closure holds one signing per shape, so each row is read once
        for _, t2, signs2 in signed_moves(flip_row(tri), signs):
            state = SignedState(t2, signs2)
            if state in seen:
                continue
            known = signs_of.get(state.tri)
            if known is not None and known != state.signs:
                raise ConflictingSigningError(
                    f"{canonical_key(state.tri)} reached with signs {known} and {state.signs}"
                )
            signs_of[state.tri] = state.signs
            seen.add(state)
            if len(seen) > max_states:
                raise StateCapExceeded(f"closure exceeds {max_states} states")
            queue.append(state)
    return frozenset(seen)


class DictUnionFind:
    """A union-find over any hashable items, dict-backed, independent of
    the library's integer ``graphs.UnionFind``."""

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def adjacency(g: dict) -> dict[str, list[str]]:
    """Each vertex's sorted neighbour keys, rebuilt from the edges of a
    printed graph ``{"kind", "vertices", "edges"}``."""
    out: dict[str, list[str]] = {v: [] for v in g["vertices"]}
    for v, w in g["edges"]:
        out[v].append(w)
        out[w].append(v)
    return {v: sorted(ws) for v, ws in out.items()}


def graph_components(g: dict) -> dict[str, list[str]]:
    """The components of a printed graph, by the reference union-find."""
    uf = DictUnionFind(g["vertices"])
    for v, w in g["edges"]:
        uf.union(v, w)
    return uf.groups()


def is_connected(g: dict) -> bool:
    return len(g["vertices"]) <= 1 or len(graph_components(g)) == 1


def reachability_by_states(table: ShapeTable, n: int) -> tuple[list, list[str]]:
    """The missing_pairs and audit_violations of signed_reachability_check
    over a flip table, by the route on (shape index, face signs) states:
    every directed move, a union-find over the states in the order of
    signed_states, and set unions for the coverage step.  A move negates the
    faces whose bits its mask holds, and needs equal signs on them."""
    keys = [canonical_key(table.shape(i)) for i in range(len(table.codes))]
    states = [(i, signs) for i in range(len(keys)) for signs in product((-1, 1), repeat=n)]
    index = {state: x for x, state in enumerate(states)}
    uf = DictUnionFind(range(len(states)))
    for x, (i, signs) in enumerate(states):
        for j, mask, _, _, _ in table.row(i):
            faces = [k for k in range(1, n + 1) if mask >> (n - k) & 1]
            if len({signs[k - 1] for k in faces}) == 1:
                signs2 = tuple(-v if k in faces else v for k, v in enumerate(signs, 1))
                uf.union(x, index[j, signs2])
    violations, underlying = [], {}
    for root, members in uf.groups().items():
        by_shape: dict[int, Coloring] = {}
        for x in members:
            i, signs = states[x]
            if i in by_shape:
                violations.append(f"{keys[i]}: {by_shape[i]} vs {signs}")
            by_shape[i] = signs
        underlying[root] = set(by_shape)
    missing = []
    for i, key in enumerate(keys):
        covered = set()
        for signs in product((-1, 1), repeat=n):
            covered |= underlying[uf.find(index[i, signs])]
        missing += [(key, keys[j]) for j in range(len(keys)) if j not in covered]
    return missing, violations


def signed_states(n: int) -> list[SignedState]:
    """Every (shape, face signs) state of size n: shapes by canonical key,
    then signings in product order."""
    out = []
    for t in sorted(all_triangulations(n), key=canonical_key):
        for signs in product((-1, 1), repeat=n):
            out.append(SignedState(t, signs))
    return out


def simple_triangulations(n: int, mu: tuple[int, ...]) -> list[Triangulation]:
    """The shapes of size n that are simple under the block coloring of mu."""
    eps = block_coloring(mu)
    return [t for t in all_triangulations(n) if is_simple(t, eps)]


def triangulation_from_key(key: str) -> Triangulation:
    """The triangulation whose canonical_key is key."""
    head, _, body = key.partition(":")
    diags = []
    if body:
        for part in body.split(";"):
            i, _, j = part.partition("-")
            diags.append((int(i), int(j)))
    return Triangulation(int(head), tuple(diags))


def from_chord_code(n: int, code: int) -> Triangulation:
    """The triangulation of size n whose ``chord_code`` is code.  As j < n+2,
    reading the set bits from low to high reads the diagonals in order;
    each bit is tested by position, not peeled off as ``ShapeTable`` does."""
    w = n + 2
    return Triangulation(n, tuple((k // w, k % w) for k in range(code.bit_length()) if code >> k & 1))


def classify_step(w1: SignedWord, w2: SignedWord) -> str | None:
    """The kind of move, "K1" or "K2", that takes signed word w1 to w2, or
    None, also when either is not a signed word: ``step_kind`` on checked
    words, as ``validate_certificate`` applies it to a chain."""
    if not (is_signed_word(w1) and is_signed_word(w2)):
        return None
    return step_kind(w1, w2)


def parse_signed_word(text: str) -> SignedWord:
    w = tuple(int(p) for p in text.strip().split(","))
    if not is_signed_word(w):
        raise ValueError(f"{text!r} is not a signed word (nonzero, distinct absolute values)")
    return w


def format_signed_word(w: SignedWord) -> str:
    return ",".join(str(a) for a in w)


def phi_morphism_check(n: int) -> dict:
    """Audit the permutation-to-triangulation map edge by edge.

    Every adjacent-transposition move either keeps the image (exactly when a
    later letter lies strictly between the exchanged pair) or moves it by a
    single flip, and the map reaches every triangulation.
    """
    contracted = flipped = 0
    violations: list[str] = []
    image = set()
    for p in permutations(range(1, n + 1)):
        tp = triangulation_from_permutation(p)
        image.add(tp)
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                continue  # each Cayley edge once, from its ascending side
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
            tq = triangulation_from_permutation(q)
            x, z = p[i], p[i + 1]
            has_between = any(x < y < z for y in p[i + 2 :])
            if tp == tq:
                contracted += 1
                if not has_between:
                    violations.append(f"{p}~{q}: equal images without a between letter")
            else:
                flipped += 1
                if has_between:
                    violations.append(f"{p}~{q}: between letter but images differ")
                diff = set(tp.diagonals) ^ set(tq.diagonals)
                if len(diff) != 2:
                    violations.append(f"{p}~{q}: images differ by {len(diff) // 2} diagonals")
    onto = len(image) == catalan(n)
    return {
        "n": n,
        "edges": contracted + flipped,
        "contracted": contracted,
        "flipped": flipped,
        "onto": onto,
        "distinct_images": len(image),
        "violations": violations,
    }


def fibers_by_phi(n: int) -> dict[Triangulation, set[Word]]:
    """The permutations of 1..n grouped by mapping each one with phi, the
    images in order of first appearance."""
    fibers: dict[Triangulation, set[Word]] = {}
    for p in permutations(range(1, n + 1)):
        fibers.setdefault(triangulation_from_permutation(p), set()).add(p)
    return fibers


def exchange_witness_by_scan(w: Word, i: int) -> int | None:
    """The least position k > i + 1 whose letter lies in [min, max) of the
    pair at i, i + 1, found by listing every such position."""
    lo, hi = min(w[i], w[i + 1]), max(w[i], w[i + 1])
    found = [k for k, y in enumerate(w) if k > i + 1 and lo <= y < hi]
    return found[0] if found else None


def reading_closure_check(n: int) -> dict:
    """Readings of every triangulation must equal one whole sylvester class."""
    failures = []
    for t in all_triangulations(n):
        words = readings(t)
        rep = next(iter(words))
        if sylvester_class(rep) != words:
            failures.append(canonical_key(t))
        else:
            for w in words:
                if triangulation_from_permutation(w) != t:
                    failures.append(canonical_key(t))
                    break
    return {"n": n, "triangulations": catalan(n), "failures": failures}


def ears(t: Triangulation) -> set[int]:
    """Vertices of degree two, i.e. vertices met by no diagonal."""
    touched = {v for d in t.diagonals for v in d}
    return {v for v in range(t.n + 2) if v not in touched}


def third_vertex(t: Triangulation, i: int) -> int:
    """The third vertex t_i of the unique face containing the edge {i, i+1}:
    face i + 1 = (i, i+1, hi[i+1]) if lo[i+1] == i, else face i =
    (lo[i], i, i+1)."""
    if not 1 <= i <= t.n - 1:
        raise ValueError(f"edge index {i} out of range 1..{t.n - 1}")
    problems = validate(t)
    if problems:
        raise ValueError(f"edge ({i}, {i + 1}) does not bound a unique face: {problems[0]}")
    lo, hi = face_ends(t.n, t.diagonals)
    return hi[i + 1] if lo[i + 1] == i else lo[i]


def evaluation(w: Word) -> tuple[int, ...]:
    """Letter multiplicities (mu_1, ..., mu_p) with p = max letter."""
    if not w:
        return ()
    counts = [0] * max(w)
    for a in w:
        counts[a - 1] += 1
    return tuple(counts)


class DeltaProfile(NamedTuple):
    """Greedy split of 1..n into maximal runs appearing in increasing order."""

    segments: tuple[Word, ...]
    lengths: tuple[int, ...]


def delta_profile(sigma: Word) -> DeltaProfile:
    if not is_permutation(sigma):
        raise ValueError(f"{sigma} is not a permutation")
    pos = {v: i for i, v in enumerate(sigma)}
    segments: list[Word] = []
    v = 1
    n = len(sigma)
    while v <= n:
        end = v
        while end < n and pos[end + 1] > pos[end]:
            end += 1
        segments.append(tuple(range(v, end + 1)))
        v = end + 1
    return DeltaProfile(tuple(segments), tuple(len(s) for s in segments))


class SylvesterWitness(NamedTuple):
    """Decomposition u x z u' y u'' / u z x u' y u'' with x <= y < z."""

    u: Word
    x: int
    z: int
    mid: Word
    y: int
    tail: Word


def sylvester_adjacent(w1: Word, w2: Word) -> SylvesterWitness | None:
    """Witness that w1, w2 differ by one legal exchange of adjacent letters."""
    i = adjacent_difference(w1, w2)
    if i is None or (w1[i], w1[i + 1]) != (w2[i + 1], w2[i]):
        return None
    k = exchange_witness(w1, i)
    if k is None:
        return None
    x, z = sorted((w1[i], w1[i + 1]))
    return SylvesterWitness(w1[:i], x, z, w1[i + 2 : k], w1[k], w1[k + 1 :])


def bar(letter: int) -> int:
    if letter == 0:
        raise ValueError("signed letters are nonzero")
    return -letter


def colored_readings(t: Triangulation, eps: Coloring) -> frozenset[Word]:
    """Color each reading letterwise; requires a simple colored triangulation."""
    if not is_simple(t, eps):
        raise ValueError("colored readings are only defined for simple colored triangulations")
    return frozenset(tuple(eps[v - 1] for v in word) for word in readings(t))


def flip_characterization(t1: Triangulation, t2: Triangulation) -> tuple[Word, Word] | None:
    """Readings u x z v of t1 and u z x v of t2 witnessing a single flip, or
    None unless t1 and t2 differ by one flip; see ``signing.flip_readings``."""
    quad = flip_between(t1, t2)
    return None if quad is None else flip_readings(t1, quad)


def _valid_face_tree(t: Triangulation):
    problems = validate(t)
    if problems:
        raise ValueError(problems[0])
    return face_tree(t.n, t.diagonals)


def diagonal_signing_from_faces(t: Triangulation, face_signs: Coloring) -> DiagonalSigning:
    """Sign the base (lo[y], hi[y]) of each face y but the root by the
    product of the signs of y and of up[y], the face beyond it."""
    lo, hi, up = _valid_face_tree(t)
    below = {(lo[y], hi[y]): y for y in range(1, t.n + 1)}
    return DiagonalSigning(t, {d: face_signs[y - 1] * face_signs[up[y] - 1]
                               for d, y in sorted(below.items()) if up[y]})


def face_signs_from_diagonals(ds: DiagonalSigning, anchor_sign: int) -> Coloring:
    """Recover face signs from a total diagonal signing and the sign of face 1.

    Faces adjacent across a diagonal have sign product equal to the diagonal
    sign, and the faces form a tree: sign each face relative to the root,
    from the root down, and scale so that face 1 has the anchor's sign.
    """
    if set(ds.signs) != set(ds.base.diagonals):
        raise ValueError("face signs need a total diagonal signing")
    t = ds.base
    lo, hi, up = _valid_face_tree(t)
    rel = [1] * (t.n + 2)
    for y in sorted(range(1, t.n + 1), key=lambda y: lo[y] - hi[y]):
        if up[y]:
            rel[y] = rel[up[y]] * ds.signs[lo[y], hi[y]]
    scale = anchor_sign * rel[1]
    return tuple(scale * rel[y] for y in range(1, t.n + 1))


def homogeneous_components(t: Triangulation, eps: Coloring) -> dict:
    """The homogeneous audit's report on one colored shape."""
    if len(eps) != t.n:
        raise ValueError("coloring length mismatch")
    return same_color_orbit(ShapeTable([t]), 0, eps)


def words_of_evaluation(mu: tuple[int, ...]) -> Iterator[Word]:
    """Every word with evaluation mu, each once, in increasing order: the
    next word swaps the last ascent's letter with the least greater letter
    after it, then reverses the tail."""
    w = list(block_coloring(mu))
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = w[:i:-1]


def colored_image_code(w: Word, sigma: Word) -> tuple[int, Coloring]:
    """``colored_triangulation_from_word(w)``, its shape as a ``chord_code``
    set bit by bit off phi's ring walk of sigma = standardize(w): each letter
    but the last sets bit p*(n+2)+s for the chord (p, s) joining its live
    neighbours, and leaves the ring."""
    n, code = len(sigma), 0
    pred, succ = list(range(-1, n + 1)), list(range(1, n + 3))
    for v in sigma[: n - 1]:
        p, s = pred[v], succ[v]
        code |= 1 << p * (n + 2) + s
        succ[p], pred[s] = s, p
    return code, tuple(sorted(w))


def commuting_diagram_check(n: int, mu: tuple[int, ...]) -> dict:
    """The diagram audit's report on one mu, over a fresh flip table."""
    if sum(mu) != n:
        raise ValueError(f"mu {mu} does not sum to {n}")
    return diagram_report(flip_table(n), mu)


def edge_count(g: dict) -> int:
    return len(g["edges"])
