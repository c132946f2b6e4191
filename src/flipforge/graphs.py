"""Whole-family audits: flip graphs, fibers, products, and reachability.

Everything here enumerates a complete family (all triangulations, all
permutations, all words of a fixed evaluation, all signed states) at desk
scale and checks a structural statement, returning a small report dict.
Connectivity questions go through union-find with deterministic insertion
order, so reports are reproducible.
"""

from __future__ import annotations

import math
import os
import random
from itertools import permutations, product
from typing import Iterator, Sequence

from dataclasses import dataclass, field

from .flips import FlipTable, flip_row, homogeneous_neighbors, signed_moves, switched_candidates
from .phi import (
    colored_triangulation_from_word,
    readings,
    triangulation_from_permutation,
)
from .signing import SignedState
from .triangulation import (
    Coloring,
    Triangulation,
    all_triangulations,
    canonical_key,
    is_simple,
)
from .words import Word, block_coloring, standardize, sylvester_class

DEFAULT_MAX_N = 8


def size_limit() -> int:
    """Upper bound on n for whole-family enumerations (env FLIPFORGE_MAX_N)."""
    raw = os.environ.get("FLIPFORGE_MAX_N")
    return int(raw) if raw else DEFAULT_MAX_N


def _check_n(n: int, max_n: int | None = None) -> None:
    cap = size_limit() if max_n is None else max_n
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}; set FLIPFORGE_MAX_N to raise it")
    if n < 0:
        raise ValueError("n must be nonnegative")


def check_battery_size(n: int) -> None:
    """Refuse a verification battery over sizes 1..n before any suite runs."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_n(n)


def catalan(n: int) -> int:
    """Number of triangulations of the (n+2)-gon, in closed form."""
    return math.comb(2 * n, n) // (n + 1)


def catalan_by_recurrence(n: int) -> int:
    """The same count by the first-triangle split, as an independent route."""
    table = [1] * (n + 1)
    for m in range(1, n + 1):
        table[m] = sum(table[k] * table[m - 1 - k] for k in range(m))
    return table[n]


@dataclass
class CombGraph:
    kind: str
    vertices: list[str]
    adjacency: dict[str, list[str]] = field(default_factory=dict)

    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2


class UnionFind:
    def __init__(self, items: Iterator | Sequence):
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


def build_flip_graph(n: int, max_n: int | None = None) -> CombGraph:
    """The flip graph on all triangulations, keyed by canonical key."""
    _check_n(n, max_n)
    tris = sorted(all_triangulations(n), key=canonical_key)
    adjacency: dict[str, list[str]] = {}
    for t in tris:
        adjacency[canonical_key(t)] = sorted(canonical_key(t2) for _, t2, _, _ in flip_row(t))
    return CombGraph("flip", [canonical_key(t) for t in tris], adjacency)


def build_cayley_graph(n: int, max_n: int | None = None) -> CombGraph:
    """Adjacent-transposition moves on all permutations of 1..n."""
    _check_n(n, max_n)
    verts = sorted(permutations(range(1, n + 1)))
    adjacency: dict[str, list[str]] = {}
    for p in verts:
        nbrs = []
        for i in range(n - 1):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
            nbrs.append(",".join(map(str, q)))
        adjacency[",".join(map(str, p))] = sorted(nbrs)
    return CombGraph("cayley", [",".join(map(str, p)) for p in verts], adjacency)


def signed_states(n: int) -> list[SignedState]:
    out = []
    for t in sorted(all_triangulations(n), key=canonical_key):
        for signs in product((-1, 1), repeat=n):
            out.append(SignedState(t, signs))
    return out


def _signed_key(state: SignedState) -> str:
    tag = "".join("+" if s > 0 else "-" for s in state.signs)
    return f"{canonical_key(state.tri)}|{tag}"


def build_signed_state_graph(n: int, max_n: int | None = None) -> CombGraph:
    """All (triangulation, face signs) states joined by signed flips."""
    _check_n(n, max_n)
    states = signed_states(n)
    table = FlipTable()
    adjacency: dict[str, list[str]] = {}
    for state in states:
        moves = signed_moves(table[state.tri], state.signs)
        adjacency[_signed_key(state)] = sorted(_signed_key(SignedState(t2, s2)) for _, t2, s2 in moves)
    return CombGraph("signed", [_signed_key(s) for s in states], adjacency)


def graph_components(g: CombGraph) -> dict[str, list[str]]:
    uf = UnionFind(g.vertices)
    for v in g.vertices:
        for w in g.adjacency.get(v, ()):
            uf.union(v, w)
    return uf.groups()


def is_connected(g: CombGraph) -> bool:
    return len(g.vertices) <= 1 or len(graph_components(g)) == 1


def phi_morphism_check(n: int, max_n: int | None = None) -> dict:
    """Audit the permutation-to-triangulation map edge by edge.

    Every adjacent-transposition move either keeps the image (exactly when a
    later letter lies strictly between the exchanged pair) or moves it by a
    single flip, and the map reaches every triangulation.
    """
    _check_n(n, max_n)
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


def fiber_report(n: int, max_n: int | None = None) -> dict:
    """Group permutations by image and compare fibers with sylvester classes."""
    _check_n(n, max_n)
    fibers: dict[Triangulation, set[Word]] = {}
    for p in permutations(range(1, n + 1)):
        fibers.setdefault(triangulation_from_permutation(p), set()).add(p)
    mismatches = []
    last_letter_ok = True
    for t, fiber in fibers.items():
        rep = next(iter(fiber))
        if sylvester_class(rep) != fiber:
            mismatches.append(canonical_key(t))
        if len({w[-1] for w in fiber}) != 1:
            last_letter_ok = False
    return {
        "n": n,
        "images": len(fibers),
        "catalan": catalan(n),
        "count_matches": len(fibers) == catalan(n),
        "class_mismatches": mismatches,
        "last_letter_constant": last_letter_ok,
        "pass": len(fibers) == catalan(n) and not mismatches,
    }


def homogeneous_components(t: Triangulation, eps: Coloring) -> dict:
    """Monochrome face components and the size of the same-color flip orbit."""
    if len(eps) != t.n:
        raise ValueError("coloring length mismatch")
    uf = UnionFind(range(1, t.n + 1))
    for _, _, b, c in flip_row(t):
        if eps[b - 1] == eps[c - 1]:
            uf.union(b, c)
    sizes = sorted(len(g) for g in uf.groups().values())
    seen = {t}
    stack = [t]
    while stack:
        cur = stack.pop()
        for t2, _ in homogeneous_neighbors(cur, eps):
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    expected = math.prod(catalan(s) for s in sizes)
    return {
        "component_sizes": sizes,
        "reachable": len(seen),
        "expected_product": expected,
        "matches_product": len(seen) == expected,
    }


def simple_triangulations(n: int, mu: tuple[int, ...]) -> list[Triangulation]:
    eps = block_coloring(mu)
    return [t for t in all_triangulations(n) if is_simple(t, eps)]


def switched_graph(n: int, mu: tuple[int, ...], max_n: int | None = None) -> tuple[CombGraph, dict]:
    """The switched-flip graph on simple triangulations colored by mu blocks."""
    _check_n(n, max_n)
    if sum(mu) != n:
        raise ValueError(f"mu {mu} does not sum to {n}")
    eps = block_coloring(mu)
    tris = sorted(simple_triangulations(n, mu), key=canonical_key)
    filtered = 0
    adjacency: dict[str, list[str]] = {}
    for t in tris:
        kept, dropped = switched_candidates(t, eps)
        filtered += len(dropped)
        adjacency[canonical_key(t)] = sorted(canonical_key(t2) for t2, _ in kept)
    g = CombGraph("switched", [canonical_key(t) for t in tris], adjacency)
    report = {
        "n": n,
        "mu": list(mu),
        "vertices": len(tris),
        "edges": g.edge_count(),
        "connected": is_connected(g),
        "filtered_nonsimple": filtered,
    }
    return g, report


def words_of_evaluation(mu: tuple[int, ...]) -> Iterator[Word]:
    letters = block_coloring(mu)
    seen = set()
    for p in permutations(letters):
        if p not in seen:
            seen.add(p)
            yield p


def commuting_diagram_check(n: int, mu: tuple[int, ...], max_n: int | None = None) -> dict:
    """Check that coloring after mapping equals mapping the standardization,
    and that standardization embeds word moves into permutation moves."""
    _check_n(n, max_n)
    if sum(mu) != n:
        raise ValueError(f"mu {mu} does not sum to {n}")
    eps = block_coloring(mu)
    words = sorted(words_of_evaluation(mu))
    square_failures = []
    image = set()
    std_images = set()
    edge_failures = []
    for w in words:
        t, colors = colored_triangulation_from_word(w)
        if colors != eps:
            square_failures.append(f"{w}: coloring {colors} != {eps}")
        if t != triangulation_from_permutation(standardize(w)):
            square_failures.append(f"{w}: image disagrees with standardized image")
        image.add(t)
        std_images.add(standardize(w))
        for i in range(n - 1):
            if w[i] == w[i + 1]:
                continue
            v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            sw, sv = standardize(w), standardize(v)
            diff = [j for j in range(n) if sw[j] != sv[j]]
            if len(diff) != 2 or diff[1] != diff[0] + 1 or sw[diff[0]] != sv[diff[0] + 1]:
                edge_failures.append(f"{w}~{v}: standardizations are not one move apart")
    simple_set = set(simple_triangulations(n, mu))
    return {
        "n": n,
        "mu": list(mu),
        "words": len(words),
        "square_failures": square_failures,
        "std_injective": len(std_images) == len(words),
        "edge_failures": edge_failures,
        "image_is_all_simple": image == simple_set,
        "image_size": len(image),
        "simple_count": len(simple_set),
    }


def signed_reachability_check(n: int, max_n: int | None = None) -> dict:
    """For each triangulation, the signed orbits of its signings must cover
    the whole flip graph; also audits one-signing-per-triangulation within
    each orbit."""
    _check_n(n, max_n)
    states = signed_states(n)
    index = {s: i for i, s in enumerate(states)}
    uf = UnionFind(range(len(states)))
    table = FlipTable()
    for s in states:
        for _, t2, signs2 in signed_moves(table[s.tri], s.signs):
            uf.union(index[s], index[SignedState(t2, signs2)])
    components = uf.groups()
    audit_violations = []
    underlying: dict[int, frozenset] = {}
    for root, members in components.items():
        by_tri: dict[Triangulation, Coloring] = {}
        for i in members:
            s = states[i]
            known = by_tri.get(s.tri)
            if known is not None and known != s.signs:
                audit_violations.append(f"{canonical_key(s.tri)}: {known} vs {s.signs}")
            by_tri[s.tri] = s.signs
        underlying[root] = frozenset(by_tri)
    all_tris = frozenset(all_triangulations(n))
    missing_pairs = []
    for t in sorted(all_tris, key=canonical_key):
        covered: set[Triangulation] = set()
        for signs in product((-1, 1), repeat=n):
            covered |= underlying[uf.find(index[SignedState(t, signs)])]
        for u in sorted(all_tris - covered, key=canonical_key):
            missing_pairs.append((canonical_key(t), canonical_key(u)))
    return {
        "n": n,
        "states": len(states),
        "components": len(components),
        "missing_pairs": missing_pairs,
        "audit_violations": audit_violations,
        "pass": not missing_pairs and not audit_violations,
    }


def compositions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write n as an ordered sum of at most max_parts positive parts."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for head in range(1, n + 1):
        for rest in compositions(n - head, max_parts - 1):
            yield (head,) + rest


def homogeneous_product_audit(n: int, samples: int = 50, seed: int = 0,
                              max_n: int | None = None) -> dict:
    """Sample random colorings and check the same-color orbit product law."""
    _check_n(n, max_n)
    rng = random.Random(seed)
    tris = sorted(all_triangulations(n), key=canonical_key)
    failures = []
    for _ in range(samples):
        t = rng.choice(tris)
        palette = rng.randint(1, max(1, n))
        eps = tuple(rng.randint(1, palette) for _ in range(n))
        report = homogeneous_components(t, eps)
        if not report["matches_product"]:
            failures.append({"key": canonical_key(t), "eps": list(eps), **report})
    return {"n": n, "samples": samples, "seed": seed, "failures": failures, "pass": not failures}


def switched_audit(n: int, max_parts: int = 3, max_n: int | None = None) -> dict:
    """Connectivity of every switched-flip graph with at most max_parts colors."""
    _check_n(n, max_n)
    rows = []
    for mu in sorted(compositions(n, max_parts)):
        _, report = switched_graph(n, mu)
        rows.append(report)
    return {"n": n, "graphs": rows, "pass": all(r["connected"] for r in rows)}


def diagram_audit(n: int, max_parts: int = 3, max_n: int | None = None) -> dict:
    """Commuting-square and morphism checks for every mu with few parts."""
    _check_n(n, max_n)
    rows = []
    ok = True
    for mu in sorted(compositions(n, max_parts)):
        report = commuting_diagram_check(n, mu)
        rows.append(report)
        ok = ok and not report["square_failures"] and not report["edge_failures"] \
            and report["std_injective"] and report["image_is_all_simple"]
    return {"n": n, "reports": rows, "pass": ok}


# Each audit is looked up as a module global when its suite runs, so a caller
# that wraps the audits on this module (to time or trace them) sees every call.
_SUITE_AUDITS = {
    "ref1": lambda n, seed: signed_reachability_check(n),
    "fibers": lambda n, seed: fiber_report(n),
    "homogeneous": lambda n, seed: homogeneous_product_audit(n, seed=seed),
    "switched": lambda n, seed: switched_audit(n),
    "diagram": lambda n, seed: diagram_audit(n),
}
SUITES = tuple(_SUITE_AUDITS)


def run_suite(suite: str, n: int, seed: int = 0) -> dict:
    """Run one verification suite at size n; the report names its suite and
    carries ``pass``.  ``seed`` drives the randomized homogeneous audit."""
    if suite not in _SUITE_AUDITS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    report = _SUITE_AUDITS[suite](n, seed)
    report["suite"] = suite
    return report


def reading_closure_check(n: int, max_n: int | None = None) -> dict:
    """Readings of every triangulation must equal one whole sylvester class."""
    _check_n(n, max_n)
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
