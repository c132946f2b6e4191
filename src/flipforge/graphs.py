"""Whole-family audits: flip graphs, fibers, products, and reachability.

Everything here enumerates a complete family (all triangulations, all
permutations, all words of a fixed evaluation, all signed states) at desk
scale and checks a structural statement, returning a small report dict.
Component counts go through one integer union-find whose roots are least
elements, so reports are reproducible; the audits work on shape indices,
and canonical keys are made only where a graph or report is printed.

A verification battery (``run_battery``) builds each size's flip table once
and every suite at that size reads it: its rows, and the up masks that test
simplicity against a coloring with one AND.  The table is dropped before
the next size, and no table outlives the call that built it.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from itertools import permutations, product
from typing import Iterable, Iterator

from .flips import ShapeTable, flip_table, mask_signs
from .phi import colored_triangulation_from_word, triangulation_from_permutation
from .triangulation import Coloring, Triangulation, canonical_key, face_tree
from .words import Word, block_coloring, standardize, sylvester_class

DEFAULT_MAX_N = 8
MAX_PARTS = 3  # the switched and diagram audits cover every mu with at most this many parts
HOMOGENEOUS_SAMPLES = 50  # random colorings per homogeneous audit


def size_limit() -> int:
    """Upper bound on n for whole-family enumerations (env FLIPFORGE_MAX_N)."""
    raw = os.environ.get("FLIPFORGE_MAX_N")
    if not raw:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FLIPFORGE_MAX_N must be an integer, got {raw!r}") from None


def _check_n(n: int) -> None:
    cap = size_limit()
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}; set FLIPFORGE_MAX_N to raise it")
    if n < 0:
        raise ValueError("n must be nonnegative")


def catalan(n: int) -> int:
    """Number of triangulations of the (n+2)-gon, in closed form."""
    return math.comb(2 * n, n) // (n + 1)


class UnionFind:
    """Disjoint sets over 0..size-1; a root is its set's least element, so pointers point down."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def union(self, a: int, b: int) -> None:
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    def roots(self) -> list[int]:
        """Point every element at its root, in increasing order; returns the parent list."""
        parent = self.parent
        for x in range(len(parent)):
            parent[x] = parent[parent[x]]
        return parent


def _graph(kind: str, vertices: list[str], pairs: Iterable[tuple[str, str]]) -> dict:
    """The printed graph: its vertex keys in order, and each edge once as
    its (smaller, larger) key pair, the pairs sorted; JSON writes each
    pair as a list."""
    edges = sorted({(v, w) if v < w else (w, v) for v, w in pairs})
    return {"kind": kind, "vertices": vertices, "edges": edges}


def build_flip_graph(n: int) -> dict:
    """The flip graph on all triangulations, keyed by canonical key."""
    _check_n(n)
    table = flip_table(n)
    keys = [canonical_key(t) for t in table.shapes]
    return _graph("flip", keys, ((key, keys[j]) for i, key in enumerate(keys) for j, *_ in table.row(i)))


def build_cayley_graph(n: int) -> dict:
    """Adjacent-transposition moves on all permutations of 1..n, in increasing order."""
    _check_n(n)
    keys = {p: ",".join(map(str, p)) for p in permutations(range(1, n + 1))}
    return _graph("cayley", list(keys.values()),
                  ((keys[p], keys[p[:i] + (p[i + 1], p[i]) + p[i + 2:]]) for p in keys for i in range(n - 1)))


def build_signed_state_graph(n: int) -> dict:
    """All (triangulation, face signs) states joined by signed flips, keyed
    "<canonical key>|<one + or - per face>"."""
    _check_n(n)
    table = flip_table(n)
    tags = ["".join("+" if x > 0 else "-" for x in signs) for signs in product((-1, 1), repeat=n)]
    keys = [f"{canonical_key(t)}|{tag}" for t in table.shapes for tag in tags]  # keys[i << n | s]
    return _graph("signed", keys, ((keys[i << n | s], keys[j << n | s ^ m])
                                   for i in range(len(table.shapes)) for j, m, *_ in table.row(i)
                                   for s in range(1 << n) if s & m in (0, m)))


def _group_by_image(prefix: list[int], pred: list[int], succ: list[int], key: int,
                    n: int, groups: dict[int, list[Word]]) -> None:
    """Extend prefix by each live letter in increasing order, as phi reads
    it: the letter's chord (p, s) to its live neighbours sets bit p*(n+2)+s
    of key and the letter leaves the ring.  The last letter adds no chord,
    so a full word is filed under key in groups: the key is the
    ``chord_code`` of the word's image, so phi has one image per key."""
    if len(prefix) >= n - 1:
        groups.setdefault(key, []).append((*prefix, succ[0])[:n])  # the last live letter, if any
        return
    v = succ[0]
    while v <= n:
        p, s = pred[v], succ[v]
        succ[p], pred[s] = s, p
        prefix.append(v)
        _group_by_image(prefix, pred, succ, key | 1 << (p * (n + 2) + s), n, groups)
        prefix.pop()
        succ[p] = pred[s] = v
        v = s


def _image_groups(n: int) -> list[list[Word]]:
    """The permutations of 1..n grouped by their image under phi, without
    mapping each one: groups in order of their least permutation, and each
    group in increasing order, as ``itertools.permutations`` gives them."""
    groups: dict[int, list[Word]] = {}
    _group_by_image([], list(range(-1, n + 1)), list(range(1, n + 3)), 0, n, groups)
    return list(groups.values())


def fiber_report(n: int) -> dict:
    """Group permutations by image and compare fibers with sylvester classes;
    each fiber is mapped once, from its least permutation."""
    _check_n(n)
    images: set[Triangulation] = set()
    mismatches = []
    last_letter_ok = True
    for fiber in _image_groups(n):
        t = triangulation_from_permutation(fiber[0])
        if sylvester_class(fiber[0]) != set(fiber) or t in images:
            mismatches.append(canonical_key(t))  # two groups with one image are a mismatch too
        images.add(t)
        if len({w[-1] for w in fiber if w}) > 1:
            last_letter_ok = False
    return {
        "n": n,
        "images": len(images),
        "catalan": catalan(n),
        "count_matches": len(images) == catalan(n),
        "class_mismatches": mismatches,
        "last_letter_constant": last_letter_ok,
        "pass": len(images) == catalan(n) and not mismatches,
    }


def same_color_orbit(table: ShapeTable, i: int, eps: Coloring) -> dict:
    """The same-color flips of the shape table.shapes[i] under eps (those
    whose faces b, c have equal colors): the sizes of the classes they join
    the n faces into, and the number of shapes they reach, which must be the
    product of the Catalan numbers of those sizes."""
    uf = UnionFind(len(eps))  # on the face labels less one
    for _, _, b, c, _ in table.row(i):
        if eps[b - 1] == eps[c - 1]:
            uf.union(b - 1, c - 1)
    sizes = sorted(Counter(uf.roots()).values())
    seen = {i}
    stack = [i]
    while stack:
        for j, _, b, c, _ in table.row(stack.pop()):
            if eps[b - 1] == eps[c - 1] and j not in seen:
                seen.add(j)
                stack.append(j)
    expected = math.prod(catalan(s) for s in sizes)
    return {
        "component_sizes": sizes,
        "reachable": len(seen),
        "expected_product": expected,
        "matches_product": len(seen) == expected,
    }


def switched_graph(n: int, mu: tuple[int, ...]) -> tuple[dict, dict]:
    """The switched-flip graph on simple triangulations colored by mu blocks."""
    _check_n(n)
    if sum(mu) != n:
        raise ValueError(f"mu {mu} does not sum to {n}")
    table = flip_table(n)
    adjacency, report = _switched_graph(table, mu)
    keys = {i: canonical_key(table.shapes[i]) for i in adjacency}
    pairs = ((keys[i], keys[j]) for i, kept in adjacency.items() for j in kept)
    return _graph("switched", list(keys.values()), pairs), report


def _switched_graph(table: ShapeTable, mu: tuple[int, ...]) -> tuple[dict[int, list[int]], dict]:
    """switched_graph over the flip table of size sum(mu), on shape indices:
    a different-color flip between simple shapes is an edge, one into a
    non-simple shape is filtered.  No flip has been filtered for any mu with
    at most MAX_PARTS parts and n <= 7 (the tests pin ``filtered_nonsimple``
    at 0 there), so the filter is kept as a checked invariant of the audit."""
    eps = block_coloring(mu)
    adjacency: dict[int, list[int]] = {i: [] for i in table.simple(eps)}
    uf, filtered = UnionFind(len(table.shapes)), 0
    for i, kept in adjacency.items():
        moves = [j for j, _, b, c, _ in table.row(i) if eps[b - 1] != eps[c - 1]]
        kept.extend(j for j in moves if j in adjacency)
        filtered += len(moves) - len(kept)
        for j in kept:
            uf.union(i, j)
    roots = uf.roots()
    report = {
        "n": sum(mu),
        "mu": list(mu),
        "vertices": len(adjacency),
        "edges": sum(map(len, adjacency.values())) // 2,
        "connected": len({roots[i] for i in adjacency}) <= 1,
        "filtered_nonsimple": filtered,
    }
    return adjacency, report


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


def diagram_report(table: ShapeTable, mu: tuple[int, ...]) -> dict:
    """The commuting square of the words of evaluation mu, over the flip
    table of size sum(mu).  Each word w is mapped once: std(w) must be a
    reading of the image, each face read before its parent, and letter w[k]
    must color face std(w)[k]; standardization must be injective and take
    each word move to a permutation move.  The image is compared with the
    shapes the block coloring of mu makes simple."""
    n = sum(mu)
    words = list(words_of_evaluation(mu))
    std = {w: standardize(w) for w in words}  # a word move stays within the words of mu
    square_failures = []
    ups: dict[Triangulation, list[int]] = {}  # the image: each shape's face_tree parents
    edge_failures = []
    for w in words:
        sw = std[w]
        t, colors = colored_triangulation_from_word(w)
        up = ups.get(t)
        if up is None:
            up = ups[t] = face_tree(t)[3]
        pos = [n] + [0] * n  # the root's parent, 0, comes after every letter
        for k, y in enumerate(sw):
            pos[y] = k
        if any(pos[up[y]] < pos[y] for y in sw):
            square_failures.append(f"{w}: {sw} is not a reading of its image")
        if any(colors[y - 1] != c for c, y in zip(w, sw)):
            square_failures.append(f"{w}: coloring {colors} does not give each letter its face")
        for i in range(n - 1):
            if w[i] == w[i + 1]:
                continue
            v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            if std[v] != sw[:i] + (sw[i + 1], sw[i]) + sw[i + 2 :]:
                edge_failures.append(f"{w}~{v}: standardizations are not one move apart")
    simple_set = {table.shapes[i] for i in table.simple(block_coloring(mu))}
    return {
        "n": n,
        "mu": list(mu),
        "words": len(words),
        "square_failures": square_failures,
        "std_injective": len(set(std.values())) == len(words),
        "edge_failures": edge_failures,
        "image_is_all_simple": ups.keys() == simple_set,
        "image_size": len(ups),
        "simple_count": len(simple_set),
    }


def signed_reachability_check(n: int, table: ShapeTable) -> dict:
    """For each triangulation, the signed orbits of its signings must cover
    the whole flip graph; also audits one-signing-per-triangulation within
    each orbit.  ``table`` is ``flip_table(n)``."""
    _check_n(n)
    keys, size = [canonical_key(t) for t in table.shapes], 1 << n
    uf = UnionFind(len(keys) << n)  # over the states i << n | s
    union = uf.union
    legal = {}
    for i in range(len(keys)):
        for j, m, _, _, _ in table.row(i):
            if j < i:
                continue  # the flip back from j undoes this one
            if m not in legal:
                legal[m] = [s for s in range(size) if s & m in (0, m)]
            for s in legal[m]:
                union(i << n | s, j << n | s ^ m)
    roots = uf.roots()
    found = []  # (root, state, text): a second signing of one shape in one component
    cover: dict[int, int] = {}  # root -> bitset of the shape indices in its component
    for i, key in enumerate(keys):
        last: dict[int, int] = {}
        for s, root in enumerate(roots[i << n:(i + 1) << n]):
            if root in last:
                found.append((root, i << n | s, f"{key}: {mask_signs(last[root], n)} vs {mask_signs(s, n)}"))
            last[root] = s
        for root in last:
            cover[root] = cover.get(root, 0) | 1 << i
    # by component in order of its least state, then by state within it
    audit_violations = [text for _, _, text in sorted(found)]
    everything = (1 << len(keys)) - 1
    missing_pairs = []
    for i, key in enumerate(keys):
        covered = 0
        for root in set(roots[i << n:(i + 1) << n]):
            covered |= cover[root]
        gap = everything & ~covered
        while gap:
            missing_pairs.append((key, keys[(gap & -gap).bit_length() - 1]))
            gap &= gap - 1
    return {
        "n": n,
        "states": len(roots),
        "components": len(cover),
        "missing_pairs": missing_pairs,
        "audit_violations": audit_violations,
        "pass": not missing_pairs and not audit_violations,
    }


def compositions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write n as an ordered sum of at most max_parts positive parts, in increasing order."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for head in range(1, n + 1):
        for rest in compositions(n - head, max_parts - 1):
            yield (head,) + rest


def homogeneous_product_audit(n: int, table: ShapeTable, seed: int = 0) -> dict:
    """Sample random colorings and check the same-color orbit product law."""
    _check_n(n)
    rng = random.Random(seed)
    failures = []
    for _ in range(HOMOGENEOUS_SAMPLES):
        i = rng.choice(range(len(table.shapes)))  # draws as rng.choice over the sorted shapes
        palette = rng.randint(1, max(1, n))
        eps = tuple(rng.randint(1, palette) for _ in range(n))
        report = same_color_orbit(table, i, eps)
        if not report["matches_product"]:
            failures.append({"key": canonical_key(table.shapes[i]), "eps": list(eps), **report})
    return {"n": n, "samples": HOMOGENEOUS_SAMPLES, "seed": seed, "failures": failures, "pass": not failures}


def switched_audit(n: int, table: ShapeTable) -> dict:
    """Connectivity of every switched-flip graph with at most MAX_PARTS colors."""
    _check_n(n)
    rows = [_switched_graph(table, mu)[1] for mu in compositions(n, MAX_PARTS)]
    return {"n": n, "graphs": rows, "pass": all(r["connected"] for r in rows)}


def diagram_audit(n: int, table: ShapeTable) -> dict:
    """Commuting-square and morphism checks for every mu with at most
    MAX_PARTS parts, over one flip table of the shapes."""
    _check_n(n)
    rows = [diagram_report(table, mu) for mu in compositions(n, MAX_PARTS)]
    ok = all(not r["square_failures"] and not r["edge_failures"] and r["std_injective"]
             and r["image_is_all_simple"] for r in rows)
    return {"n": n, "reports": rows, "pass": ok}


# Each audit is looked up as a module global when its suite runs, so a caller
# that wraps the audits on this module (to time or trace them) sees every call.
# All but fibers read the flip table of size n the battery built.
_SUITE_AUDITS = {
    "ref1": lambda n, seed, table: signed_reachability_check(n, table),
    "fibers": lambda n, seed, table: fiber_report(n),
    "homogeneous": lambda n, seed, table: homogeneous_product_audit(n, table, seed),
    "switched": lambda n, seed, table: switched_audit(n, table),
    "diagram": lambda n, seed, table: diagram_audit(n, table),
}
SUITES = tuple(_SUITE_AUDITS)


def run_battery(suites: tuple[str, ...], n: int, seed: int = 0) -> list[tuple[dict, float]]:
    """Run every suite at every size 1..n, as (report, seconds) pairs by
    suite, then by n; a report names its suite.  Each size's flip table is
    built once and shared by the suites, and dropped before the next size;
    the seconds of a report count the rows and masks its suite was the
    first to read."""
    for suite in suites:
        if suite not in _SUITE_AUDITS:
            raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_n(n)  # before any suite runs
    timed = {}
    for k in range(1, n + 1):
        table = flip_table(k)
        for suite in suites:
            start = time.monotonic()
            report = _SUITE_AUDITS[suite](k, seed, table)
            report["suite"] = suite
            timed[suite, k] = report, time.monotonic() - start
        del table
    return [timed[suite, k] for suite in suites for k in range(1, n + 1)]
