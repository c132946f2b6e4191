"""Whole-family audits: flip graphs, fibers, products, and reachability.

Everything here enumerates a complete family (all triangulations, all
permutations, all words of a fixed evaluation, all signed states) at desk
scale and checks a structural statement, returning a small report dict.
Component counts go through one integer union-find, which links a batch of
offset pairs per call and numbers its sets in order of least element, so
reports are reproducible; the audits work on shape indices, and canonical
keys are made only where a graph or report is printed.  The fibers suite
numbers the lexicographic ranks of permutations by image and by sylvester
class, the latter by the Lehmer rule: if L[k] counts the later letters below
p[k], an ascent at i is an exchange iff L[i] < L[i+1], making them L[i+1]+1, L[i].
The fibers suite and the diagram audit read one depth-first walk of phi's
live ring (``_ring_walk``) over every word of a block coloring: a live rank
is its color's next unused letter iff its live predecessor has another
color, so the walk standardizes as it goes, and no permutation or word is
standardized or mapped by itself.  The fibers suite walks the permutations
(every rank its own color), the diagram audit the words of one evaluation.

The size cap is checked where a family is enumerated: ``flip_table(n)``,
every shape of size n, checks it first, as ``build_cayley_graph`` and
``fiber_report`` do for permutations, and an audit trusts the table it takes.
A verification battery (``run_battery``) checks the cap before any suite,
builds each size's flip table once and every suite at that size reads it:
its rows, and the up masks that test simplicity against a coloring with one
AND.  The table is dropped before the next size, and no table outlives the
call that built it.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Callable, Iterable, Iterator

from .flips import ShapeTable, mask_signs
from .phi import triangulation_from_permutation
from .triangulation import Coloring, all_triangulations, canonical_key, face_tree
from .words import Word, block_coloring

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


def flip_table(n: int) -> ShapeTable:
    """Every shape of size n sorted by canonical key, so the states
    ``i << n | s`` count the shapes by canonical key and, within a shape, the
    signings in the order of ``product((-1, 1), repeat=n)``.  The size cap is
    checked before any shape is built."""
    _check_n(n)
    return ShapeTable(sorted(all_triangulations(n), key=canonical_key))


def catalan(n: int) -> int:
    """Number of triangulations of the (n+2)-gon, in closed form."""
    return math.comb(2 * n, n) // (n + 1)


class UnionFind:
    """Disjoint sets over 0..size-1 whose pointers point down: a root is its set's least element."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def union(self, a: int, b: int, pairs: Iterable[tuple[int, int]]) -> None:
        """Link a + s and b + t for each (s, t) of pairs, in order, halving paths as they are walked."""
        parent = self.parent
        for s, t in pairs:
            x, y = a + s, b + t
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y

    def components(self) -> tuple[list[int], int]:
        """Overwrite each pointer with its set's number, 0..K-1 in order of
        least element, in one increasing pass (a pointer points down, so its
        target is numbered already); returns the list and K.  No union may
        follow."""
        parent, k = self.parent, 0
        for x, p in enumerate(parent):
            if p == x:
                parent[x] = k
                k += 1
            else:
                parent[x] = parent[p]
        return parent, k


def _graph(kind: str, vertices: list[str], pairs: Iterable[tuple[str, str]]) -> dict:
    """The printed graph: its vertex keys in order, and each edge once as
    its (smaller, larger) key pair, the pairs sorted; JSON writes each
    pair as a list."""
    edges = sorted({(v, w) if v < w else (w, v) for v, w in pairs})
    return {"kind": kind, "vertices": vertices, "edges": edges}


def build_flip_graph(n: int) -> dict:
    """The flip graph on all triangulations, keyed by canonical key."""
    table = flip_table(n)
    keys = [canonical_key(table.shape(i)) for i in range(len(table.codes))]
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
    table = flip_table(n)
    tags = ["".join("+" if x > 0 else "-" for x in signs) for signs in product((-1, 1), repeat=n)]
    keys = [f"{canonical_key(table.shape(i))}|{tag}"  # keys[i << n | s]
            for i in range(len(table.codes)) for tag in tags]
    return _graph("signed", keys, ((keys[i << n | s], keys[j << n | s ^ m])
                                   for i in range(len(table.codes)) for j, m, *_ in table.row(i)
                                   for s in range(1 << n) if s & m in (0, m)))


def _ring_walk(eps: Word, leaf: Callable[[list[int], int, int], None]) -> None:
    """Walk phi's live ring depth-first over every word whose ranks the weakly
    increasing eps colors, in increasing order: a prefix is extended by each
    live rank v whose live predecessor has another color (v is its color's
    next unused rank), v leaving the ring and its chord (p, s) to its live
    neighbours setting bit p*(n+2)+s of the image's chord code.  At each
    word, leaf(std prefix, last live rank, chord code)."""
    n = len(eps)
    color = (0, *eps)  # by rank, with the ring's left end 0, no letter's color
    prefix, pred, succ = [], list(range(-1, n + 1)), list(range(1, n + 3))

    def walk(key: int) -> None:
        if len(prefix) >= n - 1:
            leaf(prefix, succ[0], key)  # for n = 0 the last rank is the roof, n + 1
            return
        v = succ[0]
        while v <= n:
            p, s = pred[v], succ[v]
            if color[p] != color[v]:
                succ[p], pred[s] = s, p
                prefix.append(v)
                walk(key | 1 << (p * (n + 2) + s))
                prefix.pop()
                succ[p] = pred[s] = v
            v = s

    walk(0)
    del walk  # a cycle through its own closure would keep the lists until a collection


def _image_numbers(n: int) -> tuple[list[int], list[int], dict[int, Word]]:
    """Each rank's fiber number and last letter, and each fiber's image key
    and least permutation, by number, from the ring walk over the
    permutations (every rank its own color)."""
    numbers, lasts, number, least = [], [], {}, {}  # by key: fiber number, least permutation

    def leaf(prefix: list[int], last: int, key: int) -> None:
        f = number.setdefault(key, len(number))
        if f == len(least):
            least[key] = (*prefix, last)[:n]
        numbers.append(f)
        lasts.append(last)

    _ring_walk(tuple(range(1, n + 1)), leaf)
    return numbers, lasts, least


def _sylvester_numbers(n: int) -> tuple[list[int], int]:
    """Each rank's sylvester class, and the class count: by the Lehmer rule,
    for each i, each prefix block and x < y, one union links the (n-2-i)!
    ranks with digits x, y at i, i+1 to those with y+1, x."""
    uf = UnionFind(math.factorial(n))
    for i in range(n - 2):
        f1, f2 = math.factorial(n - 1 - i), math.factorial(n - 2 - i)
        pairs = [(s, s) for s in range(f2)]
        for base in range(0, len(uf.parent), (n - i) * f1):
            for x, y in combinations(range(n - 1 - i), 2):
                uf.union(base + x * f1 + y * f2, base + (y + 1) * f1 + x * f2, pairs)
    return uf.components()


def fiber_report(n: int) -> dict:
    """Number the permutations by image and by sylvester class and compare
    the two partitions; each fiber is mapped once, from its least permutation."""
    _check_n(n)
    numbers, lasts, least = _image_numbers(n)
    classes = _sylvester_numbers(n)[0]
    pairs = set(zip(numbers, classes)) if numbers != classes else set()
    per_fiber, per_class = Counter(f for f, _ in pairs), Counter(c for _, c in pairs)
    split = {f for f, c in pairs if per_fiber[f] > 1 or per_class[c] > 1}  # not exactly one class
    images, mismatches = set(), []
    for f, w in enumerate(least.values()):
        t = triangulation_from_permutation(w)
        if f in split or t in images:
            mismatches.append(canonical_key(t))  # two fibers with one image are a mismatch too
        images.add(t)
    last_letter_ok = len(set(zip(numbers, lasts))) == len(least)
    return {
        "n": n,
        "images": len(images),
        "catalan": catalan(n),
        "count_matches": len(images) == catalan(n),
        "class_mismatches": mismatches,
        "last_letter_constant": last_letter_ok,
        "pass": len(images) == catalan(n) and not mismatches and last_letter_ok,
    }


def same_color_orbit(table: ShapeTable, i: int, eps: Coloring) -> dict:
    """The same-color flips of the shape table.shape(i) under eps (those
    whose faces b, c have equal colors): the sizes of the classes they join
    the n faces into, and the number of shapes they reach, which must be the
    product of the Catalan numbers of those sizes."""
    uf = UnionFind(len(eps))  # on the face labels less one
    uf.union(-1, -1, ((b, c) for _, _, b, c, _ in table.row(i) if eps[b - 1] == eps[c - 1]))
    sizes = sorted(Counter(uf.components()[0]).values())
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
    if sum(mu) != n:
        raise ValueError(f"mu {mu} does not sum to {n}")
    table = flip_table(n)
    adjacency, report = _switched_graph(table, mu)
    keys = {i: canonical_key(table.shape(i)) for i in adjacency}
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
    uf, filtered = UnionFind(len(table.codes)), 0
    for i, kept in adjacency.items():
        moves = [j for j, _, b, c, _ in table.row(i) if eps[b - 1] != eps[c - 1]]
        kept.extend(j for j in moves if j in adjacency)
        filtered += len(moves) - len(kept)
        uf.union(i, 0, ((0, j) for j in kept))
    numbers = uf.components()[0]
    report = {
        "n": sum(mu),
        "mu": list(mu),
        "vertices": len(adjacency),
        "edges": sum(map(len, adjacency.values())) // 2,
        "connected": len({numbers[i] for i in adjacency}) <= 1,
        "filtered_nonsimple": filtered,
    }
    return adjacency, report


def _std_words(mu: tuple[int, ...]) -> list[tuple[Word, Word, int]]:
    """Each word w of evaluation mu, in increasing order, as (w, std(w), the
    chord code of phi(std(w))), from the ring walk over the block coloring
    of mu: std(w) is the walk's word, and w its letters' colors."""
    color = (0, *block_coloring(mu))
    n, out = len(color) - 1, []

    def leaf(prefix: list[int], last: int, key: int) -> None:
        sw = (*prefix, last)[:n]
        out.append((tuple([color[v] for v in sw]), sw, key))

    _ring_walk(color[1:], leaf)
    return out


def diagram_report(table: ShapeTable, mu: tuple[int, ...]) -> dict:
    """The commuting square of the words of evaluation mu, over the flip
    table of size sum(mu).  Each word w comes from one walk with std(w) and
    the table index of its image's chord code: std(w) must be a reading of
    that shape, each face read before its parent, and letter w[k] must color
    face std(w)[k] under the block coloring of mu; standardization must be
    injective and take each word move to a permutation move.  A move and its
    inverse are one exchange, so each is checked once, from the word with
    the ascent.  The image is compared with the shapes that coloring makes
    simple."""
    n, eps = sum(mu), block_coloring(mu)
    walked = _std_words(mu)
    std = {w: sw for w, sw, _ in walked}  # a word move stays within the words of mu
    square_failures = []
    ups: dict[int, list[int]] = {}  # the image: each shape index's face_tree parents
    edge_failures = []
    for w, sw, code in walked:
        j = table.index.get(code)
        if j is None:
            square_failures.append(f"{w}: its image is not a triangulation of size {n}")
        else:
            up = ups.get(j)
            if up is None:
                up = ups[j] = face_tree(n, table.shape(j).diagonals)[2]
            pos = [n] + [0] * n  # the root's parent, 0, comes after every letter
            for k, y in enumerate(sw):
                pos[y] = k
            for y in sw:
                if pos[up[y]] < pos[y]:
                    square_failures.append(f"{w}: {sw} is not a reading of its image")
                    break
        for c, y in zip(w, sw):
            if eps[y - 1] != c:
                square_failures.append(f"{w}: coloring {eps} does not give each letter its face")
                break
        for i in range(n - 1):
            if w[i] >= w[i + 1]:
                continue  # the move from v back to w is this one, checked from v's ascent
            v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            if std[v] != sw[:i] + (sw[i + 1], sw[i]) + sw[i + 2 :]:
                edge_failures.append(f"{w}~{v}: standardizations are not one move apart")
    simple = table.simple(eps)
    return {
        "n": n,
        "mu": list(mu),
        "words": len(walked),
        "square_failures": square_failures,
        "std_injective": len(set(std.values())) == len(walked),
        "edge_failures": edge_failures,
        "image_is_all_simple": ups.keys() == set(simple),
        "image_size": len(ups),
        "simple_count": len(simple),
    }


def signed_reachability_check(n: int, table: ShapeTable) -> dict:
    """For each triangulation, the signed orbits of its signings must cover
    the whole flip graph; also audits one-signing-per-triangulation within
    each orbit.  ``table`` is ``flip_table(n)``."""
    count, size = len(table.codes), 1 << n
    uf = UnionFind(count << n)  # over the states i << n | s
    legal: dict[int, list[tuple[int, int]]] = {}  # m -> (s, s ^ m) for each signing s that m may flip
    for i in range(count):
        for j, m, _, _, _ in table.row(i):
            if j < i:
                continue  # the flip back from j undoes this one
            pairs = legal.get(m)
            if pairs is None:
                pairs = legal[m] = [(s, s ^ m) for s in range(size) if s & m in (0, m)]
            uf.union(i << n, j << n, pairs)
    numbers, components = uf.components()
    found = []  # (component, state, text): a second signing of one shape in one component
    cover = [0] * components  # component -> bitset of the shape indices in it
    for i in range(count):
        block = numbers[i << n:(i + 1) << n]
        if len(set(block)) < size:  # some component holds two signings of this shape
            key = canonical_key(table.shape(i))
            last: dict[int, int] = {}
            for s, c in enumerate(block):
                if c in last:
                    found.append((c, i << n | s, f"{key}: {mask_signs(last[c], n)} vs {mask_signs(s, n)}"))
                last[c] = s
        bit = 1 << i
        for c in block:
            cover[c] |= bit
    # by component, numbered in order of its least state, then by state within it
    audit_violations = [text for _, _, text in sorted(found)]
    everything = (1 << count) - 1
    missing_pairs = []
    for i in range(count):
        gap = everything & ~reduce(or_, map(cover.__getitem__, numbers[i << n:(i + 1) << n]))
        if gap:
            key = canonical_key(table.shape(i))
            while gap:
                missing_pairs.append((key, canonical_key(table.shape((gap & -gap).bit_length() - 1))))
                gap &= gap - 1
    return {
        "n": n,
        "states": len(numbers),
        "components": components,
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
    rng = random.Random(seed)
    failures = []
    for _ in range(HOMOGENEOUS_SAMPLES):
        i = rng.choice(range(len(table.codes)))  # draws as rng.choice over the sorted shapes
        palette = rng.randint(1, max(1, n))
        eps = tuple(rng.randint(1, palette) for _ in range(n))
        report = same_color_orbit(table, i, eps)
        if not report["matches_product"]:
            failures.append({"key": canonical_key(table.shape(i)), "eps": list(eps), **report})
    return {"n": n, "samples": HOMOGENEOUS_SAMPLES, "seed": seed, "failures": failures, "pass": not failures}


def switched_audit(n: int, table: ShapeTable) -> dict:
    """Connectivity of every switched-flip graph with at most MAX_PARTS colors."""
    rows = [_switched_graph(table, mu)[1] for mu in compositions(n, MAX_PARTS)]
    return {"n": n, "graphs": rows, "pass": all(r["connected"] for r in rows)}


def diagram_audit(n: int, table: ShapeTable) -> dict:
    """Commuting-square and morphism checks for every mu with at most
    MAX_PARTS parts, over one flip table of the shapes."""
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
