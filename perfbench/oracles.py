"""Reference implementations the benchmark checks the program's outputs against.

They share no code with ``flipforge``: each is the textbook definition,
written for clarity rather than speed, so a defect in the program cannot
hide by also being present in its own checker.

Conventions follow the program's file formats: the polygon has vertices
0..n+1, a triangulation is a set of n-1 diagonals (i, j) with i < j, and
the face of inner vertex v is the triangle whose middle vertex is v.
"""

from __future__ import annotations

import random


def phi(perm: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Diagonals traced by reading perm on the shrinking ring 0..n+1."""
    ring = list(range(len(perm) + 2))
    diagonals = set()
    for v in perm[:-1]:
        i = ring.index(v)
        diagonals.add((ring[i - 1], ring[i + 1]))
        del ring[i]
    return frozenset(diagonals)


def standardize(word: tuple[int, ...]) -> tuple[int, ...]:
    """Equal letters become increasing values from left to right."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    out = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        out[i] = rank
    return tuple(out)


def edges(n: int, diagonals) -> set[tuple[int, int]]:
    """Boundary edges of the (n+2)-gon plus the given diagonals."""
    out = {(i, i + 1) for i in range(n + 1)} | {(0, n + 1)}
    return out | {(min(d), max(d)) for d in diagonals}


def flip(n: int, diagonals, d: tuple[int, int]) -> tuple[frozenset, tuple[int, int]]:
    """Flip d; returns the new diagonal set and the two face labels (b, c).

    In a triangulated polygon every triangle of edges is a face, so the
    quadrilateral around d is d plus the two common neighbours of its ends.
    """
    e = edges(n, diagonals)
    nbrs = {v: set() for v in range(n + 2)}
    for a, b in e:
        nbrs[a].add(b)
        nbrs[b].add(a)
    u, v = sorted(nbrs[d[0]] & nbrs[d[1]])
    a, b, c, _ = sorted((d[0], d[1], u, v))
    return frozenset(set(diagonals) - {d} | {(u, v)}), (b, c)


def signed_flip(n: int, diagonals, signs: tuple[int, ...], d):
    """The signed flip of d, or None when its two faces carry opposite signs."""
    new, (b, c) = flip(n, diagonals, d)
    if signs[b - 1] != signs[c - 1]:
        return None
    out = list(signs)
    out[b - 1], out[c - 1] = -out[b - 1], -out[c - 1]
    return new, tuple(out)


def greatest_reading(n: int, diagonals) -> tuple[int, ...]:
    """Cut the greatest-labelled inner ear each time: the lex-greatest reading."""
    ring = list(range(n + 2))
    diags = {(min(d), max(d)) for d in diagonals}
    word = []
    while len(ring) > 2:
        touched = {v for d in diags for v in d}
        v = max(u for u in ring if 1 <= u <= n and u not in touched)
        i = ring.index(v)
        diags.discard((ring[i - 1], ring[i + 1]))
        del ring[i]
        word.append(v)
    return tuple(word)


def _between_later(w, i) -> bool:
    lo, hi = sorted((abs(w[i]), abs(w[i + 1])))
    return any(lo < abs(x) < hi for x in w[i + 2:])


def step_kind(w1, w2) -> str | None:
    """K1 or K2 when w1 -> w2 is such a move on signed words, else None."""
    if len(w1) != len(w2):
        return None
    diff = [i for i in range(len(w1)) if w1[i] != w2[i]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    i = diff[0]
    x, z = w1[i], w1[i + 1]
    if (w2[i], w2[i + 1]) == (z, x) and _between_later(w1, i):
        return "K1"
    if (w2[i], w2[i + 1]) == (-z, -x) and not _between_later(w1, i) and (x > 0) == (z > 0):
        return "K2"
    return None


def chain_error(chain, kinds) -> str | None:
    """Why a certificate chain is not a valid K1/K2 chain, or None."""
    if not chain or len(kinds) != len(chain) - 1:
        return "chain and kinds disagree in length"
    for w in chain:
        if sorted(abs(a) for a in w) != list(range(1, len(w) + 1)) or 0 in w:
            return f"{w} is not a signed permutation"
    for i, kind in enumerate(kinds):
        if step_kind(chain[i], chain[i + 1]) != kind:
            return f"step {i} is not a {kind} move"
    return None


def random_chain(rng: random.Random, n: int, steps: int) -> tuple[list, list]:
    """A valid certificate chain of random legal K1/K2 moves, at least one long."""
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        w = tuple(a * rng.choice((-1, 1)) for a in perm)
        chain, kinds = [w], []
        for _ in range(steps):
            moves = []
            for i in range(n - 1):
                x, z = w[i], w[i + 1]
                if _between_later(w, i):
                    moves.append((w[:i] + (z, x) + w[i + 2:], "K1"))
                elif (x > 0) == (z > 0):
                    moves.append((w[:i] + (-z, -x) + w[i + 2:], "K2"))
            if not moves:
                break
            w, kind = rng.choice(moves)
            chain.append(w)
            kinds.append(kind)
        if kinds:
            return chain, kinds
