"""Signed flips as a calculus on signed words, and path signability.

A signed state is a triangulation together with one sign per face label.
Two moves connect signed words: K1 exchanges an adjacent pair within a
sylvester class, carrying signs with the letters; K2 exchanges an adjacent
same-sign pair and bars both letters, provided no later letter lies strictly
between them in absolute value.  A K2 move is the word shadow of a signed
flip, with letter signs equal to face signs.

A ``SignedPath`` holds the signed states its search walked, and each
step's quadrilateral is read off its two shapes by ``flips.flip_between``.

``sign_path_diagonals`` decides signability of a concrete flip path with
the diagonal rule of Gravier & Payan: a flip refuses a negative diagonal,
installs the new diagonal positive and negates the other diagonals among
the sides of its quadrilateral.  It signs the first shape so that each of
its diagonals is positive when flipped, then applies the rule forward once
to the quadrilaterals it already holds.  ``flip_readings`` reads the two
words a certificate's K2 move exchanges off one reading before the flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .flips import FlipQuad, ShapeTable, flip_between, mask_signs
from .phi import canonical_reading, least_reading
from .triangulation import Coloring, Diagonal, Triangulation, canonical_key
from .words import SignedWord, Word, abs_word, adjacent_difference, exchange_witness, is_signed_word


class StateCapExceeded(RuntimeError):
    """A signed-state search outgrew its state cap."""


class SignedState(NamedTuple):
    tri: Triangulation
    signs: Coloring


def step_kind(w1: SignedWord, w2: SignedWord) -> str | None:
    """The kind of move, "K1" or "K2", that takes signed word w1 to w2, or
    None; w1 and w2 must be signed words, which it does not check."""
    i = adjacent_difference(w1, w2)
    if i is None:
        return None
    alpha, gamma = w1[i], w1[i + 1]
    k = exchange_witness(abs_word(w1), i)
    if (w2[i], w2[i + 1]) == (gamma, alpha) and k is not None:
        return "K1"
    if (w2[i], w2[i + 1]) == (-gamma, -alpha) and k is None and (alpha > 0) == (gamma > 0):
        return "K2"
    return None


@dataclass
class Certificate:
    """A chain of signed words whose consecutive pairs are K1/K2 moves."""

    chain: list[SignedWord]
    kinds: list[str]


@dataclass
class CertReport:
    ok: bool
    first_bad_step: int | None = None
    reason: str | None = None
    endpoints: tuple[Word, Word] | None = None


def validate_certificate(cert: Certificate) -> CertReport:
    """Check each word of the chain once, then that each step is the move its kind records."""
    chain, kinds = cert.chain, cert.kinds
    if not chain:
        return CertReport(False, 0, "empty chain")
    if len(kinds) != len(chain) - 1:
        return CertReport(False, 0, f"{len(chain)} words need {len(chain) - 1} kinds, got {len(kinds)}")
    for i, w in enumerate(chain):
        if not is_signed_word(w):
            return CertReport(False, i, f"entry {i} is not a signed word: {w}")
    for i in range(len(chain) - 1):
        kind = step_kind(chain[i], chain[i + 1])
        if kind is None:
            return CertReport(False, i, f"step {i} is neither a K1 nor a K2 move")
        if kind != kinds[i]:
            return CertReport(False, i, f"step {i} classifies as {kind}, recorded {kinds[i]}")
    return CertReport(True, endpoints=(abs_word(chain[0]), abs_word(chain[-1])))


class SignedPath(tuple):
    """A path in the signed-state graph: the signed states it walks, each
    one signed flip from the one before."""

    __slots__ = ()

    @property
    def start(self) -> SignedState:
        return self[0]

    @property
    def end(self) -> SignedState:
        return self[-1]

    @property
    def flips(self) -> tuple[Diagonal, ...]:
        return tuple(quad.old for _, quad, _ in self.steps())

    def steps(self) -> Iterator[tuple[SignedState, FlipQuad, SignedState]]:
        """Each flip once, as (state before, its quadrilateral, state after)."""
        for before, after in zip(self, self[1:]):
            yield before, flip_between(before.tri, after.tri), after


def signable_path_search(
    start_tri: Triangulation, end_tri: Triangulation, max_states: int = 1_000_000
) -> SignedPath | None:
    """Shortest signed-flip path from (start_tri, any signs) to end_tri.

    A breadth-first search by layers on a ``ShapeTable([start_tri,
    end_tri])``, so start_tri is shape 0 and end_tri shape 1.  A signing is
    the bitmask s of ``flips.ShapeTable``, bit n - k set when face k is
    positive, and a layer maps each shape to the bitset of its signings first
    reached at that depth (bit s set for signing s); layer 0 is every signing
    of start_tri.  A row entry with mask m moves a bitset B by one shift each
    way (``_step``), since s ^ m is s + m when s & m == 0 and s - m when
    s & m == m.  Each frontier is first matched against end_tri's own row (a
    flip undoes itself with the same mask).  When the next layer would fit
    the cap even at n - 1 states for each state the frontier added, it is
    then computed at end_tri's neighbours alone, each from its own row; if
    that meets end_tri it is the last frontier and the frontier is never
    expanded, so a shape first reached there builds a row only if it lies on
    a shortest path or next to end_tri.  Returns None only when the whole
    reachable space is exhausted.

    The path is the one a FIFO search seeded in mask order with flips in
    diagonal order would return: the least (seed, entry index, ...) among
    shortest paths, found by one backward pass, which reads the row of each
    shape with a signing that still leads to an end state and marks the
    signings one flip back in the layer before, and one forward pass taking
    the least seed and then the least entry.  StateCapExceeded is raised iff
    the signed states at distance < d from the seeds, d the path length (or
    every reachable state when there is no path), number more than
    max_states.
    """
    if max_states < 1:
        raise ValueError(f"state cap must be at least 1, got {max_states}")
    if start_tri.n != end_tri.n:
        raise ValueError("triangulations must have equal n")
    n = start_tri.n
    if start_tri == end_tri:
        return SignedPath([SignedState(start_tri, (-1,) * n)])
    # Every signing of start_tri is a seed: refuse before building 2^n of them.
    if 2 ** n > max_states:
        raise StateCapExceeded(f"search exceeds {max_states} states")
    table = ShapeTable([start_tri, end_tri])
    end_row = table.row(1)
    halves = _Halves(n)
    layers = [{0: halves.full}]
    seen = {0: halves.full}
    count = added = 1 << n
    while True:
        frontier = layers[-1]
        ends = _meet(end_row, frontier, halves)
        if ends:
            break
        # the next layer adds at most n - 1 states per state of this one: if that fits, meet it first
        if count + (n - 1) * added <= max_states:
            near = {j: u for j, *_ in end_row
                    if (u := _meet(table.row(j), frontier, halves) & ~seen.get(j, 0))}
            ends = _meet(end_row, near, halves)
            if ends:
                layers.append(near)
                break
        layer: dict[int, int] = {}
        before = count
        for i, bits in frontier.items():
            for j, m, *_ in table.row(i):
                new = _step(bits, m, halves) & ~seen.get(j, 0)
                if new:
                    seen[j] = seen.get(j, 0) | new
                    layer[j] = layer.get(j, 0) | new
                    count += new.bit_count()
                    if count > max_states:
                        raise StateCapExceeded(f"search exceeds {max_states} states")
        if not layer:
            return None
        layers.append(layer)
        added = count - before

    # useful[t][i]: the signings of shape i in layer t on a shortest path to an end state,
    # read off the rows of the shapes useful in layer t + 1
    useful = [{1: ends}]
    for layer in reversed(layers):
        u_layer: dict[int, int] = {}
        for j, u in useful[0].items():
            for i, m, *_ in table.row(j):
                if i in layer and (v := _step(u, m, halves) & layer[i]):
                    u_layer[i] = u_layer.get(i, 0) | v
        useful.insert(0, u_layer)

    seeds = useful[0][0]
    i, s = 0, (seeds & -seeds).bit_length() - 1
    states = [SignedState(start_tri, mask_signs(s, n))]
    for later in useful[1:]:
        for j, m, *_ in table.row(i):
            if s & m in (0, m) and later.get(j, 0) >> (s ^ m) & 1:
                break
        i, s = j, s ^ m
        states.append(SignedState(table.shape(j), mask_signs(s, n)))
    return SignedPath(states)


class _Halves(dict):
    """For a mask m of two faces, the bitsets over the 2^n signings of those
    with both faces negative (s & m == 0) and with both positive (s & m == m),
    built on first use."""

    def __init__(self, n: int):
        super().__init__()
        self.full = (1 << (1 << n)) - 1
        # clear[p]: the signings with bit p clear, blocks of 2^p set bits every 2^(p+1)
        self.clear = []
        for p in range(n):
            bits, width = (1 << (1 << p)) - 1, 2 << p
            while width < 1 << n:
                bits |= bits << width
                width <<= 1
            self.clear.append(bits)

    def __missing__(self, m: int) -> tuple[int, int]:
        p, q = (m & -m).bit_length() - 1, m.bit_length() - 1
        zero = self.clear[p] & self.clear[q]
        one = self.full ^ (self.clear[p] | self.clear[q])
        self[m] = zero, one
        return zero, one


def _step(bits: int, m: int, halves: _Halves) -> int:
    """The signings s ^ m of the signings s in bits that the flip of mask m allows."""
    zero, one = halves[m]
    return (bits & zero) << m | (bits & one) >> m


def _meet(row: list[tuple[int, int, int, int, Diagonal]], layer: dict[int, int], halves: _Halves) -> int:
    """The signings of row's shape one flip from the states of layer."""
    bits = 0
    for j, m, *_ in row:
        if j in layer:
            bits |= _step(layer[j], m, halves)
    return bits


def sign_letters(perm: Word, face_signs: Coloring) -> SignedWord:
    """Attach to each letter the sign of the face it labels."""
    return tuple(v * face_signs[v - 1] for v in perm)


def _class_bridge(w_from: Word, w_to: Word) -> list[Word]:
    """Shortest chain of K1 exchanges between two members of one class.

    Exchanges the leftmost adjacent pair that w_to orders the other way until
    none is left.  Each exchange undoes one inversion, and between two linear
    extensions of one binary tree every such exchange is a K1 move; so the
    chain is shortest, and among shortest chains its exchange positions are
    lexicographically least.
    """
    rank = {a: k for k, a in enumerate(w_to)}
    w = list(w_from)
    chain = [w_from]
    i = 0
    while i < len(w) - 1:
        if rank[w[i]] < rank[w[i + 1]]:
            i += 1
        elif exchange_witness(w, i) is None:
            break
        else:
            w[i], w[i + 1] = w[i + 1], w[i]
            chain.append(tuple(w))
            i = max(i - 1, 0)
    if chain[-1] != w_to:
        raise ValueError(f"{w_to} is not in the class of {w_from}")
    return chain


def flip_readings(t: Triangulation, quad: FlipQuad) -> tuple[Word, Word]:
    """Readings u x z v of t and u z x v of its flip across quad.

    The two exchanged letters are the face labels of the flip quadrilateral
    and the tail v carries no letter strictly between them, which is exactly
    what separates a flip from a within-class exchange.  The first word is
    the least reading that puts the faces inside the quadrilateral first,
    then its two letters in order, then the rest, each group by label.  The
    flip keeps the subtrees inside, and the faces outside wait on the pair,
    so exchanging it gives the flipped shape's least reading by that rule.
    """
    a, d = quad.a, quad.d
    x, z = (quad.b, quad.c) if quad.old == (a, quad.c) else (quad.c, quad.b)
    rank = {x: 1, z: 2}
    w = least_reading(t, lambda y: (rank.get(y, 0 if a < y < d else 3), y))
    k = d - a - 3
    if w[k:k + 2] != (x, z):
        raise AssertionError(f"{x}, {z} are not read right after the inside of the quad")
    return w, w[:k] + (z, x) + w[k + 2:]


def emit_word_certificate(path: SignedPath) -> Certificate:
    """Realize a signed-flip path as a chain of K1/K2 moves on signed words.

    Each flip contributes the exchanged-pair readings of its quadrilateral
    (a K2 move), read off the shape before it; between flips the reading is
    carried across the class by K1 moves.
    """
    steps = list(path.steps())
    if not steps:
        tri, signs = path.start
        return Certificate([sign_letters(canonical_reading(tri), signs)], [])
    chain: list[SignedWord] = []
    kinds: list[str] = []
    for (t_i, eps_i), quad, (_, eps_j) in steps:
        w1, w2 = flip_readings(t_i, quad)
        if not chain:
            chain.append(sign_letters(w1, eps_i))
        for perm in _class_bridge(abs_word(chain[-1]), w1)[1:]:
            chain.append(sign_letters(perm, eps_i))
            kinds.append("K1")
        chain.append(sign_letters(w2, eps_j))
        kinds.append("K2")
    return Certificate(chain, kinds)


@dataclass
class DiagonalSigning:
    """A triangulation with a sign on each of its diagonals."""

    base: Triangulation
    signs: dict[Diagonal, int]


@dataclass
class PathSigning:
    signable: bool
    failed_step: int | None = None
    signings: list[DiagonalSigning] | None = None


def sign_path_diagonals(path: Sequence[Triangulation]) -> PathSigning:
    """Decide signability of a flip path and produce per-step diagonal signings.

    The first signing gives each diagonal of path[0] the sign that makes it
    positive when it is flipped, or when the path ends if it never is: a
    flip negates the signed sides of its quadrilateral, so a diagonal starts
    negative iff it is a side of an odd number of flips while it is
    unflipped.  One forward replay of the diagonal rule from there gives the
    other signings, each step read off the quadrilateral it flips and the
    shape it reaches, so the replay flips nothing.  A diagonal a flip
    creates starts positive, and the first step that meets it negative
    makes the path unsignable.
    """
    if not path:
        raise ValueError("empty path")
    quads = []
    for t1, t2 in zip(path, path[1:]):
        quad = flip_between(t1, t2)
        if quad is None:
            raise ValueError(f"{canonical_key(t1)} -> {canonical_key(t2)} is not a flip")
        quads.append(quad)
    first = dict.fromkeys(path[0].diagonals, 1)
    live = set(first)  # the diagonals of path[0] not flipped yet
    for quad in quads:
        for side in live.intersection(quad.sides()):
            first[side] = -first[side]
        live.discard(quad.old)
    signings = [DiagonalSigning(path[0], first)]
    for i, quad in enumerate(quads):
        signs = dict(signings[-1].signs)
        if signs.pop(quad.old) == -1:
            return PathSigning(False, failed_step=i)
        for side in quad.sides():
            if side in signs:
                signs[side] = -signs[side]
        signs[quad.new] = 1
        signings.append(DiagonalSigning(path[i + 1], signs))
    return PathSigning(True, signings=signings)
