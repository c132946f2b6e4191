"""Signed flips as a calculus on signed words, and path signability.

A signed state is a triangulation together with one sign per face label.
Two moves connect signed words: K1 exchanges an adjacent pair within a
sylvester class, carrying signs with the letters; K2 exchanges an adjacent
same-sign pair and bars both letters, provided no later letter lies strictly
between them in absolute value.  A K2 move is the word shadow of a signed
flip, with letter signs equal to face signs.

``sign_path_diagonals`` decides signability of a concrete flip path by
replaying ``flips.signed_flip_diagonal`` along it: a flip installs a positive
diagonal, negates the signed sides of its quadrilateral, and refuses to flip
a negative diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .flips import (
    DiagonalSigning,
    FlipQuad,
    ShapeTable,
    flip,
    flip_between,
    flip_readings,
    flip_signs,
    mask_signs,
    signed_flip_diagonal,
)
from .phi import canonical_reading
from .triangulation import Coloring, Diagonal, Triangulation, canonical_key
from .words import SignedWord, Word, abs_word, adjacent_difference, exchange_witness, is_signed_word


class StateCapExceeded(RuntimeError):
    """A signed-state search outgrew its state cap."""


class SignedState(NamedTuple):
    tri: Triangulation
    signs: Coloring


def classify_step(w1: SignedWord, w2: SignedWord) -> str | None:
    """The kind of move, "K1" or "K2", that takes signed word w1 to w2, or None."""
    if not (is_signed_word(w1) and is_signed_word(w2)):
        return None
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
    chain, kinds = cert.chain, cert.kinds
    if not chain:
        return CertReport(False, 0, "empty chain")
    if len(kinds) != len(chain) - 1:
        return CertReport(False, 0, f"{len(chain)} words need {len(chain) - 1} kinds, got {len(kinds)}")
    for i, w in enumerate(chain):
        if not is_signed_word(w):
            return CertReport(False, i, f"entry {i} is not a signed word: {w}")
    for i in range(len(chain) - 1):
        kind = classify_step(chain[i], chain[i + 1])
        if kind is None:
            return CertReport(False, i, f"step {i} is neither a K1 nor a K2 move")
        if kind != kinds[i]:
            return CertReport(False, i, f"step {i} classifies as {kind}, recorded {kinds[i]}")
    return CertReport(True, endpoints=(abs_word(chain[0]), abs_word(chain[-1])))


@dataclass
class SignedPath:
    """A path in the signed-state graph, recorded as start state plus flips."""

    start: SignedState
    end: SignedState
    flips: tuple[Diagonal, ...]

    def steps(self) -> Iterator[tuple[SignedState, FlipQuad, SignedState]]:
        """Each recorded flip once, as (state before, its quadrilateral, state
        after); ValueError if a flip is refused or the path misses its end."""
        state = self.start
        for k, d in enumerate(self.flips):
            t2, quad = flip(state.tri, d)
            signs2 = flip_signs(state.signs, *quad.labels)
            if signs2 is None:
                raise ValueError(f"recorded flip {d} is refused at step {k}")
            after = SignedState(t2, signs2)
            yield state, quad, after
            state = after
        if state != self.end:
            raise ValueError("recorded path does not reach its end state")


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
    flip undoes itself with the same mask), so the shapes of the last
    frontier build no rows; returns None only when the whole reachable space
    is exhausted.

    The path is the one a FIFO search seeded in mask order with flips in
    diagonal order would return: the least (seed, entry index, ...) among
    shortest paths, found by one backward pass of the signings that still
    lead to an end state and one forward pass taking the least seed and then
    the least entry.  StateCapExceeded is raised iff the signed states at
    distance < d from the seeds, d the path length (or every reachable state
    when there is no path), number more than max_states.
    """
    if max_states < 1:
        raise ValueError(f"state cap must be at least 1, got {max_states}")
    if start_tri.n != end_tri.n:
        raise ValueError("triangulations must have equal n")
    n = start_tri.n
    if start_tri == end_tri:
        state = SignedState(start_tri, (-1,) * n)
        return SignedPath(state, state, ())
    # Every signing of start_tri is a seed: refuse before building 2^n of them.
    if 2 ** n > max_states:
        raise StateCapExceeded(f"search exceeds {max_states} states")
    table = ShapeTable([start_tri, end_tri])
    end_row = table.row(1)
    halves = _Halves(n)
    layers = [{0: halves.full}]
    seen = {0: halves.full}
    count = 1 << n
    while True:
        frontier = layers[-1]
        ends = 0
        for j, m, *_ in end_row:
            if j in frontier:
                ends |= _step(frontier[j], m, halves)
        if ends:
            break
        layer: dict[int, int] = {}
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

    # useful[t][i]: the signings of shape i in layer t on a shortest path to an end state
    useful = [{j: u for j, m, *_ in end_row
               if j in frontier and (u := _step(ends, m, halves) & frontier[j])}, {1: ends}]
    for layer in reversed(layers[:-1]):
        later = useful[0]
        u_layer = {}
        for i, bits in layer.items():
            u = 0
            for j, m, *_ in table.row(i):
                if j in later:
                    u |= _step(later[j], m, halves)
            u &= bits
            if u:
                u_layer[i] = u
        useful.insert(0, u_layer)

    seeds = useful[0][0]
    i, s = 0, (seeds & -seeds).bit_length() - 1
    seed, diagonals = s, []
    for later in useful[1:]:
        for j, m, _, _, d in table.row(i):
            if s & m in (0, m) and later.get(j, 0) >> (s ^ m) & 1:
                break
        diagonals.append(d)
        i, s = j, s ^ m
    return SignedPath(SignedState(start_tri, mask_signs(seed, n)),
                      SignedState(end_tri, mask_signs(s, n)), tuple(diagonals))


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


def emit_word_certificate(path: SignedPath) -> Certificate:
    """Realize a signed-flip path as a chain of K1/K2 moves on signed words.

    Each flip contributes the exchanged-pair readings of its quadrilateral
    (a K2 move); between flips the reading is carried across the class by
    K1 moves.
    """
    steps = list(path.steps())
    if not steps:
        tri, signs = path.start
        return Certificate([sign_letters(canonical_reading(tri), signs)], [])
    chain: list[SignedWord] = []
    kinds: list[str] = []
    for (t_i, eps_i), quad, (t_j, eps_j) in steps:
        w1, w2 = flip_readings(t_i, quad, t_j)
        if not chain:
            chain.append(sign_letters(w1, eps_i))
        for perm in _class_bridge(abs_word(chain[-1]), w1)[1:]:
            chain.append(sign_letters(perm, eps_i))
            kinds.append("K1")
        chain.append(sign_letters(w2, eps_j))
        kinds.append("K2")
    return Certificate(chain, kinds)


@dataclass
class PathSigning:
    signable: bool
    failed_step: int | None = None
    signings: list[DiagonalSigning] | None = None


def sign_path_diagonals(path: Sequence[Triangulation]) -> PathSigning:
    """Decide signability of a flip path and produce per-step diagonal signings.

    Forward: replay the signed flips from a signing with no diagonal signed,
    so each diagonal is signed once a flip creates it; a step flipping a
    negative diagonal makes the path unsignable.  On success, unsigned
    diagonals of the final triangulation get +, and the earlier signings are
    recovered by flipping each new diagonal back.
    """
    if not path:
        raise ValueError("empty path")
    quads = []
    for t1, t2 in zip(path, path[1:]):
        quad = flip_between(t1, t2)
        if quad is None:
            raise ValueError(f"{canonical_key(t1)} -> {canonical_key(t2)} is not a flip")
        quads.append(quad)
    ds = DiagonalSigning(path[0], {})
    for i, quad in enumerate(quads):
        ds = signed_flip_diagonal(ds, quad.old)
        if ds is None:
            return PathSigning(False, failed_step=i)

    out = [DiagonalSigning(path[-1], {d: ds.signs.get(d, 1) for d in path[-1].diagonals})]
    for i in reversed(range(len(quads))):
        prev = signed_flip_diagonal(out[0], quads[i].new)
        if prev is None:
            raise AssertionError(f"internal check failed reversing step {i}")
        out.insert(0, prev)
    for i, quad in enumerate(quads):
        stepped = signed_flip_diagonal(out[i], quad.old)
        if stepped is None or stepped.signs != out[i + 1].signs:
            raise AssertionError(f"internal check failed reversing step {i}")
    return PathSigning(True, signings=out)
