"""Signed flips as a calculus on signed words, and path signability.

A signed state is a triangulation together with one sign per face label.
Two moves connect signed words: K1 exchanges an adjacent pair within a
sylvester class, carrying signs with the letters; K2 exchanges an adjacent
same-sign pair and bars both letters, provided no later letter lies strictly
between them in absolute value.  A K2 move is the word shadow of a signed
flip, with letter signs equal to face signs.

``sign_path_diagonals`` decides signability of a concrete flip path by the
bookkeeping on diagonal signs: a flip installs a positive diagonal, negates
the signed sides of its quadrilateral, and refuses to flip a negative
diagonal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

from .flips import (
    DiagonalSigning,
    FlipTable,
    flip,
    flip_characterization,
    flip_quad,
    flip_row,
    signed_flip,
    signed_flip_diagonal,
    signed_moves,
)
from .phi import canonical_reading
from .triangulation import Coloring, Diagonal, Triangulation, canonical_key
from .words import SignedWord, Word, abs_word, is_signed_word, sylvester_neighbors


class StateCapExceeded(RuntimeError):
    """A signed-state search outgrew its state cap."""


class ConflictingSigningError(RuntimeError):
    """One triangulation reached with two different signings in one closure."""


class SignedState(NamedTuple):
    tri: Triangulation
    signs: Coloring


@dataclass(frozen=True)
class SearchLimits:
    max_states: int = 1_000_000


def sigma_closure(start: SignedState, limits: SearchLimits = SearchLimits()) -> frozenset[SignedState]:
    """All signed states reachable from start by signed flips.

    While exploring, checks that no triangulation shows up under two
    different signings; a violation raises ConflictingSigningError.
    """
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
            if len(seen) > limits.max_states:
                raise StateCapExceeded(f"closure exceeds {limits.max_states} states")
            queue.append(state)
    return frozenset(seen)


class StepWitness(NamedTuple):
    kind: str
    index: int
    alpha: int
    gamma: int
    y: int | None


def _between_later(w: SignedWord, i: int) -> int | None:
    lo, hi = sorted((abs(w[i]), abs(w[i + 1])))
    for b in w[i + 2 :]:
        if lo < abs(b) < hi:
            return b
    return None


def classify_step(w1: SignedWord, w2: SignedWord) -> StepWitness | None:
    """Classify a pair of signed words as a K1 or K2 move, or neither."""
    if len(w1) != len(w2) or w1 == w2:
        return None
    if not (is_signed_word(w1) and is_signed_word(w2)):
        return None
    diff = [i for i in range(len(w1)) if w1[i] != w2[i]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    i = diff[0]
    alpha, gamma = w1[i], w1[i + 1]
    y = _between_later(w1, i)
    if (w2[i], w2[i + 1]) == (gamma, alpha):
        if y is not None:
            return StepWitness("K1", i, alpha, gamma, y)
        return None
    if (w2[i], w2[i + 1]) == (-gamma, -alpha):
        if y is None and (alpha > 0) == (gamma > 0):
            return StepWitness("K2", i, alpha, gamma, None)
        return None
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
        witness = classify_step(chain[i], chain[i + 1])
        if witness is None:
            return CertReport(False, i, f"step {i} is neither a K1 nor a K2 move")
        if witness.kind != kinds[i]:
            return CertReport(False, i, f"step {i} classifies as {witness.kind}, recorded {kinds[i]}")
    return CertReport(True, endpoints=(abs_word(chain[0]), abs_word(chain[-1])))


@dataclass
class SignedPath:
    """A path in the signed-state graph, recorded as start state plus flips."""

    start: SignedState
    end: SignedState
    flips: tuple[Diagonal, ...]

    def states(self) -> list[SignedState]:
        out = [self.start]
        for d in self.flips:
            tri, signs = out[-1]
            nxt = signed_flip(tri, signs, d)
            if nxt is None:
                raise ValueError(f"recorded flip {d} is refused at step {len(out) - 1}")
            out.append(SignedState(*nxt))
        if out[-1] != self.end:
            raise ValueError("recorded path does not reach its end state")
        return out


def signable_path_search(
    start_tri: Triangulation, end_tri: Triangulation, limits: SearchLimits = SearchLimits()
) -> SignedPath | None:
    """Shortest signed-flip path from (start_tri, any signs) to end_tri.

    Runs a breadth-first search seeded with every signing of start_tri;
    returns None only when the whole reachable space is exhausted.  Seeds go
    in lexicographic order of their signs and flips in diagonal order, so
    results are reproducible.
    """
    if start_tri.n != end_tri.n:
        raise ValueError("triangulations must have equal n")
    n = start_tri.n
    if start_tri == end_tri:
        state = SignedState(start_tri, (-1,) * n)
        return SignedPath(state, state, ())
    # Every signing of start_tri is a seed: refuse before building 2^n of them.
    if 2 ** n > limits.max_states:
        raise StateCapExceeded(f"search exceeds {limits.max_states} states")
    sources = [SignedState(start_tri, signs) for signs in product((-1, 1), repeat=n)]
    parent: dict[SignedState, tuple[SignedState, Diagonal] | None] = {s: None for s in sources}
    queue = deque(sources)
    table = FlipTable()

    def path_from(state: SignedState) -> SignedPath:
        flips_rev = []
        cur = state
        while parent[cur] is not None:
            prev, d = parent[cur]
            flips_rev.append(d)
            cur = prev
        return SignedPath(cur, state, tuple(reversed(flips_rev)))

    while queue:
        state = queue.popleft()
        for d, t2, signs2 in signed_moves(table[state.tri], state.signs):
            ns = SignedState(t2, signs2)
            if ns in parent:
                continue
            parent[ns] = (state, d)
            if len(parent) > limits.max_states:
                raise StateCapExceeded(f"search exceeds {limits.max_states} states")
            if ns.tri == end_tri:
                return path_from(ns)
            queue.append(ns)
    return None


def sign_letters(perm: Word, face_signs: Coloring) -> SignedWord:
    """Attach to each letter the sign of the face it labels."""
    return tuple(v * face_signs[v - 1] for v in perm)


def _class_bridge(w_from: Word, w_to: Word) -> list[Word]:
    """Shortest chain of adjacent exchanges between two class members."""
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


def emit_word_certificate(path: SignedPath) -> Certificate:
    """Realize a signed-flip path as a chain of K1/K2 moves on signed words.

    Each flip contributes the exchanged-pair readings of its quadrilateral
    (a K2 move); between flips the reading is carried across the class by
    K1 moves.
    """
    states = path.states()
    if len(states) == 1:
        tri, signs = states[0]
        return Certificate([sign_letters(canonical_reading(tri), signs)], [])
    chain: list[SignedWord] = []
    kinds: list[str] = []
    for i in range(len(states) - 1):
        t_i, eps_i = states[i]
        t_j, eps_j = states[i + 1]
        pair = flip_characterization(t_i, t_j)
        if pair is None:
            raise ValueError(f"step {i} of the path is not a flip")
        w1, w2 = pair
        sw1 = sign_letters(w1, eps_i)
        if not chain:
            chain.append(sw1)
        elif chain[-1] != sw1:
            for perm in _class_bridge(abs_word(chain[-1]), w1)[1:]:
                chain.append(sign_letters(perm, eps_i))
                kinds.append("K1")
        chain.append(sign_letters(w2, eps_j))
        kinds.append("K2")
    return Certificate(chain, kinds)


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
        if _between_later(w, i) is not None:
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


@dataclass
class PathSigning:
    signable: bool
    failed_step: int | None = None
    signings: list[DiagonalSigning] | None = None


def _flipped_diagonal(t1: Triangulation, t2: Triangulation) -> Diagonal:
    gone = set(t1.diagonals) - set(t2.diagonals)
    if len(gone) != 1 or flip(t1, next(iter(gone)))[0] != t2:
        raise ValueError(f"{canonical_key(t1)} -> {canonical_key(t2)} is not a flip")
    return gone.pop()


def sign_path_diagonals(path: Sequence[Triangulation]) -> PathSigning:
    """Decide signability of a flip path and produce per-step diagonal signings.

    Forward pass: track signs of the diagonals created along the path; a
    step flipping a negative tracked diagonal makes the path unsignable.
    On success, unsigned diagonals of the final triangulation get +, and the
    earlier signings are recovered by undoing one flip at a time.
    """
    if not path:
        raise ValueError("empty path")
    steps = [_flipped_diagonal(path[i], path[i + 1]) for i in range(len(path) - 1)]
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
    out = [DiagonalSigning(t, s) for t, s in zip(path, signings)]
    for i, d in enumerate(steps):
        stepped = signed_flip_diagonal(out[i], d)
        if stepped is None or stepped.signs != out[i + 1].signs:
            raise AssertionError(f"internal check failed reversing step {i}")
    return PathSigning(True, signings=out)


def face_sign_walk(path: Sequence[Triangulation], eps0: Coloring) -> list[Coloring] | None:
    """Replay a flip path under face signs starting from eps0, or None if refused."""
    signs = eps0
    out = [signs]
    for i in range(len(path) - 1):
        d = _flipped_diagonal(path[i], path[i + 1])
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
