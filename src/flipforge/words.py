"""Words on a totally ordered alphabet, standardization and the sylvester congruence.

Letters are positive integers ``1..p`` (the CLI maps a..z onto 1..26).
Permutations are words without repeated letters.  Signed words carry a sign
on each letter and are encoded as nonzero integers with distinct absolute
values.
"""

from __future__ import annotations

from typing import Iterator

Word = tuple[int, ...]
SignedWord = tuple[int, ...]


class ClosureCapExceeded(RuntimeError):
    """A congruence-class enumeration outgrew its state cap."""


def is_permutation(w) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def block_coloring(mu: tuple[int, ...]) -> Word:
    """The weakly increasing word with evaluation mu: mu_1 ones, mu_2 twos, ..."""
    return tuple(c + 1 for c, m in enumerate(mu) for _ in range(m))


def standardize(w: Word) -> Word:
    """Replace equal letters by increasing runs, left to right, smallest first."""
    order = sorted(range(len(w)), key=w.__getitem__)  # stable: equal letters keep their order
    std = [0] * len(w)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def respects_blocks(sigma: Word, mu: tuple[int, ...]) -> int | None:
    """Index of the first mu-block whose values are out of order in sigma, else None."""
    if sum(mu) != len(sigma):
        raise ValueError(f"mu {mu} has total {sum(mu)}, permutation has length {len(sigma)}")
    pos = {v: i for i, v in enumerate(sigma)}
    lo = 1
    for k, m in enumerate(mu):
        block = range(lo, lo + m)
        if any(pos[v] >= pos[v + 1] for v in block[:-1]):
            return k
        lo += m
    return None


def destandardize(sigma: Word, mu: tuple[int, ...]) -> Word:
    """The unique word of evaluation mu whose standardization is sigma."""
    if not is_permutation(sigma):
        raise ValueError(f"{sigma} is not a permutation")
    bad = respects_blocks(sigma, mu)
    if bad is not None:
        lo = 1 + sum(mu[:bad])
        raise ValueError(
            f"values {lo}..{lo + mu[bad] - 1} (block {bad + 1} of mu={mu}) "
            "do not appear in increasing order"
        )
    letter = {}
    lo = 1
    for c, m in enumerate(mu, start=1):
        for v in range(lo, lo + m):
            letter[v] = c
        lo += m
    return tuple(letter[v] for v in sigma)


def exchange_witness(w: Word, i: int) -> int | None:
    """Position of the first later letter y with x <= y < z, where x < z are the
    letters at positions i, i+1: the exchange is allowed iff there is one."""
    x, z = w[i], w[i + 1]
    if z < x:
        x, z = z, x
    for k in range(i + 2, len(w)):
        if x <= w[k] < z:  # never when x == z
            return k
    return None


def adjacent_difference(w1: Word, w2: Word) -> int | None:
    """The position i when w1 and w2 differ exactly at positions i and i+1, else None."""
    if len(w1) != len(w2):
        return None
    diff = [i for i in range(len(w1)) if w1[i] != w2[i]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    return diff[0]


def sylvester_neighbors(w: Word) -> Iterator[Word]:
    for i in range(len(w) - 1):
        if exchange_witness(w, i) is not None:
            yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def sylvester_class(w: Word, cap: int = 1_000_000) -> frozenset[Word]:
    """The congruence class of w, by closure under adjacent exchanges."""
    if cap < 1:
        raise ValueError(f"class cap must be at least 1, got {cap}")
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


def abs_word(w: SignedWord) -> Word:
    return tuple(abs(a) for a in w)


def is_signed_word(w) -> bool:
    absolutes = [abs(a) for a in w]
    return all(a != 0 for a in w) and len(set(absolutes)) == len(absolutes)


# ---------------------------------------------------------------------------
# text forms: letter strings for colored words, digit strings for small
# permutations, comma-separated integers otherwise; signed words always
# comma-separated.

def parse_word(text: str) -> Word:
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    if "," in text:
        w = tuple(int(p) for p in text.split(","))
        if any(a < 1 for a in w):
            raise ValueError(f"letters must be >= 1, got {text!r}")
        return w
    if text.isalpha() and text.islower():
        return tuple(ord(ch) - ord("a") + 1 for ch in text)
    if text.isdigit():
        if "0" in text:
            raise ValueError("letters are positive; use comma-separated form for values > 9")
        return tuple(int(ch) for ch in text)
    raise ValueError(f"cannot parse word {text!r}")


def format_word(w: Word, like: str) -> str:
    if like.isalpha() and "," not in like:
        if max(w) > 26:
            raise ValueError("letters beyond z")
        return "".join(chr(a - 1 + ord("a")) for a in w)
    if like.isdigit():
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)

