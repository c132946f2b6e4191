"""JSON forms for triangulations, spheres and certificates.

All emitters sort keys and collections so that equal objects serialize to
identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .heawood import SphereTriangulation
from .signing import Certificate
from .triangulation import Coloring, Triangulation, validate


# one encoder for every call: json.dumps builds a new one for non-default arguments
dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _integer(value: Any) -> int:
    """value if it is a JSON integer; floats, numeric strings and booleans are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def triangulation_to_dict(t: Triangulation, colors: Coloring | None = None,
                          signs: Coloring | None = None) -> dict:
    out: dict[str, Any] = {"n": t.n, "diagonals": [list(d) for d in t.diagonals]}
    if colors is not None:
        out["colors"] = list(colors)
    if signs is not None:
        out["signs"] = list(signs)
    return out


def triangulation_from_dict(data: dict) -> tuple[Triangulation, Coloring | None, Coloring | None]:
    try:
        n = _integer(data["n"])
        t = Triangulation(n, tuple((_integer(i), _integer(j)) for i, j in data["diagonals"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed triangulation object: {exc}") from exc
    problems = validate(t)
    if problems:
        raise ValueError(problems[0])
    for name in ("colors", "signs"):
        if name in data and not isinstance(data[name], list):
            raise ValueError(f"{name} must be a list, got {type(data[name]).__name__}")
    colors = tuple(data["colors"]) if "colors" in data else None
    signs = tuple(data["signs"]) if "signs" in data else None
    for name, extra in (("colors", colors), ("signs", signs)):
        if extra is not None and len(extra) != t.n:
            raise ValueError(f"{name} must have length n={t.n}")
    if colors is not None and any(type(c) is not int for c in colors):
        raise ValueError("colors must be integers")
    if signs is not None and any(type(s) is not int or s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    return t, colors, signs


def sphere_to_dict(s: SphereTriangulation) -> dict:
    out: dict[str, Any] = {
        "n": s.n,
        "north": [list(d) for d in s.north.diagonals],
        "south": [list(d) for d in s.south.diagonals],
    }
    if s.signs is not None:
        out["signs"] = {f"{hemi}:{label}": sign
                        for hemi, signs in zip("NS", s.signs) for label, sign in enumerate(signs, 1)}
    return out


def sphere_from_dict(data: dict) -> SphereTriangulation:
    try:
        n = _integer(data["n"])
        north = Triangulation(n, tuple((_integer(i), _integer(j)) for i, j in data["north"]))
        south = Triangulation(n, tuple((_integer(i), _integer(j)) for i, j in data["south"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sphere object: {exc}") from exc
    signs = None
    if "signs" in data:
        entries = data["signs"]
        if not isinstance(entries, dict):
            raise ValueError(f"signs must be an object, got {type(entries).__name__}")
        for key, sign in entries.items():
            hemi, _, label = key.partition(":")
            if hemi not in ("N", "S") or not label.isdigit() or type(sign) is not int or sign not in (-1, 1):
                raise ValueError(f"malformed face sign entry {key!r}: {sign!r}")
            if str(int(label)) != label or not 1 <= int(label) <= n:
                raise ValueError(f"face sign entry {key!r} names no face label 1..{n}")
        # the entries name distinct faces, so the first unsigned face comes
        # within len(entries) + 1 keys, however large n is
        keys = (f"{hemi}:{label}" for hemi in "NS" for label in range(1, n + 1))
        unsigned = next((key for key in keys if key not in entries), None)
        if unsigned is not None:
            raise ValueError(f"face {unsigned} is unsigned")
        signs = tuple(tuple(entries[f"{hemi}:{label}"] for label in range(1, n + 1)) for hemi in "NS")
    for hemi, problems in (("north", validate(north)), ("south", validate(south))):
        if problems:
            raise ValueError(f"{hemi} is not a triangulation: {problems[0]}")
    return SphereTriangulation(north, south, signs)


def certificate_to_lines(cert: Certificate) -> list[str]:
    lines = [dumps({"word": list(cert.chain[0])})]
    for word, kind in zip(cert.chain[1:], cert.kinds):
        lines.append(dumps({"word": list(word), "kind": kind}))
    return lines


def certificate_from_lines(lines: list[str]) -> Certificate:
    chain = []
    kinds = []
    for i, line in enumerate(line for line in lines if line.strip()):
        try:
            data = json.loads(line)
            chain.append(tuple(_integer(a) for a in data["word"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed certificate line {i}: {exc}") from exc
        if i > 0:
            kind = data.get("kind")
            if kind not in ("K1", "K2"):
                raise ValueError(f"certificate line {i} lacks a K1/K2 kind")
            kinds.append(kind)
    if not chain:
        raise ValueError("empty certificate")
    return Certificate(chain, kinds)

