"""JSON forms for triangulations, spheres, certificates and graphs.

All emitters sort keys and collections so that equal objects serialize to
identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .heawood import SphereTriangulation
from .signing import Certificate
from .triangulation import Coloring, Triangulation, validate
from .graphs import CombGraph


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
        t = Triangulation(int(data["n"]), tuple((int(i), int(j)) for i, j in data["diagonals"]))
    except (KeyError, TypeError, ValueError) as exc:
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
    if signs is not None and any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    return t, colors, signs


def sphere_to_dict(s: SphereTriangulation) -> dict:
    out: dict[str, Any] = {
        "n": s.n,
        "north": [list(d) for d in s.north.diagonals],
        "south": [list(d) for d in s.south.diagonals],
    }
    if s.face_signs is not None:
        out["signs"] = {f"{hemi}:{label}": sign for (hemi, label), sign in sorted(s.face_signs.items())}
    return out


def sphere_from_dict(data: dict) -> SphereTriangulation:
    try:
        n = int(data["n"])
        north = Triangulation(n, tuple((int(i), int(j)) for i, j in data["north"]))
        south = Triangulation(n, tuple((int(i), int(j)) for i, j in data["south"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sphere object: {exc}") from exc
    face_signs = None
    if "signs" in data:
        if not isinstance(data["signs"], dict):
            raise ValueError(f"signs must be an object, got {type(data['signs']).__name__}")
        face_signs = {}
        for key, sign in data["signs"].items():
            hemi, _, label = key.partition(":")
            if hemi not in ("N", "S") or not label.isdigit() or sign not in (-1, 1):
                raise ValueError(f"malformed face sign entry {key!r}: {sign!r}")
            face_signs[(hemi, int(label))] = sign
    return SphereTriangulation(n, north, south, face_signs)


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
            chain.append(tuple(int(a) for a in data["word"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate line {i}: {exc}") from exc
        if i > 0:
            kind = data.get("kind")
            if kind not in ("K1", "K2"):
                raise ValueError(f"certificate line {i} lacks a K1/K2 kind")
            kinds.append(kind)
    if not chain:
        raise ValueError("empty certificate")
    return Certificate(chain, kinds)


def graph_to_dict(g: CombGraph) -> dict:
    edges = sorted({tuple(sorted((v, w))) for v in g.vertices for w in g.adjacency.get(v, ())})
    return {
        "kind": g.kind,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in edges],
    }
