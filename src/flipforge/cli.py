"""Command line front end.

Exit codes: 0 on success, 1 on domain errors (invalid objects, failed
checks), 2 on usage errors.  All structured output is JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import flips, graphs, jsonio, render
from .graphs import SUITES
from .heawood import four_color, glue, heawood_check, verify_coloring
from .phi import (
    canonical_reading,
    colored_triangulation_from_word,
    insertion_trace,
    reading_count,
    readings,
    triangulation_from_permutation,
)
from .signing import (
    emit_word_certificate,
    sign_path_diagonals,
    signable_path_search,
    validate_certificate,
)
from .triangulation import canonical_key
from .words import (
    destandardize,
    format_word,
    parse_word,
    standardize,
    sylvester_class,
)


def _parse_mu(text: str) -> tuple[int, ...]:
    try:
        mu = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad mu {text!r}: {exc}") from exc
    if any(m <= 0 for m in mu):
        raise ValueError(f"mu parts must be positive, got {mu}")
    return mu


def _parse_diagonal(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a diagonal i,j, got {text!r}")
    i, j = int(parts[0]), int(parts[1])
    return (min(i, j), max(i, j))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_triangulation(path: str):
    return jsonio.triangulation_from_dict(_load_json(path))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _print_json(obj, out: str | None) -> None:
    _emit(jsonio.dumps(obj), out)


def cmd_phi(args) -> int:
    perm = parse_word(args.perm)
    t = triangulation_from_permutation(perm)
    _print_json(jsonio.triangulation_to_dict(t), args.output)
    return 0


def cmd_readings(args) -> int:
    t, _, _ = _load_triangulation(args.file)
    if args.max_states < 1:
        raise ValueError(f"readings cap must be at least 1, got {args.max_states}")
    count = reading_count(t)
    if count > args.max_states:
        raise ValueError(f"the {count} readings of {canonical_key(t)} exceed cap {args.max_states}")
    words = sorted(readings(t))
    _print_json({"key": canonical_key(t), "count": len(words),
                 "readings": [",".join(map(str, w)) for w in words]}, args.output)
    return 0


def cmd_canonical(args) -> int:
    t, _, _ = _load_triangulation(args.file)
    word = canonical_reading(t)
    _print_json({"key": canonical_key(t), "canonical": ",".join(map(str, word))}, args.output)
    return 0


def cmd_bigphi(args) -> int:
    word = parse_word(args.word)
    t, eps = colored_triangulation_from_word(word)
    _print_json(jsonio.triangulation_to_dict(t, colors=eps), args.output)
    return 0


def cmd_insert_trace(args) -> int:
    word = parse_word(args.word)
    lines = []
    for t, eps in insertion_trace(word):
        lines.append(jsonio.dumps(jsonio.triangulation_to_dict(t, colors=eps)))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_std(args) -> int:
    word = parse_word(args.word)
    _print_json({"std": ",".join(map(str, standardize(word)))}, args.output)
    return 0


def cmd_dstd(args) -> int:
    perm = parse_word(args.perm)
    mu = _parse_mu(args.mu)
    word = destandardize(perm, mu)
    display = format_word(word, "a") if max(word) <= 26 else format_word(word, "1,1")
    _print_json({"word": display, "letters": list(word)}, args.output)
    return 0


def cmd_class(args) -> int:
    word = parse_word(args.word)
    members = sorted(sylvester_class(word, cap=args.max_states))
    _print_json({"count": len(members),
                 "class": [format_word(w, args.word) for w in members]}, args.output)
    return 0


def cmd_flip(args) -> int:
    t, colors, signs = _load_triangulation(args.file)
    d = _parse_diagonal(args.d)
    if signs is not None:
        result = flips.signed_flip(t, signs, d)
        if result is None:
            _print_json({"refused": True, "reason": "faces at the diagonal carry opposite signs"},
                        args.output)
            return 1
        t2, signs2 = result
        _print_json(jsonio.triangulation_to_dict(t2, colors=colors, signs=signs2), args.output)
        return 0
    t2, _ = flips.flip(t, d)
    _print_json(jsonio.triangulation_to_dict(t2, colors=colors), args.output)
    return 0


def cmd_neighbors(args) -> int:
    t, colors, signs = _load_triangulation(args.file)
    mode = args.mode
    if mode == "plain":
        table = flips.ShapeTable([t])
        out = [jsonio.triangulation_to_dict(table.shapes[j]) for j, *_ in table.row(0)]
    elif mode == "signed":
        if signs is None:
            raise ValueError("signed neighbors need a 'signs' entry")
        table = flips.ShapeTable([t])
        moves = [(table.shapes[j], flips.flip_signs(signs, b, c)) for j, _, b, c, _ in table.row(0)]
        out = [jsonio.triangulation_to_dict(t2, signs=signs2) for t2, signs2 in moves
               if signs2 is not None]
    else:
        if colors is None:
            raise ValueError(f"{mode} neighbors need a 'colors' entry")
        step = flips.homogeneous_neighbors if mode == "homogeneous" else flips.switched_neighbors
        out = [jsonio.triangulation_to_dict(t2, colors=eps) for t2, eps in step(t, colors)]
    _print_json({"mode": mode, "count": len(out), "neighbors": out}, args.output)
    return 0


def cmd_signed_path(args) -> int:
    start = triangulation_from_permutation(parse_word(args.perm1))
    end = triangulation_from_permutation(parse_word(args.perm2))
    path = signable_path_search(start, end, args.max_states)
    if path is None:
        _print_json({"found": False}, args.output)
        return 1
    report = {
        "found": True,
        "start_key": canonical_key(start),
        "end_key": canonical_key(end),
        "eps": list(path.start.signs),
        "eps_prime": list(path.end.signs),
        "flips": [list(d) for d in path.flips],
        "length": len(path.flips),
    }
    if args.emit_cert:
        cert = emit_word_certificate(path)
        with open(args.emit_cert, "w", encoding="utf-8") as fh:
            fh.write("\n".join(jsonio.certificate_to_lines(cert)) + "\n")
        report["certificate"] = args.emit_cert
        report["certificate_ok"] = validate_certificate(cert).ok
    _print_json(report, args.output)
    return 0


def cmd_check_cert(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        cert = jsonio.certificate_from_lines(fh.readlines())
    report = validate_certificate(cert)
    payload = {
        "ok": report.ok,
        "words": len(cert.chain),
        "kinds": cert.kinds,
    }
    if report.ok:
        payload["endpoints"] = [",".join(map(str, e)) for e in report.endpoints]
    else:
        payload["first_bad_step"] = report.first_bad_step
        payload["reason"] = report.reason
    _print_json(payload, args.output)
    return 0 if report.ok else 1


def cmd_sign_path_diagonals(args) -> int:
    data = _load_json(args.file)
    if not isinstance(data, dict) or "n" not in data or not isinstance(data.get("path"), list):
        raise ValueError('path file must contain {"n": ..., "path": [[diagonals], ...]}')
    steps = ({"n": data["n"], "diagonals": diagonals} for diagonals in data["path"])
    path = [jsonio.triangulation_from_dict(step)[0] for step in steps]
    result = sign_path_diagonals(path)
    if not result.signable:
        _print_json({"signable": False, "failed_step": result.failed_step}, args.output)
        return 0
    payload = {
        "signable": True,
        "signings": [
            {f"{i}-{j}": s for (i, j), s in sorted(ds.signs.items())} for ds in result.signings
        ],
    }
    _print_json(payload, args.output)
    return 0


def cmd_glue(args) -> int:
    north, _, nsigns = _load_triangulation(args.north)
    south, _, ssigns = _load_triangulation(args.south)
    face_signs = None
    if nsigns is not None and ssigns is not None:
        face_signs = {("N", i + 1): s for i, s in enumerate(nsigns)}
        face_signs |= {("S", i + 1): s for i, s in enumerate(ssigns)}
    elif (nsigns is None) != (ssigns is None):
        raise ValueError("either both hemispheres carry signs or neither does")
    sphere = glue(north, south, face_signs)
    _print_json(jsonio.sphere_to_dict(sphere), args.output)
    return 0


def cmd_heawood_check(args) -> int:
    sphere = jsonio.sphere_from_dict(_load_json(args.file))
    bad = heawood_check(sphere)
    _print_json({"ok": not bad, "violations": bad}, args.output)
    return 0


def cmd_four_color(args) -> int:
    sphere = jsonio.sphere_from_dict(_load_json(args.file))
    coloring = four_color(sphere)
    if coloring is None:
        _print_json({"found": False}, args.output)
        return 1
    ok = verify_coloring(sphere, coloring)
    _print_json({"found": True, "verified": ok,
                 "coloring": {str(v): c for v, c in sorted(coloring.items())}}, args.output)
    return 0 if ok else 1


def cmd_graph(args) -> int:
    if args.kind == "flip":
        g = graphs.build_flip_graph(args.n)
    elif args.kind == "cayley":
        g = graphs.build_cayley_graph(args.n)
    elif args.kind == "signed":
        g = graphs.build_signed_state_graph(args.n)
    else:
        if not args.mu:
            raise ValueError("switched graphs need --mu")
        g, _ = graphs.switched_graph(args.n, _parse_mu(args.mu))
    _print_json(jsonio.graph_to_dict(g), args.output)
    return 0


def cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = [report for report, _ in graphs.run_battery(suites, args.n, args.seed)]
    ok = all(r["pass"] for r in reports)
    lines = [jsonio.dumps(r) for r in reports]
    lines.append(jsonio.dumps({"pass": ok, "suites": list(suites), "max_n": args.n}))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def cmd_render(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = json.loads(lines[0]) if lines else None
    if not isinstance(first, dict):
        raise ValueError("expected a JSON object on the first line")
    if "word" in first:
        cert = jsonio.certificate_from_lines(lines)
        svg = render.render_certificate(cert)
    elif "north" in first:
        svg = render.render_sphere(jsonio.sphere_from_dict(first))
    elif "diagonals" in first:
        t, colors, signs = jsonio.triangulation_from_dict(first)
        svg = render.render_triangulation(t, colors=colors, signs=signs)
    else:
        raise ValueError("unrecognized object; expected triangulation, sphere or certificate")
    if args.format == "json":
        _print_json({"svg": svg}, args.output)
    else:
        _emit(svg, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipforge")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument(flag.replace("_", "-") if flag.startswith("--") else flag, **kwargs)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(handler=handler)
        return p

    add("phi", cmd_phi, perm={})
    p = add("readings", cmd_readings, file={})
    p.add_argument("--max-states", type=int, default=1_000_000)
    add("canonical", cmd_canonical, file={})
    add("bigphi", cmd_bigphi, word={})
    p = add("insert-trace", cmd_insert_trace, word={})
    add("std", cmd_std, word={})
    p = add("dstd", cmd_dstd, perm={})
    p.add_argument("--mu", required=True)
    p = add("class", cmd_class, word={})
    p.add_argument("--max-states", type=int, default=1_000_000)
    p = add("flip", cmd_flip, file={})
    p.add_argument("--d", required=True)
    p = add("neighbors", cmd_neighbors, file={})
    p.add_argument("--mode", choices=("plain", "signed", "homogeneous", "switched"), default="plain")
    p = add("signed-path", cmd_signed_path, perm1={}, perm2={})
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--emit-cert", default=None)
    add("check-cert", cmd_check_cert, file={})
    add("sign-path-diagonals", cmd_sign_path_diagonals, file={})
    p = add("glue", cmd_glue)
    p.add_argument("--north", required=True)
    p.add_argument("--south", required=True)
    add("heawood-check", cmd_heawood_check, file={})
    add("four-color", cmd_four_color, file={})
    p = add("graph", cmd_graph)
    p.add_argument("--kind", choices=("flip", "cayley", "signed", "switched"), default="flip")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default=None)
    p = add("verify", cmd_verify)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = add("render", cmd_render, file={})
    p.add_argument("--format", choices=("svg", "json"), default="svg")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
