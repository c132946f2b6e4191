"""Command line front end.

Exit codes: 0 on success, 1 on domain errors (invalid objects, failed
checks), 2 on usage errors.  Each command returns (exit code, result), the
result a JSON value or a finished text (JSON lines, SVG); `main` writes it
once, to stdout or to the -o file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import flips, graphs, jsonio, render
from .graphs import SUITES
from .heawood import SphereTriangulation, four_color, heawood_check, verify_coloring
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


def cmd_phi(args) -> tuple[int, object]:
    perm = parse_word(args.perm)
    t = triangulation_from_permutation(perm)
    return 0, jsonio.triangulation_to_dict(t)


def cmd_readings(args) -> tuple[int, object]:
    t, _, _ = _load_triangulation(args.file)
    if args.max_states < 1:
        raise ValueError(f"readings cap must be at least 1, got {args.max_states}")
    count = reading_count(t)
    if count > args.max_states:
        raise ValueError(f"the {count} readings of {canonical_key(t)} exceed cap {args.max_states}")
    words = sorted(readings(t))
    return 0, {"key": canonical_key(t), "count": len(words),
               "readings": [",".join(map(str, w)) for w in words]}


def cmd_canonical(args) -> tuple[int, object]:
    t, _, _ = _load_triangulation(args.file)
    word = canonical_reading(t)
    return 0, {"key": canonical_key(t), "canonical": ",".join(map(str, word))}


def cmd_bigphi(args) -> tuple[int, object]:
    word = parse_word(args.word)
    t, eps = colored_triangulation_from_word(word)
    return 0, jsonio.triangulation_to_dict(t, colors=eps)


def cmd_insert_trace(args) -> tuple[int, object]:
    word = parse_word(args.word)
    lines = [jsonio.dumps(jsonio.triangulation_to_dict(t, colors=eps))
             for t, eps in insertion_trace(word)]
    return 0, "\n".join(lines) + "\n"


def cmd_std(args) -> tuple[int, object]:
    word = parse_word(args.word)
    return 0, {"std": ",".join(map(str, standardize(word)))}


def cmd_dstd(args) -> tuple[int, object]:
    perm = parse_word(args.perm)
    mu = _parse_mu(args.mu)
    word = destandardize(perm, mu)
    return 0, {"word": format_word(word, "a"), "letters": list(word)}


def cmd_class(args) -> tuple[int, object]:
    word = parse_word(args.word)
    members = sorted(sylvester_class(word, cap=args.max_states))
    return 0, {"count": len(members), "class": [format_word(w, args.word) for w in members]}


def cmd_flip(args) -> tuple[int, object]:
    t, colors, signs = _load_triangulation(args.file)
    d = _parse_diagonal(args.d)
    table = flips.ShapeTable([t])
    entry = next((entry for entry in table.row(0) if entry[4] == d), None)
    if entry is None:
        raise ValueError(f"{d} is not a diagonal of {t.diagonals}")
    j, _, b, c, _ = entry
    if signs is None:
        return 0, jsonio.triangulation_to_dict(table.shape(j), colors=colors)
    signs2 = flips.flip_signs(signs, b, c)
    if signs2 is None:
        return 1, {"refused": True, "reason": "faces at the diagonal carry opposite signs"}
    return 0, jsonio.triangulation_to_dict(table.shape(j), colors=colors, signs=signs2)


def cmd_neighbors(args) -> tuple[int, object]:
    t, colors, signs = _load_triangulation(args.file)
    mode = args.mode
    if mode == "signed" and signs is None:
        raise ValueError("signed neighbors need a 'signs' entry")
    if mode in ("homogeneous", "switched") and colors is None:
        raise ValueError(f"{mode} neighbors need a 'colors' entry")
    table = flips.ShapeTable([t])
    if mode == "switched" and not table.simple(colors):
        raise ValueError("switched flips are only defined between simple colored triangulations")
    row = table.row(0)  # adds the results to the table before simple() reads it
    if mode == "plain":
        moves = [(j, {}) for j, *_ in row]
    elif mode == "signed":
        moves = [(j, {"signs": signs2}) for j, _, b, c, _ in row
                 if (signs2 := flips.flip_signs(signs, b, c)) is not None]
    elif mode == "homogeneous":
        moves = [(j, {"colors": colors}) for j, _, b, c, _ in row if colors[b - 1] == colors[c - 1]]
    else:
        simple = set(table.simple(colors))
        moves = [(j, {"colors": colors}) for j, _, b, c, _ in row
                 if colors[b - 1] != colors[c - 1] and j in simple]
    out = [jsonio.triangulation_to_dict(table.shape(j), **extra) for j, extra in moves]
    return 0, {"mode": mode, "count": len(out), "neighbors": out}


def cmd_signed_path(args) -> tuple[int, object]:
    start = triangulation_from_permutation(parse_word(args.perm1))
    end = triangulation_from_permutation(parse_word(args.perm2))
    path = signable_path_search(start, end, args.max_states)
    if path is None:
        return 1, {"found": False}
    report = {
        "found": True,
        "start_key": canonical_key(start),
        "end_key": canonical_key(end),
        "eps": list(path.start.signs),
        "eps_prime": list(path.end.signs),
        "flips": [list(d) for d in path.flips],
        "length": len(path) - 1,
    }
    if args.emit_cert:
        cert = emit_word_certificate(path)
        with open(args.emit_cert, "w", encoding="utf-8") as fh:
            fh.write("\n".join(jsonio.certificate_to_lines(cert)) + "\n")
        report["certificate"] = args.emit_cert
        report["certificate_ok"] = validate_certificate(cert).ok
    return 0, report


def cmd_check_cert(args) -> tuple[int, object]:
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
    return (0 if report.ok else 1), payload


def cmd_sign_path_diagonals(args) -> tuple[int, object]:
    data = _load_json(args.file)
    if not isinstance(data, dict) or "n" not in data or not isinstance(data.get("path"), list):
        raise ValueError('path file must contain {"n": ..., "path": [[diagonals], ...]}')
    steps = ({"n": data["n"], "diagonals": diagonals} for diagonals in data["path"])
    path = [jsonio.triangulation_from_dict(step)[0] for step in steps]
    result = sign_path_diagonals(path)
    if not result.signable:
        return 0, {"signable": False, "failed_step": result.failed_step}
    return 0, {
        "signable": True,
        "signings": [
            {f"{i}-{j}": s for (i, j), s in sorted(ds.signs.items())} for ds in result.signings
        ],
    }


def cmd_glue(args) -> tuple[int, object]:
    north, _, nsigns = _load_triangulation(args.north)
    south, _, ssigns = _load_triangulation(args.south)
    if (nsigns is None) != (ssigns is None):
        raise ValueError("either both hemispheres carry signs or neither does")
    sphere = SphereTriangulation(north, south, None if nsigns is None else (nsigns, ssigns))
    return 0, jsonio.sphere_to_dict(sphere)


def cmd_heawood_check(args) -> tuple[int, object]:
    sphere = jsonio.sphere_from_dict(_load_json(args.file))
    bad = heawood_check(sphere)
    return 0, {"ok": not bad, "violations": bad}


def cmd_four_color(args) -> tuple[int, object]:
    sphere = jsonio.sphere_from_dict(_load_json(args.file))
    coloring = four_color(sphere)
    if coloring is None:
        return 1, {"found": False}
    ok = verify_coloring(sphere, coloring)
    return (0 if ok else 1), {"found": True, "verified": ok,
                              "coloring": {str(v): c for v, c in sorted(coloring.items())}}


def cmd_graph(args) -> tuple[int, object]:
    if args.mu is not None and args.kind != "switched":
        raise ValueError(f"--mu applies only to --kind switched, not {args.kind}")
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
    return 0, g


def cmd_verify(args) -> tuple[int, object]:
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = [report for report, _ in graphs.run_battery(suites, args.n, args.seed)]
    ok = all(r["pass"] for r in reports)
    lines = [jsonio.dumps(r) for r in reports]
    lines.append(jsonio.dumps({"pass": ok, "suites": list(suites), "max_n": args.n}))
    return (0 if ok else 1), "\n".join(lines) + "\n"


def cmd_render(args) -> tuple[int, object]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read().lstrip()
    # the first JSON object, on one line or many; a certificate is JSON lines
    first, _ = json.JSONDecoder().raw_decode(text)
    if not isinstance(first, dict):
        raise ValueError("expected a JSON object")
    if "word" in first:
        cert = jsonio.certificate_from_lines(text.splitlines())
        svg = render.render_certificate(cert)
    elif "north" in first:
        svg = render.render_sphere(jsonio.sphere_from_dict(first))
    elif "diagonals" in first:
        t, colors, signs = jsonio.triangulation_from_dict(first)
        svg = render.render_triangulation(t, colors=colors, signs=signs)
    else:
        raise ValueError("unrecognized object; expected triangulation, sphere or certificate")
    return 0, ({"svg": svg} if args.format == "json" else svg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipforge")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *positionals):
        p = sub.add_parser(name)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(handler=handler)
        return p

    add("phi", cmd_phi, "perm")
    p = add("readings", cmd_readings, "file")
    p.add_argument("--max-states", type=int, default=1_000_000)
    add("canonical", cmd_canonical, "file")
    add("bigphi", cmd_bigphi, "word")
    add("insert-trace", cmd_insert_trace, "word")
    add("std", cmd_std, "word")
    p = add("dstd", cmd_dstd, "perm")
    p.add_argument("--mu", required=True)
    p = add("class", cmd_class, "word")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p = add("flip", cmd_flip, "file")
    p.add_argument("--d", required=True)
    p = add("neighbors", cmd_neighbors, "file")
    p.add_argument("--mode", choices=("plain", "signed", "homogeneous", "switched"), default="plain")
    p = add("signed-path", cmd_signed_path, "perm1", "perm2")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--emit-cert", default=None)
    add("check-cert", cmd_check_cert, "file")
    add("sign-path-diagonals", cmd_sign_path_diagonals, "file")
    p = add("glue", cmd_glue)
    p.add_argument("--north", required=True)
    p.add_argument("--south", required=True)
    add("heawood-check", cmd_heawood_check, "file")
    add("four-color", cmd_four_color, "file")
    p = add("graph", cmd_graph)
    p.add_argument("--kind", choices=("flip", "cayley", "signed", "switched"), default="flip")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default=None)
    p = add("verify", cmd_verify)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = add("render", cmd_render, "file")
    p.add_argument("--format", choices=("svg", "json"), default="svg")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = args.handler(args)
        _emit(result if isinstance(result, str) else jsonio.dumps(result), args.output)
        return code
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
