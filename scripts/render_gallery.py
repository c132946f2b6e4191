#!/usr/bin/env python3
"""Render an SVG gallery: every triangulation of a given size, plus one
mirror-glued sphere per shape when --spheres is set.

Example:
    python scripts/render_gallery.py --n 4 --out gallery
"""

import argparse
import pathlib
import sys

from flipforge.graphs import size_limit
from flipforge.heawood import mirror_sphere
from flipforge.render import render_sphere, render_triangulation
from flipforge.triangulation import all_triangulations, canonical_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--out", default="gallery")
    parser.add_argument("--spheres", action="store_true",
                        help="also render a mirror-glued sphere per shape")
    args = parser.parse_args()

    try:
        cap = size_limit()
        if not 0 <= args.n <= cap:
            raise ValueError(f"--n must lie in 0..{cap}, got {args.n}; "
                             "set FLIPFORGE_MAX_N to raise the cap")
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    out = pathlib.Path(args.out)
    count = 0
    try:
        out.mkdir(parents=True, exist_ok=True)
        for t in all_triangulations(args.n):
            stem = canonical_key(t).replace(":", "_").replace(";", "-")
            (out / f"{stem}.svg").write_text(render_triangulation(t), encoding="utf-8")
            count += 1
            if args.spheres:
                eps = tuple(1 if i % 2 else -1 for i in range(1, args.n + 1))
                svg = render_sphere(mirror_sphere(t, eps))
                (out / f"{stem}.sphere.svg").write_text(svg, encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write the gallery to {out}: {exc}\n")
        return 1
    print(f"wrote {count * (2 if args.spheres else 1)} SVG files to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
