"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated size and time
budget and prints a single ACCEPTANCE line so the run log shows the
pass/fail roster at a glance.
"""

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from flipforge.graphs import (
    flip_table,
    build_flip_graph,
    catalan,
    compositions,
    fiber_report,
    homogeneous_product_audit,
    signed_reachability_check,
    switched_graph,
)
from flipforge.heawood import four_color, heawood_check, verify_coloring
from flipforge.phi import colored_triangulation_from_word, insertion_trace
from flipforge.signing import (
    Certificate,
    sign_path_diagonals,
    validate_certificate,
)
from flipforge.triangulation import canonical_key
from flipforge.words import destandardize, standardize

from reference import (
    adjacency,
    classify_step,
    commuting_diagram_check,
    path_signable_by_faces,
    sigma_closure,
    signed_states,
    triangulation_from_key,
)
from refdata import CHAIN, CHAIN_KINDS
from test_cli import run_cli
from test_heawood import chain_sphere


@pytest.fixture(name="report")
def _report_fixture(capfd):
    def report(k, desc, ok):
        with capfd.disabled():
            print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
        assert ok, f"acceptance {k} failed: {desc}"

    return report


def cli(*argv):
    proc = run_cli(*argv, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_01_class_command_exact(report):
    t0 = time.monotonic()
    digits = set(cli("class", "235461")["class"])
    letters = set(cli("class", "bbcbca")["class"])
    elapsed = time.monotonic() - t0
    ok = (
        digits == {"235461", "253461", "523461"}
        and letters == {"bbcbca", "bcbbca", "cbbbca"}
        and elapsed < 1.0
    )
    report(1, "class enumeration is exact for 235461 and bbcbca in under 1s", ok)


def test_02_std_dstd(report):
    t0 = time.monotonic()
    std_ok = standardize((2, 1, 3, 2, 2, 1, 3, 4)) == (3, 1, 6, 4, 5, 2, 7, 8)
    dstd_ok = destandardize((3, 1, 6, 7, 2, 4, 8, 5), (2, 3, 2, 1)) == (
        2, 1, 3, 3, 1, 2, 4, 2,
    )
    cli_ok = (
        cli("std", "bacbbacd")["std"] == "3,1,6,4,5,2,7,8"
        and cli("dstd", "31672485", "--mu", "2,3,2,1")["word"] == "baccabdb"
    )
    elapsed = time.monotonic() - t0
    ok = std_ok and dstd_ok and cli_ok and elapsed < 1.0
    report(2, "std(bacbbacd)=31645278 and dstd_(2,3,2,1)(31672485)=baccabdb in under 1s", ok)


def test_03_image_counts_and_fibers(report):
    expected = (1, 2, 5, 14, 42, 132, 429)
    t0 = time.monotonic()
    reports = [fiber_report(n) for n in range(1, 8)]
    elapsed = time.monotonic() - t0
    counts_ok = tuple(r["images"] for r in reports) == expected
    fibers_ok = all(
        r["class_mismatches"] == [] and r["count_matches"] for r in reports
    )
    ok = counts_ok and fibers_ok and elapsed < 120.0
    report(
        3,
        "image counts are 1,2,5,14,42,132,429 for n=1..7 and fibers are"
        " whole exchange classes, n=7 single-threaded in under 2min",
        ok,
    )


def test_04_signed_chain_sphere_coloring(report):
    t0 = time.monotonic()
    cert = Certificate(CHAIN, CHAIN_KINDS)
    cert_report = validate_certificate(cert)
    kinds = tuple(
        classify_step(a, b) for a, b in zip(CHAIN, CHAIN[1:])
    )
    sphere = chain_sphere()
    coloring = four_color(sphere)
    elapsed = time.monotonic() - t0
    ok = (
        cert_report.ok
        and kinds == ("K2", "K2", "K1", "K2", "K1", "K2", "K2", "K2")
        and heawood_check(sphere) == []
        and coloring is not None
        and verify_coloring(sphere, coloring)
        and elapsed < 1.0
    )
    report(
        4,
        "the 8-step worked chain validates with kinds K2,K2,K1,K2,K1,K2,K2,K2"
        " and its glued sphere passes the vertex-sum test and 4-colors, under 1s",
        ok,
    )


def test_05_signed_reachability(report):
    t0 = time.monotonic()
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda n: signed_reachability_check(n, flip_table(n)), range(1, 7)))
    elapsed = time.monotonic() - t0
    ok = (
        all(r["missing_pairs"] == [] and r["pass"] for r in reports)
        and reports[-1]["states"] == 132 * 64
        and elapsed < 300.0
    )
    report(
        5,
        "every signed state pair n<=6 is linked by signed flips through"
        " exchange classes (132 shapes x 64 signings at n=6), 4 threads, under 5min",
        ok,
    )


def test_06_no_triangulation_with_two_signings(report):
    violations = 0
    for n in range(1, 6):
        for state in signed_states(n):
            per_shape = {}
            for seen in sigma_closure(state):
                per_shape.setdefault(canonical_key(seen.tri), set()).add(seen.signs)
            violations += sum(1 for signs in per_shape.values() if len(signs) > 1)
    report(
        6,
        "no closure run n<=5 ever reaches one shape under two distinct signings",
        violations == 0,
    )


def test_07_homogeneous_component_products(report):
    t0 = time.monotonic()
    audits = [homogeneous_product_audit(n, flip_table(n), seed=0) for n in range(1, 7)]
    elapsed = time.monotonic() - t0
    ok = all(a["pass"] and a["failures"] == [] for a in audits) and elapsed < 60.0
    report(
        7,
        "50 seeded colorings per n<=6 all have same-color reach equal to the"
        " product of sub-Catalan numbers, under 1min",
        ok,
    )


def test_08_switched_connectivity_and_square(report):
    t0 = time.monotonic()
    connected_ok = True
    square_ok = True
    for n in range(1, 6):
        for mu in compositions(n, max_parts=3):
            _, g_report = switched_graph(n, mu)
            connected_ok = connected_ok and g_report["connected"]
            d_report = commuting_diagram_check(n, mu)
            square_ok = square_ok and not d_report["square_failures"] and not d_report["edge_failures"]
    elapsed = time.monotonic() - t0
    ok = connected_ok and square_ok and elapsed < 120.0
    report(
        8,
        "mixed-color flip graphs are connected and shape-of-std matches"
        " std-of-shape for every composition of n<=5 into <=3 parts, under 2min",
        ok,
    )


def _loop_free_paths(n, max_len):
    nbrs = adjacency(build_flip_graph(n))
    tris = {key: triangulation_from_key(key) for key in nbrs}
    paths = []

    def extend(path):
        if len(path) > 1:
            paths.append([tris[key] for key in path])
        if len(path) == max_len + 1:
            return
        for nxt in nbrs[path[-1]]:
            if nxt not in path:
                extend(path + [nxt])

    for start in nbrs:
        extend([start])
    return paths


def test_09_diagonal_signing_matches_face_walks(report):
    paths = _loop_free_paths(4, 4)
    disagreements = sum(
        1
        for path in paths
        if sign_path_diagonals(path).signable != path_signable_by_faces(path)
    )
    report(
        9,
        f"diagonal-level path signing agrees with face-sign walks on all"
        f" {len(paths)} loop-free paths of length <=4 at n=4",
        disagreements == 0 and len(paths) > 0,
    )


def test_10_insertion_matches_shape_map(report):
    t0 = time.monotonic()
    violations = 0
    for n in range(1, 7):
        for w in itertools.product((1, 2, 3), repeat=n):
            if insertion_trace(w)[-1] != colored_triangulation_from_word(w):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    report(
        10,
        "letter-by-letter insertion rebuilds the colored shape of every word"
        " with n<=6, p<=3, under 1min",
        ok,
    )
