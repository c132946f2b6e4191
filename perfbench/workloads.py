"""The benchmark's workloads: seeded inputs, the request stream, and the gates.

Each workload yields an endless stream of requests made from its seed.  The
worker executes one request at a time (a closed loop with one client) and
passes the outcome to ``check``, which returns None for a correct outcome
and a one-line reason otherwise.  Gates compare with ``oracles`` (code that
shares nothing with the program) or with a second route through the program
(words against shapes).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from typing import Any, Iterator, NamedTuple

import oracles
from flipforge import cli, graphs, jsonio
from flipforge.phi import readings, triangulation_from_permutation
from flipforge.signing import emit_word_certificate, signable_path_search, validate_certificate
from flipforge.triangulation import Triangulation
from flipforge.words import ClosureCapExceeded, sylvester_class


class Request(NamedTuple):
    kind: str
    argv: list[str]  # the command line; for certify, the one a CLI user would type
    expect: Any


class Outcome(NamedTuple):
    code: int
    out: str
    err: str
    value: Any = None


class Spans:
    """Wall seconds per span name, summed over the run."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.total[name] += time.perf_counter() - t0


def run_cli(argv: list[str]) -> Outcome:
    """One ``flipforge`` invocation in-process, as ``main(argv)`` runs it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue(), err.getvalue())


def refusal_error(o: Outcome) -> str | None:
    lines = o.err.splitlines()
    if o.code != 1 or o.out or len(lines) != 1 or not lines[0].startswith("error:"):
        return f"refusal must be exit 1 with one error: line, got exit {o.code}, stderr {o.err[:80]!r}"
    return None


def word_text(w) -> str:
    return "".join(map(str, w)) if max(w) <= 9 else ",".join(map(str, w))


def parse_text(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if "," in text else tuple(int(c) for c in text)


def cert_text(chain, kinds) -> str:
    """A certificate in the program's JSON-lines format."""
    lines = [json.dumps({"word": list(chain[0])})]
    lines += [json.dumps({"word": list(w), "kind": k}) for w, k in zip(chain[1:], kinds)]
    return "\n".join(lines) + "\n"


def shuffled(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


class Workload:
    name = ""
    trace_items = 0  # requests in each pass of a traced run
    runs_cli = True  # requests go through cli.main

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.smoke = smoke
        self.spans = Spans()
        self.counts: Counter = Counter()

    def warmup(self) -> None:
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def execute(self, req: Request) -> Outcome:
        return run_cli(req.argv)

    def check(self, req: Request, o: Outcome) -> str | None:
        raise NotImplementedError

    @contextlib.contextmanager
    def instrumented(self):
        """Extra spans for a traced run's first pass."""
        yield


# ---------------------------------------------------------------------------
# audit: the whole verification battery through the CLI

KNOWN_COMPONENTS = {1: 2, 2: 6, 3: 20, 4: 68, 5: 224, 6: 726, 7: 2328}
SUITE_SPANS = {
    "signed_reachability_check": "audit.graphs.ref1_s",
    "fiber_report": "audit.graphs.fibers_s",
    "homogeneous_product_audit": "audit.graphs.homogeneous_s",
    "switched_audit": "audit.graphs.switched_s",
    "diagram_audit": "audit.graphs.diagram_s",
}


class Audit(Workload):
    name = "audit"
    trace_items = 1

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.n = 4 if smoke else 7

    def warmup(self):
        run_cli(["verify", "--suite", "all", "--n", "3"])

    def requests(self):
        for _ in itertools.count():
            suite_seed = self.rng.randrange(1 << 30)
            yield Request("verify", ["verify", "--suite", "all", "--n", str(self.n),
                                     "--seed", str(suite_seed)], self.n)

    def check(self, req, o):
        n = req.expect
        if o.code != 0 or o.err:
            return f"verify exited {o.code}: {o.err[:80]!r}"
        try:
            lines = [json.loads(line) for line in o.out.splitlines()]
        except json.JSONDecodeError as exc:
            return f"verify printed non-JSON: {exc}"
        summary, reports = lines[-1], lines[:-1]
        if summary.get("pass") is not True or summary.get("max_n") != n:
            return f"summary is {summary}"
        suites = {(r.get("suite"), r.get("n")) for r in reports}
        wanted = {(s, k) for s in cli.SUITES for k in range(1, n + 1)}
        if len(reports) != len(wanted) or suites != wanted:
            return f"expected one report per suite and size, got {len(reports)}"
        for r in reports:
            if r.get("pass") is not True:
                return f"{r['suite']} n={r['n']} did not pass"
            if r["suite"] == "ref1":
                k = r["n"]
                states = 2 ** k * math.comb(2 * k, k) // (k + 1)
                if r.get("states") != states:
                    return f"ref1 n={k}: {r.get('states')} states, expected 2^n*C(n) = {states}"
                if r.get("components") != KNOWN_COMPONENTS[k]:
                    return f"ref1 n={k}: {r.get('components')} components, expected {KNOWN_COMPONENTS[k]}"
                if k == n:
                    self.counts["graphs.states"] += r["states"]
                    self.counts["graphs.components"] += r["components"]
        return None

    @contextlib.contextmanager
    def instrumented(self):
        original = {name: getattr(graphs, name) for name in SUITE_SPANS}

        def timed(name, fn):
            def wrapper(*args, **kwargs):
                with self.spans(SUITE_SPANS[name]):
                    return fn(*args, **kwargs)
            return wrapper

        for name, fn in original.items():
            setattr(graphs, name, timed(name, fn))
        try:
            yield
        finally:
            for name, fn in original.items():
                setattr(graphs, name, fn)


# ---------------------------------------------------------------------------
# certify: permutation pairs to checked word certificates, through the library

WORKED_PAIR = ((3, 2, 4, 1, 5, 6), (4, 5, 3, 1, 2, 6))
# Every LARGE_EVERY-th pair is at the larger size.  The larger size is then a
# quarter of the pairs and holds p90, at the costlier 40% of its pairs: the
# middle of one distance stratum at n=7.  At one pair in five p90 sits on the
# edge between two strata whose costs differ by half, and it jumps between them.
LARGE_EVERY = 4
GOLDEN = (5 ** 0.5 - 1) / 2


class DistanceStrata:
    """Uniformly random permutation pairs, stratified by flip distance.

    The search cost of a pair is set mostly by the flip distance between
    its two shapes (at n=6 the cost varies by about 20% within one distance
    and by about 70% over all pairs).  Each draw takes the next distance from a
    low-discrepancy walk over the exact distance distribution of random
    pairs, then a random pair at that distance, so every stretch of the
    stream holds the same distance mix and runs differ only within strata.
    """

    def __init__(self, n: int, rng: random.Random):
        self.n, self.rng = n, rng
        perms = list(itertools.permutations(range(1, n + 1)))
        shapes = sorted(set(map(oracles.phi, perms)), key=sorted)
        index = {s: i for i, s in enumerate(shapes)}
        self.shape_of = {p: index[oracles.phi(p)] for p in perms}
        weight = Counter(self.shape_of.values())
        nbrs = [[index[oracles.flip(n, s, d)[0]] for d in s] for s in shapes]
        size = self.size = len(shapes)
        self.dist = bytearray(size * size)  # flip distance of shapes i and j at i*size+j
        mass: Counter = Counter()
        for s in range(size):
            seen, frontier, d = {s}, [s], 0
            while frontier:
                for t in frontier:
                    self.dist[s * size + t] = d
                    mass[d] += weight[s] * weight[t]
                nxt = []
                for u in frontier:
                    for v in nbrs[u]:
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier, d = nxt, d + 1
        self.total = sum(mass.values())
        self.cumulative = list(zip(itertools.accumulate(mass[d] for d in sorted(mass)), sorted(mass)))
        self.u = rng.random()

    def draw(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        self.u = (self.u + GOLDEN) % 1.0
        target = self.u * self.total
        d = next((d for acc, d in self.cumulative if target < acc), self.cumulative[-1][1])
        while True:
            p, q = shuffled(self.rng, self.n), shuffled(self.rng, self.n)
            if self.dist[self.shape_of[p] * self.size + self.shape_of[q]] == d:
                return p, q


class Certify(Workload):
    name = "certify"
    trace_items = 40
    runs_cli = False

    def warmup(self):
        self.execute(self._request(*WORKED_PAIR))

    def _request(self, p, q) -> Request:
        cert_file = os.path.join(self.workdir, "chain.jsonl")
        return Request("pair", ["signed-path", word_text(p), word_text(q), "--emit-cert", cert_file],
                       (p, q))

    def requests(self):
        small, large = (4, 5) if self.smoke else (6, 7)
        strata = {n: DistanceStrata(n, self.rng) for n in (small, large)}

        def stream():
            yield self._request(*WORKED_PAIR)
            for i in itertools.count(1):
                yield self._request(*strata[large if i % LARGE_EVERY == 0 else small].draw())

        return stream()

    def execute(self, req):
        p, q = req.expect
        span = self.spans
        with span("certify.phi.map_s"):
            start, end = triangulation_from_permutation(p), triangulation_from_permutation(q)
        with span("certify.signing.search_s"):
            path = signable_path_search(start, end)
        if path is None:
            return Outcome(1, "", "no signed path found")
        with span("certify.signing.emit_s"):
            cert = emit_word_certificate(path)
        with span("certify.jsonio.cert_io_s"):
            text = "\n".join(jsonio.certificate_to_lines(cert)) + "\n"
            back = jsonio.certificate_from_lines(text.splitlines())
        with span("certify.signing.check_s"):
            report = validate_certificate(back)
        return Outcome(0 if report.ok else 1, text, "", (cert, back, report))

    def check(self, req, o):
        if o.code != 0:
            return f"certificate pipeline failed: {o.err or o.value[2].reason}"
        cert, back, report = o.value
        if (back.chain, back.kinds) != (cert.chain, cert.kinds):
            return "certificate changed in the JSON-lines round trip"
        if not report.ok:
            return f"certificate rejected: {report.reason}"
        problem = oracles.chain_error(back.chain, back.kinds)
        if problem:
            return f"certificate accepted but invalid: {problem}"
        p, q = req.expect
        ends = [tuple(abs(a) for a in w) for w in (back.chain[0], back.chain[-1])]
        if oracles.phi(ends[0]) != oracles.phi(p) or oracles.phi(ends[1]) != oracles.phi(q):
            return "certificate endpoints do not map to the requested shapes"
        self.counts["signing.chain_words"] += len(back.chain)
        return None


# ---------------------------------------------------------------------------
# interactive: a stream of single-object commands, one main(argv) each

# The command mix is declared, not measured: the repository holds no usage
# data, so every command is equally likely and a fixed share of requests is
# one the program must refuse.
COMMANDS = ("phi", "bigphi", "std", "dstd", "class", "readings", "canonical", "flip",
            "neighbors", "check-cert", "glue", "heawood-check", "four-color", "render")
REFUSALS = ("class-capped", "signed-path-capped", "check-cert-tampered")
REFUSAL_SHARE = 0.06
POOL = 12  # objects per size in the file pool


class Interactive(Workload):
    name = "interactive"
    trace_items = 400

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.sizes = range(5, 8) if smoke else range(8, 13)
        # class and readings enumerate a whole class: at most about 3k words at
        # n=10 but 12.6k at n=11 and 45k at n=12, where one request would set
        # the run's latency tail and peak memory by itself
        self.class_sizes = self.sizes[:-2]
        self.capped_sizes = range(7, 9) if smoke else range(12, 15)
        self.tris: dict[int, list[dict]] = {}
        self.spheres: dict[int, list[dict]] = {}
        self.certs: dict[int, list[dict]] = {}
        self.tampered: dict[int, list[str]] = {}

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _pool(self, n: int) -> list[dict]:
        """Input files for size n, written on first use and never inside a timed request."""
        if n not in self.tris:
            self._make_pool(n)
        return self.tris[n]

    def _make_pool(self, n: int) -> None:
        rng = self.rng
        tris, spheres, certs, tampered = [], [], [], []
        for k in range(POOL):
            diags = oracles.phi(shuffled(rng, n))
            signs = tuple(rng.choice((-1, 1)) for _ in range(n))
            data = {"n": n, "diagonals": sorted(map(list, diags)), "signs": list(signs)}
            entry = {"n": n, "diagonals": diags, "signs": signs,
                     "path": self._write(f"t{n}_{k}.json", json.dumps(data))}
            if n in self.class_sizes:
                entry["readings"] = sylvester_class(oracles.greatest_reading(n, diags))
            tris.append(entry)
            mirror = {f"N:{v}": signs[v - 1] for v in range(1, n + 1)}
            mirror |= {f"S:{v}": -signs[v - 1] for v in range(1, n + 1)}
            sphere = {"n": n, "north": data["diagonals"], "south": data["diagonals"], "signs": mirror}
            spheres.append({"n": n, "diagonals": diags, "mirror": True,
                            "path": self._write(f"m{n}_{k}.json", json.dumps(sphere))})
            other = oracles.phi(shuffled(rng, n))
            glued = {"n": n, "north": data["diagonals"], "south": sorted(map(list, other))}
            spheres.append({"n": n, "diagonals": diags | other, "mirror": False,
                            "path": self._write(f"g{n}_{k}.json", json.dumps(glued))})
            chain, kinds = oracles.random_chain(rng, n, rng.randint(4, 16))
            certs.append({"chain": chain, "kinds": kinds,
                          "path": self._write(f"c{n}_{k}.jsonl", cert_text(chain, kinds))})
            tampered.append(self._write(f"x{n}_{k}.jsonl", cert_text(*self._tamper(chain, kinds))))
        self.tris[n], self.spheres[n], self.certs[n], self.tampered[n] = tris, spheres, certs, tampered

    def _tamper(self, chain, kinds) -> tuple[list, list]:
        """A copy of a certificate with one edit that the reference checker rejects."""
        rng = self.rng
        while True:
            chain2, kinds2 = list(chain), list(kinds)
            i = rng.randrange(len(kinds2))
            how = rng.randrange(3)
            if how == 0:
                kinds2[i] = "K1" if kinds2[i] == "K2" else "K2"
            elif how == 1:
                w = list(chain2[i + 1])
                j = rng.randrange(len(w))
                w[j] = -w[j]
                chain2[i + 1] = tuple(w)
            else:
                chain2[i + 1] = chain2[i]
            if oracles.chain_error(chain2, kinds2):
                return chain2, kinds2

    def warmup(self):
        for argv in self.warmup_argvs():
            run_cli(argv)

    def warmup_argvs(self) -> list[list[str]]:
        """One command of each kind on fixed n=8 inputs, without building the pool."""
        perm, other, word = (3, 2, 4, 1, 5, 8, 6, 7), (8, 1, 7, 2, 6, 3, 5, 4), (2, 1, 3, 4, 1, 2, 3, 1)
        diags = sorted(map(list, oracles.phi(perm)))
        tri = {"n": 8, "diagonals": diags, "signs": [1] * 8}  # equal signs: every flip is legal
        mirror = {"n": 8, "north": diags, "south": diags,
                  "signs": {f"{h}:{v}": s for h, s in (("N", 1), ("S", -1)) for v in range(1, 9)}}
        chain, kinds = oracles.random_chain(random.Random(0), 8, 8)
        t, m = self._write("warm_t.json", json.dumps(tri)), self._write("warm_m.json", json.dumps(mirror))
        c = self._write("warm_c.jsonl", cert_text(chain, kinds))
        x = self._write("warm_x.jsonl", cert_text(chain, ["K2" if k == "K1" else "K1" for k in kinds]))
        p, q, w = word_text(perm), word_text(other), word_text(word)
        return [["phi", p], ["bigphi", w], ["std", w],
                ["dstd", word_text(oracles.standardize(word)), "--mu", "3,2,2,1"],
                ["class", p], ["readings", t], ["canonical", t], ["flip", t, "--d", "%d,%d" % tuple(diags[0])],
                ["neighbors", t, "--mode", "signed"], ["check-cert", c], ["glue", "--north", t, "--south", t],
                ["heawood-check", m], ["four-color", m], ["render", t],
                # the refusals, in the order of REFUSALS
                ["class", p, "--max-states", "2"], ["signed-path", p, q, "--max-states", "50"],
                ["check-cert", x]]

    def requests(self):
        for n in self.sizes:
            self._pool(n)

        def stream():
            while True:
                rng = self.rng
                kind = rng.choice(REFUSALS if rng.random() < REFUSAL_SHARE else COMMANDS)
                sizes = self.class_sizes if kind in ("class", "readings") else self.sizes
                yield self._request(kind, rng.choice(sizes))

        return stream()

    def _word(self, n: int) -> tuple[int, ...]:
        """A word using every letter 1..k at least once."""
        k = self.rng.randint(2, min(n, 9))
        w = list(range(1, k + 1)) + [self.rng.randint(1, k) for _ in range(n - k)]
        self.rng.shuffle(w)
        return tuple(w)

    def _request(self, kind: str, n: int) -> Request:
        rng = self.rng
        tri = rng.choice(self._pool(n))
        if kind == "phi":
            p = shuffled(rng, n)
            return Request(kind, ["phi", word_text(p)], oracles.phi(p))
        if kind == "bigphi":
            w = self._word(n)
            return Request(kind, ["bigphi", word_text(w)], (oracles.phi(oracles.standardize(w)), sorted(w)))
        if kind == "std":
            w = self._word(n)
            return Request(kind, ["std", word_text(w)], ",".join(map(str, oracles.standardize(w))))
        if kind == "dstd":
            w = self._word(n)
            mu = ",".join(str(w.count(c)) for c in range(1, max(w) + 1))
            return Request(kind, ["dstd", word_text(oracles.standardize(w)), "--mu", mu], list(w))
        if kind == "class":
            p = shuffled(rng, n)
            return Request(kind, ["class", word_text(p)], p)
        if kind in ("readings", "canonical"):
            return Request(kind, [kind, tri["path"]], tri)
        if kind == "flip":
            tri, d = rng.choice([(t, d) for t in self.tris[n] for d in sorted(t["diagonals"])
                                 if oracles.signed_flip(n, t["diagonals"], t["signs"], d)])
            return Request(kind, ["flip", tri["path"], "--d", f"{d[0]},{d[1]}"], (tri, d))
        if kind == "neighbors":
            mode = rng.choice(("plain", "signed"))
            return Request(kind, ["neighbors", tri["path"], "--mode", mode], (tri, mode))
        if kind == "check-cert":
            cert = rng.choice(self.certs[n])
            return Request(kind, ["check-cert", cert["path"]], cert)
        if kind == "glue":
            south = rng.choice(self.tris[n])
            return Request(kind, ["glue", "--north", tri["path"], "--south", south["path"]], (tri, south))
        if kind == "heawood-check":
            sphere = rng.choice([s for s in self.spheres[n] if s["mirror"]])
            return Request(kind, ["heawood-check", sphere["path"]], sphere)
        if kind == "four-color":
            sphere = rng.choice(self.spheres[n])
            return Request(kind, ["four-color", sphere["path"]], sphere)
        if kind == "render":
            target = rng.choice((tri["path"], rng.choice(self.spheres[n])["path"],
                                 rng.choice(self.certs[n])["path"]))
            return Request(kind, ["render", target], None)
        if kind == "class-capped":
            n = self.capped_sizes[0]
            while True:
                p, cap = shuffled(rng, n), rng.randint(2, 50)
                try:
                    sylvester_class(p, cap=cap)
                except ClosureCapExceeded:
                    return Request(kind, ["class", word_text(p), "--max-states", str(cap)], None)
        if kind == "signed-path-capped":
            n = rng.choice(self.capped_sizes)
            p, q = shuffled(rng, n), shuffled(rng, n)
            while oracles.phi(q) == oracles.phi(p):
                q = shuffled(rng, n)
            cap = 50 if self.smoke else 1000  # below the 2^n signings of the start shape
            return Request(kind, ["signed-path", word_text(p), word_text(q), "--max-states", str(cap)], None)
        if kind == "check-cert-tampered":
            return Request(kind, ["check-cert", rng.choice(self.tampered[n])], None)
        raise ValueError(f"unknown request kind {kind}")

    def check(self, req, o):
        kind, x = req.kind, req.expect
        if kind in ("class-capped", "signed-path-capped"):
            return refusal_error(o)
        if kind == "check-cert-tampered":
            if o.code != 1 or json.loads(o.out or "{}").get("ok") is not False:
                return f"tampered certificate not refused: exit {o.code}"
            return None
        if o.code != 0 or o.err:
            return f"{kind} exited {o.code}: {o.err[:80]!r}"
        if kind == "render":
            try:
                root = ET.fromstring(o.out)
            except ET.ParseError as exc:
                return f"render output is not XML: {exc}"
            return None if root.tag.endswith("svg") else f"render root is {root.tag}"
        try:
            out = json.loads(o.out)
        except json.JSONDecodeError as exc:
            return f"{kind} printed non-JSON: {exc}"
        return getattr(self, "_check_" + kind.replace("-", "_"))(x, out)

    @staticmethod
    def _diagonals(data) -> frozenset:
        return frozenset(tuple(d) for d in data["diagonals"])

    def _check_phi(self, diags, out):
        return None if self._diagonals(out) == diags else "phi gave the wrong triangulation"

    def _check_bigphi(self, x, out):
        diags, colors = x
        if self._diagonals(out) != diags or out.get("colors") != colors:
            return "bigphi gave the wrong colored triangulation"
        return None

    def _check_std(self, std, out):
        return None if out.get("std") == std else f"std gave {out.get('std')}, expected {std}"

    def _check_dstd(self, word, out):
        return None if out.get("letters") == word else "dstd(std w, mu) did not give back w"

    def _check_class(self, p, out):
        members = {parse_text(w) for w in out["class"]}
        t = Triangulation(len(p), tuple(sorted(oracles.phi(p))))
        if out["count"] != len(members) or members != readings(t):
            return "class of p differs from the readings of phi(p)"
        self.counts["words.class_members"] += len(members)
        return None

    def _check_readings(self, tri, out):
        words = {parse_text(w) for w in out["readings"]}
        if out["count"] != len(words) or words != tri["readings"]:
            return "readings differ from the class of a reading"
        self.counts["phi.readings_words"] += len(words)
        return None

    def _check_canonical(self, tri, out):
        word = parse_text(out["canonical"])
        best = max(tri["readings"]) if "readings" in tri else None
        if word != oracles.greatest_reading(tri["n"], tri["diagonals"]) or best not in (None, word):
            return "canonical is not the greatest reading"
        return None

    def _check_flip(self, x, out):
        tri, d = x
        diags, signs = oracles.signed_flip(tri["n"], tri["diagonals"], tri["signs"], d)
        if self._diagonals(out) != diags or tuple(out.get("signs", ())) != signs:
            return "flip gave the wrong signed triangulation"
        return None

    def _check_neighbors(self, x, out):
        tri, mode = x
        n, diags, signs = tri["n"], tri["diagonals"], tri["signs"]
        if mode == "plain":
            want = {(oracles.flip(n, diags, d)[0], None) for d in diags}
        else:
            want = {r for r in (oracles.signed_flip(n, diags, signs, d) for d in diags) if r}
        got = {(self._diagonals(t), tuple(t["signs"]) if "signs" in t else None)
               for t in out["neighbors"]}
        if out["count"] != len(want) or got != want:
            return f"{mode} neighbors differ from the reference flips"
        return None

    def _check_check_cert(self, cert, out):
        ends = [",".join(str(abs(a)) for a in w) for w in (cert["chain"][0], cert["chain"][-1])]
        if (out.get("ok"), out.get("words"), out.get("kinds"), out.get("endpoints")) != \
                (True, len(cert["chain"]), cert["kinds"], ends):
            return f"valid certificate reported as {out}"
        return None

    def _check_glue(self, x, out):
        north, south = x
        signs = {f"N:{v}": s for v, s in enumerate(north["signs"], 1)}
        signs |= {f"S:{v}": s for v, s in enumerate(south["signs"], 1)}
        if (frozenset(map(tuple, out["north"])), frozenset(map(tuple, out["south"])), out.get("signs")) \
                != (north["diagonals"], south["diagonals"], signs):
            return "glue gave the wrong sphere"
        return None

    def _check_heawood_check(self, sphere, out):
        if out.get("ok") is not True or out.get("violations") != []:
            return "a mirror sphere failed the Heawood check"
        return None

    def _check_four_color(self, sphere, out):
        n = sphere["n"]
        coloring = {int(v): c for v, c in out.get("coloring", {}).items()}
        if not out.get("found") or not out.get("verified") or set(coloring) != set(range(n + 2)):
            return "four-color found no complete coloring"
        if any(c not in range(4) for c in coloring.values()):
            return "four-color used a color outside 0..3"
        for a, b in oracles.edges(n, sphere["diagonals"]):
            if coloring[a] == coloring[b]:
                return f"four-color gave edge {a}-{b} one color"
        return None


WORKLOADS = {w.name: w for w in (Audit, Certify, Interactive)}
