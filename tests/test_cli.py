"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import pytest

from flipforge import cli, flips, graphs
from flipforge.cli import main
from flipforge.phi import colored_triangulation_from_word
from flipforge.triangulation import is_simple

from reference import flip_row, signed_moves
from refdata import CATALAN, CHAIN, PHI_235461, READINGS_235461

SPHERE_LIST_SIGNS = json.dumps(
    {"n": 3, "north": [[0, 2], [0, 3]], "south": [[0, 2], [0, 3]], "signs": [1]}
)
SPHERE_SIGNED = json.dumps(
    {"n": 3, "north": [[0, 2], [0, 3]], "south": [[0, 2], [0, 3]],
     "signs": {f"{h}:{k}": 1 for h in "NS" for k in (1, 2, 3)}}
)

SPHERE_PARTLY_SIGNED = json.dumps(
    {"n": 3, "north": [[0, 2], [0, 3]], "south": [[0, 2], [0, 3]],
     "signs": {f"{h}:{k}": 1 for h in "NS" for k in (1, 2, 3) if (h, k) != ("N", 2)}}
)


def run_cli(*argv, **kwargs):
    # The CLI in a child interpreter: works from a checkout with PYTHONPATH=src,
    # where no `flipforge` console script is on PATH.
    return subprocess.run(
        [sys.executable, "-m", "flipforge.cli", *argv], capture_output=True, **kwargs
    )


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestWordCommands:
    def test_phi(self, capsys):
        data = run_json(capsys, "phi", "235461")
        assert data == {"n": 6, "diagonals": [sorted(d) for d in sorted(PHI_235461)]}

    def test_readings(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        assert main(["phi", "235461", "-o", str(t_file)]) == 0
        capsys.readouterr()
        data = run_json(capsys, "readings", str(t_file))
        assert data["readings"] == ["2,3,5,4,6,1", "2,5,3,4,6,1", "5,2,3,4,6,1"]
        assert data["count"] == 3
        assert data["key"] == "6:1-3;1-4;1-6;1-7;4-6"

    def test_readings_cap_refuses_before_enumerating(self, capsys, tmp_path, monkeypatch):
        t_file = tmp_path / "t.json"
        # n=12, shaped as a balanced binary tree: 12! / prod(z - x - 1) = 55,440 readings
        assert main(["phi", "12,10,8,5,2,11,7,4,1,9,3,6", "-o", str(t_file)]) == 0
        capsys.readouterr()
        assert run_json(capsys, "readings", str(t_file), "--max-states", "55440")["count"] == 55440

        def unreachable(t):
            raise AssertionError("readings enumerated past the cap")

        monkeypatch.setattr(cli, "readings", unreachable)
        for cap, text in (("55439", "55440 readings"), ("0", "at least 1")):
            code, out, err = run(capsys, "readings", str(t_file), "--max-states", cap)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and text in err and len(err.splitlines()) == 1

    def test_readings_of_a_long_shape(self, capsys, tmp_path):
        # the face tree of the identity at n=600 is a path 600 faces deep
        t_file = tmp_path / "t.json"
        assert main(["phi", ",".join(map(str, range(1, 601))), "-o", str(t_file)]) == 0
        capsys.readouterr()
        data = run_json(capsys, "readings", str(t_file))
        assert data["count"] == 1
        assert data["readings"] == [",".join(map(str, range(1, 601)))]

    def test_canonical(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        assert main(["phi", "235461", "-o", str(t_file)]) == 0
        capsys.readouterr()
        data = run_json(capsys, "canonical", str(t_file))
        assert data["canonical"] == "5,2,3,4,6,1"

    def test_class_letters_and_digits(self, capsys):
        assert run_json(capsys, "class", "bbcbca")["class"] == [
            "bbcbca",
            "bcbbca",
            "cbbbca",
        ]
        assert run_json(capsys, "class", "235461")["class"] == [
            "235461",
            "253461",
            "523461",
        ]

    def test_std_dstd(self, capsys):
        assert run_json(capsys, "std", "bacbbacd")["std"] == "3,1,6,4,5,2,7,8"
        data = run_json(capsys, "dstd", "31672485", "--mu", "2,3,2,1")
        assert data["word"] == "baccabdb"

    def test_bigphi(self, capsys):
        data = run_json(capsys, "bigphi", "bbcbca")
        assert data["colors"] == [1, 2, 2, 2, 3, 3]
        assert data["n"] == 6

    def test_bigphi_huge_letter(self, capsys):
        # the coloring is the sorted word, with no list as long as its largest letter
        data = run_json(capsys, "bigphi", "1,100000000000000000000")
        assert data["colors"] == [1, 100000000000000000000]
        assert data["n"] == 2

    def test_insert_trace(self, capsys):
        code, out, _ = run(capsys, "insert-trace", "bbcbca")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 7
        assert lines[0] == {"colors": [], "diagonals": [], "n": 0}
        assert lines[-1]["colors"] == [1, 2, 2, 2, 3, 3]


class TestTriangulationCommands:
    def test_flip_roundtrip(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        assert main(["phi", "235461", "-o", str(t_file)]) == 0
        capsys.readouterr()
        data = run_json(capsys, "flip", str(t_file), "--d", "1,4")
        assert data["n"] == 6
        assert len(data["diagonals"]) == 5

    def test_signed_flip_refusal(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        t_file.write_text(json.dumps({"n": 2, "diagonals": [[0, 2]], "signs": [1, -1]}))
        code, out, _ = run(capsys, "flip", str(t_file), "--d", "0,2")
        assert code == 1
        assert json.loads(out)["refused"]

    def test_signed_flip_refusal_goes_to_the_output_file(self, capsys, tmp_path):
        t_file, out_file = tmp_path / "t.json", tmp_path / "out.json"
        t_file.write_text(json.dumps({"n": 3, "diagonals": [[0, 2], [0, 3]], "signs": [1, -1, 1]}))
        code, out, err = run(capsys, "flip", str(t_file), "--d", "0,2", "-o", str(out_file))
        assert (code, out, err) == (1, "", "")
        assert json.loads(out_file.read_text())["refused"]

    def test_neighbors_modes(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        t_file.write_text(
            json.dumps({"n": 3, "diagonals": [[0, 2], [0, 3]], "colors": [1, 1, 2]})
        )
        plain = run_json(capsys, "neighbors", str(t_file), "--mode", "plain")
        assert len(plain["neighbors"]) == 2
        homog = run_json(capsys, "neighbors", str(t_file), "--mode", "homogeneous")
        switched = run_json(capsys, "neighbors", str(t_file), "--mode", "switched")
        assert len(homog["neighbors"]) + len(switched["neighbors"]) <= 2


    def test_neighbors_match_the_oracle_at_n12(self, capsys, tmp_path):
        def entry(t2, **extra):
            return {"n": 12, "diagonals": [list(d) for d in t2.diagonals],
                    **{key: list(v) for key, v in extra.items()}}

        rng = random.Random(12)
        for k in range(4):
            t, eps = colored_triangulation_from_word(tuple(rng.randint(1, 4) for _ in range(12)))
            signs = tuple(rng.choice((-1, 1)) for _ in range(12))
            t_file = tmp_path / f"t{k}.json"
            t_file.write_text(json.dumps(entry(t, colors=eps, signs=signs)))
            row = flip_row(t)
            want = {
                "plain": [entry(t2) for _, t2, _, _ in row],
                "signed": [entry(t2, signs=s2) for _, t2, s2 in signed_moves(row, signs)],
                "homogeneous": [entry(t2, colors=eps) for _, t2, b, c in row
                                if eps[b - 1] == eps[c - 1]],
                "switched": [entry(t2, colors=eps) for _, t2, b, c in row
                             if eps[b - 1] != eps[c - 1] and is_simple(t2, eps)],
            }
            for mode, neighbors in want.items():
                data = run_json(capsys, "neighbors", str(t_file), "--mode", mode)
                assert data == {"mode": mode, "count": len(neighbors), "neighbors": neighbors}

class TestPathCommands:
    def test_signed_path_with_certificate(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.jsonl"
        data = run_json(
            capsys, "signed-path", "324156", "453126", "--emit-cert", str(cert_file)
        )
        assert data["found"]
        assert data["length"] == 6
        assert data["certificate_ok"]
        code, out, _ = run(capsys, "check-cert", str(cert_file))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_check_cert_rejects_tampering(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.jsonl"
        lines = [json.dumps({"word": list(CHAIN[0])})]
        lines += [
            json.dumps({"word": list(w), "kind": k})
            for w, k in zip(CHAIN[1:], ("K2", "K2", "K1", "K2", "K1", "K2", "K2", "K2"))
        ]
        cert_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check-cert", str(cert_file))
        assert code == 0 and json.loads(out)["ok"]
        # flip one sign so a step stops being authorized
        bad = json.loads(lines[1])
        bad["word"][0] = -bad["word"][0]
        lines[1] = json.dumps(bad)
        cert_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check-cert", str(cert_file))
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_sign_path_diagonals(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(
                {
                    "n": 4,
                    "path": [
                        [[0, 2], [0, 3], [0, 4]],
                        [[0, 2], [0, 4], [2, 4]],
                        [[0, 2], [2, 4], [2, 5]],
                    ],
                }
            )
        )
        data = run_json(capsys, "sign-path-diagonals", str(good))
        assert data["signable"]
        assert len(data["signings"]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 3,
                    "path": [
                        [[0, 2], [0, 3]],
                        [[1, 3], [0, 3]],
                        [[1, 3], [1, 4]],
                        [[2, 4], [1, 4]],
                    ],
                }
            )
        )
        data = run_json(capsys, "sign-path-diagonals", str(bad))
        assert data == {"signable": False, "failed_step": 2}


class TestSphereCommands:
    @pytest.fixture()
    def sphere_file(self, capsys, tmp_path):
        north = tmp_path / "north.json"
        south = tmp_path / "south.json"
        assert main(["phi", "453126", "-o", str(north)]) == 0
        assert main(["phi", "324156", "-o", str(south)]) == 0
        capsys.readouterr()
        for path, signs in ((north, [1, 1, 1, -1, -1, 1]), (south, [-1, -1, 1, 1, -1, -1])):
            data = json.loads(path.read_text())
            data["signs"] = signs
            path.write_text(json.dumps(data))
        out = tmp_path / "sphere.json"
        assert main(["glue", "--north", str(north), "--south", str(south), "-o", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_glue_heawood_four_color(self, capsys, sphere_file):
        sphere = json.loads(sphere_file.read_text())
        assert sphere["n"] == 6
        assert len(sphere["signs"]) == 12
        data = run_json(capsys, "heawood-check", str(sphere_file))
        assert data == {"ok": True, "violations": []}
        data = run_json(capsys, "four-color", str(sphere_file))
        assert data["found"] and data["verified"]
        assert len(data["coloring"]) == 8

    def test_heawood_without_signs_fails(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(
            json.dumps({"n": 2, "north": [[0, 2]], "south": [[1, 3]]})
        )
        code, _, err = run(capsys, "heawood-check", str(bare))
        assert code == 1
        assert "sign" in err

    def test_glue_sign_mismatch_rejected(self, capsys, tmp_path):
        north = tmp_path / "n.json"
        south = tmp_path / "s.json"
        north.write_text(json.dumps({"n": 2, "diagonals": [[0, 2]], "signs": [1, 1]}))
        south.write_text(json.dumps({"n": 2, "diagonals": [[0, 2]]}))
        code, _, err = run(capsys, "glue", "--north", str(north), "--south", str(south))
        assert code == 1
        assert "both" in err


class TestGraphAndVerify:
    def test_graph_flip(self, capsys):
        data = run_json(capsys, "graph", "--kind", "flip", "--n", "3")
        assert data["kind"] == "flip"
        assert len(data["vertices"]) == 5
        assert len(data["edges"]) == 5

    def test_graph_switched_requires_mu(self, capsys):
        data = run_json(capsys, "graph", "--kind", "switched", "--n", "4", "--mu", "2,2")
        assert len(data["vertices"]) == 3
        assert len(data["edges"]) == 2

    def test_verify_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fibers", "--n", "4")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["pass"] is True
        assert lines[-1]["suites"] == ["fibers"]
        assert [r["n"] for r in lines[:-1]] == [1, 2, 3, 4]

    def test_verify_all_threaded(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "3")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["pass"] is True
        assert summary["suites"] == ["ref1", "fibers", "homogeneous", "switched", "diagram"]

    def test_verify_builds_each_table_and_row_once(self, capsys, monkeypatch):
        tables, rows = [], []
        real_table, real_quads = graphs.flip_table, flips._quads

        def counting_table(n):
            tables.append(n)
            return real_table(n)

        def counting_quads(t):  # one call per row built
            rows.append(t)
            return real_quads(t)

        monkeypatch.setattr(graphs, "flip_table", counting_table)
        monkeypatch.setattr(flips, "_quads", counting_quads)
        counts = []
        for _ in range(2):  # a table that outlived one battery would make the second cheaper
            tables.clear()
            rows.clear()
            assert run(capsys, "verify", "--suite", "all", "--n", "6")[0] == 0
            counts.append((len(tables), len(rows)))
            assert tables == [1, 2, 3, 4, 5, 6]  # one table per size, shared by the suites
            assert len(rows) == len(set(rows)) == sum(CATALAN[1:7])  # ref1 reads every row once
        assert counts[0] == counts[1]

    def test_verify_writes_to_the_output_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "4", "--seed", "2")
        assert code == 0 and out
        f = tmp_path / "verify.jsonl"
        code, out_with_file, err = run(capsys, "verify", "--suite", "all", "--n", "4",
                                       "--seed", "2", "-o", str(f))
        assert (code, out_with_file, err) == (0, "", "")
        assert f.read_bytes() == out.encode()

    def test_verify_seeded(self, capsys):
        a = run(capsys, "verify", "--suite", "homogeneous", "--n", "3", "--seed", "5")
        b = run(capsys, "verify", "--suite", "homogeneous", "--n", "3", "--seed", "5")
        assert a == b


class TestRender:
    def test_svg_outputs_are_deterministic_and_well_formed(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        t_file.write_text(
            json.dumps({"n": 3, "diagonals": [[0, 2], [0, 3]], "colors": [1, 1, 2]})
        )
        outs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert main(["render", str(t_file), "-o", str(out)]) == 0
            capsys.readouterr()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        xml.dom.minidom.parseString(outs[0])

    def test_render_autodetects_spheres_and_certificates(self, capsys, tmp_path):
        sphere = tmp_path / "s.json"
        sphere.write_text(
            json.dumps(
                {
                    "n": 2,
                    "north": [[0, 2]],
                    "south": [[1, 3]],
                    "signs": {f"{h}:{i}": 1 for h in "NS" for i in (1, 2)},
                }
            )
        )
        code, out, _ = run(capsys, "render", str(sphere))
        assert code == 0
        xml.dom.minidom.parseString(out)
        cert = tmp_path / "c.jsonl"
        lines = [json.dumps({"word": list(CHAIN[0])})]
        lines += [
            json.dumps({"word": list(w), "kind": k})
            for w, k in zip(CHAIN[1:], ("K2", "K2", "K1", "K2", "K1", "K2", "K2", "K2"))
        ]
        cert.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "render", str(cert))
        assert code == 0
        xml.dom.minidom.parseString(out)
        assert out.count("<svg") == 1

    def test_render_json_format_echoes_object(self, capsys, tmp_path):
        t_file = tmp_path / "t.json"
        t_file.write_text(json.dumps({"n": 2, "diagonals": [[0, 2]]}))
        data = run_json(capsys, "render", str(t_file), "--format", "json")
        assert data["svg"].startswith("<svg")


class TestErrorHandling:
    def test_unparsable_word(self, capsys):
        code, _, err = run(capsys, "phi", "1234567890XYZ")
        assert code == 1
        assert "error" in err

    def test_class_cap(self, capsys):
        code, _, err = run(capsys, "class", "bbcbca", "--max-states", "1")
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["class", "abc", "--max-states", "-5"],
            ["class", "abc", "--max-states", "0"],
            ["signed-path", "123", "123", "--max-states", "-1"],
            ["signed-path", "123", "123", "--max-states", "0"],
        ],
        ids=["class-negative", "class-zero", "signed-path-negative", "signed-path-zero"],
    )
    def test_cap_below_one_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_env_cap_gates_enumeration(self, capsys, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "3")
        code, _, err = run(capsys, "graph", "--kind", "flip", "--n", "6")
        assert code == 1
        assert "FLIPFORGE_MAX_N" in err

    def test_env_cap_that_is_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("FLIPFORGE_MAX_N", "abc")
        code, out, err = run(capsys, "verify", "--n", "2")
        assert (code, out) == (1, "")
        assert err == "error: FLIPFORGE_MAX_N must be an integer, got 'abc'\n"

    # T stands for a triangulation file with neither colors nor signs
    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--kind", "switched", "--n", "3", "--mu", "a,b"],
            ["graph", "--kind", "switched", "--n", "3", "--mu", "0,3"],
            ["graph", "--kind", "switched", "--n", "3", "--mu", "1,1"],
            ["graph", "--kind", "switched", "--n", "3"],
            ["graph", "--kind", "flip", "--n", "-1"],
            ["flip", "T", "--d", "1,2,3"],
            ["neighbors", "T", "--mode", "signed"],
            ["neighbors", "T", "--mode", "homogeneous"],
            ["neighbors", "T", "--mode", "switched"],
            ["signed-path", "12", "123"],
            ["dstd", "213", "--mu", "2,x"],
            ["dstd", "113", "--mu", "1,2"],
            ["graph", "--kind", "flip", "--n", "3", "--mu", "1,2"],
            ["graph", "--kind", "cayley", "--n", "3", "--mu", "9,9"],
        ],
        ids=["mu-not-numbers", "mu-zero-part", "mu-wrong-sum", "mu-missing", "graph-negative-n",
             "flip-three-ends", "neighbors-signed-unsigned", "neighbors-homogeneous-uncolored",
             "neighbors-switched-uncolored", "signed-path-sizes-differ", "dstd-mu-not-numbers",
             "dstd-not-a-permutation", "graph-flip-mu", "graph-cayley-mu"],
    )
    def test_bad_argument_is_one_error_line(self, capsys, tmp_path, argv):
        t_file = tmp_path / "t.json"
        t_file.write_text(json.dumps({"n": 3, "diagonals": [[0, 2], [0, 3]]}))
        code, out, err = run(capsys, *[str(t_file) if a == "T" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # a JSON result, a text result and a refusal that still has a result to write
    @pytest.mark.parametrize(
        "argv",
        [["std", "bacbcaab"], ["verify", "--n", "1"], ["flip", "T", "--d", "0,2"]],
        ids=["std", "verify", "flip-refused"],
    )
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, argv):
        t_file = tmp_path / "t.json"
        t_file.write_text(json.dumps({"n": 2, "diagonals": [[0, 2]], "signs": [1, -1]}))
        argv = [str(t_file) if a == "T" else a for a in argv]
        code, out, err = run(capsys, *argv, "-o", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "heawood-check", "/nonexistent/sphere.json")
        assert code == 1

    @pytest.mark.parametrize(
        "extra, argv",
        [
            ({"colors": ["a", 1, 2, 3]}, ["neighbors", "--mode", "switched"]),
            ({"colors": 5}, ["neighbors", "--mode", "homogeneous"]),
            ({"signs": 7}, ["flip", "--d", "0,2"]),
        ],
    )
    def test_bad_colors_and_signs(self, tmp_path, extra, argv):
        t_file = tmp_path / "t.json"
        t_file.write_text(json.dumps({"n": 4, "diagonals": [[0, 2], [0, 3], [0, 4]], **extra}))
        proc = run_cli(argv[0], str(t_file), *argv[1:], text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_verify_rejects_n_below_one(self, n):
        proc = run_cli("verify", "--n", n, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    def test_verify_refuses_above_cap_before_any_suite(self, capsys, monkeypatch):
        monkeypatch.delenv("FLIPFORGE_MAX_N", raising=False)
        calls = []

        monkeypatch.setattr(graphs, "flip_table", calls.append)
        code, out, err = run(capsys, "verify", "--n", str(graphs.size_limit() + 1))
        assert code == 1
        assert calls == [] and out == ""
        assert err.startswith("error: ") and "FLIPFORGE_MAX_N" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "content, argv",
        [
            (SPHERE_LIST_SIGNS, ["heawood-check"]),
            (SPHERE_LIST_SIGNS, ["four-color"]),
            (SPHERE_LIST_SIGNS, ["render"]),
            ("", ["render"]),
            ("7\n", ["render"]),
            ('{"n": 3, "path": [[1, 2]]}', ["sign-path-diagonals"]),
            ('{"n": 3, "path": 5}', ["sign-path-diagonals"]),
            ("[1, 2]", ["sign-path-diagonals"]),
            ('{"n": 3, "path": []}', ["sign-path-diagonals"]),
            ('{"n": 3, "path": [[[0, 2], [0, 3]], [[1, 3], [1, 4]]]}', ["sign-path-diagonals"]),
            (SPHERE_PARTLY_SIGNED, ["four-color"]),
        ],
        ids=["heawood-list-signs", "four-color-list-signs", "render-list-signs",
             "render-empty", "render-scalar", "path-step-pair", "path-not-list",
             "path-file-list", "path-empty", "path-step-not-a-flip", "four-color-partly-signed"],
    )
    def test_malformed_file_is_one_error_line(self, capsys, tmp_path, content, argv):
        f = tmp_path / "in.json"
        f.write_text(content)
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # Every number in an object must be a JSON integer: not 1e999 (JSON reads it
    # as infinity), nor a float, a numeric string or a boolean that int() would
    # turn into one; signs take only the integers -1 and 1
    @pytest.mark.parametrize(
        "content, argv",
        [
            ('{"n": 1e999, "diagonals": []}', ["readings"]),
            ('{"n": 2, "diagonals": [[0, 1e999]]}', ["render"]),
            ('{"word": [1, 2]}\n{"word": [1e999, 1], "kind": "K1"}\n', ["check-cert"]),
            ('{"n": 1e999, "north": [], "south": []}', ["heawood-check"]),
            ('{"n": 2, "diagonals": [[0, 2]], "signs": [true, -1]}', ["flip", "--d", "0,2"]),
            ('{"n": 3, "diagonals": [[0, 2], [0, 3]], "signs": [true, 1.0, -1]}', ["render"]),
            ('{"n": 2.9, "diagonals": [[0, "2"]]}', ["canonical"]),
            ('{"n": 2, "diagonals": [[0, "2"]]}', ["canonical"]),
            ('{"n": 2, "diagonals": [[0, 2.0]]}', ["readings"]),
            ('{"n": true, "diagonals": []}', ["render"]),
            ('{"word": "12"}\n', ["check-cert"]),
            ('{"word": [2.7, 1]}\n', ["check-cert"]),
            ('{"word": [true]}\n', ["check-cert"]),
            (SPHERE_SIGNED.replace('"n": 3', '"n": 3.0'), ["heawood-check"]),
            (SPHERE_SIGNED.replace("[0, 2]", '[0, "2"]', 1), ["heawood-check"]),
        ],
        ids=["readings-huge-n", "render-huge-vertex", "check-cert-huge-letter",
             "heawood-check-huge-n", "flip-bool-sign", "render-float-sign",
             "canonical-float-n", "canonical-string-vertex", "readings-float-vertex",
             "render-bool-n", "check-cert-string-word", "check-cert-float-letter",
             "check-cert-bool-letter", "heawood-check-float-n", "heawood-check-string-vertex"],
    )
    def test_bad_number_is_one_error_line(self, capsys, tmp_path, content, argv):
        f = tmp_path / "in.json"
        f.write_text(content)
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # the count is checked before anything of size n is built
    @pytest.mark.parametrize("content, argv", [
        ('{"n": 30000000, "diagonals": []}', ["canonical"]),
        ('{"n": 30000000, "north": [], "south": []}', ["heawood-check"]),
    ], ids=["canonical", "heawood-check"])
    def test_oversized_n_is_refused_at_once(self, capsys, tmp_path, content, argv):
        f = tmp_path / "in.json"
        f.write_text(content)
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(f))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.endswith("expected 29999999 diagonals for n=30000000, got 0\n")

    def test_large_valid_shape_is_read_at_once(self, capsys, tmp_path):
        f = tmp_path / "fan.json"
        f.write_text(json.dumps({"n": 8000, "diagonals": [[0, k] for k in range(2, 8001)]}))
        start = time.perf_counter()
        data = run_json(capsys, "canonical", str(f))
        assert time.perf_counter() - start < 1
        assert data["canonical"] == ",".join(map(str, range(1, 8001)))  # the one reading

    @pytest.mark.parametrize("label", ["N:9", "S:0", "N:4", "N:01"])
    @pytest.mark.parametrize("command", ["four-color", "heawood-check", "render"])
    def test_stray_face_label_is_named(self, capsys, tmp_path, command, label):
        sphere = json.loads(SPHERE_SIGNED)
        sphere["signs"][label] = 1
        f = tmp_path / "sphere.json"
        f.write_text(json.dumps(sphere))
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(label) in err

    def test_usage_error_is_exit_2(self):
        proc = run_cli("no-such-command", text=True)
        assert proc.returncode == 2

    def test_console_script_installed(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["flipforge"]
        module, _, attr = target.partition(":")
        assert module and attr, target
        # What the generated `flipforge` wrapper runs, plus a check that the
        # entry point hands back an exit code rather than None.
        wrapper = (
            "import sys\n"
            f"from {module} import {attr} as entry\n"
            "code = entry()\n"
            "if not isinstance(code, int):\n"
            "    sys.exit(f'entry point returned {code!r}, not an exit code')\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "std", "bacbbacd"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["std"] == "3,1,6,4,5,2,7,8"

    def test_stdout_determinism(self, tmp_path):
        t_file = tmp_path / "t.json"
        proc = run_cli("phi", "235461", "-o", str(t_file), text=True)
        assert proc.returncode == 0, proc.stderr
        # Different hash seeds, so set or dict order reaching stdout shows up.
        runs = [
            run_cli(
                "readings",
                str(t_file),
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            for seed in ("1", "2")
        ]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout
        assert runs[0].stdout == runs[1].stdout
        # Two seeds can happen to agree on a set's order, so also pin the
        # order: `readings` lists the words sorted.
        words = json.loads(runs[0].stdout)["readings"]
        assert words == [",".join(map(str, w)) for w in sorted(READINGS_235461)]
