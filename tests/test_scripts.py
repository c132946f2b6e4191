"""Tooling: scripts/run_verification.py and scripts/render_gallery.py run
from a checkout."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from flipforge import graphs

ROOT = Path(__file__).resolve().parents[1]
SUITES = ["ref1", "fibers", "homogeneous", "switched", "diagram"]


def run_script(name, *argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_verification(*argv):
    return run_script("run_verification.py", *argv)


def test_run_verification_small_battery():
    proc = run_verification("--n", "2")
    assert proc.returncode == 0, proc.stderr
    *lines, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["suite"], line["n"]) for line in lines] == [
        (s, n) for s in SUITES for n in (1, 2)
    ]
    for line in lines:
        assert line["pass"] is True
        assert line["report"]["pass"] is True
        assert isinstance(line["seconds"], float) and line["seconds"] >= 0
    assert summary == {"suites": SUITES, "max_n": 2, "pass": True}


def test_run_verification_unknown_suite_is_usage_error():
    proc = run_verification("--n", "2", "--suites", "ref1,nope")
    assert proc.returncode == 2
    assert "unknown suites" in proc.stderr


@pytest.mark.parametrize("n", ["0", "-3"])
def test_run_verification_rejects_n_below_one(n):
    proc = run_verification("--n", n)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_run_verification_refuses_above_cap_before_any_suite(monkeypatch, capsys):
    monkeypatch.delenv("FLIPFORGE_MAX_N", raising=False)
    calls = []

    monkeypatch.setattr(graphs, "flip_table", calls.append)
    script = ROOT / "scripts" / "run_verification.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", str(graphs.size_limit() + 1)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1
    assert calls == [] and out == ""
    assert err.startswith("error: ") and "FLIPFORGE_MAX_N" in err
    assert len(err.splitlines()) == 1


def test_render_gallery_with_spheres(tmp_path):
    out = tmp_path / "gallery"
    proc = run_script("render_gallery.py", "--n", "3", "--spheres", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    svgs = sorted(out.glob("*.svg"))
    # the five triangulations of the pentagon, each with its mirror-glued sphere
    assert len(svgs) == 10
    assert len([p for p in svgs if p.name.endswith(".sphere.svg")]) == 5
    assert all(p.read_text(encoding="utf-8").startswith("<svg") for p in svgs)
    assert proc.stdout == f"wrote 10 SVG files to {out}/\n"


@pytest.mark.parametrize("argv, cap", [
    (["--n", "-1"], None),
    (["--n", "-3", "--spheres"], None),
    (["--n", "3", "--spheres"], "2"),
], ids=["negative", "negative-spheres", "above-cap"])
def test_render_gallery_refuses_bad_sizes_before_writing(tmp_path, monkeypatch, argv, cap):
    monkeypatch.delenv("FLIPFORGE_MAX_N", raising=False)
    if cap is not None:
        monkeypatch.setenv("FLIPFORGE_MAX_N", cap)
    out = tmp_path / "gallery"
    proc = run_script("render_gallery.py", *argv, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def test_render_gallery_refuses_an_out_path_that_is_a_file(tmp_path):
    out = tmp_path / "gallery"
    out.write_text("not a directory", encoding="utf-8")
    proc = run_script("render_gallery.py", "--n", "2", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert out.read_text(encoding="utf-8") == "not a directory"
