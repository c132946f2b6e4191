"""Tooling: scripts/run_verification.py run from a checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUITES = ["ref1", "fibers", "homogeneous", "switched", "diagram"]


def run_verification(*argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


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
