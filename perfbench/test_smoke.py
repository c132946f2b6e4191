"""Smoke test of the benchmark: tiny sizes, every metric present, every gate live.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

It runs each workload through ``run.py --smoke`` untraced and traced, checks
the result line against BENCHMARK.json, and feeds each correctness gate a
deliberately corrupted outcome, which the gate must reject.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    result, info = lines[-1], lines[0]["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
    for key in ("python", "nproc", "platform", "commit", "seed", "samples"):
        assert key in info
    if trace:
        assert "detail" in lines[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(str(tmp_path), "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""


def test_host_speed_scales_by_nearby_samples():
    speed = hostspeed.HostSpeed()
    speed.sample()
    assert 0 < speed.units[0] < 1
    w = hostspeed.WINDOW_S
    speed.times, speed.units = [0.0, 1.0, 10.0, 11.0], [0.010, 0.010, 0.020, 0.020]
    assert speed.scale(0.5, 0.6) == pytest.approx(hostspeed.REFERENCE_UNIT_MS / 10)  # the slow samples are far away
    assert speed.scale(10.5, 10.6) == pytest.approx(hostspeed.REFERENCE_UNIT_MS / 20)
    assert speed.scale(1.0, 10.0) == pytest.approx(hostspeed.REFERENCE_UNIT_MS / 15)  # a long request spans both
    assert speed.scale(100.0, 100.0 + w / 2) == pytest.approx(hostspeed.REFERENCE_UNIT_MS / 20)  # none near: the closest


def test_host_speed_samples_inside_a_busy_loop():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 4 * hostspeed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(speed.units) >= 4 and speed.spent >= sum(speed.units)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# each gate must trip on corrupted output


def outcomes(w, per_kind: int = 1):
    """(request, correct outcome) pairs covering every request kind of w."""
    seen: dict[str, int] = {}
    for req in itertools.islice(w.requests(), 3000):
        if seen.get(req.kind, 0) < per_kind:
            seen[req.kind] = seen.get(req.kind, 0) + 1
            o = w.execute(req)
            assert w.check(req, o) is None, (req.argv, o)
            yield req, o


def edit_json(o: Outcome, fn) -> Outcome:
    data = json.loads(o.out)
    fn(data)
    return o._replace(out=json.dumps(data))


def edit_lines(o: Outcome, fn) -> Outcome:
    lines = [json.loads(line) for line in o.out.splitlines()]
    fn(lines)
    return o._replace(out="\n".join(json.dumps(x) for x in lines))


def make(name, tmp_path):
    return workloads.WORKLOADS[name](5, str(tmp_path), True)


def test_audit_gates_trip(tmp_path):
    w = make("audit", tmp_path)
    (req, o), = outcomes(w)
    lines = [json.loads(line) for line in o.out.splitlines()]
    top = lines.index(next(r for r in lines if r.get("suite") == "ref1" and r["n"] == w.n))

    def set_in(index, key, value):
        def fn(lines):
            lines[index][key] = value
        return fn

    bad = [
        edit_lines(o, set_in(-1, "pass", False)),
        edit_lines(o, set_in(top, "states", lines[top]["states"] + 1)),
        edit_lines(o, set_in(top, "components", lines[top]["components"] - 1)),
        edit_lines(o, set_in(0, "pass", False)),
        edit_lines(o, lambda lines: lines.pop(0)),
        o._replace(code=1),
        o._replace(out=o.out + "\nnot json"),
    ]
    for corrupted in bad:
        assert w.check(req, corrupted), corrupted.out[-200:]


def test_certify_gates_trip(tmp_path):
    w = make("certify", tmp_path)
    req, o = next(outcomes(w))
    cert, back, report = o.value
    chain = [list(x) for x in back.chain]
    chain[-1][0] = -chain[-1][0]
    broken = workloads.jsonio.certificate_from_lines([json.dumps({"word": chain[0]})] + [
        json.dumps({"word": x, "kind": k}) for x, k in zip(chain[1:], back.kinds)])
    other = req._replace(expect=(req.expect[1], req.expect[0]))
    assert w.check(req, o._replace(value=(cert, broken, report)))  # round trip changed it
    assert w.check(req, o._replace(value=(broken, broken, report)))  # accepted but invalid
    assert w.check(req, o._replace(value=(cert, back, report.__class__(False, 0, "bad"))))
    assert w.check(other, o)  # endpoints map to other shapes
    assert w.check(req, o._replace(code=1, err="no signed path found"))


CORRUPT = {
    "phi": lambda o: edit_json(o, lambda d: d["diagonals"].pop()),
    "bigphi": lambda o: edit_json(o, lambda d: d["colors"].reverse()),
    "std": lambda o: edit_json(o, lambda d: d.update(std=d["std"][::-1])),
    "dstd": lambda o: edit_json(o, lambda d: d["letters"].__setitem__(0, d["letters"][0] + 1)),
    "class": lambda o: edit_json(o, lambda d: d["class"].pop()),
    "readings": lambda o: edit_json(o, lambda d: d.update(count=d["count"] + 1)),
    "canonical": lambda o: edit_json(o, lambda d: d.update(canonical=d["canonical"][::-1])),
    "flip": lambda o: edit_json(o, lambda d: d["signs"].__setitem__(0, -d["signs"][0])),
    "neighbors": lambda o: edit_json(o, lambda d: d["neighbors"].pop()),
    "check-cert": lambda o: edit_json(o, lambda d: d.update(ok=False)),
    "glue": lambda o: edit_json(o, lambda d: d["signs"].update({"N:1": -d["signs"]["N:1"]})),
    "heawood-check": lambda o: edit_json(o, lambda d: d.update(ok=False, violations=[0])),
    "four-color": lambda o: edit_json(o, lambda d: d["coloring"].update({"1": d["coloring"]["0"]})),
    "render": lambda o: o._replace(out=o.out[: len(o.out) // 2]),
    "class-capped": lambda o: o._replace(err=o.err + "error: twice\n"),
    "signed-path-capped": lambda o: o._replace(code=2),
    "check-cert-tampered": lambda o: o._replace(code=0, out=json.dumps({"ok": True})),
}


def test_interactive_gates_trip(tmp_path):
    w = make("interactive", tmp_path)
    covered = set()
    for req, o in outcomes(w, per_kind=3):
        assert w.check(req, CORRUPT[req.kind](o)), req.argv
        assert w.check(req, o._replace(code=3)), req.argv
        covered.add(req.kind)
    assert covered == set(workloads.COMMANDS + workloads.REFUSALS)


def test_interactive_warmup_runs_every_command(tmp_path):
    w = make("interactive", tmp_path)
    argvs = w.warmup_argvs()
    assert [a[0] for a in argvs[:len(workloads.COMMANDS)]] == list(workloads.COMMANDS)
    codes = [workloads.run_cli(a).code for a in argvs]
    assert codes == [0] * len(workloads.COMMANDS) + [1] * len(workloads.REFUSALS)
    assert w.tris == {}  # the warm-up builds no input pool
