"""Run one workload in a fresh interpreter and print its result as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed S \
        [--seconds T --trace 0|1] [--setup-only] [--smoke]

``run.py`` starts this from the repository root; it is not meant to be run by
hand except when debugging a workload.

--trace 0  runs requests back to back for T seconds and reports latency
           percentiles and throughput, scaled to the reference host speed
           (see hostspeed.py), and peak RSS.
--trace 1  runs the workload's first ``trace_items`` requests twice: first
           with spans only, then under cProfile for call counts and per-module
           self time.  Both passes see identical requests, so counts repeat
           exactly for a seed and the ratio of the two passes is the tracing
           overhead.
--setup-only  imports, builds the workload and finishes its warm-up item.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import flipforge
from flipforge import cli
from hostspeed import HostSpeed
from workloads import WORKLOADS, Spans

MODULES = ("triangulation", "words", "phi", "flips", "signing", "graphs",
           "heawood", "jsonio", "render", "cli")
COUNTED_CALLS = {
    "flips.flip_calls": ("flips", "flip"),
    "flips.signed_flip_calls": ("flips", "signed_flip"),
    "triangulation.edge_adjacency_calls": ("triangulation", "edge_adjacency"),
    "triangulation.faces_calls": ("triangulation", "faces"),
}
# counts of checked output: the gates fix all but chain_words for a seed, so
# only chain_words is a per-layer metric and the rest go on the detail line
OUTPUT_COUNTS = ("graphs.states", "graphs.components", "signing.chain_words",
                 "words.class_members", "phi.readings_words")
# modules that do work in every workload; the others are reported by call count
TIMED_MODULES = ("triangulation", "words", "phi", "flips", "jsonio")
CALL_COUNTED_MODULES = ("graphs", "signing", "heawood", "render", "cli")


def run_request(w, req, profiler=None, speed=None) -> tuple[float, str | None]:
    """Latency of one request, less any host-speed sampling inside it, and
    the reason it failed, if it did."""
    t0, spent = time.perf_counter(), speed.spent if speed else 0.0
    if profiler:
        profiler.enable()
    try:
        outcome = w.execute(req)
    except Exception as exc:  # a traceback from the program fails the request
        outcome, error = None, f"{req.kind} raised {exc!r}"
    finally:
        if profiler:
            profiler.disable()
    dt = time.perf_counter() - t0 - (speed.spent - spent if speed else 0.0)
    if outcome is not None:
        try:
            error = w.check(req, outcome)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            error = f"{req.kind} output is malformed: {exc!r}"
    return dt, error


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(w, seconds: float) -> dict:
    timed, failures = [], []  # (start, seconds less sampling) per request
    stream = w.requests()  # builds the inputs, outside the measured time
    with HostSpeed() as speed:
        start, busy = time.perf_counter(), 0.0
        for req in stream:
            t0 = time.perf_counter()
            dt, error = run_request(w, req, speed=speed)
            timed.append((t0, dt))
            busy += dt
            if error:
                failures.append(error)
            # run the next request only if, on average, at least half of it
            # falls before the deadline, so the measured time is --seconds on
            # average even when one request is a third of a run (audit's battery)
            if time.perf_counter() - start + busy / len(timed) / 2 > seconds:
                break
    wall = [dt for _, dt in timed]
    lat = [dt * speed.scale(t0, t0 + dt) for t0, dt in timed]  # at the reference speed
    p50, p90 = statistics.median(lat), percentile(lat, 90)
    return {
        "attempted": len(lat),
        "failures": failures,
        "metrics": {
            "p50_ms": metric(p50 * 1e3, "ms"),
            "p90_ms": metric(p90 * 1e3, "ms"),
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "wall": {"p50_ms": statistics.median(wall) * 1e3, "p90_ms": percentile(wall, 90) * 1e3,
                 "ops_per_s": len(wall) / busy},
        "samples": {"requests": len(lat), "beyond_p50": sum(x > p50 for x in lat),
                    "beyond_p90": sum(x > p90 for x in lat), "seconds": time.perf_counter() - start,
                    "speed_samples": len(speed.units), "unit_ms": speed.unit_ms()},
    }


def profile_totals(profiler) -> tuple[dict, Counter, Counter]:
    """Self seconds and call count per module, and calls per (module, function)."""
    package = os.path.dirname(os.path.abspath(flipforge.__file__))
    self_s = dict.fromkeys(MODULES, 0.0)
    calls, fn_calls = Counter(), Counter()
    profiler.create_stats()
    for (filename, _, fn), (_, ncalls, tottime, _, _) in profiler.stats.items():
        if os.path.dirname(os.path.abspath(filename)) != package:
            continue
        module = os.path.basename(filename)[:-3]
        if module in self_s:
            self_s[module] += tottime
            calls[module] += ncalls
            fn_calls[module, fn] += ncalls
    return self_s, calls, fn_calls


def trace(w) -> dict:
    items = list(itertools.islice(w.requests(), w.trace_items))
    failures = []

    def run_pass(profiler=None) -> list[float]:
        lat = []
        for req in items:
            dt, error = run_request(w, req, profiler)
            lat.append(dt)
            if error:
                failures.append(error)
        return lat

    w.spans, w.counts = Spans(), Counter()
    with w.instrumented():
        plain = run_pass()
    spans = dict(w.spans.total)
    parse = []
    if w.runs_cli:
        for req in items:
            t0 = time.perf_counter()
            cli.build_parser().parse_args(req.argv)
            parse.append(time.perf_counter() - t0)

    w.counts = Counter()
    profiler = cProfile.Profile()
    traced = run_pass(profiler)
    self_s, calls, fn_calls = profile_totals(profiler)

    overhead_pct = (sum(traced) / sum(plain) - 1) * 100
    metrics = {f"{m}.self_s": metric(self_s[m], "s") for m in TIMED_MODULES}
    metrics["tracing_overhead_pct"] = metric(overhead_pct, "%")
    for name, key in COUNTED_CALLS.items():
        metrics[name] = metric(fn_calls[key], "count")
    for m in CALL_COUNTED_MODULES:
        metrics[f"{m}.calls"] = metric(calls[m], "count")
    metrics["signing.chain_words"] = metric(w.counts["signing.chain_words"], "count")

    # the workload-specific view, named <workload>.<layer>.<what>
    detail = {k: metric(v, "s") for k, v in sorted(spans.items())}
    if parse:
        detail[f"{w.name}.cli.parse_ms"] = metric(statistics.median(parse) * 1e3, "ms")
    if w.name == "audit":
        detail["audit.suites_serial_s"] = metric(sum(spans.values()), "s")
        detail["audit.battery_s"] = metric(statistics.median(plain), "s")
    if w.name == "interactive":
        by_kind: dict[str, list[float]] = {}
        for req, dt in zip(items, plain):
            by_kind.setdefault(req.kind, []).append(dt)
        for kind, lat in sorted(by_kind.items()):
            detail[f"interactive.cmd.{kind}_p50_ms"] = metric(statistics.median(lat) * 1e3, "ms")
            detail[f"interactive.cmd.{kind}_samples"] = metric(len(lat), "count")
    for m in MODULES:
        detail[f"{w.name}.{m}.self_s"] = metric(self_s[m], "s")
    for name, key in COUNTED_CALLS.items():
        detail[f"{w.name}.{name}"] = metric(fn_calls[key], "count")
    for name in OUTPUT_COUNTS:
        if w.counts[name]:
            detail[f"{w.name}.{name}"] = metric(w.counts[name], "count")
    detail["untraced_p50_ms"] = metric(statistics.median(plain) * 1e3, "ms")
    detail["traced_p50_ms"] = metric(statistics.median(traced) * 1e3, "ms")
    detail["tracing_overhead_ms"] = metric((statistics.median(traced) - statistics.median(plain)) * 1e3, "ms")
    return {
        "attempted": 2 * len(items),
        "failures": failures,
        "metrics": metrics,
        "detail": detail,
        "samples": {"requests_per_pass": len(items)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(root, ".bench_work"))
    try:
        w = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        w.warmup()
        if args.setup_only:
            return 0
        result = trace(w) if args.trace else measure(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = result.pop("failures")
    result.update(failed=len(failures), first_failures=failures[:5])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
