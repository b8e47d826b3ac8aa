"""Benchmark of wallx: symbolic, eval and chamber workloads.

Usage, from the repository root:

    python3 bench/run.py --workload symbolic|eval|chamber --seed N \
        --seconds S --trace 0|1

A closed loop with one client issues checks one at a time, as a
mathematician waiting on each verdict would; nothing runs threaded.  Each
pass is a fresh interpreter (`python3 bench/passrun.py`, `PYTHONPATH=src`,
its own temporary `WALLX_CACHE`), and passes run one after another until
the next one would end after S seconds (at least three passes, unless
a very slow program would push the run past two minutes).  Inputs are
made from the seed before any pass starts (see workloads.py), and every
output is checked by bench/verify.py, which does not import wallx.

With --trace 0 the last line reports the end-to-end metrics:
  setup_s      interpreter start until `wallx.cli` is imported, median over
               eight set-up-only interpreters and every pass, as measured
  wall_s       first check issued to last verdict of a pass: the sum of
               the per-check latencies
  check_s.p50  per-check latency; one sample per check of the pass
  check_s.p90  the same; with fewer than 100 checks, the highest percentile
               with ten checks beyond it (the printed note gives it)
  peak_rss_mb  high-water resident set of the pass process
These three timings are in reference seconds (see end_to_end): on a shared
machine the CPU speed a pass sees drifts by up to 40 % over minutes, so each
pass times a fixed pure-Python probe between checks and its latencies are
rescaled to the speed at which the probe takes 2 ms; a check's latency is
the median over the passes.
The note line gives the measured probe time and pass wall time.
wrong_share (wrong verdicts, wrong exit codes and crashes over checks
attempted) is printed, and is `failed` / `attempted` in the JSON line; it
is not a metric of BENCHMARK.json because it is 0 when the program works.

With --trace 1 passes come in pairs, untraced then traced (bench/tracer.py),
and the last line reports every per-layer metric of tracer.LAYER_METRICS,
medians over the traced passes, plus trace.overhead_s, the traced passes'
wall_s minus the untraced passes' wall_s.  Traced and untraced passes must give
identical outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import verify
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
HARD_LIMIT_S = 120  # fewer passes rather than a run past 180 s
SETUP_SPAWNS = 8
PROBE_REF_S = 0.002
PASS_TIMEOUT_S = 150


def spawn(spec, work):
    """Run one pass process; returns (its output document, spawn time)."""
    work.mkdir(parents=True)
    (work / "json").mkdir()
    (work / "cache").mkdir()
    spec = {**spec, "json_dir": str(work / "json")}
    (work / "spec.json").write_text(json.dumps(spec))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "WALLX_CACHE": str(work / "cache"), "PYTHONHASHSEED": "0"}
    started = time.monotonic()
    subprocess.run([sys.executable, str(BENCH / "passrun.py"),
                    str(work / "spec.json"), str(work / "out.json")],
                   cwd=work, env=env, check=True, timeout=PASS_TIMEOUT_S,
                   stdin=subprocess.DEVNULL)
    doc = json.loads((work / "out.json").read_text())
    shutil.rmtree(work)
    return doc, doc["ready"] - started


def percentile(values, q):
    """Nearest-rank percentile, lowered so that ten samples lie beyond it."""
    values = sorted(values)
    n = len(values)
    q = min(q, 1 - 10 / n) if q > 0.5 and n > 10 else q
    return values[max(0, math.ceil(q * n) - 1)], q


def run_passes(workload, checks, trace, seconds, scratch):
    """Passes (or untraced/traced pairs) until the next would overrun.

    Each pass is scored as it ends, so that only one pass's outputs are
    held at a time; the first untraced pass's outputs are kept as the
    reference that traced passes must reproduce.
    """
    run = {"setups": [], "passes": [], "wrong": 0, "why": None,
           "mismatches": 0}
    verdicts, reference = {}, None
    spawn({"setup_only": True}, scratch / "warm")  # fills bytecode caches
    for i in range(SETUP_SPAWNS):
        run["setups"].append(spawn({"setup_only": True}, scratch / f"setup{i}")[1])
    modes = (False, True) if trace else (False,)
    begin = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            doc, setup = spawn({"checks": checks, "trace": mode},
                               scratch / f"pass{len(run['passes'])}")
            results = doc.pop("results")
            for i, (item, outcome) in enumerate(zip(checks, results)):
                key = (i, json.dumps(outcome, sort_keys=True))
                if key not in verdicts:
                    verdicts[key] = verify.check(workload, item, outcome)
                if verdicts[key]:
                    run["wrong"] += 1
                    run["why"] = run["why"] or f"{json.dumps(item)[:120]}: {verdicts[key]}"
            if reference is None:
                reference = results
            elif mode:
                run["mismatches"] += sum(a != b for a, b in zip(reference, results))
            run["setups"].append(setup)
            run["passes"].append((mode, doc))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - begin
        next_end = elapsed + statistics.median(durations)
        if next_end > HARD_LIMIT_S or (
                len(durations) >= (1 if trace else MIN_PASSES) and next_end > seconds):
            return run


def rescaled_checks(docs):
    """Each check's median over the passes of its probe-rescaled latency."""
    scaled = []
    for d in docs:
        k = PROBE_REF_S / statistics.median(d["probes"])
        scaled.append([x * k for x in d["latencies"]])
    return [statistics.median(x) for x in zip(*scaled)]


def end_to_end(run):
    """End-to-end metrics, plus a note of the figures as measured.

    On a shared machine (measured on a 2-vCPU Xeon VM) the CPU speed drifts
    by up to 40 % over minutes and halves in bursts of a few seconds as
    other tenants load it; the program and a fixed pure-Python probe slow
    together.
    Every pass therefore times the probe between checks, and each latency
    is rescaled to the speed at which the probe takes PROBE_REF_S: a check's
    latency is the median over passes of its rescaled latencies.
    """
    passes = run["passes"]
    per_check = rescaled_checks(d for _, d in passes)
    probe = statistics.median(x for _, d in passes for x in d["probes"])
    p50, _ = percentile(per_check, 0.5)
    p90, q90 = percentile(per_check, 0.9)
    setup = statistics.median(run["setups"])
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(per_check), "s"),
        "check_s.p50": (p50, "s"),
        "check_s.p90": (p90, "s"),
        "peak_rss_mb": (statistics.median(d["rss_mb"] for _, d in passes), "MB"),
    }
    wall = statistics.median(d["wall_s"] for _, d in passes)
    note = (f"{len(per_check)} checks, each the median of {len(passes)} "
            f"passes; p90 taken at q={q90:.3f}; {len(run['setups'])} set-ups; "
            f"as measured: median probe {probe * 1e3:.3f} ms (reference "
            f"{PROBE_REF_S * 1e3:g} ms), median pass wall {wall:.4g} s")
    return metrics, note


def per_layer(run):
    """Per-layer metrics as measured, medians over the traced passes.

    trace.overhead_s is wall_s of the traced passes minus wall_s of the
    untraced ones, both in reference seconds as in end_to_end.
    """
    passes = run["passes"]
    traced = [tracer.layer_metrics(d["trace"]) for mode, d in passes if mode]
    units = {name: unit for name, unit, *_ in tracer.LAYER_METRICS}
    metrics = {name: (statistics.median(m[name] for m in traced), units[name])
               for name in traced[0]}
    overhead = (sum(rescaled_checks(d for mode, d in passes if mode))
                - sum(rescaled_checks(d for mode, d in passes if not mode)))
    metrics["trace.overhead_s"] = (overhead, "s")
    walls = " ".join(f"{d['wall_s']:.3f}{'T' if mode else ''}" for mode, d in passes)
    note = (f"{run['mismatches']} traced outcomes differ from untraced ones; "
            f"pass wall_s {walls} (T = traced)")
    return metrics, note


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wallx" / "cli.py").is_file():
        print(f"error: no wallx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    checks = workloads.make_checks(args.workload, args.seed)
    scratch_root = BENCH / "_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        run = run_passes(args.workload, checks, bool(args.trace),
                         args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    attempted = len(checks) * len(run["passes"])
    wrong = run["wrong"]
    metrics, note = (per_layer if args.trace else end_to_end)(run)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} {'wrong_share':36s} {wrong / attempted:14.6g} "
          f"ratio ({wrong} of {attempted} checks)")
    print(f"{args.workload:8s} {note}")
    if run["why"]:
        print(f"first wrong outcome: {run['why']}")
    print(json.dumps({
        "correct": wrong == 0 and run["mismatches"] == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
