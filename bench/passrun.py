"""One timed pass of the wallx benchmark, in a fresh interpreter.

Usage: python3 bench/passrun.py SPEC.json OUT.json  (with PYTHONPATH=src)

The spec holds the pass's check list, made by the parent before it starts
this process.  The pass imports `wallx.cli` (the end of set-up), optionally
installs the tracer, runs the checks one at a time in a closed loop, and
writes per-check latencies, raw outputs, the pass wall time, the peak
resident set size, and the times of a fixed speed probe run between checks
(at most every PROBE_INTERVAL_S).  It judges nothing: the parent checks
every output.  A spec with "setup_only" stops right after the import.
"""

import time

import wallx.cli  # set-up ends when this import returns

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from wallx import quiver  # noqa: E402

PROBE_INTERVAL_S = 0.01


def run_cli(args):
    """Invoke the CLI in-process; returns (exit code, stderr text, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            wallx.cli.main(args, prog_name="wallx")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is an outcome the parent scores
            error = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue(), error


def rep_check(item):
    rep = quiver.FramedRep.build(
        tuple(item["dims"]), item["a1"], item["a2"], item["b1"], item["b2"],
        item["c"], item["dd"], framing=item["framing"],
        grading0=tuple(range(item["dims"][0])),
        grading1=tuple(range(100, 100 + item["dims"][1])))
    return (quiver.check_relations(rep), quiver.is_cyclic(rep),
            quiver.is_stable_graded(rep, item["theta_obj"]))


def _str(x):
    return None if x is None else str(x)


def encode(item, raw):
    """JSON form of one chamber outcome."""
    if item["kind"] == "theta":
        return {"kind": raw.kind, "wall": _str(raw.wall),
                "chamber": raw.chamber, "lower": _str(raw.lower),
                "upper": _str(raw.upper), "t": _str(raw.t),
                "interval": list(raw.interval) if raw.interval else None}
    rel, cyclic, stable = raw
    return {"relations": list(rel), "cyclic": cyclic, "stable": stable[0]}


def peak_rss_mb():
    """High-water resident set of this process.

    ru_maxrss is not used: Linux carries it across fork and exec, so a pass
    would report its parent's size whenever the parent is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe():
    """Time of one fixed pure-Python work chunk: the machine's current speed.

    The collector is off so that the program's heap does not slow the probe.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(600):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + Fraction(i, 7) * 3
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main():
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec.get("setup_only"):
        with open(out_path, "w") as fh:
            json.dump({"ready": READY}, fh)
        return
    tracer = None
    if spec["trace"]:
        import tracer as tracing  # bench/ is sys.path[0]
        tracer = tracing.install()
    checks = spec["checks"]
    for item in checks:
        if "theta" in item:
            item["theta_obj"] = quiver.Theta(*map(Fraction, item["theta"]))
    latencies, raw, probes = [], [], []
    clock = time.perf_counter
    start = last_probe = clock()
    for i, item in enumerate(checks):
        t0 = clock()
        try:
            if item["kind"] == "cli":
                out = run_cli(item["args"] + ["--json", f"{spec['json_dir']}/{i}.json"])
            elif item["kind"] == "theta":
                out = quiver.classify_theta(item["theta_obj"], item["kmax"])
            else:
                out = rep_check(item)
        except Exception as exc:  # a crash is an outcome the parent scores
            out = exc
        latencies.append(clock() - t0)
        raw.append(out)
        if clock() - last_probe >= PROBE_INTERVAL_S:
            probes.append(probe())
            last_probe = clock()
    wall = clock() - start
    probes.append(probe())
    rss_mb = peak_rss_mb()

    results = []
    for i, (item, out) in enumerate(zip(checks, raw)):
        if isinstance(out, Exception):
            results.append({"error": f"{type(out).__name__}: {out}"})
        elif item["kind"] == "cli":
            code, stderr, error = out
            try:
                with open(f"{spec['json_dir']}/{i}.json") as fh:
                    report = fh.read()
            except OSError:
                report = None
            results.append({"code": code, "stderr": stderr, "error": error,
                            "report": report})
        else:
            results.append(encode(item, out))
    doc = {"ready": READY, "wall_s": wall, "probes": probes, "latencies": latencies,
           "rss_mb": rss_mb, "results": results,
           "trace": tracer.snapshot() if tracer else None}
    with open(out_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
