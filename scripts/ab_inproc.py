#!/usr/bin/env python3
"""Two checkouts' workload checks, interleaved check by check in one process:

    python3 scripts/ab_inproc.py A B --workload W --rounds N [--seed S]

Loads each src/wallx as its own package (wallx imports only relatively) and
runs A's bench/workloads.py checks on both in alternating order, with fresh
caches per round.  Both packages are imported afresh, untimed, at the start
of each round, so every round starts with empty per-key tables, as a bench
pass does.  Prints per-round B/A time ratios, their median and range; exits
1 if an outcome differs."""

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from statistics import median


def load(checkout, name):
    for mod in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[mod]
    src = os.path.join(checkout, "src", "wallx")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    sys.modules[name] = pkg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")  # and every module it imports
    return pkg


def run(pkg, item, where):
    """One check's outcome as text; WALLX_CACHE and the report go to where."""
    if item["kind"] == "cli":
        os.environ["WALLX_CACHE"], code = where, None
        report = os.path.join(where, f"{time.monotonic_ns()}.json")
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(out):
            try:
                pkg.cli.main(item["args"] + ["--json", report], prog_name="wallx")
            except SystemExit as exc:
                code = exc.code
        with open(report) if os.path.exists(report) else io.StringIO() as fh:
            return f"{code} {out.getvalue()} {fh.read()}"
    q, theta = pkg.quiver, pkg.quiver.Theta.of(*item["theta"])
    if item["kind"] == "theta":
        return repr(q.classify_theta(theta, item["kmax"]))
    (d0, d1), arrows = item["dims"], (item[a] for a in ("a1", "a2", "b1", "b2", "c", "dd"))
    rep = q.FramedRep.build((d0, d1), *arrows, framing=item["framing"], grading0=tuple(
        range(d0)), grading1=tuple(range(100, 100 + d1)))
    return repr((q.check_relations(rep), q.is_cyclic(rep), q.is_stable_graded(rep, theta)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a"), ap.add_argument("b"), ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.a, "bench"))
    checks = importlib.import_module("workloads").make_checks(args.workload, args.seed)
    ratios, differ = [], 0
    for r in range(args.rounds):
        pkgs = (load(args.a, "wallx_a"), load(args.b, "wallx_b"))
        spent, got = [0.0, 0.0], [None, None]
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for i, item in enumerate(checks):
                for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    got[k] = run(pkgs[k], item, (a, b)[k])
                    spent[k] += time.perf_counter() - t0
                differ += got[0] != got[1]
        ratios.append(spent[1] / spent[0])
        print(f"round {r}: A {spent[0]:.3f} s, B {spent[1]:.3f} s, B/A {ratios[-1]:.3f}")
    print(f"B/A median {median(ratios):.3f}, range [{min(ratios):.3f}, {max(ratios):.3f}]; "
          f"{differ} outcomes differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
