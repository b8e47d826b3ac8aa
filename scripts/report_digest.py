#!/usr/bin/env python3
"""Print a digest of every JSON report of a fixed command set.

Usage: python3 scripts/report_digest.py

Runs, in this process, with --no-cache and a fresh empty WALLX_CACHE:
every SYMBOLIC_MENU command and every EVAL_MENU check at --seed 42 (both
menus read from bench/workloads.py), and the four criterion-10 commands of
tests/test_acceptance.py.  Prints one `sha256[:16]  command` line per JSON
report, or `exit N` in place of the digest when a command wrote none.

Comparing the output of two checkouts checks that their reports are
byte-identical.  The wallx sources are taken from this checkout's src/.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wallx.cli import main as cli_main  # noqa: E402

CRITERION_10 = (
    ["js", "--k", "2", "--dmax", "2"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "3",
     "--backend", "eval", "--points", "5", "--seed", "42"],
    ["dimred", "--k", "2", "--dmax", "3"],
    ["insertion-free", "--k", "2", "--dmax", "3"],
)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def commands():
    w = load_workloads()
    yield from w.SYMBOLIC_MENU
    for i0, k, tmax in w.EVAL_MENU:
        yield w._wallcross(k, i0, tmax, "--backend", "eval",
                           "--points", str(w.EVAL_POINTS), "--seed", "42")
    yield from CRITERION_10


def report_bytes(args, path):
    """Run one CLI command; (exit code, JSON report bytes or None)."""
    path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli_main(args + ["--no-cache", "--json", str(path)],
                     standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, path.read_bytes() if path.is_file() else None


def main():
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["WALLX_CACHE"] = str(pathlib.Path(tmp) / "cache")
        path = pathlib.Path(tmp) / "report.json"
        for args in commands():
            code, data = report_bytes(list(args), path)
            digest = (hashlib.sha256(data).hexdigest()[:16]
                      if data is not None else f"exit {code}")
            print(f"{digest}  {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
