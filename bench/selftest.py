"""Tests of the benchmark itself.

Run with `python3 -m pytest bench/selftest.py` from the repository root.
The file is not named test_*.py so that the repository's own test command
does not collect it: these tests spawn pass processes and take a while.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _cli(*args):
    return {"kind": "cli", "args": list(args)}


def _eval(i0, k, tmax, seed):
    return _cli("wallcross", "--wall", f"Lmm:{k}", "--i0", i0, "--tmax",
                str(tmax), "--backend", "eval", "--points", "5",
                "--seed", str(seed))


# Small check lists that still reach every layer metric mapped to each
# workload: js (closed formula), symbolic wallcross (series division), a
# repeated command (cache hit), eval wallcross (sampling), quiver calls.
SMALL = {
    "symbolic": [
        _cli("js", "--k", "2", "--dmax", "2"),
        _cli("wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "2"),
        _cli("dimred", "--k", "2", "--dmax", "2"),
        _cli("insertion-free", "--k", "3", "--dmax", "2"),
        _cli("js", "--k", "2", "--dmax", "2"),
    ],
    "eval": [_eval("IlP1:1", 2, 3, 7), _eval("IP1", 3, 1, 8),
             _eval("OX", 2, 2, 9)],
    "chamber": workloads.make_checks("chamber", 1)[:300],
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced pass of each small check list."""
    return {workload: run.run_passes(workload, checks, True, 0,
                                     tmp_path_factory.mktemp(workload))
            for workload, checks in SMALL.items()}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_passes_agree(traced_runs, workload):
    result = traced_runs[workload]
    assert [mode for mode, _ in result["passes"]] == [False, True]
    assert result["mismatches"] == 0
    assert (result["wrong"], result["why"]) == (0, None)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_mapped_layer_metric_records_calls(traced_runs, workload):
    snapshot = next(d["trace"] for mode, d in traced_runs[workload]["passes"] if mode)
    values = tracer.layer_metrics(snapshot)
    for name, _, _, mapped, _, source in tracer.LAYER_METRICS:
        if source is None:
            continue
        assert name in values
        if workload in mapped.split("+"):
            assert tracer.source_recorded(snapshot, source), name


def test_benchmark_json_lists_the_layer_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == [m[:3] for m in tracer.LAYER_METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_checks(workload, 3) == workloads.make_checks(workload, 3)
        assert workloads.make_checks(workload, 3) != workloads.make_checks(workload, 4)
    sym = workloads.make_checks("symbolic", 5)
    distinct = {tuple(c["args"]) for c in sym}
    assert distinct == {tuple(c) for c in workloads.SYMBOLIC_MENU}
    assert len(sym) == len(distinct) + workloads.SYMBOLIC_REPEATS
    ev = workloads.make_checks("eval", 5)
    assert len({tuple(c["args"]) for c in ev}) == len(ev) == len(workloads.EVAL_MENU)


def test_evaluator_reads_the_report_grammar():
    point = (2, 3, 5, 7)
    text = "prod[ lam1 + 2*lam3 - m^2 ; lam3^-1 ] * ( 3/2*lam1^2*m - 1 ) / ( lam2 + 1 )"
    want = (2 + 10 - 7) ** 2 * (1 / verify.Fraction(5)) * (verify.Fraction(3, 2) * 4 * 7 - 1) / 4
    assert verify.eval_ratfun(text, point) == want
    assert verify.eval_ratfun("prod[ ] * ( 0 ) / ( 1 )", point) == 0


def _outcomes(workload, scratch):
    doc, _ = run.spawn({"checks": SMALL[workload], "trace": False}, scratch)
    return doc["results"]


def test_wrong_outcomes_are_caught(tmp_path):
    sym = SMALL["symbolic"][1]
    good = _outcomes("symbolic", tmp_path / "symbolic")[1]
    assert verify.check("symbolic", sym, good) is None
    doc = json.loads(good["report"])
    doc["degrees"][1]["lhs"] = doc["degrees"][1]["lhs"].replace("( 1 )", "( 2 )", 1)
    assert verify.check("symbolic", sym, {**good, "report": json.dumps(doc)})
    assert verify.check("symbolic", sym, {**good, "code": 1})
    assert verify.check("symbolic", sym, {"code": None, "error": "boom"})

    ev = SMALL["eval"][0]
    good = _outcomes("eval", tmp_path / "eval")[0]
    assert verify.check("eval", ev, good) is None
    doc = json.loads(good["report"])
    for side in ("lhs", "rhs"):  # equal sides, but not the target
        vals = json.loads(doc["degrees"][2][side])
        vals[0] = str(int(vals[0]) + 1)
        doc["degrees"][2][side] = json.dumps(vals)
    assert verify.check("eval", ev, {**good, "report": json.dumps(doc)})

    results = _outcomes("chamber", tmp_path / "chamber")
    for item, outcome in zip(SMALL["chamber"], results):
        assert verify.check("chamber", item, outcome) is None
        if item["kind"] == "rep":
            flipped = {**outcome, "cyclic": not outcome["cyclic"]}
        else:
            flipped = {**outcome, "kind": "inconclusive"
                       if outcome["kind"] != "inconclusive" else "wall"}
        assert verify.check("chamber", item, flipped)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chamber", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
