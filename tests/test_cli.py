"""Command-line interface: subcommands, exit codes, reports, and the
on-disk result cache."""

import csv
import json
import pathlib
import tempfile
import time

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import wallx.cli as cli_mod
from wallx.cli import cache_get, cache_key, cache_put, main


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("WALLX_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return CliRunner()


def test_walls_table(runner):
    res = runner.invoke(main, ["walls", "--kmax", "3"])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l.strip()]
    assert len(lines) == 14
    assert any(l.startswith("Lmm:2") and "2*theta0 + 1*theta1" in l
               for l in lines)


def test_classify_command(runner, tmp_path):
    res = runner.invoke(main, ["classify", "--theta", "-1,1"])
    assert res.exit_code == 0
    assert "on_wall Linf-" in res.output
    out = tmp_path / "c.json"
    res = runner.invoke(main, ["classify", "--theta", "-17/20,1",
                               "--json", str(out)])
    doc = json.loads(out.read_text())
    assert doc["chamber"] == "Zt" and doc["t"] == "20/3"


def test_classify_usage_error(runner):
    res = runner.invoke(main, ["classify", "--theta", "banana"])
    assert res.exit_code == 2


def test_js_pass_and_outputs(runner, tmp_path):
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    res = runner.invoke(main, ["js", "--k", "2", "--dmax", "2",
                               "--json", str(jpath), "--csv", str(cpath)])
    assert res.exit_code == 0
    assert "PASS" in res.output
    doc = json.loads(jpath.read_text())
    assert doc["pass"] is True and doc["command"] == "js"
    assert "elapsed_ms" not in doc
    rows = list(csv.reader(cpath.open()))
    assert rows[0] == ["degree", "expression"]
    assert len(rows) == 1 + len(doc["degrees"])


def test_identity_failure_exit_code(runner):
    res = runner.invoke(main, [
        "wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "1",
        "--sign-override", "plus:Lmm2,i0=IlP1:1,comp=1,0,0,0=-1",
    ])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_wallcross_usage_errors(runner):
    assert runner.invoke(main, ["wallcross", "--wall", "Lpm:1",
                                "--i0", "OX"]).exit_code == 2
    assert runner.invoke(main, ["wallcross", "--wall", "Lmm:2",
                                "--i0", "bad"]).exit_code == 2
    assert runner.invoke(main, ["wallcross", "--wall", "Lmm:2",
                                "--i0", "OX", "--sign-override",
                                "x=0"]).exit_code == 2


def test_internal_error_exit_code(runner):
    # more fixed points than --cap is the user's limit, not an internal
    # error: a usage error with one error line, checked before any search
    res = runner.invoke(main, ["signsearch", "--k", "2", "--d", "2",
                               "--cap", "1"])
    assert res.exit_code == 2
    errors = [l for l in res.stderr.splitlines()
              if l.lower().startswith("error")]
    assert errors == ["Error: 3 fixed points exceed --cap 1"]


def test_degree_overflow_exits_3(runner, monkeypatch):
    # a polynomial past the monomial keys' degree limit is an internal
    # error: one stderr line and exit 3, not a traceback and exit 1
    from wallx.ratfun import MultiPoly

    def overflowing(*args, **kwargs):
        return MultiPoly.var("lam1") ** 4096

    monkeypatch.setattr(cli_mod, "check_js", overflowing)
    res = runner.invoke(main, ["js", "--k", "2", "--dmax", "2", "--no-cache"])
    assert res.exit_code == 3
    assert res.stderr.startswith("error: DegreeOverflow:")


def test_signsearch_finds_signs(runner):
    res = runner.invoke(main, ["signsearch", "--k", "2", "--d", "1"])
    assert res.exit_code == 0
    assert res.output.count("+1") == 2


def test_contribution_command(runner):
    res = runner.invoke(main, ["contribution", "--label",
                               "js:k=1,d=1,comp=1"])
    assert res.exit_code == 0
    assert "prod[ m^1 ; lam3^-1 ] * ( -1 ) / ( 1 )" in res.output


@pytest.mark.parametrize("label", [
    "js:k=0,d=1,comp=1", "js:k=2,d=-1,comp=1", "js:k=2",
    "js:k=x,d=1,comp=1", "plus:Lmm2,i0=IlP1:1,comp=a",
    "js:k=0,d=0,comp=", "plus:Lmm2,i0=IP1,comp=1",
])
def test_contribution_bad_label_is_usage_error(runner, label):
    # a label that names no fixed point is the user's input, not an
    # internal error: exit 2 with one error line after click's usage block
    res = runner.invoke(main, ["contribution", "--label", label])
    assert res.exit_code == 2
    lines = [line for line in res.stderr.splitlines()
             if line.startswith("Error:")]
    assert len(lines) == 1
    assert "error: UnsupportedConfiguration" not in res.stderr


@pytest.mark.parametrize("label, code", [
    # 1.35 M compositions of 12 into 12 parts; the last one in lex order
    ("js:k=30,d=30,comp=x", 2),
    ("js:k=12,d=12,comp=12" + ",0" * 11, 0),
])
def test_contribution_builds_only_the_labelled_point(runner, label, code):
    start = time.perf_counter()
    res = runner.invoke(main, ["contribution", "--label", label])
    assert res.exit_code == code
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("gamma", ["abc", "1/0"])
def test_series_bad_gamma_is_usage_error(runner, gamma):
    res = runner.invoke(main, ["series", "--kind", "primary:I",
                               "--gamma", gamma])
    assert res.exit_code == 2
    assert f"bad --gamma {gamma!r}" in res.output


def test_wallcross_bad_i0_thickness_is_usage_error(runner):
    res = runner.invoke(main, ["wallcross", "--wall", "Lmm:2",
                               "--i0", "IlP1:x"])
    assert res.exit_code == 2


@pytest.mark.parametrize("wall, i0, message", [
    ("Lmm:2", "IP1", "IP1 reference only classified for k >= 3"),
    ("Lmm:1", "IlP1:1", "IlP1 reference only classified on Lmm(2)"),
])
def test_wallcross_unclassified_wall_and_i0_is_usage_error(
        runner, tmp_path, wall, i0, message):
    # rejected before any enumeration, the --sign-override label scan too;
    # the one error line follows click's usage block
    res = runner.invoke(main, ["wallcross", "--wall", wall, "--i0", i0,
                               "--sign-override", "nosuch=-1"])
    assert res.exit_code == 2
    errors = [l for l in res.stderr.splitlines()
              if l.lower().startswith("error")]
    assert errors == [f"Error: {message}"]
    assert not (tmp_path / "cache").exists()


def test_series_nc_window_keeps_cross_terms(runner):
    # (q t) * (q t^-1) lands at q^2 t^0 inside the t^0 window
    res = runner.invoke(main, ["series", "--kind", "NC", "--qmax", "3",
                               "--tmax", "0"])
    assert res.exit_code == 0
    assert ("  q^2*t^0      prod[ m^1 ; lam3^-2 ; 5*lam3 + 3*m^1 ] * ( 1 ) "
            "/ ( 1 )\n") in res.output


def test_series_command_csv(runner, tmp_path):
    cpath = tmp_path / "s.csv"
    res = runner.invoke(main, ["series", "--kind", "NC", "--qmax", "1",
                               "--tmax", "1", "--csv", str(cpath)])
    assert res.exit_code == 0
    rows = {r[0]: r[1] for r in list(csv.reader(cpath.open()))[1:]}
    assert rows["q^1*t^0"] == "prod[ m^1 ; lam3^-1 ] * ( 2 ) / ( 1 )"


def test_thread_count_invisible_in_json(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["js", "--k", "1", "--dmax", "2", "--no-cache"]
    assert runner.invoke(main, base + ["--threads", "1",
                                       "--json", str(a)]).exit_code == 0
    assert runner.invoke(main, base + ["--threads", "8",
                                       "--json", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["js", "--k", "2", "--dmax", "1", "--json"],
    ["js", "--k", "2", "--dmax", "1", "--csv"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "1",
     "--csv"],
    ["dimred", "--k", "2", "--dmax", "1", "--json"],
    ["insertion-free", "--k", "2", "--dmax", "1", "--csv"],
    ["series", "--kind", "NC", "--qmax", "1", "--csv"],
    ["classify", "--theta", "-1,1", "--json"],
])
def test_unwritable_output_path_is_usage_error(runner, tmp_path, args):
    res = runner.invoke(main, args + [str(tmp_path / "missing" / "out")])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: cannot write ")
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(runner, tmp_path, monkeypatch):
    key = cache_key("js", {"k": 1})
    assert cache_get(key) is None
    entry = (b'{"command": "js", "params": {"k": 1}, "seed": null, '
             b'"degrees": [], "pass": true}')
    cache_put(key, entry)
    assert cache_get(key) == entry


def test_cache_version_and_param_sensitivity():
    assert cache_key("js", {"k": 1}) != cache_key("js", {"k": 2})
    old = cli_mod.__version__
    try:
        k1 = cache_key("js", {"k": 1})
        cli_mod.__version__ = old + ".post1"
        assert cache_key("js", {"k": 1}) != k1
    finally:
        cli_mod.__version__ = old


def test_cache_key_follows_source_digest(monkeypatch):
    k1 = cache_key("js", {"k": 1})
    monkeypatch.setattr(cli_mod, "source_digest", lambda: "0" * 64)
    assert cache_key("js", {"k": 1}) != k1


def test_cache_write_failing_midway_leaves_no_entry(runner, tmp_path,
                                                    monkeypatch):
    key = cache_key("js", {"k": 1})
    real_write = pathlib.Path.write_bytes

    def half_write(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(pathlib.Path, "write_bytes", half_write)
    with pytest.raises(OSError):
        cache_put(key, b'{"x": 1}')
    assert not (tmp_path / "cache" / f"{key}.json").exists()
    assert list((tmp_path / "cache").iterdir()) == []


def test_cache_hit_reuses_bytes(runner, tmp_path):
    args = ["js", "--k", "1", "--dmax", "1", "--json"]
    assert runner.invoke(main, args + [str(tmp_path / "1.json")]).exit_code == 0
    cache_files = list((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 1
    # poison the cached payload; the hit must be served verbatim
    doc = json.loads(cache_files[0].read_text())
    doc["params"]["k"] = 99
    cache_files[0].write_text(json.dumps(doc))
    res = runner.invoke(main, args + [str(tmp_path / "2.json")])
    assert res.exit_code == 0
    assert json.loads((tmp_path / "2.json").read_text())["params"]["k"] == 99


def test_cache_corruption_recomputes(runner, tmp_path):
    # not JSON, JSON nested too deep to parse, and JSON that is not a report
    args = ["js", "--k", "1", "--dmax", "1"]
    assert runner.invoke(main, args).exit_code == 0
    cache_files = list((tmp_path / "cache").glob("*.json"))
    for payload in ("{ not json", "[" * 100_000 + "]" * 100_000, "null", "{}",
                    "[1]", '{"command": "js"}', '"x"',
                    '{"command": "js", "params": {}, "degrees": [], '
                    '"pass": "yes"}'):
        cache_files[0].write_text(payload)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, payload
        assert "corrupt cache entry" in res.output
        assert json.loads(cache_files[0].read_text())["command"] == "js"


def test_unwritable_cache_keeps_report_and_verdict(runner, tmp_path,
                                                   monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("WALLX_CACHE", str(blocker / "cache"))
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["js", "--k", "2", "--dmax", "1",
                               "--json", str(out)])
    assert res.exit_code == 0
    assert "PASS" in res.stdout
    assert json.loads(out.read_text())["pass"] is True
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: cannot write cache")
    # a failed identity still exits 1
    res = runner.invoke(main, [
        "wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "1",
        "--sign-override", "plus:Lmm2,i0=IlP1:1,comp=1,0,0,0=-1",
    ])
    assert res.exit_code == 1
    assert res.stderr.startswith("warning: cannot write cache")


def test_no_cache_leaves_no_directory(runner, tmp_path):
    res = runner.invoke(main, ["js", "--k", "1", "--dmax", "1", "--no-cache"])
    assert res.exit_code == 0
    assert not (tmp_path / "cache").exists()


# ---------------------------------------------------------------------------
# counts out of range are usage errors, never a traceback or a vacuous PASS


def test_js_rank_zero_is_usage_error(runner):
    assert runner.invoke(main, ["js", "--k", "0"]).exit_code == 2


def test_insertion_free_rank_zero_is_usage_error(runner):
    assert runner.invoke(main, ["insertion-free", "--k", "0"]).exit_code == 2


def test_wallcross_negative_tmax_is_usage_error(runner):
    res = runner.invoke(main, ["wallcross", "--wall", "Lmm:2", "--i0", "OX",
                               "--tmax", "-1"])
    assert res.exit_code == 2


def test_js_dmax_below_one_is_usage_error(runner):
    # check_js starts at d = 1, so dmax < 1 would check nothing
    for dmax in ("-1", "0"):
        res = runner.invoke(main, ["js", "--k", "1", "--dmax", dmax])
        assert res.exit_code == 2
        assert "PASS" not in res.output


def test_eval_zero_points_is_usage_error(runner):
    res = runner.invoke(main, ["js", "--k", "1", "--dmax", "1",
                               "--backend", "eval", "--points", "0"])
    assert res.exit_code == 2
    assert "PASS" not in res.output


def test_eval_bound_below_the_least_float_stays_positive(runner, tmp_path):
    # (deg / p)^60 underflows a float; a bound of 0.0 would claim certainty
    out = tmp_path / "w.json"
    res = runner.invoke(main, ["wallcross", "--wall", "Lmm:2", "--i0",
                               "IlP1:1", "--tmax", "1", "--backend", "eval",
                               "--points", "60", "--json", str(out)])
    assert res.exit_code == 0
    assert "false-accept bound <= 5e-324" in res.output
    assert json.loads(out.read_text())["sz_bound"] == 5e-324


@pytest.mark.parametrize("argv", [
    ["dimred", "--k", "3000", "--dmax", "0"],
    ["wallcross", "--wall", "Lmm:3000", "--i0", "OX", "--tmax", "0"],
])
def test_rank_in_the_thousands_passes_at_degree_zero(runner, argv):
    # one composition of 0 into k parts; building it once recursed per part
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert "Traceback" not in res.output
    assert "PASS" in res.output


def test_series_negative_qmax_is_usage_error(runner):
    res = runner.invoke(main, ["series", "--kind", "PT", "--qmax", "-1"])
    assert res.exit_code == 2


def test_walls_and_classify_negative_kmax_are_usage_errors(runner):
    assert runner.invoke(main, ["walls", "--kmax", "-1"]).exit_code == 2
    res = runner.invoke(main, ["classify", "--theta", "-1,1", "--kmax", "-1"])
    assert res.exit_code == 2


def test_signsearch_negative_cap_is_usage_error(runner):
    res = runner.invoke(main, ["signsearch", "--k", "2", "--d", "2",
                               "--cap", "-1"])
    assert res.exit_code == 2


def test_threads_below_one_is_usage_error(runner):
    for threads in ("-5", "0"):
        res = runner.invoke(main, ["js", "--k", "1", "--dmax", "1",
                                   "--threads", threads])
        assert res.exit_code == 2
        assert "PASS" not in res.output


def test_every_count_option_has_a_minimum():
    # any int is a valid seed; every other integer option is a count
    for command in main.commands.values():
        for param in command.params:
            if not isinstance(param.type, click.types.IntParamType):
                continue
            if param.name == "seed":
                continue
            where = f"{command.name} --{param.name}"
            assert isinstance(param.type, click.IntRange), where
            assert param.type.min is not None, where


def test_unknown_sign_override_label_is_usage_error(runner, tmp_path):
    report = tmp_path / "r.json"
    res = runner.invoke(main, [
        "wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "1",
        "--sign-override", "nosuch=-1", "--json", str(report),
    ])
    assert res.exit_code == 2
    assert "nosuch" in res.output
    assert "PASS" not in res.output
    assert not report.exists()
    assert not (tmp_path / "cache").exists()


# ---------------------------------------------------------------------------
# the exit-code contract over drawn argv: 0 pass, 1 identity failed,
# 2 usage, 3 internal, never a traceback, and a cache entry only for a
# report

def _opt(flag, good, bad):
    """--flag with a well-formed value 19 times in 20, else with a
    malformed one or left out."""
    def pick(n):
        if n:
            return st.sampled_from(good).map(lambda v: [flag, v])
        return st.one_of(st.just([]),
                         st.sampled_from(bad).map(lambda v: [flag, v]))
    return st.integers(0, 19).flatmap(pick)


_BAD_COUNTS = ("-1", "0", "x", "+2", "1/2", "")
# fixed-point labels, the last ten naming no fixed point (exit 3)
_LABELS = ("js:k=1,d=1,comp=1", "js:k=2,d=2,comp=1,1", "js:k=2,d=2,comp=2,0",
           "plus:Lmm2,i0=IlP1:1,comp=1,0,0,0", "minus:Lmm2,i0=IlP1:1",
           "minus:Lmm3,i0=IP1,subset=1",
           "js:k=0,d=1,comp=1", "js:k=2,d=-1,comp=1", "js:k=2",
           "js:k=x,d=1,comp=1", "js:k=1,d=1,comp=0", "js:",
           "plus:Lmm2,i0=IlP1:1,comp=a", "minus:Lmm2,i0=OX,comp=",
           "garbage", "")
# a wall, a reference object, one fixed point of theirs and the largest
# --tmax that keeps the check quick; the last site is a reference that the
# wall does not classify
_SITES = (("Lmm:1", "OX", "js:k=1,d=1,comp=1", 2),
          ("Lmm:2", "IlP1:1", "plus:Lmm2,i0=IlP1:1,comp=1,0,0,0", 2),
          ("Lmm:3", "IP1", "minus:Lmm3,i0=IP1,subset=1", 1),
          ("Lmm:1", "IlP1:1", "minus:Lmm1,i0=OX", 2))
_BAD_OVERRIDES = ("plus:Lmm2,i0=IlP1:1,comp=1,0,0,0=2", "nosuch=-1", "x=0",
                  "=1", "-1", "")
_EVAL = [_opt("--backend", ("symbolic", "eval"), ("exact", "")),
         _opt("--points", ("1", "3"), ("0", "-2", "x")),
         _opt("--seed", ("0", "42", "-1"), ("x", "1.5", ""))]
_REPORT = [_opt("--threads", ("1", "4"), ("0", "-5")),
           st.sampled_from([[], ["--no-cache"]])]
_K = _opt("--k", ("1", "2", "3"), _BAD_COUNTS)


@st.composite
def _wallcross_site(draw):
    """--wall, --i0, --tmax and --sign-override: a site's own parts, its
    point flipped or kept, or malformed ones."""
    wall, i0, point, tmax = draw(st.sampled_from(_SITES))
    argv = draw(_opt("--wall", (wall,), ("Lmm:0", "Lmm:-1", "Lmm", "Lmm:x",
                                         "Lpm:1", "Linf_minus", "bad", "")))
    argv += draw(_opt("--i0", (i0,), ("IlP1:2", "IlP1:0", "IlP1:-1",
                                      "IlP1:x", "IlP1", "IP1:1", "bad", "")))
    argv += draw(_opt("--tmax", [str(t) for t in range(tmax + 1)],
                      ("-1", "x")))
    flip, keep = f"{point}=-1", f"{point}=+1"
    bad = draw(st.sampled_from(_BAD_OVERRIDES))
    override = draw(st.sampled_from((None, None, flip, flip, keep, bad)))
    if override is not None:
        argv += ["--sign-override", override]
    return argv


_GRAMMAR = {
    "walls": [_opt("--kmax", ("0", "2", "3"), ("-1", "x"))],
    "classify": [_opt("--theta", ("-1,1", "-17/20,1", "1/2,-1/3", "0,0",
                                  "2,1", "-2/3,5"),
                      ("1,1/0", "inf,1", "nan,1", "1", "x,y", "1,2,3", "")),
                 _opt("--kmax", ("0", "10"), ("-1", "x"))],
    "js": [_K, _opt("--dmax", ("1", "2", "3"), _BAD_COUNTS), *_EVAL,
           *_REPORT],
    "wallcross": [_wallcross_site(), *_EVAL, *_REPORT],
    "dimred": [_K, _opt("--dmax", ("0", "2", "3"), ("-1", "x")), *_REPORT],
    "insertion-free": [_K, _opt("--dmax", ("0", "2", "3"), ("-1", "x")),
                       *_REPORT],
    "series": [_opt("--kind", ("PT", "MacMahon", "NC", "primary:I",
                               "primary:II_III", "primary:IV",
                               "primary:other"),
                    ("primary:V", "QT", "")),
               _opt("--qmax", ("0", "1", "3"), ("-1", "x")),
               _opt("--tmax", ("0", "2"), ("-1", "x")),
               _opt("--gamma", ("1", "-1", "2/3", "0"),
                    ("1/0", "inf", "nan", "x", "", "1/2/3"))],
    "contribution": [_opt("--label", _LABELS, ("",))],
    "signsearch": [_K, _opt("--d", ("0", "1", "2", "3"), ("-1", "x")),
                   _opt("--cap", ("1", "3", "20"), ("-1", "0", "x")),
                   *_EVAL],
}
_EXTRA = st.sampled_from([[]] * 18 + [["--bogus"], ["stray"]])
_CHECKS = ("js", "wallcross", "dimred", "insertion-free")


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for part in _GRAMMAR[command]:
        argv += draw(part)
    return argv + draw(_EXTRA)


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_exit_code_contract_holds_for_drawn_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cache, report = pathlib.Path(tmp, "cache"), pathlib.Path(tmp, "r.json")
        if argv[0] in _CHECKS:
            argv = argv + ["--json", str(report)]
        res = CliRunner().invoke(main, argv, env={"WALLX_CACHE": str(cache)})
        code = res.exit_code
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in res.output
        if code in (2, 3):
            assert not list(cache.glob("*"))
        if argv[0] in _CHECKS and code in (0, 1):
            verdicts = [rec["verdict"]
                        for rec in json.loads(report.read_text())["degrees"]]
            if code == 0:
                assert verdicts and set(verdicts) == {"equal"}
            else:
                assert "unequal" in verdicts
        elif argv[0] == "signsearch" and code == 1:
            assert res.stdout == "no sign assignment matches\n"
        else:
            assert code != 1
