#!/usr/bin/env python3
"""Print a digest of every JSON report of a fixed command set.

Usage: python3 scripts/report_digest.py

Runs, in this process, with --no-cache and a fresh empty WALLX_CACHE:
every SYMBOLIC_MENU command and every EVAL_MENU check at --seed 42 (both
menus read from bench/workloads.py), and the four criterion-10 commands of
tests/test_acceptance.py, and the EXTRA commands outside the menus:
rf_sum-heavy symbolic ones, and eval ones, of which one fails by a sign
override and exits 1.  Prints one `sha256[:16]  command` line per JSON report, or `exit N`
in place of the digest when a command wrote none.  The PRINTED commands
(every `series --kind` at --qmax 2 and at --qmax 3 --tmax 1, NC at
--qmax 3 --tmax 0, a symbolic and an eval `signsearch`, and nine
`contribution --label` ones) write no report; their line digests the exit
code and everything they print.  A
`sha256[:16]  parse_ratfun round trip of N values` line digests
str(parse_ratfun(v)) over every symbolic report lhs and rhs and every
printed contribution value v; the script exits 1 when some v does not
read back to itself, or when its value breaks the normal form's
invariant: a zero exponent, a form that is not primitive, a factored form
that divides a non-constant num, or a num that is one linear form.  A last
`sha256[:16]  chamber seed 42` line digests the outcomes of the chamber
workload's checks at seed 42, called straight into wallx.quiver as
bench/passrun.py calls them: every classify_theta result, and every
(check_relations, is_cyclic, is_stable_graded) triple with its witness.
A `sha256[:16]  chamber general reps` line digests, over a fixed seeded set
of GENERAL_REPS representations with int, Fraction, str and float entries,
zero and non-unit pivots, zero arrows, wrong shapes, bad entries and
missing gradings, each build error or the outcomes of check_relations,
is_cyclic, subrep_closure on seeded vectors and is_stable_graded, with
every exception text: the chamber workload's 0/1 graded reps never reach
the Fraction, pivot and error paths.
A `sha256[:16]  classify_theta grid` line digests the repr of every
classify_theta result over the scripts/chamber_grid.py grid at 10 steps per
unit and kmax 40, and over the integer points of [-25, 25]^2 at kmax 0, 1
and 10, where on-wall and integer-wall results are frequent.
A `sha256[:16]  contribution strings of N points` line digests
str(geom.contribution(fp)), or the name of the exception it raises, for
every fixed point of the EVAL_MENU fibers (both sides, every degree up to
tmax) and of js_fixed_points(k, d) for k <= 4, d <= 3.  Eval reports hold
only residues, so this line is where a change to the text of an eval-path
value shows.
A last `sha256[:16]  rf_sum over N seeded c1 = c2 sums` line digests
str(rf_sum(terms)) over LAM12_SUMS seeded sums whose forms all have
c1 = c2, with vectors that need not be primitive, Fraction scalars and
exponents -2..2, most of which keep lam1 + lam2 in the result: rf_sum sums
such terms with lam1 standing for lam1 + lam2 and maps the result back,
and the command set's collapsed sums almost never keep lam1 + lam2, so
this line is where a change to that map back shows.

Comparing the output of two checkouts checks that their reports and quiver
outcomes are byte-identical.  The wallx sources are taken from this
checkout's src/.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wallx import geom, quiver  # noqa: E402
from wallx.cli import main as cli_main, series as cli_series  # noqa: E402
from wallx.ratfun import RatFun, _form_coeffs, parse_ratfun, rf_sum  # noqa: E402

CHAMBER_SEED = 42
GENERAL_REPS = 1500
# zero entries first, then the nonzero ones from GENERAL_ENTRIES[7]
GENERAL_ENTRIES = (0, 0, 0, 0, "0", 0.0, Fraction(0), 1, -1, 2, -3, "2/3",
                   "-5/2", "4/2", 0.5, -1.25, Fraction(3, 4))
GRID_STEPS, GRID_KMAX = 10, 40
LAM12_SUMS = 400

CRITERION_10 = (
    ["js", "--k", "2", "--dmax", "2"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "3",
     "--backend", "eval", "--points", "5", "--seed", "42"],
    ["dimred", "--k", "2", "--dmax", "3"],
    ["insertion-free", "--k", "2", "--dmax", "3"],
)

EXTRA = (
    ["js", "--k", "4", "--dmax", "3"],
    ["js", "--k", "4", "--dmax", "4"],
    ["js", "--k", "5", "--dmax", "2"],
    ["js", "--k", "5", "--dmax", "4"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "5"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "6"],
    ["wallcross", "--wall", "Lmm:3", "--i0", "IP1", "--tmax", "2"],
    ["wallcross", "--wall", "Lmm:3", "--i0", "IP1", "--tmax", "3"],
    ["wallcross", "--wall", "Lmm:3", "--i0", "OX", "--tmax", "5"],
    ["wallcross", "--wall", "Lmm:4", "--i0", "OX", "--tmax", "4"],
    ["dimred", "--k", "3", "--dmax", "4"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "8",
     "--backend", "eval"],
    ["wallcross", "--wall", "Lmm:3", "--i0", "IP1", "--tmax", "3",
     "--backend", "eval"],
    ["js", "--k", "3", "--dmax", "3", "--backend", "eval"],
    ["js", "--k", "4", "--dmax", "3", "--backend", "eval"],
    # many vanishing fixed points
    ["wallcross", "--wall", "Lmm:3", "--i0", "IP1", "--tmax", "6",
     "--backend", "eval", "--points", "5", "--seed", "42"],
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:2", "--tmax", "7",
     "--backend", "eval", "--points", "5", "--seed", "42"],
    # a sign override that makes the identity fail (exit 1)
    ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "3",
     "--backend", "eval",
     "--sign-override", "plus:Lmm2,i0=IlP1:1,comp=0,1,0,0=-1"],
)

SERIES_KINDS = next(p for p in cli_series.params if p.name == "kind").type.choices

PRINTED = (
    *(["series", "--kind", kind, "--qmax", "2"] for kind in SERIES_KINDS),
    # windows narrower than the product, where NC's cross terms matter
    *(["series", "--kind", kind, "--qmax", "3", "--tmax", "1"]
      for kind in SERIES_KINDS),
    ["series", "--kind", "NC", "--qmax", "3", "--tmax", "0"],
    ["signsearch", "--k", "2", "--d", "2"],
    ["signsearch", "--k", "3", "--d", "2", "--backend", "eval"],
    *(["contribution", "--label", label] for label in (
        "js:k=2,d=3,comp=2,1",
        "js:k=3,d=2,comp=0,1,1",
        "plus:Lmm2,i0=IlP1:1,comp=0,1,0,0",
        "plus:Lmm3,i0=IP1,comp=0,0,0,0,0,0,1",
        "minus:Lmm3,i0=IP1,subset=1",
        "minus:Lmm2,i0=IlP1:2",
        "js:k=4,d=3,comp=3,0,0,0",
        "minus:Lmm5,i0=IP1,subset=2,3",
        "plus:Lmm3,i0=IP1,comp=1,0,0,0,0,0,0",
    )),
)


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def commands():
    w = load_bench("workloads")
    yield from w.SYMBOLIC_MENU
    for i0, k, tmax in w.EVAL_MENU:
        yield w._wallcross(k, i0, tmax, "--backend", "eval",
                           "--points", str(w.EVAL_POINTS), "--seed", "42")
    yield from CRITERION_10
    yield from EXTRA


def run_cli(args):
    """Run one CLI command in this process; (exit code, printed text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli_main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def report_bytes(args, path):
    """Run one CLI command; (exit code, JSON report bytes or None)."""
    path.unlink(missing_ok=True)
    code, _ = run_cli(args + ["--no-cache", "--json", str(path)])
    return code, path.read_bytes() if path.is_file() else None


def chamber_digest():
    """Digest of the chamber checks at CHAMBER_SEED, run and encoded as a
    benchmark pass does, with each stability witness added as sorted lists."""
    passrun = load_bench("passrun")
    outcomes = []
    for item in load_bench("workloads").make_checks("chamber", CHAMBER_SEED):
        item["theta_obj"] = quiver.Theta(*map(Fraction, item["theta"]))
        try:
            if item["kind"] == "theta":
                raw = quiver.classify_theta(item["theta_obj"], item["kmax"])
                outcomes.append(passrun.encode(item, raw))
                continue
            raw = passrun.rep_check(item)
        except Exception as exc:
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        out = passrun.encode(item, raw)
        witness = raw[2][1]
        out["witness"] = (None if witness is None else
                          [sorted(witness[0]), sorted(witness[1]), witness[2]])
        outcomes.append(out)
    data = json.dumps(outcomes, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _general_matrix(rng, rows, cols):
    u = rng.random()
    if u < 0.2:
        return None
    M = [[0] * cols for _ in range(rows)]
    if u < 0.35:
        return M
    if u < 0.6:  # one nonzero entry per column
        for j in range(cols * bool(rows)):
            M[rng.randrange(rows)][j] = rng.choice(GENERAL_ENTRIES[7:])
        return M
    return [[rng.choice(GENERAL_ENTRIES) for _ in range(cols)]
            for _ in range(rows)]


def _product(A, B, rows, cols):
    return [[sum(Fraction(A[i][k]) * Fraction(B[k][j]) for k in range(len(B)))
             for j in range(cols)] for i in range(rows)]


def _general_rep(rng):
    """(dims, six arrows, framing, gradings, closure seeds, theta)."""
    d0, d1 = dims = rng.randint(0, 3), rng.randint(0, 3)
    shapes = ((d1, d0), (d1, d0), (d0, d1), (d0, d1), (d0, d0), (d1, d1))
    if rng.random() < 0.3:  # a1 = a2 = A, b1 = b2 = B, c = BA, dd = AB
        A = _general_matrix(rng, d1, d0) or [[0] * d0 for _ in range(d1)]
        B = _general_matrix(rng, d0, d1) or [[0] * d1 for _ in range(d0)]
        arrows = [A, A, B, B, _product(B, A, d0, d0), _product(A, B, d1, d1)]
    else:
        arrows = [_general_matrix(rng, r, c) for r, c in shapes]
    k = rng.randrange(6)
    M = arrows[k]
    if M and M[0] and rng.random() < 0.1:  # one arrow out of shape
        arrows[k] = M[1:] if rng.random() < 0.5 else [M[0] + [1], *M[1:]]
    elif M and M[0] and rng.random() < 0.03:  # an entry _coef rejects
        arrows[k] = [[rng.choice((None, "")), *M[0][1:]], *M[1:]]
    framing = [rng.choice(GENERAL_ENTRIES)
               for _ in range(d0 + (rng.random() < 0.02))]
    gradings = {}
    if rng.random() < 0.9:
        gradings = {"grading0": tuple(range(d0)),
                    "grading1": tuple(range(100, 100 + d1))}
    seeds = [[(s, [rng.choice(GENERAL_ENTRIES) for _ in range(dims[s])])
              for s in (rng.randrange(2) for _ in range(rng.randint(1, 3)))]
             for _ in range(2)]
    if rng.random() < 0.05:
        seeds[0][0][1].append(1)
    theta = quiver.Theta.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return dims, arrows, framing, gradings, seeds, theta


def _outcome(f, *args):
    """repr of f(*args), witnesses as sorted lists, or the exception text."""
    try:
        out = f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if f is quiver.is_stable_graded and out[1] is not None:
        out = (out[0], (sorted(out[1][0]), sorted(out[1][1]), out[1][2]))
    return repr(out)


def general_rep_digest():
    """Digest of the rep checks over the GENERAL_REPS seeded general reps."""
    rng = random.Random("wallx-digest:general-reps")
    lines = []
    for _ in range(GENERAL_REPS):
        dims, arrows, framing, gradings, seeds, theta = _general_rep(rng)
        try:
            rep = quiver.FramedRep.build(dims, *arrows, framing=framing,
                                         **gradings)
        except Exception as exc:
            lines.append(f"build {type(exc).__name__}: {exc}")
            continue
        lines.append(" | ".join(
            [_outcome(quiver.check_relations, rep),
             _outcome(quiver.is_cyclic, rep),
             *(_outcome(quiver.subrep_closure, rep, s) for s in seeds),
             _outcome(quiver.is_stable_graded, rep, theta)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def classify_digest():
    """Digest of classify_theta over the chamber grid and integer points.

    The integer points are given as Fraction coordinates; tests check that
    int coordinates give the same results.
    """
    n, step = 3 * GRID_STEPS, Fraction(1, GRID_STEPS)
    results = [quiver.classify_theta(quiver.Theta(i * step, j * step), GRID_KMAX)
               for j in range(n, -n - 1, -1) for i in range(-n, n + 1)]
    results += [quiver.classify_theta(quiver.Theta.of(i, j), k_max)
                for i in range(-25, 26) for j in range(-25, 26)
                for k_max in (0, 1, 10)]
    data = "\n".join(map(repr, results)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def contribution_digest():
    """(digest, N): str(contribution(fp)) over the N fixed points of the
    EVAL_MENU fibers and of js k <= 4, d <= 3, in that order."""
    points = []
    for i0, k, tmax in load_bench("workloads").EVAL_MENU:
        i0 = geom.parse_i0(i0)
        for d in range(tmax + 1):
            points += geom.fiber_plus(k, i0, d) + geom.fiber_minus(k, i0, d)
    points += [fp for k in range(1, 5) for d in range(4)
               for fp in geom.js_fixed_points(k, d)]
    lines = []
    for fp in points:
        try:
            text = str(geom.contribution(fp))
        except Exception as exc:
            text = type(exc).__name__
        lines.append(f"{fp.label}: {text}")
    data = "\n".join(lines).encode()
    return hashlib.sha256(data).hexdigest()[:16], len(points)


def lam12_sum_digest():
    """Digest of str(rf_sum(terms)) over the LAM12_SUMS seeded sums: 2-5
    terms over one pool of 1-4 vectors (a, a, c, cm), each term a Fraction
    scalar times the pool's vectors to exponents -2..2."""
    rng = random.Random("wallx-digest:lam12-sums")
    lines = []
    for _ in range(LAM12_SUMS):
        pool = []
        while len(pool) < rng.randint(1, 4):
            a, c, cm = (rng.randint(-3, 3), rng.randint(-3, 3),
                        rng.randint(-2, 2))
            if a or c or cm:
                pool.append((a, a, c, cm))
        terms = [RatFun.from_forms(
            [(v, rng.randint(-2, 2)) for v in pool],
            Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4, 6)),
                     rng.randint(1, 12)))
            for _ in range(rng.randint(2, 5))]
        lines.append(str(rf_sum(terms)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def normal_form_fault(value):
    """How value breaks the normal form's invariant, or None."""
    if not all(value.factored.values()):
        return "a zero exponent"
    if any(math.gcd(*f) != 1 for f in value.factored):
        return "a form that is not primitive"
    if _form_coeffs(value.num) is not None:
        return "a num that is one linear form"
    if not value.num.is_const():
        for f in value.factored:
            if value.num.divmod_linear(f)[1]:
                return "a factored form that divides the num"
    return None


def main():
    values = []  # symbolic report sides and printed contribution values
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["WALLX_CACHE"] = str(pathlib.Path(tmp) / "cache")
        path = pathlib.Path(tmp) / "report.json"
        for args in commands():
            code, data = report_bytes(list(args), path)
            digest = (hashlib.sha256(data).hexdigest()[:16]
                      if data is not None else f"exit {code}")
            print(f"{digest}  {' '.join(args)}", flush=True)
            for rec in json.loads(data)["degrees"] if data else ():
                if rec["backend"] == "symbolic":
                    values += [rec["lhs"], rec["rhs"]]
        for args in PRINTED:
            code, text = run_cli(list(args))
            digest = hashlib.sha256(f"exit {code}\n{text}".encode()).hexdigest()
            print(f"{digest[:16]}  {' '.join(args)}", flush=True)
            values += [line.split(":", 1)[1].strip()
                       for line in text.splitlines()
                       if line.startswith("value ")]
    parsed = [parse_ratfun(v) for v in values]
    read_back = [str(r) for r in parsed]
    digest = hashlib.sha256("\n".join(read_back).encode()).hexdigest()
    print(f"{digest[:16]}  parse_ratfun round trip of {len(values)} values",
          flush=True)
    print(f"{chamber_digest()}  chamber seed {CHAMBER_SEED}", flush=True)
    print(f"{general_rep_digest()}  chamber general reps", flush=True)
    print(f"{classify_digest()}  classify_theta grid", flush=True)
    digest, n = contribution_digest()
    print(f"{digest}  contribution strings of {n} points", flush=True)
    print(f"{lam12_sum_digest()}  rf_sum over {LAM12_SUMS} seeded c1 = c2 "
          "sums", flush=True)
    mismatched = [v for v, r in zip(values, read_back) if v != r]
    for v in mismatched[:3]:
        print(f"does not read back to itself: {v}", file=sys.stderr)
    faults = [(v, fault) for v, r in zip(values, parsed)
              if (fault := normal_form_fault(r))]
    for v, fault in faults[:3]:
        print(f"not in normal form ({fault}): {v}", file=sys.stderr)
    return 1 if mismatched or faults else 0


if __name__ == "__main__":
    sys.exit(main())
