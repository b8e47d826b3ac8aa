"""Acceptance gate: one test per required behavior, each printing a single
pass/fail line.  Every check here runs the real pipeline at the stated
sizes and tolerances (exact equality unless the seeded evaluation backend
is explicitly requested)."""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner

from wallx.cli import main as cli_main
from wallx.geom import (
    compositions,
    contribution,
    example_term_l1_k2,
    fiber_minus,
    fiber_plus,
    i0_contribution,
    js_fixed_points,
    parse_i0,
)
from wallx.kclass import KClass, chi_p1, euler_class
from wallx.quiver import (
    FramedRep,
    Theta,
    classify_theta,
    is_cyclic,
    is_stable_graded,
    wall_halfplane,
    walls_up_to,
)
from wallx.ratfun import EvalBackend, RatFun, binomial_rf, parse_ratfun, rf_sum
from wallx.series import (
    TruncSeries,
    check_dimred,
    check_insertion_free,
    check_js,
    check_wallcross,
    primary_series,
    product_series,
)

M_OVER_L3 = RatFun.var("m") / RatFun.var("lam3")
EVAL = EvalBackend(points=5, seed=42)


def _verdict(n, ok, desc):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_01_localization_sum_closed_forms():
    t0 = time.monotonic()
    ok = all(check_js(k, 4).passed for k in (1, 2, 3))
    elapsed = time.monotonic() - t0
    _verdict(1, ok and elapsed < 30,
             f"degree<=4 localization sums for ranks 1..3 match both closed "
             f"forms exactly ({elapsed:.1f}s)")


def test_criterion_02_wall_quotient_thickened_reference():
    t0 = time.monotonic()
    ok = True
    for l in (1, 2, 3):
        ok &= check_wallcross(2, parse_i0(f"IlP1:{l}"), 3).passed
    ok &= check_wallcross(2, parse_i0("IlP1:1"), 8, backend=EVAL).passed
    ok &= check_wallcross(2, parse_i0("IlP1:2"), 6, backend=EVAL).passed
    elapsed = time.monotonic() - t0
    _verdict(2, ok and elapsed < 300,
             f"rank-2 wall quotient equals (1-t)^(2m/lam3): symbolic t^3 "
             f"for l=1,2,3 and evaluated t^8/t^6 ({elapsed:.1f}s)")


def test_criterion_03_wall_quotient_reduced_reference():
    t0 = time.monotonic()
    ok = check_wallcross(3, parse_i0("IP1"), 3, backend=EVAL).passed
    for k in range(3, 9):
        ok &= check_wallcross(k, parse_i0("IP1"), 1, backend=EVAL).passed
    elapsed = time.monotonic() - t0
    _verdict(3, ok and elapsed < 120,
             f"rank-3 wall quotient to t^3 and degree t^1 up to rank 8, "
             f"evaluated ({elapsed:.1f}s)")


def test_criterion_04_explicit_product_identity():
    ok = True
    i0 = parse_i0("IlP1:1")
    base = i0_contribution(i0)
    for d in range(0, 4):
        explicit = rf_sum([example_term_l1_k2(*q)
                           for q in compositions(d, 4)])
        pipeline = rf_sum([contribution(fp)
                           for fp in fiber_plus(2, i0, d)]) / base
        target = binomial_rf(2 * M_OVER_L3, d)
        if d % 2:
            target = -target
        ok &= explicit == pipeline == target
    _verdict(4, ok, "explicit quadruple product sums match the enumerated "
                    "fiber and the binomial, degrees <= 3, exact")


def test_criterion_05_specialization_to_threefold():
    reports = [check_dimred(k, 4) for k in (1, 2, 3)]
    ok = all(r.passed for r in reports)
    _verdict(5, ok, "m = lam3 specialization: thickened points vanish, "
                    "Z-supported points match (-1)^chi times the reduced "
                    "Euler class, totals equal (-1)^d C(k,d), ranks 1..3, "
                    "degrees <= 4")


def test_criterion_06_insertion_free_limit():
    ok = check_insertion_free(1, 4).passed
    ok &= check_insertion_free(2, 3).passed
    ok &= check_insertion_free(3, 3).passed
    _verdict(6, ok, "insertion-free series: exp(-t/lam3) at rank 1 up to "
                    "t^4, constant 1 at ranks 2,3 up to t^3")


def test_criterion_07_reference_series_spot_checks():
    pt = product_series("PT", 1, 1)
    nc = product_series("NC", 1, 1)
    other = primary_series("other", Fraction(2), 2)
    ok = pt.coeff(1, 1) == -M_OVER_L3
    ok &= nc.coeff(1, 0) == 2 * M_OVER_L3
    ok &= other.coeff(0, 0) == RatFun.const(1)
    ok &= all(c.is_zero() or key == (0, 0)
              for key, c in other.coeffs.items())
    _verdict(7, ok, "reference product and closed chamber series "
                    "coefficients, exact")


def test_criterion_08_property_suites():
    ok = True
    # multiplicativity of the Euler class on 100 random pairs
    rng = random.Random(88)
    checked = 0
    while checked < 100:
        def rand_kclass():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = tuple(rng.randrange(-2, 3) for _ in range(4))
                if w != (0, 0, 0, 0):
                    terms[w] = rng.choice([-2, -1, 1, 2])
            return KClass(terms)
        u, v = rand_kclass(), rand_kclass()
        if u.zero_mult() or v.zero_mult():
            continue
        ok &= euler_class(u + v) == euler_class(u) * euler_class(v)
        checked += 1
    # rank of the projective-line character
    ok &= all(chi_p1(a, b).rank() == a + b + 1
              for a in range(-5, 6) for b in range(-5, 6))
    # enumerator cardinalities at the sizes used above
    for k in (1, 2, 3):
        for d in range(5):
            ok &= len(js_fixed_points(k, d)) == comb(d + k - 1, k - 1)
    for l in (1, 2, 3):
        for d in range(4):
            ok &= len(fiber_plus(2, parse_i0(f"IlP1:{l}"), d)) == comb(d + 3, 3)
    for k in range(3, 9):
        ok &= len(fiber_plus(k, parse_i0("IP1"), 1)) == comb(1 + 3 * k - 3,
                                                            3 * k - 3)
        for d in range(2):
            ok &= len(fiber_minus(k, parse_i0("IP1"), d)) == comb(k - 2, d)
    # series ring laws on rational-coefficient series
    a = TruncSeries({d: RatFun.const(d + 1) for d in range(4)}, 3)
    b = TruncSeries({0: RatFun.const(1), 1: RatFun.const(-2)}, 3)
    c = TruncSeries({2: RatFun.const(5)}, 3)
    ok &= ((a + b) + c).coeffs == (a + (b + c)).coeffs
    ok &= all((a * (b + c)).coeff(d) == (a * b + a * c).coeff(d)
              for d in range(4))
    ok &= all(((a / b) * b).coeff(d) == a.coeff(d) for d in range(4))
    # grammar round-trip on every emitted value of a symbolic report
    for rep in (check_js(2, 3), check_wallcross(2, parse_i0("IlP1:1"), 2)):
        for rec in rep.degrees:
            ok &= str(parse_ratfun(rec.lhs)) == rec.lhs
            ok &= str(parse_ratfun(rec.rhs)) == rec.rhs
    _verdict(8, ok, "property suites: Euler multiplicativity (100 pairs), "
                    "character ranks, enumerator counts, series ring laws, "
                    "grammar round trips")


def _int_matmul(A, B):
    if not A or not B:
        return tuple(() for _ in A)
    k, m = len(B), len(B[0])
    return tuple(tuple(sum(row[l] * B[l][j] for l in range(k))
                       for j in range(m)) for row in A)


def _int_relations_ok(a1, a2, b1, b2, c, dd):
    def mm(*Ms):
        out = Ms[0]
        for M in Ms[1:]:
            out = _int_matmul(out, M)
        return out
    return (
        mm(a2, b1, a1) == mm(a1, b1, a2) and
        mm(a2, b2, a1) == mm(a1, b2, a2) and
        mm(b2, a1, b1) == mm(b1, a1, b2) and
        mm(b2, a2, b1) == mm(b1, a2, b2) and
        mm(dd, a1) == mm(a1, c) and
        mm(dd, a2) == mm(a2, c) and
        mm(c, b1) == mm(b1, dd) and
        mm(c, b2) == mm(b2, dd)
    )


def _monomial_mats(r, cdim):
    out = []
    for entries in itertools.product((0, 1), repeat=r * cdim):
        M = tuple(entries[i * cdim:(i + 1) * cdim] for i in range(r))
        if all(sum(row) <= 1 for row in M) and \
                all(sum(M[i][j] for i in range(r)) <= 1 for j in range(cdim)):
            out.append(M)
    return out


def test_criterion_09_stability_chamber_suite():
    ok = True
    # exact classification on a rational grid over [-3,3]^2
    kmax = 11
    wall_table = [(lab, line, wall_halfplane(lab))
                  for lab, line in walls_up_to(kmax)]
    step = Fraction(3, 10)
    for i in range(-10, 11):
        for j in range(-10, 11):
            th = Theta(i * step, j * step)
            res = classify_theta(th, kmax)
            on = [lab for lab, (A, B), half in wall_table
                  if A * th.th0 + B * th.th1 == 0
                  and ((th.th0 < th.th1) if half == "th0<th1"
                       else (th.th0 > th.th1))]
            if res.kind == "degenerate":
                ok &= (th.th0, th.th1) == (0, 0)
            elif res.kind == "wall":
                ok &= on == [res.wall]
            elif res.kind == "chamber":
                ok &= not on
                if res.chamber == "empty":
                    ok &= th.th0 > 0 and th.th1 > 0
                elif res.chamber == "NC":
                    ok &= th.th0 < 0 and th.th1 < 0
                elif res.chamber == "Zt":
                    ok &= th.th0 < 0 < th.th1 and th.th0 + th.th1 > 0
                    ok &= res.interval[0] < res.t < res.interval[1]
            else:
                ok = False  # the grid resolves fully at this kmax
    # cyclic <=> stable in the chamber with both weights negative, over all
    # relation-satisfying graded representations with 0/1 entries
    th = Theta.of(-1, -1)
    checked = 0
    for d0, d1 in itertools.product(range(3), repeat=2):
        A = _monomial_mats(d1, d0)
        B = _monomial_mats(d0, d1)
        C = _monomial_mats(d0, d0)
        D = _monomial_mats(d1, d1)
        framings = [tuple(0 for _ in range(d0))] + [
            tuple(1 if i == j else 0 for i in range(d0)) for j in range(d0)]
        g0, g1 = tuple(range(d0)), tuple(range(100, 100 + d1))
        for c, dd in itertools.product(C, D):
            # the loop relations dd*a = a*c and c*b = b*dd involve one
            # arrow each, so filtering on them first drops no candidate
            # that passes all eight relations
            A_ok = [a for a in A if _int_matmul(dd, a) == _int_matmul(a, c)]
            B_ok = [b for b in B if _int_matmul(c, b) == _int_matmul(b, dd)]
            for a1, a2, b1, b2 in itertools.product(A_ok, A_ok, B_ok, B_ok):
                if not _int_relations_ok(a1, a2, b1, b2, c, dd):
                    continue
                for fr in framings:
                    rep = FramedRep.build((d0, d1), a1, a2, b1, b2, c, dd,
                                          framing=fr, grading0=g0, grading1=g1)
                    stable = is_stable_graded(rep, th)[0] == "stable"
                    ok &= stable == is_cyclic(rep)
                    checked += 1
    # the exhaustive enumeration yields exactly this many representations
    ok &= checked == 13878
    _verdict(9, ok, "chamber map exact on the 21x21 grid; cyclic <=> stable "
                    "over exhaustive small graded representations")


def test_criterion_10_byte_identical_reports_across_threads():
    runner = CliRunner()
    ok = True
    cases = [
        ["js", "--k", "2", "--dmax", "2"],
        ["wallcross", "--wall", "Lmm:2", "--i0", "IlP1:1", "--tmax", "3",
         "--backend", "eval", "--points", "5", "--seed", "42"],
        ["dimred", "--k", "2", "--dmax", "3"],
        ["insertion-free", "--k", "2", "--dmax", "3"],
    ]
    with runner.isolated_filesystem():
        for i, args in enumerate(cases):
            outs = []
            for threads in ("1", "8"):
                path = f"r{i}_{threads}.json"
                res = runner.invoke(cli_main, args + [
                    "--threads", threads, "--no-cache", "--json", path])
                ok &= res.exit_code == 0
                with open(path, "rb") as fh:
                    outs.append(fh.read())
            ok &= outs[0] == outs[1]
            ok &= json.loads(outs[0])["pass"] is True
    _verdict(10, ok, "JSON reports byte-identical for 1 and 8 worker "
                     "threads on every check command")
