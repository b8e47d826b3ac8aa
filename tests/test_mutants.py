"""Mutation gate: each test patches one defect into the program through
monkeypatch and asserts that the checks reject it.

A checker that still passes with a mutant in place cannot tell the defect
from working code.  The mutants here run through rf_sum's collapsed path
(every form of the js and OX wall-crossing sums has c1 = c2, so they sum
with lam1 standing for lam1 + lam2) and its flat path (the IlP1:1 sums),
and the fixed-point, chi_X, chi_pair, zero-screen, content, from_forms and
primitive-table mutants also through the eval backend at three seeds; the
residue_pair and residue_sums mutants are in the eval backend alone.  A
mutant of a function body is the function recompiled from its source with
one edit.  Every test starts and ends with empty per-key tables (the
empty_tables fixture), so a mutant in a table's fill is not hidden by
entries an earlier test filled.

Equivalent mutants, kept out:
- with_point_sign off by one under check_wallcross: it negates both
  fibers, so their quotient is unchanged.
- a skipped residue_pair factor or a dropped residue_sums denominator
  under the symbolic backend: no symbolic check evaluates a RatFun mod p.
- the zero screen reading only the diagonal run pairs under check_js and
  the OX wall: two js runs on slots i != i' have a' - a = b - b' != 0 and
  twists that differ by a power of t3, so no term of their pairing is the
  zero weight.
- divmod_linear stepping only the pivot field under the eval backend:
  eval_mod reads each exponent from its own field and the degree field
  only to size its tables, so a degree field off by one changes no residue.
- rf_sum left over its content under eval check_wallcross,
  check_insertion_free(2, 3) and check_dimred(2, 3): every sum these form
  with rf_sum has content 1 (the target's x - i factors, the k = 2
  specialised totals) or is an rf_equal difference of equal values, whose
  zero test no scale changes.
- _division_bound one too low under every check: a form left in a num
  changes a value's text but not its value, and rf_equal zero-tests a
  difference.  test_hyperplane_test_never_rejects_a_multiple in
  tests/test_ratfun.py kills it.
- rf_sum's map back skipping the lam2 spread of the num, or leaving c2 at
  0 in a mapped-back form, under every check: no collapsed sum the checks
  form keeps lam1 + lam2 in its result (no collapsed num holds lam1, and
  a c1 = c2 form survives in almost none), so both sides map back alike.
  test_spread_lam1_substitutes_lam1_plus_lam2 and
  test_collapsed_sum_maps_lam1_plus_lam2_back in tests/test_ratfun.py
  kill them.
"""

import dataclasses
import inspect
import math
import textwrap
from fractions import Fraction

import pytest

from wallx import geom, kclass, ratfun, series
from wallx.geom import parse_i0
from wallx.kclass import KClass
from wallx.ratfun import EvalBackend
from wallx.series import (check_dimred, check_insertion_free, check_js,
                          check_wallcross)

OX = parse_i0("OX")
IlP1 = parse_i0("IlP1:1")
IP1 = parse_i0("IP1")
BACKENDS = ("symbolic", *(EvalBackend(seed=seed) for seed in (1, 2, 3)))


def _empty_tables():
    kclass._CHI_P1.clear()
    ratfun._PRIMITIVE.clear()
    geom._PAIRINGS.clear()
    geom._slots.cache_clear()


@pytest.fixture(autouse=True)
def empty_tables():
    """Empty the per-key tables (kclass._CHI_P1, ratfun._PRIMITIVE,
    geom._PAIRINGS and the enumeration cache geom._slots)
    before and after each test: a mutant in a table's fill then runs on
    every key its checks meet, not only on keys no earlier test has filled,
    and the entries it fills go with it."""
    _empty_tables()
    yield
    _empty_tables()


def test_sane_checks_pass():
    for backend in BACKENDS:
        assert check_js(3, 3, backend).passed
        assert check_wallcross(3, OX, 3, backend).passed
        assert check_wallcross(2, IlP1, 3, backend).passed
        assert check_wallcross(3, IP1, 2, backend).passed
    assert check_insertion_free(2, 3).passed
    assert check_dimred(2, 3).passed


def test_flipped_js_fixed_point_sign_is_rejected(monkeypatch):
    def flipped(k, d):
        points = geom.js_fixed_points(k, d)
        fp = points[-1]
        return points[:-1] + [
            dataclasses.replace(fp, sign_extra=fp.sign_extra + 1)]

    monkeypatch.setattr(series, "js_fixed_points", flipped)
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed


def test_dropped_js_fixed_point_is_rejected(monkeypatch):
    monkeypatch.setattr(series, "js_fixed_points",
                        lambda k, d: geom.js_fixed_points(k, d)[1:])
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed


def test_dropped_plus_fiber_point_at_ox_is_rejected(monkeypatch):
    def dropped(k, i0, d):
        points = geom.fiber_plus(k, i0, d)
        return points[1:] if d else points

    monkeypatch.setattr(series, "fiber_plus", dropped)
    for backend in BACKENDS:
        assert not check_wallcross(3, OX, 3, backend).passed


def test_point_sign_with_chi_off_by_one_is_rejected(monkeypatch):
    def off_by_one(fp, value):
        return -value if (fp.chi + 1 + fp.deg + fp.sign_extra) % 2 else value

    monkeypatch.setattr(geom, "with_point_sign", off_by_one)
    monkeypatch.setattr(series, "with_point_sign", off_by_one)
    assert not check_js(3, 3).passed
    assert not check_insertion_free(2, 3).passed
    assert not check_dimred(2, 3).passed


def test_from_forms_dropping_a_pole_content_is_rejected(monkeypatch):
    # a negative power of a non-primitive vector loses its content:
    # 1/(2*lam3) is read as 1/lam3
    monkeypatch.setattr(ratfun.RatFun, "from_forms", _recompiled(
        ratfun.RatFun.from_forms, "down *= g ** -e", "down *= 1"))
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(3, OX, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed
    assert not check_insertion_free(2, 3).passed
    assert not check_dimred(2, 3).passed


def test_primitive_table_taking_the_content_of_one_entry_is_rejected(
        monkeypatch):
    # the table's fill takes the content from the first nonzero coefficient
    # alone: (2, 3, 0, 0) is read as 2 * (1, 1, 0, 0)
    monkeypatch.setattr(ratfun._PrimitiveTable, "__missing__", _recompiled(
        ratfun._PrimitiveTable.__missing__, "g = math.gcd(c1, c2, c3, cm)",
        "g = math.gcd(c1 or c2 or c3 or cm)"))
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(3, OX, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed


def test_skipped_eval_mod_factor_is_rejected(monkeypatch):
    # the factor loop that eval_mod and residue_sums share skips one factor
    residue_pair = ratfun.RatFun.residue_pair

    def skipped(self, assign, p, table):
        rest = dict(list(self.factored.items())[1:])
        return residue_pair(ratfun._ratfun(rest, self.num), assign, p, table)

    monkeypatch.setattr(ratfun.RatFun, "residue_pair", skipped)
    for backend in BACKENDS[1:]:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(3, OX, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed


def test_residue_sums_dropping_a_term_den_is_rejected(monkeypatch):
    # the running numerator is not brought over the next term's denominator
    dropped = _recompiled(ratfun.residue_sums, "num = (num * d + n * den) % p",
                          "num = (num + n * den) % p")
    monkeypatch.setattr(ratfun, "residue_sums", dropped)
    monkeypatch.setattr(series, "residue_sums", dropped)
    for backend in BACKENDS[1:]:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(3, OX, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed


def test_zero_screen_reading_only_the_diagonal_run_pairs_is_rejected(
        monkeypatch):
    # the screen reads the zero weight off the entries of each run paired
    # with itself, so some points with a zero-free class read as vanishing
    monkeypatch.setattr(geom, "_zero_mult", _recompiled(
        geom._zero_mult, "for v in entries)",
        "for v in entries[::int(len(entries) ** 0.5) + 1])"))
    for backend in BACKENDS:
        assert not check_wallcross(2, IlP1, 3, backend).passed
        assert not check_wallcross(3, IP1, 2, backend).passed


def test_chi_X_reading_every_run_as_one_line_is_rejected(monkeypatch):
    # a run (L, n) pushes forward as L alone, not as L t3^j for j < n
    short = _recompiled(geom.chi_X, "for j in range(n)", "for j in range(1)")
    monkeypatch.setattr(geom, "chi_X", short)
    monkeypatch.setattr(series, "chi_X", short)
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed
        assert not check_wallcross(3, OX, 3, backend).passed
    assert not check_dimred(2, 3).passed
    assert not check_insertion_free(2, 3).passed


def test_shifted_chi_pair_weight_is_rejected(monkeypatch):
    chi_pair = geom.chi_pair

    def shifted(L, Lp, ambient):
        terms = dict(chi_pair(L, Lp, ambient).terms)
        if terms:
            w = min(terms)
            moved = (w[0], w[1] + 1, w[2], w[3])
            terms[moved] = terms.get(moved, 0) + terms.pop(w)
        return KClass(terms)

    monkeypatch.setattr(geom, "chi_pair", shifted)
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed
    assert not check_insertion_free(2, 3).passed


def test_dropped_term_content_in_rf_sum_is_rejected(monkeypatch):
    # the first term of each sum loses its integer content; eval checks
    # meet it in the binomial sums of the wall-crossing target
    expand = ratfun._shared_expansion
    depth = []

    def dropped(group, power):
        if not depth:
            coef, factors = group[0]
            group = [(coef.scale(Fraction(1, math.gcd(*coef.terms.values()))),
                      factors), *group[1:]]
        depth.append(1)
        try:
            return expand(group, power)
        finally:
            depth.pop()

    monkeypatch.setattr(ratfun, "_shared_expansion", dropped)
    for backend in BACKENDS:
        assert not check_js(3, 3, backend).passed
        assert not check_wallcross(2, IlP1, 3, backend).passed
    assert not check_dimred(2, 3).passed


def _recompiled(fn, old, new):
    """fn, a function or method, with its source edited once and compiled
    in the namespace of its module."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), fn.__globals__, namespace)
    return namespace[fn.__name__]


def test_rf_sum_left_over_its_content_is_rejected(monkeypatch):
    # the integer sum is never divided by the content its terms were
    # brought over
    monkeypatch.setattr(ratfun, "_rf_sum_flat", _recompiled(
        ratfun._rf_sum_flat, "out.num.scale(Fraction(1, content))",
        "out.num"))
    assert not check_js(3, 3).passed
    assert not check_wallcross(3, OX, 3).passed
    assert not check_wallcross(2, IlP1, 3).passed
    assert not check_wallcross(3, IP1, 2).passed
    for backend in BACKENDS[1:]:
        assert not check_js(3, 3, backend).passed
    assert not check_dimred(4, 3).passed


def test_divmod_linear_stepping_only_the_pivot_field_is_rejected(
        monkeypatch):
    # the quotient's keys keep the dividend's degree field
    monkeypatch.setattr(ratfun.MultiPoly, "divmod_linear", _recompiled(
        ratfun.MultiPoly.divmod_linear, "eq = e - unit",
        "eq = e - (1 << shift)"))
    assert not check_wallcross(2, IlP1, 3).passed
