"""Virtual character arithmetic, projective-line cohomology characters, and
Euler classes."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wallx import kclass, ratfun
from wallx.geom import fiber_minus, fiber_plus, js_fixed_points, parse_i0
from wallx.geom import sqrt_class, taut_class
from wallx.kclass import (
    ZERO_WEIGHT,
    KClass,
    chi_p1,
    euler_class,
    t0_weight,
    weight,
)
from wallx.ratfun import MultiPoly, PoleAtZeroWeight, RatFun, rf_sum


def test_weight_folds_scaling_exponent():
    # t0 = (t1 t2 t3)^{-1}
    assert weight(w0=1) == (-1, -1, -1, 0)
    assert weight(1, 0, 0, 0, w0=1) == (0, -1, -1, 0)


def test_chi_p1_no_higher_cohomology():
    assert chi_p1(0, 0).terms == {(0, 0, 0, 0): 1}
    assert chi_p1(1, 0).terms == {t0_weight(-1): 1, t0_weight(0): 1}


def test_chi_p1_empty_window():
    assert chi_p1(0, -1).is_zero()
    assert chi_p1(2, -3).is_zero()


def test_chi_p1_negative_window_flips_sign():
    v = chi_p1(0, -3)
    assert v.terms == {(1, 1, 1, 0): -1, (2, 2, 2, 0): -1}


def test_chi_p1_rank_formula():
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert chi_p1(a, b).rank() == a + b + 1


def _tensor(u, v):
    """u (x) v by the product of every pair of weights: the oracle that
    twist, the tensor with one weight, is checked against."""
    out = {}
    for wa, ca in u.terms.items():
        for wb, cb in v.terms.items():
            w = tuple(a + b for a, b in zip(wa, wb))
            out[w] = out.get(w, 0) + ca * cb
    return KClass(out)


def test_ring_operations():
    u = KClass.line(1, 0, 0, 0)
    v = KClass.line(0, 1, 0, 0)
    assert (u + v) - v == u
    assert _tensor(u, v) == KClass.line(1, 1, 0, 0)
    assert u.dual() == KClass.line(-1, 0, 0, 0)
    assert u.dual().dual() == u
    w = KClass({(1, -2, 0, 3): 2, (0, 0, -1, 1): -1})
    assert w.dual() == KClass({(-1, 2, 0, -3): 2, (0, 0, 1, -1): -1})


def test_twist_is_tensor_by_line():
    v = chi_p1(1, 2)
    w = (0, 0, 3, 1)
    assert v.twist(w) == _tensor(v, KClass({w: 1}))


@pytest.mark.parametrize("terms", [
    {(1, 0, 0, 0): Fraction(1, 2)},
    {(1, 0, 0, 0): 1.7},
    {(1, 0, 0): 1},
    {(1, 0, 0, 0, 0): 1},
    {(1, 0, Fraction(1), 0): 1},
], ids=["half", "float", "three_entries", "five_entries", "fraction_entry"])
def test_kclass_rejects_non_integral_multiplicities_and_bad_weights(terms):
    # a ValueError, not a stored 0 (half), a truncated 1 (float) or a
    # weight no other class can meet
    with pytest.raises(ValueError):
        KClass(terms)


def test_kclass_takes_integral_fractions_as_ints():
    v = KClass({(1, 0, 0, 0): Fraction(4, 2), (0, 1, 0, 0): Fraction(0),
                (0, 0, 1, 0): 2.0})
    assert list(v.terms.items()) == [((1, 0, 0, 0), 2), ((0, 0, 1, 0), 2)]
    assert all(type(c) is int for c in v.terms.values())
    assert KClass({(1, 0, 0, 0): Fraction(0)}).is_zero()


def _chi_p1_formula(a, b):
    """The terms of chi_p1(a, b), built afresh by the Riemann-Roch range."""
    if -a <= b:
        return {t0_weight(k): 1 for k in range(-a, b + 1)}
    if b == -a - 1:
        return {}
    return {t0_weight(k): -1 for k in range(b + 1, -a)}


def test_chi_p1_table_matches_the_formula_cold_and_warm(monkeypatch):
    monkeypatch.setattr(kclass, "_CHI_P1", {})
    keys = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    cold = {key: chi_p1(*key) for key in keys}
    assert len(kclass._CHI_P1) == len(keys)
    for key in keys:
        want = list(_chi_p1_formula(*key).items())
        warm = chi_p1(*key)
        assert warm is cold[key]
        assert list(warm.terms.items()) == want
    assert len(kclass._CHI_P1) == len(keys)


def test_tabled_classes_and_forms_are_unchanged_by_arithmetic():
    u, v = chi_p1(2, 1), chi_p1(0, -3)
    m = (0, 0, 0, 1)
    classes = {x: list(x.terms.items()) for x in (u, v)}
    values = [euler_class(x.twist(m)) for x in (u, v)]
    forms = dict(ratfun._PRIMITIVE)
    assert all(forms[f][0] is f for r in values for f in r.factored)
    results = [u + v, u - v, v - u, u + u, -u, _tensor(u, v), _tensor(v, u),
               u.dual(), v.dual(), u.twist(m), v.twist((1, -1, 2, 0))]
    products = [euler_class(r.twist(m)) for r in results if not r.is_zero()]
    assert not rf_sum(products + values).is_zero()
    assert values[0] * values[1] / values[1] == values[0]
    assert chi_p1(2, 1) is u and chi_p1(0, -3) is v
    for x, terms in classes.items():
        assert list(x.terms.items()) == terms
    for key, entry in forms.items():
        assert ratfun._PRIMITIVE[key] is entry
        assert ratfun._PrimitiveTable()[key] == entry


def test_euler_class_zero_weight_policy():
    assert euler_class(KClass({(0, 0, 0, 0): 1})).is_zero()
    with pytest.raises(PoleAtZeroWeight):
        euler_class(KClass({(0, 0, 0, 0): -1}))


def test_euler_class_single_weight():
    e = euler_class(KClass.line(0, 0, 1, 0))
    assert e == RatFun.var("lam3")
    e = euler_class(KClass({(0, 0, 1, 0): -1}))
    assert e == RatFun.var("lam3").inverse()


def _primitive(w):
    """(form, g): the primitive canonical form of the nonzero integer vector
    w and its signed content g, with g * form == w."""
    g = math.gcd(*w)
    if next(c for c in w if c) < 0:
        g = -g
    return tuple(c // g for c in w), g


def _euler_class_by_normalize(v):
    """euler_class of a class without zero weight, built by RatFun's
    normalisation over each weight's primitive form, times the product of
    the weights' signed contents."""
    factored, scalar = {}, Fraction(1)
    for w, c in v.terms.items():
        form, g = _primitive(w)
        factored[form] = factored.get(form, 0) + c
        scalar *= Fraction(g) ** c
    return RatFun(factored, MultiPoly.const(scalar))


def test_euler_class_is_the_normal_form():
    points = [fp for k in (1, 2, 3) for d in range(4)
              for fp in js_fixed_points(k, d)]
    for k, i0 in ((2, "IlP1:1"), (2, "IlP1:2"), (3, "IP1")):
        for d in range(4):
            points += fiber_plus(k, parse_i0(i0), d)
            points += fiber_minus(k, parse_i0(i0), d)
    checked = 0
    for fp in points:
        for v in (sqrt_class(fp.runs), taut_class(fp.runs)):
            if ZERO_WEIGHT in v.terms:
                continue
            got, want = euler_class(v), _euler_class_by_normalize(v)
            assert list(got.factored.items()) == list(want.factored.items())
            assert got.num == want.num
            assert str(got) == str(want)
            checked += 1
    assert checked > 400


def _random_kclass(rng):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        w = tuple(rng.randrange(-2, 3) for _ in range(4))
        if w == (0, 0, 0, 0):
            continue
        terms[w] = terms.get(w, 0) + rng.choice([-2, -1, 1, 2])
    return KClass(terms)


def test_euler_class_multiplicative_over_sum():
    rng = random.Random(20240824)
    checked = 0
    while checked < 100:
        u, v = _random_kclass(rng), _random_kclass(rng)
        if u.zero_mult() or v.zero_mult():
            continue
        assert euler_class(u + v) == euler_class(u) * euler_class(v)
        checked += 1


@settings(max_examples=50, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_additivity_of_rank(a, b, c):
    u, v = chi_p1(a, b), chi_p1(b, c)
    assert (u + v).rank() == u.rank() + v.rank()
