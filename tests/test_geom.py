"""Fixed-point enumeration, pairing classes, and signed contributions."""

import functools
import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from wallx import geom
from wallx.geom import (
    AMBIENT_NORMAL,
    EquivLineBundle,
    FixedPoint,
    O_P1,
    UnsupportedConfiguration,
    _pairings,
    _summed,
    _zero_mult,
    chi_X,
    chi_pair,
    compositions,
    contribution,
    example_term_l1_k2,
    fiber_minus,
    fiber_plus,
    i0_contribution,
    js_fixed_points,
    parse_i0,
    parse_label,
    sqrt_class,
    taut_class,
    with_point_sign,
)
from wallx.kclass import KClass, chi_p1, euler_class
from wallx.ratfun import (
    MultiPoly,
    PoleAtZeroWeight,
    RatFun,
    _ratfun,
    parse_ratfun,
    rf_sum,
)


def test_compositions_are_lex_and_complete():
    out = list(compositions(2, 2))
    assert out == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(4, 3))) == comb(4 + 2, 2)
    assert list(compositions(0, 3000)) == [(0,) * 3000]


def _compositions_by_recursion(d, parts):
    """The recursive definition: each first part, then the rest."""
    if parts == 0:
        return [()] if d == 0 else []
    return [(first, *rest) for first in range(d + 1)
            for rest in _compositions_by_recursion(d - first, parts - 1)]


def test_compositions_match_the_recursive_definition():
    for d in range(7):
        for parts in range(7):
            assert (list(compositions(d, parts))
                    == _compositions_by_recursion(d, parts)), (d, parts)


def _sample_points():
    """JS, fiber_plus and fiber_minus points up to d = 3."""
    points = [fp for k in (1, 2, 3) for d in range(4)
              for fp in js_fixed_points(k, d)]
    for k, i0 in ((2, "IlP1:1"), (2, "IlP1:2"), (3, "IP1")):
        for d in range(4):
            points += fiber_plus(k, parse_i0(i0), d)
            points += fiber_minus(k, parse_i0(i0), d)
    return points


def _lines(runs):
    """The line bundles L t3^j, j < n, of each run (L, n), in order."""
    return [EquivLineBundle(a, b, (t0, t1, t2 + j, t3))
            for (a, b, (t0, t1, t2, t3)), n in runs for j in range(n)]


def _chi_pair_by_kclass(F, G, ambient):
    """The pairing of the sheaves with runs F and G, as a KClass sum of one
    twisted chi_p1 per pair of their line bundles and subset of the normal
    bundle."""
    normal = AMBIENT_NORMAL[ambient]
    total = KClass.zero()
    for p in range(len(normal) + 1):
        for subset in itertools.combinations(normal, p):
            wa = sum(n.a for n in subset)
            wb = sum(n.b for n in subset)
            for L in _lines(F):
                for Lp in _lines(G):
                    t = tuple(Lp.twist[i] - L.twist[i]
                              + sum(n.twist[i] for n in subset)
                              for i in range(4))
                    rel = chi_p1(Lp.a - L.a + wa, Lp.b - L.b + wb).twist(t)
                    total = total - rel if p % 2 else total + rel
    return total


def _random_line(rng):
    """A line bundle with a, b in [-3, 3], small twists and m-weights."""
    return EquivLineBundle(rng.randint(-3, 3), rng.randint(-3, 3),
                           (rng.randint(-2, 2), rng.randint(-2, 2),
                            rng.randint(-2, 2), rng.randint(-1, 1)))


def _tabled(F, ambient):
    """The pairing of the sheaf with runs F with itself, summed from the
    table of run pairs."""
    return _summed(_pairings(F, ambient))


def test_chi_pair_matches_kclass_sum_in_value():
    # value only: the order of the weights reaches no report (see
    # test_rf_sum_string_does_not_depend_on_factor_order)
    points = _sample_points()
    lines = list(dict.fromkeys(L for fp in points for L in _lines(fp.runs)))
    pairs = list(zip(lines, lines[1:] + lines[:1]))
    rng = random.Random(5)
    pairs += [(_random_line(rng), _random_line(rng)) for _ in range(60)]
    for ambient in AMBIENT_NORMAL:
        for L, Lp in pairs:
            want = _chi_pair_by_kclass(((L, 1),), ((Lp, 1),), ambient)
            assert chi_pair(L, Lp, ambient).terms == want.terms
    for ambient in ("Y3fold", "Z3fold"):
        for fp in points:
            want = _chi_pair_by_kclass(fp.runs, fp.runs, ambient)
            assert _tabled(fp.runs, ambient).terms == want.terms


@st.composite
def _run_lists(draw):
    """Runs (L, n); a drawn run may continue the t3 progression of the run
    before it, so the list need not be maximal."""
    runs = []
    for _ in range(draw(st.integers(0, 4))):
        if runs and draw(st.booleans()):
            (a, b, (t0, t1, t2, t3)), n = runs[-1]
            bundle = EquivLineBundle(a, b, (t0, t1, t2 + n, t3))
        else:
            bundle = EquivLineBundle(
                draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
                draw(st.tuples(*[st.integers(-2, 2)] * 3, st.integers(-1, 1))))
        runs.append((bundle, draw(st.integers(1, 3))))
    return tuple(runs)


@settings(max_examples=200, deadline=None)
@given(_run_lists())
def test_tabled_self_pairing_is_chi_pair(runs):
    want = KClass.zero()
    for a, b, t in _lines(runs):
        want = want + chi_p1(a, b).twist(t)
    assert chi_X(runs).terms == want.terms
    for ambient in ("Y3fold", "Z3fold"):
        want = _chi_pair_by_kclass(runs, runs, ambient).terms
        geom._PAIRINGS.clear()
        assert _tabled(runs, ambient).terms == want  # cold table
        assert _tabled(runs, ambient).terms == want  # warm table


def test_translated_runs_hit_one_table_entry(monkeypatch):
    monkeypatch.setattr(geom, "_PAIRINGS", {})
    F = ((EquivLineBundle(1, 0, (0, 1, 0, 0)), 2),
         (EquivLineBundle(0, 2, (1, 0, 2, 0)), 3))
    G = tuple(
        (EquivLineBundle(a + 2, b - 1, (t0 + 1, t1 - 2, t2 + 3, t3 + 1)), n)
        for (a, b, (t0, t1, t2, t3)), n in F)
    entries = _pairings(F, "Y3fold")
    keys = set(geom._PAIRINGS)
    assert all(u is v for u, v in zip(_pairings(G, "Y3fold"), entries))
    assert set(geom._PAIRINGS) == keys
    assert (_tabled(G, "Y3fold").terms
            == _chi_pair_by_kclass(G, G, "Y3fold").terms)


def test_chi_X_of_structure_sheaf_of_line():
    v = chi_X(((O_P1, 1),))
    assert v.rank() == 1


def test_ambient_normal_tables():
    assert len(AMBIENT_NORMAL["X4fold"]) == 3
    assert len(AMBIENT_NORMAL["Y3fold"]) == 2
    assert len(AMBIENT_NORMAL["Z3fold"]) == 2
    assert AMBIENT_NORMAL["P1"] == ()


def test_chi_pair_symmetric_rank():
    v = chi_pair(O_P1, O_P1, "X4fold")
    # rank of the 4-fold pairing of a compact sheaf with itself is 0
    assert v.rank() == 0


def test_sqrt_and_taut_do_not_mix():
    F = ((O_P1, 1),)
    assert taut_class(F) == chi_X(F).dual().twist((0, 0, 0, 1))
    assert isinstance(sqrt_class(F), KClass)


# ---------------------------------------------------------------------------
# enumerators and their cardinalities


def test_js_cardinalities():
    for k in (1, 2, 3):
        for d in range(0, 5):
            pts = js_fixed_points(k, d)
            assert len(pts) == comb(d + k - 1, k - 1)
            assert all(fp.chi == k * d and fp.deg == d for fp in pts)


def test_fiber_plus_cardinalities():
    i0 = parse_i0("IlP1:1")
    for d in range(0, 4):
        assert len(fiber_plus(2, i0, d)) == comb(d + 3, 3)
    ip1 = parse_i0("IP1")
    for d in range(0, 3):
        assert len(fiber_plus(3, ip1, d)) == comb(d + 6, 6)


def test_fiber_minus_cardinalities():
    ip1 = parse_i0("IP1")
    for k in (3, 4, 5):
        for d in range(0, k):
            assert len(fiber_minus(k, ip1, d)) == comb(k - 2, d)


def test_fiber_wall_constraints():
    with pytest.raises(UnsupportedConfiguration):
        fiber_plus(3, parse_i0("IlP1:1"), 1)
    with pytest.raises(UnsupportedConfiguration):
        fiber_plus(2, parse_i0("IP1"), 1)


def test_negative_degree_has_no_points():
    assert list(compositions(-1, 1)) == []
    assert list(compositions(-2, 3)) == []
    assert js_fixed_points(1, -1) == []
    for k, i0 in ((1, "OX"), (3, "OX"), (2, "IlP1:1"), (3, "IP1"), (5, "IP1")):
        for d in (-1, -2):
            assert fiber_plus(k, parse_i0(i0), d) == []
            assert fiber_minus(k, parse_i0(i0), d) == []


def _plus_oracle(k, i0, comp):
    """(chi, deg, sign_extra, support) of the plus-side point of comp, by
    each reference's closed formula in the composition alone."""
    kind, l = i0
    d = sum(comp)
    top = max(comp, default=0)
    if kind == "OX":
        support = "on_Y" if d == 0 else "on_Z" if top <= 1 else "thickened"
        return k * d, d, 0, support
    if kind == "IlP1":
        # slots 2 and 3 are twisted by t3^l, and I0 is O_P1 thickened l times
        flat = l == 1 and top <= 1 and comp[2] == comp[3] == 0
        return (l + 2 * d, l + d, 1 if comp[1] > 0 else 0,
                "on_Z" if flat else "thickened")
    # IP1: the e-slots are twisted by t2, the f-slots by t3
    es, fs = comp[k - 1: 2 * (k - 1)], comp[2 * (k - 1):]
    flat = top <= 1 and not any(fs)
    return (1 + k * d, 1 + d, sum(1 for e in es if e > 0),
            "on_Z" if flat else "thickened")


def _minus_oracle(k, i0, subset):
    """(chi, deg, sign_extra, support) of the minus-side point of subset."""
    l = i0[1]
    support = "on_Y" if l == 0 else "on_Z" if l == 1 else "thickened"
    return l + k * len(subset), l + len(subset), 0, support


def test_point_fields_match_the_hand_written_formulas():
    # _point reads every field off the runs by one rule; each reference's
    # formula, written from its composition or subset alone, must agree
    cases = [(k, "OX", d) for k in range(1, 6) for d in range(5)]
    cases += [(2, f"IlP1:{l}", d) for l in range(1, 4) for d in range(5)]
    cases += [(k, "IP1", d) for k in range(3, 7) for d in range(3)]
    seen = 0
    for k, name, d in cases:
        i0 = parse_i0(name)
        comps = compositions(d, len(geom._slots(k, i0)))
        for comp, fp in zip(comps, fiber_plus(k, i0, d), strict=True):
            assert fp.label.endswith("comp=" + ",".join(map(str, comp)))
            assert (fp.chi, fp.deg, fp.sign_extra, fp.support) == \
                _plus_oracle(k, i0, comp), fp.label
            seen += 1
        subsets = itertools.combinations(geom._minus_slots(k, i0), d)
        for subset, fp in zip(subsets, fiber_minus(k, i0, d), strict=True):
            assert (fp.chi, fp.deg, fp.sign_extra, fp.support) == \
                _minus_oracle(k, i0, subset), fp.label
            seen += 1
    assert seen == 853


def test_i0_contribution_is_the_degree_zero_minus_point():
    for k, name in ((1, "OX"), (2, "IlP1:1"), (2, "IlP1:2"), (3, "IP1")):
        i0 = parse_i0(name)
        (fp,) = fiber_minus(k, i0, 0)
        assert str(i0_contribution(i0)) == str(contribution(fp))
    assert i0_contribution(parse_i0("OX")) == RatFun.const(1)


def test_parse_label_builds_no_slots_for_a_short_composition():
    geom._slots.cache_clear()
    for label in ("js:k=100000,d=1,comp=1",
                  "plus:Lmm100000,i0=IP1,comp=1"):
        with pytest.raises(UnsupportedConfiguration):
            parse_label(label)
    assert geom._slots.cache_info().currsize == 0


def test_support_classification():
    pts = {fp.label: fp for fp in js_fixed_points(2, 2)}
    assert pts["js:k=2,d=2,comp=1,1"].support == "on_Z"
    assert pts["js:k=2,d=2,comp=0,2"].support == "thickened"
    assert pts["js:k=2,d=2,comp=2,0"].support == "thickened"
    (p0,) = js_fixed_points(2, 0)
    assert p0.support == "on_Y"


# ---------------------------------------------------------------------------
# frozen contribution values


ORACLES = {
    "js:k=1,d=1,comp=1":
        "prod[ m^1 ; lam3^-1 ] * ( -1 ) / ( 1 )",
    "js:k=1,d=2,comp=2":
        "prod[ m^1 ; lam3 - m^1 ; lam3^-2 ] * ( -1/2 ) / ( 1 )",
    "js:k=2,d=1,comp=1,0":
        "prod[ m^1 ; lam3^-1 ; lam1 + lam2 + lam3^-1 ; "
        "lam1 + lam2 + lam3 + m^1 ] * ( -1 ) / ( 1 )",
    "js:k=3,d=1,comp=0,1,0":
        "prod[ m^1 ; lam3^-1 ; lam1 + lam2 + lam3 - m^1 ; "
        "lam1 + lam2 + lam3^-2 ; lam1 + lam2 + lam3 + m^1 ] * ( -1 ) / ( 1 )",
    "plus:Lmm2,i0=IlP1:1,comp=0,0,0,1":
        "prod[ m^1 ; lam3 - m^1 ; lam3^-2 ; lam2 + lam3^1 ; "
        "lam2 + 2*lam3^-1 ; lam1 + lam3^1 ; lam1 + 2*lam3^-1 ; "
        "lam1 + lam2 + lam3^-1 ; lam1 + lam2 + 2*lam3 - m^1 ] * ( -1 ) / ( 1 )",
    "minus:Lmm3,i0=IP1,subset=1":
        "prod[ m^2 ; lam3^-2 ; lam1 + lam2^-1 ; lam1 + lam2 + lam3 - m^1 ; "
        "lam1 + lam2 + lam3 + m^1 ; lam1 + lam2 + 2*lam3^-1 ] * ( 1 ) / ( 1 )",
}


@pytest.mark.parametrize("label,expected", sorted(ORACLES.items()))
def test_contribution_oracles(label, expected):
    fp = parse_label(label)
    assert str(contribution(fp)) == expected
    assert contribution(fp) == parse_ratfun(expected)


def _eval_menu():
    """EVAL_MENU of bench/workloads.py: (i0, k, tmax) triples."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.EVAL_MENU


def _two_factor_contribution(fp):
    """The contribution as the product e(sqrt_class) * e(taut_class)."""
    e_sqrt = euler_class(sqrt_class(fp.runs))
    if e_sqrt.is_zero():
        return RatFun.zero()
    return with_point_sign(fp, e_sqrt * euler_class(taut_class(fp.runs)))


@functools.cache
def _menu_and_js_points():
    """Every fixed point of the EVAL_MENU checks and of js, k <= 4, d <= 3."""
    points = {}
    for i0, k, tmax in _eval_menu():
        for d in range(tmax + 1):
            for fp in (*fiber_plus(k, parse_i0(i0), d),
                       *fiber_minus(k, parse_i0(i0), d)):
                points[fp.label] = fp
    for k in range(1, 5):
        for d in range(4):
            for fp in js_fixed_points(k, d):
                points[fp.label] = fp
    assert len(points) > 1000
    return tuple(points.values())


def test_contribution_is_the_two_factor_product():
    for fp in _menu_and_js_points():
        assert str(contribution(fp)) == str(_two_factor_contribution(fp))


def test_enumerated_runs_are_maximal():
    # no run continues its predecessor's t3 progression, so every point's
    # _PAIRINGS keys are those of its maximal runs
    points = _menu_and_js_points() + tuple(
        fp for d in range(5) for fp in js_fixed_points(5, d))
    for fp in points:
        assert all(n >= 1 for _, n in fp.runs)
        for ((a, b, t), n), ((ap, bp, u), _) in zip(fp.runs, fp.runs[1:]):
            assert (ap, bp, u) != (a, b, (t[0], t[1], t[2] + n, t[3]))


def _built_class(F):
    """sqrt_class(F) + taut_class(F), with the pairing from the oracle."""
    return -chi_X(F) + _chi_pair_by_kclass(F, F, "Y3fold") + taut_class(F)


def _screened_mult(F):
    return _zero_mult(_pairings(F, "Y3fold"), chi_X(F))


def _built_outcome(fp):
    """The contribution built in full, without the zero screen or the
    pairing table: its text, or "pole"."""
    try:
        value = euler_class(_built_class(fp.runs))
    except PoleAtZeroWeight:
        return "pole"
    return str(with_point_sign(fp, value))


def _outcome(fp):
    try:
        return str(contribution(fp))
    except PoleAtZeroWeight:
        return "pole"


def _assert_screen_matches_the_built_class(fp):
    assert _screened_mult(fp.runs) == _built_class(fp.runs).zero_mult()
    assert _outcome(fp) == _built_outcome(fp)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.builds(
    EquivLineBundle, st.integers(-3, 3), st.integers(-3, 3),
    st.tuples(*[st.integers(-2, 2)] * 3, st.integers(-1, 1))),
    st.integers(1, 2)), max_size=5))
def test_zero_screen_matches_the_built_class(runs):
    fp = FixedPoint(label="random", runs=tuple(runs),
                    chi=sum(n for _, n in runs), deg=0)
    _assert_screen_matches_the_built_class(fp)


def test_zero_screen_matches_the_built_class_on_the_menu():
    outcomes = set()
    for fp in _menu_and_js_points():
        _assert_screen_matches_the_built_class(fp)
        outcomes.add(_screened_mult(fp.runs) > 0)
    assert outcomes == {False, True}


def _primitive(w):
    """(form, g): the primitive canonical form of the nonzero integer vector
    w and its signed content g, with g * form == w."""
    g = gcd(*w)
    if next(c for c in w if c) < 0:
        g = -g
    return tuple(c // g for c in w), g


def _reference_contribution(fp):
    """The contribution with the sqrt class's pairing summed as KClasses and
    each weight's sign and content folded here, not by RatFun.from_forms."""
    F = fp.runs
    v = -chi_X(F) + _chi_pair_by_kclass(F, F, "Y3fold") + taut_class(F)
    if v.zero_mult() > 0:
        return RatFun.zero()
    factored, scalar = {}, Fraction(1)
    for w, c in v.terms.items():
        f, g = _primitive(w)
        factored[f] = factored.get(f, 0) + c
        scalar *= Fraction(g) ** c
    value = _ratfun({f: e for f, e in factored.items() if e},
                    MultiPoly.const(scalar))
    return with_point_sign(fp, value)


def test_contribution_equals_untabled_reference():
    for fp in _menu_and_js_points():
        got, want = contribution(fp), _reference_contribution(fp)
        assert got.factored == want.factored
        assert got.num == want.num
        assert str(got) == str(want)


def test_i0_contribution_oracle():
    assert str(i0_contribution(parse_i0("IlP1:1"))) == \
        "prod[ m^1 ; lam3^-1 ] * ( -1 ) / ( 1 )"


def test_parse_label_round_trip():
    pools = [
        js_fixed_points(2, 2),
        fiber_plus(2, parse_i0("IlP1:2"), 1),
        fiber_minus(3, parse_i0("IP1"), 1),
    ]
    for pool in pools:
        for fp in pool:
            assert parse_label(fp.label) == fp


def test_parse_label_rejects_unknown():
    with pytest.raises(UnsupportedConfiguration):
        parse_label("js:k=2,d=1,comp=7,7")
    with pytest.raises(UnsupportedConfiguration):
        parse_label("nonsense")
    for bad in ("js:k=0,d=1,comp=1", "js:k=2,d=-1,comp=1", "js:k=2",
                "js:k=x,d=1,comp=1", "plus:Lmm2,i0=IlP1:1,comp=a",
                "plus:Lmm2,i0=OX,comp=-1", "plus:Lmm2,i0=IlP1:x,comp=1",
                "plus:Lmm2", "minus:Lmmx,i0=OX"):
        with pytest.raises(UnsupportedConfiguration):
            parse_label(bad)


def test_parse_label_checks_the_composition_and_subset():
    assert parse_label("minus:Lmm5,i0=IP1,subset=2,3") in fiber_minus(
        5, parse_i0("IP1"), 2)
    for bad in ("js:k=2,d=1,comp=1", "js:k=2,d=1,comp=2,-1",
                "plus:Lmm3,i0=IP1,comp=1,0", "plus:Lmm2,i0=OX,comp=1,0",
                "minus:Lmm5,i0=IP1,subset=3,2", "minus:Lmm5,i0=IP1,subset=2,2",
                "minus:Lmm5,i0=IP1,subset=0", "minus:Lmm5,i0=IP1,subset=4",
                "minus:Lmm2,i0=OX,subset=1", "minus:Lmm5,i0=IP1,subset=02"):
        with pytest.raises(UnsupportedConfiguration):
            parse_label(bad)


# ---------------------------------------------------------------------------
# explicit degree-one product term


def test_example_term_vanishing_numerator():
    # a doubled slot produces a vanishing numerator factor
    assert example_term_l1_k2(2, 0, 0, 0).is_zero()
    assert example_term_l1_k2(0, 2, 0, 0).is_zero()


def test_example_term_nonzero_slot():
    assert str(example_term_l1_k2(1, 0, 0, 0)) == (
        "prod[ lam2 + lam3 + m^1 ; lam2 + 2*lam3^-1 ; lam1 - lam2 - lam3^1 ; "
        "lam1 - lam2^-1 ; lam1 - lam3^-1 ; lam1 - m^1 ] * ( -1 ) / ( 1 )"
    )


def test_example_term_degree_one_sum():
    terms = [example_term_l1_k2(*c) for c in compositions(1, 4)]
    total = rf_sum(terms)
    x = 2 * RatFun.var("m") / RatFun.var("lam3")
    assert total == -x  # (-1)^1 binom(2m/lam3, 1)
