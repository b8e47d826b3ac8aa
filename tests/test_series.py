"""Truncated series arithmetic, reference products, and the identity
checkers with both backends."""

import itertools
import math
from fractions import Fraction

import pytest

from wallx.geom import (
    ON_Z,
    O_P1,
    contribution,
    js_fixed_points,
    parse_i0,
)
from wallx.kclass import KClass, euler_class
from wallx import ratfun, series
from wallx.ratfun import (
    DEFAULT_PRIME,
    EvalBackend,
    EvalDegenerate,
    RatFun,
    binomial_rf,
    decide,
    rf_equal,
    rf_sum,
)
from wallx.series import (
    CapExceeded,
    _eval_quotient_at,
    _fiber_terms,
    NonUnitDivisor,
    TruncSeries,
    binom_series,
    check_dimred,
    check_insertion_free,
    check_js,
    check_wallcross,
    chiZ_class,
    js_closed_formula,
    primary_series,
    product_series,
    sign_search,
    wall_target,
    wallcross_quotient,
)

M_OVER_L3 = RatFun.var("m") / RatFun.var("lam3")


def _poly_series(coeffs, hi):
    return TruncSeries({d: RatFun.const(c) for d, c in enumerate(coeffs)}, hi)


def test_series_ring_laws():
    a = _poly_series([1, 2, 3], 4)
    b = _poly_series([1, -1], 4)
    c = _poly_series([0, 0, 5], 4)
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert all(lhs.coeff(d) == rhs.coeff(d) for d in range(5))


def test_series_division_inverts_multiplication():
    # (1 + 2t + 3t^2 + 4t^3) / (1 - t + 2t^2) = 1 + 3t + 4t^2 + 2t^3 + ...,
    # worked by hand: q_d = a_d + q_(d-1) - 2 q_(d-2)
    q = _poly_series([1, 2, 3, 4], 3) / _poly_series([1, -1, 2], 3)
    assert [str(q.coeff(d)) for d in range(4)] == [
        f"prod[ ] * ( {c} ) / ( 1 )" for c in (1, 3, 4, 2)]


def test_series_division_needs_unit():
    with pytest.raises(NonUnitDivisor):
        _poly_series([0, 1], 2) / _poly_series([0, 1], 2)


def test_series_division_by_a_non_unit_constant_term_raises():
    lam1, lam2 = RatFun.var("lam1"), RatFun.var("lam2")
    divisor = TruncSeries({0: lam1 * lam1 + lam2, 1: RatFun.const(1)}, 2)
    with pytest.raises(NonUnitDivisor):
        _poly_series([1, 2], 2) / divisor


def test_binom_series_coefficients():
    s = binom_series(2 * M_OVER_L3, 3)
    assert s.hi == 3
    for d in range(4):
        expect = binomial_rf(2 * M_OVER_L3, d)
        if d % 2:
            expect = -expect
        assert s.coeff(d) == expect


# ---------------------------------------------------------------------------
# reference products


def test_pt_product_first_coefficient():
    s = product_series("PT", 1, 1)
    assert s.coeff(1, 1) == -M_OVER_L3


def test_macmahon_first_coefficient():
    s = product_series("MacMahon", 1)
    assert s.coeff(1, 0) == 2 * M_OVER_L3


def test_nc_first_coefficients():
    s = product_series("NC", 1, 1)
    assert s.coeff(1, 0) == 2 * M_OVER_L3
    assert s.coeff(1, 1) == -M_OVER_L3
    assert s.coeff(1, -1) == -M_OVER_L3


def test_primary_series_shapes():
    one = primary_series("other", Fraction(3), 2)
    assert one.coeff(0, 0) == RatFun.const(1)
    assert one.coeff(1, 1).is_zero()
    sI = primary_series("I", 1, 2)
    assert sI.coeff(2, 2) == RatFun.const(Fraction(1, 2))
    sII = primary_series("II_III", 1, 1)
    assert sII.coeff(1, -1) == RatFun.const(-1)
    sIV = primary_series("IV", 1, 1)
    assert sIV.coeff(1, -1) == RatFun.const(-1)
    with pytest.raises(ValueError):
        primary_series("V", 1, 1)


# each kind's t window at t_order t
_WINDOWS = {
    "PT": lambda j, t: 0 <= j <= t,
    "MacMahon": lambda j, t: j == 0,
    "NC": lambda j, t: -t <= j <= t,
}


def _texts(s):
    return {key: str(c) for key, c in s.coeffs.items()}


@pytest.mark.parametrize("kind", sorted(_WINDOWS))
@pytest.mark.parametrize("q", range(5))
def test_product_window_cuts_the_whole_product(kind, q):
    # NC's window is two-sided: a term (q t) * (q t^-1) lies inside it
    # although its first factor does not, so the window cuts the product,
    # never a factor or a partial product
    whole = _texts(product_series(kind, q, q))
    for t in range(q + 2):
        assert _texts(product_series(kind, q, t)) == {
            (n, j): text for (n, j), text in whole.items()
            if _WINDOWS[kind](j, t)}, t


def _primary_oracle(chamber, g, q, t):
    """Closed coefficients of exp(g q t), exp(g q t - g q t^-1) and
    exp(-g q t^-1) at q^n t^j for n <= q, |j| <= t."""
    f = math.factorial
    coeffs = {}
    for n in range(q + 1):
        for a in range(n + 1):  # a factors of g q t, b of -g q t^-1
            b = n - a
            # I has no -g q t^-1, IV no g q t, other neither
            if {"I": b, "IV": a, "II_III": 0, "other": n}[chamber]:
                continue
            if abs(a - b) <= t:
                val = g**a * (-g) ** b / (f(a) * f(b))
                coeffs[(n, a - b)] = coeffs.get((n, a - b), 0) + val
    return {key: str(RatFun.const(v)) for key, v in coeffs.items() if v}


@pytest.mark.parametrize("chamber", ["I", "II_III", "IV", "other"])
@pytest.mark.parametrize("g", [0, 1, -1, Fraction(2, 3)])
def test_primary_series_matches_its_closed_coefficients(chamber, g):
    for q in range(6):
        for t in range(q + 2):
            assert (_texts(primary_series(chamber, g, q, t))
                    == _primary_oracle(chamber, Fraction(g), q, t)), (q, t)


# ---------------------------------------------------------------------------
# identity checkers


def test_closed_formula_small_values():
    assert (str(rf_sum(js_closed_formula(2, 1)))
            == "prod[ m^1 ; lam3^-1 ] * ( -2 ) / ( 1 )")
    assert rf_sum(js_closed_formula(1, 2)) == binomial_rf(M_OVER_L3, 2)
    # one term per composition of d into k parts
    assert len(js_closed_formula(3, 2)) == math.comb(4, 2)


def test_check_js_small_symbolic():
    rep = check_js(1, 2)
    assert rep.passed
    assert [r.verdict for r in rep.degrees] == ["equal", "equal"]
    assert rep.seed is None


def test_check_js_eval_backend():
    rep = check_js(2, 2, backend=EvalBackend(points=3, seed=42))
    assert rep.passed
    assert rep.seed == 42


def _without_backend(rep):
    doc = rep.to_doc()
    doc.pop("seed")
    for rec in doc["degrees"]:
        rec.pop("backend")
    return doc


@pytest.mark.parametrize("k", [1, 2, 3])
def test_check_js_backends_agree(k):
    sym = check_js(k, 3)
    assert sym.passed
    for seed in (1, 2):
        ev = check_js(k, 3, EvalBackend(seed=seed))
        assert _without_backend(ev) == _without_backend(sym)


def test_sign_search_backends_agree():
    for d in range(3):
        fps = js_fixed_points(2, d)
        target = wall_target(2, d).coeff(d)
        signs = sign_search(fps, target)
        assert signs is not None
        for backend in (EvalBackend(seed=1), EvalBackend(points=3, seed=9)):
            assert sign_search(fps, target, backend=backend) == signs
            assert sign_search(fps, RatFun.const(7), backend=backend) is None


def test_symbolic_sign_search_screens_on_residues(monkeypatch):
    # no sign vector of the 6 points hits 7: every vector is rejected by a
    # residue, and no signed sum is multiplied out
    calls = []
    rf_sum_ = ratfun.rf_sum

    def counted(terms):
        calls.append(1)
        return rf_sum_(terms)

    monkeypatch.setattr(ratfun, "rf_sum", counted)
    monkeypatch.setattr(series, "rf_sum", counted)
    fps = js_fixed_points(3, 2)
    assert len(fps) == 6
    assert sign_search(fps, RatFun.const(7)) is None
    assert calls == []


def _sign_search_per_vector(points, target, backend):
    """Reference: one decide call per sign vector, each drawing its points."""
    contribs = [contribution(fp) for fp in points]
    for signs in itertools.product((1, -1), repeat=len(points)):
        signed = [c if s == 1 else -c for c, s in zip(contribs, signs)]
        if all(decide({"sum": signed, "target": [target]}, backend).values()):
            return signs
    return None


@pytest.mark.parametrize("poles", [0, 2, None])
def test_eval_sign_search_matches_a_decide_per_vector(monkeypatch, poles):
    # the first `poles` draws (every draw for None) sit on the hyperplane of
    # a denominator form of one contribution, so they are rejected; with
    # every draw rejected both raise EvalDegenerate
    fps = js_fixed_points(2, 2)
    form = next(f for f, e in contribution(fps[0]).factored.items() if e < 0)
    pole = ratfun._hyperplane_point(form)
    sample_points = ratfun.sample_points

    def stream(backend):
        fresh = sample_points(backend)
        for i in itertools.count():
            yield pole if poles is None or i < poles else next(fresh)

    monkeypatch.setattr(ratfun, "sample_points", stream)

    def outcome(search, target, backend):
        try:
            return search(fps, target, backend=backend)
        except EvalDegenerate as exc:
            return str(exc)

    for target in (wall_target(2, 2).coeff(2), RatFun.const(7)):
        for backend in (EvalBackend(seed=1), EvalBackend(points=3, seed=9)):
            want = outcome(_sign_search_per_vector, target, backend)
            assert outcome(sign_search, target, backend) == want
            assert (want is None or isinstance(want, tuple)) == (
                poles is not None)


def test_eval_sign_search_takes_each_residue_once_per_point(monkeypatch):
    # no sign vector of the 10 points hits 7, so all 1024 vectors are tried:
    # each point is drawn once for all of them and costs the 10 contribution
    # residues and the target's
    fps = js_fixed_points(4, 2)
    assert len(fps) == 10
    calls, drawn = [], []
    eval_mod, sample_points = RatFun.eval_mod, ratfun.sample_points

    def counted_eval_mod(self, *args):
        calls.append(1)
        return eval_mod(self, *args)

    def counted_sample_points(backend):
        for point in sample_points(backend):
            drawn.append(point)
            yield point

    monkeypatch.setattr(RatFun, "eval_mod", counted_eval_mod)
    monkeypatch.setattr(ratfun, "sample_points", counted_sample_points)
    assert sign_search(fps, RatFun.const(7), backend=EvalBackend(seed=1)) \
        is None
    assert drawn and len(set(drawn)) == len(drawn)
    assert len(calls) <= 11 * len(drawn)


def test_js_eval_expands_each_localization_sum_once(monkeypatch):
    # rf_sum runs once per degree, on the contributions that the record
    # prints, and never on a closed-formula term (every object compared by
    # id is kept alive to the end)
    made = {"contribution": [], "closed": []}

    def recorded(fn, name):
        def wrapper(*args):
            out = fn(*args)
            made[name] += out if isinstance(out, list) else [out]
            return out
        return wrapper

    sums = []

    def counted(where):
        def wrapper(terms):
            terms = list(terms)
            sums.append((where, terms))
            return rf_sum(terms)
        return wrapper

    monkeypatch.setattr(series, "contribution",
                        recorded(series.contribution, "contribution"))
    monkeypatch.setattr(series, "js_closed_formula",
                        recorded(series.js_closed_formula, "closed"))
    monkeypatch.setattr(series, "rf_sum", counted("series"))
    monkeypatch.setattr(ratfun, "rf_sum", counted("ratfun"))
    assert check_js(3, 3, EvalBackend()).passed
    contributions = {id(t) for t in made["contribution"]}
    closed = {id(t) for t in made["closed"]}
    assert len(closed) == sum(math.comb(d + 2, 2) for d in (1, 2, 3))
    sums = [(where, {id(t) for t in terms}) for where, terms in sums]
    assert sum(where == "series" for where, _ in sums) == 3
    assert [ids for _, ids in sums if ids & contributions] == [
        {id(c) for c in made["contribution"][i:j]}
        for i, j in ((0, 3), (3, 9), (9, 19))]
    assert not any(ids & closed for _, ids in sums)


def test_wallcross_quotient_is_binomial():
    q = wallcross_quotient(2, parse_i0("IlP1:1"), 2)
    expect = binom_series(2 * M_OVER_L3, 2)
    assert all(rf_equal(q.coeff(d), expect.coeff(d)) for d in range(3))


def test_check_wallcross_symbolic_and_eval_agree():
    i0 = parse_i0("IlP1:1")
    sym = check_wallcross(2, i0, 2)
    ev = check_wallcross(2, i0, 2, backend=EvalBackend(points=3, seed=42))
    assert sym.passed and ev.passed
    assert ev.sz_bound is not None and ev.sz_bound < 1e-20


def test_sign_override_breaks_the_identity():
    i0 = parse_i0("IlP1:1")
    label = "plus:Lmm2,i0=IlP1:1,comp=1,0,0,0"
    rep = check_wallcross(2, i0, 1, sign_override={label: -1})
    assert not rep.passed


def test_check_dimred_even_rank_times_degree():
    rep = check_dimred(2, 2)
    assert rep.passed
    for rec in rep.degrees:
        assert all(":NONZERO" not in x and ":unequal" not in x
                   for x in rec.detail)


def test_check_dimred_totals_always_match():
    # the degree totals equal (-1)^d binom(k, d) at odd rank too, where each
    # Z-supported point carries the sign (-1)^(k*d) against its reduced
    # Euler class
    rep = check_dimred(1, 2)
    for rec in rep.degrees:
        lhs = rec.lhs
        rhs = rec.rhs
        assert lhs == rhs


def test_check_dimred_rigid_curve_sign():
    # k = d = 1: the one fixed point is the rigid (-1,-1) curve O_P1. Its
    # reduced class is 0, so its Euler class is 1, while the degree total is
    # -binom(1, 1) = -1: the point specializes to (-1)^chi e(chiZ_class).
    reduced = chiZ_class(((O_P1, 1),))
    assert reduced == KClass.zero()
    assert euler_class(reduced) == RatFun.const(1)
    (fp,) = js_fixed_points(1, 1)
    assert fp.label == "js:k=1,d=1,comp=1"
    assert fp.runs == ((O_P1, 1),) and fp.chi == 1
    assert contribution(fp).substitute_m() == RatFun.const(-1)
    rep = check_dimred(1, 1)
    assert rep.passed
    assert rep.degrees[1].detail == ["js:k=1,d=1,comp=1:on_Z:equal"]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reduced_euler_classes_give_threefold_coefficients(k, d):
    # the 3-fold side alone: sum over Z-supported points of e(chiZ_class) is
    # the (q^k t)^d coefficient of (1 - (-q)^k t)^k, Nagao-Nakajima's form
    # (for d >= 1 every other point is thickened)
    total = rf_sum([euler_class(chiZ_class(fp.runs))
                    for fp in js_fixed_points(k, d) if fp.support == ON_Z])
    expected = (-1) ** ((k + 1) * d) * math.comb(k, d)
    assert rf_sum([total, RatFun.const(-expected)]).is_zero()


def test_check_insertion_free():
    assert check_insertion_free(1, 3).passed
    assert check_insertion_free(2, 2).passed


def test_sign_search_recovers_all_plus():
    from wallx.geom import js_fixed_points
    fps = js_fixed_points(2, 1)
    target = -binomial_rf(2 * M_OVER_L3, 1)
    assert sign_search(fps, target) == (1, 1)
    assert sign_search(fps, binomial_rf(2 * M_OVER_L3, 1)) == (-1, -1)
    assert sign_search(fps, RatFun.const(7)) is None
    with pytest.raises(CapExceeded):
        sign_search(fps, target, cap=1)


# ---------------------------------------------------------------------------
# the one Schwartz-Zippel sampler


def test_sampler_gives_up_after_twenty_draws_per_point(monkeypatch):
    # every draw lands on the pole lam1 = lam2 = lam3 = m = 0
    draws = []

    def poles(backend):
        while True:
            draws.append(1)
            yield (0, 0, 0, 0)

    monkeypatch.setattr(ratfun, "sample_points", poles)
    backend = EvalBackend(points=3, seed=1)
    a = RatFun.var("lam1").inverse()
    with pytest.raises(EvalDegenerate):
        decide({"a": [a], "b": [a]}, backend)
    assert len(draws) == 20 * backend.points
    draws.clear()
    with pytest.raises(EvalDegenerate):
        check_wallcross(2, parse_i0("OX"), 1, backend=backend)
    assert len(draws) == 20 * backend.points


# ---------------------------------------------------------------------------
# one table of form values per sample point


def _eval_quotient_fresh_tables(num, den, assign, p, t_max):
    """_eval_quotient_at with a fresh form table for every term."""
    nv = [sum(t.eval_mod(assign, p, {}) for t in num[d]) % p
          for d in range(t_max + 1)]
    dv = [sum(t.eval_mod(assign, p, {}) for t in den[d]) % p
          for d in range(t_max + 1)]
    inv0 = pow(dv[0], -1, p)
    q = []
    for d in range(t_max + 1):
        acc = nv[d] - sum(dv[j] * q[d - j] for j in range(1, d + 1))
        q.append(acc * inv0 % p)
    return dict(enumerate(q))


@pytest.mark.parametrize("k,i0,t_max", [(2, "IlP1:1", 4), (3, "IP1", 2),
                                        (3, "OX", 3)])
def test_eval_quotient_shared_table_matches_fresh_tables(monkeypatch, k, i0,
                                                         t_max):
    num, den = _fiber_terms(k, parse_i0(i0), t_max)
    terms = [t for side in (num, den) for v in side.values() for t in v]
    forms = {f for t in terms for f in t.factored}
    evaluated = []
    form_value = ratfun.form_value

    def counted(f, assign, p):
        evaluated.append(f)
        return form_value(f, assign, p)

    points = list(itertools.islice(
        ratfun.sample_points(EvalBackend(seed=7)), 3))
    for assign in points:
        want = _eval_quotient_fresh_tables(num, den, assign, DEFAULT_PRIME,
                                           t_max)
        monkeypatch.setattr(ratfun, "form_value", counted)
        evaluated.clear()
        assert _eval_quotient_at(num, den, assign, DEFAULT_PRIME,
                                 t_max) == want
        monkeypatch.undo()
        # each distinct form is evaluated once per point
        assert sorted(evaluated) == sorted(forms)


def test_shared_table_still_rejects_a_pole():
    # lam1 - lam2 vanishes at the point: first met as a numerator factor,
    # its value 0 then comes from the table for the denominator factor
    f = (1, -1, 0, 0)
    assign, p = (5, 5, 7, 11), DEFAULT_PRIME
    zero, pole = RatFun.from_forms([(f, 1)]), RatFun.from_forms([(f, -1)])
    table = {}
    assert zero.eval_mod(assign, p, table) == 0
    assert table == {f: 0}
    with pytest.raises(EvalDegenerate):
        pole.eval_mod(assign, p, table)
    with pytest.raises(EvalDegenerate):
        _eval_quotient_at({0: [zero], 1: [pole]},
                          {0: [RatFun.const(1)], 1: []}, assign, p, 1)
