"""Truncated generating series and the identity checkers.

All identities are stated degree-by-degree in a formal variable t (wall
quotients) or in q with Laurent t (reference products).  Coefficients are
exact RatFuns; identities are decided exactly or by seeded modular
evaluation, through ratfun.decide except for the wall quotient and the sign
search's residue screen.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .geom import (
    chiZ_class,
    chi_X,
    contribution,
    fiber_minus,
    fiber_plus,
    i0_label,
    js_fixed_points,
    sqrt_class,
    compositions,
    with_point_sign,
)
from .kclass import euler_class, weight
from .ratfun import (
    DEFAULT_PRIME,
    EvalBackend,
    EvalDegenerate,
    NonUnitDivisor,
    RatFun,
    WallxError,
    binomial_rf,
    decide,
    residue_sums,
    rf_equal,
    rf_sum,
    sz_samples,
)


class CapExceeded(WallxError, ValueError):
    pass


# ---------------------------------------------------------------------------
# truncated series


@dataclass
class TruncSeries:
    """Series in one variable, truncated above t^hi, with RatFun coefficients."""

    coeffs: dict
    hi: int

    def __post_init__(self):
        self.coeffs = {
            d: c for d, c in self.coeffs.items()
            if 0 <= d <= self.hi and not c.is_zero()
        }

    def coeff(self, d):
        return self.coeffs.get(d, RatFun.zero())

    def __add__(self, other):
        assert self.hi == other.hi
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out[d] + c if d in out else c
        return TruncSeries(out, self.hi)

    def __mul__(self, other):
        assert self.hi == other.hi
        buckets = {}
        for da, ca in self.coeffs.items():
            for db, cb in other.coeffs.items():
                d = da + db
                if d <= self.hi:
                    buckets.setdefault(d, []).append(ca * cb)
        return TruncSeries(
            {d: rf_sum(terms) for d, terms in buckets.items()},
            self.hi,
        )

    def __truediv__(self, other):
        """Division by a series with unit constant term."""
        assert self.hi == other.hi
        b0 = other.coeff(0)
        if b0.is_zero():
            raise NonUnitDivisor("divisor has no unit constant term")
        inv0 = b0.inverse()
        out = {}
        for d in range(0, self.hi + 1):
            acc = [self.coeff(d)]
            for j in range(1, d + 1):
                bj = other.coeff(j)
                if not bj.is_zero() and not out.get(d - j, RatFun.zero()).is_zero():
                    acc.append(-(bj * out[d - j]))
            out[d] = rf_sum(acc) * inv0
        return TruncSeries(out, self.hi)


def signed_binomial(x, d):
    """(-1)^d binom(x, d), the coefficient of u^d in (1 - u)^x."""
    c = binomial_rf(x, d)
    return c if d % 2 == 0 else -c


def binom_series(x, order):
    """(1 - t)^x truncated: sum_d (-1)^d binom(x, d) t^d."""
    return TruncSeries({d: signed_binomial(x, d) for d in range(order + 1)},
                       order)


def wall_target(k, order):
    """(1 - t)^{k m / lam3} to t^order.

    Its t^d coefficient (-1)^d binom(k m / lam3, d) is the target of the
    wall quotient and of the degree-d localization sum at the wall Lmm(k).
    """
    return binom_series(k * RatFun.var("m") / RatFun.var("lam3"), order)


# ---------------------------------------------------------------------------
# q/t reference products


@dataclass
class QTSeries:
    """Series in q, truncated above q^q_order, with Laurent t."""

    coeffs: dict  # (n, j) -> RatFun
    q_order: int

    def __post_init__(self):
        self.coeffs = {k: c for k, c in self.coeffs.items() if not c.is_zero()}

    def coeff(self, n, j):
        return self.coeffs.get((n, j), RatFun.zero())

    def __mul__(self, other):
        buckets = {}
        for (na, ja), ca in self.coeffs.items():
            for (nb, jb), cb in other.coeffs.items():
                if na + nb <= self.q_order:
                    buckets.setdefault((na + nb, ja + jb), []).append(ca * cb)
        return QTSeries({key: rf_sum(terms) for key, terms in buckets.items()},
                        self.q_order)


def _qt_product(factors, q_order, t_lo, t_hi):
    """prod of the factors sum_j c(j) (q^k t^step)^j, given as (k, step, c),
    truncated in q only and cut to t_lo <= j <= t_hi once, at the end: a
    later factor can bring a term from outside the window back into it."""
    out = QTSeries({(0, 0): RatFun.const(1)}, q_order)
    for k, step, c in factors:
        out = out * QTSeries({(k * j, step * j): c(j)
                              for j in range(q_order // k + 1)}, q_order)
    return QTSeries({(n, j): v for (n, j), v in out.coeffs.items()
                     if t_lo <= j <= t_hi}, q_order)


# kind -> (the factors (1 - q^k t^step)^{c k m/lam3} per k, as (c, step)
# pairs in product order; the t window in multiples of t_order)
_PRODUCTS = {
    "PT": (((1, 1),), (0, 1)),
    "MacMahon": (((-2, 0),), (0, 0)),
    "NC": (((-2, 0), (1, 1), (1, -1)), (-1, 1)),
}


def product_series(kind, q_order, t_order=None):
    """Named reference products expanded to the given q-order.

    PT: prod_k (1 - q^k t)^{k m / lam3}
    MacMahon: M(q)^{2 m / lam3} = prod_k (1 - q^k)^{-2 k m / lam3}
    NC: MacMahon * prod (1 - q^k t)^{k m/lam3} * prod (1 - q^k t^-1)^{k m/lam3}
    t windows: PT 0 <= j <= t_order, MacMahon j = 0, NC |j| <= t_order.
    """
    if kind not in _PRODUCTS:
        raise ValueError(f"unknown product kind {kind!r}")
    if t_order is None:
        t_order = q_order
    steps, (lo, hi) = _PRODUCTS[kind]
    m_over_l3 = RatFun.var("m") / RatFun.var("lam3")
    factors = [(k, step, functools.partial(signed_binomial, c * k * m_over_l3))
               for k in range(1, q_order + 1) for c, step in steps]
    return _qt_product(factors, q_order, lo * t_order, hi * t_order)


# chamber -> the factors exp(c g q t^step) of its series, as (c, step) pairs
_CHAMBERS = {"I": ((1, 1),), "II_III": ((1, 1), (-1, -1)),
             "IV": ((-1, -1),), "other": ()}


def _exp_coeff(x, j):
    """x^j / j!, the coefficient of u^j in exp(x u)."""
    return RatFun.const(x**j / math.factorial(j))


def primary_series(chamber, gammaE, q_order, t_order=None):
    """Closed reference series per stability chamber, rational coefficients.

    I: exp(g q t); II_III: exp(g q t - g q t^-1); IV: exp(-g q t^-1);
    other: 1, with g the insertion pairing against the exceptional surface.
    The t window |j| <= t_order cuts the q-truncated product once.
    """
    if chamber not in _CHAMBERS:
        raise ValueError(f"unknown chamber {chamber!r}")
    if t_order is None:
        t_order = q_order
    g = Fraction(gammaE)
    factors = [(1, step, functools.partial(_exp_coeff, c * g))
               for c, step in _CHAMBERS[chamber]]
    return _qt_product(factors, q_order, -t_order, t_order)


# ---------------------------------------------------------------------------
# reports


@dataclass
class DegreeRecord:
    d: int
    lhs: str
    rhs: str
    verdict: str
    backend: str
    points: list | None = None
    detail: list | None = None


@dataclass
class CheckReport:
    command: str
    params: dict
    seed: int | None
    degrees: list
    sz_bound: float | None = None

    @property
    def passed(self):
        return all(r.verdict == "equal" for r in self.degrees)

    def to_doc(self):
        doc = {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "degrees": [
                {k: v for k, v in vars(rec).items() if v is not None}
                for rec in self.degrees
            ],
            "pass": self.passed,
        }
        if self.sz_bound is not None:
            doc["sz_bound"] = self.sz_bound
        return doc

    def to_json(self):
        return json.dumps(self.to_doc(), indent=2, sort_keys=False) + "\n"


def _verdict(ok):
    return "equal" if ok else "unequal"


def _report(command, params, backend, rows, sz_bound=None):
    """The report of one check, from its rows (d, lhs, rhs, ok, extra).

    lhs and rhs are written through str; extra holds the record's `points`
    or `detail`, if any.  The backend is named "symbolic" or by its
    describe(), and only an eval backend echoes its seed.
    """
    symbolic = backend == "symbolic"
    name = backend if symbolic else backend.describe()
    degrees = [DegreeRecord(d=d, lhs=str(lhs), rhs=str(rhs), verdict=_verdict(ok),
                            backend=name, **extra)
               for d, lhs, rhs, ok, extra in rows]
    return CheckReport(command=command, params=params,
                       seed=None if symbolic else backend.seed,
                       degrees=degrees, sz_bound=sz_bound)


# ---------------------------------------------------------------------------
# wall-crossing quotient


def _signed_contribution(fp, sign_override=None):
    c = contribution(fp)
    if sign_override and fp.label in sign_override:
        c = c if sign_override[fp.label] == 1 else -c
    return c


def _fiber_terms(k, i0, t_max, sign_override=None):
    """Per-degree contribution lists for both sides of the wall."""
    num, den = {}, {}
    for d in range(t_max + 1):
        num[d] = [_signed_contribution(fp, sign_override)
                  for fp in fiber_plus(k, i0, d)]
        den[d] = [_signed_contribution(fp, sign_override)
                  for fp in fiber_minus(k, i0, d)]
    return num, den


def wallcross_quotient(k, i0, t_max, sign_override=None):
    """[sum_d t^d sum_plus contrib] / [sum_d t^d sum_minus contrib]."""
    num, den = _fiber_terms(k, i0, t_max, sign_override)
    nseries = TruncSeries({d: rf_sum(v) for d, v in num.items()}, t_max)
    dseries = TruncSeries({d: rf_sum(v) for d, v in den.items()}, t_max)
    return nseries / dseries


def _eval_quotient_at(num, den, assign, p, t_max):
    """Residues of the quotient series coefficients at one sample point.

    All terms share one table of form values, so a linear form that recurs
    across the point's contributions is evaluated once.
    """
    table = {}
    nvals = residue_sums(num, assign, p, table)
    dvals = residue_sums(den, assign, p, table)
    if dvals[0] == 0:
        raise EvalDegenerate("denominator constant term vanished")
    inv0 = pow(dvals[0], p - 2, p)
    q = {}
    for d in range(t_max + 1):
        acc = nvals[d]
        for j in range(1, d + 1):
            acc = (acc - dvals[j] * q[d - j]) % p
        q[d] = acc * inv0 % p
    return q


def check_wallcross(k, i0, t_max, backend="symbolic", sign_override=None):
    """Compare the wall quotient against (1-t)^{k m / lam3} by degree."""
    rhs = wall_target(k, t_max)
    params = {"wall": f"Lmm:{k}", "i0": i0_label(i0), "tmax": t_max}
    if backend == "symbolic":
        quotient = wallcross_quotient(k, i0, t_max, sign_override)
        return _report("wallcross", params, backend, [
            (d, quotient.coeff(d), rhs.coeff(d),
             rf_equal(quotient.coeff(d), rhs.coeff(d)), {})
            for d in range(t_max + 1)])
    num, den = _fiber_terms(k, i0, t_max, sign_override)
    maxdeg = max(
        max((t.degree_bound() for v in num.values() for t in v), default=0),
        max((t.degree_bound() for v in den.values() for t in v), default=0),
    ) + max(r.degree_bound() for r in rhs.coeffs.values())
    bound = backend.sz_bound(maxdeg)
    # a positive bound below the least float must not read as 0.0
    sz = float(bound) or (math.nextafter(0.0, 1.0) if bound else 0.0)
    values = list(sz_samples(backend, lambda assign: (
        _eval_quotient_at(num, den, assign, DEFAULT_PRIME, t_max),
        {d: rhs.coeff(d).eval_mod(assign, DEFAULT_PRIME, {})
         for d in range(t_max + 1)},
    )))
    rows = []
    for d in range(t_max + 1):
        pairs = [(q[d], r[d]) for q, r in values]
        rows.append((d, json.dumps([str(a) for a, _ in pairs]),
                     json.dumps([str(b) for _, b in pairs]),
                     all(a == b for a, b in pairs), {"points": backend.points}))
    return _report("wallcross", params, backend, rows, sz)


# ---------------------------------------------------------------------------
# the proved localization identity over Lmm(k) with trivial reference


def js_closed_formula(k, d):
    """Terms of the closed localization formula at the wall Lmm(k), degree d.

    Internal rank parameter kk = k - 1, total chi n = k d.  Stated over
    lam0 = -(lam1+lam2+lam3), lam3 and m: the form c0*lam0 + c3*lam3 + cm*m
    has the coefficients of weight(w0=c0, w3=c3, wm=cm).
    """
    kk = k - 1
    n = k * d
    pref = Fraction((-1) ** n, math.prod(math.factorial(i) for i in range(1, kk + 1)))
    lam0, lam3 = weight(w0=1), weight(w3=1)
    terms = []
    for comp in compositions(d, kk + 1):
        scalar = pref / math.prod(math.factorial(di) for di in comp)
        pairs = []
        for i in range(kk + 1):
            for j in range(i + 1, kk + 1):
                # (j - i) + (d_i - d_j) lam3 / lam0
                pairs += ((weight(w0=j - i, w3=comp[i] - comp[j]), 1),
                          (lam0, -1))
        for i in range(kk + 1):
            di = comp[i]
            for a in range(di):
                for b in range(-i, kk - i + 1):
                    # m/lam3 - a - b lam0/lam3
                    pairs += ((weight(w0=-b, w3=-a, wm=1), 1), (lam3, -1))
            for a in range(1, di + 1):
                for b in range(1, kk - i + 1):
                    pairs += ((lam3, 1), (weight(w0=b, w3=a), -1))
                for b in range(1, i + 1):
                    pairs += ((lam3, 1), (weight(w0=-b, w3=a), -1))
        terms.append(RatFun.from_forms(pairs, scalar))
    return terms


def check_js(k, d_max, backend="symbolic"):
    """Three-way comparison of the localization sum at the wall Lmm(k).

    For each degree: the fixed-point sum, the closed product formula, and
    (-1)^d binom(k m / lam3, d) must agree pairwise.  The fixed-point sum is
    expanded once, for the record; only symbolic sums the closed formula.
    """
    target = wall_target(k, d_max)
    rows = []
    for d in range(1, d_max + 1):
        loc = rf_sum([contribution(fp) for fp in js_fixed_points(k, d)])
        binom = target.coeff(d)
        verdicts = decide({"localization": [loc],
                           "closed": js_closed_formula(k, d),
                           "binomial": [binom]}, backend)
        rows.append((d, loc, binom, all(verdicts.values()), {"detail": [
            f"{a}={b}:{_verdict(v)}" for (a, b), v in verdicts.items()]}))
    return _report("js", {"k": k, "dmax": d_max}, backend, rows)


# ---------------------------------------------------------------------------
# dimensional reduction m -> lam3


def check_dimred(k, d_max):
    """Specialization m = lam3 against the 3-fold model, point by point.

    Thickened points must die (their insertion class contains the weight
    m - lam3); a Z-supported point F must give (-1)^chi times the Euler
    class of its reduced pair class, chi = chi(F) = k*d; degree totals
    must give (-1)^d binom(k, d).

    The sign (-1)^chi is the change of variable q -> -q between this
    4-fold series and the 3-fold (Nagao-Nakajima, NC) series: over the
    Z-supported points the reduced Euler classes sum to
    (-1)^((k+1)d) binom(k, d), the (q^k t)^d coefficient of
    (1 - (-q)^k t)^k. At k = d = 1 the one point is the rigid curve
    O_P1, whose reduced class is 0 and Euler class 1, while the total
    must be -1.
    """
    rows = []
    for d in range(0, d_max + 1):
        detail = []
        subbed = []
        all_ok = True
        for fp in js_fixed_points(k, d):
            sub = contribution(fp).substitute_m()
            subbed.append(sub)
            if fp.support == "thickened":
                has_t3 = chi_X(fp.runs).terms.get((0, 0, 1, 0), 0) > 0
                ok = sub.is_zero() and has_t3
                verdict = "zero" if ok else "NONZERO"
            else:
                if fp.support == "on_Z":
                    target = euler_class(chiZ_class(fp.runs))
                    if fp.chi % 2:
                        target = -target
                else:
                    target = RatFun.const(1)
                ok = rf_equal(sub, target)
                verdict = _verdict(ok)
            detail.append(f"{fp.label}:{fp.support}:{verdict}")
            all_ok &= ok
        total = rf_sum(subbed)
        expected = RatFun.const((-1) ** d * math.comb(k, d))
        all_ok &= rf_equal(total, expected)
        rows.append((d, total, expected, all_ok, {"detail": detail}))
    return _report("dimred", {"k": k, "dmax": d_max}, "symbolic", rows)


# ---------------------------------------------------------------------------
# insertion-free limit


def check_insertion_free(k, d_max):
    """Series of bare square-root Euler classes over the JS fixed points.

    Expected: exp(-t/lam3) for k=1 (coefficients (-1/lam3)^d / d!) and the
    constant series 1 for k >= 2.
    """
    rows = []
    neg_inv_l3 = -(RatFun.var("lam3").inverse())
    for d in range(0, d_max + 1):
        terms = []
        for fp in js_fixed_points(k, d):
            e = euler_class(sqrt_class(fp.runs))
            if e.is_zero():
                continue
            terms.append(with_point_sign(fp, e))
        total = rf_sum(terms)
        if k == 1:
            expected = (neg_inv_l3 ** d) * RatFun.const(
                Fraction(1, math.factorial(d)))
        else:
            expected = RatFun.const(1 if d == 0 else 0)
        rows.append((d, total, expected, rf_equal(total, expected), {}))
    return _report("insertion-free", {"k": k, "dmax": d_max}, "symbolic", rows)


# ---------------------------------------------------------------------------
# sign search


def sign_search(points, target, cap=20, backend="symbolic"):
    """First lexicographic sign vector whose signed sum hits the target.

    Signs are searched in the order (+1, ..., +1), ..., (-1, ..., -1);
    returns None when no assignment works.  Both backends draw one
    sz_samples stream for all vectors, lazily (symbolic with EvalBackend()
    defaults), take each contribution's and the target's residue once per
    point, and test each vector against those residues up to its first
    miss: a sign flips a residue, and a pole of one term is a pole whatever
    its sign.  A miss at a pole-free point proves that the signed sum is not
    the target; symbolic confirms a vector that hits at every point with
    decide before returning it.
    """
    if len(points) > cap:
        raise CapExceeded(f"{len(points)} points exceeds cap {cap}")
    contribs = [contribution(fp) for fp in points]
    screen = EvalBackend() if backend == "symbolic" else backend
    p = DEFAULT_PRIME
    terms = [*contribs, target]

    def residues(assign):
        table = {}
        return [t.eval_mod(assign, p, table) for t in terms]

    stream = sz_samples(screen, residues)
    drawn = []  # [contribution residues..., target residue] per point

    def hits(signs, i):
        if i == len(drawn):
            drawn.append(next(stream))
        *values, goal = drawn[i]
        return sum(map(operator.mul, signs, values)) % p == goal

    for signs in itertools.product((1, -1), repeat=len(points)):
        if not all(hits(signs, i) for i in range(screen.points)):
            continue
        if backend != "symbolic":
            return signs
        signed = [c if s == 1 else -c for c, s in zip(contribs, signs)]
        if all(decide({"sum": signed, "target": [target]}, backend).values()):
            return signs
    return None
