"""Exact rational functions in the equivariant parameters lam1, lam2, lam3, m.

Values live in Q(lam1, lam2, lam3, m).  The fourth torus weight lam0 is not a
variable: it is eliminated at construction time through the Calabi-Yau
relation lam0 = -(lam1 + lam2 + lam3).

A RatFun is a product of integer powers of linear forms times one residual
polynomial num.  A linear form is its primitive canonical coefficient tuple
(see RatFun.from_forms).  Every value produced by localization lies in
Q[lam1, lam2, lam3, m] with only linear forms inverted, so cancellation only
ever needs trial division by linear forms and no general multivariate GCD is
attempted; an inverse exists for a unit, a value whose num is a constant, and
any other nonzero value raises NonUnitDivisor.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

VARS = ("lam1", "lam2", "lam3", "m")
NVARS = 4
DEFAULT_PRIME = (1 << 61) - 1


class WallxError(Exception):
    """Base of every error wallx raises; each subclass keeps its builtin
    base too.  The CLI turns one that reaches it into exit code 3."""


class DivisionByZero(WallxError, ZeroDivisionError):
    pass


class NonUnitDivisor(WallxError, ZeroDivisionError):
    """The inverse of a value whose num is not a constant."""


class ZeroForm(WallxError, ValueError):
    """All coefficients of a would-be linear form vanish."""


class PoleAtZeroWeight(WallxError, ZeroDivisionError):
    pass


class PoleAtSubstitution(WallxError, ZeroDivisionError):
    pass


class EvalDegenerate(WallxError, RuntimeError):
    """Repeated sampling kept hitting zeros of a denominator."""


class ParseError(WallxError, ValueError):
    pass


class DegreeOverflow(WallxError, OverflowError):
    """A polynomial's total degree does not fit a monomial key's fields."""


def _coef(c):
    """c as an int when its value is integral, else as a Fraction.

    Every coefficient that can arrive as a Fraction passes through here, so
    that a MultiPoly coefficient is an int whenever its value is integral and
    integer arithmetic never turns into Fraction arithmetic.
    """
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div_exact(x, c):
    """x / c for an int c, staying in int when the division is exact.

    Any other quotient is non-integral: x is an int that c does not divide,
    or x is a Fraction, which is non-integral.
    """
    if type(x) is int:
        q, r = divmod(x, c)
        if not r:
            return q
    return Fraction(x) / c


def _poly(terms):
    """MultiPoly over nonzero coefficients built by MultiPoly arithmetic.

    Integer arithmetic keeps ints; an integral value left by Fraction
    arithmetic (1/2 + 1/2, 2 * 1/2) is turned back into an int here.
    """
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    p = object.__new__(MultiPoly)
    p.terms = terms
    return p


def _residue(c, p):
    """A rational c mod p; ValueError when its denominator is 0 mod p."""
    if type(c) is int:
        return c % p
    return c.numerator * pow(c.denominator, -1, p) % p


def _power(base, n):
    """base ** n for n >= 1 by binary powering, with n - 1 products at most.

    The first factor is taken as it is rather than multiplied into a 1, and
    base is squared only while a higher bit of n is left.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _power_rows(assign, top, p):
    """Per residue a of assign, the list of a^k mod p for k = 0..top."""
    rows = []
    for a in assign:
        row = [1]
        for _ in range(top):
            row.append(row[-1] * a % p)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# polynomials

# A monomial lam1^e1 lam2^e2 lam3^e3 m^e4 is keyed by the int
# deg<<48 | e1<<36 | e2<<24 | e3<<12 | e4, deg = e1 + e2 + e3 + e4, in 12-bit
# fields (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
# and packed exponent vectors", CASC 2007).  While deg < MAX_DEGREE no field
# carries into the next, so a product's key is the sum of its factors' keys,
# and graded-lex order is int order.  Keys stay below 2^60.
MAX_DEGREE = 1 << 12
_MASK = MAX_DEGREE - 1
# the key of each variable alone
_UNIT_KEYS = (1 << 48 | 1 << 36, 1 << 48 | 1 << 24, 1 << 48 | 1 << 12,
              1 << 48 | 1)


def _check_degree(deg):
    if deg >= MAX_DEGREE:
        raise DegreeOverflow(
            f"total degree {deg} reaches the limit {MAX_DEGREE}")


def _pack(exp):
    """The key of an exponent tuple (e1, e2, e3, e4) of non-negative ints."""
    if (type(exp) is not tuple or len(exp) != NVARS
            or any(type(n) is not int or n < 0 for n in exp)):
        raise ValueError(f"not {NVARS} non-negative int exponents: {exp!r}")
    e1, e2, e3, e4 = exp
    deg = e1 + e2 + e3 + e4
    _check_degree(deg)
    return deg << 48 | e1 << 36 | e2 << 24 | e3 << 12 | e4


def _unpack(key):
    """The exponent tuple of a monomial key."""
    return key >> 36 & _MASK, key >> 24 & _MASK, key >> 12 & _MASK, key & _MASK


class MultiPoly:
    """Sparse polynomial: dict from monomial key to a nonzero rational.

    A monomial key packs the exponents and the total degree into one int
    (see _pack); the constant monomial's key is 0.  MultiPoly(terms) takes
    exponent tuples, and raises DegreeOverflow for a total degree of
    MAX_DEGREE = 4096 or more, as a product does.  A coefficient is an int
    whenever its value is integral; a Fraction holds only a non-integral
    value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for e, c in (terms or {}).items():
            e = _pack(e)
            if c != 0:
                self.terms[e] = _coef(c)

    @staticmethod
    def const(c):
        c = _coef(c)
        return _poly({0: c} if c != 0 else {})

    @staticmethod
    def var(name):
        return _poly({_UNIT_KEYS[VARS.index(name)]: 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        return self.terms.get(0, 0)

    def total_degree(self):
        return max(self.terms) >> 48 if self.terms else 0

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _poly(out)

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return MultiPoly()
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        _check_degree((max(a) >> 48) + (max(b) >> 48))
        # most products are by a linear form, of two or three terms: the
        # first row of keys is distinct and needs no lookup
        rows = iter(b.items())
        eb, cb = next(rows)
        out = {ea + eb: ca * cb for ea, ca in a.items()}
        for eb, cb in rows:
            for ea, ca in a.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _poly(out)

    def scale(self, c):
        c = _coef(c)
        if c == 0:
            return MultiPoly()
        if c == 1:
            return self
        return _poly({e: v * c for e, v in self.terms.items()})

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        return _power(self, n) if n else MultiPoly.const(1)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def eval_mod(self, assign, p):
        """Value mod p at the residues assign, from one power table per variable.

        Raises ValueError when a coefficient's denominator is 0 mod p.
        """
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and 0 in terms:
            return _residue(terms[0], p)
        t0, t1, t2, t3 = _power_rows(assign, max(terms) >> 48, p)
        total = 0
        # the fields are read with the literal _MASK, which a global lookup
        # per term would slow
        for e, c in terms.items():
            if type(c) is not int:
                c = _residue(c, p)
            total += (c * t0[e >> 36 & 4095] * t1[e >> 24 & 4095]
                      * t2[e >> 12 & 4095] * t3[e & 4095])
        return total % p

    def subs_m_lam3(self):
        """Substitute m -> lam3: the m field is added into the lam3 field."""
        out = {}
        for e, c in self.terms.items():
            em = e & _MASK
            ne = e + (em << 12) - em
            s = out.get(ne, 0) + c
            if s == 0:
                out.pop(ne, None)
            else:
                out[ne] = s
        return _poly(out)

    def divmod_linear(self, form):
        """Divide by a linear form; returns (quotient, exact) with exact a bool.

        Synthetic division along the form's pivot variable (its first variable
        with nonzero coefficient, which is also its graded-lex leading one).
        """
        piv = next(i for i in range(NVARS) if form[i] != 0)
        cp = form[piv]
        shift = 36 - 12 * piv
        unit = _UNIT_KEYS[piv]
        rest = [(_UNIT_KEYS[i], form[i]) for i in range(piv + 1, NVARS)
                if form[i] != 0]
        # bucket the dividend by pivot exponent
        by_deg = {}
        for e, c in self.terms.items():
            by_deg.setdefault(e >> shift & _MASK, {})[e] = c
        if not by_deg:
            return MultiPoly(), True
        top = max(by_deg)
        quot = {}
        carry = {}  # p_k - cp-free part, at current pivot level
        for k in range(top, -1, -1):
            level = dict(by_deg.get(k, {}))
            for e, c in carry.items():
                s = level.get(e, 0) + c
                if s == 0:
                    level.pop(e, None)
                else:
                    level[e] = s
            if k == 0:
                return (_poly(quot), not level)
            carry = {}
            for e, c in level.items():
                q = _div_exact(c, cp)
                eq = e - unit
                quot[eq] = quot.get(eq, 0) + q
                if quot[eq] == 0:
                    del quot[eq]
                # subtract q * x^eq * (rest of the form) from the next level
                for u, ci in rest:
                    er = eq + u
                    s = carry.get(er, 0) - q * ci
                    if s == 0:
                        carry.pop(er, None)
                    else:
                        carry[er] = s
        return _poly(quot), not carry  # pragma: no cover

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, reverse=True)
        monos = ["*".join(v if n == 1 else f"{v}^{n}"
                          for v, n in zip(VARS, _unpack(e)) if n)
                 for e in keys]
        return _terms_str([self.terms[e] for e in keys], monos)


def _terms_str(coeffs, monos):
    """The signed sum of the terms coeffs[i] * monos[i], in order.

    A zero coefficient is skipped, an empty monomial is a constant term, and
    a coefficient of magnitude 1 in front of a monomial is left out.  Forms
    and polynomials both print through here.
    """
    out = ""
    for c, mono in zip(coeffs, monos):
        if not c:
            continue
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if c < 0:
            out += f" - {body}" if out else f"-{body}"
        else:
            out += f" + {body}" if out else body
    return out


# ---------------------------------------------------------------------------
# linear forms


# A linear form c1*lam1 + c2*lam2 + c3*lam3 + cm*m is the tuple
# (c1, c2, c3, cm) of its integer coefficients, primitive (their gcd is 1)
# and canonical (the first nonzero one is positive), so proportional forms
# are one form.  RatFun.from_forms makes a vector so.  Forms hash, compare
# and sort as tuples.

# the coefficients of the form that is each variable
_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def form_poly(form):
    """The form as a MultiPoly."""
    return _poly({e: c for e, c in zip(_UNIT_KEYS, form) if c})


def form_value(form, assign, p):
    """The form's residue mod p at the residues assign."""
    c1, c2, c3, cm = form
    a1, a2, a3, am = assign
    return (c1 * a1 + c2 * a2 + c3 * a3 + cm * am) % p


def form_str(form):
    """The form as text, e.g. `lam1 - 2*m`."""
    return _terms_str(form, VARS)


class _PrimitiveTable(dict):
    """(primitive canonical form, signed content g) of each coefficient
    vector from_forms has folded, keyed by the vector as a tuple; g is the
    gcd of the entries, negated when the first nonzero one is negative.  An
    entry is never changed, and a form is the object of its own entry, so
    equal forms are one object and the eval_mod form tables hit by identity."""

    def __missing__(self, vec):
        c1, c2, c3, cm = vec
        g = math.gcd(c1, c2, c3, cm)
        if not g:
            raise ZeroForm("all coefficients vanish")
        if (c1 or c2 or c3 or cm) < 0:
            g = -g
        form = vec if g == 1 else self[c1 // g, c2 // g, c3 // g, cm // g][0]
        entry = self[vec] = (form, g)
        return entry


_PRIMITIVE = _PrimitiveTable()


# ---------------------------------------------------------------------------
# rational functions

_ONE = MultiPoly.const(1)


def _ratfun(factored, num):
    """RatFun over the given parts, taken as they are, with no normalisation.

    Callers pass parts in normal form; anything else goes through _normal.
    """
    r = object.__new__(RatFun)
    r.factored = factored
    r.num = num
    return r


class RatFun:
    """prod of form^exp times the residual polynomial num.

    `factored` maps primitive canonical forms to nonzero exponents;
    RatFun(...) takes its keys as such and normalises the rest through
    _normal.  Coefficient vectors of any sign and content go through
    from_forms, whose fold puts their contents into num, so proportional
    forms are one factor.  The normal form keeps three things: no exponent is zero, no
    factored form divides a non-constant num, and num is no linear form.  A
    num may still be a product of forms that are not factored:
    RatFun({}, form_poly(f) * form_poly(g)) keeps that num, and so may an
    rf_sum, such as lam1^2 - lam2^2.
    """

    __slots__ = ("factored", "num")

    def __init__(self, factored=None, num=_ONE):
        factored = dict(factored or {})
        out = _normal(factored, num)
        self.factored, self.num = out.factored, out.num

    # -- constructors

    @staticmethod
    def zero():
        return _ratfun({}, MultiPoly())

    @staticmethod
    def const(c):
        return RatFun.from_forms((), c)

    @staticmethod
    def var(name):
        return RatFun.from_forms([(_UNITS[VARS.index(name)], 1)])

    @staticmethod
    def from_forms(pairs, scalar=1):
        """scalar * prod form^exp over (coefficients, exp) pairs.

        The one sign-and-content fold: each integer coefficient vector (a
        tuple or a list), of any sign and content, is divided by its signed
        content g, which leaves the primitive canonical form, and g^exp
        enters the scalar; both come from the table _PRIMITIVE.  Exponents
        of equal forms are summed and zero ones dropped: the normal form.
        """
        if not scalar:
            return RatFun.zero()
        factored = {}
        up = down = 1
        for vec, e in pairs:
            form, g = _PRIMITIVE[tuple(vec)]
            if g != 1:
                if e > 0:
                    up *= g ** e
                else:
                    down *= g ** -e
            factored[form] = factored.get(form, 0) + e
        if up != down:
            scalar = scalar * up if down == 1 else Fraction(scalar * up, down)
        return _ratfun({f: e for f, e in factored.items() if e},
                       MultiPoly.const(scalar))

    # -- predicates

    def is_zero(self):
        return self.num.is_zero()

    def degree_bound(self):
        """Bound on the degrees of the fully expanded numerator/denominator."""
        return self.num.total_degree() + sum(map(abs, self.factored.values()))

    def expand(self):
        """Return (N, D) MultiPolys with value = N/D and no factored part."""
        n, d = self.num, _ONE
        for f, e in self.factored.items():
            p = form_poly(f) ** abs(e)
            if e > 0:
                n = n * p
            else:
                d = d * p
        return n, d

    # -- arithmetic

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return RatFun.zero()
        factored = dict(self.factored)
        for f, e in other.factored.items():
            factored[f] = factored.get(f, 0) + e
        return _normal(factored, self.num * other.num)

    __rmul__ = __mul__

    def inverse(self):
        """The inverse of a unit: a nonzero value whose num is a constant."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if not self.num.is_const():
            raise NonUnitDivisor(f"{self.num} is not a unit")
        factored = {f: -e for f, e in self.factored.items()}
        return _ratfun(factored,
                       MultiPoly.const(Fraction(1, self.num.const_value())))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __neg__(self):
        return _ratfun(self.factored, self.num.scale(-1))

    def __add__(self, other):
        return rf_sum([self, _coerce(other)])

    __radd__ = __add__

    def __sub__(self, other):
        return rf_sum([self, -_coerce(other)])

    def __rsub__(self, other):
        return rf_sum([_coerce(other), -self])

    def __pow__(self, n):
        assert isinstance(n, int)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n) if n else RatFun.const(1)

    def __eq__(self, other):
        """Equality by full cross-multiplication of the expanded quotients.

        The checkers decide equality with rf_equal, through rf_sum; this
        independent path is the reference that rf_sum is tested against.
        """
        if not isinstance(other, (RatFun, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        na, da = self.expand()
        nb, db = other.expand()
        return (na * db - nb * da).is_zero()

    # -- specialization and evaluation

    def substitute_m(self):
        """Specialize m -> lam3 on the factored representation."""
        pairs = []
        for f, e in self.factored.items():
            c1, c2, c3, cm = f
            if not (c1 or c2 or c3 + cm):
                if e > 0:
                    return RatFun.zero()
                raise PoleAtSubstitution(
                    f"denominator factor {form_str(f)} vanishes at m=lam3")
            pairs.append(((c1, c2, c3 + cm, 0), e))
        out = RatFun.from_forms(pairs)
        return _normal(out.factored, out.num * self.num.subs_m_lam3())

    def residue_pair(self, assign, p, table):
        """(num, den) residues mod p whose quotient is the value's residue.

        Form values are looked up in `table`, a dict from a form to its
        residue at this assign and p, and added to it when missing; callers
        that evaluate many values at one point share one table.  Every
        factor is looked up, so den is 0 where a denominator form vanishes
        even when a numerator form vanishes there too.
        """
        num = self.num.eval_mod(assign, p)
        den = 1
        for f, e in self.factored.items():
            v = table.get(f)
            if v is None:
                v = table[f] = form_value(f, assign, p)
            if e == 1:
                num = num * v % p
            elif e == -1:
                den = den * v % p
            elif e > 0:
                num = num * pow(v, e, p) % p
            else:
                den = den * pow(v, -e, p) % p
        return num, den

    def eval_mod(self, assign, p, table):
        """Evaluate at residues mod p, through the form table `table` (see
        residue_pair).  Raises EvalDegenerate on a pole."""
        num, den = self.residue_pair(assign, p, table)
        if den == 0:
            raise EvalDegenerate("denominator hit zero at sample point")
        return num * pow(den, -1, p) % p

    # -- serialization

    def __str__(self):
        forms = " ; ".join(
            f"{form_str(f)}^{self.factored[f]}" for f in sorted(self.factored)
        )
        inner = f" {forms} " if forms else " "
        return f"prod[{inner}] * ( {self.num} ) / ( 1 )"

    def __repr__(self):
        return f"RatFun({self})"


def _form_coeffs(poly):
    """[c1, c2, c3, cm] when poly is c1*lam1 + c2*lam2 + c3*lam3 + cm*m
    with some ci nonzero, else None."""
    terms = poly.terms
    coeffs = [terms.get(u, 0) for u in _UNIT_KEYS]
    if terms and len(terms) == NVARS - coeffs.count(0):
        return coeffs
    return None


def _linear_split(poly):
    """poly as content * form^1 through from_forms if poly is one linear
    form, else None."""
    coeffs = _form_coeffs(poly)
    if coeffs is None:
        return None
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return RatFun.from_forms([([int(c * lcm) for c in coeffs], 1)],
                             Fraction(1, lcm))


# Residues of the variables off the pivot at the hyperplane test's point.  Any
# fixed values serve: a zero value only sends the test on to exact division.
_HYPERPLANE_BASE = (0x2545F4914F6CDD1D, 0x1B873593CC9E2D51,
                    0x27D4EB2F165667C5, 0x3C6EF372FE94F82A)


@functools.cache
def _hyperplane_point(coeffs):
    """A fixed point mod DEFAULT_PRIME on the hyperplane sum coeffs * vars = 0.

    The pivot variable (the first with a nonzero coefficient) is solved for;
    the others take _HYPERPLANE_BASE.  None when the pivot coefficient is
    0 mod p, so that the pivot cannot be solved for.  Cached per coefficient
    tuple: each division bound asks for its form's point.
    """
    p = DEFAULT_PRIME
    piv = next(i for i in range(NVARS) if coeffs[i])
    if coeffs[piv] % p == 0:
        return None
    point = [b % p for b in _HYPERPLANE_BASE]
    point[piv] = 0
    rest = sum(c * a for c, a in zip(coeffs, point))
    point[piv] = -rest * pow(coeffs[piv], -1, p) % p
    return tuple(point)


class _Lines(dict):
    """Entry i: poly on the line of the hyperplane points of the forms with
    pivot x_i (x_i free, every other variable at its _HYPERPLANE_BASE
    residue), as its coefficient list mod DEFAULT_PRIME by power of x_i,
    built on first use; None when a coefficient denominator is 0 mod p."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = poly

    def __missing__(self, piv):
        p, terms = DEFAULT_PRIME, self.poly.terms
        base = [b % p for b in _HYPERPLANE_BASE]
        base[piv] = 1  # x_i's row of powers is all ones
        top = max(terms) >> 48
        t0, t1, t2, t3 = _power_rows(base, top, p)
        shift, line = 36 - 12 * piv, [0] * (top + 1)
        try:
            for e, c in terms.items():
                if type(c) is not int:
                    c = _residue(c, p)
                line[e >> shift & 4095] += (
                    c * t0[e >> 36 & 4095] * t1[e >> 24 & 4095]
                    * t2[e >> 12 & 4095] * t3[e & 4095])
            line = [c % p for c in line]
        except ValueError:
            line = None
        self[piv] = line
        return line


def _division_bound(lines, form):
    """n_f >= every n with form^n dividing lines.poly, or None (unknown).

    n_f is the multiplicity of x_f, the pivot coordinate of the form's
    _hyperplane_point, as a root of the pivot's line (see _Lines).  If
    form^n divides poly, then by Gauss's lemma form0^n divides v * poly,
    with form0 the primitive part of form and v the lcm of poly's
    coefficient denominators.  On the line form0 is c * (x - x_f), where c
    divides form's pivot coefficient and so is nonzero mod p, and v is
    invertible mod p, so (x - x_f)^n divides the line: n_f >= n.  A pivot
    coefficient or a denominator that is 0 mod p, or a line that is 0 mod
    p, gives None.  Horner's rule answers the common n_f = 0 with no list.
    """
    point = _hyperplane_point(form)
    if point is None:
        return None
    piv = next(i for i in range(NVARS) if form[i])
    line, p, x, r = lines[piv], DEFAULT_PRIME, point[piv], 0
    if line is None:
        return None
    for c in reversed(line):
        r = (r * x + c) % p
    if r:
        return 0
    n = 0
    while any(line):
        # synthetic division by x - x_f: quot ends with the remainder
        quot, r = [], 0
        for c in reversed(line):
            r = (r * x + c) % p
            quot.append(r)
        if r:
            return n
        n, line = n + 1, quot[-2::-1]
    return None


def _divide_out(poly, form, lines):
    """(poly / form^n, n) for the largest n with form^n dividing poly.

    poly is lines.poly over powers of other forms (or none), so form^n
    divides lines.poly too and n <= _division_bound(lines, form).  At most
    that many synthetic divisions are started; an exact one decides, and
    the first inexact one stops.
    """
    n, bound = 0, 0 if poly.is_const() else _division_bound(lines, form)
    while n != bound and not poly.is_const():  # a bound of None bounds nothing
        q, exact = poly.divmod_linear(form)
        if not exact:
            break
        poly, n = q, n + 1
    return poly, n


def _normal(factored, num):
    """The normal form of prod form^exp over factored, times num.

    Every copy of each key of factored, zero exponents included, is divided
    out of a non-constant num into factored, which is taken over and
    changed; then a num that is one linear form moves to the factored part,
    its content folded into num by from_forms, and zero exponents are
    dropped.  The forms are primitive, so no two are proportional and their
    order does not change the result.  Every form's division bound reads the
    lines of the num given (see _Lines).
    """
    if num.is_zero():
        return RatFun.zero()
    if not num.is_const():
        lines = _Lines(num)
        for f in list(factored):
            num, up = _divide_out(num, f, lines)
            if up:
                factored[f] += up
        split = _linear_split(num)
        if split is not None:
            (form, _), = split.factored.items()
            factored[form] = factored.get(form, 0) + 1
            num = split.num
    return _ratfun({f: e for f, e in factored.items() if e}, num)


def _coerce(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun.const(x)
    raise TypeError(f"cannot coerce {x!r} to RatFun")


def binomial_rf(x, d):
    """x (x-1) ... (x-d+1) / d! as a RatFun."""
    result = RatFun.const(Fraction(1, math.factorial(d)))
    for i in range(d):
        result = result * (x - i)
    return result


def _times(poly, factors, power):
    """poly * prod power(key, e) over the (key, e) of factors, in key order."""
    for key in sorted(factors):
        poly = poly * power(key, factors[key])
    return poly


def _shared_expansion(group, power):
    """Sum of coef * prod power(key, e) over the (coef, factors) of group.

    A greedy multivariate Horner scheme (Ceberio & Kreinovich, ACM SIGSAM
    Bulletin 38(1), 2004) on a sum of products: the factors that every term
    of the group holds are multiplied once onto the group's sum, and the
    terms are split on the factor held by the most of them (the smallest key
    among ties), each part expanded the same way; a term that shares no
    factor with the others multiplies out its own.
    """
    common = {}
    for key in group[0][1]:
        e = min(factors.get(key, 0) for _, factors in group)
        if e:
            common[key] = e
    if common:
        group = [(coef, {key: e - common.get(key, 0)
                         for key, e in factors.items()
                         if e != common.get(key, 0)})
                 for coef, factors in group]
    counts = {}
    for _, factors in group:
        for key in factors:
            counts[key] = counts.get(key, 0) + 1
    total = MultiPoly()
    while len(group) > 1 and counts:
        key = min(counts, key=lambda k: (-counts[k], k))
        if counts[key] == 1:
            break
        held = [t for t in group if key in t[1]]
        group = [t for t in group if key not in t[1]]
        for _, factors in held:
            for k in factors:
                counts[k] -= 1
                if not counts[k]:
                    del counts[k]
        total = total + _shared_expansion(held, power)
    for coef, factors in group:
        total = total + _times(coef, factors, power)
    return _times(total, common, power)


def _spread_lam1(poly):
    """poly, free of lam2, with lam1 + lam2 substituted for lam1.

    Each lam1^n becomes sum_k C(n, k) lam1^(n - k) lam2^k by one key
    rewrite: the degree field is unchanged, and the images of two distinct
    lam2-free monomials share none, so no sum cancels.
    """
    out = {}
    step = (1 << 24) - (1 << 36)  # one lam1 moved to lam2
    for e, c in poly.terms.items():
        n = e >> 36 & _MASK
        for k in range(n + 1):
            out[e + k * step] = c * math.comb(n, k)
    return _poly(out)


def rf_sum(terms):
    """Exact sum of RatFuns over the shared factored denominator.

    When every term's residual num is constant, some form's exponent
    differs between terms, and every form (c1, c2, c3, cm) has c1 = c2,
    some c1 nonzero, the sum runs with lam1 standing for lam1 + lam2: each
    form is written (c1, 0, c3, cm), which is still primitive and canonical.
    The result is mapped back once, each form (c1, 0, c3, cm) to
    (c1, c1, c3, cm), the object of its _PRIMITIVE entry, and the num by
    substituting lam1 + lam2 for lam1 (_spread_lam1): an injective ring
    map that keeps degrees and divisibility by forms, so the normal form
    there maps to the normal form of the flat sum.  Every other sum runs
    flat in all NVARS variables.  The forms are primitive, so no two are
    proportional, and the result, string included, does not depend on the
    order of the terms.  Their grouping can still change the text: a
    group's sum may factor a form that the whole sum keeps inside a
    non-linear num.
    """
    terms = [t for t in terms if not t.is_zero()]
    if len(terms) < 2:
        return terms[0] if terms else RatFun.zero()
    if (any(t.factored != terms[0].factored for t in terms)
            and all(t.num.is_const() for t in terms)):
        forms = set().union(*(t.factored for t in terms))
        if all(f[0] == f[1] for f in forms) and any(f[0] for f in forms):
            red = _rf_sum_flat([
                _ratfun({(c1, 0, c3, cm): e
                         for (c1, _, c3, cm), e in t.factored.items()}, t.num)
                for t in terms])
            return _ratfun({_PRIMITIVE[c1, c1, c3, cm][0]: e
                            for (c1, _, c3, cm), e in red.factored.items()},
                           _spread_lam1(red.num))
    return _rf_sum_flat(terms)


def _rf_sum_flat(terms):
    """rf_sum of at least two nonzero terms in all NVARS variables.

    Collects the common linear-form part and brings every term over one
    integer content: content is the lcm of the denominators of the terms'
    num coefficients.  The numerator is the sum over the terms of
    content * num_i times the term's leftover form powers; it is expanded in
    integer arithmetic by _shared_expansion, which multiplies a cofactor
    shared by a group of terms once for the group.  Linear factors are
    pulled back out of that integer sum by trial division, and only then is
    it divided by the content, once.
    """
    allforms = set()
    for t in terms:
        allforms.update(t.factored)
    common = {
        f: min(t.factored.get(f, 0) for t in terms) for f in allforms
    }
    content = math.lcm(*(c.denominator for t in terms
                         for c in t.num.terms.values()))
    group = []
    for t in terms:
        factors = {}
        for f in allforms:
            e = t.factored.get(f, 0) - common[f]
            if e:
                factors[f] = e
        group.append((t.num.scale(content), factors))
    powers = {}

    def power(form, e):
        p = powers.get((form, e))
        if p is None:
            p = powers[form, e] = form_poly(form) ** e
        return p

    out = _normal(common, _shared_expansion(group, power))
    return _ratfun(out.factored, out.num.scale(Fraction(1, content)))


# ---------------------------------------------------------------------------
# identity testing


@dataclass(frozen=True)
class EvalBackend:
    points: int = 5
    seed: int = 42

    def describe(self):
        return f"eval(points={self.points}, seed={self.seed}, prime={DEFAULT_PRIME})"

    def sz_bound(self, deg):
        """(deg / prime)^points, capped at 1 per point."""
        return Fraction(min(deg, DEFAULT_PRIME), DEFAULT_PRIME) ** self.points


def sample_points(backend):
    """Deterministic stream of candidate assignments mod DEFAULT_PRIME."""
    rng = random.Random(backend.seed)
    while True:
        yield tuple(rng.randrange(1, DEFAULT_PRIME) for _ in range(NVARS))


def sz_samples(backend, evaluate):
    """Yield evaluate(assign) at backend.points accepted assignments.

    Assignments come from sample_points; one where evaluate raises
    EvalDegenerate (a pole) is skipped.  Raises EvalDegenerate once
    20 * backend.points draws have not yielded enough accepted ones.
    """
    max_draws = 20 * backend.points
    stream = sample_points(backend)
    accepted = draws = 0
    while accepted < backend.points:
        if draws == max_draws:
            raise EvalDegenerate(
                f"only {accepted} of {backend.points} sample points "
                f"avoided a pole in {max_draws} draws"
            )
        assign = next(stream)
        draws += 1
        try:
            value = evaluate(assign)
        except EvalDegenerate:
            continue
        accepted += 1
        yield value


def residue_sums(sides, assign, p, table):
    """{name: sum of the side's term residues mod p}, all through one form
    table.  A side adds its terms' residue_pair fractions and inverts once
    (Montgomery's batch inversion, Math. Comp. 48, 1987); p is prime, so its
    denominator is 0, and EvalDegenerate raised, exactly when a term's is."""
    out = {}
    for name, terms in sides.items():
        num, den = 0, 1
        for t in terms:
            n, d = t.residue_pair(assign, p, table)
            num = (num * d + n * den) % p
            den = den * d % p
        if den == 0:
            raise EvalDegenerate("denominator hit zero at sample point")
        out[name] = num * pow(den, -1, p) % p
    return out


def rf_equal(a, b):
    """Exact a == b."""
    return rf_sum([a, -b]).is_zero()


def decide(sides, backend):
    """{(a, b): do sides a and b, lists of terms, have equal sums?} per pair.

    Symbolic sums each side once with rf_sum; eval compares the sides'
    residue sums at the points of one sz_samples stream, expanding nothing.
    """
    pairs = list(itertools.combinations(sides, 2))
    if backend == "symbolic":
        sums = {name: rf_sum(terms) for name, terms in sides.items()}
        return {(a, b): rf_equal(sums[a], sums[b]) for a, b in pairs}
    ok = dict.fromkeys(pairs, True)
    for r in sz_samples(backend, lambda assign: residue_sums(
            sides, assign, DEFAULT_PRIME, {})):
        ok = {(a, b): v and r[a] == r[b] for (a, b), v in ok.items()}
        if not any(ok.values()):
            break
    return ok


# ---------------------------------------------------------------------------
# text grammar

_RATFUN_RE = re.compile(
    r"\s*prod\[([^\]]*)\]\s*\*\s*\(([^()]*)\)\s*/\s*\(([^()]*)\)\s*")
_EXP_RE = re.compile(r"\s*[+-]?[0-9]+\s*")
_FACTOR_RE = re.compile(r"\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?"
                        r"|(lam[123]|m)(?:\s*\^\s*([0-9]+))?)\s*")


def parse_ratfun(s):
    """A RatFun from `prod[ <form>^<exp> ; ... ] * ( <poly> ) / ( <c> )`.

    Each form item is split at its last `^`; a form must be primitive, and
    one with a negative leading coefficient is accepted only at an even
    exponent, where its sign does not matter.  The denominator c is a
    nonzero constant, folded into the num; the writer always writes 1.
    """
    mo = _RATFUN_RE.fullmatch(s)
    if not mo:
        raise ParseError(f"not a prod[...] * (...) / (...) value: {s!r}")
    forms, num, den = mo.groups()
    pairs = []
    for item in forms.split(";") if forms.strip() else ():
        body, _, e = item.rpartition("^")
        if not _EXP_RE.fullmatch(e):
            raise ParseError(f"bad form exponent in {item!r}")
        e = int(e)
        coeffs = _form_coeffs(parse_poly(body))
        if (coeffs is None or any(type(c) is not int for c in coeffs)
                or math.gcd(*coeffs) != 1):
            raise ParseError(f"not a primitive integer linear form: {body!r}")
        if next(c for c in coeffs if c) < 0 and e % 2:
            raise ParseError(f"non-canonical form {body!r}")
        pairs.append((coeffs, e))
    den = parse_poly(den)
    if den.is_zero() or not den.is_const():
        raise ParseError(f"not a nonzero constant denominator in {s!r}")
    out = RatFun.from_forms(pairs, Fraction(1, den.const_value()))
    return _normal(out.factored, parse_poly(num).scale(out.num.const_value()))


def parse_poly(s):
    """A MultiPoly from signed terms of `*`-joined factors: an integer, a
    p/q, or a variable with an optional power `^n`, n >= 0."""
    chunks = re.split(r"([+-])", s)
    if len(chunks) > 1 and not chunks[0].strip():
        del chunks[0]
    else:
        chunks.insert(0, "+")
    terms = {}
    for sign, body in zip(chunks[::2], chunks[1::2]):
        coeff, exp = (-1 if sign == "-" else 1), [0] * NVARS
        for factor in body.split("*"):
            mo = _FACTOR_RE.fullmatch(factor)
            if not mo:
                raise ParseError(f"bad factor {factor!r} in {s!r}")
            n, q, var, power = mo.groups()
            if var:
                exp[VARS.index(var)] += int(power or 1)
            elif q:
                if not int(q):
                    raise ParseError(f"zero denominator in {s!r}")
                coeff *= Fraction(int(n), int(q))
            else:
                coeff *= int(n)
        e = tuple(exp)
        terms[e] = terms.get(e, 0) + coeff
    return MultiPoly(terms)
