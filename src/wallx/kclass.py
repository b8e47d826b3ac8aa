"""Virtual equivariant characters for the torus T0 x C*_m.

A Weight is the exponent vector (w1, w2, w3, wm) of a monomial
t1^w1 t2^w2 t3^w3 e^{wm m}; the scaling weight t0 is never stored, it is
folded in through the relation t0 t1 t2 t3 = 1, i.e. t0^k = (t1 t2 t3)^{-k}.
A KClass is a finite Z-linear combination of weights.
"""

from __future__ import annotations

from .ratfun import PoleAtZeroWeight, RatFun

ZERO_WEIGHT = (0, 0, 0, 0)


def weight(w1=0, w2=0, w3=0, wm=0, w0=0):
    """Canonical weight with the t0 exponent folded into t1 t2 t3."""
    return (w1 - w0, w2 - w0, w3 - w0, wm)


def t0_weight(k):
    return weight(w0=k)


def _kclass(terms):
    """KClass over a dict of nonzero int multiplicities, taken as it is: its
    builder has dropped the zeros, as KClass arithmetic does."""
    v = object.__new__(KClass)
    v.terms = terms
    return v


class KClass:
    """Finite multiset of weights with integer multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """Zero multiplicities are dropped; ValueError on a weight that is
        not a tuple of 4 ints or a multiplicity that is not integral."""
        self.terms = {}
        for w, c in (terms or {}).items():
            if type(w) is not tuple or tuple(map(type, w)) != (int,) * 4:
                raise ValueError(f"weight {w!r} is not a tuple of 4 ints")
            if c != int(c):
                raise ValueError(f"multiplicity {c!r} is not integral")
            if c:
                self.terms[w] = int(c)

    @staticmethod
    def zero():
        return KClass()

    @staticmethod
    def line(w1=0, w2=0, w3=0, wm=0, w0=0):
        return KClass({weight(w1, w2, w3, wm, w0): 1})

    def rank(self):
        return sum(self.terms.values())

    def zero_mult(self):
        return self.terms.get(ZERO_WEIGHT, 0)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
        return _kclass(out)

    def __neg__(self):
        return _kclass({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def twist(self, w):
        """Tensor with the single weight w."""
        return _kclass({
            (a[0] + w[0], a[1] + w[1], a[2] + w[2], a[3] + w[3]): c
            for a, c in self.terms.items()
        })

    def dual(self):
        return _kclass({(-a, -b, -c, -d): m
                        for (a, b, c, d), m in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, KClass) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


# chi_p1's class per (a, b); KClass arithmetic never changes a class
_CHI_P1 = {}


def chi_p1(a, b):
    """Character of chi(P^1, O(a Z0 + b Zinf)) by equivariant Riemann-Roch.

    The geometric sum of the RR formula is sum_{k=-a}^{b} t0^k when -a <= b,
    else minus the range b < k < -a (empty when b = -a-1); the rank is a+b+1
    in every case.  The class is built once per (a, b) and shared.
    """
    v = _CHI_P1.get((a, b))
    if v is None:
        ks, c = (range(-a, b + 1), 1) if -a <= b else (range(b + 1, -a), -1)
        v = _CHI_P1[a, b] = _kclass({t0_weight(k): c for k in ks})
    return v


def euler_class(v):
    """Product of the weight linear forms with multiplicities.

    A positive net multiplicity of the zero weight kills the class (a trivial
    summand makes the Euler class vanish); a negative one is a genuine pole
    and raises PoleAtZeroWeight.
    """
    zm = v.zero_mult()
    if zm > 0:
        return RatFun.zero()
    if zm < 0:
        raise PoleAtZeroWeight("zero weight with negative multiplicity")
    # the zero weight is stored only with a nonzero multiplicity, so every
    # weight left is a nonzero vector (w1, w2, w3, wm), which weight() has
    # made the coefficient vector of its linear form in lam1, lam2, lam3, m
    return RatFun.from_forms(v.terms.items())
