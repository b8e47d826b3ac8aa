"""Equivariant sheaves on the local resolved conifold 4-fold O_P1(-1,-1,0).

Every torus-fixed object in scope pushes down to a finite direct sum of
twisted line bundles O(a Z0 + b Zinf) x t^w on the base P1, held as runs
(L, n): the line bundle L thickened by t3^j for j < n.  This module computes
their chi-classes by equivariant Riemann-Roch on P1 plus adjunction along the
normal bundle of P1 in the relevant ambient space, and enumerates the
classified fixed loci over the walls Lmm(k) together with their signs.  A
sheaf F is passed as its tuple of runs.  A fixed point's pairing with
itself is summed from a per-key table of run pairs (_PAIRINGS).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .kclass import ZERO_WEIGHT, _kclass, chi_p1, euler_class, weight
from .ratfun import PoleAtZeroWeight, RatFun, WallxError

ON_Y = "on_Y"
ON_Z = "on_Z"
THICKENED = "thickened"


class UnsupportedConfiguration(WallxError, ValueError):
    pass


class EquivLineBundle(NamedTuple):
    """O(a Z0 + b Zinf) tensored with the character t^twist."""

    a: int
    b: int
    twist: tuple = (0, 0, 0, 0)


O_P1 = EquivLineBundle(0, 0)

# normal bundle summands of P1 inside each ambient space
AMBIENT_NORMAL = {
    "P1": (),
    "Y3fold": (
        EquivLineBundle(0, -1, weight(w1=-1)),
        EquivLineBundle(0, 0, weight(w3=-1)),
    ),
    "Z3fold": (
        EquivLineBundle(0, -1, weight(w1=-1)),
        EquivLineBundle(0, -1, weight(w2=-1)),
    ),
    "X4fold": (
        EquivLineBundle(0, -1, weight(w1=-1)),
        EquivLineBundle(0, -1, weight(w2=-1)),
        EquivLineBundle(0, 0, weight(w3=-1)),
    ),
}


@dataclass(frozen=True)
class FixedPoint:
    """A fixed point; runs is its sheaf as a tuple of runs (L, n)."""

    label: str
    runs: tuple
    chi: int
    deg: int
    sign_extra: int = 0
    support: str = ON_Y


def chi_X(F):
    """Pushforward character chi(P1, F)."""
    total = {}
    for (a, b, (t1, t2, t3, tm)), n in F:
        terms = chi_p1(a, b).terms.items()
        for j in range(n):
            for (w1, w2, w3, wm), c in terms:
                w = (w1 + t1, w2 + t2, w3 + t3 + j, wm + tm)
                total[w] = total.get(w, 0) + c
    return _kclass({w: c for w, c in total.items() if c})


def _exterior_powers(normal):
    """(a, b, twist, (-1)^p) of wedge^p N, one entry per p-subset of N.

    Subsets come in order of p, then in itertools.combinations order.
    """
    out = []
    for p in range(len(normal) + 1):
        for subset in itertools.combinations(normal, p):
            out.append((
                sum(n.a for n in subset),
                sum(n.b for n in subset),
                tuple(sum(n.twist[i] for n in subset) for i in range(4)),
                -1 if p % 2 else 1,
            ))
    return tuple(out)


EXTERIOR_POWERS = {name: _exterior_powers(normal)
                   for name, normal in AMBIENT_NORMAL.items()}


def chi_pair(L, Lp, ambient):
    """Adjunction chi-pairing of two line bundles inside an ambient space.

    Alternating sum over exterior powers of the normal bundle of P1:
    sum_p (-1)^p chi_P1(Hom(L, L' x wedge^p N)), each term a chi_p1 class
    twisted by t' - t and the power's twist.
    """
    (a, b, t), (ap, bp, u) = L, Lp
    total = {}
    for wa, wb, w, sign in EXTERIOR_POWERS[ambient]:
        s0, s1, s2, s3 = (u[i] - t[i] + w[i] for i in range(4))
        for (k0, k1, k2, k3), c in chi_p1(
                ap - a + wa, bp - b + wb).terms.items():
            key = (k0 + s0, k1 + s1, k2 + s2, k3 + s3)
            total[key] = total.get(key, 0) + sign * c
    # weights that cancel are dropped here; the order of the rest reaches no
    # report, since rf_sum and str sort the forms they meet
    return _kclass({w: c for w, c in total.items() if c})


# chi_pair of two runs per (ambient, a' - a, b' - b, twist' - twist, n, n'):
# one entry serves every translate, KClass arithmetic never changes one, and
# the entries share one tuple per weight (_WEIGHTS)
_PAIRINGS = {}
_WEIGHTS = {}


def _fill(key):
    """The _PAIRINGS entry of key from the one of its line pair L, L' t3^-d2
    (n = n' = 1, by chi_pair): L t3^j against L' t3^j' twists it by
    t3^(d2 + s), s = j' - j, which min(n, n' - s) - max(0, -s) pairs have."""
    ambient, da, db, d0, d1, d2, d3, n, np = key
    line = (ambient, da, db, d0, d1, 0, d3, 1, 1)
    if key == line:
        terms = chi_pair(O_P1, EquivLineBundle(da, db, (d0, d1, 0, d3)),
                         ambient).terms
    else:
        terms = (_PAIRINGS.get(line) or _fill(line)).terms
    total = {}
    for s in range(1 - n, np):
        m = min(n, np - s) - max(0, -s)
        for (w0, w1, w2, w3), c in terms.items():
            w = (w0, w1, w2 + d2 + s, w3)
            total[w] = total.get(w, 0) + m * c
    v = _PAIRINGS[key] = _kclass(
        {_WEIGHTS.setdefault(w, w): c for w, c in total.items() if c})
    return v


def _pairings(F, ambient):
    """The table entries that sum to chi_ambient(F, F), one per ordered
    pair of F's runs."""
    entries = []
    for (a, b, (t0, t1, t2, t3)), n in F:
        for (ap, bp, (u0, u1, u2, u3)), np in F:
            key = (ambient, ap - a, bp - b,
                   u0 - t0, u1 - t1, u2 - t2, u3 - t3, n, np)
            entries.append(_PAIRINGS.get(key) or _fill(key))
    return entries


def _summed(entries):
    total = {}
    for v in entries:
        for w, c in v.terms.items():
            total[w] = total.get(w, 0) + c
    return _kclass({w: c for w, c in total.items() if c})


def sqrt_class(F):
    """Half Ext-class -chi_X(F) + chi_Y(F, F)."""
    return -chi_X(F) + _summed(_pairings(F, "Y3fold"))


def chiZ_class(F):
    """Reduced pair class on the 3-fold Z: chi_Z(F,F) - chi_Z(F) + chi_Z(F)^v t3."""
    cx = chi_X(F)
    return _summed(_pairings(F, "Z3fold")) - cx + cx.dual().twist((0, 0, 1, 0))


def taut_class(F):
    """Insertion class chi_X(F)^dual tensored with e^m."""
    return chi_X(F).dual().twist((0, 0, 0, 1))


def _zero_mult(entries, cx):
    """Multiplicity of the zero weight in sqrt_class(F) + taut_class(F), from
    the entries of _pairings(F, "Y3fold") and cx = chi_X(F); the taut class
    has the zero weight where cx has (0, 0, 0, 1)."""
    return (sum(v.terms.get(ZERO_WEIGHT, 0) for v in entries)
            + cx.terms.get((0, 0, 0, 1), 0) - cx.zero_mult())


def with_point_sign(fp, value):
    """The fixed-point sign rule: (-1)^(chi + deg + sign_extra) * value."""
    return -value if (fp.chi + fp.deg + fp.sign_extra) % 2 else value


def contribution(fp):
    """Signed Euler-class contribution of one fixed point.

    (-1)^(chi + deg + sign_extra) e(sqrt_class + taut_class), which is
    e(sqrt_class) e(taut_class): the sqrt weights have m-weight 0 and the
    taut weights m-weight 1, so the two classes share no weight and no
    linear form.  It vanishes exactly when the square-root class has a
    positive zero-weight part.  That multiplicity is read off the pairing's
    table entries first, so a vanishing point sums no pairing and builds no
    class; a negative one reaches euler_class, which raises PoleAtZeroWeight.
    """
    F = fp.runs
    cx = chi_X(F)
    entries = _pairings(F, "Y3fold")
    if _zero_mult(entries, cx) > 0:
        return RatFun.zero()
    # -chi_X(F) + taut_class(F), as one dict
    v = {w: -c for w, c in cx.terms.items()}
    for (w1, w2, w3, wm), c in cx.terms.items():
        w = (-w1, -w2, -w3, 1 - wm)
        v[w] = v.get(w, 0) + c
    return with_point_sign(
        fp, euler_class(_summed(entries)
                        + _kclass({w: c for w, c in v.items() if c})))


# ---------------------------------------------------------------------------
# combinatorics


def compositions(d, parts):
    """All tuples of `parts` nonnegative integers summing to d, lex order.

    Stars and bars: the parts - 1 bars sit at positions b_1 < ... among
    d + parts - 1 places, the rest are the d stars, and part i counts the
    stars between bars i and i + 1.  itertools.combinations gives the bar
    positions in lex order, hence the tuples too, with no recursion, so a
    part count in the thousands is fine.  Zero parts sum to d iff d == 0.
    """
    if parts == 0:
        if d == 0:
            yield ()
        return
    places = d + parts - 1
    for bars in itertools.combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))


def _support_of(F):
    if not F:
        return ON_Y
    if all(n == 1 and L.twist[2] == 0 for L, n in F):
        return ON_Z
    return THICKENED


# ---------------------------------------------------------------------------
# classified fixed loci over the walls Lmm(k)


def _point(label, runs, chi, deg, sign_extra=0):
    return FixedPoint(label=label, runs=tuple(runs), chi=chi, deg=deg,
                      sign_extra=sign_extra, support=_support_of(runs))


def _comp_text(comp):
    return ",".join(map(str, comp))


def js_fixed_points(k, d):
    """Fixed pairs over the wall Lmm(k) with trivial reference object, one
    per composition of d into k parts (see _js_point)."""
    if k < 1 or d < 0:
        raise UnsupportedConfiguration(f"no JS fixed points at k={k}, d={d}")
    return [_js_point(k, comp) for comp in compositions(d, k)]


def _js_point(k, comp):
    """The JS point of the composition (d_0, ..., d_{k-1}): slot i's run is
    O((k-1-i) Zinf + i Z0) thickened d_i times, none where d_i = 0."""
    runs = [(L, di) for L, di in zip(_slots(k, ("OX", 0)), comp) if di]
    d = sum(comp)
    return _point(f"js:k={k},d={d},comp={_comp_text(comp)}", runs,
                  chi=k * d, deg=d)


def _i0_runs(i0):
    """Runs of the reference object I0: O_P1 thickened l times, where IP1
    is ("IP1", 1), and none for OX."""
    kind, l = i0
    if kind == "OX":
        return []
    if kind in ("IlP1", "IP1"):
        return [(O_P1, l)]
    raise UnsupportedConfiguration(f"unknown I0 {i0!r}")


def _parse_int(value, text):
    """int(value), or UnsupportedConfiguration naming the text it came from."""
    try:
        return int(value)
    except ValueError:
        raise UnsupportedConfiguration(
            f"bad integer {value!r} in {text!r}") from None


def parse_i0(text):
    if text == "OX":
        return ("OX", 0)
    if text == "IP1":
        return ("IP1", 1)
    if text.startswith("IlP1:"):
        l = _parse_int(text.split(":", 1)[1], text)
        if l < 1:
            raise UnsupportedConfiguration("IlP1 requires l >= 1")
        return ("IlP1", l)
    raise UnsupportedConfiguration(f"unknown I0 name {text!r}")


def i0_label(i0):
    kind, l = i0
    return f"IlP1:{l}" if kind == "IlP1" else kind


def check_wall_i0(k, i0):
    kind, _ = i0
    if kind == "OX":
        if k < 1:
            raise UnsupportedConfiguration("wall index must be >= 1")
    elif kind == "IlP1":
        if k != 2:
            raise UnsupportedConfiguration("IlP1 reference only classified on Lmm(2)")
    elif kind == "IP1":
        if k < 3:
            raise UnsupportedConfiguration("IP1 reference only classified for k >= 3")
    else:
        raise UnsupportedConfiguration(f"unknown I0 {i0!r}")


def fiber_plus(k, i0, d):
    """Fixed points on the plus side of the wall Lmm(k) over the given I0."""
    check_wall_i0(k, i0)
    return [_plus_point(k, i0, comp)
            for comp in compositions(d, len(_slots(k, i0)))]


@functools.cache
def _slots(k, i0):
    """The bundle that each part of a plus-side composition thickens, in the
    composition's order; over OX, the JS point's slots."""
    kind, l = i0
    if kind == "OX":
        return tuple(EquivLineBundle(i, k - 1 - i) for i in range(k))
    if kind == "IlP1":
        return (EquivLineBundle(0, 1, weight(w1=1)),
                EquivLineBundle(0, 1, weight(w2=1)),
                EquivLineBundle(0, 1, weight(w3=l)),
                EquivLineBundle(1, 0, weight(w3=l)))
    # IP1, k >= 3: parts d_1..d_{k-1}, e_1..e_{k-1}, f_0..f_{k-1}
    return tuple(EquivLineBundle(k - 1 - i, i, twist)
                 for twist, first in ((weight(w1=1), 1), (weight(w2=1), 1),
                                      (weight(w3=1), 0))
                 for i in range(first, k))


def _plus_point(k, i0, comp):
    """The plus-side point of a composition into len(_slots(k, i0)) parts;
    over OX it is the JS point."""
    kind, l = i0
    if kind == "OX":
        return _js_point(k, comp)
    runs = _i0_runs(i0) + [
        (L, di) for L, di in zip(_slots(k, i0), comp) if di]
    d = sum(comp)
    label = f"plus:Lmm{k},i0={i0_label(i0)},comp={_comp_text(comp)}"
    if kind == "IlP1":
        return _point(label, runs, chi=l + 2 * d, deg=l + d,
                      sign_extra=1 if comp[1] > 0 else 0)
    es = comp[k - 1: 2 * (k - 1)]
    return _point(label, runs, chi=1 + k * d, deg=1 + d,
                  sign_extra=sum(1 for e in es if e > 0))


def fiber_minus(k, i0, d):
    """Fixed points on the minus side of the wall Lmm(k) over the given I0."""
    check_wall_i0(k, i0)
    if i0[0] != "IP1":
        return [] if d > 0 else [_minus_point(k, i0, ())]
    return [_minus_point(k, i0, subset)
            for subset in itertools.combinations(range(1, k - 1), d)]


def _minus_point(k, i0, subset):
    """The minus-side point of an increasing subset of [1, k-2], which is
    empty but over IP1; there the extension class is recorded
    K-theoretically."""
    l = i0[1]
    runs = _i0_runs(i0) + [(EquivLineBundle(k - 1 - i, i), 1) for i in subset]
    label = f"minus:Lmm{k},i0={i0_label(i0)}"
    if subset:
        label += f",subset={_comp_text(subset)}"
    return _point(label, runs, chi=l + k * len(subset), deg=l + len(subset))


def i0_contribution(i0):
    """Contribution of the d=0 minus-side point for the reference object."""
    kind, _ = i0
    if kind == "OX":
        return RatFun.const(1)
    k = 2 if kind == "IlP1" else 3
    (point,) = fiber_minus(k, i0, 0)
    return contribution(point)


# ---------------------------------------------------------------------------
# the displayed degree-d product for l=1, wall Lmm(2)

_LAM = {
    1: (1, 0, 0, 0),
    2: (0, 1, 0, 0),
    3: (0, 0, 1, 0),
    4: (1, 1, 2, 0),
}


def _factor(lam3_mult, plus, minus):
    """Coefficients of lam3_mult * lam3 + lam_plus - lam_minus, or None when
    they all vanish."""
    c = tuple(lam3_mult * _LAM[3][i] + _LAM[plus][i] - _LAM[minus][i]
              for i in range(3))
    return (*c, 0) if any(c) else None


def example_term_l1_k2(d1, d2, d3, d4):
    """One quadruple's term of the closed degree-d product for l=1, k=2.

    Mechanical transcription of the displayed product with
    lam4 := lam1 + lam2 + 2 lam3; a vanishing numerator factor makes the
    term 0, a vanishing denominator factor raises PoleAtZeroWeight.
    """
    ds = {1: d1, 2: d2, 3: d3, 4: d4}
    d = d1 + d2 + d3 + d4
    pairs = []
    for i in range(1, 5):
        for kk in range(ds[i]):
            for j in range(1, 5):
                f = _factor(kk - ds[j], plus=i, minus=j)
                if f is None:
                    raise PoleAtZeroWeight(
                        f"denominator factor vanishes at i={i}, j={j}, k={kk}"
                    )
                pairs.append((f, -1))
            for j in (1, 2):
                f = _factor(kk - 1, plus=i, minus=j)
                if f is None:
                    return RatFun.zero()
                pairs.append((f, 1))
            for shifted in (False, True):
                # (m - k lam3 - lam_i), then the same shifted by lam1+lam2+lam3;
                # its m coefficient is 1, so it never vanishes
                c = [0, 0, 0, 1]
                for t in range(3):
                    c[t] -= kk * _LAM[3][t] + _LAM[i][t]
                    if shifted:
                        c[t] += _LAM[1][t] + _LAM[2][t] + _LAM[3][t]
                pairs.append((c, 1))
    return RatFun.from_forms(pairs, -1 if d % 2 else 1)


# ---------------------------------------------------------------------------
# fixed point labels


def _parse_ints(value, text):
    return tuple(_parse_int(x, text) for x in value.split(","))


def _check_comp(comp, parts, text):
    if len(comp) != parts or min(comp) < 0:
        raise UnsupportedConfiguration(
            f"not a composition into {parts} parts in {text!r}")


def parse_label(text):
    """Parse a fixed-point label back into the FixedPoint it names.

    The point is built from the label's fields alone, and its own label must
    read back as the text.  Any text that names no fixed point raises
    UnsupportedConfiguration.
    """
    head, _, rest = text.partition(":")
    fields = {}
    current = None
    for part in rest.split(","):
        if "=" in part:
            current, val = part.split("=", 1)
            fields[current] = val
        elif current is not None:
            fields[current] += "," + part
    if head == "js":
        k = _parse_int(fields.get("k", ""), text)
        comp = _parse_ints(fields.get("comp", ""), text)
        _check_comp(comp, k, text)
        fp = _js_point(k, comp)
    elif head in ("plus", "minus"):
        wall = rest.split(",", 1)[0]
        if not wall.startswith("Lmm"):
            raise UnsupportedConfiguration(f"unclassified wall in {text!r}")
        k = _parse_int(wall[3:], text)
        i0 = parse_i0(fields.get("i0", ""))
        check_wall_i0(k, i0)
        if head == "plus":
            comp = _parse_ints(fields.get("comp", ""), text)
            _check_comp(comp, len(_slots(k, i0)), text)
            fp = _plus_point(k, i0, comp)
        else:
            subset = (_parse_ints(fields["subset"], text)
                      if "subset" in fields else ())
            slots = range(1, k - 1) if i0[0] == "IP1" else ()
            if (any(i not in slots for i in subset)
                    or any(a >= b for a, b in zip(subset, subset[1:]))):
                raise UnsupportedConfiguration(
                    f"not an increasing subset of the slots in {text!r}")
            fp = _minus_point(k, i0, subset)
    else:
        raise UnsupportedConfiguration(f"bad label {text!r}")
    if fp.label != text:
        raise UnsupportedConfiguration(f"no such fixed point {text!r}")
    return fp
