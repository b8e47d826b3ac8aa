"""Stability plane of the framed conifold quiver.

The stability parameter is a pair Theta = (theta0, theta1) of rationals.
Walls come in six families of lines; between them the moduli of framed
representations is locally constant.  This module provides the wall/chamber
bookkeeping, the translation to the Z_t parametrisation, and exact linear
algebra checks on framed representations: the eight quiver relations,
cyclicity (closure of the framing vector), and stability certification for
representations carrying a multiplicity-free weight grading.

Theta coordinates may be int or Fraction; chambers and stability are
decided in ints.  Matrix, framing and seed entries hold the invariant of
the ratfun kernel (`ratfun._coef`): an entry is an int whenever its value
is integral and a Fraction otherwise, never a float.  A representation
holds each arrow once, as sparse columns built with its shape check; the
relations, the subrepresentation closure and the graded reach table all
read those columns, and graded stability scans bitmasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .ratfun import DivisionByZero, WallxError, _coef

FAMILIES = ("Lmm", "Lpm", "Lmp", "Lpp", "Linf_minus", "Linf_plus")


class NotMultiplicityFree(WallxError):
    """The grading precondition for subset-enumeration stability fails."""


@dataclass(frozen=True)
class Theta:
    th0: Fraction | int
    th1: Fraction | int

    @staticmethod
    def of(th0, th1):
        return Theta(Fraction(th0), Fraction(th1))

    def __str__(self):
        return f"({self.th0},{self.th1})"


@dataclass(frozen=True)
class WallLabel:
    family: str
    index: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown wall family {self.family!r}")
        if self.family.startswith("Linf"):
            if self.index is not None:
                raise ValueError("infinite walls carry no index")
        elif self.family in ("Lmm", "Lmp"):
            if self.index is None or self.index < 1:
                raise ValueError(f"{self.family} needs index >= 1")
        else:
            if self.index is None or self.index < 0:
                raise ValueError(f"{self.family} needs index >= 0")

    def __str__(self):
        if self.family == "Linf_minus":
            return "Linf-"
        if self.family == "Linf_plus":
            return "Linf+"
        return f"{self.family}:{self.index}"


_WALL_RE = re.compile(r"^(Lmm|Lpm|Lmp|Lpp):(\d+)$")


def parse_wall_label(text):
    text = text.strip()
    if text == "Linf-":
        return WallLabel("Linf_minus")
    if text == "Linf+":
        return WallLabel("Linf_plus")
    m = _WALL_RE.match(text)
    if not m:
        raise ValueError(f"bad wall label {text!r}")
    return WallLabel(m.group(1), int(m.group(2)))


def wall_line(label):
    """Coefficients (A, B) of the defining line A*theta0 + B*theta1 = 0."""
    if label.family.startswith("Linf"):
        return (1, 1)
    k = label.index
    if label.family in ("Lmm", "Lmp"):
        return (k, k - 1)
    return (k, k + 1)


def wall_halfplane(label):
    """Open half-plane the wall lives in: 'th0<th1' or 'th0>th1'."""
    return "th0<th1" if label.family in ("Lmm", "Lpm", "Linf_minus") else "th0>th1"


def walls_up_to(k_max):
    """All walls with index <= k_max, as (label, (A, B)) pairs.

    Lmm/Lmp are indexed from 1 and Lpm/Lpp from 0 (index k_max excluded for
    the latter so both families contribute k_max lines each), plus the two
    infinite walls theta0 + theta1 = 0.
    """
    out = []
    for fam in ("Lmm", "Lpm", "Linf_minus", "Lmp", "Lpp", "Linf_plus"):
        if fam.startswith("Linf"):
            labels = [WallLabel(fam)]
        elif fam in ("Lmm", "Lmp"):
            labels = [WallLabel(fam, k) for k in range(1, k_max + 1)]
        else:
            labels = [WallLabel(fam, k) for k in range(k_max)]
        out.extend((lab, wall_line(lab)) for lab in labels)
    return out


def _scaled(theta):
    """Integers (x, y): theta times the product of its coordinates'
    denominators, which keeps every sign, order and ratio."""
    a, b = theta.th0, theta.th1
    return a.numerator * b.denominator, b.numerator * a.denominator


def theta_to_zt(theta):
    """t = theta1 / (theta0 + theta1), a Fraction; undefined on Linf."""
    x, y = _scaled(theta)
    if x + y == 0:
        raise DivisionByZero("theta0 + theta1 = 0")
    return Fraction(y, x + y)


@dataclass(frozen=True)
class ClassifyResult:
    kind: str  # "wall" | "chamber" | "inconclusive" | "degenerate"
    wall: WallLabel | None = None
    chamber: str | None = None
    lower: WallLabel | None = None
    upper: WallLabel | None = None
    t: Fraction | None = None
    interval: tuple | None = None

    def __str__(self):
        if self.kind == "wall":
            return f"on_wall {self.wall}"
        if self.kind == "degenerate":
            return "degenerate (origin)"
        if self.kind == "inconclusive":
            return "inconclusive (beyond kmax resolution)"
        if self.chamber in ("empty", "NC"):
            return f"chamber {self.chamber}"
        if self.chamber == "Zt":
            return (f"chamber Zt t={self.t} in "
                    f"({self.interval[0]},{self.interval[1]}) "
                    f"between {self.lower} and {self.upper}")
        return f"chamber between {self.lower} and {self.upper}"


@cache
def _wall_at_integer(r, minus_side):
    """Wall label whose line is t = r (an integer) on the given side; one
    shared (frozen) label per (r, minus_side)."""
    if r >= 1:
        return WallLabel("Lmm" if minus_side else "Lmp", r)
    return WallLabel("Lpm" if minus_side else "Lpp", -r)


def classify_theta(theta, k_max=10):
    """Locate theta exactly among the walls with index <= k_max.

    Every wall line other than theta0 + theta1 = 0 is t = integer in the
    parameter t = theta1/(theta0+theta1): positive integers m give the
    Lmm/Lmp family and -k <= 0 gives Lpm/Lpp, with the family picked by the
    sign of theta0 - theta1.  Chambers in the quadrants theta0,theta1 > 0
    and < 0 are named empty and NC; in the mixed-sign regions the verdict is
    the bounding wall pair, with the Zt description added in the region
    theta0 < 0 < theta1, theta0 + theta1 > 0.  Points whose bounding walls
    have index beyond k_max (the accumulation at the infinite wall) come
    back inconclusive.  Every test reads x, y = `_scaled(theta)` and
    divmod(y, x + y), the floor of t and whether t is integral.
    """
    x, y = _scaled(theta)
    s = x + y
    if s == 0:
        if x == 0:
            return ClassifyResult("degenerate")
        fam = "Linf_minus" if x < y else "Linf_plus"
        return ClassifyResult("wall", wall=WallLabel(fam))
    if x > 0 and y > 0:
        return ClassifyResult("chamber", chamber="empty")
    if x < 0 and y < 0:
        return ClassifyResult("chamber", chamber="NC")
    f, rem = divmod(y, s)
    minus_side = x < y
    # t = r is a wall of index <= k_max exactly when 1 - k_max <= r <= k_max
    if rem == 0:
        if not 1 - k_max <= f <= k_max:
            return ClassifyResult("inconclusive")
        return ClassifyResult("wall", wall=_wall_at_integer(f, minus_side))
    if not 1 - k_max <= f < k_max:
        return ClassifyResult("inconclusive")
    lower = _wall_at_integer(f, minus_side)
    upper = _wall_at_integer(f + 1, minus_side)
    if x < 0 < y and s > 0:
        return ClassifyResult("chamber", chamber="Zt", lower=lower,
                              upper=upper, t=Fraction(y, s),
                              interval=(f, f + 1))
    return ClassifyResult("chamber", chamber="between", lower=lower,
                          upper=upper)


# ---------------------------------------------------------------------------
# Framed representations.  Each arrow is held once as sparse columns: column
# j of an arrow is {i: entry} over its nonzero entries, the image of the j-th
# basis vector of the source space.

# (name, source space index, target space index) of each arrow
ARROWS = (("a1", 0, 1), ("a2", 0, 1), ("b1", 1, 0), ("b2", 1, 0),
          ("c", 0, 0), ("dd", 1, 1))


@dataclass(frozen=True)
class FramedRep:
    """Framed representation: V0, V1 with arrows a_i: V0->V1, b_i: V1->V0,
    loops c on V0 and dd on V1, a framing vector in V0, and an optional
    weight grading of the chosen bases.  cols[name][j] holds the nonzero
    entries {i: entry} of column j of the arrow name."""

    dims: tuple
    cols: dict
    framing: tuple
    grading0: tuple | None = None
    grading1: tuple | None = None

    @staticmethod
    def build(dims, a1=None, a2=None, b1=None, b2=None, c=None, dd=None,
              framing=None, grading0=None, grading1=None):
        """A rep from arrows given as rows of the target by columns of the
        source (None for the zero map, whose rows are not walked).  One pass
        over every given row checks its length, applies `_coef` to each entry
        and keeps the nonzero ones; an entry `_coef` rejects raises before
        any shape error."""
        d0, d1 = dims
        cols, wrong = {}, None
        for (name, src, tgt), M in zip(ARROWS, (a1, a2, b1, b2, c, dd)):
            n = dims[src]
            cols[name] = col = [{} for _ in range(n)]
            if M is None:
                # the zero map: no entries to check, and rows of n zeros,
                # which a negative count of rows or columns cannot give
                rows = dims[tgt]
                if rows < 0 or rows and n < 0:
                    wrong = wrong or name
                continue
            i = -1
            for i, row in enumerate(M):
                if type(row) is not list:
                    row = list(row)
                if len(row) != n:
                    wrong = wrong or name
                    for x in row:
                        _coef(x)
                    continue
                for j, x in enumerate(row):
                    if type(x) is not int:
                        x = _coef(x)
                    if x:
                        col[j][i] = x
            if i + 1 != dims[tgt]:
                wrong = wrong or name
        framing = tuple([_coef(x) for x in
                         ((0,) * d0 if framing is None else framing)])
        if wrong:
            raise ValueError(f"matrix {wrong} has wrong shape")
        if len(framing) != d0:
            raise ValueError("framing vector has wrong length")
        if grading0 is not None and len(grading0) != d0:
            raise ValueError("grading0 has wrong length")
        if grading1 is not None and len(grading1) != d1:
            raise ValueError("grading1 has wrong length")
        return FramedRep((d0, d1), cols, framing, grading0, grading1)


# Each relation equates two words in the arrows, read as matrix products
# (the rightmost arrow acts first); _RELATION_WORDS lists each word's arrows
# in the order they act.
RELATIONS = ("a2*b1*a1 = a1*b1*a2", "a2*b2*a1 = a1*b2*a2",
             "b2*a1*b1 = b1*a1*b2", "b2*a2*b1 = b1*a2*b2",
             "dd*a1 = a1*c", "dd*a2 = a2*c", "c*b1 = b1*dd", "c*b2 = b2*dd")
_RELATION_WORDS = tuple(
    (name, *(side.split("*")[::-1] for side in name.split(" = ")))
    for name in RELATIONS)


def _word_image(cols, word, j):
    """Image {index: entry} of the j-th basis vector under the arrows of
    word, in order; an entry may be a 0 left by cancellation."""
    v = cols[word[0]][j]
    for name in word[1:]:
        col, w = cols[name], {}
        for k, x in v.items():
            for i, e in col[k].items():
                w[i] = w.get(i, 0) + x * e
        v = w
    return v


def check_relations(rep):
    """Verify the eight quiver relations; returns ('pass', None) or
    ('fail', relation name) for the first violated relation.

    A relation holds when its two words send every basis vector of their
    source space to one image; it holds at once when each word passes
    through an arrow with no nonzero entry.
    """
    cols = rep.cols
    zero = {name for name, col in cols.items() if not any(col)}
    for name, lhs, rhs in _RELATION_WORDS:
        if not (zero.isdisjoint(lhs) or zero.isdisjoint(rhs)):
            continue  # both words are the zero map
        for j in range(len(cols[lhs[0]])):
            left, right = _word_image(cols, lhs, j), _word_image(cols, rhs, j)
            # a mismatch counts unless only entries that cancelled to 0 differ
            if left != right and any(x for _, x in left.items() ^ right.items()):
                return ("fail", name)
    return ("pass", None)


def _reduce_against(basis, vec):
    """Reduce vec against a row-echelon basis with pivots 1; return the
    residue."""
    v = list(vec)
    for piv, row in basis:
        x = v[piv]
        if x:
            v = [y - x * z for y, z in zip(v, row)]
    return v


def _basis_insert(basis, vec):
    """Insert vec, divided by its pivot, into the echelon basis; True if the
    span grew."""
    v = _reduce_against(basis, vec)
    for piv, x in enumerate(v):
        if x:
            if x != 1:
                v = [_coef(Fraction(y, x)) for y in v]
            basis.append((piv, tuple(v)))
            return True
    return False


# the (arrow name, target space) of the arrows leaving each space
_OUTGOING = tuple(tuple((name, tgt) for name, src, tgt in ARROWS if src == s)
                  for s in (0, 1))


def subrep_closure(rep, seeds):
    """Smallest arrow-stable pair of subspaces containing the seed vectors.

    Seeds are (space, vector) pairs with space 0 or 1, each vector of that
    space's dimension.  Returns the dimension vector of the closure.
    """
    dims, cols = rep.dims, rep.cols
    bases = ([], [])
    work = []
    for space, vec in seeds:
        vec = tuple(_coef(x) for x in vec)
        if len(vec) != dims[space]:
            raise ValueError("seed vector has wrong length")
        if _basis_insert(bases[space], vec):
            work.append((space, vec))
    while work:
        space, vec = work.pop()
        for name, tgt in _OUTGOING[space]:
            img = [0] * dims[tgt]
            for x, col in zip(vec, cols[name]):
                if x:
                    for i, e in col.items():
                        img[i] += x * e
            if any(img) and _basis_insert(bases[tgt], img):
                work.append((tgt, img))
    return (len(bases[0]), len(bases[1]))


def is_cyclic(rep):
    """True when the framing vector generates the whole representation."""
    return subrep_closure(rep, [(0, rep.framing)]) == rep.dims


# A basis subset of a d-dimensional space is a bitmask with index i at bit
# d - 1 - i.  In the order of sorted index lists the empty subset is then at
# place 0 and a nonempty m at (1 << d) + popcount(m) - m - lowbit(m).
def _order_place(m, d):
    return (1 << d) + m.bit_count() - m - (m & -m) if m else 0


@cache
def _subset(m, d):
    """The basis subset of the bitmask m, as a frozenset of indices."""
    return frozenset(i for i in range(d) if m >> (d - 1 - i) & 1)


@cache
def _masks_in_order(d):
    """The bitmasks of the basis subsets of a d-dimensional space, in the
    order of their sorted index lists."""
    return sorted(range(1 << d), key=lambda m: _order_place(m, d))


def _graded_reach(rep):
    """reach[b]: bitmask of the basis vectors that the arrows send basis
    vector b to, in one bit space of V0 and V1: index i of V0 at bit
    d0 + d1 - 1 - i, index i of V1 at bit d1 - 1 - i.  A basis subset m
    spans a subrepresentation when the union of reach[b] over its bits b
    lies inside m.  The same pass checks the multiplicity-free grading,
    with arrows and framing mapping graded lines to graded lines, so that
    every subrepresentation is spanned by basis subsets (raises
    NotMultiplicityFree)."""
    if rep.grading0 is None or rep.grading1 is None:
        raise NotMultiplicityFree("representation carries no grading")
    if len(set(rep.grading0)) != len(rep.grading0) or \
            len(set(rep.grading1)) != len(rep.grading1):
        raise NotMultiplicityFree("a graded piece has dimension > 1")
    d0, d1 = rep.dims
    top = (d0 + d1 - 1, d1 - 1)  # the bit of index 0 of each space
    reach = [0] * (d0 + d1)
    for name, src, tgt in ARROWS:
        at, to = top[src], top[tgt]
        seen = merged = split = 0  # target bits met, and those met twice
        for j, col in enumerate(rep.cols[name]):
            hit = 0  # the bits of this column's target indices
            for i in col:
                hit |= 1 << to - i
            merged |= seen & hit
            seen |= hit
            split |= len(col) > 1
            reach[at - j] |= hit
        if merged:
            raise NotMultiplicityFree(f"arrow {name} merges graded lines")
        if split:
            raise NotMultiplicityFree(f"arrow {name} splits a graded line")
    if sum(map(bool, rep.framing)) > 1:
        raise NotMultiplicityFree("framing vector is not homogeneous")
    return reach


def is_stable_graded(rep, theta):
    """Certify framed stability by exhaustive subrepresentation search.

    Requires the multiplicity-free grading precondition (checked; raises
    NotMultiplicityFree).  A subrepresentation without the framing must have
    Theta-value < 0; a proper subrepresentation containing the framing must
    have Theta-value < Theta(V).  Exact ties downgrade the verdict to
    semistable; a strict violation returns ('unstable', witness) with
    witness = (S0, S1, has_framing): the least violation, else the least
    tie, by (-|S0|-|S1|, sorted S0, sorted S1, has_framing).  One scan over
    the arrow-closed bitmasks m = m0 << d1 | m1 of `_graded_reach`'s bit
    space, in the order of (sorted S0, sorted S1), keeps the least
    candidate, with values in ints for theta scaled to integer
    coordinates.
    """
    unions = [0]  # unions[m]: the OR of reach[b] over the bits b of m
    for bits in _graded_reach(rep):
        unions += [u | bits for u in unions]
    x, y = _scaled(theta)
    d0, d1 = rep.dims
    total, low = x * d0 + y * d1, (1 << d1) - 1
    fmask = sum(1 << (d0 - 1 - i) for i, v in enumerate(rep.framing) if v)
    best = None  # ((is a tie, -size), m0, m1, has_framing) of the least
    for m0 in _masks_in_order(d0):
        n0 = m0.bit_count()
        high, v0, framing_in = m0 << d1, x * n0, not fmask & ~m0
        for m1 in _masks_in_order(d1):
            m = high | m1
            if unions[m] & ~m:
                continue
            n1 = m1.bit_count()
            val = v0 + y * n1
            # an unframed subrepresentation (V0', V1', 0), and a proper
            # subrepresentation containing the framing: of the two, the
            # framed one only when it is a violation and the unframed one a
            # tie
            unframed = val >= 0 and m
            framed = val >= total and framing_in and n0 + n1 < d0 + d1
            if not (unframed or framed):
                continue
            has_framing = framed and (not unframed or val == 0 != total)
            head = (val == total if has_framing else val == 0, -n0 - n1)
            # the scan runs in the order of (sorted S0, sorted S1), so the
            # first candidate of the least head is the least candidate
            if best is None or head < best[0]:
                best = (head, m0, m1, has_framing)
    if best is None:
        return ("stable", None)
    (tie, _), m0, m1, has_framing = best
    S0, S1 = _subset(m0, d0), _subset(m1, d1)
    return ("semistable" if tie else "unstable", (S0, S1, has_framing))
