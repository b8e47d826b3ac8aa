"""Stability plane of the framed conifold quiver.

The stability parameter is a pair Theta = (theta0, theta1) of rationals.
Walls come in six families of lines; between them the moduli of framed
representations is locally constant.  This module provides the wall/chamber
bookkeeping, the translation to the Z_t parametrisation, and exact linear
algebra checks on framed representations: the eight quiver relations,
cyclicity (closure of the framing vector), and stability certification for
representations carrying a multiplicity-free weight grading.

Matrix, framing and seed entries hold the invariant of the ratfun kernel
(`ratfun._coef`): an entry is an int whenever its value is integral and a
Fraction otherwise, never a float.  The 0/1 matrices of the usual checks so
stay in int arithmetic, and every pivot division is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .ratfun import DivisionByZero, _coef

FAMILIES = ("Lmm", "Lpm", "Lmp", "Lpp", "Linf_minus", "Linf_plus")


class NotMultiplicityFree(Exception):
    """The grading precondition for subset-enumeration stability fails."""


@dataclass(frozen=True)
class Theta:
    th0: Fraction
    th1: Fraction

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


def theta_to_zt(theta):
    """t = theta1 / (theta0 + theta1); undefined on the infinite wall."""
    s = theta.th0 + theta.th1
    if s == 0:
        raise DivisionByZero("theta0 + theta1 = 0")
    return theta.th1 / s


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


def _wall_at_integer(r, minus_side):
    """Wall label whose line is t = r (an integer) on the given side."""
    if r >= 1:
        return WallLabel("Lmm" if minus_side else "Lmp", r)
    return WallLabel("Lpm" if minus_side else "Lpp", -r)


def _index_ok(label, k_max):
    if label.family in ("Lmm", "Lmp"):
        return label.index <= k_max
    return label.index <= k_max - 1


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
    back inconclusive.
    """
    a, b = theta.th0, theta.th1
    if a == 0 and b == 0:
        return ClassifyResult("degenerate")
    if a + b == 0:
        fam = "Linf_minus" if a < b else "Linf_plus"
        return ClassifyResult("wall", wall=WallLabel(fam))
    if a > 0 and b > 0:
        return ClassifyResult("chamber", chamber="empty")
    if a < 0 and b < 0:
        return ClassifyResult("chamber", chamber="NC")
    r = b / (a + b)
    minus_side = a < b
    if r.denominator == 1:
        lab = _wall_at_integer(int(r), minus_side)
        if not _index_ok(lab, k_max):
            return ClassifyResult("inconclusive")
        return ClassifyResult("wall", wall=lab)
    f = r.numerator // r.denominator  # floor for Fractions
    lower = _wall_at_integer(f, minus_side)
    upper = _wall_at_integer(f + 1, minus_side)
    if not (_index_ok(lower, k_max) and _index_ok(upper, k_max)):
        return ClassifyResult("inconclusive")
    if a < 0 < b and a + b > 0:
        return ClassifyResult("chamber", chamber="Zt", lower=lower,
                              upper=upper, t=r, interval=(f, f + 1))
    return ClassifyResult("chamber", chamber="between", lower=lower,
                          upper=upper)


def dimvec_bookkeeping(n, d):
    """(chi, degree) -> dimension vector (d0, d1) = (n, n - d)."""
    return (n, n - d)


def dimvec_inverse(d0, d1):
    """Dimension vector -> (chi, degree) = (d0, d0 - d1)."""
    return (d0, d0 - d1)


def wall_object(label):
    """Destabilising object on a finite wall: (description, dimvec, flop).

    The dimension vector is read off the wall line A*theta0 + B*theta1 = 0
    as (A, B); the Lmp/Lpp walls are the flop-side mirrors of Lmm/Lpm.
    """
    if label.family.startswith("Linf"):
        raise ValueError("the infinite wall carries no finite destabiliser")
    k = label.index
    if label.family in ("Lmm", "Lmp"):
        desc = f"O_P1({k - 1})"
    else:
        desc = f"O_P1({-k - 1})[1]"
    return (desc, wall_line(label), label.family in ("Lmp", "Lpp"))


# ---------------------------------------------------------------------------
# Exact matrix helpers (maps stored as rows-of-target x cols-of-source).

def mat(rows):
    return tuple(tuple(_coef(x) for x in row) for row in rows)


def zero_mat(nrows, ncols):
    return tuple((0,) * ncols for _ in range(nrows))


def mat_mul(A, B):
    if not A or not B:
        return tuple(() if not B or not B[0] else (0,) * len(B[0])
                     for _ in A)
    cols = tuple(zip(*B))
    return tuple(tuple(_coef(sum(map(mul, row, col))) for col in cols)
                 for row in A)


def mat_vec(A, v):
    return tuple(_coef(sum(map(mul, row, v))) for row in A)


@dataclass(frozen=True)
class FramedRep:
    """Framed representation: V0, V1 with arrows a_i: V0->V1, b_i: V1->V0,
    loops c on V0 and dd on V1, a framing vector in V0, and an optional
    weight grading of the chosen bases."""

    dims: tuple
    a1: tuple
    a2: tuple
    b1: tuple
    b2: tuple
    c: tuple
    dd: tuple
    framing: tuple
    grading0: tuple | None = None
    grading1: tuple | None = None

    def __post_init__(self):
        d0, d1 = self.dims

        def shape(M, r, cdim):
            return len(M) == r and all(len(row) == cdim for row in M)

        for name, M, r, cdim in (("a1", self.a1, d1, d0), ("a2", self.a2, d1, d0),
                                 ("b1", self.b1, d0, d1), ("b2", self.b2, d0, d1),
                                 ("c", self.c, d0, d0), ("dd", self.dd, d1, d1)):
            if not shape(M, r, cdim):
                raise ValueError(f"matrix {name} has wrong shape")
        if len(self.framing) != d0:
            raise ValueError("framing vector has wrong length")
        if self.grading0 is not None and len(self.grading0) != d0:
            raise ValueError("grading0 has wrong length")
        if self.grading1 is not None and len(self.grading1) != d1:
            raise ValueError("grading1 has wrong length")

    @staticmethod
    def build(dims, a1=None, a2=None, b1=None, b2=None, c=None, dd=None,
              framing=None, grading0=None, grading1=None):
        d0, d1 = dims

        def m(M, r, cdim):
            return zero_mat(r, cdim) if M is None else mat(M)

        return FramedRep(
            dims=(d0, d1),
            a1=m(a1, d1, d0), a2=m(a2, d1, d0),
            b1=m(b1, d0, d1), b2=m(b2, d0, d1),
            c=m(c, d0, d0), dd=m(dd, d1, d1),
            framing=tuple(_coef(x) for x in
                          ((0,) * d0 if framing is None else framing)),
            grading0=grading0, grading1=grading1)

    def arrows(self):
        """(name, matrix, source space index, target space index)."""
        return (("a1", self.a1, 0, 1), ("a2", self.a2, 0, 1),
                ("b1", self.b1, 1, 0), ("b2", self.b2, 1, 0),
                ("c", self.c, 0, 0), ("dd", self.dd, 1, 1))


RELATIONS = (
    ("a2*b1*a1 = a1*b1*a2", lambda r: (mat_mul(r.a2, mat_mul(r.b1, r.a1)),
                                       mat_mul(r.a1, mat_mul(r.b1, r.a2)))),
    ("a2*b2*a1 = a1*b2*a2", lambda r: (mat_mul(r.a2, mat_mul(r.b2, r.a1)),
                                       mat_mul(r.a1, mat_mul(r.b2, r.a2)))),
    ("b2*a1*b1 = b1*a1*b2", lambda r: (mat_mul(r.b2, mat_mul(r.a1, r.b1)),
                                       mat_mul(r.b1, mat_mul(r.a1, r.b2)))),
    ("b2*a2*b1 = b1*a2*b2", lambda r: (mat_mul(r.b2, mat_mul(r.a2, r.b1)),
                                       mat_mul(r.b1, mat_mul(r.a2, r.b2)))),
    ("dd*a1 = a1*c", lambda r: (mat_mul(r.dd, r.a1), mat_mul(r.a1, r.c))),
    ("dd*a2 = a2*c", lambda r: (mat_mul(r.dd, r.a2), mat_mul(r.a2, r.c))),
    ("c*b1 = b1*dd", lambda r: (mat_mul(r.c, r.b1), mat_mul(r.b1, r.dd))),
    ("c*b2 = b2*dd", lambda r: (mat_mul(r.c, r.b2), mat_mul(r.b2, r.dd))),
)


def check_relations(rep):
    """Verify the eight quiver relations; returns ('pass', None) or
    ('fail', relation name) for the first violated relation."""
    for name, sides in RELATIONS:
        lhs, rhs = sides(rep)
        if lhs != rhs:
            return ("fail", name)
    return ("pass", None)


def _reduce_against(basis, vec):
    """Reduce vec against a row-echelon basis; return the residue."""
    v = list(vec)
    for piv, row in basis:
        if v[piv] != 0:
            coef = _coef(Fraction(v[piv], row[piv]))
            v = [_coef(x - coef * y) for x, y in zip(v, row)]
    return v


def _basis_insert(basis, vec):
    """Insert vec into the echelon basis; True if the span grew."""
    v = _reduce_against(basis, vec)
    for piv, x in enumerate(v):
        if x != 0:
            basis.append((piv, tuple(v)))
            return True
    return False


def subrep_closure(rep, seeds):
    """Smallest arrow-stable pair of subspaces containing the seed vectors.

    Seeds are (space, vector) pairs with space 0 or 1, each vector of that
    space's dimension.  Returns the dimension vector of the closure.
    """
    bases = ([], [])
    work = []
    for space, vec in seeds:
        vec = tuple(_coef(x) for x in vec)
        if len(vec) != rep.dims[space]:
            raise ValueError("seed vector has wrong length")
        if _basis_insert(bases[space], vec):
            work.append((space, vec))
    while work:
        space, vec = work.pop()
        for _, M, src, tgt in rep.arrows():
            if src != space:
                continue
            img = mat_vec(M, vec)
            if _basis_insert(bases[tgt], img):
                work.append((tgt, img))
    return (len(bases[0]), len(bases[1]))


def is_cyclic(rep):
    """True when the framing vector generates the whole representation."""
    return subrep_closure(rep, [(0, rep.framing)]) == rep.dims


def _check_graded_precondition(rep):
    """Multiplicity-free grading with arrows and framing mapping graded
    lines to graded lines, so that every subrepresentation is spanned by a
    subset of the graded basis."""
    if rep.grading0 is None or rep.grading1 is None:
        raise NotMultiplicityFree("representation carries no grading")
    if len(set(rep.grading0)) != len(rep.grading0) or \
            len(set(rep.grading1)) != len(rep.grading1):
        raise NotMultiplicityFree("a graded piece has dimension > 1")
    for name, M, _, _ in rep.arrows():
        for row in M:
            if sum(1 for x in row if x != 0) > 1:
                raise NotMultiplicityFree(f"arrow {name} merges graded lines")
        for j in range(len(M[0]) if M else 0):
            if sum(1 for row in M if row[j] != 0) > 1:
                raise NotMultiplicityFree(f"arrow {name} splits a graded line")
    if sum(1 for x in rep.framing if x != 0) > 1:
        raise NotMultiplicityFree("framing vector is not homogeneous")


def _arrow_closed_subsets(rep):
    """All (S0, S1) basis subsets closed under every arrow.

    Subsets are scanned as bitmasks: reach[src][tgt][m] is the bitmask of
    the target indices that the arrows src -> tgt send the source subset m
    to, so (m0, m1) is closed when reach[s][t][m_s] lies inside m_t for
    every pair of spaces.  Each index subset is made a frozenset once, up
    front, and only closed pairs are collected.
    """
    dims = rep.dims
    # reach of each single source index, then of every source bitmask
    single = [[[0] * dims[s] for _ in range(2)] for s in range(2)]
    for _, M, src, tgt in rep.arrows():
        row = single[src][tgt]
        for i, targets in enumerate(M):
            for j, x in enumerate(targets):
                if x != 0:
                    row[j] |= 1 << i
    reach = [[_mask_unions(single[s][t]) for t in range(2)] for s in range(2)]
    subsets = [[frozenset(i for i in range(d) if m >> i & 1)
                for m in range(1 << d)] for d in dims]
    out = []
    for m0 in range(1 << dims[0]):
        if reach[0][0][m0] & ~m0:
            continue
        r01 = reach[0][1][m0]
        for m1 in range(1 << dims[1]):
            if r01 & ~m1 or reach[1][1][m1] & ~m1 or reach[1][0][m1] & ~m0:
                continue
            out.append((subsets[0][m0], subsets[1][m1]))
    return out


def _mask_unions(single):
    """For every bitmask m over len(single) indices, the OR of single[j]
    over the bits j set in m."""
    out = [0]
    for bits in single:
        out += [x | bits for x in out]
    return out


def theta_value(theta, d0, d1):
    return theta.th0 * d0 + theta.th1 * d1


def _integral_theta(theta):
    """theta scaled by the lcm of the denominators of its coordinates.

    The scale is positive, so every theta_value keeps its sign and every
    comparison between two values keeps its outcome, ties included.
    """
    th0, th1 = Fraction(theta.th0), Fraction(theta.th1)
    scale = math.lcm(th0.denominator, th1.denominator)
    return Theta(th0.numerator * (scale // th0.denominator),
                 th1.numerator * (scale // th1.denominator))


def is_stable_graded(rep, theta):
    """Certify framed stability by exhaustive subrepresentation search.

    Requires the multiplicity-free grading precondition (checked; raises
    NotMultiplicityFree).  A subrepresentation without the framing must have
    Theta-value < 0; a proper subrepresentation containing the framing must
    have Theta-value < Theta(V).  Exact ties downgrade the verdict to
    semistable; a strict violation returns ('unstable', witness) with
    witness = (S0, S1, has_framing).  Candidates are scanned largest first.
    Values are compared for theta scaled to integer coordinates, in int
    arithmetic.
    """
    _check_graded_precondition(rep)
    theta = _integral_theta(theta)
    d0, d1 = rep.dims
    total = theta_value(theta, d0, d1)
    fsupp = frozenset(i for i, x in enumerate(rep.framing) if x != 0)
    subs = sorted(_arrow_closed_subsets(rep),
                  key=lambda s: (-(len(s[0]) + len(s[1])),
                                 sorted(s[0]), sorted(s[1])))
    tie = None
    for S0, S1 in subs:
        val = theta_value(theta, len(S0), len(S1))
        if S0 or S1:
            # unframed subrepresentation (V0', V1', 0)
            if val > 0:
                return ("unstable", (S0, S1, False))
            if val == 0 and tie is None:
                tie = (S0, S1, False)
        if fsupp <= S0 and (len(S0), len(S1)) != (d0, d1):
            # proper subrepresentation containing the framing
            if val > total:
                return ("unstable", (S0, S1, True))
            if val == total and tie is None:
                tie = (S0, S1, True)
    if tie is not None:
        return ("semistable", tie)
    return ("stable", None)
