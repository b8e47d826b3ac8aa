"""Stability-plane geometry and exact framed-representation checks."""

import itertools
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from wallx import quiver
from wallx.quiver import (
    ClassifyResult,
    FramedRep,
    NotMultiplicityFree,
    Theta,
    WallLabel,
    _graded_reach,
    check_relations,
    classify_theta,
    is_cyclic,
    is_stable_graded,
    parse_wall_label,
    subrep_closure,
    theta_to_zt,
    wall_halfplane,
    wall_line,
    walls_up_to,
)
from wallx.ratfun import DivisionByZero, _coef


def test_wall_label_text_round_trip():
    for text in ["Lmm:1", "Lpm:0", "Lmp:4", "Lpp:2", "Linf-", "Linf+"]:
        assert str(parse_wall_label(text)) == text
    with pytest.raises(ValueError):
        parse_wall_label("Lxx:1")
    with pytest.raises(ValueError):
        WallLabel("Lmm", 0)


def test_classifier_shares_one_valid_label_per_wall():
    # classify_theta hands out one cached label per wall; each one is a
    # label the text parser builds and validates afresh
    for r in range(-12, 13):
        for minus_side in (True, False):
            label = quiver._wall_at_integer(r, minus_side)
            assert label is quiver._wall_at_integer(r, minus_side)
            assert label == parse_wall_label(str(label))
    a = classify_theta(Theta.of(-2, 3)).wall
    b = classify_theta(Theta.of(-4, 6)).wall
    assert a is b and a == parse_wall_label("Lmm:3")


def test_walls_up_to_counts_and_lines():
    ws = walls_up_to(3)
    assert len(ws) == 14
    table = {str(lab): line for lab, line in ws}
    assert table["Lmm:1"] == (1, 0)
    assert table["Lmm:2"] == (2, 1)
    assert table["Linf-"] == (1, 1)
    assert table["Lpm:0"] == (0, 1)
    assert wall_halfplane(parse_wall_label("Lmm:2")) == "th0<th1"
    assert wall_halfplane(parse_wall_label("Lmp:2")) == "th0>th1"


def test_classify_named_chambers():
    assert classify_theta(Theta.of(1, 1)).chamber == "empty"
    assert classify_theta(Theta.of(-1, -1)).chamber == "NC"
    assert classify_theta(Theta.of(0, 0)).kind == "degenerate"


def test_classify_on_wall():
    res = classify_theta(Theta.of(Fraction(-5, 2), 3))
    assert res.kind == "wall" and str(res.wall) == "Lmm:6"
    res = classify_theta(Theta.of(-1, 1))
    assert str(res.wall) == "Linf-"
    res = classify_theta(Theta.of(1, -1))
    assert str(res.wall) == "Linf+"


def test_classify_zt_chamber():
    res = classify_theta(Theta.of(Fraction(-17, 20), 1))
    assert res.chamber == "Zt"
    assert res.t == Fraction(20, 3)
    assert res.interval == (6, 7)
    assert str(res.lower) == "Lmm:6" and str(res.upper) == "Lmm:7"


def test_classify_inconclusive_near_accumulation():
    res = classify_theta(Theta.of(Fraction(-999, 1000), 1), k_max=5)
    assert res.kind == "inconclusive"


def test_classify_locally_constant_off_walls():
    base = Theta.of(Fraction(-17, 20), 1)
    eps = Fraction(1, 10**6)
    ref = classify_theta(base)
    for d0 in (-eps, 0, eps):
        for d1 in (-eps, 0, eps):
            got = classify_theta(Theta(base.th0 + d0, base.th1 + d1))
            assert (got.chamber, got.interval) == (ref.chamber, ref.interval)


def test_theta_to_zt():
    assert theta_to_zt(Theta.of(Fraction(-17, 20), 1)) == Fraction(20, 3)
    with pytest.raises(DivisionByZero):
        theta_to_zt(Theta.of(-1, 1))
    with pytest.raises(DivisionByZero):
        theta_to_zt(Theta(-1, 1))


def test_int_coordinates_give_the_fraction_results():
    # int / int is a float, so int coordinates must never be divided
    t = theta_to_zt(Theta(1, 2))
    assert t == Fraction(2, 3) and type(t) is Fraction
    t = theta_to_zt(Theta(-3, 6))
    assert t == 2 and type(t) is Fraction
    assert str(classify_theta(Theta(1, -3))) == "chamber between Lmp:1 and Lmp:2"
    assert str(classify_theta(Theta(-2, 3))) == "on_wall Lmm:3"
    res = classify_theta(Theta(-17, 20))
    assert res.t == Fraction(20, 3) and type(res.t) is Fraction
    for i in range(-12, 13):
        for j in range(-12, 13):
            for k_max in (0, 1, 5):
                assert classify_theta(Theta(i, j), k_max) == \
                    classify_theta(Theta.of(i, j), k_max)


def test_theta_to_zt_integer_on_walls():
    for m in range(1, 6):
        lab = WallLabel("Lmm", m)
        a, b = wall_line(lab)
        # a point on the line a*th0 + b*th1 = 0
        th = Theta.of(Fraction(-b), Fraction(a))
        assert theta_to_zt(th) == m


# ---------------------------------------------------------------------------
# framed representations


def _dense(rep):
    """Dense view of the arrows of rep: name -> rows of the target by
    columns of the source, 0 where a column holds no entry."""
    return {name: tuple(tuple(col.get(i, 0) for col in rep.cols[name])
                        for i in range(rep.dims[tgt]))
            for name, _, tgt in quiver.ARROWS}


def test_relations_trivial_cases():
    assert check_relations(FramedRep.build((1, 1)))[0] == "pass"
    assert check_relations(FramedRep.build((1, 1), a1=[[1]]))[0] == "pass"
    verdict, witness = check_relations(
        FramedRep.build((1, 1), a1=[[1]], c=[[1]]))
    assert verdict == "fail" and witness == "dd*a1 = a1*c"


def test_relations_shape_validation():
    with pytest.raises(ValueError):
        FramedRep.build((2, 1), a1=[[1]])
    # an arrow left out is the zero map of its shape, which no negative
    # dimension has
    for dims, name in (((1, -1), "a1"), ((-1, 1), "a1"), ((-2, 0), "b1")):
        with pytest.raises(ValueError, match=f"matrix {name} has wrong shape"):
            FramedRep.build(dims)


def test_empty_framing_list_is_rejected():
    with pytest.raises(ValueError):
        FramedRep.build((2, 0), framing=[])
    assert FramedRep.build((2, 0)).framing == (0, 0)


def test_subrep_closure_monotone_and_idempotent():
    rep = FramedRep.build((2, 2), a1=[[1, 0], [0, 0]], framing=[1, 0])
    small = subrep_closure(rep, [(0, (1, 0))])
    big = subrep_closure(rep, [(0, (1, 0)), (0, (0, 1))])
    assert small == (1, 1)
    assert big == (2, 1)
    assert small <= big
    with pytest.raises(ValueError):
        subrep_closure(rep, [(0, (1,)), (0, (1, 1))])


def test_cyclicity_examples():
    assert is_cyclic(FramedRep.build((1, 0), framing=[1]))
    assert is_cyclic(FramedRep.build((1, 1), a1=[[1]], framing=[1]))
    assert not is_cyclic(FramedRep.build((1, 1), b1=[[1]], framing=[1]))
    assert not is_cyclic(FramedRep.build((1, 0), framing=[0]))


def test_stability_small_examples():
    g = dict(grading0=(0,), grading1=(5,))
    stable = FramedRep.build((1, 0), framing=[1], grading0=(0,), grading1=())
    assert is_stable_graded(stable, Theta.of(-1, -1))[0] == "stable"

    positive = FramedRep.build((1, 1), a1=[[1]], framing=[1], **g)
    verdict, witness = is_stable_graded(positive, Theta.of(1, 1))
    assert verdict == "unstable"
    # the first violation scanned is the full unframed subrepresentation
    assert (len(witness[0]), len(witness[1]), witness[2]) == (1, 1, False)

    noncyclic = FramedRep.build((1, 1), b1=[[1]], framing=[1], **g)
    assert is_stable_graded(noncyclic, Theta.of(-1, -1))[0] == "unstable"


def test_stability_tie_is_semistable():
    # an unframed subrepresentation of value exactly zero
    g = dict(grading0=(0,), grading1=(5,))
    rep = FramedRep.build((1, 1), a1=[[1]], framing=[1], **g)
    verdict, witness = is_stable_graded(rep, Theta.of(1, -1))
    assert verdict == "semistable"
    assert witness[2] is False and (len(witness[0]), len(witness[1])) == (1, 1)


def test_stability_grading_preconditions():
    with pytest.raises(NotMultiplicityFree):
        is_stable_graded(FramedRep.build((1, 0), framing=[1]),
                         Theta.of(-1, -1))
    with pytest.raises(NotMultiplicityFree):
        is_stable_graded(
            FramedRep.build((2, 0), framing=[1, 0],
                            grading0=(0, 0), grading1=()),
            Theta.of(-1, -1))
    with pytest.raises(NotMultiplicityFree):
        # framing supported on two graded lines
        is_stable_graded(
            FramedRep.build((2, 0), framing=[1, 1],
                            grading0=(0, 1), grading1=()),
            Theta.of(-1, -1))
    with pytest.raises(NotMultiplicityFree):
        # an arrow merging two graded lines
        is_stable_graded(
            FramedRep.build((2, 1), a1=[[1, 1]], framing=[1, 0],
                            grading0=(0, 1), grading1=(5,)),
            Theta.of(-1, -1))


# ---------------------------------------------------------------------------
# exactness of the integer/Fraction kernel


def _stored(rep):
    return [x for cols in rep.cols.values() for col in cols
            for x in col.values()]


def test_matrix_entries_are_int_or_fraction():
    rep = FramedRep.build((3, 2), a1=[[1, Fraction(4, 2), Fraction(1, 2)],
                                      [0.5, "3/3", -2]])
    assert rep.cols["a1"] == [{0: 1, 1: Fraction(1, 2)}, {0: 2, 1: 1},
                              {0: Fraction(1, 2), 1: -2}]
    assert [type(x) for col in rep.cols["a1"] for x in col.values()] == \
        [int, Fraction, int, int, Fraction, int]
    half = FramedRep.build((2, 2), c=[[Fraction(1, 2), Fraction(3, 2)],
                                      [Fraction(6, 3), "1/3"]])
    assert [type(x) for x in _stored(half)] == [Fraction, int, Fraction, Fraction]
    # every stored entry is a nonzero int or Fraction; zeros store nothing
    rep = FramedRep.build((2, 2), a1=[[0, 0.0], ["0", Fraction(0)]],
                          b2=[["-0", 0], [0.25, -3]], framing=[Fraction(2, 2), 0])
    assert rep.cols["a1"] == [{}, {}]
    assert all(type(x) in (int, Fraction) and x for x in _stored(rep))
    assert _stored(rep) == [Fraction(1, 4), -3]
    assert [type(x) for x in rep.framing] == [int, int]
    # an entry _coef rejects raises, even where its value would be falsy
    for bad in (None, ""):
        with pytest.raises((TypeError, ValueError)) as expected:
            _coef(bad)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            FramedRep.build((1, 1), dd=[[bad]])


def test_subrep_closure_exact_pivot_division():
    # (1, 7/3) is (3, 7) / 3; a float pivot quotient 1/3 would leave a
    # residue of about 4e-16 and report a two-dimensional span
    rep = FramedRep.build((2, 0))
    seeds = [(0, (3, 7)), (0, (1, Fraction(7, 3)))]
    assert subrep_closure(rep, seeds) == (1, 0)


def _scaled_monomial(rng, rows, cols, density=0.6):
    """At most one nonzero entry, from 1..3, in each row and column."""
    M = [[0] * cols for _ in range(rows)]
    free = list(range(rows))
    rng.shuffle(free)
    for j in rng.sample(range(cols), cols):
        if free and rng.random() < density:
            M[free.pop()][j] = rng.randint(1, 3)
    return M


def _int_mul(A, B, rows, cols):
    return [[sum(A[i][l] * B[l][j] for l in range(len(B)))
             for j in range(cols)] for i in range(rows)]


def _random_graded_arrows(rng, max_dim=3):
    """Dims up to max_dim and six monomial arrows; about a third satisfy the
    relations by construction (a1 = a2 = A, b1 = b2 = B, c = BA, dd = AB)."""
    d0, d1 = rng.randint(0, max_dim), rng.randint(0, max_dim)
    A, B = _scaled_monomial(rng, d1, d0), _scaled_monomial(rng, d0, d1)
    if rng.random() < 0.35:
        arrows = (A, A, B, B, _int_mul(B, A, d0, d0), _int_mul(A, B, d1, d1))
    else:
        arrows = (A, _scaled_monomial(rng, d1, d0), B,
                  _scaled_monomial(rng, d0, d1),
                  _scaled_monomial(rng, d0, d0, 0.3),
                  _scaled_monomial(rng, d1, d1, 0.3))
    return (d0, d1), arrows


def _verdicts(dims, arrows, framing, theta):
    d0, d1 = dims
    rep = FramedRep.build(dims, *arrows, framing=framing,
                          grading0=tuple(range(d0)),
                          grading1=tuple(range(100, 100 + d1)))
    return (check_relations(rep), is_cyclic(rep), is_stable_graded(rep, theta))


def test_verdicts_invariant_under_rescaling_every_arrow():
    # the relations are homogeneous and closures and supports ignore nonzero
    # scalars, so scaling every arrow by 2/3 changes no verdict or witness;
    # the scaled arrows hold Fraction entries, the originals int ones
    rng = random.Random(20261018)
    scale = Fraction(2, 3)
    seen = set()
    for _ in range(200):
        dims, arrows = _random_graded_arrows(rng)
        framing = [0] * dims[0]
        if dims[0] and rng.random() < 0.85:
            framing[rng.randrange(dims[0])] = rng.randint(1, 3)
        theta = Theta.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        scaled = tuple([[scale * x for x in row] for row in M] for M in arrows)
        ref = _verdicts(dims, arrows, framing, theta)
        assert _verdicts(dims, scaled, framing, theta) == ref
        seen.add((ref[0][0], ref[1], ref[2][0]))
    # both relation verdicts, both cyclicity verdicts, and every stability
    # verdict occur
    assert {v[0] for v in seen} == {"pass", "fail"}
    assert {v[1] for v in seen} == {True, False}
    assert {v[2] for v in seen} == {"stable", "semistable", "unstable"}


class _NoArithmetic(Fraction):
    """A Fraction whose arithmetic and comparisons raise: code that reads
    only its numerator and denominator can take it."""


def _refuse(self, *args):
    raise AssertionError("Fraction arithmetic on a theta coordinate")


for _op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow",
            "radd", "rsub", "rmul", "rtruediv", "rfloordiv", "rmod", "rpow",
            "eq", "ne", "lt", "le", "gt", "ge", "neg", "abs", "bool", "float"):
    setattr(_NoArithmetic, f"__{_op}__", _refuse)


def test_stability_compares_int_values_and_ignores_positive_theta_scale():
    # theta is scaled to integer coordinates before any value is compared:
    # the scan does no arithmetic on the Fraction coordinates, and a
    # positive scale keeps every sign and tie, so the verdict and witness
    # equal those of the unscaled Fraction comparison, for theta and for
    # its positive multiples
    rng = random.Random(5)
    kinds = set()
    for _ in range(200):
        dims, arrows = _random_graded_arrows(rng)
        framing = [0] * dims[0]
        if dims[0]:
            framing[rng.randrange(dims[0])] = 1
        theta = Theta.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quiver, "_scaled", lambda th: (th.th0, th.th1))
            ref = _verdicts(dims, arrows, framing, theta)[2]
        for scale in (1, Fraction(7, 5), 3, Fraction(1, 12)):
            scaled = Theta(_NoArithmetic(theta.th0 * scale),
                           _NoArithmetic(theta.th1 * scale))
            assert _verdicts(dims, arrows, framing, scaled)[2] == ref
        kinds.add(ref[0])
    assert kinds == {"stable", "semistable", "unstable"}


def _brute_closed_subsets(rep):
    d0, d1 = rep.dims
    dense = _dense(rep)
    out = []
    for S0, S1 in itertools.product(
            [frozenset(s) for r in range(d0 + 1)
             for s in itertools.combinations(range(d0), r)],
            [frozenset(s) for r in range(d1 + 1)
             for s in itertools.combinations(range(d1), r)]):
        sets = (S0, S1)
        if all(i in sets[tgt]
               for name, src, tgt in quiver.ARROWS
               for j in sets[src] for i, row in enumerate(dense[name])
               if row[j] != 0):
            out.append((S0, S1))
    return out


def _subset(m, d):
    """Basis subset of a bitmask of the stability scan (index i at bit
    d - 1 - i)."""
    return frozenset(i for i in range(d) if m >> (d - 1 - i) & 1)


def _graded(dims, arrows, framing=None):
    d0, d1 = dims
    return FramedRep.build(dims, *arrows, framing=framing,
                           grading0=tuple(range(d0)),
                           grading1=tuple(range(100, 100 + d1)))


def test_bitmask_places_follow_sorted_index_lists():
    for d in range(7):
        order = sorted(range(1 << d), key=lambda m: sorted(_subset(m, d)))
        assert [quiver._order_place(m, d) for m in order] == list(range(1 << d))


def test_arrow_closed_subsets_match_brute_force():
    # the one reach table of the stability scan admits exactly the masks
    # m = m0 << d1 | m1 whose subsets span a subrepresentation
    rng = random.Random(7)
    for _ in range(300):
        dims, arrows = _random_graded_arrows(rng)
        d0, d1 = dims
        rep = _graded(dims, arrows)
        reach = _graded_reach(rep)
        assert len(reach) == d0 + d1
        got = []
        for m in range(1 << (d0 + d1)):
            union = 0
            for b in range(d0 + d1):
                if m >> b & 1:
                    union |= reach[b]
            if not union & ~m:
                got.append((_subset(m >> d1, d0),
                            _subset(m & ((1 << d1) - 1), d1)))
        assert len(set(got)) == len(got)
        assert set(got) == set(_brute_closed_subsets(rep))


# ---------------------------------------------------------------------------
# the integer, sparse and bitmask kernels against copies of the Fraction,
# dense-product and sorted-candidate code they replaced


def _ref_classify_theta(theta, k_max=10):
    """classify_theta in Fraction arithmetic."""
    def wall_at(r, minus_side):
        if r >= 1:
            return WallLabel("Lmm" if minus_side else "Lmp", r)
        return WallLabel("Lpm" if minus_side else "Lpp", -r)

    def index_ok(label):
        if label.family in ("Lmm", "Lmp"):
            return label.index <= k_max
        return label.index <= k_max - 1

    a, b = Fraction(theta.th0), Fraction(theta.th1)
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
        lab = wall_at(int(r), minus_side)
        if not index_ok(lab):
            return ClassifyResult("inconclusive")
        return ClassifyResult("wall", wall=lab)
    f = r.numerator // r.denominator
    lower, upper = wall_at(f, minus_side), wall_at(f + 1, minus_side)
    if not (index_ok(lower) and index_ok(upper)):
        return ClassifyResult("inconclusive")
    if a < 0 < b and a + b > 0:
        return ClassifyResult("chamber", chamber="Zt", lower=lower,
                              upper=upper, t=r, interval=(f, f + 1))
    return ClassifyResult("chamber", chamber="between", lower=lower,
                          upper=upper)


def _branch_thetas(rng, count):
    """Thetas on both sides of every wall and in every chamber: theta =
    s * (1 - t, t) for a rational t and scale s, plus the infinite wall
    and the origin; an integral coordinate is an int half the time."""
    def coord(q):
        return int(q) if q.denominator == 1 and rng.random() < 0.5 else q

    for _ in range(count):
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 7))
        u = rng.random()
        if u < 0.05:
            th = (Fraction(0), Fraction(0))
        elif u < 0.15:
            th = (s, -s)
        else:
            t = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 5)))
            th = (s * (1 - t), s * t)
        yield Theta(coord(th[0]), coord(th[1]))


def test_classify_theta_matches_the_fraction_reference():
    rng = random.Random(19)
    reached = set()
    for theta in _branch_thetas(rng, 3000):
        for k_max in (0, 1, 2, 10):
            got = classify_theta(theta, k_max)
            assert repr(got) == repr(_ref_classify_theta(theta, k_max))
            reached.add((got.kind, got.chamber,
                         got.wall.family if got.wall else None))
    assert {kind for kind, _, _ in reached} == \
        {"degenerate", "wall", "chamber", "inconclusive"}
    assert {c for _, c, _ in reached} - {None} == \
        {"empty", "NC", "Zt", "between"}
    assert {fam for _, _, fam in reached} - {None} == set(quiver.FAMILIES)


_REF_RELATIONS = (
    ("a2*b1*a1 = a1*b1*a2", (("a2", "b1", "a1"), ("a1", "b1", "a2"))),
    ("a2*b2*a1 = a1*b2*a2", (("a2", "b2", "a1"), ("a1", "b2", "a2"))),
    ("b2*a1*b1 = b1*a1*b2", (("b2", "a1", "b1"), ("b1", "a1", "b2"))),
    ("b2*a2*b1 = b1*a2*b2", (("b2", "a2", "b1"), ("b1", "a2", "b2"))),
    ("dd*a1 = a1*c", (("dd", "a1"), ("a1", "c"))),
    ("dd*a2 = a2*c", (("dd", "a2"), ("a2", "c"))),
    ("c*b1 = b1*dd", (("c", "b1"), ("b1", "dd"))),
    ("c*b2 = b2*dd", (("c", "b2"), ("b2", "dd"))),
)


def _ref_mat_mul(A, B):
    if not A or not B:
        return tuple(() if not B or not B[0] else (0,) * len(B[0])
                     for _ in A)
    cols = tuple(zip(*B))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in A)


def _ref_check_relations(rep):
    """check_relations as dense matrix products of both words."""
    dense = _dense(rep)
    for name, words in _REF_RELATIONS:
        prods = []
        for word in words:
            out = dense[word[-1]]
            for arrow in reversed(word[:-1]):
                out = _ref_mat_mul(dense[arrow], out)
            prods.append(out)
        if prods[0] != prods[1]:
            return ("fail", name)
    return ("pass", None)


def _random_dense_arrows(rng):
    """Dense arrows with int and Fraction entries; half of them a family
    that satisfies every relation (a1 = a2 = A, b1 = b2 = B, c = BA,
    dd = AB), mostly with one entry of one arrow then moved."""
    d0, d1 = rng.randint(0, 3), rng.randint(0, 3)
    entries = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))

    def dense(rows, cols):
        return [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]

    shapes = ((d1, d0), (d1, d0), (d0, d1), (d0, d1), (d0, d0), (d1, d1))
    if rng.random() < 0.5:
        return (d0, d1), [dense(r, c) for r, c in shapes]
    A, B = dense(d1, d0), dense(d0, d1)
    arrows = [A, [row[:] for row in A], B, [row[:] for row in B],
              _int_mul(B, A, d0, d0), _int_mul(A, B, d1, d1)]
    k = rng.randrange(6)
    if arrows[k] and arrows[k][0] and rng.random() < 0.7:
        M = arrows[k]
        M[rng.randrange(len(M))][rng.randrange(len(M[0]))] += Fraction(1, 3)
    return (d0, d1), arrows


def test_check_relations_matches_dense_products():
    rng = random.Random(23)
    failed = set()
    for _ in range(1500):
        dims, arrows = _random_dense_arrows(rng)
        rep = FramedRep.build(dims, *arrows)
        got = check_relations(rep)
        assert got == _ref_check_relations(rep)
        failed.add(got[1])
    # every relation is the first to fail somewhere, and some reps pass
    assert failed == {None, *quiver.RELATIONS}
    # dd*a1 and a1*c agree only once the entries of dd*a1 cancel to 0
    A, B = [[1], [1]], [[1, -1]]
    rep = FramedRep.build((1, 2), A, A, B, B, _int_mul(B, A, 1, 1),
                          _int_mul(A, B, 2, 2))
    assert _dense(rep)["c"] == ((0,),) and check_relations(rep) == ("pass", None)


def _ref_graded_precondition(rep, dense=None):
    """The grading precondition scanned on dense rows (by default the dense
    view of rep's columns)."""
    if rep.grading0 is None or rep.grading1 is None:
        raise NotMultiplicityFree("representation carries no grading")
    if len(set(rep.grading0)) != len(rep.grading0) or \
            len(set(rep.grading1)) != len(rep.grading1):
        raise NotMultiplicityFree("a graded piece has dimension > 1")
    for name, M in (dense or _dense(rep)).items():
        for row in M:
            if sum(1 for x in row if x != 0) > 1:
                raise NotMultiplicityFree(f"arrow {name} merges graded lines")
        for j in range(len(M[0]) if M else 0):
            if sum(1 for row in M if row[j] != 0) > 1:
                raise NotMultiplicityFree(f"arrow {name} splits a graded line")
    if sum(1 for x in rep.framing if x != 0) > 1:
        raise NotMultiplicityFree("framing vector is not homogeneous")


def _ref_is_stable_graded(rep, theta):
    """is_stable_graded over the sorted list of closed subsets, with
    Fraction values."""
    _ref_graded_precondition(rep)
    th0, th1 = Fraction(theta.th0), Fraction(theta.th1)
    d0, d1 = rep.dims
    total = th0 * d0 + th1 * d1
    fsupp = frozenset(i for i, x in enumerate(rep.framing) if x != 0)
    subs = sorted(_brute_closed_subsets(rep),
                  key=lambda s: (-(len(s[0]) + len(s[1])),
                                 sorted(s[0]), sorted(s[1])))
    tie = None
    for S0, S1 in subs:
        val = th0 * len(S0) + th1 * len(S1)
        if S0 or S1:
            if val > 0:
                return ("unstable", (S0, S1, False))
            if val == 0 and tie is None:
                tie = (S0, S1, False)
        if fsupp <= S0 and (len(S0), len(S1)) != (d0, d1):
            if val > total:
                return ("unstable", (S0, S1, True))
            if val == total and tie is None:
                tie = (S0, S1, True)
    if tie is not None:
        return ("semistable", tie)
    return ("stable", None)


def test_stability_matches_the_sorted_candidate_reference():
    rng = random.Random(29)
    seen = set()
    for _ in range(1500):
        dims, arrows = _random_graded_arrows(rng)
        framing = [0] * dims[0]
        if dims[0] and rng.random() < 0.85:
            framing[rng.randrange(dims[0])] = rng.randint(1, 3)
        rep = _graded(dims, arrows, framing)
        # small coordinates, often zero or opposite, make many ties
        th = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
              for _ in range(2)]
        theta = Theta(*(int(x) if x.denominator == 1 else x for x in th))
        got = is_stable_graded(rep, theta)
        assert got == _ref_is_stable_graded(rep, theta)
        seen.add((got[0], got[1] and got[1][2]))
    assert seen == {("stable", None), ("semistable", False),
                    ("semistable", True), ("unstable", False),
                    ("unstable", True)}


def _ref_reach(dims, dense):
    """The reach of each basis vector read off dense rows, V0 index i at
    bit d0 + d1 - 1 - i and V1 index i at bit d1 - 1 - i."""
    d0, d1 = dims
    top = (d0 + d1 - 1, d1 - 1)
    reach = [0] * (d0 + d1)
    for name, src, tgt in quiver.ARROWS:
        for i, row in enumerate(dense[name]):
            for j, x in enumerate(row):
                if x != 0:
                    reach[top[src] - j] |= 1 << top[tgt] - i
    return reach


def _ref_mask_unions(single):
    out = [0]
    for bits in single:
        out += [x | bits for x in out]
    return out


def _ref_four_table_stability(rep, theta):
    """is_stable_graded as it scanned four reach tables reach[s][t][m]
    (V_s -> V_t, subsets m of V_s in a bit space of their own), the m0
    loop outside the loop over the r11-closed m1, with Fraction values."""
    _ref_graded_precondition(rep)
    d0, d1 = dims = rep.dims
    single = [[[0] * d0, [0] * d0], [[0] * d1, [0] * d1]]
    for name, src, tgt in quiver.ARROWS:
        bits, top = single[src][tgt], dims[tgt] - 1
        for j, col in enumerate(rep.cols[name]):
            for i in col:
                bits[-1 - j] |= 1 << top - i
    (r00, r01), (r10, r11) = [[_ref_mask_unions(single[s][t])
                               for t in range(2)] for s in range(2)]
    th0, th1 = Fraction(theta.th0), Fraction(theta.th1)
    total = th0 * d0 + th1 * d1
    fmask = sum(1 << (d0 - 1 - i) for i, x in enumerate(rep.framing) if x)
    closed1 = [m1 for m1 in range(1 << d1) if not r11[m1] & ~m1]
    found = []
    for m0 in range(1 << d0):
        if r00[m0] & ~m0:
            continue
        n0, framed = m0.bit_count(), not fmask & ~m0
        for m1 in closed1:
            if r01[m0] & ~m1 or r10[m1] & ~m0:
                continue
            n1 = m1.bit_count()
            val = th0 * n0 + th1 * n1
            if val >= 0 and (m0 or m1):
                found.append((val == 0, -n0 - n1, m0, m1, False))
            if val >= total and framed and n0 + n1 < d0 + d1:
                found.append((val == total, -n0 - n1, m0, m1, True))
    if not found:
        return ("stable", None)
    tie, _, m0, m1, has_framing = min(found, key=lambda c: (
        c[:2], quiver._order_place(c[2], d0), quiver._order_place(c[3], d1),
        c[4]))
    return ("semistable" if tie else "unstable",
            (_subset(m0, d0), _subset(m1, d1), has_framing))


def test_one_table_stability_matches_the_four_table_scan():
    # dims up to (4, 4), one beyond the chamber workload's 3 x 3
    rng = random.Random(43)
    seen, dims_seen = set(), set()
    for _ in range(1500):
        dims, arrows = _random_graded_arrows(rng, max_dim=4)
        framing = [0] * dims[0]
        if dims[0] and rng.random() < 0.85:
            framing[rng.randrange(dims[0])] = rng.randint(1, 3)
        rep = _graded(dims, arrows, framing)
        th = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
              for _ in range(2)]
        theta = Theta(*(int(x) if x.denominator == 1 else x for x in th))
        got = is_stable_graded(rep, theta)
        assert got == _ref_four_table_stability(rep, theta)
        seen.add((got[0], got[1] and got[1][2]))
        dims_seen.add(dims)
    assert (4, 4) in dims_seen
    assert seen == {("stable", None), ("semistable", False),
                    ("semistable", True), ("unstable", False),
                    ("unstable", True)}


def test_graded_precondition_matches_the_reference():
    # graded arrows with, often, entries added that merge or split lines
    # (both, in one arrow, when two are added), a second framing entry, or
    # a repeated grading
    rng = random.Random(31)
    raised = set()
    for _ in range(1000):
        dims, arrows = _random_graded_arrows(rng)
        d0, d1 = dims
        arrows = [[row[:] for row in M] for M in arrows]
        k = rng.randrange(6)
        if arrows[k] and arrows[k][0] and rng.random() < 0.6:
            M = arrows[k]
            for _ in range(rng.randint(1, 2)):
                M[rng.randrange(len(M))][rng.randrange(len(M[0]))] = 1
        framing = [rng.choice((0, 0, 1)) for _ in range(d0)]
        g0 = tuple(range(d0))
        if d0 > 1 and rng.random() < 0.1:
            g0 = (0,) * d0
        rep = FramedRep.build(dims, *arrows, framing=framing, grading0=g0,
                              grading1=tuple(range(d1)))
        results = []
        for check in (_graded_reach, _ref_graded_precondition):
            try:
                check(rep)
                results.append(None)
            except NotMultiplicityFree as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        raised.add(results[0] and re.sub(r"arrow \w+ ", "", results[0]))
    # a split in an early row and a merge in a later one: merging is named
    rep = FramedRep.build((2, 3), a1=[[1, 0], [1, 0], [1, 1]],
                          grading0=(0, 1), grading1=(2, 3, 4))
    with pytest.raises(NotMultiplicityFree, match="a1 merges"):
        _graded_reach(rep)
    assert raised == {None, "a graded piece has dimension > 1",
                      "merges graded lines", "splits a graded line",
                      "framing vector is not homogeneous"}


# Copies of the dense-row code that the sparse columns replaced: build ran
# `_ref_mat` on every arrow, then checked shapes; the relations built
# `_ref_columns` from the rows; the closure multiplied rows (`_ref_mat_vec`)
# and reduced against an echelon basis with unnormalised pivots.

def _ref_mat(rows):
    return tuple(tuple(_coef(x) for x in row) for row in rows)


def _ref_mat_vec(A, v):
    return tuple(_coef(sum(map(mul, row, v))) for row in A)


def _ref_reduce_against(basis, vec):
    v = list(vec)
    for piv, row in basis:
        if v[piv] != 0:
            coef = _coef(Fraction(v[piv], row[piv]))
            v = [_coef(x - coef * y) for x, y in zip(v, row)]
    return v


def _ref_columns(M, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(M):
        if any(row):
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
    return cols


def _ref_build(dims, arrows, framing):
    """(dense rows by arrow name, framing) as the dense build made them,
    raising where it raised."""
    d0, _ = dims
    dense = {name: (tuple((0,) * dims[src] for _ in range(dims[tgt]))
                    if M is None else _ref_mat(M))
             for (name, src, tgt), M in zip(quiver.ARROWS, arrows)}
    framing = tuple(_coef(x) for x in ((0,) * d0 if framing is None else framing))
    for name, src, tgt in quiver.ARROWS:
        M = dense[name]
        if len(M) != dims[tgt] or any(len(row) != dims[src] for row in M):
            raise ValueError(f"matrix {name} has wrong shape")
    if len(framing) != d0:
        raise ValueError("framing vector has wrong length")
    return dense, framing


def _ref_relations_on_columns(dims, dense):
    cols = {name: _ref_columns(dense[name], dims[src])
            for name, src, _ in quiver.ARROWS}
    for name, lhs, rhs in quiver._RELATION_WORDS:
        for j in range(len(cols[lhs[0]])):
            left = quiver._word_image(cols, lhs, j)
            right = quiver._word_image(cols, rhs, j)
            if left != right and any(x for _, x in left.items() ^ right.items()):
                return ("fail", name)
    return ("pass", None)


def _ref_closure(dims, dense, seeds):
    def insert(basis, vec):
        v = _ref_reduce_against(basis, vec)
        for piv, x in enumerate(v):
            if x != 0:
                basis.append((piv, tuple(v)))
                return True
        return False

    bases, work = ([], []), []
    for space, vec in seeds:
        vec = tuple(_coef(x) for x in vec)
        if len(vec) != dims[space]:
            raise ValueError("seed vector has wrong length")
        if insert(bases[space], vec):
            work.append((space, vec))
    while work:
        space, vec = work.pop()
        for name, src, tgt in quiver.ARROWS:
            if src == space:
                img = _ref_mat_vec(dense[name], vec)
                if insert(bases[tgt], img):
                    work.append((tgt, img))
    return (len(bases[0]), len(bases[1]))


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


_GENERAL_ENTRIES = (0, 0, 0, 0, 1, -1, 2, -3, Fraction(2, 3), Fraction(-5, 2),
                    Fraction(4, 2), Fraction(0), "3/4", "-2", "0", 0.5, -1.25,
                    0.0)


def _random_general_arrows(rng):
    """Dims and six arrows of every kind the dense build accepted: None, all
    zero, one entry per column, or dense, with int, Fraction, str and float
    entries and non-unit pivots; some satisfy the relations by construction
    (a1 = a2 = A, b1 = b2 = B, c = BA, dd = AB, zero arrows allowed), some
    have one arrow out of shape or an entry that `_coef` rejects."""
    d0, d1 = rng.randint(0, 3), rng.randint(0, 3)
    shapes = ((d1, d0), (d1, d0), (d0, d1), (d0, d1), (d0, d0), (d1, d1))

    def arrow(r, c):
        u = rng.random()
        if u < 0.2:
            return None
        if u < 0.35:
            return [[0] * c for _ in range(r)]
        if u < 0.6:
            M = [[0] * c for _ in range(r)]
            for j in range(c):
                if r:
                    M[rng.randrange(r)][j] = rng.choice(_GENERAL_ENTRIES[4:])
            return M
        return [[rng.choice(_GENERAL_ENTRIES) for _ in range(c)]
                for _ in range(r)]

    if rng.random() < 0.3:
        A = [[_coef(x) for x in row] for row in arrow(d1, d0) or _zeros(d1, d0)]
        B = [[_coef(x) for x in row] for row in arrow(d0, d1) or _zeros(d0, d1)]
        arrows = [A, A, B, B, _int_mul(B, A, d0, d0), _int_mul(A, B, d1, d1)]
    else:
        arrows = [arrow(r, c) for r, c in shapes]
    if rng.random() < 0.15:
        k = rng.randrange(6)
        r, c = shapes[k]
        M = arrows[k] = [row[:] for row in arrows[k] or _zeros(r, c)]
        u = rng.random()
        if M and u < 0.3:
            M.pop(rng.randrange(len(M)))
        elif M and u < 0.6:
            M[rng.randrange(len(M))].append(rng.choice(_GENERAL_ENTRIES))
        elif M and c and u < 0.8:
            M[rng.randrange(len(M))].pop()
        else:
            M.append([1] * c)
    if rng.random() < 0.03:
        k = rng.randrange(6)
        r, c = shapes[k]
        if r and c:
            M = arrows[k] = [row[:] for row in arrows[k] or _zeros(r, c)]
            M[rng.randrange(r)][rng.randrange(c)] = rng.choice((None, ""))
    return (d0, d1), arrows


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, TypeError, NotMultiplicityFree) as exc:
        return (type(exc).__name__, str(exc))


def test_sparse_columns_match_the_dense_row_copies():
    rng = random.Random(41)
    seen = set()
    for _ in range(1200):
        dims, arrows = _random_general_arrows(rng)
        d0, d1 = dims
        framing = [rng.choice(_GENERAL_ENTRIES) for _ in range(d0)]
        if rng.random() < 0.02:
            framing.append(1)
        gradings = {}
        if rng.random() < 0.9:
            gradings = dict(grading0=tuple(range(d0)),
                            grading1=tuple(range(100, 100 + d1)))
        rep = _outcome(FramedRep.build, dims, *arrows, framing, **gradings)
        ref = _outcome(_ref_build, dims, arrows, framing)
        if isinstance(ref[0], str):  # the dense build raised
            assert rep == ref
            seen.add(ref[1].split()[0])
            continue
        dense, ref_framing = ref
        # the columns hold exactly the nonzero entries of the dense rows,
        # of the same types
        got = _dense(rep)
        assert got == dense and rep.framing == ref_framing
        assert [type(x) for M in got.values() for row in M for x in row] == \
            [type(x) for M in dense.values() for row in M for x in row]
        verdict = check_relations(rep)
        assert verdict == _ref_relations_on_columns(dims, dense)
        assert verdict == _ref_check_relations(rep)
        # relations whose two words, or only one word, pass through a zero
        # arrow
        zero = {name for name, M in dense.items() if not any(map(any, M))}
        for _, lhs, rhs in quiver._RELATION_WORDS:
            seen.add(("zero words", bool(zero & set(lhs)) + bool(zero & set(rhs))))
        seen.add(verdict[0])
        for _ in range(3):
            seeds = [(s, [rng.choice(_GENERAL_ENTRIES) for _ in range(dims[s])])
                     for s in (rng.randrange(2) for _ in range(rng.randint(1, 3)))]
            if rng.random() < 0.05:
                seeds[0][1].append(1)
            assert _outcome(subrep_closure, rep, seeds) == \
                _outcome(_ref_closure, dims, dense, seeds)
        assert is_cyclic(rep) == (_ref_closure(dims, dense, [(0, ref_framing)])
                                  == dims)
        reach = _outcome(_graded_reach, rep)
        ref_reach = _outcome(_ref_graded_precondition, rep, dense)
        # the same exception text, or the reach read off the dense rows
        assert reach == (ref_reach or _ref_reach(dims, dense))
        seen.add(ref_reach and re.sub(r"arrow \w+ ", "", ref_reach[1]))
    assert seen >= {"matrix", "framing", "Invalid", "argument", "pass", "fail",
                    ("zero words", 1), ("zero words", 2), None,
                    "representation carries no grading",
                    "merges graded lines", "splits a graded line",
                    "framing vector is not homogeneous"}
