"""Stability-plane geometry and exact framed-representation checks."""

import itertools
import random
from fractions import Fraction

import pytest

from wallx import quiver
from wallx.quiver import (
    ClassifyResult,
    FramedRep,
    NotMultiplicityFree,
    Theta,
    WallLabel,
    _arrow_closed_subsets,
    check_relations,
    classify_theta,
    dimvec_bookkeeping,
    dimvec_inverse,
    is_cyclic,
    is_stable_graded,
    mat,
    mat_mul,
    parse_wall_label,
    subrep_closure,
    theta_to_zt,
    wall_halfplane,
    wall_line,
    wall_object,
    walls_up_to,
)
from wallx.ratfun import DivisionByZero


def test_wall_label_text_round_trip():
    for text in ["Lmm:1", "Lpm:0", "Lmp:4", "Lpp:2", "Linf-", "Linf+"]:
        assert str(parse_wall_label(text)) == text
    with pytest.raises(ValueError):
        parse_wall_label("Lxx:1")
    with pytest.raises(ValueError):
        WallLabel("Lmm", 0)


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


def test_theta_to_zt_integer_on_walls():
    for m in range(1, 6):
        lab = WallLabel("Lmm", m)
        a, b = wall_line(lab)
        # a point on the line a*th0 + b*th1 = 0
        th = Theta.of(Fraction(-b), Fraction(a))
        assert theta_to_zt(th) == m


def test_dimvec_round_trip():
    assert dimvec_bookkeeping(3, 1) == (3, 2)
    for n in range(5):
        for d in range(-2, 5):
            assert dimvec_inverse(*dimvec_bookkeeping(n, d)) == (n, d)


def test_wall_object_descriptions():
    desc, dimvec, flop = wall_object(WallLabel("Lmm", 2))
    assert desc == "O_P1(1)" and dimvec == (2, 1) and not flop
    desc, dimvec, flop = wall_object(WallLabel("Lmp", 2))
    assert dimvec == (2, 1) and flop
    desc, dimvec, flop = wall_object(WallLabel("Lpm", 1))
    assert desc == "O_P1(-2)[1]" and dimvec == (1, 2)
    with pytest.raises(ValueError):
        wall_object(WallLabel("Linf_minus"))


# ---------------------------------------------------------------------------
# framed representations


def test_relations_trivial_cases():
    assert check_relations(FramedRep.build((1, 1)))[0] == "pass"
    assert check_relations(FramedRep.build((1, 1), a1=[[1]]))[0] == "pass"
    verdict, witness = check_relations(
        FramedRep.build((1, 1), a1=[[1]], c=[[1]]))
    assert verdict == "fail" and witness == "dd*a1 = a1*c"


def test_relations_shape_validation():
    with pytest.raises(ValueError):
        FramedRep.build((2, 1), a1=[[1]])


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


def _entries(M):
    return [x for row in M for x in row]


def test_matrix_entries_are_int_or_fraction():
    M = mat([[1, Fraction(4, 2), Fraction(1, 2)], [0.5, "3/3", -2]])
    assert M == ((1, 2, Fraction(1, 2)), (Fraction(1, 2), 1, -2))
    assert [type(x) for x in _entries(M)] == \
        [int, int, Fraction, Fraction, int, int]
    half = mat([[Fraction(1, 2), Fraction(3, 2)], [1, 0]])
    prod = mat_mul(half, mat([[2, 0], [Fraction(2, 3), 4]]))
    assert prod == ((2, 6), (2, 0))
    assert all(type(x) is int for x in _entries(prod))
    mixed = mat_mul(half, half)
    assert mixed == ((Fraction(7, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(3, 2)))
    assert all(type(x) is Fraction for x in _entries(mixed))
    ints = mat_mul(mat([[1, 2], [3, 4]]), mat([[0, 1], [1, 0]]))
    assert ints == ((2, 1), (4, 3))
    assert all(type(x) is int for x in _entries(ints))
    rep = FramedRep.build((2, 1), a1=[[1, 0]], framing=[Fraction(2, 2), 0])
    for M in (rep.a1, rep.a2, rep.b1, rep.c, rep.dd, (rep.framing,)):
        assert all(type(x) is int for x in _entries(M))


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


def _random_graded_arrows(rng):
    """Dims and six monomial arrows; about a third satisfy the relations
    by construction (a1 = a2 = A, b1 = b2 = B, c = BA, dd = AB)."""
    d0, d1 = rng.randint(0, 3), rng.randint(0, 3)
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


def test_stability_compares_int_values_and_ignores_positive_theta_scale(
        monkeypatch):
    # theta is scaled to integer coordinates before any value is compared;
    # a positive scale keeps every sign and tie, so the verdict and witness
    # equal those of the unscaled Fraction comparison, for theta and for
    # its positive multiples
    seen = []
    theta_value = quiver.theta_value

    def recorded(theta, d0, d1):
        value = theta_value(theta, d0, d1)
        seen.append(type(value))
        return value

    monkeypatch.setattr(quiver, "theta_value", recorded)
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
            mp.setattr(quiver, "_integral_theta", lambda th: th)
            ref = _verdicts(dims, arrows, framing, theta)[2]
        seen.clear()
        for scale in (1, Fraction(7, 5), 3, Fraction(1, 12)):
            scaled = Theta(theta.th0 * scale, theta.th1 * scale)
            assert _verdicts(dims, arrows, framing, scaled)[2] == ref
        assert set(seen) <= {int}
        kinds.add(ref[0])
    assert kinds == {"stable", "semistable", "unstable"}


def _brute_closed_subsets(rep):
    d0, d1 = rep.dims
    out = []
    for S0, S1 in itertools.product(
            [frozenset(s) for r in range(d0 + 1)
             for s in itertools.combinations(range(d0), r)],
            [frozenset(s) for r in range(d1 + 1)
             for s in itertools.combinations(range(d1), r)]):
        sets = (S0, S1)
        if all(i in sets[tgt]
               for _, M, src, tgt in rep.arrows()
               for j in sets[src] for i in range(len(M)) if M[i][j] != 0):
            out.append((S0, S1))
    return out


def test_arrow_closed_subsets_match_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        dims, arrows = _random_graded_arrows(rng)
        # dense arrows too: the scan does not need the grading precondition
        if rng.random() < 0.5:
            arrows = tuple([[rng.choice((0, 0, 1, 2)) for _ in row] for row in M]
                           for M in arrows)
        rep = FramedRep.build(dims, *arrows)
        got = _arrow_closed_subsets(rep)
        assert len(set(got)) == len(got)
        assert set(got) == set(_brute_closed_subsets(rep))
