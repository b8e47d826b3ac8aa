"""Seeded workload inputs for the wallx benchmark.

Each workload is a seeded draw from a fixed menu.  The draw is stratified:
every pass covers each menu entry once, so that the amount of distinct work
in a pass does not depend on the seed (one menu entry costs up to a hundred
times another, so a plain draw with replacement would make seed-to-seed
spread swamp any regression bound).  The seed decides the order, the extra
draws with replacement (cache hits on `symbolic`), the Schwartz-Zippel seed
of every `eval` check, and every `chamber` input.

The menus stay inside the CLI contract that holds at this commit: no
`--k 0`, no negative `--dmax`/`--tmax`, no `--points 0`, no
`--sign-override`, and no `dimred` at odd rank, whose per-point sign check
is known to fail.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("symbolic", "eval", "chamber")

# ---------------------------------------------------------------------------
# symbolic: exact checks through the CLI, with a per-pass result cache


def _wallcross(k, i0, tmax, *extra):
    return ["wallcross", "--wall", f"Lmm:{k}", "--i0", i0,
            "--tmax", str(tmax), *extra]


SYMBOLIC_MENU = (
    _wallcross(2, "IlP1:1", 2),
    _wallcross(2, "IlP1:1", 3),
    _wallcross(2, "IlP1:2", 2),
    _wallcross(2, "IlP1:3", 2),
    _wallcross(2, "OX", 2),
    _wallcross(2, "OX", 3),
    _wallcross(3, "OX", 2),
    _wallcross(3, "OX", 3),
    _wallcross(4, "OX", 2),
    _wallcross(3, "IP1", 1),
    ["js", "--k", "2", "--dmax", "2"],
    ["js", "--k", "2", "--dmax", "3"],
    ["js", "--k", "3", "--dmax", "2"],
    ["js", "--k", "3", "--dmax", "3"],
    ["js", "--k", "4", "--dmax", "2"],
    ["dimred", "--k", "2", "--dmax", "2"],
    ["dimred", "--k", "2", "--dmax", "3"],
    ["dimred", "--k", "2", "--dmax", "4"],
    ["dimred", "--k", "4", "--dmax", "2"],
    ["dimred", "--k", "4", "--dmax", "3"],
    ["insertion-free", "--k", "2", "--dmax", "2"],
    ["insertion-free", "--k", "2", "--dmax", "3"],
    ["insertion-free", "--k", "3", "--dmax", "2"],
    ["insertion-free", "--k", "3", "--dmax", "3"],
    ["insertion-free", "--k", "4", "--dmax", "2"],
    ["insertion-free", "--k", "4", "--dmax", "3"],
)

# Extra draws with replacement; each repeats an earlier command of the pass
# and is served from the cache.  9 of 35 checks is roughly a quarter.
SYMBOLIC_REPEATS = 9

# ---------------------------------------------------------------------------
# eval: seeded modular-evaluation wall-crossing checks, all distinct

EVAL_MENU = (
    ("IlP1:1", 2, 5), ("IlP1:1", 2, 7), ("IlP1:2", 2, 5), ("IlP1:3", 2, 5),
    ("IP1", 3, 1), ("IP1", 3, 2), ("IP1", 3, 3), ("IP1", 4, 1), ("IP1", 4, 2),
    ("IP1", 5, 1), ("IP1", 5, 2), ("IP1", 6, 1), ("IP1", 7, 1), ("IP1", 8, 1),
    *(("OX", 2, t) for t in range(1, 7)),
    *(("OX", 3, t) for t in (1, 2, 3, 4, 6)),
    *(("OX", 4, t) for t in range(1, 6)),
)
EVAL_POINTS = 5
# Below 100 checks, check_s.p90 is the eleventh-slowest check (ten beyond
# it).  OX k=3 t=5 is left out because its cost sits between those of the
# tenth and twelfth, so noise would reorder them and move the percentile.

# ---------------------------------------------------------------------------
# chamber: direct calls into wallx.quiver

CHAMBER_KMAX = 1000
CHAMBER_THETAS = 4800
CHAMBER_REPS = 3200


def symbolic_checks(rng):
    order = list(SYMBOLIC_MENU)
    rng.shuffle(order)
    for _ in range(SYMBOLIC_REPEATS):
        cmd = rng.choice(SYMBOLIC_MENU)
        first = order.index(cmd)
        order.insert(rng.randrange(first + 1, len(order) + 1), cmd)
    return [{"kind": "cli", "args": list(cmd)} for cmd in order]


def eval_checks(rng):
    order = list(EVAL_MENU)
    rng.shuffle(order)
    seeds = rng.sample(range(1, 1 << 30), len(order))
    return [{"kind": "cli",
             "args": _wallcross(k, i0, tmax, "--backend", "eval",
                                "--points", str(EVAL_POINTS),
                                "--seed", str(s))}
            for (i0, k, tmax), s in zip(order, seeds)]


def _rational(rng, lo, hi, maxden=12):
    den = rng.randint(1, maxden)
    return f"{rng.randint(lo * den, hi * den)}/{den}"


def _nonzero_rational(rng, lo, hi, maxden=12):
    while True:
        r = _rational(rng, lo, hi, maxden)
        if not r.startswith("0/"):
            return r


def _theta(rng):
    """A stability parameter (th0, th1) as two rational strings."""
    u = rng.random()
    if u < 0.45:
        return [_rational(rng, -3, 3), _rational(rng, -3, 3)]
    if u < 0.75:
        # exactly on the wall t = r, with t = th1 / (th0 + th1)
        r = rng.randint(-20, 20)
        s = Fraction(_nonzero_rational(rng, -3, 3))
        return [str(s - r * s), str(r * s)]
    if u < 0.87:
        # on the infinite wall th0 + th1 = 0
        a = Fraction(_nonzero_rational(rng, -3, 3))
        return [str(a), str(-a)]
    if u < 0.98:
        # t beyond CHAMBER_KMAX: accumulation at the infinite wall
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        s = Fraction(rng.choice((-1, 1)), rng.randint(3, 9) * CHAMBER_KMAX)
        return [str(s - b), str(b)]
    return ["0", "0"]


def _monomial(rng, rows, cols, density=0.6):
    """0/1 matrix with at most one 1 in each row and each column."""
    M = [[0] * cols for _ in range(rows)]
    free = list(range(rows))
    rng.shuffle(free)
    for j in rng.sample(range(cols), cols):
        if free and rng.random() < density:
            M[free.pop()][j] = 1
    return M


def _matmul(A, B, rows, cols):
    return [[sum(A[i][l] * B[l][j] for l in range(len(B)))
             for j in range(cols)] for i in range(rows)]


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _rep(rng):
    """A small graded framed representation with 0/1 monomial arrows.

    About half come from families that satisfy the eight relations by
    construction; the rest have independent random arrows.
    """
    d0, d1 = rng.randint(0, 3), rng.randint(0, 3)
    family = rng.randrange(10)
    if family < 5:
        A = _monomial(rng, d1, d0)
        B = _monomial(rng, d0, d1)
        if family == 0:  # only a-arrows
            a1, a2, b1, b2 = A, _monomial(rng, d1, d0), _zeros(d0, d1), _zeros(d0, d1)
            c, dd = _zeros(d0, d0), _zeros(d1, d1)
        elif family == 1:  # only b-arrows
            a1, a2, b1, b2 = _zeros(d1, d0), _zeros(d1, d0), B, _monomial(rng, d0, d1)
            c, dd = _zeros(d0, d0), _zeros(d1, d1)
        elif family == 2:  # only loops
            a1, a2, b1, b2 = (_zeros(d1, d0), _zeros(d1, d0),
                              _zeros(d0, d1), _zeros(d0, d1))
            c, dd = _monomial(rng, d0, d0), _monomial(rng, d1, d1)
        elif family == 3:  # a1 = a2, b1 = b2, no loops
            a1, a2, b1, b2 = A, A, B, B
            c, dd = _zeros(d0, d0), _zeros(d1, d1)
        else:  # a1 = a2 = A, b1 = b2 = B, c = BA, dd = AB
            a1, a2, b1, b2 = A, A, B, B
            c, dd = _matmul(B, A, d0, d0), _matmul(A, B, d1, d1)
    else:
        a1, a2 = _monomial(rng, d1, d0), _monomial(rng, d1, d0)
        b1, b2 = _monomial(rng, d0, d1), _monomial(rng, d0, d1)
        c, dd = _monomial(rng, d0, d0, 0.3), _monomial(rng, d1, d1, 0.3)
    framing = [0] * d0
    if d0 and rng.random() < 0.85:
        framing[rng.randrange(d0)] = 1
    theta = [f"-{rng.randint(1, 9)}/{rng.randint(1, 9)}",
             f"-{rng.randint(1, 9)}/{rng.randint(1, 9)}"]
    return {"dims": [d0, d1], "a1": a1, "a2": a2, "b1": b1, "b2": b2,
            "c": c, "dd": dd, "framing": framing, "theta": theta}


def chamber_checks(rng):
    items = ([{"kind": "theta", "theta": _theta(rng), "kmax": CHAMBER_KMAX}
              for _ in range(CHAMBER_THETAS)]
             + [{"kind": "rep", **_rep(rng)} for _ in range(CHAMBER_REPS)])
    rng.shuffle(items)
    return items


def make_checks(workload, seed):
    """The check list every pass of one run executes, from the seed alone."""
    rng = random.Random(f"wallx-bench:{workload}:{seed}")
    if workload == "symbolic":
        return symbolic_checks(rng)
    if workload == "eval":
        return eval_checks(rng)
    if workload == "chamber":
        return chamber_checks(rng)
    raise ValueError(f"unknown workload {workload!r}")
