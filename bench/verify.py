"""Independent checks of wallx outputs, written without importing wallx.

symbolic: every report value is evaluated at fixed rational points with a
  small evaluator of the `prod[ <form>^<exp> ; ... ] * ( <poly> ) / ( <poly> )`
  grammar and compared with the closed form computed here with plain
  Fractions.  Only values are compared, never printed forms.
eval: each degree's lhs residues must equal its rhs residues, and the rhs
  residues must equal this module's own evaluation of (-1)^d C(k m/lam3, d)
  at the points drawn from the seed the report echoes.
chamber: classify_theta must agree with quadrant and integer-t arithmetic
  done here; relations, cyclicity (graph reachability, since the arrows are
  0/1 monomial) and stable <=> cyclic in the NC quadrant are recomputed.

Each `check_*` returns None when the outcome is right, else a reason.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

VARS = ("lam1", "lam2", "lam3", "m")
# generic rational points: no linear form with small coefficients vanishes
POINTS = (
    (Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13), Fraction(17, 19)),
    (Fraction(-23, 5), Fraction(29, 31), Fraction(-7, 3), Fraction(37, 41)),
)

_TOKEN = re.compile(r"\d+|lam[123]|m|[-+*/^]")
_RATFUN = re.compile(r"^prod\[(.*)\] \* \( (.*) \) / \( (.*) \)$")


def eval_poly(text, point):
    """Value of a printed polynomial (or linear form) at a rational point."""
    toks = _TOKEN.findall(text)
    if "".join(toks) != text.replace(" ", ""):
        raise ValueError(f"unreadable polynomial {text!r}")
    total, i, n = Fraction(0), 0, len(toks)
    while i < n:
        sign = 1
        while toks[i] in "+-":
            sign = -sign if toks[i] == "-" else sign
            i += 1
        term = Fraction(sign)
        while True:
            tok = toks[i]
            if tok.isdigit():
                val = Fraction(int(tok))
                i += 1
                if i < n and toks[i] == "/":
                    val /= int(toks[i + 1])
                    i += 2
            else:
                val = point[VARS.index(tok)]
                i += 1
                if i < n and toks[i] == "^":
                    val **= int(toks[i + 1])
                    i += 2
            term *= val
            if i < n and toks[i] == "*":
                i += 1
                continue
            break
        total += term
    return total


def eval_ratfun(text, point):
    mo = _RATFUN.match(text)
    if not mo:
        raise ValueError(f"unreadable value {text!r}")
    forms, num, den = mo.groups()
    value = eval_poly(num, point) / eval_poly(den, point)
    for item in forms.split(";"):
        if item.strip():
            body, exp = item.rsplit("^", 1)
            value *= eval_poly(body, point) ** int(exp)
    return value


def binom_target(k, d, point):
    """(-1)^d C(k m / lam3, d), the degree-d coefficient of (1-t)^{k m/lam3}."""
    x = k * point[3] / point[2]
    return (-1) ** d * math.prod(x - i for i in range(d)) / math.factorial(d)


def _args(args):
    return dict(zip(args[1::2], args[2::2]))


def _degrees(cmd, opts):
    if cmd == "wallcross":
        return list(range(int(opts["--tmax"]) + 1))
    if cmd == "js":
        return list(range(1, int(opts["--dmax"]) + 1))
    return list(range(int(opts["--dmax"]) + 1))


def _expected(cmd, opts, d, point):
    if cmd == "wallcross":
        return binom_target(int(opts["--wall"].split(":")[1]), d, point)
    k = int(opts["--k"])
    if cmd == "js":
        return binom_target(k, d, point)
    if cmd == "dimred":
        return Fraction((-1) ** d * math.comb(k, d))
    if k == 1:  # insertion-free: exp(-t/lam3) at rank 1, else 1
        return (-1 / point[2]) ** d / math.factorial(d)
    return Fraction(1 if d == 0 else 0)


def _report(args, outcome):
    """Common checks of a CLI outcome; returns (doc, None) or (None, reason)."""
    if outcome.get("error"):
        return None, f"crashed: {outcome['error']}"
    if outcome.get("code") != 0:
        return None, f"exit code {outcome.get('code')}, expected 0"
    if outcome.get("report") is None:
        return None, "no JSON report written"
    doc = json.loads(outcome["report"])
    if doc.get("command") != args[0] or doc.get("pass") is not True:
        return None, "report does not pass"
    degrees = doc.get("degrees", [])
    if [r.get("d") for r in degrees] != _degrees(args[0], _args(args)):
        return None, "wrong degree range"
    if any(r.get("verdict") != "equal" for r in degrees):
        return None, "a degree is not equal"
    return doc, None


def check_symbolic(args, outcome):
    doc, why = _report(args, outcome)
    if why:
        return why
    cmd, opts = args[0], _args(args)
    for rec in doc["degrees"]:
        d = rec["d"]
        sides = ("lhs", "rhs") if cmd in ("wallcross", "js") else ("lhs",)
        for point in POINTS:
            want = _expected(cmd, opts, d, point)
            for side in sides:
                if eval_ratfun(rec[side], point) != want:
                    return f"d={d} {side} differs from the closed form"
        if any(not x.endswith((":equal", ":zero")) for x in rec.get("detail", [])):
            return f"d={d} detail reports a mismatch"
    return None


def _draws(seed, prime, count):
    rng = random.Random(seed)
    return [tuple(rng.randrange(1, prime) for _ in range(4))
            for _ in range(count)]


def binom_target_mod(k, d, point, p):
    x = k * point[3] * pow(point[2], p - 2, p) % p
    acc = (-1) ** d * pow(math.factorial(d), p - 2, p)
    for i in range(d):
        acc = acc * (x - i) % p
    return acc % p


def check_eval(args, outcome):
    doc, why = _report(args, outcome)
    if why:
        return why
    opts = _args(args)
    seed, points = int(opts["--seed"]), int(opts["--points"])
    if doc.get("seed") != seed:
        return "seed not echoed"
    k = int(opts["--wall"].split(":")[1])
    lhs = {r["d"]: [int(x) for x in json.loads(r["lhs"])] for r in doc["degrees"]}
    rhs = {r["d"]: [int(x) for x in json.loads(r["rhs"])] for r in doc["degrees"]}
    if lhs != rhs:
        return "lhs residues differ from rhs residues"
    if any(len(v) != points for v in rhs.values()):
        return "wrong number of evaluation points"
    prime = int(re.search(r"prime=(\d+)", doc["degrees"][0]["backend"]).group(1))
    # the sampler skips draws that hit a pole, so match in order
    used = 0
    for point in _draws(seed, prime, 20 * points):
        if used < points and all(
                binom_target_mod(k, d, point, prime) == rhs[d][used] for d in rhs):
            used += 1
    if used != points:
        return "rhs residues are not the target at the seeded points"
    return None


# ---------------------------------------------------------------------------
# chamber


def _wall_at(n, minus_side):
    if n >= 1:
        return ("Lmm" if minus_side else "Lmp", n)
    return ("Lpm" if minus_side else "Lpp", -n)


def expected_theta(th0, th1, kmax):
    a, b = Fraction(th0), Fraction(th1)
    out = dict.fromkeys(("kind", "wall", "chamber", "lower", "upper", "t",
                         "interval"))
    if a == 0 and b == 0:
        return {**out, "kind": "degenerate"}
    if a + b == 0:
        return {**out, "kind": "wall", "wall": "Linf-" if a < b else "Linf+"}
    if a > 0 and b > 0:
        return {**out, "kind": "chamber", "chamber": "empty"}
    if a < 0 and b < 0:
        return {**out, "kind": "chamber", "chamber": "NC"}
    t = b / (a + b)

    def label(n):
        fam, idx = _wall_at(n, a < b)
        limit = kmax if fam in ("Lmm", "Lmp") else kmax - 1
        return f"{fam}:{idx}" if idx <= limit else None

    if t.denominator == 1:
        lab = label(t.numerator)
        return {**out, "kind": "wall", "wall": lab} if lab else {
            **out, "kind": "inconclusive"}
    f = math.floor(t)
    lower, upper = label(f), label(f + 1)
    if lower is None or upper is None:
        return {**out, "kind": "inconclusive"}
    res = {**out, "kind": "chamber", "lower": lower, "upper": upper}
    if a < 0 < b and a + b > 0:
        return {**res, "chamber": "Zt", "t": str(t), "interval": [f, f + 1]}
    return {**res, "chamber": "between"}


RELATIONS = (
    ("a2*b1*a1 = a1*b1*a2", ("a2", "b1", "a1"), ("a1", "b1", "a2")),
    ("a2*b2*a1 = a1*b2*a2", ("a2", "b2", "a1"), ("a1", "b2", "a2")),
    ("b2*a1*b1 = b1*a1*b2", ("b2", "a1", "b1"), ("b1", "a1", "b2")),
    ("b2*a2*b1 = b1*a2*b2", ("b2", "a2", "b1"), ("b1", "a2", "b2")),
    ("dd*a1 = a1*c", ("dd", "a1"), ("a1", "c")),
    ("dd*a2 = a2*c", ("dd", "a2"), ("a2", "c")),
    ("c*b1 = b1*dd", ("c", "b1"), ("b1", "dd")),
    ("c*b2 = b2*dd", ("c", "b2"), ("b2", "dd")),
)
# (source space, target space) of each arrow; matrices are target x source
ARROWS = {"a1": (0, 1), "a2": (0, 1), "b1": (1, 0), "b2": (1, 0),
          "c": (0, 0), "dd": (1, 1)}


def _product(item, names):
    """Matrix of the composite path, as a dict (row, col) -> entry."""
    dims = item["dims"]
    src = ARROWS[names[-1]][0]
    out = {(i, i): 1 for i in range(dims[src])}
    for name in reversed(names):
        M = item[name]
        nxt = {}
        for (r, c), v in out.items():
            for r2 in range(len(M)):
                if M[r2][r]:
                    nxt[(r2, c)] = nxt.get((r2, c), 0) + M[r2][r] * v
        out = {k: v for k, v in nxt.items() if v}
    return out


def expected_relations(item):
    for name, lhs, rhs in RELATIONS:
        if _product(item, lhs) != _product(item, rhs):
            return ["fail", name]
    return ["pass", None]


def reachable_cyclic(item):
    d0, d1 = item["dims"]
    todo = [(0, i) for i, x in enumerate(item["framing"]) if x]
    seen = set(todo)
    while todo:
        space, j = todo.pop()
        for name, (src, tgt) in ARROWS.items():
            if src != space:
                continue
            for r, row in enumerate(item[name]):
                if row[j] and (tgt, r) not in seen:
                    seen.add((tgt, r))
                    todo.append((tgt, r))
    return len(seen) == d0 + d1


def check_chamber(item, outcome):
    if "error" in outcome:
        return f"crashed: {outcome['error']}"
    if item["kind"] == "theta":
        want = expected_theta(*item["theta"], item["kmax"])
        return None if outcome == want else f"classify_theta gave {outcome}, expected {want}"
    if outcome["relations"] != expected_relations(item):
        return f"check_relations gave {outcome['relations']}"
    cyclic = reachable_cyclic(item)
    if outcome["cyclic"] != cyclic:
        return f"is_cyclic gave {outcome['cyclic']}"
    # in the NC quadrant a graded representation is stable iff cyclic
    if outcome["stable"] != ("stable" if cyclic else "unstable"):
        return f"is_stable_graded gave {outcome['stable']} with cyclic={cyclic}"
    return None


def check(workload, item, outcome):
    if workload == "symbolic":
        return check_symbolic(item["args"], outcome)
    if workload == "eval":
        return check_eval(item["args"], outcome)
    return check_chamber(item, outcome)
