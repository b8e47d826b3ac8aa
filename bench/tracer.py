"""Per-layer tracing of wallx from outside the program.

`install()` wraps the public functions of `ratfun`, `kclass`, `geom`,
`series`, `quiver` and `cli` and rebinds every reference to them: the
defining module, every module that imported the name (`series`, `geom` and
`cli` do `from .ratfun import rf_sum`, `from .geom import contribution`, and
so on) and every class attribute (`RatFun.__rmul__ is RatFun.__mul__`).

Every span is aggregated into a call count and a self time (its duration
minus the time of the traced spans it encloses); nothing is kept per call,
because the hot calls (`MultiPoly.__mul__`, `KClass.__add__`, `chi_p1`,
`RatFun.eval_mod`) run hundreds of thousands of times a pass.  Counters
read from arguments and results sit at the same boundaries.

`LAYER_METRICS` names every per-layer metric, the workload that exercises
it, and the end-to-end metric it should move there.
"""

from __future__ import annotations

import sys
import time

# (metric, unit, better, workload, end-to-end metric it should move,
#  span or counter that must be nonzero on that workload)
LAYER_METRICS = (
    ("ratfun.rf_sum.calls", "count", "lower", "symbolic",
     "wall_s, check_s.p90, peak_rss_mb", "ratfun.rf_sum"),
    ("ratfun.rf_sum.self_s", "s", "lower", "symbolic",
     "wall_s, check_s.p90, peak_rss_mb", "ratfun.rf_sum"),
    ("ratfun.rf_sum.forms", "forms/call", "lower", "symbolic",
     "wall_s, check_s.p90, peak_rss_mb", "ratfun.rf_sum"),
    ("ratfun.poly_mul.calls", "count", "lower", "symbolic", "wall_s",
     "ratfun.poly_mul"),
    ("ratfun.poly_mul.self_s", "s", "lower", "symbolic", "wall_s",
     "ratfun.poly_mul"),
    ("ratfun.poly_mul.term_pairs", "count", "lower", "symbolic", "wall_s",
     "ratfun.poly_mul"),
    ("ratfun.divmod_linear.calls", "count", "lower", "symbolic", "wall_s",
     "ratfun.divmod_linear"),
    ("ratfun.divmod_linear.self_s", "s", "lower", "symbolic", "wall_s",
     "ratfun.divmod_linear"),
    ("ratfun.divmod_linear.exact_ratio", "ratio", "higher", "symbolic",
     "wall_s", "ratfun.divmod_linear"),
    ("ratfun.ratfun_mul.self_s", "s", "lower", "symbolic+eval", "wall_s",
     "ratfun.ratfun_mul"),
    ("ratfun.eval_mod.calls", "count", "lower", "eval", "wall_s",
     "ratfun.eval_mod"),
    ("ratfun.eval_mod.self_s", "s", "lower", "eval", "wall_s",
     "ratfun.eval_mod"),
    ("kclass.add.calls", "count", "lower", "eval", "wall_s, check_s.p90",
     "kclass.add"),
    ("kclass.add.self_s", "s", "lower", "eval", "wall_s, check_s.p90",
     "kclass.add"),
    ("kclass.chi_p1.calls", "count", "lower", "eval", "wall_s, check_s.p90",
     "kclass.chi_p1"),
    ("kclass.euler_class.self_s", "s", "lower", "eval",
     "wall_s, check_s.p90", "kclass.euler_class"),
    ("geom.enumerate.points", "count", "lower", "eval", "wall_s",
     "geom.enumerate"),
    ("geom.chi_pair.calls", "count", "lower", "eval", "wall_s",
     "geom.chi_pair"),
    ("geom.chi_pair.self_s", "s", "lower", "eval", "wall_s",
     "geom.chi_pair"),
    ("geom.contribution.calls", "count", "lower", "eval+symbolic", "wall_s",
     "geom.contribution"),
    ("geom.contribution.self_s", "s", "lower", "eval+symbolic", "wall_s",
     "geom.contribution"),
    ("geom.contribution.zero_ratio", "ratio", "lower", "eval+symbolic",
     "wall_s", "geom.contribution"),
    ("series.check.self_s", "s", "lower", "symbolic", "wall_s",
     "series.check"),
    ("series.truediv.self_s", "s", "lower", "symbolic", "wall_s",
     "series.truediv"),
    ("series.js_closed_formula.self_s", "s", "lower", "symbolic", "wall_s",
     "series.js_closed_formula"),
    ("series.sz.points_drawn", "count", "lower", "eval", "wall_s",
     "series.sz.points_drawn"),
    ("series.sz.points_rejected", "count", "lower", "eval", "wall_s",
     "series.sz.points_drawn"),
    ("quiver.classify_theta.calls", "count", "lower", "chamber",
     "check_s.p50", "quiver.classify_theta"),
    ("quiver.classify_theta.self_s", "s", "lower", "chamber", "check_s.p50",
     "quiver.classify_theta"),
    ("quiver.check_relations.self_s", "s", "lower", "chamber",
     "wall_s, check_s.p90", "quiver.check_relations"),
    ("quiver.check_relations.pass_ratio", "ratio", "higher", "chamber",
     "wall_s, check_s.p90", "quiver.check_relations"),
    ("quiver.is_cyclic.self_s", "s", "lower", "chamber",
     "wall_s, check_s.p90", "quiver.is_cyclic"),
    ("quiver.is_stable_graded.self_s", "s", "lower", "chamber",
     "wall_s, check_s.p90", "quiver.is_stable_graded"),
    ("cli.cache.hit_ratio", "ratio", "higher", "symbolic", "check_s.p50",
     "cli.cache_get"),
    ("cli.cache_get.self_s", "s", "lower", "symbolic", "check_s.p50",
     "cli.cache_get"),
    ("cli.cache_put.self_s", "s", "lower", "eval", "wall_s",
     "cli.cache_put"),
    ("cli.run_check.self_s", "s", "lower", "symbolic+eval",
     "check_s.p50, wall_s", "cli.run_check"),
    ("trace.overhead_s", "s", "lower", "symbolic+eval+chamber",
     "none (traced pass time minus untraced pass time)", None),
)


class Tracer:
    """Aggregated spans (calls, self seconds) and counters."""

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def parent(self):
        """Name of the innermost open span, outside a hook's own span."""
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def close(frame, t0):
            dt = clock() - t0
            stack.pop()
            stat[0] += 1
            stat[1] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:  # SystemExit ends every run_check
                close(frame, t0)
                if on_error is not None and isinstance(exc, Exception):
                    on_error(exc)
                raise
            close(frame, t0)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}


def _rebind(original, replacement):
    """Point every wallx module global and class attribute at replacement."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wallx" or mod_name.startswith("wallx.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                hits += 1
            elif isinstance(val, type) and val.__module__ == mod_name:
                for cattr, cval in list(vars(val).items()):
                    if cval is original:
                        setattr(val, cattr, replacement)
                        hits += 1
    if not hits:
        raise RuntimeError(f"no binding of {original!r} found")


def install():
    """Trace the wallx layers in this process; returns the Tracer."""
    from wallx import cli, geom, kclass, quiver, ratfun, series

    tr = Tracer()

    def span(name, fn, **hooks):
        _rebind(fn, tr.wrap(name, fn, **hooks))

    # ratfun
    def rf_sum_forms(args):
        terms = args[0] if isinstance(args[0], list) else list(args[0])
        # a form is in the common denominator when some term has it below 0
        tr.count("ratfun.rf_sum.forms", len(
            {f for t in terms for f, e in t.factored.items() if e < 0}))
        return (terms,) + args[1:]

    def term_pairs(args):
        tr.count("ratfun.poly_mul.term_pairs",
                 len(args[0].terms) * len(args[1].terms))
        return args

    def sz_rejected(exc):
        if isinstance(exc, ratfun.EvalDegenerate):
            tr.count("series.sz.points_rejected")

    def eval_mod_rejected(exc):
        if tr.parent() != "series.eval_quotient":
            sz_rejected(exc)

    span("ratfun.rf_sum", ratfun.rf_sum, before=rf_sum_forms)
    span("ratfun.poly_mul", ratfun.MultiPoly.__mul__, before=term_pairs)
    span("ratfun.divmod_linear", ratfun.MultiPoly.divmod_linear,
         after=lambda a, out: out[1] and tr.count("ratfun.divmod_linear.exact"))
    span("ratfun.ratfun_mul", ratfun.RatFun.__mul__)
    span("ratfun.eval_mod", ratfun.RatFun.eval_mod, on_error=eval_mod_rejected)

    sample_points = ratfun.sample_points

    def counted_sample_points(*args, **kwargs):
        for point in sample_points(*args, **kwargs):
            tr.count("series.sz.points_drawn")
            yield point

    _rebind(sample_points, counted_sample_points)

    # kclass
    span("kclass.add", kclass.KClass.__add__)
    span("kclass.chi_p1", kclass.chi_p1)
    span("kclass.euler_class", kclass.euler_class)

    # geom
    def enumerated(args, out):
        if tr.parent() != "geom.enumerate":
            tr.count("geom.enumerate.points", len(out))

    for fn in (geom.js_fixed_points, geom.fiber_plus, geom.fiber_minus):
        span("geom.enumerate", fn, after=enumerated)
    span("geom.chi_pair", geom.chi_pair)
    span("geom.contribution", geom.contribution,
         after=lambda a, out: out.is_zero() and tr.count("geom.contribution.zero"))

    # series
    for fn in (series.check_wallcross, series.check_js, series.check_dimred,
               series.check_insertion_free):
        span("series.check", fn)
    span("series.truediv", series.TruncSeries.__truediv__)
    span("series.js_closed_formula", series.js_closed_formula)
    span("series.eval_quotient", series._eval_quotient_at, on_error=sz_rejected)

    # quiver
    span("quiver.classify_theta", quiver.classify_theta)
    span("quiver.check_relations", quiver.check_relations,
         after=lambda a, out: out[0] == "pass" and tr.count("quiver.check_relations.pass"))
    span("quiver.is_cyclic", quiver.is_cyclic)
    span("quiver.is_stable_graded", quiver.is_stable_graded)

    # cli
    span("cli.cache_get", cli.cache_get,
         after=lambda a, out: out is not None and tr.count("cli.cache.hit"))
    span("cli.cache_put", cli.cache_put)
    span("cli.run_check", cli.run_check)
    return tr


def layer_metrics(snapshot):
    """Per-layer metric values of one traced pass, by LAYER_METRICS name.

    `trace.overhead_s` compares two passes and is left to the caller.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    def ratio(counter, span_name):
        n = calls(span_name)
        return counts.get(counter, 0) / n if n else 0.0

    derived = {
        "ratfun.rf_sum.forms": ratio("ratfun.rf_sum.forms", "ratfun.rf_sum"),
        "ratfun.poly_mul.term_pairs": counts.get("ratfun.poly_mul.term_pairs", 0),
        "ratfun.divmod_linear.exact_ratio": ratio(
            "ratfun.divmod_linear.exact", "ratfun.divmod_linear"),
        "geom.enumerate.points": counts.get("geom.enumerate.points", 0),
        "geom.contribution.zero_ratio": ratio(
            "geom.contribution.zero", "geom.contribution"),
        "series.sz.points_drawn": counts.get("series.sz.points_drawn", 0),
        "series.sz.points_rejected": counts.get("series.sz.points_rejected", 0),
        "quiver.check_relations.pass_ratio": ratio(
            "quiver.check_relations.pass", "quiver.check_relations"),
        "cli.cache.hit_ratio": ratio("cli.cache.hit", "cli.cache_get"),
    }
    out = {}
    for name, *_ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = calls(base)
        elif kind == "self_s":
            out[name] = self_s(base)
    return out


def source_recorded(snapshot, source):
    """Whether the span or counter a metric reads from saw any activity."""
    if source in snapshot["spans"]:
        return snapshot["spans"][source][0] > 0
    return snapshot["counts"].get(source, 0) > 0
