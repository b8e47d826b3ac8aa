"""Command-line front end.

Exit codes: 0 = all checks passed, 1 = an identity check failed, 2 = usage
error, 3 = internal error: any WallxError that a command has not already
turned into a usage error.  Reports are deterministic for a fixed command
and seed (`--threads` is accepted and has no effect), and check results are
cached on disk keyed by the command, its canonical parameters, the package
version and a digest of the package sources.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import pathlib
import sys
from fractions import Fraction

import click

from . import __version__
from .geom import (
    UnsupportedConfiguration,
    check_wall_i0,
    contribution,
    fiber_minus,
    fiber_plus,
    i0_label,
    js_fixed_points,
    parse_i0,
    parse_label,
)
from .quiver import Theta, classify_theta, parse_wall_label, wall_halfplane, walls_up_to
from .ratfun import EvalBackend, WallxError
from .series import (
    check_dimred,
    check_insertion_free,
    check_js,
    check_wallcross,
    primary_series,
    product_series,
    sign_search,
    wall_target,
)

# ---------------------------------------------------------------------------
# cache


def cache_dir():
    return pathlib.Path(os.environ.get("WALLX_CACHE", ".wallx-cache"))


@functools.cache
def source_digest():
    """SHA-256 over the names and bytes of the package's *.py sources."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_key(command, params):
    payload = json.dumps(
        {"command": command, "params": params, "version": __version__,
         "source": source_digest()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_get(key):
    """The cached report bytes, or None.  An entry that is not JSON, that
    is nested too deep to parse, that render_doc cannot render or whose
    `pass` is not a bool is corrupt: it is reported on stderr and
    recomputed."""
    path = cache_dir() / f"{key}.json"
    if not path.is_file():
        return None
    data = path.read_bytes()
    try:
        doc = json.loads(data)
        render_doc(doc)
        if type(doc["pass"]) is bool:
            return data
    except (ValueError, TypeError, LookupError, AttributeError,
            RecursionError):
        pass
    click.echo(f"warning: corrupt cache entry {path}, recomputing", err=True)
    return None


def cache_put(key, data):
    """Write via a per-process temp file: no reader sees half an entry."""
    d = cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f"{key}.json.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, d / f"{key}.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# shared option handling


def make_backend(backend, points, seed):
    """The backend for --backend/--points/--seed and its cache params."""
    if backend == "symbolic":
        return "symbolic", {"backend": "symbolic"}
    return (EvalBackend(points=points, seed=seed),
            {"backend": "eval", "points": points, "seed": seed})


def parse_sign_overrides(pairs):
    out = {}
    for item in pairs:
        label, _, val = item.rpartition("=")
        if not label or val not in ("1", "+1", "-1"):
            raise click.UsageError(
                f"bad --sign-override {item!r}; expected LABEL=+1 or LABEL=-1"
            )
        out[label] = -1 if val == "-1" else 1
    return out or None


def parse_theta(text):
    try:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError
        return Theta(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad --theta {text!r}; expected p/q,p/q")


def parse_gamma(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad --gamma {text!r}; expected p/q")


def render_doc(doc):
    """Human table for a check report document."""
    lines = [f"command: {doc['command']}"]
    for k, v in doc["params"].items():
        lines.append(f"  {k} = {v}")
    if doc.get("seed") is not None:
        lines.append(f"  seed = {doc['seed']}")
    for rec in doc["degrees"]:
        lines.append(f"  d={rec['d']}  {rec['verdict']}"
                     f"  [{rec['backend']}]  lhs={rec['lhs']}  rhs={rec['rhs']}")
        for extra in rec.get("detail", []):
            lines.append(f"      {extra}")
    if doc.get("sz_bound") is not None:
        lines.append(f"  false-accept bound <= {doc['sz_bound']}")
    lines.append("PASS" if doc["pass"] else "FAIL")
    return "\n".join(lines)


def emit_report(doc_bytes, json_path, csv_path):
    doc = json.loads(doc_bytes)
    click.echo(render_doc(doc))
    if json_path:
        write_output(json_path, doc_bytes)
    if csv_path:
        write_csv(csv_path, [(rec["d"], rec["lhs"]) for rec in doc["degrees"]])
    return 0 if doc["pass"] else 1


def write_output(path, data):
    """Write an output file; a path that cannot be written is a usage error,
    reported as one stderr line with exit code 2."""
    try:
        pathlib.Path(path).write_bytes(data)
    except OSError as exc:
        click.echo(f"error: cannot write {path}: {exc.strerror or exc}",
                   err=True)
        sys.exit(2)


def write_csv(path, rows):
    text = io.StringIO(newline="")
    w = csv.writer(text)
    w.writerow(["degree", "expression"])
    w.writerows(rows)
    write_output(path, text.getvalue().encode())


def run_check(compute, command, cache_params, no_cache, json_path, csv_path):
    """Cache-aware driver for the identity-check subcommands."""
    key = cache_key(command, cache_params)
    data = None if no_cache else cache_get(key)
    if data is None:
        data = compute().to_json().encode()
        if not no_cache:
            try:
                cache_put(key, data)
            except OSError as exc:
                # the cache only saves a recomputation; the report stands
                click.echo(f"warning: cannot write cache entry: {exc}",
                           err=True)
    sys.exit(emit_report(data, json_path, csv_path))


backend_opts = [
    click.option("--backend", type=click.Choice(["symbolic", "eval"]),
                 default="symbolic", show_default=True),
    click.option("--points", type=click.IntRange(min=1), default=5,
                 show_default=True,
                 help="Evaluation points for the eval backend."),
    click.option("--seed", type=int, default=42, show_default=True),
]

report_opts = [
    click.option("--threads", type=click.IntRange(min=1), default=1,
                 show_default=True, expose_value=False,
                 help="Accepted and ignored: checks run in one thread."),
    click.option("--json", "json_path", type=click.Path(), default=None,
                 help="Write the JSON report here."),
    click.option("--csv", "csv_path", type=click.Path(), default=None,
                 help="Write a degree,expression coefficient table here."),
    click.option("--no-cache", is_flag=True, default=False),
]


def add_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return wrap


class WallxGroup(click.Group):
    """The command group: a WallxError that escapes a command becomes one
    stderr line and exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WallxError as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


@click.group(cls=WallxGroup)
@click.version_option(__version__)
def main():
    """Exact wall-crossing and stability-chamber checks."""


# ---------------------------------------------------------------------------
# stability plane


@main.command()
@click.option("--kmax", type=click.IntRange(min=0), default=3,
              show_default=True)
def walls(kmax):
    """List all walls with index up to KMAX."""
    for label, (a, b) in walls_up_to(kmax):
        line = f"{a}*theta0 + {b}*theta1 = 0"
        click.echo(f"{str(label):8s} {line:28s} {wall_halfplane(label)}")


@main.command()
@click.option("--theta", required=True,
              help="Stability parameter as two rationals p/q,p/q.")
@click.option("--kmax", type=click.IntRange(min=0), default=10,
              show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def classify(theta, kmax, json_path):
    """Locate THETA among walls and chambers."""
    th = parse_theta(theta)
    res = classify_theta(th, kmax)
    click.echo(f"theta={th} -> {res}")
    if json_path:
        doc = {
            "command": "classify",
            "params": {"theta": [str(th.th0), str(th.th1)], "kmax": kmax},
            "kind": res.kind,
            "wall": str(res.wall) if res.wall else None,
            "chamber": res.chamber,
            "t": str(res.t) if res.t is not None else None,
            "interval": list(res.interval) if res.interval else None,
        }
        write_output(json_path, (json.dumps(doc, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# identity checks


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--dmax", type=click.IntRange(min=1), default=4,
              show_default=True)
@add_options(backend_opts)
@add_options(report_opts)
def js(k, dmax, backend, points, seed, json_path, csv_path, no_cache):
    """Check the localization sum at the wall Lmm:k against its closed forms."""
    be, be_params = make_backend(backend, points, seed)
    run_check(
        lambda: check_js(k, dmax, backend=be),
        "js", {"k": k, "dmax": dmax, **be_params},
        no_cache, json_path, csv_path,
    )


@main.command()
@click.option("--wall", required=True, help="Wall label, e.g. Lmm:2.")
@click.option("--i0", "i0_text", required=True,
              help="Reference object: OX, IlP1:l, or IP1.")
@click.option("--tmax", type=click.IntRange(min=0), default=3,
              show_default=True)
@click.option("--sign-override", "sign_overrides", multiple=True,
              help="LABEL=+1 or LABEL=-1; may repeat.")
@add_options(backend_opts)
@add_options(report_opts)
def wallcross(wall, i0_text, tmax, sign_overrides, backend, points, seed,
              json_path, csv_path, no_cache):
    """Check the wall quotient series against (1-t)^{k m/lam3}."""
    try:
        label = parse_wall_label(wall)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if label.family != "Lmm":
        raise click.UsageError("only Lmm:k walls carry classified fibers")
    try:
        i0 = parse_i0(i0_text)
        check_wall_i0(label.index, i0)
    except UnsupportedConfiguration as exc:
        raise click.UsageError(str(exc))
    overrides = parse_sign_overrides(sign_overrides)
    if overrides:
        known = {fp.label for d in range(tmax + 1)
                 for fiber in (fiber_plus, fiber_minus)
                 for fp in fiber(label.index, i0, d)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise click.UsageError(
                f"--sign-override names no fixed point up to t^{tmax}: "
                + ", ".join(unknown))
    be, be_params = make_backend(backend, points, seed)
    run_check(
        lambda: check_wallcross(label.index, i0, tmax, backend=be,
                                sign_override=overrides),
        "wallcross",
        {"wall": str(label), "i0": i0_label(i0), "tmax": tmax,
         "sign_override": sorted((overrides or {}).items()), **be_params},
        no_cache, json_path, csv_path,
    )


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--dmax", type=click.IntRange(min=0), default=4,
              show_default=True)
@add_options(report_opts)
def dimred(k, dmax, json_path, csv_path, no_cache):
    """Check the specialization m = lam3 against the 3-fold model."""
    run_check(
        lambda: check_dimred(k, dmax),
        "dimred", {"k": k, "dmax": dmax},
        no_cache, json_path, csv_path,
    )


@main.command("insertion-free")
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--dmax", type=click.IntRange(min=0), default=3,
              show_default=True)
@add_options(report_opts)
def insertion_free(k, dmax, json_path, csv_path, no_cache):
    """Check the bare square-root Euler class series."""
    run_check(
        lambda: check_insertion_free(k, dmax),
        "insertion-free", {"k": k, "dmax": dmax},
        no_cache, json_path, csv_path,
    )


# ---------------------------------------------------------------------------
# series, single contributions, sign search


@main.command()
@click.option("--kind", required=True,
              type=click.Choice(["PT", "MacMahon", "NC", "primary:I",
                                 "primary:II_III", "primary:IV",
                                 "primary:other"]))
@click.option("--qmax", type=click.IntRange(min=0), default=3,
              show_default=True)
@click.option("--tmax", type=click.IntRange(min=0), default=None,
              help="Laurent t window (defaults to qmax), applied once to "
                   "the q-truncated product: PT 0 <= j <= tmax, MacMahon "
                   "j = 0, NC and primary |j| <= tmax.")
@click.option("--gamma", default="1", show_default=True,
              help="Insertion pairing (rational) for the primary kinds.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def series(kind, qmax, tmax, gamma, csv_path):
    """Expand a named reference series."""
    gamma = parse_gamma(gamma)
    if kind.startswith("primary:"):
        s = primary_series(kind.split(":", 1)[1], gamma, qmax, tmax)
    else:
        s = product_series(kind, qmax, tmax)
    rows = []
    for (n, j) in sorted(s.coeffs):
        rows.append((f"q^{n}*t^{j}", str(s.coeffs[(n, j)])))
        click.echo(f"  {rows[-1][0]:12s} {rows[-1][1]}")
    if csv_path:
        write_csv(csv_path, rows)


@main.command("contribution")
@click.option("--label", required=True,
              help='Fixed-point label, e.g. "js:k=2,d=3,comp=2,1".')
def contribution_cmd(label):
    """Print the signed equivariant contribution of one fixed point."""
    try:
        fp = parse_label(label)
    except UnsupportedConfiguration as exc:
        raise click.UsageError(str(exc))
    value = contribution(fp)
    click.echo(f"label   : {fp.label}")
    click.echo(f"support : {fp.support}")
    click.echo(f"chi,deg : {fp.chi},{fp.deg}")
    click.echo(f"value   : {value}")


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--d", type=click.IntRange(min=0), required=True)
@click.option("--cap", type=click.IntRange(min=0), default=20,
              show_default=True,
              help="Abort if more than CAP fixed points are involved.")
@add_options(backend_opts)
def signsearch(k, d, cap, backend, points, seed):
    """Search sign assignments making the degree-d localization sum match
    (-1)^d binom(k m/lam3, d)."""
    be, _ = make_backend(backend, points, seed)
    fps = js_fixed_points(k, d)
    if len(fps) > cap:
        raise click.UsageError(f"{len(fps)} fixed points exceed --cap {cap}")
    signs = sign_search(fps, wall_target(k, d).coeff(d), cap=cap, backend=be)
    if signs is None:
        click.echo("no sign assignment matches")
        sys.exit(1)
    for fp, s in zip(fps, signs):
        click.echo(f"  {'+' if s == 1 else '-'}1  {fp.label}")
    sys.exit(0)


if __name__ == "__main__":
    main()
