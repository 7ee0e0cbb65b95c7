"""Batch front end: build pairs, run operator and identity checks, emit
machine-readable reports.

Commands
--------
pair      construct a cataloged pair and export it as JSON
grunsky   build the four operator blocks, report the block-relation residuals
logdet    determinant potential over a list of truncation orders
s1        quadrature report for the universal Liouville action
identity  the S1 vs -12 pi S2 check, one JSON report
invert    inversion-symmetry check (pair vs reflected pair)
fuchsian  octagon group suite (relation, area, automorphy, trace sums)
scl       classical-action report from a given s2_dg and genus
sweep     CSV table over a parameter range

Exit codes: 0 success, 1 a requested tolerance check failed, 2 invalid
input, 3 numerical failure. Configuration may come from ``--config`` files
with ``key = value`` lines (``#`` comments); explicit flags win. The
environment variable ``WELDLAB_OUTDIR`` sets the default output directory.

Every JSON report carries a ``conventions`` block naming the basis, the
sign of the operator entries, and both sign conventions of the potential,
since the literature disagrees on them. A report that would hold NaN or an
infinity is not written (exit 3): json has no such values.

The command-line process runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set. Each command is one short process
on small matrices: a second BLAS thread makes ``import numpy`` slower and
the first LAPACK call of a fresh process sometimes stall, and saves no wall
time. The setting is made before any layer loads numpy, so it holds when
this module is run as a program; a program that imported numpy first
keeps its own.

Each command imports the layer modules it calls inside its own function,
so a process loads only what its command reads: building the parser
imports no layer module, ``fuchsian`` loads ``weldlab.fuchsian`` alone,
``scl`` loads ``weldlab.classical`` alone, and ``pair`` loads ``maps``
and ``series``. The families and their parameters are ``FAMILY_PARAMS``
here, the one table of them, for the same reason. This module and
``weldlab.fuchsian`` and ``weldlab.classical`` import no numpy, so
``--help``, ``fuchsian`` and ``scl`` run without it (``--verbose`` loads
it to print its version); every other command loads it through its
layers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__  # noqa: E402  (set before any layer loads numpy)
from .errors import InvalidInput, NumericalFailure

# the parameters of each cataloged family (``maps.catalog``), in the order
# the command line names them
FAMILY_PARAMS = {"identity": (), "ellipse": ("c",), "fourier_bump": ("eps", "k")}

CONVENTIONS = {
    "basis": "e_n(z) = sqrt(n/pi) z^(n-1); estar_n(w) = sqrt(n/pi) w^(-n-1)",
    "block_sign": "b1[m,n] = -sqrt(mn) b_mn (global sign cancels in BB*)",
    "s2_univ": "log det(I - B B*) <= 0",
    "s2_dg": "-s2_univ >= 0 (regularized-trace sign)",
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    return f"{x:.17g}"


def _out_path(args, default_name: str):
    if args.out:
        return args.out
    outdir = os.environ.get("WELDLAB_OUTDIR", ".")
    return os.path.join(outdir, default_name)


def _write_text(path: str, text: str, verbose: bool):
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        fh.write(text)
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


def _json_text(path: str, render) -> str:
    """``render()``, the JSON text of report ``path``; the ValueError it
    raises on a non-finite value (json has none) is a numerical failure."""
    try:
        return render()
    except ValueError as exc:
        raise NumericalFailure(f"report {path} holds a non-finite value: "
                               f"{exc}") from exc


def _write_report(args, doc: dict, default_name: str):
    doc = dict(doc)
    doc["conventions"] = CONVENTIONS
    path = _out_path(args, default_name)
    text = _json_text(path, lambda: json.dumps(
        doc, indent=2, sort_keys=True, allow_nan=False))
    _write_text(path, text + "\n", args.verbose)
    return path


@contextlib.contextmanager
def _stage(args, name: str):
    """Time the enclosed stage of a command; under ``--verbose``, print its
    wall time to stderr. Timings never enter a report, so every report is
    byte-identical with and without the flag."""
    start = time.perf_counter()
    yield
    if args.verbose:
        print(f"{args.command} {name}: {time.perf_counter() - start:.3f} s",
              file=sys.stderr)


def _family_params(args) -> dict:
    names = FAMILY_PARAMS[args.family]
    params = {name: getattr(args, name) for name in names}
    if None in params.values():
        raise InvalidInput(f"{args.family} needs "
                           + " and ".join(f"--{name}" for name in names))
    return params


def _build_pair(args):
    from . import maps as mp
    return mp.catalog(args.family, **_family_params(args))


def _numbers(args, flag: str, sep: str, cast, count: int = 0) -> list:
    """The ``sep``-separated numbers of flag ``--<flag>`` (``count`` of
    them, when given)."""
    text = getattr(args, flag)
    try:
        values = [cast(tok) for tok in text.split(sep)]
    except ValueError:
        values = []
    if not values or (count and len(values) != count):
        raise InvalidInput(f"--{flag} {text!r} is not {sep!r}-separated "
                           f"{cast.__name__} values")
    return values


def _orders(args):
    """The truncation orders of ``--N``: strictly increasing, each >= 1.
    Every command reads them before it builds a pair."""
    orders = _numbers(args, "N", ",", int)
    if orders[0] < 1 or any(b <= a for a, b in zip(orders, orders[1:])):
        raise InvalidInput(f"--N {args.N!r} must be strictly increasing "
                           "orders N >= 1")
    return orders


def _grid_ladder(args, levels: int) -> list:
    """``levels`` grids, coarsest first, each halving the next in both
    directions down from ``--grid``; every one must be at least 2 x 4."""
    n_r, n_theta = _numbers(args, "grid", "x", int, 2)
    grids = [(n_r // 2 ** k, n_theta // 2 ** k) for k in range(levels - 1, -1, -1)]
    for g in grids:
        if g[0] < 2 or g[1] < 4:
            raise InvalidInput(f"--grid {args.grid!r} gives a {g[0]}x{g[1]} "
                               f"grid in its {levels}-level ladder; each "
                               "needs at least 2x4")
    return grids


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_pair(args) -> int:
    from . import maps as mp
    pair = _build_pair(args)
    path = _out_path(args, f"pair_{args.family}.json")
    text = _json_text(path, lambda: mp.pair_to_json(
        pair, {"conventions": CONVENTIONS}))
    _write_text(path, text + "\n", args.verbose)
    return EXIT_OK


def _cmd_grunsky(args) -> int:
    from . import grunsky as gk
    n = max(_orders(args))
    with _stage(args, "catalog"):
        pair = _build_pair(args)
    with _stage(args, "blocks"):
        b1, b4 = gk.build_b1(pair, n), gk.build_b4(pair, n)
        b2, b3 = gk.build_b2_b3(pair, n)
    with _stage(args, "relations"):
        residuals = gk.grunsky_identity_residual(b1, b2, b3, b4)
        norms = (gk.spectral_norm(b1), gk.spectral_norm(b4))
    doc = {
        "family": pair.family_tag, "params": pair.params, "N": n,
        "relation_residuals": list(residuals),
        "leading_block": n // 2,
        "spectral_norm_b1": norms[0],
        "spectral_norm_b4": norms[1],
    }
    _write_report(args, doc, f"grunsky_{args.family}_N{n}.json")
    if args.dump_matrices:
        base = _out_path(args, f"grunsky_{args.family}_N{n}")
        for name, mtx in (("b1", b1), ("b2", b2), ("b3", b3), ("b4", b4)):
            _write_text(f"{base}_{name}.csv", gk.matrix_to_csv(mtx), args.verbose)
    worst = max(residuals)
    return EXIT_OK if worst <= args.tol else EXIT_CHECK_FAILED


def _cmd_logdet(args) -> int:
    from . import grunsky as gk
    orders = _orders(args)
    n = max(orders)
    with _stage(args, "catalog"):
        pair = _build_pair(args)
    route = args.route
    with _stage(args, "blocks"):
        b = gk.build_b1(pair, n) if route == "b1" else gk.build_b4(pair, n)
    with _stage(args, "determinant"):
        report = gk.logdet_potential(b, orders)
    doc = {"family": pair.family_tag, "params": pair.params, "route": route,
           "report": report.to_dict(),
           "s2_univ": report.extrapolated, "s2_dg": -report.extrapolated}
    _write_report(args, doc, f"logdet_{args.family}_{route}.json")
    return EXIT_OK


def _cmd_s1(args) -> int:
    from . import liouville as lv
    grids = _grid_ladder(args, 3)
    with _stage(args, "catalog"):
        pair = _build_pair(args)
    with _stage(args, "quadrature"):
        report = lv.s1(pair, grids)
    doc = {"family": pair.family_tag, "params": pair.params,
           "report": report.to_dict(), "S1": report.extrapolated}
    _write_report(args, doc, f"s1_{args.family}.json")
    return EXIT_OK


def _cmd_identity(args) -> int:
    from . import liouville as lv
    grids, orders = _grid_ladder(args, 3), _orders(args)
    with _stage(args, "catalog"):
        pair = _build_pair(args)
    doc = lv.identity_report(pair, grids, orders,
                             stage=functools.partial(_stage, args))
    _write_report(args, doc, f"identity_{args.family}.json")
    rel = doc["residual_identity_relative"]
    return EXIT_OK if rel <= args.tol else EXIT_CHECK_FAILED


def _cmd_invert(args) -> int:
    from . import grunsky as gk
    n = max(_orders(args))
    with _stage(args, "catalog"):
        pair = _build_pair(args)
    chk = gk.inversion_check(pair, n, stage=functools.partial(_stage, args))
    doc = {"family": pair.family_tag, "params": pair.params, "N": n,
           "s2_pair_b1": chk.s2_pair_b1,
           "s2_inverted_b1": chk.s2_inverted_b1,
           "s2_pair_b4": chk.s2_pair_b4,
           "symmetry_gap": chk.symmetry_gap,
           "route_gap": chk.route_gap}
    _write_report(args, doc, f"invert_{args.family}.json")
    ok = chk.symmetry_gap <= args.tol and chk.route_gap <= args.tol
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_fuchsian(args) -> int:
    from . import fuchsian as fx
    group = fx.octagon_group()
    enum = fx.enumerate_elements(group, args.L)
    area = fx.domain_area_integral(group)
    points = fx.disk_points(128, 0.8)
    zs, ws = points[0::2], points[1::2]
    autom = max(fx.automorphy_residual(fx.bergman_kernel, g, zs, ws)
                for g in group.generators)
    sums = {n: fx.alternating_trace_sum(group, n) for n in (1, 2, 3)}
    doc = {
        "relation_residual": group.relation_residual(),
        "relation_word": list(group.relation_word),
        "translation_length": group.translation_length,
        "vertex_radius": group.vertex_radius,
        "element_count": {"L": args.L, "count": enum.count},
        "area_integral": area,
        "genus_minus_one": group.genus - 1,
        "bergman_automorphy_residual": autom,
        "alternating_trace_sums": {str(k): v for k, v in sums.items()},
    }
    _write_report(args, doc, "fuchsian_octagon.json")
    ok = (group.relation_residual() <= 1e-10
          and abs(area["value"] - (group.genus - 1)) <= 1e-12
          and autom <= 1e-10
          and all(abs(v) <= 1e-12 for v in sums.values()))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_scl(args) -> int:
    from .classical import s_cl_report
    doc = s_cl_report(args.s2, args.genus)
    _write_report(args, doc, "scl.json")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import liouville as lv
    from . import maps as mp
    from .classical import s_cl_report
    if args.family != "ellipse":
        raise InvalidInput("sweep currently supports the ellipse family")
    start, stop, step = _numbers(args, "range", ":", float, 3)
    # the loop below yields a value and ends only from a start at or below
    # a finite stop, approached by a positive step
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0
            and start <= stop + 1e-12):
        raise InvalidInput(f"--range {args.range!r} needs finite bounds, "
                           "start <= stop and a step > 0")
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    orders = _orders(args)
    grids = _grid_ladder(args, 2)
    n_r, n_theta = grids[-1]
    header = ["family", "param", "S1", "S2_via_B1", "S2_via_B4",
              "residual_identity", "residual_operators", "slack",
              "N", "grid", "error"]
    rows = []
    any_failed = False
    stage = functools.partial(_stage, args)
    for c in values:
        try:
            with stage("catalog"):
                pair = mp.catalog("ellipse", c=c)
            rep = lv.identity_report(pair, grids, orders, stage=stage)
            scl = s_cl_report(max(-rep["S2_univ_via_B1"], 0.0), args.genus)
            rows.append([
                "ellipse", _fmt(c), _fmt(rep["S1"]),
                _fmt(rep["S2_univ_via_B1"]), _fmt(rep["S2_univ_via_B4"]),
                _fmt(rep["residual_identity"]),
                _fmt(rep["residual_operators"]), _fmt(scl["slack"]),
                str(max(orders)), f"{n_r}x{n_theta}", ""])
            if rep["residual_identity_relative"] > args.tol:
                any_failed = True
        except NumericalFailure as exc:
            rows.append(["ellipse", _fmt(c)] + [""] * 8 + [str(exc)])
            any_failed = True
    text = ",".join(header) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    path = _out_path(args, "sweep_ellipse.csv")
    _write_text(path, text, args.verbose)
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidInput(f"cannot read --config {path}: {exc.strerror}") from exc
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInput(f"bad config line: {raw.rstrip()}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _apply_config(parser, args, argv):
    """Re-parse ``argv`` with the ``--config`` file's values as the
    command's defaults: a flag given in ``argv`` under any spelling wins,
    and argparse converts each value by its flag's type."""
    if not args.config:
        return args
    defaults = {}
    for key, val in _read_config(args.config).items():
        if not hasattr(args, key):
            raise InvalidInput(f"unknown config key: {key}")
        if isinstance(getattr(args, key), bool):
            val = val.lower() in ("1", "true", "yes")
        defaults[key] = val
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    commands.choices[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _finite_float(text: str) -> float:
    """argparse type of ``--tol`` and ``--s2``: nan and inf are invalid."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_command(subs, name: str, help: str, tol=None, family=False,
                 params=False, orders=False, grid=False):
    """A subcommand with the shared flags it reads and no others. Flags
    cannot be abbreviated, so another command's flag is rejected, not read
    as a prefix (``sweep --c`` would mean ``--config``)."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--verbose", "-v", action="store_true")
    if tol is not None:
        sub.add_argument("--tol", type=_finite_float, default=tol,
                         help="tolerance for the command's pass/fail check")
    if family or params:
        sub.add_argument("--family", required=True,
                         choices=list(FAMILY_PARAMS))
    if params:
        sub.add_argument("--c", type=float, default=None, help="ellipse parameter")
        sub.add_argument("--eps", type=float, default=None, help="bump amplitude")
        sub.add_argument("--k", type=int, default=None, help="bump frequency")
    if orders:
        sub.add_argument("--N", default="64",
                         help="comma-separated truncation orders")
    if grid:
        sub.add_argument("--grid", default="256x512", help="n_r x n_theta")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weldlab",
        description="Welding-pair potentials: determinants vs quadrature")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "pair", "construct and export a pair", params=True)
    g = _add_command(subs, "grunsky", "operator blocks and residuals",
                     tol=1e-5, params=True, orders=True)
    g.add_argument("--dump-matrices", action="store_true")
    ld = _add_command(subs, "logdet", "determinant potential", params=True,
                      orders=True)
    ld.add_argument("--route", choices=["b1", "b4"], default="b1")
    _add_command(subs, "s1", "Liouville action quadrature", params=True,
                 grid=True)
    _add_command(subs, "identity", "S1 vs -12 pi S2 check", tol=1e-3,
                 params=True, orders=True, grid=True)
    _add_command(subs, "invert", "inversion-symmetry check", tol=1e-6,
                 params=True, orders=True)
    fz = _add_command(subs, "fuchsian", "octagon basepoint suite")
    fz.add_argument("--L", type=int, default=2, help="enumeration word length")
    sc = _add_command(subs, "scl", "classical-action report")
    sc.add_argument("--s2", type=_finite_float, required=True, help="s2_dg >= 0")
    sc.add_argument("--genus", type=int, default=2)
    sw = _add_command(subs, "sweep", "CSV sweep over a parameter range",
                      tol=1e-3, family=True, orders=True, grid=True)
    sw.add_argument("--range", default="0.1:0.5:0.1", help="start:stop:step")
    sw.add_argument("--genus", type=int, default=2)

    return parser


_COMMANDS = {
    "pair": _cmd_pair,
    "grunsky": _cmd_grunsky,
    "logdet": _cmd_logdet,
    "s1": _cmd_s1,
    "identity": _cmd_identity,
    "invert": _cmd_invert,
    "fuchsian": _cmd_fuchsian,
    "scl": _cmd_scl,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, args, argv)
        if args.verbose:
            import numpy as np
            print(f"weldlab {__version__}, numpy {np.__version__}, "
                  f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}",
                  file=sys.stderr)
        return _COMMANDS[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_INVALID
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
