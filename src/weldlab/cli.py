"""Batch front end: build pairs, run operator and identity checks, and
write every report.

Commands
--------
pair      construct a cataloged pair and export it as JSON
grunsky   build the four operator blocks, report the block-relation residuals
logdet    determinant potential over a list of truncation orders
s1        quadrature report for the universal Liouville action
identity  the S1 vs -12 pi S2 check, one JSON report
invert    inversion-symmetry check (pair vs reflected curve)
fuchsian  octagon group suite (relation, area, automorphy, trace sums)
scl       classical-action report from a given s2_dg and genus
batch     run a file of command lines, one per line, in this process

Each command is one row of ``_COMMANDS``: its help line, its handler and
its flags, as data. ``_build_pair``, the step of every command that builds
a pair, times the catalog as the ``catalog`` stage ``--verbose`` prints;
``maps.catalog`` alone decides which parameter flags a family takes, and
the ``_PARAMS`` rows alone list them. ``logdet`` builds only the map its
route reads, the side ``grunsky.ROUTES`` names (``maps.catalog_map``);
every other command builds the pair.

argparse reads every flag value: each flag that takes one converts it
where it is declared, ``--N`` to its strictly increasing orders and
``--grid`` to its three-grid ladder, so no handler parses a string.

Exit codes: 0 success, 1 a requested tolerance check failed, 2 invalid
input, 3 numerical failure (an array numpy cannot allocate included: one
line, no traceback). A malformed flag value is argparse's error, after
the command's usage; invalid input that ``main`` reports (a missing
family parameter, an unreadable file, a block past the memory cap)
prints ``error: ...`` and then the command's usage. Configuration may
come from ``--config`` files with ``key = value`` lines (``#``
comments), each key one of the command's own flags, a required one
(``--family``, ``--s2``) included; the file becomes flags in file order,
ahead of the command line's, so argparse checks every value, each line of
a repeated key included, and explicit flags win. The environment variable
``WELDLAB_OUTDIR`` sets the default output directory. ``batch`` runs each
line through ``main`` as its own process would, prints ``line <n>: exit
<code>`` to stderr, and exits with the largest code; its lines share the
catalog's cache of 64 pairs and single maps.

Every JSON report, the pair's included, is written by ``_write_report``
in one layout, and carries a ``conventions`` block naming the basis, the
sign of the operator entries, and both sign conventions of the potential,
since the literature disagrees on them. A report that would hold NaN or an
infinity is not written (exit 3): json has no such values. The family and
its parameters enter a report from the parsed flags; a pair does not
carry them.

The command-line process runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is already set. Each command is one short process
on small matrices: a second BLAS thread makes ``import numpy`` slower and
the first LAPACK call of a fresh process sometimes stall, and saves no wall
time. The setting is made before any layer loads numpy, so it holds when
this module is run as a program; a program that imported numpy first
keeps its own.

Each command imports the layer modules it calls inside its own function,
so a process loads only what its command reads: building the parser
imports no layer module and adds the flags of the command it parses
alone, ``fuchsian`` loads ``weldlab.fuchsian`` alone,
``scl`` loads ``weldlab.classical`` alone, and ``pair`` loads ``maps``
and ``series``. The family names are ``FAMILIES`` here, for the same
reason. This module and
``weldlab.fuchsian`` and ``weldlab.classical`` import no numpy, so
``--help``, ``fuchsian`` and ``scl`` run without it (``--verbose`` loads
it to print its version); every other command loads it through its
layers. ``fuchsian`` reads the area and its three trace sums from one
``fuchsian.trace_sums``, which integrates each of four node counts once.

Run as a program, the module calls ``gc.freeze()`` after ``main``
returns: the collections of interpreter shutdown then skip every object
the process made, which saved a child holding numpy and the layers about
18 ms on 2 CPUs; atexit handlers and stream flushes still run. ``main``
itself does not freeze, so ``batch`` and a program that calls it collect
as usual.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__  # noqa: E402  (set before any layer loads numpy)
from .errors import InvalidInput, NumericalFailure

# the cataloged families (the rows of ``maps.FAMILIES``, which decide their
# parameters)
FAMILIES = ("identity", "ellipse", "fourier_bump")

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


def _write_text(path: str, text: str, verbose: bool):
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        fh.write(text)
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


def _coeff_list_json(coeffs) -> str:
    """``coeffs`` as [re, im] pairs in the layout ``json.dumps(indent=2)``
    gives a list under a top-level key; a series has finite coefficients."""
    pairs = ",\n".join([f"    [\n      {re!r},\n      {im!r}\n    ]"
                        for re, im in zip(coeffs.real.tolist(),
                                          coeffs.imag.tolist())])
    return f"[\n{pairs}\n  ]"


def _write_report(args, doc: dict, default_name: str, coeffs=None):
    """Write ``doc`` with the conventions block as the text of
    ``json.dumps(indent=2, sort_keys=True)`` and a newline, and return its
    path. ``coeffs`` maps further top-level keys to coefficient arrays,
    rendered by ``_coeff_list_json``, not by json's pure-Python indenting
    encoder. A non-finite value (json has none) is a numerical failure,
    and no file is written."""
    coeffs = coeffs or {}
    doc = {**doc, **dict.fromkeys(coeffs), "conventions": CONVENTIONS}
    path = args.out or os.path.join(os.environ.get("WELDLAB_OUTDIR", "."),
                                    default_name)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"report {path} holds a non-finite value: "
                               f"{exc}") from exc
    for key, values in coeffs.items():
        # a top-level key is the one at a two-space indent
        text = text.replace(f'\n  "{key}": null',
                            f'\n  "{key}": {_coeff_list_json(values)}', 1)
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


def _build_pair(args, side=None):
    """The pair the family flags name (with ``side``, the map of that side
    alone), built under the ``catalog`` stage, and the head of its report:
    the family and its parameters as given, each passed to the catalog."""
    params = {flag[2:]: getattr(args, flag[2:]) for (flag,), _ in _PARAMS
              if getattr(args, flag[2:]) is not None}
    with _stage(args, "catalog"):
        from . import maps as mp
        built = (mp.catalog(args.family, **params) if side is None
                 else mp.catalog_map(args.family, side, **params))
    return built, {"family": args.family, "params": params}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_pair(args) -> int:
    pair, head = _build_pair(args)
    g_inf = pair.g_prime_at_infinity
    doc = {
        "family_tag": head["family"], "params": head["params"],
        "taylor_resolved": pair.interior.resolved,
        "laurent_resolved": pair.exterior.resolved,
        "g_prime_at_infinity": [g_inf.real, g_inf.imag],
        "M": pair.sample_count,
        "residuals": {k: float(v) for k, v in pair.residuals.items()},
    }
    _write_report(args, doc, f"pair_{args.family}.json",
                  coeffs={"taylor_coeffs": pair.interior.coeffs,
                          "laurent_coeffs": pair.exterior.coeffs})
    return EXIT_OK


def _cmd_grunsky(args) -> int:
    from . import grunsky as gk
    n = args.N[-1]
    pair, head = _build_pair(args)
    with _stage(args, "blocks"):
        b1, b4 = gk.build_b1(pair.interior, n), gk.build_b4(pair.exterior, n)
        b2, b3 = gk.build_b2_b3(pair.interior, pair.exterior, n)
    with _stage(args, "relations"):
        residuals = gk.grunsky_identity_residual(b1, b2, b3, b4)
        norms = (gk.spectral_norm(b1), gk.spectral_norm(b4))
    doc = {
        **head, "N": n,
        "relation_residuals": list(residuals),
        "leading_block": n // 2,
        "spectral_norm_b1": norms[0],
        "spectral_norm_b4": norms[1],
    }
    path = _write_report(args, doc, f"grunsky_{args.family}_N{n}.json")
    if args.dump_matrices:
        base = os.path.splitext(path)[0]
        for name, mtx in (("b1", b1), ("b2", b2), ("b3", b3), ("b4", b4)):
            _write_text(f"{base}_{name}.csv", gk.matrix_to_csv(mtx), args.verbose)
    worst = max(residuals)
    return EXIT_OK if worst <= args.tol else EXIT_CHECK_FAILED


def _cmd_logdet(args) -> int:
    from . import grunsky as gk
    h, head = _build_pair(args, gk.ROUTES[args.route])
    report = gk.potential(h, args.N, functools.partial(_stage, args))
    doc = {**head, "route": args.route, "report": report.to_dict(),
           "s2_univ": report.extrapolated, "s2_dg": -report.extrapolated}
    _write_report(args, doc, f"logdet_{args.family}_{args.route}.json")
    return EXIT_OK


def _cmd_s1(args) -> int:
    from . import liouville as lv
    pair, head = _build_pair(args)
    with _stage(args, "quadrature"):
        report = lv.s1(pair, args.grid)
    doc = {**head, "report": report.to_dict(), "S1": report.extrapolated}
    _write_report(args, doc, f"s1_{args.family}.json")
    return EXIT_OK


def _cmd_identity(args) -> int:
    from . import liouville as lv
    pair, head = _build_pair(args)
    doc = {**head, **lv.identity_report(pair, args.grid, args.N,
                                        stage=functools.partial(_stage, args))}
    _write_report(args, doc, f"identity_{args.family}.json")
    rel = doc["residual_identity_relative"]
    return EXIT_OK if rel <= args.tol else EXIT_CHECK_FAILED


def _cmd_invert(args) -> int:
    from . import grunsky as gk
    n = args.N[-1]
    pair, head = _build_pair(args)
    doc = {**head, "N": n,
           **gk.inversion_check(pair, n, stage=functools.partial(_stage, args))}
    _write_report(args, doc, f"invert_{args.family}.json")
    ok = doc["symmetry_gap"] <= args.tol and doc["route_gap"] <= args.tol
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_fuchsian(args) -> int:
    from . import fuchsian as fx
    group = fx.octagon_group()
    enum = fx.enumerate_elements(group, args.L)
    area, sums = fx.trace_sums(group)
    points = fx.disk_points(128, 0.8)
    zs, ws = points[0::2], points[1::2]
    autom = max(fx.automorphy_residual(fx.bergman_kernel, g, zs, ws)
                for g in group.generators)
    doc = {
        "relation_residual": group.relation_residual(),
        "relation_word": list(group.relation_word),
        "translation_length": group.translation_length,
        "vertex_radius": group.vertex_radius,
        "element_count": {"L": args.L, "count": enum.count},
        "area_integral": area,
        "genus_minus_one": group.genus - 1,
        "bergman_automorphy_residual": autom,
        "alternating_trace_sums": sums,
    }
    _write_report(args, doc, "fuchsian_octagon.json")
    ok = (doc["relation_residual"] <= 1e-10
          and abs(area["value"] - (group.genus - 1)) <= 1e-12
          and autom <= 1e-10
          and all(abs(v) <= 1e-12 for v in sums.values()))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_scl(args) -> int:
    from .classical import s_cl_report
    doc = s_cl_report(args.s2, args.genus)
    _write_report(args, doc, "scl.json")
    return EXIT_OK


def _batch_line(argv: list) -> int:
    """One batch line's exit code, run by ``main`` as in its own process."""
    if argv[0] == "batch":
        print("error: a batch line cannot run batch", file=sys.stderr)
        return EXIT_INVALID
    try:
        return main(argv)
    except SystemExit as exc:           # argparse: 2 on an error, 0 after --help
        return exc.code
    except Exception:                   # a fault, reported as the process would
        import traceback
        traceback.print_exc()
        return 1


def _cmd_batch(args) -> int:
    """Run the lines of ``args.file`` (``-``: stdin), each split as a shell
    splits it (``#`` comments), and return the largest exit code. A failing
    line does not stop the lines after it."""
    import shlex
    text = sys.stdin.read() if args.file == "-" else _read_text(args.file, "")
    lines = []
    for n, raw in enumerate(text.splitlines(), 1):
        try:
            argv = shlex.split(raw, comments=True)
        except ValueError as exc:       # an unclosed quote: nothing runs
            raise InvalidInput(f"{args.file} line {n}: {exc}") from exc
        if argv:
            lines.append((n, argv))
    worst = EXIT_OK
    for n, argv in lines:
        with _stage(args, f"line {n}"):
            code = _batch_line(argv)
        print(f"line {n}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _read_text(path: str, flag: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {flag}{path}: {exc.strerror}") from exc


# the values a config file may give a switch such as --verbose
_BOOLEAN = {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}


def _config_flags(flags, argv) -> list:
    """The ``--config`` file of a command's flags ``argv``, read as argparse
    reads it, as flags in file order, ``--name=value`` or a bare switch,
    which ``main`` puts ahead of ``argv``: argparse converts and checks
    each value, every line of a repeated key included, and a flag of
    ``argv``, read later, wins. A key must name one of the command's ``flags`` and a switch's
    value be one of ``_BOOLEAN``; a malformed ``--config`` is left to the
    full parse to report."""
    by_key = {names[0].lstrip("-").replace("-", "_"): (names[0], keywords)
              for names, keywords in flags}
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        path = None
    if not path or "config" not in by_key:
        return []
    tokens = []
    for raw in _read_text(path, "--config ").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"bad config line: {raw.rstrip()}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in by_key:
            raise InvalidInput(f"unknown config key: {key}")
        name, keywords = by_key[key]
        if keywords.get("action") != "store_true":
            tokens.append(f"{name}={val}")
        elif val.lower() not in _BOOLEAN:
            raise InvalidInput(f"config key {key} = {val.lower()!r} is not "
                               f"one of {', '.join(_BOOLEAN)}")
        elif _BOOLEAN[val.lower()]:
            tokens.append(name)
    return tokens


def _finite_float(text: str) -> float:
    """argparse type of ``--tol`` and ``--s2``: nan and inf are invalid."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int(text: str) -> int:
    """argparse type of an integer flag: digits, after a minus sign for a
    negative value; int() also reads "+8", "1_6" and " 3"."""
    if text.removeprefix("-").isdigit() and text.isascii():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _ints(text: str, sep: str) -> list:
    """The ``sep``-separated integers of a flag value ``text``."""
    try:
        return [_int(tok) for tok in text.split(sep)]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not {sep!r}-separated int values") from None


def _orders(text: str) -> list:
    """argparse type of ``--N``: truncation orders, strictly increasing,
    each >= 1, so a bad list is refused before any pair is built."""
    orders = _ints(text, ",")
    if orders[0] < 1 or any(b <= a for a, b in zip(orders, orders[1:])):
        raise argparse.ArgumentTypeError(
            f"{text!r} must be strictly increasing orders N >= 1")
    return orders


def _grid_ladder(text: str) -> list:
    """argparse type of ``--grid``: three grids, coarsest first, each
    halving the next in both directions down from ``text``; every one must
    be at least 2 x 4."""
    sizes = _ints(text, "x")
    if len(sizes) != 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not 'x'-separated int values")
    grids = [(sizes[0] // 2 ** k, sizes[1] // 2 ** k) for k in (2, 1, 0)]
    for g in grids:
        if g[0] < 2 or g[1] < 4:
            raise argparse.ArgumentTypeError(
                f"{text!r} gives a {g[0]}x{g[1]} grid in its 3-level "
                "ladder; each needs at least 2x4")
    return grids


# flags as (names, keywords) of ``add_argument``; a command takes those it
# reads alone, unabbreviated (``allow_abbrev=False``), so another command's
# flag is rejected, not read as a prefix (``fuchsian --c`` for ``--config``)
_SHARED = [(("--config",), {"help": "key = value config file"}),
           (("--out",), {"help": "output file path"}),
           (("--verbose", "-v"), {"action": "store_true"})]
_PARAMS = [(("--c",), {"type": float, "help": "ellipse parameter"}),
           (("--eps",), {"type": float, "help": "bump amplitude"}),
           (("--k",), {"type": _int, "help": "bump frequency"})]
_FAMILY = [(("--family",), {"required": True, "choices": FAMILIES})] + _PARAMS
_ORDERS = [(("--N",), {"type": _orders, "default": "64",
                       "help": "comma-separated truncation orders"})]
_GRID = [(("--grid",), {"type": _grid_ladder, "default": "256x512",
                        "help": "n_r x n_theta"})]


def _tol(default) -> list:
    return [(("--tol",), {"type": _finite_float, "default": default, "help":
                          "tolerance for the command's pass/fail check"})]


# each command, in the order of the top-level help: its help line, its
# handler and its flags, in the order of its help
_COMMANDS = {
    "pair": ("construct and export a pair", _cmd_pair, _SHARED + _FAMILY),
    "grunsky": ("operator blocks and residuals", _cmd_grunsky,
                _SHARED + _tol(1e-5) + _FAMILY + _ORDERS
                + [(("--dump-matrices",), {"action": "store_true"})]),
    "logdet": ("determinant potential", _cmd_logdet,
               _SHARED + _FAMILY + _ORDERS
               + [(("--route",), {"choices": ["b1", "b4"], "default": "b1"})]),
    "s1": ("Liouville action quadrature", _cmd_s1, _SHARED + _FAMILY + _GRID),
    "identity": ("S1 vs -12 pi S2 check", _cmd_identity,
                 _SHARED + _tol(1e-3) + _FAMILY + _ORDERS + _GRID),
    "invert": ("inversion-symmetry check", _cmd_invert,
               _SHARED + _tol(1e-6) + _FAMILY + _ORDERS),
    "fuchsian": ("octagon basepoint suite", _cmd_fuchsian,
                 _SHARED + [(("--L",), {"type": _int, "default": 2,
                                        "help": "enumeration word length"})]),
    "scl": ("classical-action report", _cmd_scl,
            _SHARED + [(("--s2",), {"type": _finite_float, "required": True,
                                    "help": "s2_dg >= 0"}),
                       (("--genus",), {"type": _int, "default": 2})]),
    "batch": ("run a file of command lines in one process", _cmd_batch,
              [(("file",), {"metavar": "FILE",
                            "help": "one command line per line ('-': stdin)"}),
               (("--verbose", "-v"), {"action": "store_true"})]),
}


def _build_parser(command):
    """The parser with a subparser for every command, and the subparser of
    ``command`` (None if no command has that name), the one that gets its
    flags: a process parses one command, and the others' ~60 arguments
    would be built for nothing. The top-level help and its "invalid
    choice" message list all nine."""
    parser = argparse.ArgumentParser(
        prog="weldlab",
        description="Welding-pair potentials: determinants vs quadrature")
    subs = parser.add_subparsers(dest="command", required=True)
    chosen = None
    for name, (help, _, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help, allow_abbrev=False)
        if name == command:
            chosen = sub
            for names, keywords in flags:
                sub.add_argument(*names, **keywords)
    return parser, chosen


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub = _build_parser(argv[0] if argv else None)
    try:
        if sub:
            argv[1:1] = _config_flags(_COMMANDS[argv[0]][2], argv[1:])
        args = parser.parse_args(argv)
        if args.verbose:
            import numpy as np
            print(f"weldlab {__version__}, numpy {np.__version__}, "
                  f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}",
                  file=sys.stderr)
        return _COMMANDS[args.command][1](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        sub.print_usage(sys.stderr)
        return EXIT_INVALID
    except (NumericalFailure, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    code = main()
    # move every object to the permanent generation, which the collections
    # of interpreter shutdown skip; atexit handlers and stream flushes run
    gc.freeze()
    sys.exit(code)
