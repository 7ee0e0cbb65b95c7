"""Benchmark of the weldlab command line: time to a verified answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is not installed, so
every invocation is a fresh ``python -m weldlab.cli`` with ``PYTHONPATH=src``,
one at a time. Each writes its report to its own file in a scratch
directory under ``.bench_work/``, which is removed at the end, and every
report is checked against references computed in ``workloads.py``.

``--trace 0`` builds the workload's inputs several times (``setup_s``),
then repeats the workload's invocations for about ``--seconds`` (a fixed
number of passes per workload, at least one) and reports medians over
passes. ``--trace 1`` runs one
plain pass and one pass under ``tracer.py`` and reports per-layer self times
and counts. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(tracer.__file__).resolve()
DEADLINE_S = 170.0          # kill a child still running this long after start
SELF_TIME_SHARE = 0.01      # allowed |sum(self) + cli.process_s - wall| / wall

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "answer_gap": "1"}

# per-layer times are inclusive times of the outermost call of one public
# function, except <layer>.self_s, which sums the layer's self times
FUNCTION_TIMES = {
    "maps.catalog_s": "maps.catalog",
    "maps.theodorsen_s": "maps.theodorsen_interior",
    "maps.boundary_check_s": "maps.pair_boundary_residual",
    "maps.inversion_s": "maps.inverted_pair",
    "series.evaluate_s": "series.evaluate",
    "series.coeffs_from_samples_s": "series.coeffs_from_samples",
    "liouville.s1_value_s": "liouville.s1_value",
    "liouville.identity_report_s": "liouville.identity_report",
    "grunsky.build_b1_s": "grunsky.build_b1",
    "grunsky.build_b4_s": "grunsky.build_b4",
    "grunsky.build_b2_b3_s": "grunsky.build_b2_b3",
    "grunsky.logdet_s": "grunsky.logdet_potential",
    "grunsky.spectral_norm_s": "grunsky.spectral_norm",
    "grunsky.relation_residual_s": "grunsky.grunsky_identity_residual",
    "grunsky.inversion_check_s": "grunsky.inversion_check",
    "fuchsian.area_s": "fuchsian.domain_area_integral",
    "fuchsian.trace_sum_s": "fuchsian.alternating_trace_sum",
    "fuchsian.enumerate_s": "fuchsian.enumerate_elements",
}
COUNTS = ("maps.theodorsen_calls", "maps.theodorsen_iters",
          "maps.sample_count_max", "series.evaluate_calls",
          "series.evaluate_term_points", "liouville.grid_nodes",
          "liouville.horner_term_nodes", "grunsky.block_order_max",
          "grunsky.bivariate_logs", "fuchsian.area_calls",
          "fuchsian.area_angles", "fuchsian.membership_tests",
          "cli.invocations")
ACCURACY = ("s2_gap_closed", "identity_rel_resid", "inversion_gap",
            "relation_resid_max", "area_gap", "trace_sum_max")
PER_LAYER = {
    **{name: "s" for name in FUNCTION_TIMES},
    **{name: "count" for name in COUNTS},
    "maps.theodorsen_useful_ratio": "1",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "cli.process_s": "s",
    "trace_overhead_s": "s",
    **{name: "1" for name in ACCURACY},
}


@dataclass
class Result:
    invocation: wl.Invocation
    exit_code: int
    wall: float
    cpu: float
    rss_mb: float
    check: wl.Check | None
    outcome: str
    spans: list | None = None


class Runner:
    """Spawns one child at a time in a scratch directory and checks it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, WELDLAB_OUTDIR=str(workdir))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.started = time.monotonic()
        self.count = 0
        self.results: list[Result] = []

    def _spawn(self, cmd: list, log: Path):
        """Wall time from spawn to the return of wait4, and its rusage."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            left = DEADLINE_S - (time.monotonic() - self.started)
            old = signal.signal(signal.SIGALRM,
                                lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(left, 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def run(self, inv: wl.Invocation, traced: bool = False) -> Result:
        self.count += 1
        stem = self.workdir / f"{self.count:04d}_{inv.command}"
        out = stem.with_suffix(".json")
        spans_path = stem.with_suffix(".spans")
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "weldlab.cli"]
        code, wall, cpu, rss = self._spawn(cmd + inv.argv() + ["--out", str(out)],
                                           stem.with_suffix(".log"))
        try:
            check = inv.check(json.loads(out.read_text()))
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                AttributeError):
            check = None
        result = Result(inv, code, wall, cpu, rss, check,
                        wl.classify(code, check))
        if traced:
            try:
                result.spans = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                result.spans = []
        self._log(result)
        return result

    def run_octagon(self) -> Result:
        """Set-up of the Fuchsian workload: import weldlab, build the group."""
        self.count += 1
        log = self.workdir / f"{self.count:04d}_octagon.log"
        code = ("from weldlab import fuchsian\n"
                "print(repr(fuchsian.octagon_group().relation_residual()))\n")
        exit_code, wall, cpu, rss = self._spawn([sys.executable, "-c", code], log)
        inv = wl.Invocation("octagon", ())
        check = None
        try:
            value = float(log.read_text().strip().splitlines()[-1])
            check = wl.Check()
            check.require("relation residual", value, wl.TOL_GROUP)
        except (OSError, ValueError, IndexError):
            pass
        result = Result(inv, exit_code, wall, cpu, rss, check,
                        wl.classify(exit_code, check))
        self._log(result)
        return result

    def _log(self, r: Result):
        self.results.append(r)
        misses = "; ".join(r.check.misses) if r.check else ""
        print(f"  {r.outcome:9s} exit={r.exit_code} wall={r.wall:7.3f}s "
              f"cpu={r.cpu:7.3f}s rss={r.rss_mb:6.1f}MB  "
              f"{' '.join(r.invocation.argv())}"
              f"{'  [' + misses + ']' if misses else ''}", flush=True)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads(numpy_dir: Path):
    for lib in glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(Path(np.__file__).parent),
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ancestor_named(spans, i, name):
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return p
        p = spans[p]["parent"]
    return None


def layer_metrics(traced: list) -> dict:
    """Per-layer metrics from the traced results (wall and spans each)."""
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    timed = {fn: key for key, fn in FUNCTION_TIMES.items()}
    kept = made = 0
    for r in traced:
        spans = r.spans
        selfs = tracer.self_times(spans)
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        process = r.wall - roots
        if abs(sum(selfs) + process - r.wall) > SELF_TIME_SHARE * r.wall:
            raise RuntimeError("self times do not add up to the traced wall time")
        m["cli.process_s"] += process
        m["cli.invocations"] += 1
        groups = {}
        for i, (s, own) in enumerate(zip(spans, selfs)):
            name, attrs = s["name"], s.get("attrs", {})
            m[name.split(".")[0] + ".self_s"] += own
            if name in timed and _ancestor_named(spans, i, name) is None:
                m[timed[name]] += s["end"] - s["start"]
            if name == "maps.theodorsen_interior":
                m["maps.theodorsen_calls"] += 1
                m["maps.theodorsen_iters"] += attrs["iterations"]
                m["maps.sample_count_max"] = max(m["maps.sample_count_max"],
                                                 attrs["sample_count"])
                key = _ancestor_named(spans, i, "maps.catalog")
                groups.setdefault(key if key is not None else -1 - i,
                                  []).append(attrs["sample_count"])
            elif name == "series.evaluate":
                m["series.evaluate_calls"] += 1
                m["series.evaluate_term_points"] += attrs["term_points"]
            elif name == "liouville.s1_value":
                m["liouville.grid_nodes"] += attrs["nodes"]
                m["liouville.horner_term_nodes"] += attrs["horner_term_nodes"]
            elif name in ("grunsky.build_b1", "grunsky.build_b4",
                          "grunsky.build_b2_b3"):
                m["grunsky.block_order_max"] = max(m["grunsky.block_order_max"],
                                                   attrs["order"])
                m["grunsky.bivariate_logs"] += attrs["bivariate_logs"]
            elif name == "fuchsian.domain_area_integral":
                orbit = max((c.get("attrs", {}).get("count", 1) for c in spans
                             if c["parent"] == i
                             and c["name"] == "fuchsian.enumerate_elements"),
                            default=1) - 1
                m["fuchsian.area_calls"] += 1
                m["fuchsian.area_angles"] += attrs["angles"]
                m["fuchsian.membership_tests"] += 52 * attrs["angles"] * orbit
        # a catalog call keeps the runs made at its final sample count
        for sizes in groups.values():
            made += len(sizes)
            kept += sizes.count(max(sizes))
    m["maps.theodorsen_useful_ratio"] = kept / made if made else 0.0
    return m


def accuracy(results: list) -> dict:
    acc = dict.fromkeys(ACCURACY, 0.0)
    for r in results:
        for key, value in (r.check.accuracy if r.check else {}).items():
            acc[key] = max(acc[key], value)
    return acc


def module_shares(m: dict, wall: float) -> dict:
    parts = {layer: m[f"{layer}.self_s"] for layer in tracer.LAYERS}
    parts["cli"] = m["cli.process_s"]
    return {k: v / wall for k, v in parts.items()}


# ---------------------------------------------------------------------------
# passes and set-up
# ---------------------------------------------------------------------------

def run_pass(runner: Runner, work: wl.Workload, traced: bool = False) -> list:
    return [runner.run(inv, traced) for inv in work.invocations]


def setup_once(runner: Runner, work: wl.Workload) -> float:
    if not work.setup_pairs:
        return runner.run_octagon().wall
    return sum(runner.run(wl.invocation("pair", f, p)).wall
               for f, p in work.setup_pairs)


def measure(runner: Runner, work: wl.Workload, seconds: float) -> dict:
    setups = [setup_once(runner, work) for _ in range(work.setup_reps)]
    passes = [run_pass(runner, work) for _ in range(wl.passes(work, seconds))]
    measured = [r for p in passes for r in p]
    gaps = accuracy(runner.results)
    return {
        "wall_s": statistics.median(sum(r.wall for r in p) for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_mb for r in measured),
        "answer_gap": gaps[work.headline] if gaps[work.headline] > 0 else None,
    }


def measure_traced(runner: Runner, work: wl.Workload) -> dict:
    plain = run_pass(runner, work)
    traced = run_pass(runner, work, traced=True)
    m = layer_metrics(traced)
    wall = sum(r.wall for r in traced)
    m["trace_overhead_s"] = wall - sum(r.wall for r in plain)
    m.update(accuracy(runner.results))
    shares = module_shares(m, wall)
    top = max(shares, key=shares.get)
    predicted = sum(shares[k] for k in work.dominant)
    print(f"shares of traced wall {wall:.3f}s: "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"dominant module: {top}; predicted {'+'.join(work.dominant)} "
          f"holds {predicted:.1%}"
          f" ({'reproduced' if top in work.dominant else 'NOT reproduced'})")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weldlab" / "cli.py").is_file():
        print(f"error: no weldlab sources under {ROOT / 'src'}; run from the "
              "root of a weldlab checkout", file=sys.stderr)
        return 2

    work = wl.build(args.workload, args.seed)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(workdir)
        if args.trace:
            values, units = measure_traced(runner, work), PER_LAYER
        else:
            values, units = measure(runner, work, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:             # another run still uses it
            pass

    results = runner.results
    failed = sum(r.outcome != wl.OK for r in results)
    correct = not any(wl.silently_wrong(r.exit_code, r.outcome) for r in results)
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
