"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_span_nesting_and_self_time():
    rec = tracer.Recorder(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    inner = rec.wrap("toy.inner", lambda x: x + 1)
    outer = rec.wrap("toy.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s["name"], s["parent"]) for s in rec.spans] == [
        ("toy.outer", None), ("toy.inner", 0), ("toy.inner", 0)]
    # outer spans [0, 10]; inners [1, 3] and [4, 4.5]
    assert tracer.self_times(rec.spans) == [7.5, 2.0, 0.5]


def test_span_closes_when_the_call_raises():
    rec = tracer.Recorder(clock=FakeClock(0.0, 2.0, 5.0, 6.0))

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        rec.wrap("toy.boom", boom)()
    assert rec.spans[0]["end"] == 2.0
    rec.wrap("toy.next", lambda: None)()
    assert rec.spans[1]["parent"] is None


def test_layer_metrics_add_up():
    spans = [
        {"name": "maps.catalog", "parent": None, "start": 0.0, "end": 4.0},
        {"name": "maps.theodorsen_interior", "parent": 0, "start": 0.5,
         "end": 1.0, "attrs": {"iterations": 10, "sample_count": 1024}},
        {"name": "maps.theodorsen_interior", "parent": 0, "start": 1.0,
         "end": 3.0, "attrs": {"iterations": 30, "sample_count": 2048}},
        {"name": "grunsky.build_b1", "parent": None, "start": 4.0, "end": 9.0,
         "attrs": {"order": 64, "bivariate_logs": 1}},
    ]
    r = run.Result(wl.Invocation("logdet", ()), 0, 10.0, 10.0, 100.0, None,
                   wl.OK, spans)
    m = run.layer_metrics([r])
    assert m["cli.process_s"] == pytest.approx(1.0)
    assert m["maps.self_s"] == pytest.approx(4.0)
    assert m["grunsky.self_s"] == pytest.approx(5.0)
    assert m["maps.catalog_s"] == pytest.approx(4.0)
    assert m["maps.theodorsen_s"] == pytest.approx(2.5)
    assert m["maps.theodorsen_iters"] == 40
    assert m["maps.theodorsen_useful_ratio"] == 0.5
    assert m["maps.sample_count_max"] == 2048
    assert m["grunsky.block_order_max"] == 64
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total + m["cli.process_s"] == pytest.approx(r.wall)


def test_instrument_patches_names_imported_by_other_modules():
    code = (
        "import tracer\n"
        "rec = tracer.Recorder()\n"
        "tracer.instrument(rec)\n"
        "from weldlab import grunsky, liouville, maps, series\n"
        "assert liouville.build_b1 is grunsky.build_b1\n"
        "assert maps.evaluate is series.evaluate\n"
        "assert hasattr(grunsky.build_b1, '__wrapped__')\n"
        "pair = maps.catalog('ellipse', c=0.1)\n"
        "liouville.identity_report(pair, grids=((8, 16),), orders=(8,))\n"
        "names = {s['name'] for s in rec.spans}\n"
        "assert {'maps.catalog', 'grunsky.build_b1', 'series.evaluate',\n"
        "        'liouville.s1_value'} <= names, names\n")
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'bench'}", "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _acceptance_module():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5])
def test_closed_form_matches_acceptance_suite(c):
    ref = _acceptance_module().closed_form_s2(c, 64)
    assert abs(wl.closed_form_s2(c) - ref) <= 1e-16


def test_s1_reference_value():
    assert wl.s1_reference(0.5) == pytest.approx(14.0688, abs=1e-4)


def _check(*misses):
    chk = wl.Check()
    chk.misses.extend(misses)
    return chk


@pytest.mark.parametrize("code, check, outcome, wrong", [
    (0, _check(), wl.OK, False),
    (1, _check(), wl.VERDICT, False),
    (1, _check("gap"), wl.MISS, False),
    (0, _check("gap"), wl.MISS, True),
    (2, _check(), wl.ERROR, True),
    (3, None, wl.ERROR, True),
    (0, None, wl.NO_REPORT, True),
])
def test_failure_classifier(code, check, outcome, wrong):
    assert wl.classify(code, check) == outcome
    assert wl.silently_wrong(code, outcome) == wrong


def test_runner_classifies_real_invocations(tmp_path):
    runner = run.Runner(tmp_path)
    good = runner.run(wl.invocation("invert", "identity", {}, "--N", "16"))
    assert (good.exit_code, good.outcome) == (0, wl.OK)
    bad = runner.run(wl.Invocation("fuchsian", ("--L", "9")))
    assert (bad.exit_code, bad.outcome) == (2, wl.ERROR)
    assert bad.check is None           # no report was written


def test_seeded_bump_is_reproducible_and_in_range():
    for seed in range(50):
        bump = wl.seeded_bump(seed)
        assert bump == wl.seeded_bump(seed)
        assert 0.03 <= bump["eps"] <= 0.07 and bump["k"] in (2, 3)


def test_pass_count_depends_only_on_seconds():
    counts = {n: wl.passes(wl.build(n, 0), 12) for n in wl.NAMES}
    assert counts == {"det-deep": 1, "identity-grid": 2,
                      "relations-inversion": 2, "fuchsian-basepoint": 2}
    assert all(wl.passes(wl.build(n, 0), 8) == 1 for n in wl.NAMES)


def test_workloads_leave_the_output_path_to_the_runner():
    for name in wl.NAMES:
        work = wl.build(name, 0)
        assert work.invocations and work.headline in run.ACCURACY
        for inv in work.invocations:
            assert "--out" not in inv.args


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.NAMES)
