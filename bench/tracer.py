"""Span tracing of weldlab's public functions, applied from outside the package.

Run as a script, this is a drop-in for ``python -m weldlab.cli``::

    python bench/tracer.py SPANS.json -- identity --family ellipse --c 0.3 ...

It wraps every public function of the layer modules, patches the wrapper
into every weldlab module that holds the function (``liouville`` imports
``build_b1`` from ``grunsky`` by name, ``maps`` imports ``evaluate`` from
``series``), runs the command line, and writes the spans to SPANS.json when
the command ends. Each invocation is a fresh process, so caches start cold
as they do for users.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("series", "maps", "grunsky", "liouville", "fuchsian")


def _s1_value_attrs(args, kwargs, result):
    pair, grid = args[0], args[1]
    n_f = len(pair.interior.coeffs)
    n_g = len(pair.exterior.coeffs)
    # coefficient arrays handed to the grid Horner loops: f'' and f' inside,
    # P and P' of the u-expansion of g outside (each at least one term)
    n_p = max(n_g - 2, 1)
    terms = max(n_f - 2, 1) + max(n_f - 1, 1) + n_p + max(n_p - 1, 1)
    nodes = grid.n_r * grid.n_theta
    return {"nodes": nodes, "horner_term_nodes": terms * nodes}


# counts read from the arguments and return values of public calls
def _blocks(logs):
    return lambda a, k, r: {"order": (r[0] if logs == 2 else r).shape[0],
                            "bivariate_logs": logs}


ATTRS = {
    "maps.theodorsen_interior": lambda a, k, r: {
        "iterations": r.iterations, "sample_count": r.sample_count},
    "series.evaluate": lambda a, k, r: {
        "term_points": len(a[0].coeffs)
        * np.size(a[1] if len(a) > 1 else k["z"])},
    "liouville.s1_value": _s1_value_attrs,
    "grunsky.build_b1": _blocks(1),
    "grunsky.build_b4": _blocks(1),
    "grunsky.build_b2_b3": _blocks(2),
    "fuchsian.enumerate_elements": lambda a, k, r: {"count": r.count},
    "fuchsian.domain_area_integral": lambda a, k, r: {
        "angles": int(sum(r["n_theta"]))},
}


class Recorder:
    """In-memory span list: name, start, end, parent index and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def instrument(recorder: Recorder):
    """Wrap the public functions of the layer modules wherever a weldlab
    module binds them."""
    import importlib

    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"weldlab.{layer}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            full = f"{layer}.{name}"
            wrappers[id(obj)] = (obj, recorder.wrap(full, obj, ATTRS.get(full)))
    importlib.import_module("weldlab.cli")
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "weldlab":
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <weldlab arguments>",
              file=sys.stderr)
        return 2
    recorder = Recorder()
    instrument(recorder)
    from weldlab import cli
    try:
        code = cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
