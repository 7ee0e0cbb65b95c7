"""Workloads, references and per-invocation checks of the benchmark.

Every reference is computed here: the ellipse closed form
``s2 = sum_k log(1 - c^(2k))``, ``S1_ref = -12 pi s2``, area = genus - 1
and alternating trace sums = 0. Checks read only the numbers in the
reports; none of the program's own oracles is called.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

GENUS = 2                 # the octagon group of the fuchsian command
OCTAGON_WORDS_L2 = 65     # 1 + 8 + 8*7 reduced words of length <= 2

# tolerances, each taken from the acceptance criterion that states it
TOL_B1_DEEP = 1e-6        # criterion 1: B1 at N = 1280 vs the closed form
TOL_ROUNDOFF = 1e-12      # criterion 1: B4 vs the closed form
TOL_IDENTITY = 1e-3       # criterion 2: |S1 + 12 pi S2| / max(1, |S1|)
TOL_RELATION = 1e-6       # criterion 3 (1e-5 for the bump)
TOL_RELATION_BUMP = 1e-5
TOL_INVERSION = 1e-6      # criterion 4: symmetry and route gaps
TOL_BOUNDARY = 1e-8       # pair acceptance: the two boundary traces agree
TOL_GROUP = 1e-10         # criterion 6: relation product, automorphy
TOL_AREA = 1e-4           # criterion 6: area integral vs genus - 1
TOL_TRACE_SUM = 1e-3      # criterion 6: binomial trace sums


def closed_form_s2(c: float) -> float:
    """sum_{k>=1} log(1 - c^(2k)), summed until the terms drop below 1e-17."""
    total, k = 0.0, 1
    while c ** (2 * k) >= 1e-17:
        total += math.log1p(-c ** (2 * k))
        k += 1
    return total


def s1_reference(c: float) -> float:
    return -12.0 * math.pi * closed_form_s2(c)


@dataclass
class Check:
    """Outcome of the reference checks on one report."""

    misses: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def gap(self, metric: str, value: float):
        self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), value)

    def require(self, label: str, value: float, tol: float):
        if not value <= tol:       # NaN misses too
            self.misses.append(f"{label} {value:.3e} > {tol:.0e}")


def _family_args(family: str, params: dict) -> list:
    out = ["--family", family]
    for key in ("c", "eps", "k"):
        if key in params:
            out += [f"--{key}", str(params[key])]
    return out


def check_pair(report: dict, params: dict) -> Check:
    chk = Check()
    chk.require("boundary residual", report["residuals"]["boundary"], TOL_BOUNDARY)
    f0, f1 = report["taylor_coeffs"][0], report["taylor_coeffs"][1]
    chk.require("|f(0)|", math.hypot(*f0), 0.0)
    chk.require("|f'(0) - 1|", math.hypot(f1[0] - 1.0, f1[1]), 0.0)
    return chk


def check_logdet(report: dict, params: dict) -> Check:
    chk = Check()
    gap = abs(report["s2_univ"] - closed_form_s2(params["c"]))
    chk.gap("s2_gap_closed", gap)
    tol = TOL_B1_DEEP if report["route"] == "b1" else TOL_ROUNDOFF
    chk.require(f"{report['route']} gap to closed form", gap, tol)
    return chk


def check_identity(report: dict, params: dict) -> Check:
    chk = Check()
    s1, via_b1, via_b4 = (report["S1"], report["S2_univ_via_B1"],
                          report["S2_univ_via_B4"])
    rel = abs(s1 + 12.0 * math.pi * via_b1) / max(1.0, abs(s1))
    chk.gap("identity_rel_resid", rel)
    chk.require("identity residual", rel, TOL_IDENTITY)
    if "c" in params:
        closed = closed_form_s2(params["c"])
        chk.gap("s2_gap_closed", max(abs(via_b1 - closed), abs(via_b4 - closed)))
        chk.require("B4 gap to closed form", abs(via_b4 - closed), TOL_ROUNDOFF)
        ref = s1_reference(params["c"])
        chk.require("S1 vs -12 pi s2_closed", abs(s1 - ref) / max(1.0, abs(ref)),
                    TOL_IDENTITY)
    else:
        chk.require("B1 vs B4", abs(via_b1 - via_b4), TOL_INVERSION)
    return chk


def check_grunsky(report: dict, params: dict) -> Check:
    chk = Check()
    worst = max(report["relation_residuals"])
    chk.gap("relation_resid_max", worst)
    tol = TOL_RELATION_BUMP if "eps" in params else TOL_RELATION
    chk.require("block-relation residual", worst, tol)
    if "eps" not in params:        # |B4| = c for z + c/z, 0 for the identity
        chk.require("|B4| - c", abs(report["spectral_norm_b4"]
                                    - params.get("c", 0.0)), TOL_ROUNDOFF)
    return chk


def check_invert(report: dict, params: dict) -> Check:
    chk = Check()
    b1, inv, b4 = (report["s2_pair_b1"], report["s2_inverted_b1"],
                   report["s2_pair_b4"])
    chk.gap("inversion_gap", abs(b1 - inv))
    chk.require("inversion gap", abs(b1 - inv), TOL_INVERSION)
    chk.require("route gap", abs(b1 - b4), TOL_INVERSION)
    if "c" in params:
        closed = closed_form_s2(params["c"])
        chk.gap("s2_gap_closed", max(abs(b1 - closed), abs(b4 - closed)))
        chk.require("B4 gap to closed form", abs(b4 - closed), TOL_ROUNDOFF)
    elif "eps" not in params:      # identity pair: every potential is 0
        chk.require("identity potential", max(abs(b1), abs(inv), abs(b4)),
                    TOL_ROUNDOFF)
    return chk


def check_fuchsian(report: dict, params: dict) -> Check:
    chk = Check()
    area_gap = abs(report["area_integral"]["value"] - (GENUS - 1))
    sums = max(abs(v) for v in report["alternating_trace_sums"].values())
    chk.gap("area_gap", area_gap)
    chk.gap("trace_sum_max", sums)
    chk.require("area gap", area_gap, TOL_AREA)
    chk.require("trace sums", sums, TOL_TRACE_SUM)
    chk.require("relation residual", report["relation_residual"], TOL_GROUP)
    chk.require("automorphy", report["bergman_automorphy_residual"], TOL_GROUP)
    chk.require("element count off 65", abs(report["element_count"]["count"]
                                            - OCTAGON_WORDS_L2), 0.0)
    return chk


CHECKS = {"pair": check_pair, "logdet": check_logdet,
          "identity": check_identity, "grunsky": check_grunsky,
          "invert": check_invert, "fuchsian": check_fuchsian}


@dataclass(frozen=True)
class Invocation:
    """One weldlab command line (without ``--out``) and its reference check."""

    command: str
    args: tuple
    params: tuple = ()

    def argv(self) -> list:
        return [self.command, *self.args]

    def check(self, report: dict) -> Check:
        return CHECKS[self.command](report, dict(self.params))


def invocation(command, family, params, *extra) -> Invocation:
    return Invocation(command, tuple(_family_args(family, params)) + extra,
                      tuple(sorted(params.items())))


def seeded_bump(seed: int) -> dict:
    """One extra bump pair drawn from the seed: eps in [0.03, 0.07], k in {2, 3}."""
    rng = random.Random(seed)
    return {"eps": round(rng.uniform(0.03, 0.07), 4), "k": rng.choice((2, 3))}


BUMP = {"eps": 0.05, "k": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    setup_pairs: tuple      # (family, params) built once each per set-up
    headline: str           # the accuracy metric reported as answer_gap
    dominant: tuple         # modules predicted to dominate the traced run
    # seconds of one pass at the seed on a 2-core VM; a run makes
    # ceil(--seconds / pass_s) passes, so the number of operations (and of
    # standing misses) does not depend on how fast the program is
    pass_s: float
    setup_reps: int = 3


def passes(work: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / work.pass_s))


def build(name: str, seed: int) -> Workload:
    bump2 = seeded_bump(seed)
    if name == "det-deep":
        inv = (invocation("logdet", "ellipse", {"c": 0.5},
                          "--route", "b1", "--N", "320,640,1280"),
               invocation("logdet", "ellipse", {"c": 0.5},
                          "--route", "b4", "--N", "960"))
        return Workload(name, inv, (("ellipse", {"c": 0.5}),),
                        "s2_gap_closed", ("grunsky",), pass_s=22.0)
    if name == "identity-grid":
        cases = [("ellipse", {"c": 0.1}, "16,32,64"),
                 ("ellipse", {"c": 0.3}, "16,32,64"),
                 ("ellipse", {"c": 0.5}, "32,64,128"),
                 ("fourier_bump", BUMP, "16,32,64"),
                 ("fourier_bump", bump2, "16,32,64")]
        inv = tuple(invocation("identity", f, p, "--N", n) for f, p, n in cases)
        return Workload(name, inv, tuple((f, p) for f, p, _ in cases),
                        "identity_rel_resid", ("liouville",), pass_s=10.0)
    if name == "relations-inversion":
        pairs = [("identity", {}), ("ellipse", {"c": 0.1}),
                 ("ellipse", {"c": 0.3}), ("ellipse", {"c": 0.5}),
                 ("fourier_bump", BUMP), ("fourier_bump", bump2)]
        inverts = [("identity", {}, "16"), ("ellipse", {"c": 0.1}, "64"),
                   ("ellipse", {"c": 0.3}, "128"), ("fourier_bump", BUMP, "64"),
                   ("fourier_bump", bump2, "64")]
        inv = tuple(invocation("grunsky", f, p, "--N", "256") for f, p in pairs)
        inv += tuple(invocation("invert", f, p, "--N", n) for f, p, n in inverts)
        return Workload(name, inv, tuple(pairs), "inversion_gap",
                        ("grunsky", "maps", "cli"), pass_s=10.0)
    if name == "fuchsian-basepoint":
        # set-up is one 0.2 s process here, so it is repeated more often
        return Workload(name, (Invocation("fuchsian", ("--L", "2")),), (),
                        "area_gap", ("fuchsian",), pass_s=9.0, setup_reps=9)
    raise KeyError(name)


NAMES = ("det-deep", "identity-grid", "relations-inversion", "fuchsian-basepoint")


# outcome of one invocation; "ok" is the only one that is not a failure
OK, VERDICT, ERROR, NO_REPORT, MISS = "ok", "verdict", "error", "no-report", "miss"


def classify(exit_code: int, check) -> str:
    """Failure class of one invocation.

    ``check`` is the Check of its report, or None when the report is
    missing or cannot be parsed. In order of precedence: exit 2 or 3 (any
    code but 0 and 1) is an error, then a missing report, then a reference
    miss, then exit 1 (the program's own tolerance verdict).
    """
    if exit_code not in (0, 1):
        return ERROR
    if check is None:
        return NO_REPORT
    if check.misses:
        return MISS
    return VERDICT if exit_code == 1 else OK


def silently_wrong(exit_code: int, outcome: str) -> bool:
    """True when the program gave no answer, or claimed success (exit 0)
    for numbers that miss a reference. A miss the program itself flags
    with exit 1 is a failure, not a wrong answer."""
    return outcome in (ERROR, NO_REPORT) or (outcome == MISS and exit_code == 0)
