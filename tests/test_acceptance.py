"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear. Every tolerance is stated inline; expected values come from closed
forms evaluated on the spot (geometric determinant sums, affine action
formulas, Gauss-Bonnet) or from symbolically derived micro-oracles.
"""

import time

import numpy as np

from weldlab import fuchsian as fx
from weldlab import grunsky as gk
from weldlab import liouville as lv
from weldlab import maps as mp
from weldlab.classical import s_cl_report
from weldlab.series import ComplexSeries


def closed_form_s2(c, terms):
    return float(sum(np.log1p(-c ** (2 * k)) for k in range(1, terms + 1)))


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# criterion 1: the B1 route needs truncation deep enough for the section to
# converge; the slowly-decaying c = 0.5 pair also needs its sample count
# raised above the stated 1024 before the operator data exists at all
# (the catalog doubles it automatically; see the decisions ledger)
C1_B1_ORDERS = {0.1: 64, 0.3: 64, 0.5: 1280}


def test_criterion_1_ellipse_closed_form_determinant():
    ok = True
    details = []
    mp._catalog_cached.cache_clear()
    for c in (0.1, 0.3, 0.5):
        t0 = time.time()
        pair = mp.catalog("ellipse", c=c)
        b4 = gk.build_b4(pair.exterior, 64)
        v4 = gk.logdet_potential(b4, [64]).extrapolated
        closed = closed_form_s2(c, 64)
        gap4 = abs(v4 - closed)
        n1 = C1_B1_ORDERS[c]
        b1 = gk.build_b1(pair.interior, n1)
        v1 = gk.logdet_potential(b1, [n1]).extrapolated
        gap1 = abs(v1 - closed)
        elapsed = time.time() - t0
        good = gap4 <= 1e-12 and gap1 <= 1e-6 and elapsed <= 60.0
        ok &= good
        details.append(
            f"c={c}: B4 gap {gap4:.2e} (<=1e-12), B1@N={n1} gap {gap1:.2e}"
            f" (<=1e-6), {elapsed:.1f}s (<=60s) M={pair.sample_count}")
    assert _report("criterion 1 (ellipse closed-form determinant)", ok,
                   "; ".join(details)), "\n".join(details)


def test_criterion_2_central_identity():
    cases = [
        ("ellipse", {"c": 0.1}, (16, 32, 64)),
        ("ellipse", {"c": 0.3}, (16, 32, 64)),
        ("ellipse", {"c": 0.5}, (32, 64, 128)),
        ("fourier_bump", {"eps": 0.05, "k": 2}, (16, 32, 64)),
    ]
    t0 = time.time()
    ok = True
    details = []
    for family, params, orders in cases:
        pair = mp.catalog(family, **params)
        rep = lv.identity_report(pair, orders=orders)
        rel = rep["residual_identity_relative"]
        good = rel <= 1e-3
        ok &= good
        details.append(f"{family}{params}: rel {rel:.2e}"
                       f"{'' if good else ' [exceeds 1e-3]'}")
        if not good:
            # context for the ledger, isolating the two error sources: the
            # stated grid against the exterior-route determinant (pure
            # quadrature error), the same on a grid whose angular count
            # covers the integrand bandwidth, the angularly exact
            # coefficient route, and the B1 section at the stated order
            # against the exterior route (pure truncation error)
            fine = lv.identity_report(
                pair, grids=((64, 512), (128, 1024), (256, 2048)),
                orders=orders)
            coef = lv.s1_coefficient_route(pair)
            s2 = rep["S2_univ_via_B4"]
            scale = max(1.0, abs(rep["S1"]))
            details.append(
                f"  [info] stated grid via exterior route: rel "
                f"{rep['residual_identity_via_B4_relative']:.2e}; grid "
                f"(256,2048) via exterior route: rel "
                f"{fine['residual_identity_via_B4_relative']:.2e}; "
                f"coefficient route: rel "
                f"{abs(coef + 12 * np.pi * s2) / scale:.2e}; B1 section at "
                f"N={max(orders)} via exterior route: rel "
                f"{12 * np.pi * abs(rep['S2_univ_via_B1'] - s2) / scale:.2e}")
    elapsed = time.time() - t0
    ok &= elapsed <= 300.0
    details.append(f"total {elapsed:.0f}s (<=300s)")
    assert _report("criterion 2 (central identity, grid (256,512))", ok,
                   "; ".join(details)), "\n".join(details)


def test_criterion_3_generalized_grunsky_equality():
    ok = True
    details = []
    cases = [
        ("identity", {}, 1e-6),
        ("ellipse", {"c": 0.1}, 1e-6),
        ("ellipse", {"c": 0.3}, 1e-6),
        ("ellipse", {"c": 0.5}, 1e-6),
        ("fourier_bump", {"eps": 0.05, "k": 2}, 1e-5),
    ]
    for family, params, tol in cases:
        pair = mp.catalog(family, **params)
        # the leading floor(N/2) blocks of the N=64 and N=32 truncations,
        # with every inner sum carried to the operators' certified depth
        r64 = gk.grunsky_operator_residual(pair, 32)
        r32 = gk.grunsky_operator_residual(pair, 16)
        good = max(r64) <= tol
        if family != "identity":
            # decreasing from N=32 to N=64, down to the roundoff floor
            good &= all(b < a or b <= 1e-12 for a, b in zip(r32, r64))
        ok &= good
        details.append(f"{family}{params}: max residual {max(r64):.2e}"
                       f" (<={tol:.0e}), 16-block {max(r32):.2e}"
                       f"{'' if good else ' [FAIL]'}")
        if not good:
            details.append("  [info] 32-block relations: " + ", ".join(
                f"{x:.2e}" for x in r64) + "; 16-block: " + ", ".join(
                f"{x:.2e}" for x in r32))
    assert _report("criterion 3 (generalized Grunsky equality, N=64)", ok,
                   "; ".join(details)), "\n".join(details)


def test_criterion_4_inversion_symmetry():
    cases = [
        ("identity", {}, 16, 16),
        ("ellipse", {"c": 0.1}, 64, 64),
        ("ellipse", {"c": 0.3}, 128, 128),
        ("ellipse", {"c": 0.5}, 1280, 128),
        ("fourier_bump", {"eps": 0.05, "k": 2}, 64, 64),
    ]
    ok = True
    details = []
    for family, params, n, n_inv in cases:
        pair = mp.catalog(family, **params)
        chk = gk.inversion_check(pair, n, n_inverted=n_inv)
        good = chk["symmetry_gap"] <= 1e-6 and chk["route_gap"] <= 1e-6
        ok &= good
        details.append(f"{family}{params}: inversion gap "
                       f"{chk['symmetry_gap']:.2e}, route gap "
                       f"{chk['route_gap']:.2e} (<=1e-6)")
    assert _report("criterion 4 (inversion symmetry)", ok,
                   "; ".join(details)), "\n".join(details)


def test_criterion_5_positivity_and_bound():
    ok = True
    details = []
    pairs = [("identity", {}), ("ellipse", {"c": 0.1}), ("ellipse", {"c": 0.3}),
             ("ellipse", {"c": 0.5}), ("fourier_bump", {"eps": 0.05, "k": 2})]
    for family, params in pairs:
        pair = mp.catalog(family, **params)
        n = 128 if params.get("c") == 0.5 else 64
        for route in ("b1", "b4"):
            b = (gk.build_b1(pair.interior, n) if route == "b1"
                 else gk.build_b4(pair.exterior, n))
            block = b[:n, :n]
            a = np.eye(n) - block @ block.conj().T
            np.linalg.cholesky(a)  # positive-definiteness certificate
            s2_univ = gk.logdet_potential(b, [n]).extrapolated
            if -s2_univ < -1e-12:
                ok = False
                details.append(f"{family}{params}/{route}: s2_dg negative")
    # classical-action bound: equality exactly at the group point
    base = s_cl_report(0.0, 2)
    good_base = (abs(base["S_cl"] - 16 * np.pi) <= 1e-12
                 and base["slack"] == 0.0 and base["is_fuchsian_point"])
    ok &= good_base
    for s2dg in (0.0, 1e-8, 0.05, 0.4):
        rep = s_cl_report(s2dg, 2)
        ok &= rep["S_cl"] <= 8 * np.pi * 2 + 1e-12
        ok &= (rep["slack"] == 0.0) == (s2dg == 0.0)
    details.append(f"all I-BB* positive definite; S_cl(basepoint, g=2)"
                   f" = {base['S_cl']:.12f} = 16 pi")
    assert _report("criterion 5 (positivity and genus bound)", ok,
                   "; ".join(details)), "\n".join(details)


def test_criterion_6_fuchsian_basepoint_suite():
    t0 = time.time()
    group = fx.octagon_group()
    rel = group.relation_residual()
    area, sums = fx.trace_sums(group)
    area_gap = abs(area["value"] - 1.0)
    rng = np.random.default_rng(7)
    z = 0.8 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    w = 0.8 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    autom = max(fx.automorphy_residual(fx.bergman_kernel, g, z, w)
                for g in group.generators)
    sums = {n: abs(v) for n, v in sums.items()}
    elapsed = time.time() - t0
    ok = (rel <= 1e-10 and area_gap <= 1e-4 and autom <= 1e-10
          and max(sums.values()) <= 1e-3 and elapsed <= 120.0)
    detail = (f"relation {rel:.2e} (<=1e-10), area gap {area_gap:.2e}"
              f" (<=1e-4), automorphy {autom:.2e} (<=1e-10), binomial sums "
              f"{max(sums.values()):.2e} (<=1e-3), {elapsed:.0f}s (<=120s)")
    assert _report("criterion 6 (Fuchsian basepoint suite)", ok, detail), detail


def test_criterion_7_oracle_micro_tests():
    ok = True
    details = []
    for t in (0.1, 0.2):
        f = ComplexSeries.taylor([0, 1, t], resolved=True)
        b1 = gk.build_b1(f, 1)
        gap_entry = abs(abs(b1[0, 0]) - t * t)
        rep = gk.logdet_potential(b1, [1])
        gap_det = abs(rep.extrapolated - np.log1p(-t ** 4))
        gap_schwarz = abs(mp.schwarzian(ComplexSeries.taylor([0, 1, t]), 0.0)
                          - (-6 * t * t))
        good = gap_entry <= 1e-12 and gap_det <= 1e-12 and gap_schwarz <= 1e-10
        ok &= good
        details.append(f"t={t}: |B1[1,1]|-t^2 {gap_entry:.1e}, logdet gap "
                       f"{gap_det:.1e}, Schwarzian gap {gap_schwarz:.1e}")
    assert _report("criterion 7 (oracle micro-tests)", ok,
                   "; ".join(details)), "\n".join(details)
