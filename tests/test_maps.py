import argparse
import json
import math
import tracemalloc

import numpy as np
import pytest

from references import (dense_horner_distance, derivative, domain_from_samples,
                        ellipse_log_conformal_radius, schwarzian_by_samples,
                        triangular_reciprocal)
from weldlab import cli
from weldlab import fuchsian as fx
from weldlab import grunsky as gk
from weldlab import liouville as lv
from weldlab import maps as mp
from weldlab.errors import InvalidInput, NumericalFailure
from weldlab.series import _symmetry_order
from weldlab.series import COEFF_FLOOR, ComplexSeries, Kind, evaluate


def boundary_points(series, m=1024):
    theta = 2 * np.pi * np.arange(m) / m
    return evaluate(series, np.exp(1j * theta))


class TestTheodorsen:
    def test_circle_gives_identity(self):
        res = mp.theodorsen_interior(mp.bump_domain(0.0, 1))
        assert res.residual <= 1e-12
        m = mp.START_SAMPLE_COUNT
        assert np.abs(res.phi - 2 * np.pi * np.arange(m) / m).max() <= 1e-12
        assert abs(res.series.coeffs[1] - 1.0) <= 1e-13
        assert res.series.order == 2 or np.abs(res.series.coeffs[2:]).max() <= 1e-13

    def test_ellipse_cross_validation(self, ellipse03):
        # interior boundary against the closed-form exterior curve through
        # the shared ellipse
        fb = boundary_points(ellipse03.interior)
        d = dense_horner_distance(fb, ellipse03.exterior)
        assert d.max() <= 1e-8

    def test_bump_image_matches_rho(self):
        dom = mp.bump_domain(0.1, 3)
        res = mp.theodorsen_interior(dom)
        w = boundary_points(res.series, 512)
        resid = np.abs(np.abs(w) - dom.rho(np.angle(w)))
        assert resid.max() <= 1e-8

    def test_smoothness_bound_value(self):
        # polar bound of the ellipse is 2c/(1-c^2)
        for c in (0.1, 0.3, 0.5):
            dom = mp.ellipse_domain(c)
            assert abs(dom.smoothness_bound - 2 * c / (1 - c * c)) <= 1e-5

    def test_smoothness_bound_is_derived_from_rho(self):
        # (log 1/rho)' = -(log rho)', so a reflected domain derives the
        # bound of the original; the bound is not an argument
        for dom in (mp.ellipse_domain(0.5), mp.bump_domain(0.05, 2)):
            reflected = mp.inverted_domain(dom)
            assert abs(reflected.smoothness_bound
                       - dom.smoothness_bound) <= 1e-12
        with pytest.raises(TypeError):
            mp.StarDomain(rho=mp.ellipse_domain(0.5).rho, smoothness_bound=0.1)

    def test_symmetry_is_derived_from_rho(self):
        # conjugation symmetry rho(-theta) == rho(theta) holds bitwise for
        # the catalog domains and their reflections; it is not an argument
        for dom in (mp.ellipse_domain(0.5), mp.bump_domain(0.05, 2)):
            assert dom.symmetric and mp.inverted_domain(dom).symmetric
        with pytest.raises(TypeError):
            mp.StarDomain(rho=mp.ellipse_domain(0.5).rho, symmetric=False)

    def test_rotation_order_is_kept_and_checked(self):
        # the order is stated by the curve's constructor, kept by its
        # reflection and its normalized pair's curve, and checked against
        # rho on the rotated grid
        for dom, k in ((mp.ellipse_domain(0.5), 2), (mp.bump_domain(0.3, 5), 5)):
            assert dom.order == mp.inverted_domain(dom).order == k
        assert mp.catalog("fourier_bump", eps=0.3, k=3).curve.order == 3
        assert domain_from_samples(np.full(8, 1.5)).order == 1
        for order in (3, 0, 1.5):
            with pytest.raises(InvalidInput):
                mp.StarDomain(rho=mp.ellipse_domain(0.5).rho, order=order)

    def test_nonconvergence_diagnostic(self):
        # smoothness bound 4.4: the two-step iteration does not settle
        # within its iteration cap
        dom = mp.ellipse_domain(0.8)
        with pytest.raises(NumericalFailure):
            mp.theodorsen_interior(dom)

    def test_sample_count_is_not_an_argument(self):
        # every solve reads its coefficients from START_SAMPLE_COUNT on
        with pytest.raises(TypeError):
            mp.theodorsen_interior(mp.bump_domain(0.0, 1), 1024)

    def test_continuation_doubles_until_resolved(self):
        # the c = 0.5 ellipse is not resolved at the 1024-sample start; the
        # continuation doubles it to the cap, where it is
        dom = mp.ellipse_domain(0.5)
        res = mp.theodorsen_interior(dom)
        assert mp.START_SAMPLE_COUNT == 1024
        assert res.sample_count == mp.MAX_SAMPLE_COUNT == 16384
        assert res.series.resolved

    # rate 0.5 at bound 4/3 (damped step 618 iterations, two-step 235) and
    # rate 0.40 at bound 0.94 (damped 146, two-step 51)
    @pytest.mark.parametrize("domain, most, samples", [
        (mp.ellipse_domain(0.5), 260, 16384),
        (mp.bump_domain(0.3, 3), 60, 1024),
    ], ids=["ellipse-0.5", "bump-0.3-3"])
    def test_two_step_iteration_count(self, domain, most, samples):
        res = mp.theodorsen_interior(domain)
        assert res.series.resolved and res.iterations <= most
        assert res.sample_count == samples
        assert res.residual <= mp.THEODORSEN_TOL

    def test_ellipse_radius_is_the_polar_form(self):
        # b^2 cos^2 + a^2 sin^2 taken as one cosine of 2 theta
        a, b = 1.5, 0.5
        theta = np.linspace(-7.0, 7.0, 1001)
        polar = a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
        assert np.allclose(mp.ellipse_domain(0.5).rho(theta), polar,
                           rtol=1e-15, atol=0)

    def test_sampled_domain_matches_closed_form(self):
        dom0 = mp.bump_domain(0.1, 3)
        theta = 2 * np.pi * np.arange(64) / 64
        dom1 = domain_from_samples(dom0.rho(theta))
        tt = np.linspace(0, 2 * np.pi, 777)
        assert np.abs(dom0.rho(tt) - dom1.rho(tt)).max() <= 1e-13
        res = mp.theodorsen_interior(dom1)
        w = boundary_points(res.series, 256)
        assert np.abs(np.abs(w) - dom0.rho(np.angle(w))).max() <= 1e-8

    @pytest.mark.parametrize("domain", [mp.ellipse_domain(0.3),
                                        mp.bump_domain(0.1, 3)])
    def test_even_samples_give_a_symmetric_domain(self, domain):
        # angles 2 pi j/m for j = -m/2 .. m/2 - 1 are negated exactly, so
        # the samples are bitwise even; the pair built on them is real
        m = 64
        theta = 2 * np.pi * np.fft.fftfreq(m)
        vals = domain.rho(theta)
        assert np.array_equal(vals[1:], vals[:0:-1])
        sampled = domain_from_samples(vals)
        assert sampled.symmetric
        f = mp.theodorsen_interior(sampled).series
        g = mp.inverted_series(
            mp.theodorsen_interior(mp.inverted_domain(sampled)).series)
        pair = mp.star_pair(sampled, f, g)
        blocks = (gk.build_b1(f, 16), gk.build_b4(g, 16),
                  *gk.build_b2_b3(f, g, 16))
        assert all(b.dtype == np.float64 for b in blocks)


class TestInversion:
    def test_identity_fixed_point(self):
        f = ComplexSeries.identity(Kind.TAYLOR_AT_ZERO, 8)
        g = mp.inverted_series(f)
        assert g.kind is Kind.LAURENT_AT_INFINITY
        assert abs(g.coeffs[0] - 1.0) <= 1e-12
        if g.order > 1:
            assert np.abs(g.coeffs[1:]).max() <= 1e-12

    def test_joukowski_reflects_to_geometric_series(self):
        # 1/conj(g(1/conj z)) = z/(1 + c z^2) = sum_k (-c)^k z^(2k+1)
        c = 0.3
        g = ComplexSeries.laurent([1.0, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0],
                                  resolved=True)
        f = mp.inverted_series(g)
        assert f.kind is Kind.TAYLOR_AT_ZERO and f.resolved
        expected = np.zeros(f.order)
        expected[1::2] = (-c) ** np.arange(len(expected[1::2]))
        assert np.abs(f.coeffs - expected).max() <= 1e-15
        # the series runs until its terms reach the coefficient floor
        assert c ** ((f.order - 2) // 2) >= 1e-14 > c ** (f.order // 2)

    def test_inverted_ellipse_matches_joukowski(self, ellipse03):
        # interior map of the reflected ellipse domain, pushed back out,
        # reproduces the closed-form exterior curve
        c = 0.3
        dom = mp.inverted_domain(mp.ellipse_domain(c))
        res = mp.theodorsen_interior(dom)
        g = mp.inverted_series(res.series)
        gb = boundary_points(g)
        target = ComplexSeries.laurent([1.0, 0.0, c, 0, 0, 0, 0, 0])
        assert dense_horner_distance(gb, target).max() <= 1e-8

    def test_involution(self, bump_pair):
        # reflecting twice returns either map, coefficient by coefficient
        for h in (bump_pair.interior, bump_pair.exterior):
            back = mp.inverted_series(mp.inverted_series(h))
            assert back.kind is h.kind and back.resolved == h.resolved
            diff = np.zeros(max(h.order, back.order), dtype=complex)
            diff[:h.order] += h.coeffs
            diff[:back.order] -= back.coeffs
            assert np.abs(diff).max() <= 1e-14

    @pytest.mark.parametrize("family, params", [
        ("ellipse", {"c": 0.1}), ("ellipse", {"c": 0.5}),
        ("fourier_bump", {"eps": 0.05, "k": 2})])
    def test_trimmed_lengths_match_triangular_recursion(self, family, params,
                                                        monkeypatch):
        # the Newton reciprocal's rounding, ~1e-17 of the largest
        # coefficient, sits far below the floor at which the reflection is
        # trimmed: every coefficient it keeps agrees with the untrimmed
        # triangular recursion to roundoff, and every one it drops is below
        # the floor. The two trimmed lengths agree except at a tie, a
        # coefficient within the routes' agreement tol of the floor (the
        # c = 0.1 exterior's 0.1^14 at index 29, the c = 0.5 interior
        # reflection's index 5812 at 7.6e-18 of the max below it), which
        # rounding may put on either side
        pair = mp.catalog(family, **params)
        newton = [mp.inverted_series(h) for h in (pair.interior, pair.exterior)]
        untrimmed = []

        def recorded(c):
            untrimmed.append(triangular_reciprocal(c))
            return untrimmed[-1]

        monkeypatch.setattr(mp, "reciprocal_array", recorded)
        for h, new in zip((pair.interior, pair.exterior), newton):
            ref = mp.inverted_series(h)
            full = untrimmed[-1]
            if new.kind is Kind.TAYLOR_AT_ZERO:
                full = np.concatenate([[0.0], full])
            scale = np.abs(full).max()
            tol, floor = 2e-16 * scale, COEFF_FLOOR * scale
            assert np.abs(new.coeffs - full[:new.order]).max() <= tol
            assert np.abs(full[new.order:]).max(initial=0.0) <= floor + tol
            if not (np.abs(np.abs(full) - floor) <= tol).any():
                assert new.order == ref.order

    def test_unresolved_input_is_named_within_the_cap(self, monkeypatch):
        # the reflected bump (0.3, 8) ends unresolved at 8186 terms on
        # 16384 samples: the reflection of that cut map does not decay,
        # and the cause is the cut, not a zero of h(z)/z
        h = mp.theodorsen_interior(mp.inverted_domain(mp.bump_domain(0.3, 8))).series
        assert not h.resolved and h.order == 8186
        lengths = []
        reciprocal = mp.reciprocal_array

        def recorded(c):
            lengths.append(len(c))
            return reciprocal(c)

        monkeypatch.setattr(mp, "reciprocal_array", recorded)
        with pytest.raises(NumericalFailure, match="unresolved") as failure:
            mp.inverted_series(h)
        assert "8186 terms" in str(failure.value)
        assert "vanishes" not in str(failure.value)
        assert lengths and max(lengths) <= mp.MAX_SAMPLE_COUNT

    def test_vanishing_map_rejected(self):
        # z + 2z^2 vanishes at -1/2: the reflected coefficients grow
        with pytest.raises(NumericalFailure):
            mp.inverted_series(ComplexSeries.taylor([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("coeffs", [
        [0.5, 1.0, 0.1],    # h(0) != 0: the reflection is bounded at infinity
        [0.0, 0.0, 1.0],    # h'(0) = 0: the reflection grows like z^2 there
    ])
    def test_non_normalized_interior_rejected(self, coeffs):
        with pytest.raises(InvalidInput):
            mp.inverted_series(ComplexSeries.taylor(coeffs))


class TestNormalizePair:
    """The gauge and the checks that ``star_pair`` applies to every pair."""

    def test_identity(self, identity_pair):
        assert identity_pair.g_prime_at_infinity == 1.0
        assert identity_pair.interior.coeffs[0] == 0
        assert identity_pair.interior.coeffs[1] == 1
        # the unit circle, so the reflected pair needs no special case
        theta = np.linspace(-7.0, 7.0, 101)
        assert np.all(identity_pair.curve.rho(theta) == 1.0)
        assert mp.inverted_pair(identity_pair).residuals["boundary"] <= 1e-15

    def test_affine_arithmetic(self, ellipse03):
        # the c = 0.3 pair and its curve scaled by 2 and turned by pi/4:
        # the gauge w -> w/a1, a1 = 2 e^(i pi/4), maps all three back
        a1 = 2.0 * np.exp(0.25j * np.pi)
        raw = mp.StarDomain(rho=lambda th: 2.0 * ellipse03.curve.rho(
            np.asarray(th) - 0.25 * np.pi))
        pair = mp.star_pair(
            raw, ComplexSeries.taylor(a1 * ellipse03.interior.coeffs),
            ComplexSeries.laurent(a1 * ellipse03.exterior.coeffs))
        assert pair.interior.coeffs[0] == 0
        assert pair.interior.coeffs[1] == 1
        assert np.abs(pair.interior.coeffs
                      - ellipse03.interior.coeffs).max() <= 1e-15
        assert abs(pair.g_prime_at_infinity
                   - ellipse03.g_prime_at_infinity) <= 1e-15
        theta = np.linspace(-7.0, 7.0, 101)
        assert np.abs(pair.curve.rho(theta)
                      - ellipse03.curve.rho(theta)).max() <= 1e-15
        assert pair.residuals["boundary"] <= 1e-12
        # the gauge is a scaling and a rotation: a raw f that moves the
        # curve's centre 0 is refused, not translated
        with pytest.raises(InvalidInput, match="raw_f\\(0\\)"):
            mp.star_pair(mp.bump_domain(0.0, 1),
                         ComplexSeries.taylor([1.0, 2.0, 0.0, 0.0]),
                         ComplexSeries.laurent([2.0, 1.0, 0.0, 0.0]))

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInput):
            mp.star_pair(mp.bump_domain(0.0, 1),
                         ComplexSeries.taylor([0.0, 0.0, 1.0]),
                         ComplexSeries.laurent([1.0, 0.0]))

    def test_twice_winding_interior_rejected(self):
        # z (z - 1/2)/(1 - z/2), a degree-2 Blaschke product, traces the
        # unit circle twice, as raw g = z traces it once: every sample lies
        # on the curve, but f is not univalent, so its winding rejects it
        k = np.arange(80)
        coeffs = np.where(k >= 2, 3.0 * 0.5 ** k, 0.0)
        coeffs[1] = -0.5
        with pytest.raises(NumericalFailure, match="winds 2 times"):
            mp.star_pair(mp.bump_domain(0.0, 1), ComplexSeries.taylor(coeffs),
                         ComplexSeries.laurent([1.0, 0.0]))

    def test_ellipse_g_prime(self, ellipse03):
        # |g'(inf)| = 1/f_raw'(0) feeds the log term of the action; it is
        # read from the exterior series, not stored beside it
        assert abs(ellipse03.g_prime_at_infinity) > 1.0
        assert ellipse03.g_prime_at_infinity == ellipse03.exterior.coeffs[0]

    def test_non_finite_residual_rejected(self, monkeypatch):
        # the boundary samples of this map overflow, so its trace has no
        # winding number; a residual that is NaN fails too, since
        # NaN > tol is False: only residual <= tol rejects it
        raw_f = ComplexSeries.taylor([0.0, 1.0, 1e308, 1e308])
        raw_g = ComplexSeries.laurent([1.0, 0.0])
        circle = mp.bump_domain(0.0, 1)
        with pytest.raises(NumericalFailure, match="winds nan times"):
            mp.star_pair(circle, raw_f, raw_g)
        monkeypatch.setattr(mp, "pair_boundary_residual", lambda *a: np.nan)
        with pytest.raises(NumericalFailure, match="boundary traces disagree"):
            mp.star_pair(circle, ComplexSeries.taylor([0.0, 1.0]), raw_g)

    def test_every_pair_is_checked(self, monkeypatch):
        # the identity's exact maps pass the check that a solved pair
        # passes, not a residual stated by hand
        monkeypatch.setattr(mp, "pair_boundary_residual", lambda *a: np.nan)
        mp._catalog_cached.cache_clear()
        with pytest.raises(NumericalFailure, match="boundary traces disagree"):
            mp.catalog("identity")

    @pytest.mark.parametrize("c", [1e-4, 1e-3, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_gauge_matches_theta_series(self, c):
        # |g'(inf)| = 1/f'(0) of the raw Theodorsen map, against theta
        # series that no solve enters (the gap reads at most 2.2e-16)
        g_inf = abs(mp.catalog("ellipse", c=c).g_prime_at_infinity)
        ref = math.exp(ellipse_log_conformal_radius(c))
        assert abs(g_inf - ref) <= 4.4e-16 * ref

    def test_theta_series_at_small_c(self):
        # log g'(inf) = 2q - q^2 + (8/3) q^3 - ... for q = c^2: at c = 1e-4
        # the cubic term is 1.3e-16 of the sum
        q = 1e-8
        ref = ellipse_log_conformal_radius(1e-4)
        assert abs(ref - (2 * q - q * q)) <= 1e-15 * ref


def two_curve_distance(f, g):
    """The largest dense Horner distance of a trace's samples to the other
    map's curve, either way round."""
    return max(dense_horner_distance(boundary_points(f), g).max(),
               dense_horner_distance(boundary_points(g), f).max())


class TestBoundaryCheck:
    @pytest.mark.parametrize("which", ["ellipse05.interior",
                                       "bump_pair.exterior", "z + 0.3/z"])
    def test_normal_offset_is_the_distance(self, which, request):
        # the reference projection: a point pushed off the curve along the
        # unit normal by delta, well inside the curvature radius, is
        # |delta| from it
        if which == "z + 0.3/z":
            curve = ComplexSeries.laurent([1.0, 0.0, 0.3])
        else:
            fixture, side = which.split(".")
            curve = getattr(request.getfixturevalue(fixture), side)
        t = 2 * np.pi * (np.arange(64) + 0.37) / 64
        z = np.exp(1j * t)
        tangent = evaluate(derivative(curve), z) * 1j * z
        normal = -1j * tangent / np.abs(tangent)
        for delta in (1e-3, -1e-3, 1e-6):
            d = dense_horner_distance(evaluate(curve, z) + delta * normal, curve)
            assert np.abs(d - abs(delta)).max() <= 1e-14

    # the radial gap is the distance to one point of the curve, at most
    # sqrt(1 + eps^2) times the true distance for smoothness bound eps: on
    # these pairs it reads 0.74 to 1.20 times the two-curve distance
    @pytest.mark.parametrize("which", [
        "ellipse01", "ellipse03", "ellipse05", "bump_pair", "bump03",
        "ellipse01~inverted", "ellipse03~inverted", "ellipse05~inverted",
        "bump_pair~inverted", "bump03~inverted", "mismatched"])
    def test_matches_dense_horner_check(self, which, request):
        if which.startswith("bump03"):
            pair = mp.catalog("fourier_bump", eps=0.3, k=3)
        elif which != "mismatched":
            pair = request.getfixturevalue(which.split("~")[0])
        if which.endswith("~inverted"):
            pair = mp.inverted_pair(pair)
        if which == "mismatched":
            # the c = 0.3 pair's exterior map with c = 0.31, a curve that
            # misses the pair's by about 0.01
            pair = request.getfixturevalue("ellipse03")
            coeffs = np.array(pair.exterior.coeffs)
            coeffs[2] *= 31 / 30
            f, g = pair.interior, ComplexSeries.laurent(coeffs)
        else:
            f, g = pair.interior, pair.exterior
        radial = mp.pair_boundary_residual(f, g, pair.curve)
        dense = two_curve_distance(f, g)
        assert dense / 2 <= radial <= 2 * dense

    def test_perturbed_coefficient_fails(self, ellipse03):
        # 1e-6 on coefficient 40 of the c = 0.3 interior map moves its
        # trace off the curve by about that much (the check reads 1.2e-6)
        coeffs = np.array(ellipse03.interior.coeffs)
        coeffs[40] += 1e-6
        f = ComplexSeries.taylor(coeffs)
        resid = mp.pair_boundary_residual(f, ellipse03.exterior, ellipse03.curve)
        assert 5e-7 <= resid and not resid <= mp.BOUNDARY_TOL
        with pytest.raises(NumericalFailure, match="boundary traces disagree"):
            mp.star_pair(ellipse03.curve, f, ellipse03.exterior)

    def test_no_horner_loop(self, ellipse05, monkeypatch):
        # a count, not a timing: the check of the 6408-term map must not
        # reach the O(K m) evaluator at all
        def refuse(*args):
            raise AssertionError("Horner loop in the boundary check")
        monkeypatch.setattr("weldlab.series.evaluate_array", refuse)
        monkeypatch.setattr(mp, "evaluate_array", refuse)
        resid = mp.pair_boundary_residual(ellipse05.interior, ellipse05.exterior,
                                          ellipse05.curve)
        assert resid <= mp.BOUNDARY_TOL

    def test_no_dense_start_matrix(self, ellipse05):
        # a 1024 x 4096 complex distance matrix alone is 64 MB; the check
        # of the 6408-term map samples each trace once on 1024 points
        tracemalloc.start()
        try:
            mp.pair_boundary_residual(ellipse05.interior, ellipse05.exterior,
                                      ellipse05.curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 4096 * 16 // 2


class TestCatalogInvariants:
    @pytest.mark.parametrize("fixture", ["identity_pair", "ellipse01",
                                         "ellipse03", "ellipse05", "bump_pair"])
    def test_boundary_agreement(self, fixture, request):
        pair = request.getfixturevalue(fixture)
        assert mp.pair_boundary_residual(pair.interior, pair.exterior,
                                         pair.curve) <= 1e-7

    @pytest.mark.parametrize("fixture", ["ellipse01", "ellipse03",
                                         "ellipse05", "bump_pair"])
    def test_univalence_sampling(self, fixture, request):
        pair = request.getfixturevalue(fixture)
        pts = []
        for r in (0.5, 0.9, 0.99):
            theta = 2 * np.pi * np.arange(512) / 512
            pts.append(evaluate(pair.interior, r * np.exp(1j * theta)))
        vals = np.concatenate(pts)
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0
        pts = []
        for r in (1.01, 1.1, 2.0):
            theta = 2 * np.pi * np.arange(512) / 512
            pts.append(evaluate(pair.exterior, r * np.exp(1j * theta)))
        vals = np.concatenate(pts)
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            mp.catalog("ellipse", c=1.5)
        with pytest.raises(NumericalFailure):
            mp.catalog("fourier_bump", eps=0.9, k=2)  # iteration does not converge
        with pytest.raises(InvalidInput):
            mp.catalog("nosuch")

    @pytest.mark.parametrize("family, params, name", [
        ("ellipse", {}, "'c'"),
        ("fourier_bump", {"eps": 0.05}, "'k'"),
        ("ellipse", {"c": 0.3, "k": 7}, "'k'"),
        ("identity", {"c": 0.3}, "'c'"),
        # every missing parameter is named, not the first alone
        ("fourier_bump", {}, "fourier_bump needs parameter 'eps', 'k'$"),
    ], ids=["ellipse-missing-c", "bump-missing-k", "ellipse-extra-k",
            "identity-extra-c", "bump-missing-both"])
    def test_missing_or_unread_parameter_rejected(self, family, params,
                                                  name):
        with pytest.raises(InvalidInput, match=name):
            mp.catalog(family, **params)

    def test_fractional_bump_frequency_rejected(self):
        with pytest.raises(InvalidInput, match="positive integer"):
            mp.catalog("fourier_bump", eps=0.05, k=2.5)
        # an integral float is the integer frequency, and its cache entry
        assert mp.catalog("fourier_bump", eps=0.05, k=2.0).interior is \
            mp.catalog("fourier_bump", eps=0.05, k=2).interior

    def test_bump_past_the_classical_bound_matches_the_boundary_operator(self):
        # bump (0.3, 5) has max|rho'/rho| = 1.57; its potential by the
        # Neumann-Poincare boundary operator is -1.440868132432922
        np_value = -1.440868132432922
        pair = mp.catalog("fourier_bump", eps=0.3, k=5)
        assert pair.curve.smoothness_bound > 1.0
        s2 = gk.potential(pair.interior, [1024]).extrapolated
        assert abs(s2 - np_value) <= 1e-12
        s1 = lv.s1_coefficient_route(pair)
        assert abs(s1 + 12.0 * np.pi * np_value) <= 1e-14 * abs(s1)

    @pytest.mark.parametrize("eps, k", [(0.5, 2), (0.4, 3), (0.25, 4),
                                        (0.2, 5), (0.6, 2)])
    def test_bumps_past_the_classical_bound_close_the_identity(self, eps, k):
        pair = mp.catalog("fourier_bump", eps=eps, k=k)
        assert pair.curve.smoothness_bound > 1.0
        s2 = gk.potential(pair.interior, [512]).extrapolated
        s1 = lv.s1_coefficient_route(pair)
        assert abs(s1 + 12.0 * np.pi * s2) <= 1e-12 * abs(s1)

    # the blocks and the determinant split a k-fold pair by residue class
    # only where its coefficients are exactly zero off the class: f keeps
    # the indices 1 mod k, g (graded z^(1-n)) the indices 0 mod k. The
    # power-of-two Theodorsen grid is not invariant under a rotation by
    # 2 pi/3 or 2 pi/5, so the bumps (0.3, 3) and (0.3, 5) would keep
    # discretization error of 1e-14 off class if the solve did not zero it
    @pytest.mark.parametrize("family, params, k", [
        ("ellipse", {"c": 0.1}, 2), ("ellipse", {"c": 0.3}, 2),
        ("ellipse", {"c": 0.5}, 2), ("fourier_bump", {"eps": 0.05, "k": 2}, 2),
        ("fourier_bump", {"eps": 0.05, "k": 3}, 3),
        ("fourier_bump", {"eps": 0.3, "k": 3}, 3),
        ("fourier_bump", {"eps": 0.3, "k": 5}, 5)])
    def test_k_fold_pairs_are_exactly_zero_off_class(self, family, params, k):
        pair = mp.catalog(family, **params)
        f, g = pair.interior.coeffs, pair.exterior.coeffs
        assert np.all(f[np.arange(len(f)) % k != 1] == 0.0)
        assert np.all(g[np.arange(len(g)) % k != 0] == 0.0)
        for block in (gk.build_b1(pair.interior, 64),
                      gk.build_b4(pair.exterior, 64)):
            assert _symmetry_order(block, 1) == k

    # a k-fold spectrum keeps only indices 1 mod k, so its last kept index
    # can land near the window edge while still far above the floor; such
    # a cut map is not resolved, and the continuation doubles past it
    @pytest.mark.parametrize("eps, k", [(0.1, 9), (0.05, 16), (0.1, 8)])
    def test_high_k_bumps_resolve(self, eps, k):
        pair = mp.catalog("fourier_bump", eps=eps, k=k)
        assert pair.interior.resolved and pair.exterior.resolved
        assert pair.residuals["boundary"] <= 1e-11

    @pytest.mark.parametrize("c", [0.6, 0.7])
    def test_past_the_map_reach_fails_the_boundary_check(self, c):
        # the iteration converges here, but 16384 samples do not resolve
        # the map (item 12 of the roadmap): the two traces disagree
        with pytest.raises(NumericalFailure, match="boundary traces disagree"):
            mp.catalog("ellipse", c=c)

    @pytest.fixture
    def solves(self, monkeypatch):
        """Results of every Theodorsen solve of an uncached catalog call."""
        results = []
        solve = mp.theodorsen_interior

        def recorded(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mp, "theodorsen_interior", recorded)
        mp._catalog_cached.cache_clear()
        return results

    def test_ellipse_is_one_theodorsen_solve(self, solves):
        pair = mp.catalog("ellipse", c=0.5)
        assert len(solves) == 1
        assert solves[0].sample_count == pair.sample_count == 16384

    def test_bump_is_one_solve_per_map(self, solves):
        # the reflected domain of bump(0.2, 4) needs twice the samples of
        # the domain itself; the reflection needs no shared count, and the
        # pair records the larger one
        pair = mp.catalog("fourier_bump", eps=0.2, k=4)
        assert len(solves) == 2 and all(r.series.resolved for r in solves)
        assert sorted(r.sample_count for r in solves) == [1024, 2048]
        assert pair.sample_count == 2048

    @pytest.mark.parametrize("family, params, count", [
        ("identity", {}, 0), ("ellipse", {"c": 0.8}, 0),
        ("fourier_bump", {"eps": 0.2, "k": 4}, 1)])
    def test_exterior_alone_solves_no_interior_map(self, solves, family,
                                                   params, count):
        # the closed form, or the reflected solve in its raw gauge, which
        # is the pair's exterior map up to the scale f'(0); the ellipse at
        # c = 0.8 has no pair, as its interior map cannot be resolved
        g = mp.catalog_exterior(family, **params)
        assert len(solves) == count
        assert mp.catalog_exterior(family, **params) is g
        if family != "ellipse":
            h = mp.catalog(family, **params).exterior.coeffs
            assert np.abs(g.coeffs / g.coeffs[0] - h / h[0]).max() <= 1e-15

    def test_exterior_off_the_curve_is_refused(self, monkeypatch):
        # z + 0.3/z against the curve of c = 0.31
        ellipse = mp.ellipse_domain
        monkeypatch.setattr(mp, "ellipse_domain", lambda c: ellipse(c + 0.01))
        mp._catalog_cached.cache_clear()
        with pytest.raises(NumericalFailure,
                           match="exterior trace off the curve"):
            mp.catalog_exterior("ellipse", c=0.3)

    def test_results_do_not_share_mutable_dicts(self):
        first = mp.catalog("ellipse", c=0.1)
        first.residuals["boundary"] = -1.0
        again = mp.catalog("ellipse", c=0.1)
        assert again.residuals["boundary"] >= 0.0


class TestSchwarzian:
    def test_identity_map(self):
        s = mp.schwarzian(ComplexSeries.identity(Kind.TAYLOR_AT_ZERO, 8), 0.3 + 0.1j)
        assert abs(s) <= 1e-14

    def test_moebius_series(self):
        # z/(1 - 0.4 z) as a series: Schwarzian vanishes identically
        beta = 0.4
        coeffs = [0.0] + [beta ** (k - 1) for k in range(1, 24)]
        m = ComplexSeries.taylor(coeffs)
        pts = np.array([0.0, 0.2 - 0.3j, 0.5j, -0.4])
        assert np.abs(mp.schwarzian(m, pts)).max() <= 1e-9

    def test_quadratic_value(self):
        # S(z + t z^2)(0) = -6 t^2
        for t in (0.1, 0.2):
            s = mp.schwarzian(ComplexSeries.taylor([0, 1, t]), 0.0)
            assert abs(s - (-6 * t * t)) <= 1e-10

    def test_evaluator_route_matches_series(self, ellipse03):
        f = ellipse03.interior
        pts = 0.5 * np.exp(1j * 2 * np.pi * np.arange(7) / 7)
        via_series = mp.schwarzian(f, pts)
        via_eval = schwarzian_by_samples(lambda z: evaluate(f, z), pts)
        assert np.abs(via_series - via_eval).max() <= 1e-9

    def test_cocycle(self, ellipse03):
        # S(h o m) = (S(h) o m) m'^2 for a disk Moebius transform
        rng = np.random.default_rng(17)
        a = 1.2
        b = 0.3 + 0.2j
        norm = np.sqrt(a * a - abs(b) ** 2)
        m = (a / norm, b / norm)   # the SU(1,1) pair of a disk automorphism
        f = ellipse03.interior
        pts = 0.6 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        lhs = schwarzian_by_samples(lambda z: evaluate(f, fx.apply_mobius(m, z)),
                                    pts)
        rhs = (mp.schwarzian(f, fx.apply_mobius(m, pts))
               * fx.mobius_derivative(m, pts) ** 2)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_laurent_series_rejected(self):
        with pytest.raises(InvalidInput):
            mp.schwarzian(ComplexSeries.laurent([1.0, 0.0, 0.3]), 2.0)

    def test_critical_point_rejected(self):
        # h = z^2 has h'(0) = 0
        with pytest.raises(NumericalFailure):
            mp.schwarzian(ComplexSeries.taylor([0, 0, 1.0]), 0.0)


class TestPairSerialization:
    # a pair is written by the command line's one report writer, which
    # renders its coefficient lists apart from json's encoder
    @pytest.mark.parametrize("family, params", [
        ("identity", {}), ("ellipse", {"c": 0.1})])
    def test_text_is_the_json_layout(self, tmp_path, family, params):
        pair = mp.catalog(family, **params)
        args = argparse.Namespace(out=str(tmp_path / "pair.json"),
                                  verbose=False)
        path = cli._write_report(args, {}, "unused.json",
                                 coeffs={"taylor_coeffs": pair.interior.coeffs,
                                         "laurent_coeffs": pair.exterior.coeffs})
        text = (tmp_path / "pair.json").read_text()
        assert path == args.out
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_non_finite_residual_rejected(self, tmp_path, ellipse01):
        # series coefficients are finite by construction; a residual may not be
        args = argparse.Namespace(out=str(tmp_path / "pair.json"),
                                  verbose=False)
        with pytest.raises(NumericalFailure):
            cli._write_report(args, {"residuals": {"boundary": np.nan}},
                              "unused.json",
                              coeffs={"taylor_coeffs": ellipse01.interior.coeffs})
        assert not (tmp_path / "pair.json").exists()
