import dataclasses
import tracemalloc

import numpy as np
import pytest

from references import (christoffel_weights, inverted_pair, mobius_ellipse_pair,
                        whole_grid_s1_value)
from weldlab import liouville as lv
from weldlab import maps as mp
from weldlab.classical import s_cl_report
from weldlab.errors import InvalidInput, NumericalFailure
from weldlab.series import ComplexSeries, Kind


def closed_form_s2(c, terms=400):
    return sum(np.log1p(-c ** (2 * k)) for k in range(1, terms + 1))


class TestQuadratureGrid:
    @pytest.mark.parametrize("n_r,n_theta", [(64, 128), (128, 256), (256, 512)])
    def test_area_is_pi(self, n_r, n_theta):
        r, wr = lv.QuadratureGrid(n_r, n_theta).nodes
        assert abs((wr * r).sum() * 2.0 * np.pi - np.pi) <= 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInput):
            lv.QuadratureGrid(1, 2)

    @pytest.mark.parametrize("n, tol", [
        *((n, 2e-12) for n in (2, 3, 7, 64, 65, 128, 256)),
        (512, 1e-11), (1024, 1e-11)])
    def test_weights_meet_the_christoffel_sum(self, n, tol):
        # leggauss's eigensolve misses by 1.4e-11 at n = 128 and 1.2e-9 at 1024
        x, w = lv._gauss_legendre(n)
        ref = christoffel_weights(x, n)
        assert np.max(np.abs(w - ref) / ref) <= tol

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 128, 256])
    def test_even_moments_exact(self, n):
        # the rule integrates x^(2j), j < n, exactly: sum w x^(2j) = 2/(2j+1)
        x, w = lv._gauss_legendre(n)
        exact = 2.0 / (2.0 * np.arange(n) + 1.0)
        moments = x[None, :] ** (2 * np.arange(n))[:, None] @ w
        assert np.max(np.abs(moments - exact) / exact) <= 2e-13

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 128, 256])
    def test_nodes_symmetric_and_those_of_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss
        x, w = lv._gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0)
        if n % 2:
            assert x[n // 2] == 0.0
        ref = leggauss(n)[0]
        assert np.all(np.abs(x - ref) <= 2 * np.spacing(np.abs(ref)))


class TestS1:
    def test_identity_is_zero(self, identity_pair):
        # f'' and the exterior numerator 2P + uP' vanish identically
        rep = lv.s1(identity_pair, [(16, 32), (32, 64)])
        assert rep.estimates == (0.0, 0.0)

    def test_ellipse_identity_with_determinant(self, ellipse03):
        rep = lv.s1(ellipse03)
        s2 = closed_form_s2(0.3)
        resid = rep.extrapolated + 12 * np.pi * s2
        assert abs(resid) <= 1e-3 * max(1.0, abs(rep.extrapolated))

    def test_bump_positive_and_consistent(self, bump_pair):
        rep = lv.s1(bump_pair)
        assert rep.extrapolated > 0
        resid = lv.identity_report(bump_pair)["residual_identity_relative"]
        assert resid <= 1e-3

    def test_quadrature_convergence_rate(self, ellipse03):
        # each refinement cuts the increment by at least 4 (or it has hit
        # the roundoff floor)
        grids = [(32, 64), (64, 128), (128, 256), (256, 512)]
        rep = lv.s1(ellipse03, grids)
        e = np.array(rep.estimates)
        d = np.abs(np.diff(e))
        for a, b in zip(d, d[1:]):
            assert b <= a / 4.0 or b <= 1e-12

    def test_coefficient_route_oracle(self, ellipse03, bump_pair):
        # the Parseval evaluation is an independent oracle for the grid
        for pair in (ellipse03, bump_pair):
            grid_val = lv.s1(pair).extrapolated
            coef_val = lv.s1_coefficient_route(pair)
            assert abs(grid_val - coef_val) <= 1e-8 * max(1.0, abs(coef_val))

    @pytest.mark.parametrize("fixture, c", [("ellipse01", 0.1),
                                            ("ellipse03", 0.3),
                                            ("ellipse05", 0.5)])
    def test_coefficient_route_closed_form(self, fixture, c, request):
        # z + c/z outside: the exterior triple is exact, and the route
        # meets S1 = -12 pi sum log(1 - c^(2k)) without the determinant code
        pair = request.getfixturevalue(fixture)
        ref = -12.0 * np.pi * closed_form_s2(c)
        assert abs(lv.s1_coefficient_route(pair) - ref) <= 1e-13 * ref

    # the reflected pair's interior map is built from g and its exterior
    # map from f, and the two log terms are equal, so the two Dirichlet
    # integrals trade places: a check of the reflection that does not
    # re-measure B1's truncation
    @pytest.mark.parametrize("family, params, tol", [
        ("ellipse", {"c": 1e-4}, 1e-12), ("ellipse", {"c": 0.1}, 1e-14),
        ("ellipse", {"c": 0.3}, 1e-14), ("ellipse", {"c": 0.5}, 1e-14),
        ("fourier_bump", {"eps": 0.05, "k": 2}, 1e-14),
        ("fourier_bump", {"eps": 0.3, "k": 5}, 1e-14)])
    def test_coefficient_route_of_the_reflected_pair(self, family, params, tol):
        pair = mp.catalog(family, **params)
        value = lv.s1_coefficient_route(pair)
        reflected = lv.s1_coefficient_route(inverted_pair(pair))
        assert abs(reflected - value) <= tol * value

    # a Moebius image of the ellipse has no symmetry and the ellipse's
    # action: a closed form for the action's 1-fold complex path
    @pytest.mark.parametrize("c, a", [(0.3, 0.4 + 0.2j), (0.3, -0.5),
                                      (0.5, 0.3 - 0.3j)])
    def test_coefficient_route_of_a_moebius_image(self, c, a):
        pair = mobius_ellipse_pair(c, a)
        assert pair.interior.coeffs.dtype == np.complex128
        assert pair.exterior.coeffs.dtype == np.complex128
        ref = -12.0 * np.pi * closed_form_s2(c)
        assert abs(lv.s1_coefficient_route(pair) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("a", [0.4 + 0.2j, -0.5])
    def test_grid_of_a_moebius_image(self, a):
        value = lv.s1_value(mobius_ellipse_pair(0.3, a), lv.QuadratureGrid(256, 512))
        ref = -12.0 * np.pi * closed_form_s2(0.3)
        assert abs(value - ref) <= 1e-11 * ref

    def test_s1_nonnegative_on_catalog(self, identity_pair, ellipse01,
                                       ellipse03, bump_pair):
        for pair in (identity_pair, ellipse01, ellipse03, bump_pair):
            assert lv.s1(pair, [(64, 128), (128, 256)]).extrapolated >= -1e-10


class TestBands:
    """``s1_value`` takes its grid one band of circles at a time."""

    def test_peak_does_not_grow_with_the_grid(self, ellipse05):
        # 32 MiB traced with the (256, 2048) grid's arrays held at once
        lv.s1_value(ellipse05, lv.QuadratureGrid(2, 2048))
        tracemalloc.start()
        try:
            lv.s1_value(ellipse05, lv.QuadratureGrid(256, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("grid", [*lv.DEFAULT_GRIDS, (256, 2048)])
    @pytest.mark.parametrize("fixture", ["ellipse01", "ellipse05", "bump_pair"])
    def test_bitwise_the_whole_grid(self, fixture, grid, request):
        pair = request.getfixturevalue(fixture)
        g = lv.QuadratureGrid(*grid)
        assert lv.s1_value(pair, g) == whole_grid_s1_value(pair, g)

    def test_nan_fails_the_cap(self, identity_pair):
        # z + 1e306 z^30: f' and f'' get infinite coefficients, their FFT
        # evaluation makes the integrand NaN, and NaN > INTEGRAND_CAP is False
        c = np.zeros(31)
        c[1], c[30] = 1.0, 1e306
        pair = dataclasses.replace(
            identity_pair, interior=ComplexSeries(Kind.TAYLOR_AT_ZERO, c))
        with np.errstate(all="ignore"), pytest.raises(
                NumericalFailure, match="^integrand exceeds the blow-up cap "
                "near the boundary: curve appears to fall outside the "
                "finite-action class$"):
            lv.s1_value(pair, lv.QuadratureGrid(16, 32))

    def test_cap_checked_on_the_outermost_band(self, identity_pair):
        # f = z + a z^2 with a just below 1/2: f' nearly vanishes at z = -1,
        # so |f''/f'|^2 exceeds the cap on the outermost of the 256 circles
        # alone. Only the interior enters, the identity's exterior adds 0.
        pair = dataclasses.replace(
            identity_pair,
            interior=ComplexSeries(Kind.TAYLOR_AT_ZERO, [0.0, 1.0, 0.49998]))
        with pytest.raises(NumericalFailure, match="^integrand exceeds the "
                           "blow-up cap near the boundary: curve appears to "
                           "fall outside the finite-action class$"):
            lv.s1_value(pair, lv.QuadratureGrid(256, 512))
        grid = lv.QuadratureGrid(128, 512)   # every circle under the cap
        assert lv.s1_value(pair, grid) == whole_grid_s1_value(pair, grid)


class TestIdentityReport:
    def test_identity_pair_all_zero(self, identity_pair):
        rep = lv.identity_report(identity_pair, orders=(4, 8, 16))
        assert abs(rep["S1"]) <= 1e-14
        assert abs(rep["S2_univ_via_B1"]) <= 1e-14
        assert abs(rep["S2_univ_via_B4"]) <= 1e-14
        assert rep["residual_identity_relative"] <= 1e-14

    def test_ellipse03(self, ellipse03):
        rep = lv.identity_report(ellipse03)
        assert rep["residual_operators"] <= 1e-6
        assert rep["residual_identity_relative"] <= 1e-3

    def test_ellipse05_larger_truncation(self, ellipse05):
        # the slowly-decaying pair needs both a finer angular grid and a
        # deeper truncation before the two sides line up
        rep = lv.identity_report(
            ellipse05, grids=((64, 512), (128, 1024), (256, 2048)),
            orders=(320, 640, 1280))
        assert rep["residual_identity_relative"] <= 1e-3

    def test_joint_refinement(self, ellipse01, ellipse03):
        # identity residual decreases when grid and truncation refine jointly
        for pair, cval in ((ellipse01, 0.1), (ellipse03, 0.3)):
            coarse = lv.identity_report(pair, grids=((32, 64), (64, 128)),
                                        orders=(8, 16))
            fine = lv.identity_report(pair)
            assert (abs(fine["residual_identity"])
                    <= abs(coarse["residual_identity"]) + 1e-12)


class TestSclReport:
    def test_basepoint_genus2(self):
        rep = s_cl_report(0.0, 2)
        assert rep["S_cl"] == pytest.approx(16 * np.pi, abs=1e-12)
        assert rep["slack"] == 0.0
        assert rep["is_fuchsian_point"]

    def test_affine_formula(self):
        rep = s_cl_report(0.1, 2)
        assert rep["S_cl"] == pytest.approx(16 * np.pi - 1.2 * np.pi, abs=1e-12)
        assert rep["slack"] == pytest.approx(1.2 * np.pi, abs=1e-12)
        assert not rep["is_fuchsian_point"]

    @pytest.mark.parametrize("s2dg", [0.0, 1e-6, 0.05, 0.5, 3.0])
    def test_bound_holds(self, s2dg):
        rep = s_cl_report(s2dg, 2)
        assert rep["S_cl"] <= 8 * np.pi * 2 + 1e-12
        assert rep["slack"] == pytest.approx(12 * np.pi * s2dg, rel=1e-12, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            s_cl_report(-1e-3, 2)
        with pytest.raises(InvalidInput):
            s_cl_report(0.1, 1)

    @pytest.mark.parametrize("s2dg", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_rejected(self, s2dg):
        # NaN would report a NaN slack, inf an S_cl of -inf
        with pytest.raises(InvalidInput, match="is not a finite number"):
            s_cl_report(s2dg, 2)
