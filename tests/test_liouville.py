import numpy as np
import pytest

from weldlab import liouville as lv
from weldlab.errors import InvalidInput


def closed_form_s2(c, terms=400):
    return sum(np.log1p(-c ** (2 * k)) for k in range(1, terms + 1))


class TestQuadratureGrid:
    @pytest.mark.parametrize("n_r,n_theta", [(64, 128), (128, 256), (256, 512)])
    def test_area_is_pi(self, n_r, n_theta):
        r, wr, theta = lv.QuadratureGrid(n_r, n_theta).nodes
        assert len(theta) == n_theta
        assert abs((wr * r).sum() * 2.0 * np.pi - np.pi) <= 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInput):
            lv.QuadratureGrid(1, 2)


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

    def test_s1_nonnegative_on_catalog(self, identity_pair, ellipse01,
                                       ellipse03, bump_pair):
        for pair in (identity_pair, ellipse01, ellipse03, bump_pair):
            assert lv.s1(pair, [(64, 128), (128, 256)]).extrapolated >= -1e-10


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
        rep = lv.s_cl_report(0.0, 2)
        assert rep["S_cl"] == pytest.approx(16 * np.pi, abs=1e-12)
        assert rep["slack"] == 0.0
        assert rep["is_fuchsian_point"]

    def test_affine_formula(self):
        rep = lv.s_cl_report(0.1, 2)
        assert rep["S_cl"] == pytest.approx(16 * np.pi - 1.2 * np.pi, abs=1e-12)
        assert rep["slack"] == pytest.approx(1.2 * np.pi, abs=1e-12)
        assert not rep["is_fuchsian_point"]

    @pytest.mark.parametrize("s2dg", [0.0, 1e-6, 0.05, 0.5, 3.0])
    def test_bound_holds(self, s2dg):
        rep = lv.s_cl_report(s2dg, 2)
        assert rep["S_cl"] <= 8 * np.pi * 2 + 1e-12
        assert rep["slack"] == pytest.approx(12 * np.pi * s2dg, rel=1e-12, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            lv.s_cl_report(-1e-3, 2)
        with pytest.raises(InvalidInput):
            lv.s_cl_report(0.1, 1)
