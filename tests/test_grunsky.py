import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from weldlab import grunsky as gk
from weldlab import liouville as lv
from weldlab import maps as mp
from weldlab import series
from weldlab.errors import InvalidInput, NumericalFailure
from weldlab.series import ComplexSeries, Kind, evaluate

from references import disk_domain, svd_logdet


def closed_form_logdet(c, n):
    return sum(np.log1p(-c ** (2 * k)) for k in range(1, n + 1))


def truncated_blocks(pair, n):
    """The four N x N blocks (b1, b2, b3, b4) of a pair."""
    b2, b3 = gk.build_b2_b3(pair, n)
    return gk.build_b1(pair, n), b2, b3, gk.build_b4(pair, n)


def full_product_norms(b1, b2, b3, b4, h):
    """Frobenius norms of the four block relations from the full products
    of the blocks, cut to their leading h x h block afterwards."""
    eye = np.eye(len(b1))
    rs = (b1 @ b1.conj().T + b2 @ b2.conj().T - eye,
          b3 @ b1.conj().T + b4 @ b2.conj().T,
          b1 @ b3.conj().T + b2 @ b4.conj().T,
          b3 @ b3.conj().T + b4 @ b4.conj().T - eye)
    return [float(np.linalg.norm(r[:h, :h])) for r in rs]


def svd_gap(b, orders):
    """Largest gap between logdet_potential's orders and per-order SVDs."""
    rep = gk.logdet_potential(b, orders)
    return np.abs(np.subtract(rep.estimates, svd_logdet(b, orders))).max()


def rotated(pair, alpha):
    """The pair e^(-i a) f(e^(i a) z), e^(-i a) g(e^(i a) z): it bounds the
    rotated curve, its coefficients a_k e^(i(k-1)a) and g_k e^(-ika) are
    complex, and its potential is that of the original pair."""
    f, g = pair.interior, pair.exterior
    k_f, k_g = np.arange(f.order), np.arange(g.order)
    return dataclasses.replace(
        pair,
        interior=ComplexSeries.taylor(
            f.coeffs * np.exp(1j * (k_f - 1) * alpha), resolved=f.resolved),
        exterior=ComplexSeries.laurent(
            g.coeffs * np.exp(-1j * k_g * alpha), resolved=g.resolved))


@pytest.fixture(scope="module")
def blocks64_ellipse03(ellipse03):
    return truncated_blocks(ellipse03, 64)


class TestBuildB1:
    def test_identity_zero(self, identity_pair):
        assert np.abs(gk.build_b1(identity_pair, 8)).max() <= 1e-15

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_quadratic_entry(self, t):
        # |b1[1,1]| = t^2 for f = z + t z^2: the zw coefficient of
        # log(1 + t(z + w)) is -t^2
        f = ComplexSeries.taylor([0, 1, t, 0])
        b1 = gk.build_b1(f, 1)
        assert abs(abs(b1[0, 0]) - t * t) <= 1e-12

    def test_quadratic_row_oracle(self):
        # f = z + t z^2: log((f(z)-f(w))/(z-w)) = log(1 + t(z + w)) has
        # z w^j coefficient (-1)^j t^(j+1), so b1[1, j] = -sqrt(j) times it
        # and the first row has squared norm sum_j j t^(2j+2)
        t = 0.2
        n = 12
        b1 = gk.build_b1(ComplexSeries.taylor([0, 1, t] + [0] * (2 * n)), n)
        js = np.arange(1, n + 1, dtype=float)
        oracle = float(np.sum(js * t ** (2 * js + 2)))
        assert abs(np.sum(np.abs(b1[0]) ** 2) - oracle) <= 1e-12

    def test_entries_stable_under_order_doubling(self, ellipse03):
        n = 32
        b_short = gk.build_b1(ComplexSeries.taylor(
            ellipse03.interior.coeffs[:2 * n + 2]), n)
        b_long = gk.build_b1(ellipse03.interior, n)
        assert np.abs(b_short - b_long).max() <= 1e-12

    def test_insufficient_order_rejected(self):
        f = ComplexSeries.taylor([0, 1, 0.3, 0.2])  # truncated, unresolved
        with pytest.raises(InvalidInput):
            gk.build_b1(f, 16)
        # the same data marked resolved is zero-padded and accepted
        gk.build_b1(ComplexSeries.taylor([0, 1, 0.3, 0.2], resolved=True), 16)

    def test_builders_require_every_coefficient_they_read(self, ellipse03):
        # b1 at N = 64 reads f through index 129 and b4 reads g through 128;
        # an unresolved series one short was zero-padded, off by ~1e-5
        n = 64
        f = ellipse03.interior.coeffs
        g = mp.inverted_pair(ellipse03).exterior.coeffs
        for build, coeffs, make, need in (
                (gk.build_b1, f, ComplexSeries.taylor, 2 * n + 2),
                (gk.build_b4, g, ComplexSeries.laurent, 2 * n + 1)):
            with pytest.raises(InvalidInput, match=f"the {need} coefficients"):
                build(make(coeffs[:need - 1]), n)
            full = build(make(coeffs, resolved=True), n)
            assert np.array_equal(build(make(coeffs[:need]), n), full)

    def test_zero_derivative_rejected(self):
        # f'(0) = 0: z/f(z) has a pole, so there is no exterior map 1/f(1/z)
        with pytest.raises(InvalidInput):
            gk.build_b1(ComplexSeries.taylor([0, 0, 1, 0.3], resolved=True), 4)

    def test_power_sum_oracle_complex(self):
        # log(1 + u) = sum_k (-1)^(k+1) u^k / k with
        # u = (f(z)-f(w))/(z-w) - 1 = sum_k a_k sum_{i+j=k-1} z^i w^j, on
        # data with no conjugation symmetry; every power of u is taken
        # exactly in the ring truncated at degree n in each variable
        a = [0, 1, 0.2j, -0.1, 0.05 * (1 + 1j)]
        n = 12
        size = n + 1
        u = np.zeros((size, size), dtype=complex)
        for k in range(2, len(a)):
            for i in range(k):
                u[i, k - 1 - i] += a[k]

        def times(x, y):
            out = np.zeros_like(x)
            for i in range(size):
                for j in range(size):
                    out[i:, j:] += x[i, j] * y[:size - i, :size - j]
            return out

        log = np.zeros_like(u)
        power = u
        for k in range(1, 2 * n + 1):  # u^k has total degree >= k
            log += (-1) ** (k + 1) * power / k
            power = times(power, u)
        m = np.arange(1, size, dtype=float)
        oracle = -np.sqrt(np.outer(m, m)) * log[1:, 1:]
        b1 = gk.build_b1(ComplexSeries.taylor(a, resolved=True), n)
        assert np.abs(b1 - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_deep_log_memory(self, ellipse05, monkeypatch):
        # the Newton log works on blocks of its spectra: on the c = 0.5
        # generating array at N = 1280 its traced peak stays below the
        # 88 MiB the slice recursion held
        peaks = []
        log = gk._log_bivariate

        def traced(d):
            tracemalloc.start()
            try:
                return log(d)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(gk, "_log_bivariate", traced)
        gk.build_b1(ellipse05, 1280)
        assert len(peaks) == 1 and peaks[0] <= 88 << 20

    def test_two_fold_log_memory(self, ellipse05, monkeypatch):
        # the c = 0.5 generating array is 2-fold, so the log keeps one
        # residue class of its spectrum, half the y-frequencies, and its
        # traced peak at N = 1280 is 29.4 MiB; the builder hands the array
        # over in a list
        peaks, orders = [], []
        log = gk._log_bivariate

        def traced(d):
            orders.append(series._symmetry_order(d[0]))
            tracemalloc.start()
            try:
                return log(d)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(gk, "_log_bivariate", traced)
        gk.build_b1(ellipse05, 1280)
        assert orders == [2] and peaks[0] <= 32 << 20

    def test_build_memory(self, ellipse05):
        # the generating array is freed once its spectrum is taken and the
        # weights are applied by row blocks, so the whole build peaks at
        # the log's own working set (29.4 MiB; 50.1 MiB when the array
        # lived through the Newton inverse beside two weight temporaries)
        gk.build_b1(ellipse05, 64)
        tracemalloc.start()
        try:
            gk.build_b1(ellipse05, 1280)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 31 << 20

    def test_cross_operator_consistency(self, ellipse03):
        # log det agreement between the interior and exterior routes
        b1 = gk.build_b1(ellipse03, 64)
        b4 = gk.build_b4(ellipse03, 64)
        v1 = gk.logdet_potential(b1, [64]).extrapolated
        v4 = gk.logdet_potential(b4, [64]).extrapolated
        assert abs(v1 - v4) <= 1e-6


class TestBuildB4:
    def test_identity_zero(self, identity_pair):
        assert np.abs(gk.build_b4(identity_pair, 8)).max() <= 1e-15

    def test_joukowski_diagonal(self):
        c = 0.35
        g = ComplexSeries.laurent([1, 0, c, 0, 0, 0, 0, 0], resolved=True)
        b4 = gk.build_b4(g, 24)
        k = np.arange(1, 25, dtype=float)
        assert np.abs(np.diag(b4) - c ** k).max() <= 1e-13
        off = b4 - np.diag(np.diag(b4))
        assert np.abs(off).max() <= 1e-14

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5])
    def test_ellipse_block_is_diagonal(self, c):
        # log(1 - c t) in t = 1/(zw): the log is the one-column log of the
        # generating array's diagonal, with exact zeros off it
        b4 = gk.build_b4(mp.catalog("ellipse", c=c), 960)
        powers = c ** np.arange(1, 961)
        assert np.all(b4[~np.eye(960, dtype=bool)] == 0.0)
        assert np.abs(np.diag(b4) - powers).max() <= 1e-15 * c
        value = gk.logdet_potential(b4, [960]).extrapolated
        closed = np.log1p(-powers ** 2).sum()
        assert abs(value - closed) <= 1e-15 * abs(closed)

    def test_affine_rescaling_invariance(self):
        c = 0.3
        g1 = ComplexSeries.laurent([1, 0, c, 0, 0, 0, 0, 0], resolved=True)
        g2 = ComplexSeries.laurent([2.0, 0.7, 2 * c, 0, 0, 0, 0, 0],
                                   resolved=True)
        b4a = gk.build_b4(g1, 16)
        b4b = gk.build_b4(g2, 16)
        assert np.abs(b4a - b4b).max() <= 1e-12


class TestBuildB2B3:
    def test_identity_gives_identity_matrix(self, identity_pair):
        b2, b3 = gk.build_b2_b3(identity_pair, 16)
        assert np.abs(b2 - np.eye(16)).max() <= 1e-13
        assert np.abs(b3 - np.eye(16)).max() <= 1e-13

    @pytest.mark.parametrize("fixture", ["ellipse01", "ellipse03", "bump_pair"])
    def test_transpose_symmetry(self, fixture, request):
        pair = request.getfixturevalue(fixture)
        b2, b3 = gk.build_b2_b3(pair, 48)
        assert np.array_equal(b3, b2.T)
        # a rectangular build takes its b3 rows from a second log in the
        # transposed slice direction, an independent path to the same
        # coefficients
        _, b3_rect = gk.build_b2_b3(pair, 48, 49)
        assert np.abs(b3_rect[:, :48] - b2.T).max() <= 1e-10

    def test_k_fold_mixed_array_takes_difference_classes(self, monkeypatch):
        # log(1 - f(z)/g(w)) in x = z, y = 1/w is invariant under
        # (x, y) -> (omega x, omega^-1 y): a 3-fold pair's mixed array sits
        # on p - q = 0 (mod 3), where the gcd of p + q is 1
        classes = []
        log = gk._log_bivariate

        def recorded(d):
            classes.append(series._class_order(d[0]))
            return log(d)

        monkeypatch.setattr(gk, "_log_bivariate", recorded)
        pair = mp.catalog("fourier_bump", eps=0.0549, k=3)
        b2, _ = gk.build_b2_b3(pair, 64)
        assert classes == [-3]
        m = np.arange(1, 65)
        assert np.all(b2[np.subtract.outer(m, m) % 3 != 0] == 0.0)

    @pytest.mark.parametrize("a", [0.5, 0.7, 0.35 + 0.35j, 0.6j, -0.45 + 0.3j])
    def test_off_centre_disk_is_the_basepoint(self, a):
        # |w - a| < 1 is a Moebius image of the unit disk: b1 = b4 = 0, b2
        # is unitary and S1 = s2 = 0 exactly. Its truncated relations are
        # not small, as b2's rows decay only like |a|^k, so the operator
        # relations are the oracle
        pair = mp.star_pair(disk_domain(a))
        b2, b3 = gk.build_b2_b3(pair, 32)
        assert np.array_equal(b3, b2.T)
        assert b2.dtype == (np.float64 if a == a.real else np.complex128)
        assert max(gk.grunsky_operator_residual(pair, 16)) <= 1e-11
        for build in (gk.build_b1, gk.build_b4):
            s2 = gk.logdet_potential(build(pair, 64), [64]).extrapolated
            assert abs(s2) <= 1e-20
        assert abs(lv.s1_value(pair, lv.QuadratureGrid(64, 128))) <= 1e-13
        assert abs(lv.s1_coefficient_route(pair)) <= 1e-13

    def test_faber_oracle_ellipse(self, ellipse03):
        # Phi_n(g(u)) = u^n + c^n u^-n for g = u + c/u gives the mixed
        # coefficients in closed form through the u-coordinate of f
        c = 0.3
        n = 24
        m = 2048
        theta = 2 * np.pi * np.arange(m) / m
        z = np.exp(1j * theta)
        scale = abs(ellipse03.g_prime_at_infinity)  # back to capacity 1
        v = evaluate(ellipse03.interior, z) / scale
        sq = np.sqrt(v * v - 4 * c)
        u1, u2 = (v + sq) / 2.0, (v - sq) / 2.0
        u = np.where(np.abs(u1) >= np.abs(u2), u1, u2)
        oracle = np.zeros((n, n))
        for col in range(1, n + 1):
            fn = u ** col + (c ** col) * u ** (-col.__float__() if False else -col)
            coef = np.fft.fft(fn) / m
            for row in range(1, n + 1):
                cmn = -coef[row] / col
                oracle[row - 1, col - 1] = np.sqrt(row * col) * (-cmn).real
        b2, _ = gk.build_b2_b3(ellipse03, n)
        assert np.abs(b2 - oracle).max() <= 1e-10


class TestGrunskyEquality:
    def test_identity_all_orders(self, identity_pair):
        for n in (8, 16, 32):
            blocks = truncated_blocks(identity_pair, n)
            assert max(gk.grunsky_identity_residual(*blocks)) <= 1e-12

    def test_empty_leading_block_rejected(self, ellipse05):
        # N = 1 leaves a 0 x 0 leading block, whose residuals read 0 for
        # any curve
        with pytest.raises(InvalidInput):
            gk.grunsky_identity_residual(*truncated_blocks(ellipse05, 1))

    def test_bump_residuals(self, bump_pair):
        r64 = gk.grunsky_identity_residual(*truncated_blocks(bump_pair, 64))
        assert max(r64) <= 1e-5
        r32 = gk.grunsky_identity_residual(*truncated_blocks(bump_pair, 32))
        # decrease until the roundoff floor
        assert all(a < b or a <= 1e-12 for a, b in zip(r64, r32))

    def test_rows_first_norms_match_full_products(self, ellipse03,
                                                   blocks64_ellipse03):
        # the relations are formed from the leading h rows of each block;
        # the full N x N products cut to h x h afterwards give the same
        # norms, on square blocks and on the operator residual's h x K
        # panels
        got = gk.grunsky_identity_residual(*blocks64_ellipse03)
        want = full_product_norms(*blocks64_ellipse03, 32)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15
        b2, b3 = gk.build_b2_b3(ellipse03, 16, 256)
        panels = (gk.build_b1(ellipse03, 16, 256), b2, b3,
                  gk.build_b4(ellipse03, 16, 256))
        got = gk._relation_norms(*panels, 16)
        want = full_product_norms(*panels, 16)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15

    def test_ellipse_residuals_decrease_at_fixed_block(self, ellipse03):
        # with the block pinned, doubling the build order sends every
        # relation residual down hard
        r64 = full_product_norms(*truncated_blocks(ellipse03, 64), 16)
        r128 = full_product_norms(*truncated_blocks(ellipse03, 128), 16)
        assert all(b < a or a <= 1e-12 for a, b in zip(r64, r128))
        assert max(r128) <= 1e-3
        # carried to the certified inner depth, the same block holds the
        # relations to roundoff, below the deepest square build
        deep = gk.grunsky_operator_residual(ellipse03, 16)
        assert max(deep) <= 1e-12
        assert all(d <= b for b, d in zip(r128, deep))
        # a truncated series that is not marked resolved cannot supply the
        # coefficients that depth reads
        short = dataclasses.replace(ellipse03, interior=ComplexSeries.taylor(
            ellipse03.interior.coeffs[:40]))
        with pytest.raises(InvalidInput):
            gk.grunsky_operator_residual(short, 16)


class TestArithmeticPaths:
    """Conjugation-symmetric pairs are real end to end and take real
    transforms and real factorizations; every other pair stays complex."""

    @pytest.mark.parametrize("family, params", [
        ("ellipse", {"c": 0.1}),
        ("ellipse", {"c": 0.5}),
        ("fourier_bump", {"eps": 0.05, "k": 2}),
    ])
    @pytest.mark.parametrize("reflect", [False, True])
    def test_symmetric_pairs_are_real(self, family, params, reflect):
        pair = mp.catalog(family, **params)
        if reflect:
            pair = mp.inverted_pair(pair)
        assert pair.interior.coeffs.dtype == np.float64
        assert pair.exterior.coeffs.dtype == np.float64
        blocks = (gk.build_b1(pair, 16), gk.build_b4(pair, 16),
                  *gk.build_b2_b3(pair, 16))
        assert all(b.dtype == np.float64 for b in blocks)

    def test_asymmetric_domain_stays_complex(self):
        domain = mp.StarDomain(
            rho=lambda th: 1.0 + 0.05 * np.cos(2 * th) + 0.03 * np.sin(3 * th))
        assert not domain.symmetric
        f = mp.theodorsen_interior(domain).series
        assert np.abs(f.coeffs.imag).max() > 1e-3
        assert gk.build_b1(f, 16).dtype == np.complex128

    def test_rotated_pair_matches_real_path(self, ellipse03):
        # at angle 0 the coefficients are complex with zero imaginary
        # parts, which the dtype still sends down the complex path
        real_b1, real_b4 = gk.build_b1(ellipse03, 64), gk.build_b4(ellipse03, 64)
        assert real_b1.dtype == real_b4.dtype == np.float64
        real_s1 = lv.s1_coefficient_route(ellipse03)
        for alpha in (0.0, 0.7):
            pair = rotated(ellipse03, alpha)
            assert pair.interior.coeffs.dtype == np.complex128
            assert pair.exterior.coeffs.dtype == np.complex128
            for build, b_real in ((gk.build_b1, real_b1), (gk.build_b4, real_b4)):
                b_rotated = build(pair, 64)
                assert b_rotated.dtype == np.complex128
                gap = abs(gk.logdet_potential(b_rotated, [64]).extrapolated -
                          gk.logdet_potential(b_real, [64]).extrapolated)
                assert gap <= 1e-13
            # the Parseval route of the action: real transforms for the
            # real pair, complex ones for its rotation
            s1_gap = abs(lv.s1_coefficient_route(pair) - real_s1)
            assert s1_gap <= 1e-13 * abs(real_s1)


class TestLogdet:
    def test_zero_matrix(self):
        rep = gk.logdet_potential(np.zeros((16, 16), dtype=complex), [4, 8, 16])
        assert rep.extrapolated == 0.0 and rep.residual_tail == 0.0

    def test_joukowski_closed_form(self, ellipse03):
        b4 = gk.build_b4(ellipse03, 64)
        rep = gk.logdet_potential(b4, [16, 32, 64])
        assert abs(rep.extrapolated - closed_form_logdet(0.3, 64)) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.2])
    def test_order_one_scalar(self, t):
        f = ComplexSeries.taylor([0, 1, t, 0])
        b1 = gk.build_b1(f, 1)
        rep = gk.logdet_potential(b1, [1])
        assert abs(rep.extrapolated - np.log1p(-t ** 4)) <= 1e-12

    def test_monotone_nonincreasing(self, ellipse03):
        b1 = gk.build_b1(ellipse03, 64)
        rep = gk.logdet_potential(b1, [8, 16, 32, 64])
        diffs = np.diff(rep.estimates)
        assert np.all(diffs <= 1e-12)

    def test_norm_monotone_and_contractive(self, ellipse03):
        b1 = gk.build_b1(ellipse03, 64)
        norms = [gk.spectral_norm(b1[:n, :n]) for n in (8, 16, 32, 64)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1.0

    def test_non_contractive_rejected(self):
        with pytest.raises(NumericalFailure):
            gk.logdet_potential(np.eye(4, dtype=complex) * 1.2, [4])

    @pytest.mark.parametrize("b", [
        np.diag([np.nan, 0.5]),
        np.diag([0.5, np.nan]),
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
    ], ids=["first-pivot", "last-pivot", "off-diagonal"])
    def test_nan_block_rejected(self, b):
        # LAPACK's Cholesky passes a NaN pivot without an error
        with pytest.raises(NumericalFailure):
            gk.logdet_potential(b, [2])

    def test_certificate_covers_only_the_orders_asked(self):
        # the factorization stops at max(orders): B_1 = (0.5) is a
        # contraction, B_2 = diag(0.5, 1.2) is not
        b = np.diag([0.5, 1.2])
        assert gk.logdet_potential(b, [1]).extrapolated == np.log1p(-0.25)
        with pytest.raises(NumericalFailure):
            gk.logdet_potential(b, [1, 2])

    @pytest.mark.parametrize("b", [
        np.zeros((3, 4)),                          # not square
        np.zeros(4),                               # not a matrix
        np.array([[0.0, 0.1], [0.2, 0.0]]),        # not symmetric
        np.array([[0.0, 0.1j], [0.1, 0.0]]),       # not complex symmetric
    ])
    def test_non_square_or_non_symmetric_rejected(self, b):
        with pytest.raises(InvalidInput):
            gk.logdet_potential(b, [2])

    # the pairs and orders of the acceptance suite; the inverted pairs are
    # those of its inversion check
    @pytest.mark.parametrize("family, params, reflect, orders", [
        ("identity", {}, False, (16, 64)),
        ("ellipse", {"c": 0.1}, False, (16, 32, 64)),
        ("ellipse", {"c": 0.1}, True, (64,)),
        ("ellipse", {"c": 0.3}, False, (16, 32, 64, 128)),
        ("ellipse", {"c": 0.3}, True, (128,)),
        ("ellipse", {"c": 0.5}, False, (32, 64, 128)),
        ("ellipse", {"c": 0.5}, True, (128,)),
        ("fourier_bump", {"eps": 0.05, "k": 2}, False, (16, 32, 64)),
        ("fourier_bump", {"eps": 0.05, "k": 2}, True, (64,)),
    ])
    @pytest.mark.parametrize("route", ["b1", "b4"])
    def test_matches_svd_on_catalog_pairs(self, family, params, reflect,
                                          orders, route):
        pair = mp.catalog(family, **params)
        if reflect:
            pair = mp.inverted_pair(pair)
        build = gk.build_b1 if route == "b1" else gk.build_b4
        assert svd_gap(build(pair, max(orders)), orders) <= 2e-15

    def test_matches_svd_on_deep_ellipse05(self, ellipse05):
        b = gk.build_b1(ellipse05, 1280)
        assert svd_gap(b, (320, 640, 1280)) <= 2e-15

    def test_matches_svd_on_complex_blocks(self, ellipse03):
        pair = rotated(ellipse03, 0.7)
        for build in (gk.build_b1, gk.build_b4):
            b = build(pair, 64)
            assert b.dtype == np.complex128
            assert svd_gap(b, (16, 32, 64)) <= 2e-15

    def test_memory(self, ellipse05):
        # the symmetry check runs by row blocks and each sign's orbits are
        # gathered into one stack, factored in place: 12.6 MiB traced,
        # where the full-size |b - b^T| temporaries took it to 25.0 MiB
        b = gk.build_b1(ellipse05, 1280)
        tracemalloc.start()
        try:
            gk.logdet_potential(b, [320, 640, 1280])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 << 20

    @pytest.fixture
    def factored(self, monkeypatch):
        """The size of every matrix the determinant factors, one entry per
        matrix of a stacked call."""
        sizes = []
        ldl_defects = gk._ldl_defects

        def recorded(a):
            sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
            return ldl_defects(a)

        monkeypatch.setattr(gk, "_ldl_defects", recorded)
        return sizes

    # at the odd order 65 the classes of a 2-fold block hold 32 and 33
    # indices, and those of a 3-fold block 21 (0 mod 3) and 22 + 22 (1 and
    # 2 mod 3, one orbit); the ellipse's b4 is diagonal, so each index is
    # its own orbit; a complex block's embedding doubles each
    @pytest.mark.parametrize("family, params, angle, sizes", [
        ("ellipse", {"c": 0.3}, 0.0, {"b1": [32, 32, 33, 33], "b4": [1] * 130}),
        ("fourier_bump", {"eps": 0.05, "k": 3}, 0.0,
         {"b1": [21, 21, 44, 44], "b4": [21, 21, 44, 44]}),
        ("ellipse", {"c": 0.3}, 0.7, {"b1": [64, 66], "b4": [2] * 65}),
    ], ids=["2-fold", "3-fold", "2-fold-complex"])
    @pytest.mark.parametrize("route", ["b1", "b4"])
    def test_factors_each_symmetry_orbit(self, family, params, angle, sizes,
                                         route, factored):
        pair = mp.catalog(family, **params)
        if angle:
            pair = rotated(pair, angle)
        build = gk.build_b1 if route == "b1" else gk.build_b4
        b = build(pair, 65)
        assert np.iscomplexobj(b) == bool(angle)
        assert svd_gap(b, (9, 17, 33, 65)) <= 2e-15
        assert factored == sizes[route]

    def test_off_class_entry_factors_whole(self, ellipse03, factored):
        b = gk.build_b1(ellipse03, 65)
        b[0, 1] = b[1, 0] = 1e-30   # m + n = 3 in a 2-fold block
        assert svd_gap(b, (9, 17, 33, 65)) <= 2e-15
        assert factored == [65, 65]

    def test_rotated_ellipse_factors_each_index(self, ellipse03, factored):
        # the complex b4 of a rotated ellipse is diagonal too: each index
        # is its own orbit, and the 2 x 2 embeddings go in one stack
        b = gk.build_b4(rotated(ellipse03, 0.7), 64)
        assert b.dtype == np.complex128
        assert np.all(b[~np.eye(64, dtype=bool)] == 0.0)
        assert svd_gap(b, (16, 32, 64)) <= 2e-15
        assert factored == [2] * 64

    @pytest.mark.parametrize("b, error", [
        (np.diag([0.5, 0.2, 1.0]), NumericalFailure),       # a pivot of 0
        (np.diag([0.5, -1.5, 0.2]), NumericalFailure),
        (np.array([[0.5, 0.0, 0.0], [0.0, 0.2, 1e-3],
                   [0.0, 0.0, 0.1]]), InvalidInput),       # not symmetric
    ], ids=["unit-entry", "large-entry", "asymmetric"])
    def test_diagonal_block_keeps_its_checks(self, b, error):
        with pytest.raises(error):
            gk.logdet_potential(b, [3])

    @pytest.mark.parametrize("route", ["b1", "b4"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_paired_defects_keep_relative_digits(self, k, route):
        # the potential is ~eps^2 = 1e-8 while b_11 is ~eps (k = 2): the
        # log1p of each pivot 1 -+ b_11 + u apart loses ~5e-13 of it
        pair = mp.catalog("fourier_bump", eps=1e-4, k=k)
        b = gk.build_b1(pair, 64) if route == "b1" else gk.build_b4(pair, 64)
        value = gk.logdet_potential(b, [64]).extrapolated
        (ref,) = svd_logdet(b, [64])
        assert abs(value - ref) <= 1e-14 * abs(ref)

    def test_report_invariants(self):
        with pytest.raises(InvalidInput):
            gk.ConvergenceReport(orders=(4, 4), estimates=(1.0, 1.0))
        # the value and the tail are read off the estimates
        for orders, estimates in (((), ()), ((4, 8), (1.0,))):
            with pytest.raises(InvalidInput):
                gk.ConvergenceReport(orders, estimates)
        rep = gk.ConvergenceReport((4, 8, 16), (1.0, 0.5, 0.625))
        assert rep.extrapolated == 0.625 and rep.residual_tail == 0.125
        assert gk.ConvergenceReport((4,), (2.0,)).residual_tail == 0.0


class TestInversionCheck:
    def test_identity(self, identity_pair):
        chk = gk.inversion_check(identity_pair, 8)
        assert abs(chk.s2_pair_b1) <= 1e-12
        assert abs(chk.s2_inverted_b1) <= 1e-12

    def test_ellipse_closed_form(self, ellipse03):
        chk = gk.inversion_check(ellipse03, 128)
        closed = closed_form_logdet(0.3, 400)
        assert abs(chk.s2_pair_b1 - closed) <= 1e-6
        assert abs(chk.s2_inverted_b1 - closed) <= 1e-6
        assert chk.symmetry_gap <= 1e-6
        assert chk.route_gap <= 1e-6

    def test_bump_symmetry(self, bump_pair):
        chk = gk.inversion_check(bump_pair, 64)
        assert chk.symmetry_gap <= 1e-6
        assert chk.route_gap <= 1e-6


class TestPositivity:
    @pytest.mark.parametrize("fixture", ["identity_pair", "ellipse01",
                                         "ellipse03", "bump_pair"])
    def test_positive_definite_both_sides(self, fixture, request):
        pair = request.getfixturevalue(fixture)
        for route in ("b1", "b4"):
            b = gk.build_b1(pair, 48) if route == "b1" else gk.build_b4(pair, 48)
            for n in (12, 24, 48):
                block = b[:n, :n]
                a = np.eye(n) - block @ block.conj().T
                np.linalg.cholesky(a)  # raises if not positive definite
                eig = np.linalg.eigvalsh(block @ block.conj().T)
                assert eig.min() >= -1e-13 and eig.max() < 1.0


class TestMatrixCsv:
    def test_round_trip(self, blocks64_ellipse03):
        block = blocks64_ellipse03[1][:8, :8]
        assert block.dtype == np.float64
        text = gk.matrix_to_csv(block)
        assert text.splitlines()[0] == ",".join(f"c{j}_re" for j in range(8))
        back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(back, block)

    def test_round_trip_complex(self, ellipse03):
        block = gk.build_b1(rotated(ellipse03, 0.7), 8)[:, :6]
        text = gk.matrix_to_csv(block)
        assert text.splitlines()[0].split(",")[:3] == ["c0_re", "c0_im", "c1_re"]
        parts = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        back = parts[:, 0::2] + 1j * parts[:, 1::2]
        assert np.array_equal(back, block)
