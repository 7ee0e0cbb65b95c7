import tracemalloc
import warnings

import numpy as np
import pytest

from references import (derivative, mobius_ellipse_exterior, slice_log,
                        triangular_reciprocal, unit_circle_jets)
from weldlab import grunsky as gk
from weldlab import maps as mp
from weldlab import series
from weldlab.errors import InvalidInput, NumericalFailure
from weldlab.series import _log_bivariate, _smooth_length
from weldlab.series import (
    ComplexSeries,
    Kind,
    coeffs_from_samples,
    evaluate,
    evaluate_array,
    evaluate_on_circles,
    reciprocal_array,
    samples_from_coeffs,
)


def taylor(*coeffs):
    return ComplexSeries.taylor(list(coeffs))


class TestDtype:
    """A series is float64 for real input and complex128 otherwise."""

    @pytest.mark.parametrize("coeffs, dtype", [
        ([0, 1, 2], np.float64),
        ([0.0, 1.0, 0.5], np.float64),
        (np.array([0.0, 1.0, 0.5], dtype=np.float32), np.float64),
        (np.array([0.0, 1.0, 0.5j]), np.complex128),
        (np.array([0.0, 1.0, 0.5], dtype=complex), np.complex128),
    ])
    def test_construction(self, coeffs, dtype):
        for make in (ComplexSeries.taylor, ComplexSeries.laurent):
            assert make(coeffs).coeffs.dtype == dtype

    def test_closed_forms_are_real(self):
        for kind in Kind:
            assert ComplexSeries.identity(kind).coeffs.dtype == np.float64

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_derivative_keeps_the_dtype(self, dtype):
        for make in (ComplexSeries.taylor, ComplexSeries.laurent):
            for coeffs in ([1.0], [0.0, 1.0, 0.5]):
                a = make(np.array(coeffs, dtype=dtype))
                assert derivative(a).coeffs.dtype == dtype


class TestDerivative:
    def test_taylor(self):
        t = 0.7
        out = derivative(taylor(0, 1, t))
        assert np.allclose(out.coeffs, [1, 2 * t])

    def test_laurent(self):
        # d/dz (z + c/z) = 1 - c/z^2
        c = 0.25
        out = derivative(ComplexSeries.laurent([1, 0, c]))
        assert out.kind is Kind.LAURENT_AT_INFINITY
        assert np.allclose(out.coeffs, [0, 1, 0, -c])

    def test_second_derivative(self):
        t = 0.11
        out = derivative(derivative(taylor(0, 1, t)))
        assert np.allclose(out.coeffs, [2 * t])

    def test_order_one_degenerate(self):
        out = derivative(taylor(5.0))
        assert out.order == 1 and out.coeffs[0] == 0


def log_of(c):
    # a one-column bivariate series is the univariate series in its rows
    c = np.asarray(c, dtype=complex)
    return _log_bivariate(c[:, None])[:, 0]


class TestLogArray:
    def test_mercator(self):
        t = 0.4
        n = 7
        out = log_of([1, t] + [0] * (n - 2))
        expected = [0] + [(-1) ** (k + 1) * t ** k / k for k in range(1, n)]
        assert np.abs(out - expected).max() <= 1e-14

    def test_log_of_one(self):
        assert np.abs(log_of([1, 0, 0])).max() == 0

    def test_first_row_must_be_unit(self):
        # the Newton inverse starts from 1 as the inverse of D(0, y), so
        # the log needs D(0, y) = 1 and not just D(0, 0) = 1
        with pytest.raises(InvalidInput):
            _log_bivariate(np.array([[1.0, 0.5], [0.1, 0.2]]))

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = np.concatenate([[1.0], 0.3 * rng.standard_normal(7)])
            b = np.concatenate([[1.0], 0.3 * rng.standard_normal(7)])
            lhs = log_of(np.convolve(a, b)[:8])
            rhs = log_of(a) + log_of(b)
            assert np.abs(lhs - rhs).max() <= 1e-12


def _product_2d(a, b):
    """Truncated bivariate product by direct 2-D convolution."""
    n0, n1 = a.shape
    out = np.zeros_like(a)
    for p in range(n0):
        for q in range(n1):
            out[p:, q:] += a[p, q] * b[:n0 - p, :n1 - q]
    return out


def _exp_2d(ell):
    """exp of a bivariate series with no x^0 terms: the power series
    ends at the row count, since ell^k starts at row k."""
    n0 = ell.shape[0]
    out = np.zeros_like(ell)
    out[0, 0] = 1.0
    term = out.copy()
    for k in range(1, n0):
        term = _product_2d(term, ell) / k
        out = out + term
    return out


def _decaying_array(n0, n1, dtype, seed):
    """A generating array with D(0, y) = 1 whose entries decay like
    0.7^(m+n), so that its log is well conditioned at every shape."""
    rng = np.random.default_rng(seed)
    d = 0.25 * rng.standard_normal((n0, n1))
    if dtype is complex:
        d = d + 0.25j * rng.standard_normal((n0, n1))
    d *= 0.7 ** np.add.outer(np.arange(n0), np.arange(n1))
    d[0] = 0.0
    d[0, 0] = 1.0
    return d


class TestLogBivariate:
    """The Newton log against exp by direct convolution, on row counts
    7, 8, 9 and 17, whose inverses (of n0 - 1 powers) end in a partial or
    a full doubling, and on row lengths around the 5-smooth transform
    lengths (13 and 17 give 25 and 33 points, 33 gives 65 -> 72); and
    against the slice recursion it replaced."""

    @staticmethod
    def exp_pair(n0, n1, dtype, decay):
        """A log with n0 x n1 random entries scaled by 0.4 decay^m, and its
        exp by direct convolution."""
        rng = np.random.default_rng(n1)
        ell = rng.standard_normal((n0, n1))
        if dtype is complex:
            ell = ell + 1j * rng.standard_normal((n0, n1))
        ell[0] = 0.0
        ell *= 0.4 * decay ** np.arange(n0)[:, None]
        return ell, _exp_2d(ell)

    # 7 rows: undecayed draws. The row counts that cross a doubling of the
    # Newton inverse take rows decaying like the builders' generating
    # arrays, which keeps 1/D of the size of D: undecayed, they are the
    # arrays of test_error_follows_the_inverse.
    SHAPES = ([(7, n1, 1.0) for n1 in (1, 2, 13, 17, 33)]
              + [(n0, n1, 0.8) for n0 in (8, 9, 17) for n1 in (1, 2, 13, 17, 33)])

    @pytest.mark.parametrize("n0, n1, decay", SHAPES, ids=[
        str(n1) if n0 == 7 else f"{n0}x{n1}" for n0, n1, _ in SHAPES])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_inverts_exp(self, n0, n1, decay, dtype):
        ell, d = self.exp_pair(n0, n1, dtype, decay)
        out = _log_bivariate(d)
        assert out.dtype == d.dtype == np.dtype(dtype)
        assert np.abs(out - ell).max() <= 1e-13 * np.abs(ell).max()

    @pytest.mark.parametrize("n0", [8, 9, 17])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_error_follows_the_inverse(self, n0, dtype):
        # the log is formed from 1/D, so its error is roundoff relative to
        # max|D| max|1/D|, not to max|log D| as the slice recursion's is:
        # the undecayed 17 x 33 complex draw has max|D| = 102 and
        # max|1/D| = 55 and misses by 4.8e-12 relative, against 1.5e-13
        # for the slice recursion
        ell, d = self.exp_pair(n0, 33, dtype, 1.0)
        scale = np.abs(d).max() * np.abs(_exp_2d(-ell)).max()
        assert np.abs(_log_bivariate(d) - ell).max() <= 1e-13 * scale * np.abs(ell).max()

    @pytest.mark.parametrize("n0", [1, 2, 3, 7, 8, 9, 13, 17, 33, 65, 200])
    @pytest.mark.parametrize("n1", [1, 2, 5, 17, 64, 129])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_slice_recursion(self, n0, n1, dtype):
        d = _decaying_array(n0, n1, dtype, 1000 * n0 + n1)
        out, ref = _log_bivariate(d), slice_log(d)
        assert out.dtype == ref.dtype
        assert np.abs(out - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-300)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_wide_shape_matches_slice_recursion(self, dtype):
        # the shape of the operator residual's row panels: few powers of
        # x, thousands of y
        d = _decaying_array(33, 4097, dtype, 33)
        ref = slice_log(d)
        assert np.abs(_log_bivariate(d) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_smooth_length_brute_force(self):
        top = 5200
        smooth = np.zeros(top + 1, dtype=bool)
        for m in range(1, top + 1):
            r = m
            for p in (2, 3, 5):
                while r % p == 0:
                    r //= p
            smooth[m] = r == 1
        expected = top
        for n in range(top, 0, -1):
            if smooth[n]:
                expected = n
            if n <= 5000:
                assert _smooth_length(n) == expected


def _k_fold(d, k, sign=1):
    """d with every entry off the class p + q = 0 (mod k) set to 0, or off
    p - q = 0 (mod k) for ``sign`` -1."""
    d = d.copy()
    d[np.add.outer(np.arange(d.shape[0]), sign * np.arange(d.shape[1])) % k != 0] = 0.0
    return d


class TestSymmetryClasses:
    """A k-fold array, whose x^p y^q terms vanish unless p + q = 0 (mod k),
    takes its log on one residue class of the spectrum, and a series whose
    nonzero coefficients sit on multiples of k takes its reciprocal on
    those; k is read off the exact zeros."""

    @pytest.fixture
    def orders(self, monkeypatch):
        """The symmetry order of every transform set the module makes."""
        seen = []
        y_transforms = series._y_transforms

        def recorded(n1, real, order):
            seen.append(order)
            return y_transforms(n1, real, order)

        monkeypatch.setattr(series, "_y_transforms", recorded)
        return seen

    @pytest.mark.parametrize("n0, n1", [(7, 1), (9, 2), (17, 17), (33, 64),
                                        (65, 129), (200, 5)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_log_matches_slice_recursion(self, n0, n1, k, dtype, orders):
        d = _k_fold(_decaying_array(n0, n1, dtype, 100 * k + n0), k)
        out, ref = _log_bivariate(d), slice_log(d)
        assert orders == [k] and out.dtype == ref.dtype
        off = np.add.outer(np.arange(n0), np.arange(n1)) % k != 0
        assert np.all(out[off] == 0.0)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_off_class_entry_takes_the_whole_spectrum(self, dtype, orders):
        d = _k_fold(_decaying_array(33, 64, dtype, 5), 2)
        d[4, 7] = 1e-3
        out, ref = _log_bivariate(d), slice_log(d)
        assert orders == [1]
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    # the mixed arrays of a k-fold pair sit on p - q = 0 (mod k); for
    # k = 2 the two orientations are one class, read as p + q
    @pytest.mark.parametrize("n0, n1", [(9, 2), (17, 17), (33, 64),
                                        (65, 129), (200, 5)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_difference_classes_match_slice_recursion(self, n0, n1, k, dtype,
                                                      orders):
        d = _k_fold(_decaying_array(n0, n1, dtype, 100 * k + n0 + 7), k, -1)
        out, ref = _log_bivariate(d), slice_log(d)
        assert orders == [2 if k == 2 else -k] and out.dtype == ref.dtype
        off = np.subtract.outer(np.arange(n0), np.arange(n1)) % k != 0
        assert np.all(out[off] == 0.0)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n0, n1", [(2, 2), (17, 9), (33, 64)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_array_is_a_series_in_xy(self, n0, n1, dtype, orders):
        # a log whose terms all lie on p = q is the one-column log of the
        # diagonal in t = xy, with exact zeros off it
        d = _decaying_array(n0, n1, dtype, n0 + n1)
        d[~np.eye(n0, n1, dtype=bool)] = 0.0
        out, ref = _log_bivariate(d), slice_log(d)
        assert orders == [1] and out.dtype == ref.dtype
        assert np.all(out[~np.eye(n0, n1, dtype=bool)] == 0.0)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_array_handed_over_in_a_list_is_taken_out(self):
        d = _k_fold(_decaying_array(17, 17, float, 3), 2)
        held = [d.copy()]
        out = _log_bivariate(held)
        assert held == [] and np.array_equal(out, _log_bivariate(d))

    def test_class_order_reads_either_orientation(self):
        d = np.zeros((9, 13))
        d[0, 0] = 1.0
        assert series._class_order(d) == 0
        d[3, 3] = d[5, 5] = 0.5
        assert series._class_order(d) == 0
        d[7, 1] = 0.5                              # p - q = 6, p + q = 8
        assert series._class_order(d) == -6
        assert series._class_order(d.T) == -6
        d[2, 4] = 0.5                              # p - q = -2, p + q = 6
        assert series._class_order(d) == 2
        d[1, 4] = 0.5                              # p - q = -3, p + q = 5
        assert series._class_order(d) == 1
        # a block's indices start at 1: b[0, 1] is m = 1, n = 2
        e = np.zeros((6, 6))
        e[0, 1] = e[1, 0] = e[2, 2] = 0.5          # m + n = 3, 3, 6
        assert series._class_order(e, 1) == 3
        e[4, 1] = 0.5                              # m + n = 7, m - n = 3
        assert series._class_order(e, 1) == 1

    def test_order_is_the_gcd_of_the_nonzero_powers(self):
        d = np.zeros((9, 13))
        d[0, 0] = 1.0
        assert series._symmetry_order(d) == 1
        d[2, 4] = d[5, 7] = 0.5
        assert series._symmetry_order(d) == 6
        d[8, 1] = 0.5
        assert series._symmetry_order(d) == 3
        assert series._symmetry_order(d.T) == 3
        assert series._symmetry_order(d[1:, 1:], 1) == 3

    @pytest.mark.parametrize("n", [5, 64, 129, 512])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sparse_reciprocal_matches_triangular_recursion(self, n, k, dtype,
                                                            monkeypatch):
        rng = np.random.default_rng(10 * n + k)
        c = rng.uniform(-0.1, 0.1, n) * 0.9 ** np.arange(n)
        if dtype is complex:
            c = c + 1j * rng.uniform(-0.1, 0.1, n) * 0.9 ** np.arange(n)
        off = np.arange(n) % k != 0
        c[off] = 0.0
        c[0] = 1.5
        rows = []
        newton_inverse = series._newton_inverse

        def recorded(d_spec, count, truncate):
            rows.append(count)
            return newton_inverse(d_spec, count, truncate)

        monkeypatch.setattr(series, "_newton_inverse", recorded)
        out, ref = reciprocal_array(c), triangular_reciprocal(c)
        assert rows == [len(c[::k])] and out.dtype == ref.dtype
        assert np.all(out[off] == 0.0)
        assert np.abs(out - ref).max() <= 2e-16 * np.abs(ref).max()


class TestBlockSize:
    """The block size of the operator layer's blocked passes
    (``series._BLOCK``) moves no bit. At budgets of 2^8, 2^10 and 3000
    entries a residue class of a 97-row spectrum runs over 1 to 97 blocks,
    most often ending on a short one, the first steps of a 3-fold Newton
    inverse have fewer rows than classes, and the builders' weights and the
    determinant's symmetry check run over 2 to 48 row blocks of a 96-row
    block; every output must equal the default size's."""

    @pytest.fixture(scope="class")
    def logs(self):
        """The generating arrays the builders hand to the log at N = 96,
        each with its log at the default block size: b1 of the c = 0.3
        ellipse (2-fold), b1 of the bump (0.1, 3) (3-fold) and its mixed
        array (difference classes), b4 of a Moebius image of the ellipse
        (a 1-fold complex Hankel array) and b4 of the ellipse (diagonal)."""
        arrays = []

        def recorded(held):
            arrays.append(held[0].copy())
            return _log_bivariate(held)

        ellipse = mp.catalog("ellipse", c=0.3)
        bump = mp.catalog("fourier_bump", eps=0.1, k=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gk, "_log_bivariate", recorded)
            gk.build_b1(ellipse.interior, 96)
            gk.build_b1(bump.interior, 96)
            gk.build_b2_b3(bump.interior, bump.exterior, 96)
            gk.build_b4(mobius_ellipse_exterior(0.3, 0.4 + 0.2j), 96)
            gk.build_b4(ellipse.exterior, 96)
        assert [series._class_order(d) for d in arrays] == [2, 3, -3, 1, 0]
        return [(d, _log_bivariate(d)) for d in arrays]

    @pytest.mark.parametrize("budget", [1 << 8, 1 << 10, 3000])
    def test_log(self, logs, budget, monkeypatch):
        monkeypatch.setattr(series, "_BLOCK", budget)
        for d, want in logs:
            assert np.array_equal(_log_bivariate(d), want)

    @staticmethod
    def blocks():
        """Every row-blocked pass on the five cases at N = 96: b1 of the
        c = 0.3 ellipse (2-fold) and of the bump (0.1, 3) (3-fold), the
        bump's mixed blocks (difference classes), square and 96 x 61 (its
        b3 from the second log), and b4 of a Moebius image of the ellipse
        (1-fold complex) and of the ellipse (diagonal); each symmetric
        block with its symmetry check and its log det(I - B_n B_n*)."""
        ellipse = mp.catalog("ellipse", c=0.3)
        bump = mp.catalog("fourier_bump", eps=0.1, k=3)
        out = [*gk.build_b2_b3(bump.interior, bump.exterior, 96),
               *gk.build_b2_b3(bump.interior, bump.exterior, 96, 61)]
        for b in (gk.build_b1(ellipse.interior, 96),
                  gk.build_b1(bump.interior, 96),
                  gk.build_b4(mobius_ellipse_exterior(0.3, 0.4 + 0.2j), 96),
                  gk.build_b4(ellipse.exterior, 96)):
            out += [b, gk._asymmetry(b),
                    gk.logdet_potential(b, [1, 31, 95, 96]).estimates]
        return out

    @pytest.mark.parametrize("budget", [1 << 8, 1 << 10, 3000])
    def test_blocks(self, budget, monkeypatch):
        want = self.blocks()
        monkeypatch.setattr(series, "_BLOCK", budget)
        got = self.blocks()
        assert len(got) == len(want) == 16
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("budget", [16, 64, 300])
    def test_reciprocal(self, budget, monkeypatch):
        # the bump (0.1, 3)'s f(z)/z: 125 coefficients on multiples of 3
        f = mp.catalog("fourier_bump", eps=0.1, k=3).interior.coeffs
        quotient = gk._padded(f, 374)[1:]
        want = reciprocal_array(quotient)
        monkeypatch.setattr(series, "_BLOCK", budget)
        assert np.array_equal(reciprocal_array(quotient), want)


class TestReciprocal:
    """The Newton reciprocal against the triangular recursion it replaced,
    at n <= 512."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 127, 128, 129, 512])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_triangular_recursion(self, n, dtype):
        # sum |c_k| < 2 |c_0|: no zero in the closed disk, so the
        # reciprocal decays, as the package's reciprocals do
        rng = np.random.default_rng(n)
        c = rng.uniform(-0.1, 0.1, n) * 0.9 ** np.arange(n)
        if dtype is complex:
            c = c + 1j * rng.uniform(-0.1, 0.1, n) * 0.9 ** np.arange(n)
        c[0] = 1.5
        ref = triangular_reciprocal(c)
        out = reciprocal_array(c)
        assert out.dtype == ref.dtype
        assert np.abs(out - ref).max() <= 2e-16 * np.abs(ref).max()

    @pytest.mark.parametrize("family, params", [
        ("ellipse", {"c": 0.1}), ("ellipse", {"c": 0.3}),
        ("ellipse", {"c": 0.5}), ("fourier_bump", {"eps": 0.05, "k": 2})])
    def test_catalog_sides_match_triangular_recursion(self, family, params):
        # the reciprocals the builders take: z/f(z) and 1/g
        pair = mp.catalog(family, **params)
        for c in (pair.interior.coeffs[1:513], pair.exterior.coeffs[:512]):
            c = c.real.copy()
            ref = triangular_reciprocal(c)
            assert np.abs(reciprocal_array(c) - ref).max() <= 2e-16 * np.abs(ref).max()

    def test_dtype_picks_the_path(self, monkeypatch):
        # the dtype alone decides: real data takes real transforms, and
        # complex data takes complex ones even with zero imaginary parts
        paths = []
        y_transforms = series._y_transforms

        def recorded(n1, real, order):
            paths.append(real)
            return y_transforms(n1, real, order)

        monkeypatch.setattr(series, "_y_transforms", recorded)
        c = np.array([2.0, 0.5, -0.25, 0.125])
        assert reciprocal_array(c).dtype == np.float64
        z = c.astype(complex)
        out = reciprocal_array(z)
        assert out.dtype == np.complex128 and paths == [True, False]
        assert np.abs(out - triangular_reciprocal(z)).max() <= 1e-16

    def test_zero_constant_term_rejected(self):
        with pytest.raises(InvalidInput):
            reciprocal_array(np.array([0.0, 1.0]))


class TestSampling:
    """Coefficients from uniform samples on the unit circle."""

    @staticmethod
    def circle(m):
        return np.exp(2j * np.pi * np.arange(m) / m)

    def test_monomial(self):
        out = coeffs_from_samples(self.circle(16) ** 2)
        assert out.order == 3
        assert abs(out.coeffs[2] - 1.0) <= 1e-14
        assert np.abs(out.coeffs[:2]).max() <= 1e-14

    def test_constant(self):
        out = coeffs_from_samples(np.full(16, 3.0, dtype=complex))
        assert out.order == 1 and abs(out.coeffs[0] - 3.0) <= 1e-14

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 1024])
    def test_zero_samples(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = coeffs_from_samples(np.zeros(m, dtype=complex))
        assert out.coeffs.tolist() == [0.0] and out.resolved

    def test_geometric(self):
        # 1/(1 - z/2): c_k = 2^-k down to the floor at k = 46; M = 128
        # keeps the alias terms 2^-(k+M) out of sight
        out = coeffs_from_samples(1.0 / (1.0 - self.circle(128) / 2.0))
        k = np.arange(out.order)
        assert out.order == 47 and out.resolved
        assert np.abs(out.coeffs - 2.0 ** (-k.astype(float))).max() <= 1e-15

    def test_sparse_spectrum_cut_at_the_edge_is_unresolved(self):
        # z/(1 - s z^9) keeps only the indices 1 + 9j, which decay by
        # s per step; at M = 1024 the last one kept, 505 at 2.7e-7 of the
        # largest, sits just below the window edge 512 with the next, 514,
        # past it: the tail never decayed, so the trim certifies nothing
        s = np.exp(np.log(2.7e-7) / 56)
        z = self.circle(1024)
        out = coeffs_from_samples(z / (1.0 - s * z ** 9))
        assert out.order == 506 and not out.resolved

    def test_round_trip_polynomials(self):
        rng = np.random.default_rng(5)
        m = 64
        for _ in range(10):
            deg = int(rng.integers(1, m // 2))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            a = taylor(*c)
            back = coeffs_from_samples(samples_from_coeffs(a, 1.0, m))
            n = max(a.order, back.order)
            pa = np.zeros(n, complex)
            pb = np.zeros(n, complex)
            pa[:a.order] = a.coeffs
            pb[:back.order] = back.coeffs
            assert np.abs(pa - pb).max() <= 1e-12 * max(1.0, np.abs(c).max())

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("radius", [0.9, 1.0, 1.25])
    def test_matches_horner(self, kind, radius):
        # 100 terms on 64 points: the circle sum folds the coefficients
        rng = np.random.default_rng(3)
        c = ((rng.standard_normal(100) + 1j * rng.standard_normal(100))
             * 0.7 ** np.arange(100))
        a = ComplexSeries(kind, c)
        z = radius * np.exp(2j * np.pi * np.arange(64) / 64)
        err = np.abs(samples_from_coeffs(a, radius, 64) - evaluate(a, z))
        assert err.max() <= 1e-13 * np.abs(c).sum()

    def test_power_of_two_required(self):
        with pytest.raises(InvalidInput):
            coeffs_from_samples(np.ones(15, dtype=complex))

    def test_outside_analyticity_diagnosed(self):
        # a spectrum in the top quarter of the retained band (mode 100 of
        # 128) is what a map singular near the circle leaves there
        with pytest.raises(NumericalFailure):
            coeffs_from_samples(self.circle(256) ** 100)


class TestEvaluate:
    def test_taylor_point(self):
        a = taylor(1, 2, 3)
        assert abs(evaluate(a, 0.5) - (1 + 1 + 0.75)) <= 1e-15

    def test_laurent_point(self):
        g = ComplexSeries.laurent([1, 0, 0.3])
        assert abs(evaluate(g, 2.0) - 2.15) <= 1e-15

    def test_invariants_rejected(self):
        with pytest.raises(InvalidInput):
            ComplexSeries.taylor([np.nan])
        with pytest.raises(InvalidInput):
            ComplexSeries.taylor([])


class TestEvaluateOnCircles:
    """The folded FFT evaluation against Horner at the explicit points
    r e^(2 pi i j/m)."""

    # radii from 0, where only 0^0 = 1 weights a term, to just inside the
    # unit circle, where at K = 6408 and m = 512 the last of the 13
    # coefficient rows is weighted by 0.999^6144 = 2e-3
    RADII = np.concatenate([[0.0, 1e-3, 0.5, 0.999],
                            np.linspace(0.01, 0.99, 93)])

    SIZES = [
        (5, 16),       # K < m
        (16, 16),      # K = m
        (40, 16),      # K > m: two rows and a padded third
        (30, 12),      # m not a power of two
        (7, 1),        # one point per circle: the value at z = r
        (6408, 512),   # a c = 0.5 ellipse's length on the default grid
    ]

    # complex coefficients, and real ones (every catalog pair's), which
    # take a real matrix product before the transform
    @pytest.mark.parametrize("order, m, real", [
        pytest.param(order, m, real, id=f"{order}-{m}" + ("-real" if real else ""))
        for order, m in SIZES for real in (False, True)])
    def test_matches_horner(self, order, m, real):
        rng = np.random.default_rng(order + m)
        c = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        c = np.ascontiguousarray(c.real) if real else c
        out = evaluate_on_circles(c, self.RADII, m)
        assert out.shape == (len(self.RADII), m)
        points = np.exp(2j * np.pi * np.arange(m) / m)
        k = np.arange(order)
        for r, row in zip(self.RADII, out):
            scale = np.sum(np.abs(c) * r ** k)
            assert np.abs(row - evaluate_array(c, r * points)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_memory_is_set_by_the_output(self, dtype):
        # no n_r x K array of weighted coefficients: the traced peak of one
        # call stays within four complex outputs and four complex series
        order, m = 6408, 512
        c = np.random.default_rng(1).standard_normal(order).astype(dtype)
        bound = 4 * len(self.RADII) * m * 16 + 4 * order * 16
        tracemalloc.start()
        try:
            evaluate_on_circles(c, self.RADII, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_no_points_rejected(self):
        with pytest.raises(InvalidInput):
            evaluate_on_circles(np.ones(3), [0.5], 0)


class TestUnitCircleJets:
    # the reference jet evaluator of tests/references.py against Horner
    # order 128 puts the top Taylor frequency 127 just under half its
    # 256-point grid, where the jets' Taylor remainder is largest
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("order", [1, 2, 3, 40, 128, 6408])
    def test_matches_horner(self, kind, order):
        rng = np.random.default_rng(order)
        c = ((rng.standard_normal(order) + 1j * rng.standard_normal(order))
             * 0.999 ** np.arange(order))
        a = ComplexSeries(kind, c)
        nu = np.arange(order) if kind is Kind.TAYLOR_AT_ZERO else 1 - np.arange(order)
        t = rng.uniform(-10.0, 10.0, 200)
        z = np.exp(1j * t)
        value, slope = unit_circle_jets(a)(t)
        assert np.abs(value - evaluate(a, z)).max() <= 1e-13 * np.abs(c).sum()
        err = np.abs(slope - evaluate(derivative(a), z) * 1j * z)
        assert err.max() <= 1e-13 * max(np.abs(nu * c).sum(), 1.0)
