"""Truncated power-series algebra in a complex variable.

Coefficients are float64 when real and complex128 otherwise. The dtype,
set where coefficients are made, carries realness to every consumer,
which allocates in it and picks real or complex transforms by it alone.

This module is the package's one place that evaluates, differentiates and
samples a coefficient array. There are two evaluators:

* ``evaluate_array``, the only Horner loop (numpy's ``polyval``), takes
  arbitrary points: the Schwarzian of ``maps``, and ``evaluate``, the
  tests' Horner oracle for either grading;
* ``evaluate_on_circles`` takes m uniform points on each of many circles,
  the product grids of the action quadrature and ``samples_from_coeffs``
  (one circle |z| = r, in either grading): it lays the coefficients out
  in rows of m, folds them on every circle at once by one matrix product
  with the radial powers, and sums each circle exactly with one FFT, in
  O(K + m log m) operations per circle for K terms instead of Horner's
  O(K m), and in the memory of its result.

``derivative_array`` is the only term-by-term derivative (of a Taylor
array; the tests' ``derivative`` of either grading is built on it).
Series division and the log are one Newton iteration (Brent and Kung):
``_log_bivariate``, the operator builders' log of a bivariate array,
takes the inverse of its argument by ``_newton_inverse``, and
``reciprocal_array`` is the one-column case of that inverse, the only
series division; the reflection z -> 1/conj(z) of ``maps`` is one such
division and evaluates nothing. Their products are FFTs at O(n log n)
per n-term product, not the O(n^2) of a triangular recursion. Both read
the k-fold symmetry of their argument off its exact zeros and work on
one residue class mod k: the log on 1/k of the spectrum, with classes
p + q = 0 or p - q = 0 (mod k) of its x^p y^q terms, and on the
diagonal alone when they all lie on p = q; the reciprocal on every k-th
coefficient.

Two expansion kinds are supported:

* ``TAYLOR_AT_ZERO``: index k holds the coefficient of z^k,
* ``LAURENT_AT_INFINITY``: index k holds the coefficient of z^(1-k),
  i.e. coeffs = [a, b, c, ...] represents a*z + b + c/z + ...

The Laurent grading is the natural one for exterior maps g with
g(infinity) = infinity and finite g'(infinity) = leading coefficient.

Coefficient extraction from unit-circle samples uses the FFT; coefficients
below ``COEFF_FLOOR`` relative to the largest one are zeroed, which keeps
downstream series algebra from amplifying sampling noise. The trimmed
series is ``resolved`` only when what it keeps ends within the first 7/8
of the M/2-coefficient window, so a spectrum still above the floor at the
window's edge is never taken for a complete one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalFailure

# Relative floor for coefficients recovered from samples; double precision
# noise with one order of headroom.
COEFF_FLOOR = 1e-14

# Complex entries of one transform block of the Newton series inverse:
# 2^17 values are 2 MB, whatever the shape of the series.
_FFT_BLOCK = 1 << 17


class Kind(enum.Enum):
    TAYLOR_AT_ZERO = "taylor_at_zero"
    LAURENT_AT_INFINITY = "laurent_at_infinity"


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Truncated expansion with a fixed grading.

    ``order`` is the number of retained coefficients; every coefficient
    must be finite. Instances are immutable: the coefficient array is
    copied on construction, as float64 for real input (ints and floats)
    and complex128 otherwise, and marked read-only. A complex array keeps
    its dtype even when its imaginary parts are zero.

    ``resolved`` records that the coefficients beyond ``order`` are known
    to sit at or below the coefficient floor (exact closed forms and
    floor-trimmed sample extractions), so zero-padding the series is
    exact; consumers that need high-order data accept such series at any
    truncation.
    """

    kind: Kind
    coeffs: np.ndarray = field(repr=False)
    resolved: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        c = c.astype(np.result_type(c, np.float64))
        if c.ndim != 1 or c.size < 1:
            raise InvalidInput("series needs at least one coefficient")
        if not np.all(np.isfinite(c)):
            raise InvalidInput("series coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def taylor(cls, coeffs, resolved: bool = False) -> "ComplexSeries":
        return cls(Kind.TAYLOR_AT_ZERO, coeffs, resolved)

    @classmethod
    def laurent(cls, coeffs, resolved: bool = False) -> "ComplexSeries":
        return cls(Kind.LAURENT_AT_INFINITY, coeffs, resolved)

    @classmethod
    def identity(cls, kind: Kind = Kind.TAYLOR_AT_ZERO, order: int = 2) -> "ComplexSeries":
        """The series of h(z) = z in either grading."""
        c = np.zeros(max(order, 2))
        if kind is Kind.TAYLOR_AT_ZERO:
            c[1] = 1.0
        else:
            c[0] = 1.0
        return cls(kind, c, resolved=True)


# ---------------------------------------------------------------------------
# Newton inverse and log of bivariate arrays (the operator builders' log,
# and the reciprocal below as its one-column case)
# ---------------------------------------------------------------------------

def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a transform length the FFT factors
    into radix-2, -3 and -5 passes."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _diagonal_sums(a: np.ndarray) -> np.ndarray:
    """The distinct sums p + q over the nonzero entries a[p, q], ascending.

    Row p is shifted right by p, so that each antidiagonal becomes a
    column: the rows of n0 + n1 flags, read n0 + n1 - 1 at a time. The
    work and memory are those of the array, laid along its shorter side,
    with no index arrays.
    """
    if a.shape[0] > a.shape[1]:
        a = a.T
    n0, n1 = a.shape
    pad = np.zeros((n0, n0 + n1), dtype=bool)
    pad[:, :n1] = a != 0
    skew = pad.ravel()[:n0 * (n0 + n1 - 1)].reshape(n0, n0 + n1 - 1)
    return np.flatnonzero(skew.any(axis=0))


def _symmetry_order(a: np.ndarray, first: int = 0) -> int:
    """The symmetry order k of an array: the gcd of p + q + 2 ``first``
    over its nonzero entries a[p, q], where ``first`` is the index of its
    first row and column (1 for a block), or 1 when every such sum is 0.
    Every entry off the class p + q + 2 ``first`` = 0 (mod k) is then
    exactly 0.
    """
    return int(np.gcd.reduce(_diagonal_sums(a) + 2 * first)) or 1


def _class_order(a: np.ndarray, first: int = 0) -> int:
    """The classes of an array's nonzero entries, as a signed order:
    k > 0 when they all lie on p + q + 2 ``first`` = 0 (mod k), the
    ``_symmetry_order``; -k when they lie on p - q = 0 (mod k) for a
    larger k, the gcd of p - q; 0 when they all lie on p = q (or there are
    none). The rows of a flipped array a[::-1] have the sums
    p + q = n0 - 1 - (p - q) of the original's differences.
    """
    minus = int(np.gcd.reduce(_diagonal_sums(a[::-1]) - (len(a) - 1)))
    if minus == 0:
        return 0
    plus = _symmetry_order(a, first)
    return plus if plus >= minus else -minus


def _y_transforms(n1: int, real: bool, order: int):
    """Transforms in y of bivariate series truncated at y^n1 whose x^p y^q
    terms vanish off one family of residue classes mod k = |``order``|:
    p + q = 0 (mod k) for order > 0, p - q = 0 (mod k) for order < 0
    (``_class_order``).

    A series is an array whose row p holds the coefficients of x^p y^q,
    q < n1. Each function takes the array's x-offset a: its row p is the
    power x^(p + a), so it holds only the y-powers q = b + k t, with the
    class function b = -+(p + a) mod k, whose sign is that of -``order``.
    Either family is closed under products, and so under the inverse and
    the log. Its spectrum is the transform of every row at a
    length S = k m >= 2 n1 - 1, with m the smallest 5-smooth length that
    gives one, which holds the product of two n1-term rows without
    wrap-around. At frequency j that is the twiddle e^(-2 pi i j b/S)
    times the length-m transform of the decimated row (c_(b + k t))_t, so
    the spectrum keeps the frequencies of one length-m transform (``rfft``
    for real data, m/2 + 1 of them), and a product at those frequencies
    is exact for every class. With k = 1 the twiddles are 1 and the
    transforms those of the whole rows. The spectrum is stored
    transposed: one row per y-frequency, so that the x-transforms of
    ``_x_product`` run along contiguous rows.

    Every pass is one walk, ``blocks``: the rows of each residue class
    mod k in blocks of at most ``_FFT_BLOCK`` entries, each with the class
    b of its y-powers and the number of them below y^n1. Two block
    transforms alone hold the twiddles: ``to_spectrum`` writes a block's
    spectrum into its columns, and ``to_series`` untwiddles a block of
    spectrum in place and returns its series. Returns three functions:
    ``forward`` (the spectrum of a series), ``truncate`` (a spectrum cut
    back in place to that of its series truncated at y^n1) and
    ``inverse`` (the series of a spectrum, written into ``out``, whose
    off-class entries it leaves as they are; it consumes the spectrum).
    """
    k, sign = abs(order), (-1 if order > 0 else 1)
    m = _smooth_length(-(-(2 * n1 - 1) // k))
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    width = m // 2 + 1 if real else m
    step = max(1, _FFT_BLOCK // m)
    twiddles = np.exp(-2j * np.pi / (k * m)
                      * np.outer(np.arange(k), np.arange(width)))[:, :, None]

    def blocks(count, offset):
        """(rows, b, kept) for each block of an array's ``count`` rows: a
        slice of at most ``step`` rows of one residue class mod k, the class
        b of their y-powers, and the number of those below y^n1."""
        for r in range(min(k, count)):
            b = sign * (r + offset) % k
            for i in range(r, count, k * step):
                yield slice(i, min(i + k * step, count), k), b, len(range(b, n1, k))

    def to_spectrum(coeffs, b, dest):
        dest[:] = fwd(coeffs, m).T
        if b:
            dest *= twiddles[b]

    def to_series(spec, b, kept):
        if b:
            spec *= twiddles[b].conj()
        return inv(spec.T, m)[:, :kept]

    def forward(a, offset):
        spec = np.empty((width, len(a)), dtype=complex)
        for rows, b, _ in blocks(len(a), offset):
            to_spectrum(a[rows, b::k], b, spec[:, rows])
        return spec

    def truncate(spec, offset):
        for rows, b, kept in blocks(spec.shape[1], offset):
            to_spectrum(to_series(spec[:, rows], b, kept), b, spec[:, rows])
        return spec

    def inverse(spec, out, offset):
        for rows, b, kept in blocks(spec.shape[1], offset):
            out[rows, b::k] = to_series(spec[:, rows], b, kept)
        return out

    return forward, truncate, inverse


def _x_product(a, b, size, lo, hi, out):
    """Powers x^lo .. x^(hi-1) of the product of two series, from their
    spectra (``_y_transforms``), written as a spectrum into ``out``.

    Each y-frequency is a product of series in x, taken as a cyclic
    convolution of length ``size``, which the caller picks so that every
    power that wraps around lands outside lo..hi-1; the result is not
    truncated in y (``truncate`` does that). The frequencies go in
    blocks of ``_FFT_BLOCK // size`` rows, so no full two-dimensional
    transform is ever formed. ``out`` may be ``b``: each block of ``b`` is
    read before its rows of ``out`` are written.
    """
    step = max(1, _FFT_BLOCK // size)
    for i in range(0, len(a), step):
        p = np.fft.fft(a[i:i + step], size)
        p *= np.fft.fft(b[i:i + step], size)
        out[i:i + step] = np.fft.ifft(p)[:, lo:hi]
    return out


def _newton_inverse(d_spec, rows, truncate):
    """Spectrum of 1/D truncated at x^rows, from the spectrum of D
    (at least ``rows`` powers of x), for a series with D(0, y) = 1.

    Newton's iteration E <- E - E (D E - 1) doubles the number of exact
    powers of x from E = 1 (Brent and Kung, "Fast algorithms for
    manipulating formal power series", J. ACM 25, 1978); the lengths
    halve down from ``rows`` (rounding up), so every step nearly doubles.
    With E exact below x^k, a step to k2 forms only the powers k..k2-1 of
    D E, whose lower powers are those of 1, at a cyclic length >= k2 that
    wraps the higher ones onto the powers below k. With R = x^-k (D E - 1),
    the new powers of E are those of -E R below x^(k2-k), a product that
    reads only that many powers of each factor. Both products start at
    x^k (``truncate``'s x-offset) and are truncated at y^n1 before they
    are used, and every product costs
    O(k2 n1 log(k2 n1)), so the inverse costs O(rows n1 log(rows n1)).
    """
    e = np.empty((len(d_spec), rows), dtype=complex)
    e[:, 0] = 1.0
    lengths, n = [], rows
    while n > 1:
        lengths.append(n)
        n = (n + 1) // 2
    k = 1
    for k2 in reversed(lengths):
        h = k2 - k
        r = e[:, k:k2]
        _x_product(d_spec[:, :k2], e[:, :k], _smooth_length(k2), k, k2, r)
        truncate(r, k)
        _x_product(e[:, :h], r, _smooth_length(2 * h - 1), 0, h, r)
        np.negative(truncate(r, k), out=r)
        k = k2
    return e


def _log_bivariate(d) -> np.ndarray:
    """log of a truncated bivariate series, row index = powers of the first
    variable x. Requires D(0, y) = 1 (a unit first row); row 0 of the log
    is 0. ``d`` is the array D, or a list holding it as its one item,
    which the log takes out of the list: the operator builders hand it
    over that way, so that no reference outlives its spectrum and D's
    memory is freed before the Newton inverse runs. An array passed
    itself is left as it is.

    L = integral of D_x / D in x: ``_newton_inverse`` gives 1/D below
    x^(n0-1), and one product with D_x at a linear length >= 2 n0 - 3
    gives the rest, so an n0 x n1 log costs O(n0 n1 log(n0 n1)) in
    two-dimensional FFTs. The classes of D are read off its exact zeros
    (``_class_order``): when its x^p y^q terms are exactly 0 unless
    p + q = 0 (mod k), as on the generating arrays of a curve with k-fold
    rotational symmetry, or unless p - q = 0 (mod k), as on the mixed
    arrays of such a curve, so are those of 1/D and of the log, so every
    spectrum keeps the n1/k frequencies of one residue class
    (``_y_transforms``), and the log's off-class entries come out as
    exact zeros; with k = 1 the spectra are the transforms of whole rows.
    When every nonzero term lies on p = q, D is a series in t = xy, and
    its log is the one-column log of its diagonal, with exact zeros off
    it. The spectra are complex arrays of n0
    columns and n1/k rows (half of them for real data), the products run
    on blocks of them, and the log is written over the inverse's
    spectrum: at n0 = n1 = 1281 the call's traced peak is 55 MiB for a
    1-fold array and 29.4 MiB for the 2-fold array of the c = 0.5
    ellipse's b1. Real data takes real transforms and gives a real log
    (the result has d's dtype). The error is roundoff
    relative to max|D| max|1/D|, which is of order one for the builders'
    generating arrays: on the catalog's, the log agrees with the
    triangular recursion that solves D dL/dx = dD/dx one power at a time
    to 1e-16 of the largest entry.
    """
    if isinstance(d, list):
        d = d.pop()
    (n0, n1), dtype = d.shape, d.dtype
    if d[0, 0] != 1.0 or np.any(d[0, 1:] != 0):
        raise InvalidInput("bivariate log requires D(0, y) = 1")
    if n0 == 1:
        return np.zeros((n0, n1), dtype=dtype)
    order = _class_order(d)
    if order == 0:
        out = np.zeros((n0, n1), dtype=dtype)
        diagonal = np.arange(min(n0, n1))
        out[diagonal, diagonal] = _log_bivariate(d[diagonal, diagonal][:, None])[:, 0]
        return out
    forward, truncate, inverse = _y_transforms(n1, np.isrealobj(d), order)
    spec = forward(d, 0)
    del d
    e = _newton_inverse(spec, n0 - 1, truncate)
    spec[:, 1:] *= np.arange(1, n0)          # the spectrum of D_x, from x^1
    _x_product(spec[:, 1:], e, _smooth_length(2 * n0 - 3), 0, n0 - 1, e)
    del spec
    out = np.zeros((n0, n1), dtype=dtype)
    inverse(e, out[1:], 1)
    out[1:] /= np.arange(1, n0)[:, None]
    return out


# ---------------------------------------------------------------------------
# raw-array helpers (Taylor grading, used here, by the operator builders,
# the Schwarzian utilities and the action quadrature)
# ---------------------------------------------------------------------------

def reciprocal_array(c: np.ndarray) -> np.ndarray:
    """Coefficients of 1/sum(c_k z^k) to the same truncation; c[0] != 0.

    The one-column case of the bivariate Newton inverse, on c / c[0]:
    when the nonzero coefficients sit on the multiples of k (the gcd of
    their indices), 1/c is a series in z^k, taken from c[::k] with exact
    zeros between. O(n log n) operations, with an error of a few
    roundoffs relative to max|c / c[0]| times the largest coefficient of
    the reciprocal. A real array takes real transforms and gives a real
    reciprocal; a complex one stays complex.
    """
    if c[0] == 0:
        raise InvalidInput("cannot invert a series with zero constant term")
    k = _symmetry_order(c[:, None])
    unit = (c[::k] / c[0])[:, None]
    forward, truncate, inverse = _y_transforms(1, np.isrealobj(unit), 1)
    spec = _newton_inverse(forward(unit, 0), len(unit), truncate)
    out = np.zeros(len(c), dtype=unit.dtype)
    out[::k] = inverse(spec, np.empty_like(unit), 0)[:, 0] / c[0]
    return out


def evaluate_array(c: np.ndarray, z) -> np.ndarray:
    """Horner evaluation of sum(c_k z^k) at complex point(s) z."""
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), c)


def evaluate_on_circles(c: np.ndarray, radii, m: int) -> np.ndarray:
    """Values of sum(c_k z^k) at z = r e^(2 pi i j/m), j = 0..m-1, for each
    r in ``radii``; row i of the result holds the circle of radius radii[i].

    On m uniform points, z^k depends on k only modulo m. With the
    coefficients laid out in rows C[q, j] = c[j + m q], zero-padded to a
    multiple of m, the folded sums on the circle |z| = r are
    r^j sum_q r^(m q) C[q, j]: one matrix product of the radial powers
    r^(m q) with C, one scaling by r^j and one inverse FFT per circle,
    which sums them exactly. The work is O(n_r K + n_r m log m) for K
    terms on n_r circles and the memory that of the n_r x m result.
    Powers that underflow to 0 weight terms far below the rounding level
    of the sum.
    """
    if m < 1:
        raise InvalidInput("a circle needs at least one point")
    r = np.asarray(radii, dtype=float)[:, None]
    rows = np.zeros(-(-len(c) // m) * m, dtype=c.dtype)
    rows[:len(c)] = c
    rows = rows.reshape(-1, m)
    folded = r ** (m * np.arange(len(rows), dtype=float)) @ rows
    low = min(len(c), m)
    folded[:, :low] *= r ** np.arange(low, dtype=float)
    return m * np.fft.ifft(folded, axis=1)


def derivative_array(c: np.ndarray) -> np.ndarray:
    """d/dz of a Taylor coefficient array (length shrinks by one)."""
    if len(c) == 1:
        return np.zeros(1, dtype=c.dtype)
    return c[1:] * np.arange(1, len(c))


# ---------------------------------------------------------------------------
# series operations
# ---------------------------------------------------------------------------

def evaluate(a: ComplexSeries, z):
    """Evaluate the truncated series at complex point(s) z (vectorized)."""
    z = np.asarray(z, dtype=complex)
    if a.kind is Kind.TAYLOR_AT_ZERO:
        out = evaluate_array(a.coeffs, z)
    else:
        # sum c_k z^(1-k) = z * P(1/z) with P the Taylor array
        out = evaluate_array(a.coeffs, 1.0 / z) * z
    return out if out.shape else complex(out)


def coeffs_from_samples(samples) -> ComplexSeries:
    """Recover Taylor coefficients from uniform samples on the unit circle.

    The sample count must be a power of two. Retains M/2 coefficients,
    zeroing those below ``COEFF_FLOOR`` relative to the largest magnitude,
    and is ``resolved`` when the last one kept lies in the first 7/8 of
    that window. A non-decaying high-frequency tail means the samples are
    not those of a map analytic on the closed disk and is rejected.
    """
    samples = np.asarray(samples, dtype=complex)
    m = len(samples)
    if m < 2 or (m & (m - 1)) != 0:
        raise InvalidInput("sample count must be a power of two >= 2")
    half = m // 2
    coeffs = np.fft.fft(samples)[:half] / m
    mags = np.abs(coeffs)
    top = mags.max()
    # analyticity diagnostic: the tail quarter must not dominate the head
    head = mags[:max(2, half // 4)].max()
    tail = mags[3 * half // 4:].max() if half >= 4 else 0.0
    if tail > 10.0 * head and tail > 1e3 * COEFF_FLOOR * top:
        raise NumericalFailure(
            "coefficient growth in the high frequencies: the samples are "
            "not those of a map analytic on the closed disk"
        )
    # the FFT noise level grows with the sample count; when the tail
    # quarter is flat noise, raise the floor above it
    floor_abs = COEFF_FLOOR * top
    if half >= 8:
        # the median of the tail, whose length half/4 is even: the mean of
        # its two middle values (np.median would load numpy.ma)
        k = half // 8
        mid = np.partition(mags[3 * half // 4:], (k - 1, k))
        noise = float((mid[k - 1] + mid[k]) / 2)
        if noise <= 1e-10 * top:
            floor_abs = max(floor_abs, 6.0 * noise)
    # rounding noise in the samples lands in every bin; entries below that
    # level are not signal
    floor_abs = max(floor_abs,
                    8.0 * np.finfo(float).eps * float(np.abs(samples).max()))
    coeffs = np.where(mags >= floor_abs, coeffs, 0.0)
    nz = np.nonzero(np.abs(coeffs) > 0)[0]
    if nz.size == 0:
        return ComplexSeries.taylor(np.zeros(1), resolved=True)
    # the trim only certifies exact padding when the kept spectrum ends
    # within the first 7/8 of the window: a k-fold sparse spectrum keeps
    # only every k-th index, so its last one can sit just below the edge
    # while still far above the floor, with the next one past the window
    last = int(nz.max())
    return ComplexSeries.taylor(coeffs[:last + 1], resolved=last < 7 * half // 8)


def samples_from_coeffs(a: ComplexSeries, radius: float, m: int):
    """Values of the series on m uniform points z_j = radius e^(2 pi i j/m).

    One ``evaluate_on_circles`` row: a Taylor series directly; a Laurent
    series z P(1/z) as P on the circle of radius 1/radius, where
    1/z_j = e^(-2 pi i j/m) / radius is point -j mod m, times z_j.
    """
    if m < 2 or (m & (m - 1)) != 0:
        raise InvalidInput("sample count must be a power of two >= 2")
    if a.kind is Kind.TAYLOR_AT_ZERO:
        return evaluate_on_circles(a.coeffs, [radius], m)[0]
    p = evaluate_on_circles(a.coeffs, [1.0 / radius], m)[0]
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.roll(p[::-1], 1) * (radius * np.exp(1j * theta))

