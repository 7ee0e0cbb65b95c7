"""Truncated power-series algebra over complex coefficients.

This module is the package's one place that evaluates, differentiates and
samples a coefficient array. There are three evaluators:

* ``evaluate_array``, the only Horner loop, takes arbitrary points: the
  Schwarzian of ``maps``, and ``evaluate``, the tests' Horner oracle for
  either grading;
* ``evaluate_on_circles`` takes m uniform points on each of many circles,
  the product grids of the action quadrature and ``samples_from_coeffs``
  (one circle |z| = r, in either grading): it folds the coefficients
  modulo m and sums each circle exactly with one FFT, in O(K + m log m)
  operations for K terms instead of Horner's O(K m);
* ``unit_circle_jets`` takes arbitrary angles on |z| = 1, the Newton steps
  of ``maps``' boundary check: it tabulates the curve and its Taylor jets
  on a uniform grid by FFT once, then costs O(1) per angle, not O(K).

``derivative`` is the only term-by-term derivative of either grading, and
``reciprocal_array`` the only series division; the reflection
z -> 1/conj(z) of ``maps`` is one such division and evaluates nothing.

Two expansion kinds are supported:

* ``TAYLOR_AT_ZERO``: index k holds the coefficient of z^k,
* ``LAURENT_AT_INFINITY``: index k holds the coefficient of z^(1-k),
  i.e. coeffs = [a, b, c, ...] represents a*z + b + c/z + ...

The Laurent grading is the natural one for exterior maps g with
g(infinity) = infinity and finite g'(infinity) = leading coefficient.

Coefficient extraction from unit-circle samples uses the FFT; coefficients
below ``COEFF_FLOOR`` relative to the largest one are zeroed, which keeps
downstream triangular recursions from amplifying sampling noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalFailure

# Relative floor for coefficients recovered from samples; double precision
# noise with one order of headroom.
COEFF_FLOOR = 1e-14

# Entries of the weighted-coefficient block of ``evaluate_on_circles``:
# 2^18 complex values are 4 MB, whatever the number of circles.
_CIRCLE_BLOCK = 1 << 18
# Length of the table of low powers r^j, j < _POWER_STEP, in ``_powers``.
_POWER_STEP = 64
# Highest Taylor order of ``unit_circle_jets``: its grid has more than two
# points per period of the top frequency, so |nu h s| < pi/2, and the
# remainder of order 22, (pi/2)^23/23! e^(pi/2) = 6.0e-18 relative to
# sum |c_k|, is below rounding.
_JET_ORDER = 22


class Kind(enum.Enum):
    TAYLOR_AT_ZERO = "taylor_at_zero"
    LAURENT_AT_INFINITY = "laurent_at_infinity"


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Truncated expansion with a fixed grading.

    ``order`` is the number of retained coefficients; every coefficient
    must be finite. Instances are immutable: the coefficient array is
    copied on construction and marked read-only.

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
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size < 1:
            raise InvalidInput("series needs at least one coefficient")
        if not np.all(np.isfinite(c.view(float))):
            raise InvalidInput("series coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def taylor(cls, coeffs, resolved: bool = False) -> "ComplexSeries":
        return cls(Kind.TAYLOR_AT_ZERO, np.asarray(coeffs, dtype=complex),
                   resolved)

    @classmethod
    def laurent(cls, coeffs, resolved: bool = False) -> "ComplexSeries":
        return cls(Kind.LAURENT_AT_INFINITY, np.asarray(coeffs, dtype=complex),
                   resolved)

    @classmethod
    def identity(cls, kind: Kind = Kind.TAYLOR_AT_ZERO, order: int = 2) -> "ComplexSeries":
        """The series of h(z) = z in either grading."""
        c = np.zeros(max(order, 2), dtype=complex)
        if kind is Kind.TAYLOR_AT_ZERO:
            c[1] = 1.0
        else:
            c[0] = 1.0
        return cls(kind, c, resolved=True)


# ---------------------------------------------------------------------------
# raw-array helpers (Taylor grading, used here, by the operator builders,
# the Schwarzian utilities and the action quadrature)
# ---------------------------------------------------------------------------

def reciprocal_array(c: np.ndarray) -> np.ndarray:
    """Coefficients of 1/sum(c_k z^k) to the same truncation; c[0] != 0.

    Triangular recursion: stable for series whose reciprocal has tame
    coefficients, which is the case for the zero-free denominators used
    in this package.
    """
    if c[0] == 0:
        raise InvalidInput("cannot invert a series with zero constant term")
    n = len(c)
    inv = np.zeros(n, dtype=c.dtype)
    inv[0] = 1.0 / c[0]
    for k in range(1, n):
        inv[k] = -np.dot(c[1:k + 1], inv[k - 1::-1]) / c[0]
    return inv


def evaluate_array(c: np.ndarray, z) -> np.ndarray:
    """Horner evaluation of sum(c_k z^k) at complex point(s) z."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for ck in c[::-1]:
        out = out * z + ck
    return out


def _powers(r: np.ndarray, n: int) -> np.ndarray:
    """r^k for k < n, one row per radius.

    Each entry is a product of two tabulated powers, r^(k - j) r^j with
    j = k mod _POWER_STEP: within two roundings of r**k, at one multiply
    per entry instead of one pow.
    """
    low = r[:, None] ** np.arange(_POWER_STEP, dtype=float)
    high = r[:, None] ** np.arange(0, n, _POWER_STEP, dtype=float)
    return (high[:, :, None] * low[:, None, :]).reshape(len(r), -1)[:, :n]


def evaluate_on_circles(c: np.ndarray, radii, m: int) -> np.ndarray:
    """Values of sum(c_k z^k) at z = r e^(2 pi i j/m), j = 0..m-1, for each
    r in ``radii``; row i of the result holds the circle of radius radii[i].

    On m uniform points, z^k depends on k only modulo m, so the weighted
    coefficients c_k r^k are folded into m bins and one inverse FFT per
    circle sums them exactly. Weights that underflow to 0 are terms far
    below the rounding level of the sum.
    """
    if m < 1:
        raise InvalidInput("a circle needs at least one point")
    c = np.asarray(c, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    width = -(-len(c) // m) * m                  # zero-padded to a multiple of m
    rows = max(1, _CIRCLE_BLOCK // max(width, _POWER_STEP))
    out = np.empty((len(radii), m), dtype=complex)
    for start in range(0, len(radii), rows):
        r = radii[start:start + rows]
        weighted = np.zeros((len(r), width), dtype=complex)
        np.multiply(c, _powers(r, len(c)), out=weighted[:, :len(c)])
        folded = weighted.reshape(len(r), width // m, m).sum(axis=1)
        out[start:start + rows] = m * np.fft.ifft(folded, axis=1)
    return out


def derivative_array(c: np.ndarray) -> np.ndarray:
    """d/dz of a Taylor coefficient array (length shrinks by one)."""
    if len(c) == 1:
        return np.zeros(1, dtype=c.dtype)
    return c[1:] * np.arange(1, len(c))


# ---------------------------------------------------------------------------
# series operations
# ---------------------------------------------------------------------------

def derivative(a: ComplexSeries) -> ComplexSeries:
    """Term-by-term derivative.

    Taylor output has order-1 coefficients (degenerate order-1 input gives
    the zero series of order 1). Laurent-at-infinity output keeps the
    z^(1-k) grading, gaining one slot: d/dz of c_k z^(1-k) lands at index
    k+1 with factor (1-k).
    """
    if a.kind is Kind.TAYLOR_AT_ZERO:
        if a.order == 1:
            return ComplexSeries.taylor([0.0], resolved=a.resolved)
        return ComplexSeries.taylor(derivative_array(a.coeffs),
                                    resolved=a.resolved)
    out = np.zeros(a.order + 1, dtype=complex)
    k = np.arange(a.order)
    out[k + 1] = (1 - k) * a.coeffs
    return ComplexSeries.laurent(out, resolved=a.resolved)


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
    zeroing those below ``COEFF_FLOOR`` relative to the largest magnitude. A
    non-decaying high-frequency tail means the samples are not those of a
    map analytic on the closed disk and is rejected.
    """
    samples = np.asarray(samples, dtype=complex)
    m = len(samples)
    if m < 2 or (m & (m - 1)) != 0:
        raise InvalidInput("sample count must be a power of two >= 2")
    half = m // 2
    coeffs = np.fft.fft(samples)[:half] / m
    mags = np.abs(coeffs)
    top = mags.max()
    if top == 0.0:
        return ComplexSeries.taylor(np.zeros(1), resolved=True)
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
        noise = float(np.median(mags[3 * half // 4:]))
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
    # the trim only certifies exact padding when it cut before the Nyquist
    # edge; otherwise spectral content may continue past the window
    trimmed = int(nz.max()) + 1 < half - 4
    return ComplexSeries.taylor(coeffs[:int(nz.max()) + 1], resolved=trimmed)


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


def unit_circle_jets(a: ComplexSeries):
    """Evaluator of t -> a(e^(it)) and its t-derivative at arbitrary angles.

    The curve sum c_k e^(i nu_k t) (nu_k = k for Taylor, 1 - k for Laurent)
    is tabulated with its scaled jets
    G_r[j] = sum c_k (i nu_k h)^r e^(i nu_k t_j) / r!, r <= ``_JET_ORDER``,
    on the grid t_j = j h of the smallest power of two L > 2 max|nu_k|
    points, one folded inverse FFT per order: O(R K + R L log L) once. An
    angle t = (j + s) h with |s| <= 1/2 is then the polynomial
    sum_r G_r[j] s^r and its s-derivative over h, O(R) per angle instead of
    Horner's O(K). Returns a function of an angle array t giving the pair
    (values, t-derivatives).
    """
    nu = np.arange(a.order)
    if a.kind is Kind.LAURENT_AT_INFINITY:
        nu = 1 - nu
    size = 2
    while size <= 2 * np.abs(nu).max():
        size *= 2
    h = 2.0 * np.pi / size
    step = 1j * h * nu
    bins = nu % size                             # distinct: L > 2 max|nu|
    jets = np.zeros((_JET_ORDER + 1, size), dtype=complex)
    term = a.coeffs
    for r in range(_JET_ORDER + 1):
        if r:
            term = term * step / r
        jets[r, bins] = term
    jets = np.fft.ifft(jets, axis=1, norm="forward")

    def at(t):
        u = np.asarray(t, dtype=float) / h
        j = np.rint(u)
        s = u - j
        j = j.astype(np.int64) % size
        value, slope = jets[-1][j], np.zeros(j.shape, dtype=complex)
        for row in jets[-2::-1]:
            slope = slope * s + value
            value = value * s + row[j]
        return value, slope / h

    return at
