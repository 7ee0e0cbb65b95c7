"""Reference implementations that the package's fast routines replaced.

The series references solve their equation one power at a time, so every
coefficient they return is a prefix of the exact expansion, in O(n^2)
operations for the reciprocal and O(n0^2 n1 log n1) for the log; the
tests hold the FFT routines of ``weldlab.series`` to them at small sizes.
The determinant reference takes one singular-value decomposition per
order, against which the tests hold ``grunsky.logdet_potential``'s single
factorization. The octagon references decide membership of the Dirichlet
domain by comparing hyperbolic distances, the oracle of
``fuchsian.domain_boundary_radius``, and invert the right-triangle
relation that fixes the octagon's vertex radius.

The curve references measure a welding pair's boundary the way the
package did before it checked each trace against the pair's star curve:
``dense_horner_distance`` projects points onto the image curve of a
series by Newton steps on Horner values, and ``unit_circle_jets`` is the
FFT jet evaluator that made such steps O(1) per angle. Both take their
slopes from ``derivative``, the term-by-term derivative of either
grading, which no command of the package reads.

``schwarzian_by_samples`` differentiates any evaluator by sampling it on
a small circle, the oracle of ``maps.schwarzian``'s series arithmetic.

``domain_from_samples`` interpolates a star domain from uniform radius
samples, so the tests can build a pair on a curve known only by samples.

``disk_domain`` is the off-centre disk |w - a| < 1 as a star domain about
0, a Moebius image of the unit disk: the basepoint of universal
Teichmueller space, where both potentials and the blocks b1, b4 vanish
and b2 is unitary.

``whole_grid_s1_value`` is the action quadrature as it ran before
``liouville.s1_value`` took its grid one band of circles at a time: every
n_r x n_theta array at once, the reference that the bands must match bit
for bit.

``christoffel_weights`` is the Gauss-Legendre weight at a node by the
Christoffel sum, a sum of positive terms, the oracle of the radial rule of
``liouville.QuadratureGrid``.

``mobius_ellipse_exterior`` is the exterior map of a Moebius image of the
ellipse, a curve with no symmetry whose potential is the ellipse's.

``ellipse_log_conformal_radius`` is the log of the ellipse's exterior
conformal radius |g'(infinity)| in the pair's gauge f'(0) = 1, by two
theta series: the oracle of the gauge, which no Theodorsen solve enters.
"""

import math

import numpy as np

from weldlab.errors import InvalidInput, NumericalFailure
from weldlab.fuchsian import _side_neighbours
from weldlab.liouville import INTEGRAND_CAP, _action_sides, _log_term
from weldlab.maps import StarDomain
from weldlab.series import (ComplexSeries, Kind, _smooth_length, derivative_array,
                            evaluate, evaluate_on_circles)

# Highest Taylor order of ``unit_circle_jets``: its grid has more than two
# points per period of the top frequency, so |nu h s| < pi/2, and the
# remainder of order 22, (pi/2)^23/23! e^(pi/2) = 6.0e-18 relative to
# sum |c_k|, is below rounding.
_JET_ORDER = 22


def triangular_reciprocal(c):
    """Coefficients of 1/sum(c_k z^k) by forward substitution in
    c * inv = 1; c[0] != 0."""
    n = len(c)
    inv = np.zeros(n, dtype=c.dtype)
    inv[0] = 1.0 / c[0]
    for k in range(1, n):
        inv[k] = -np.dot(c[1:k + 1], inv[k - 1::-1]) / c[0]
    return inv


def slice_log(d):
    """log of a bivariate array with D(0, y) = 1 (rows are the powers of
    x) by solving D * dL/dx = dD/dx one row at a time; each row product is
    a zero-padded FFT of the smallest 5-smooth length >= 2 n1 - 1."""
    n0, n1 = d.shape
    size = _smooth_length(2 * n1 - 1)
    if np.isrealobj(d):
        fft = lambda x: np.fft.rfft(x, size, axis=-1)
        ifft = lambda x: np.fft.irfft(x, size)[..., :n1]
    else:
        fft = lambda x: np.fft.fft(x, size, axis=-1)
        ifft = lambda x: np.fft.ifft(x, size)[..., :n1]
    fd = fft(d)
    fp = np.zeros((n0 - 1, fd.shape[1]), dtype=complex)
    p = np.zeros((n0 - 1, n1), dtype=d.dtype)
    for m in range(n0 - 1):
        acc = np.einsum("jk,jk->k", fd[m:0:-1, :], fp[:m, :])
        row = ifft((m + 1) * fd[m + 1, :] - acc)
        p[m, :] = row
        fp[m, :] = fft(row)
    out = np.zeros((n0, n1), dtype=d.dtype)
    out[1:, :] = p / np.arange(1, n0)[:, None]
    return out


def svd_logdet(b, orders):
    """log det(I - B_n B_n*) for each n in ``orders``: the sum of
    log1p(-sigma^2) over the singular values sigma of the leading n x n
    block, one SVD per order."""
    estimates = []
    for n in orders:
        sigma = np.linalg.svd(b[:n, :n], compute_uv=False)
        estimates.append(float(np.log1p(-sigma ** 2).sum()))
    return estimates


def hyperbolic_distance(z, w) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    rho = np.abs((z - w) / (1.0 - np.conj(w) * z))
    return 2.0 * np.arctanh(rho)


def in_dirichlet_domain(group, z, slack: float = 1e-12):
    """True where d(z, 0) <= d(z, gamma 0) + slack for each of the eight side
    pairings gamma: the octagon bounded by the eight side bisectors."""
    z = np.asarray(z, dtype=complex)
    d0 = hyperbolic_distance(z, 0.0)
    inside = np.ones(z.shape, dtype=bool)
    for p in _side_neighbours(group):
        inside &= d0 <= hyperbolic_distance(z, p) + slack
    return inside if inside.shape else bool(inside)


def vertex_angle(vertex_radius_hyp: float) -> float:
    """Interior angle of the regular octagon with the given hyperbolic
    vertex radius (right-triangle relation cosh c = cot A cot B, with
    A = pi/8 half a side sector)."""
    return 2.0 * np.arctan(1.0 / (np.cosh(vertex_radius_hyp) * np.tan(np.pi / 8)))


def derivative(a):
    """Term-by-term derivative of a ``ComplexSeries``.

    Taylor output has order-1 coefficients (degenerate order-1 input gives
    the zero series of order 1). Laurent-at-infinity output keeps the
    z^(1-k) grading, gaining one slot: d/dz of c_k z^(1-k) lands at index
    k+1 with factor (1-k).
    """
    if a.kind is Kind.TAYLOR_AT_ZERO:
        return ComplexSeries.taylor(derivative_array(a.coeffs),
                                    resolved=a.resolved)
    out = np.zeros(a.order + 1, dtype=a.coeffs.dtype)
    k = np.arange(a.order)
    out[k + 1] = (1 - k) * a.coeffs
    return ComplexSeries.laurent(out, resolved=a.resolved)


def dense_horner_distance(points, curve):
    """Distance from each point to the image curve of |z| = 1 under the
    series ``curve``: the nearest of all 4096 curve samples by Horner, then
    six Newton projection steps on Horner values."""
    pts = np.asarray(points, dtype=complex)
    grid = 2 * np.pi * np.arange(4096) / 4096
    samples = evaluate(curve, np.exp(1j * grid))
    t = np.concatenate([grid[np.abs(chunk[:, None] - samples).argmin(axis=1)]
                        for chunk in np.array_split(pts, 8)])
    slope = derivative(curve)
    for _ in range(6):
        z = np.exp(1j * t)
        value, tangent = evaluate(curve, z), evaluate(slope, z) * 1j * z
        t = t - np.real((value - pts) * np.conj(tangent)) / np.abs(tangent) ** 2
    return np.abs(evaluate(curve, np.exp(1j * t)) - pts)


def unit_circle_jets(a):
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


def schwarzian_by_samples(h, z):
    """Schwarzian derivative of a plain evaluator ``h`` at z by local-circle
    Fourier differentiation: 32 samples on a circle of radius
    max(0.25 (1 - |z|), 1e-4) about z give its first three Taylor
    coefficients there. h'(z) = 0 is rejected."""
    z = np.asarray(z, dtype=complex)
    scalar = z.shape == ()
    zv = np.atleast_1d(z)
    radius = np.maximum(0.25 * (1.0 - np.abs(zv)), 1e-4)
    stencil = 32
    theta = 2.0 * np.pi * np.arange(stencil) / stencil
    ring = np.exp(1j * theta)
    samples = np.asarray(h(zv[:, None] + radius[:, None] * ring[None, :]))
    local = np.fft.fft(samples, axis=1) / stencil
    t1 = local[:, 1] / radius
    t2 = local[:, 2] / radius ** 2
    t3 = local[:, 3] / radius ** 3
    if np.any(np.abs(t1) < 1e-13):
        raise NumericalFailure("Schwarzian evaluation at a critical point")
    out = 6.0 * (t1 * t3 - t2 ** 2) / t1 ** 2
    return complex(out[0]) if scalar else out


def domain_from_samples(values) -> StarDomain:
    """Star domain from uniform radius samples, evaluated anywhere by
    trigonometric interpolation.

    Samples that are bitwise even, values[j] == values[-j mod m], have a
    real spectrum: its imaginary part is rounding, which would make the
    interpolant odd at roundoff, so only the real part is kept. The
    interpolant is then bitwise even and the domain ``symmetric``. Samples
    of an even rho are bitwise even only at angles that negate exactly,
    2 pi * ``np.fft.fftfreq(m)``; at 2 pi j/m, 15 of the 31 mirrored pairs
    of the c = 0.3 ellipse at m = 64 differ, and the domain stays complex.
    """
    vals = np.asarray(values, dtype=float)
    m = len(vals)
    if m < 8 or (m & (m - 1)) != 0:
        raise InvalidInput("need a power-of-two sample count >= 8")
    if vals.min() <= 0:
        raise InvalidInput("polar radius must be positive")
    spec = np.fft.rfft(vals) / m
    if np.array_equal(vals[1:], vals[:0:-1]):
        spec = spec.real
    k = np.arange(len(spec))

    def rho(th):
        th = np.asarray(th, dtype=float)
        phases = np.exp(1j * np.outer(th, k))
        out = np.real(phases @ (2.0 * spec)) - spec[0].real
        if m % 2 == 0:
            out -= np.real(phases[:, -1] * spec[-1])
        return out.reshape(np.shape(th))

    return StarDomain(rho=rho)


def disk_domain(a) -> StarDomain:
    """The disk |w - a| < 1, |a| < 1, by its polar radius about 0:
    rho(theta) = Re(t) + sqrt(1 - Im(t)^2) with t = conj(a) e^(i theta)."""
    def rho(th):
        t = np.conj(a) * np.exp(1j * np.asarray(th, dtype=float))
        return t.real + np.sqrt(1.0 - t.imag ** 2)

    return StarDomain(rho=rho)


def whole_grid_s1_value(pair, grid) -> float:
    """``liouville.s1_value`` with each side evaluated, weighted and checked
    on the whole grid at once."""
    r, wr = grid.nodes
    integrals = []
    for num, den, s in _action_sides(pair):
        vals = np.abs(evaluate_on_circles(num, r, grid.n_theta)
                      / evaluate_on_circles(den, r, grid.n_theta)) ** 2
        vals *= r[:, None] ** (2 * s)
        if vals.max() > INTEGRAND_CAP:
            raise NumericalFailure(
                "integrand exceeds the blow-up cap near the boundary: "
                "curve appears to fall outside the finite-action class")
        integrals.append(float((vals * r[:, None]).sum(axis=1).dot(wr)
                               * (2.0 * np.pi / grid.n_theta)))
    return sum(integrals) + _log_term(pair)


def christoffel_weights(x, n) -> np.ndarray:
    """1 / sum_{k<n} (k + 1/2) P_k(x)^2, the n-point Gauss-Legendre weight at
    each node x, with P_k by the three-term recurrence."""
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    total = 0.5 * p1
    for k in range(1, n):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        total += (k + 0.5) * p1 ** 2
    return 1.0 / total


def mobius_ellipse_exterior(c, a) -> ComplexSeries:
    """The exterior map G = T o g o M of the image of the curve of
    g(w) = w + c/w under T(z) = z / (1 - a z), with 1/a outside the curve.

    M(w) = (w + conj(b)) / (1 + b w), b = 1/w0, is the automorphism of
    |w| > 1 that sends infinity to the root w0 of g(w0) = 1/a with
    |w0| > 1, so G has its simple pole at infinity. Its Laurent
    coefficients come from one FFT of G on 2^14 points of |w| = 1, cut at
    the first below 1e-17 |G'(infinity)|, where their geometric decay meets
    the FFT's roundoff (46-57 terms on the tests' rows), so the series is
    resolved. Fredholm eigenvalues are Moebius invariant (Ahlfors 1952), so
    B4 of G keeps the ellipse's potential sum_k log(1 - c^(2k)), while the
    block is dense and complex.
    """
    m = 1 << 14
    w0 = max(np.roots([1.0, -1.0 / a, c]), key=abs)   # w0^2 - w0/a + c = 0
    b = 1.0 / w0
    w = np.exp(2j * np.pi * np.arange(m) / m)
    z = (w + np.conj(b)) / (1.0 + b * w)
    z = z + c / z
    spectrum = np.fft.fft(z / (1.0 - a * z)) / m
    # the powers w^1, w^0, w^-1, ..., w^-(m - 2): the graded layout
    coeffs = np.concatenate([spectrum[1::-1], spectrum[:1:-1]])
    kept = np.flatnonzero(np.abs(coeffs[2:]) < 1e-17 * abs(coeffs[0]))[0] + 2
    return ComplexSeries.laurent(coeffs[:kept], resolved=True)


def ellipse_log_conformal_radius(c) -> float:
    """log |g'(infinity)| of the catalog's ellipse pair (semi-axes 1 +- c)
    in the gauge f'(0) = 1, that is -log f'(0) of its raw interior map:
    log theta3(q) + log(theta2(q) / (2 q^(1/4))) for the nome q = c^2,
    summed as log1p(2q + 2q^4 + 2q^9 + ...) + log1p(q^2 + q^6 + q^12 + ...)
    (20 terms each: the last is far below rounding for c <= 0.5).
    """
    q = c * c
    theta3 = sum(2.0 * q ** (n * n) for n in range(20, 0, -1))
    theta2 = sum(q ** (n * (n + 1)) for n in range(20, 0, -1))
    return math.log1p(theta3) + math.log1p(theta2)
