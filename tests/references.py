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
"""

import numpy as np

from weldlab.fuchsian import _side_neighbours
from weldlab.series import (ComplexSeries, Kind, _smooth_length, derivative_array,
                            evaluate)

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
