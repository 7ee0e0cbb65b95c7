"""Reference implementations that the package's fast routines replaced.

The series references solve their equation one power at a time, so every
coefficient they return is a prefix of the exact expansion, in O(n^2)
operations for the reciprocal and O(n0^2 n1 log n1) for the log; the
tests hold the FFT routines of ``weldlab.series`` to them at small sizes.
The determinant reference takes one singular-value decomposition per
order, against which the tests hold ``grunsky.logdet_potential``'s single
factorization.
"""

import numpy as np

from weldlab.series import _smooth_length


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
