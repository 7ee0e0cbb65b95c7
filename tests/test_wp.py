"""The Weil-Petersson law of the determinant potential at small amplitude.

For the bump rho = 1 + eps cos(k theta) the potential follows

    s2_univ = -(k^3 - k) eps^2 / 6 * (1 + a_k eps^2 + O(eps^4)),

the second-order content of S1 = -12 pi s2_univ being a Kahler potential
of the Weil-Petersson metric, whose norm of cos(k theta) is proportional
to k^3 - k (Nag-Verjovsky). The coefficients a_k were fitted at
eps = 1e-2 and 1e-3, where the Parseval, grid and B4 routes agree.

Off the circle, the ellipses g(w) = w + c/w with c in the disk are a
holomorphic disk in universal Teichmueller space, on which S1 depends on
|c| alone, so the Laplacian of S1 in c is a closed form; the WP norm of
the welding's variation must meet it.
"""

import numpy as np
import pytest

from references import ellipse_welding, ellipse_wp_laplacian
from weldlab import grunsky as gk
from weldlab import maps as mp

A_K = {2: 0.125, 3: -1.203}


@pytest.mark.parametrize("route", gk.ROUTES)
@pytest.mark.parametrize("k", [2, 3])
def test_determinant_second_order_law_at_eps_1e4(k, route):
    # the relative correction a_k eps^2 is ~1e-9: a determinant that
    # loses digits below the size of the potential misses it
    eps = 1e-4
    pair = mp.catalog("fourier_bump", eps=eps, k=k)
    s2 = gk.potential(getattr(pair, gk.ROUTES[route]), [64]).extrapolated
    lead = -(k ** 3 - k) * eps ** 2 / 6.0
    assert abs((s2 - lead) / lead - A_K[k] * eps ** 2) <= 1e-10


def _wp_norm(coeffs):
    """4 pi sum_q (|q|^3 - |q|) |u_q|^2 of Fourier coefficients u_q in FFT
    order."""
    q = np.abs(np.fft.fftfreq(len(coeffs), 1.0 / len(coeffs)))
    return 4.0 * np.pi * float(np.sum((q ** 3 - q) * np.abs(coeffs) ** 2))


def test_kahler_identity_on_the_ellipse_disk():
    # the variation of phi = g^-1 o f in c, by central differences at
    # h = 1e-3 and 2e-3 and one Richardson step, pushed forward to the
    # vector field u = d_c phi / phi_0' on uniform t, has the WP norm
    # Delta_c S1 (measured -4.8e-11 to +9.7e-11 relative at M = 1024,
    # +3.9e-10 at c = 0.4 with M = 4096, where M = 1024 misses by 5e-5)
    for c, m, tol in [(0.01, 1024, 1e-7), (0.1, 1024, 1e-7), (0.2, 1024, 1e-7),
                      (0.3, 1024, 1e-7), (0.4, 4096, 1e-6)]:
        t = 2.0 * np.pi * np.arange(m) / m
        q = np.fft.fftfreq(m, 1.0 / m)
        phi0 = ellipse_welding(c, m)
        slope = 1.0 + np.fft.ifft(1j * q * np.fft.fft(phi0 - t)).real
        central = [(ellipse_welding(c + h, m) - ellipse_welding(c - h, m)) / (2 * h)
                   for h in (1e-3, 2e-3)]
        variation = (4.0 * central[0] - central[1]) / 3.0
        exact = ellipse_wp_laplacian(c)
        assert abs(_wp_norm(np.fft.fft(variation / slope) / m) / exact - 1) <= tol
        if c == 0.1:
            # the interior-coordinate form (d_c phi) o phi_0^-1 on uniform
            # s = phi_0(t), whose coefficients are the mean over t of
            # d_c phi phi_0' e^(-i q phi_0), misses: 169.48 against 160.03
            composed = np.exp(-1j * np.outer(q, phi0)) @ (variation * slope) / m
            assert abs(_wp_norm(composed) / exact - 1) > 1e-2
