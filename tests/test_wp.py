"""The Weil-Petersson law of the determinant potential at small amplitude.

For the bump rho = 1 + eps cos(k theta) the potential follows

    s2_univ = -(k^3 - k) eps^2 / 6 * (1 + a_k eps^2 + O(eps^4)),

the second-order content of S1 = -12 pi s2_univ being a Kahler potential
of the Weil-Petersson metric, whose norm of cos(k theta) is proportional
to k^3 - k (Nag-Verjovsky). The coefficients a_k were fitted at
eps = 1e-2 and 1e-3, where the Parseval, grid and B4 routes agree.
"""

import pytest

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
