"""Properties of welding pairs of random asymmetric star domains.

The domains rho = 1 + sum_j eps_j cos(k_j theta + phi_j) have up to three
distinct frequencies k_j <= 6 and amplitudes eps_j <= 0.04, and their pairs
come from the catalog's recipe, ``maps.star_pair``. Each phase phi_j lies
in [0.1, pi - 0.1], so every term has an odd part and no domain is its own
conjugate: the maps have complex coefficients and the blocks take the
complex arithmetic path.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from weldlab import grunsky as gk
from weldlab import liouville as lv
from weldlab import maps as mp

PROPERTY = settings(max_examples=10, derandomize=True, deadline=None,
                    database=None)
N = 64


@st.composite
def asymmetric_pairs(draw):
    terms = draw(st.lists(st.tuples(st.integers(1, 6), st.floats(0.005, 0.04),
                                    st.floats(0.1, np.pi - 0.1)),
                          min_size=1, max_size=3, unique_by=lambda t: t[0]))

    def rho(theta):
        theta = np.asarray(theta, dtype=float)
        return 1.0 + sum(eps * np.cos(k * theta + phi) for k, eps, phi in terms)

    domain = mp.StarDomain(rho=rho)
    assert not domain.symmetric
    return mp.star_pair(domain)


@PROPERTY
@given(asymmetric_pairs())
def test_blocks_are_complex_and_the_potential_is_nonpositive(pair):
    b1, b4 = gk.build_b1(pair, N), gk.build_b4(pair, N)
    assert b1.dtype == b4.dtype == np.complex128
    via_b1 = gk.logdet_potential(b1, [N]).extrapolated
    via_b4 = gk.logdet_potential(b4, [N]).extrapolated
    assert via_b1 <= 0.0 and via_b4 <= 0.0
    # the two routes truncate differently; at N = 64 the widest draws
    # (k = 4, 5, 6 at eps = 0.04) differ by 5e-8
    assert abs(via_b1 - via_b4) <= 1e-6


@PROPERTY
@given(asymmetric_pairs())
def test_mixed_blocks_take_the_complex_path(pair):
    # a square build transposes b2; the operator residual builds them
    # rectangular, with b3 from the second log on complex arrays
    b2, b3 = gk.build_b2_b3(pair, 16)
    assert b2.dtype == np.complex128 and np.array_equal(b3, b2.T)
    assert max(gk.grunsky_operator_residual(pair, 16)) <= 1e-12


@PROPERTY
@given(asymmetric_pairs())
def test_grid_action_matches_parseval(pair):
    # the widest draws leave the 256 angles a relative gap of 1.2e-10
    parseval = lv.s1_coefficient_route(pair)
    grid = lv.s1_value(pair, lv.QuadratureGrid(128, 256))
    assert abs(grid - parseval) <= 1e-9 * abs(parseval)
