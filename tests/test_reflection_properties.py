"""Properties of the reflection z -> 1/conj(z) on random univalent maps.

Polynomials z + sum_{j=2..6} a_j z^j with sum j|a_j| <= 1/2 have
Re f' >= 1/2 on the disk, so they are univalent (Noshiro-Warschawski) and
f(z)/z has no zero in the closed disk.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from weldlab import grunsky as gk
from weldlab import maps as mp
from weldlab.series import ComplexSeries, evaluate

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None,
                    database=None)


@st.composite
def univalent_polynomials(draw):
    a = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1.0),
                               min_size=5, max_size=5)))
    weight = np.sum(np.arange(2, 7) * np.abs(a))
    if weight > 0:
        a *= draw(st.floats(0.0, 0.5)) / weight
    return ComplexSeries.taylor(np.concatenate([[0.0, 1.0], a]), resolved=True)


@PROPERTY
@given(univalent_polynomials())
def test_reflecting_twice_returns_the_map(f):
    back = mp.inverted_series(mp.inverted_series(f))
    diff = np.zeros(max(f.order, back.order), dtype=complex)
    diff[:f.order] += f.coeffs
    diff[:back.order] -= back.coeffs
    assert np.abs(diff).max() <= 1e-14


@PROPERTY
@given(univalent_polynomials())
def test_reflection_is_one_over_conjugate_on_the_circle(f):
    z = np.exp(2j * np.pi * np.arange(256) / 256)
    g = mp.inverted_series(f)
    assert np.abs(evaluate(g, z) * np.conj(evaluate(f, z)) - 1.0).max() <= 1e-13


@PROPERTY
@given(univalent_polynomials())
def test_interior_block_is_exterior_block_of_reflection(f):
    # b4 of the reflection is the complex conjugate of b1 of f
    n = 16
    via_b1 = gk.potential(f, [n]).extrapolated
    via_b4 = gk.potential(mp.inverted_series(f), [n]).extrapolated
    assert abs(via_b1 - via_b4) <= 1e-14
