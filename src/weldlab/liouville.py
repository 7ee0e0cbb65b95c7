"""Quadrature for the universal Liouville action and the identity with the
determinant potential.

The action of a normalized pair is

    S1 = int_disk |f''/f'|^2 dA + int_exterior |g''/g'|^2 dA
         - 4 pi log|g'(infinity)|.

Both integrals have the same form (Takhtajan-Teo, Mem. AMS 183, 2006):
each side is one triple (num, den, s) of Taylor arrays and a power, and
contributes int_disk |num/den|^2 |z|^(2s) dA,

    interior: (f'', f', 0),
    exterior: (2P + uP', gam0 - u^2 P, 1),  P = sum_{k>=2} (k-1) gam_k u^(k-2),

the exterior pulled back to the disk by u = 1/z (Jacobian |u|^-4) from
g(1/u) = gam0/u + gam1 + gam2 u + .... ``s1_value`` integrates each triple
on a Gauss-Legendre (radial) x uniform (angular) product grid. The
radial rule is Newton on the Legendre three-term recurrence
(``_gauss_legendre``), O(n_r) memory and no eigensolve: against numpy's
companion-matrix ``leggauss`` its weights meet the Christoffel sum
1/sum_k (k + 1/2) P_k(x)^2 to 9e-13 rather than 2.1e-11 at n_r = 256, and
it takes 74 ms rather than 0.9 s at n_r = 2048. On each
radial node num and den are evaluated at the uniform angles by folding
their coefficients and one FFT (``series.evaluate_on_circles``); the
angular rule is the sampled trapezoidal rule. The grid is taken in bands
of consecutive circles, each array of a band at most ``_BAND`` entries
(16 circles of 512 points), so the quadrature holds no n_r x n_theta
array: its traced peak on the (256, 2048) grid of the c = 0.5 ellipse is
0.7 MiB, against 32 MiB for the whole grid at once. Each circle's angular
sum is the same sum in the same order, so the value is bitwise that of
the whole-grid evaluation.

The central check is S1 = -12 pi S2_univ with
S2_univ = log det(I - BB*) from the operator module; ``identity_report``
carries both operator routes and both residual forms.

``s1_coefficient_route`` integrates the same triples exactly in the
angular direction via Parseval (the angular integral of |q|^2 on a circle
is the weighted coefficient sum of q = num/den), leaving a closed-form
radial integral. It shares no angular sampling with the grid, so it stays
the independent oracle for the grid quadrature in the tests and for
strongly crowded pairs whose angular spectrum outruns the grid.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .classical import s_cl_report  # noqa: F401  (callers of liouville read it here)
from .errors import InvalidInput, NumericalFailure
from .grunsky import ConvergenceReport, build_b1, build_b4, logdet_potential
from .maps import WeldingPair
from .series import derivative_array, evaluate_on_circles, reciprocal_array

DEFAULT_GRIDS = ((64, 128), (128, 256), (256, 512))
INTEGRAND_CAP = 1e8            # blow-up guard near |z| = 1
_BAND = 1 << 13                # entries of each array of one band of circles


@dataclass(frozen=True)
class QuadratureGrid:
    """Product rule: Gauss-Legendre in r on (0,1), uniform in the angle."""

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 2 or self.n_theta < 4:
            raise InvalidInput("grid too small")

    @property
    def nodes(self):
        """Radial nodes and weights: ``_gauss_legendre(n_r)`` (Newton on
        the Legendre recurrence, no eigensolve) mapped from [-1, 1] to
        (0, 1). The n_theta angles are uniform, 2 pi j / n_theta."""
        x, w = _gauss_legendre(self.n_r)
        return 0.5 * (x + 1.0), 0.5 * w


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1] for n >= 2.

    Newton on the three-term recurrence (N. Hale and A. Townsend, SIAM J.
    Sci. Comput. 35, 2013), for the nodes x >= 0 at once: from Tricomi's
    guesses cos(theta_k) (1 - 1/(8n^2) + 1/(8n^3)), theta_k = pi (4k-1)/(4n+2),
    four Newton steps in the angle, with P_n and P_(n-1) by the recurrence.
    The angle is phi = pi/2 - theta, x = sin(phi), so that odd n's middle
    node starts at phi = 0, where the recurrence gives P_n(0) = 0 exactly,
    and stays there. The weight 2 / (sin(theta) P_n'(x))^2 takes the
    derivative of the last step; the nodes x < 0 are the mirror image, so
    x = -x[::-1] and w = w[::-1] hold bit for bit.
    """
    j = np.arange(1 - n % 2, n, 2)          # theta_k = pi/2 - pi j / (2n + 1)
    phi = np.arcsin((1.0 - 1.0 / (8.0 * n ** 2) + 1.0 / (8.0 * n ** 3))
                    * np.sin(np.pi * j / (2 * n + 1)))
    for _ in range(4):
        x = np.sin(phi)
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / np.cos(phi)     # sin(theta) P_n'(x)
        phi -= p1 / dp
    x, w = np.sin(phi), 2.0 / dp ** 2
    half = slice(n % 2, None)               # odd n mirrors all but x = 0
    return (np.concatenate([-x[half][::-1], x]),
            np.concatenate([w[half][::-1], w]))


def _action_sides(pair: WeldingPair):
    """The (num, den, s) triples of the interior and exterior integrals.

    Outside, G(u) = g(1/u) has G' = -gam0 u^-2 + P, so
    g''/g'(1/u) = -u (2G' + uG'')/G' = u^3 (2P + uP') / (gam0 - u^2 P); the
    Jacobian |u|^-4 leaves the weight |u|^2, hence s = 1.
    """
    d1 = derivative_array(pair.interior.coeffs)
    gam = pair.exterior.coeffs
    p = np.arange(1, len(gam) - 1) * gam[2:] if len(gam) > 2 else np.zeros(1, gam.dtype)
    num = (np.arange(len(p)) + 2.0) * p
    den = np.concatenate([gam[:1], [0.0], -p])
    return ((derivative_array(d1), d1, 0), (num, den, 1))


def _log_term(pair: WeldingPair) -> float:
    return -4.0 * np.pi * np.log(abs(pair.g_prime_at_infinity))


def s1_value(pair: WeldingPair, grid: QuadratureGrid) -> float:
    """The action on a single grid.

    Each side is evaluated, weighted and checked against ``INTEGRAND_CAP``
    one band of ``_BAND // n_theta`` circles at a time, and the angular
    sums of its circles are gathered for the one radial dot product.
    """
    r, wr = grid.nodes
    m = grid.n_theta
    step = max(1, _BAND // m)
    integrals = []
    for num, den, s in _action_sides(pair):
        sums = np.empty(len(r))
        for lo in range(0, len(r), step):
            band = r[lo:lo + step]
            vals = np.abs(evaluate_on_circles(num, band, m)
                          / evaluate_on_circles(den, band, m)) ** 2
            vals *= band[:, None] ** (2 * s)
            if not vals.max() <= INTEGRAND_CAP:      # NaN fails it too
                raise NumericalFailure(
                    "integrand exceeds the blow-up cap near the boundary: "
                    "curve appears to fall outside the finite-action class")
            sums[lo:lo + step] = (vals * band[:, None]).sum(axis=1)
        integrals.append(float(sums.dot(wr) * (2.0 * np.pi / m)))
    return sum(integrals) + _log_term(pair)


def s1(pair: WeldingPair, grids=DEFAULT_GRIDS) -> ConvergenceReport:
    """Action with a convergence report over grid refinements.

    ``orders`` in the report hold the angular counts of the grids.
    """
    estimates = []
    orders = []
    for n_r, n_theta in grids:
        estimates.append(s1_value(pair, QuadratureGrid(n_r, n_theta)))
        orders.append(n_theta)
    return ConvergenceReport(orders, estimates)


def s1_coefficient_route(pair: WeldingPair) -> float:
    """Angularly-exact evaluation through Parseval on the coefficient data.

    int_disk |q|^2 |z|^(2s) dA = pi * sum_j |q_j|^2 / (j+1+s) for
    q = num/den = sum q_j z^j. The quotient decays at the curve's own
    geometric rate, which for short closed-form expansions extends far
    beyond the input length, so it is taken to max(len(den) + 4, 512) terms.
    """
    integrals = []
    for num, den, s in _action_sides(pair):
        n = max(len(den) + 4, 512)
        padded = np.zeros(n, den.dtype)
        padded[:len(den)] = den
        q = np.convolve(num, reciprocal_array(padded))[:n]
        j = np.arange(n, dtype=float)
        integrals.append(np.pi * float(np.sum(np.abs(q) ** 2 / (j + 1.0 + s))))
    return sum(integrals) + _log_term(pair)


# ---------------------------------------------------------------------------
# identity report
# ---------------------------------------------------------------------------

def identity_report(pair: WeldingPair, grids=DEFAULT_GRIDS, orders=(16, 32, 64),
                    stage=contextlib.nullcontext) -> dict:
    """Everything needed to check S1 = -12 pi S2_univ for one pair.

    ``stage(name)`` is a context manager entered around the action
    quadrature, the two block builds and the two determinants, under the
    names "quadrature", "blocks" and "determinant"; the CLI passes its timer.
    """
    with stage("quadrature"):
        s1_rep = s1(pair, grids)
    n = max(orders)
    with stage("blocks"):
        b1, b4 = build_b1(pair, n), build_b4(pair, n)
    with stage("determinant"):
        b1_rep, b4_rep = logdet_potential(b1, orders), logdet_potential(b4, orders)
    s1_val = s1_rep.extrapolated
    via_b1 = b1_rep.extrapolated
    via_b4 = b4_rep.extrapolated
    resid = s1_val + 12.0 * np.pi * via_b1
    resid_b4 = s1_val + 12.0 * np.pi * via_b4
    scale = max(1.0, abs(s1_val))
    return {
        "S1": s1_val,
        "S1_report": s1_rep.to_dict(),
        "S2_univ_via_B1": via_b1,
        "S2_univ_via_B4": via_b4,
        "S2_dg": -via_b1,
        "residual_identity": resid,
        "residual_identity_relative": abs(resid) / scale,
        "residual_identity_via_B4": resid_b4,
        "residual_identity_via_B4_relative": abs(resid_b4) / scale,
        "residual_operators": abs(via_b1 - via_b4),
        "grids": [list(g) for g in grids],
        "orders": list(orders),
    }
