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
on a Gauss-Legendre (radial) x uniform (angular) product grid. On each
radial node num and den are evaluated at the uniform angles by folding
their coefficients and one FFT (``series.evaluate_on_circles``); the
angular rule is the sampled trapezoidal rule.

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
        """Radial nodes, radial weights and angles."""
        # imported here, so a command that builds no grid (scl) does not
        # load numpy.polynomial
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(self.n_r)
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        return 0.5 * (x + 1.0), 0.5 * w, theta


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
    """The action on a single grid."""
    r, wr, _ = grid.nodes
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
        "family": pair.family_tag,
        "params": pair.params,
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
