"""Quadrature for the universal Liouville action and the identity with the
determinant potential.

The action of a normalized pair is

    S1 = int_disk |f''/f'|^2 dA + int_exterior |g''/g'|^2 dA
         - 4 pi log|g'(infinity)|,

computed on a Gauss-Legendre (radial) x uniform (angular) product grid.
The exterior integral is pulled back to the disk by u = 1/z with Jacobian
|u|^-4; the integrand vanishes like |u|^2 at the origin. On each radial
node the series are evaluated at the uniform angles by folding their
coefficients and one FFT (``series.evaluate_on_circles``); the angular rule
is still the sampled trapezoidal rule.

The central check is S1 = -12 pi S2_univ with
S2_univ = log det(I - BB*) from the operator module; ``identity_report``
carries both operator routes and both residual forms.

``s1_coefficient_route`` evaluates the same two integrals exactly in the
angular direction via Parseval (the angular integral of |h|^2 on a circle
is the weighted coefficient sum), leaving a closed-form radial integral.
It shares no angular sampling with the grid, so it stays the independent
oracle for the grid quadrature in the tests and for strongly crowded
pairs whose angular spectrum outruns the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInput, NumericalFailure
from .grunsky import ConvergenceReport, _report_from_estimates, build_b1, build_b4, logdet_potential
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

    @cached_property
    def nodes(self):
        """Radial nodes, radial weights and angles, computed once per grid
        and shared read-only by every integral on it."""
        x, w = leggauss(self.n_r)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        for a in (r, wr, theta):
            a.flags.writeable = False
        return r, wr, theta

    def area_check(self) -> float:
        """Integral of 1 over the disk: must equal pi to roundoff."""
        r, wr, theta = self.nodes
        return float((wr * r).sum() * 2.0 * np.pi)


def _interior_integral(pair: WeldingPair, grid: QuadratureGrid) -> float:
    r, wr, _ = grid.nodes
    a = pair.interior.coeffs
    d1 = derivative_array(a)
    d2 = derivative_array(d1)
    num = evaluate_on_circles(d2, r, grid.n_theta)
    den = evaluate_on_circles(d1, r, grid.n_theta)
    vals = np.abs(num / den) ** 2
    if vals.max() > INTEGRAND_CAP:
        raise NumericalFailure(
            "interior integrand exceeds the blow-up cap near the boundary: "
            "curve appears to fall outside the finite-action class")
    return float((vals * r[:, None]).sum(axis=1).dot(wr) * (2.0 * np.pi / grid.n_theta))


def _exterior_ratio_at_u(pair: WeldingPair, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """g''/g' evaluated at z = 1/u on the grid nodes u = r e^(i theta) (one
    row per radius r, uniform angles), via the u-expansion of g.

    With G(u) = g(1/u) = gam0/u + gam1 + gam2 u + ..., one has
    g'(z) = -u^2 G'(u) and g''(z) = u^3 (2 G'(u) + u G''(u)), so
    g''/g'(1/u) = -u (2 G' + u G'')/G'.
    """
    gam = pair.exterior.coeffs
    k = np.arange(len(gam))
    # G'(u) = -gam0 u^-2 + P(u), P = sum_{k>=2} (k-1) gam_k u^(k-2)
    p_coeffs = (k[2:] - 1) * gam[2:] if len(gam) > 2 else np.zeros(1, complex)
    pp_coeffs = derivative_array(p_coeffs) if len(p_coeffs) > 1 else np.zeros(1, complex)
    p = evaluate_on_circles(p_coeffs, r, u.shape[1])
    pp = evaluate_on_circles(pp_coeffs, r, u.shape[1])
    gp = -gam[0] / u ** 2 + p
    gpp = 2.0 * gam[0] / u ** 3 + pp
    return -u * (2.0 * gp + u * gpp) / gp


def _exterior_integral(pair: WeldingPair, grid: QuadratureGrid) -> float:
    r, wr, theta = grid.nodes
    u = r[:, None] * np.exp(1j * theta[None, :])
    ratio = _exterior_ratio_at_u(pair, r, u)
    vals = np.abs(ratio) ** 2 * np.abs(u) ** (-4)
    if vals.max() > INTEGRAND_CAP:
        raise NumericalFailure(
            "exterior integrand exceeds the blow-up cap near the boundary: "
            "curve appears to fall outside the finite-action class")
    return float((vals * r[:, None]).sum(axis=1).dot(wr) * (2.0 * np.pi / grid.n_theta))


def s1_value(pair: WeldingPair, grid: QuadratureGrid) -> float:
    """The action on a single grid."""
    log_term = -4.0 * np.pi * np.log(abs(pair.g_prime_at_infinity))
    return _interior_integral(pair, grid) + _exterior_integral(pair, grid) + log_term


def s1(pair: WeldingPair, grids=DEFAULT_GRIDS) -> ConvergenceReport:
    """Action with a convergence report over grid refinements.

    ``orders`` in the report hold the angular counts of the grids.
    """
    estimates = []
    orders = []
    for n_r, n_theta in grids:
        estimates.append(s1_value(pair, QuadratureGrid(n_r, n_theta)))
        orders.append(n_theta)
    return _report_from_estimates(orders, estimates)


def s1_coefficient_route(pair: WeldingPair) -> float:
    """Angularly-exact evaluation through Parseval on the coefficient data.

    int_disk |h|^2 dA = pi * sum_j |h_j|^2 / (j+1) for h = sum h_j z^j, and
    the same on the exterior side in the u = 1/z chart.
    """
    a = pair.interior.coeffs
    d1 = derivative_array(a).astype(complex)
    d2 = derivative_array(d1)
    q = np.convolve(d2, reciprocal_array(d1))[:max(len(d1), 1)]
    j = np.arange(len(q), dtype=float)
    interior = np.pi * float(np.sum(np.abs(q) ** 2 / (j + 1.0)))

    gam = pair.exterior.coeffs.astype(complex)
    # g''/g'(1/u) = -u (2 P + u P') / (-gam0/u^2 + P) with P as above; as a
    # power series in u: numerator -u^3 (2 P + u P'), denominator
    # -gam0 + u^2 P: ratio = u^3 (2 P + u P') / (gam0 - u^2 P)
    if len(gam) > 2:
        k = np.arange(len(gam))
        p = ((k[2:] - 1) * gam[2:]).astype(complex)
    else:
        p = np.zeros(1, complex)
    # the ratio decays at the curve's own geometric rate, which for short
    # closed-form expansions extends far beyond the input length
    n = max(len(gam) + 4, 512)
    num = np.zeros(n, complex)
    num[3:3 + len(p)] = 2.0 * p[:max(n - 3, 0)]
    dp = derivative_array(p)
    num[4:4 + len(dp)] += dp[:max(n - 4, 0)]
    den = np.zeros(n, complex)
    den[0] = gam[0]
    den[2:2 + len(p)] -= p[:max(n - 2, 0)]
    ratio = np.convolve(num, reciprocal_array(den))[:n]
    # exterior integral in u: int |ratio|^2 |u|^-4 dA; ratio = O(u^3), so
    # termwise int |u|^(2j-4) dA = 2 pi / (2j - 2) for j >= 2
    j = np.arange(len(ratio), dtype=float)
    mask = j >= 2
    exterior = float(np.sum(np.abs(ratio[mask]) ** 2 * np.pi / (j[mask] - 1.0)))

    log_term = -4.0 * np.pi * np.log(abs(pair.g_prime_at_infinity))
    return interior + exterior + log_term


# ---------------------------------------------------------------------------
# identity and classical-action reports
# ---------------------------------------------------------------------------

def identity_report(pair: WeldingPair, grids=DEFAULT_GRIDS, orders=(16, 32, 64)) -> dict:
    """Everything needed to check S1 = -12 pi S2_univ for one pair."""
    s1_rep = s1(pair, grids)
    n = max(orders)
    b1_rep = logdet_potential(build_b1(pair, n), orders)
    b4_rep = logdet_potential(build_b4(pair, n), orders)
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


def s_cl_report(s2_dg: float, genus: int) -> dict:
    """Classical action from the determinant potential and the genus bound.

    S_cl = -12 pi s2_dg + 8 pi (2g - 2); the bound 8 pi (2g - 2) is attained
    exactly at s2_dg = 0 (the group point).
    """
    if genus < 2 or int(genus) != genus:
        raise InvalidInput("genus must be an integer >= 2")
    if s2_dg < -1e-12:
        raise InvalidInput(
            f"s2_dg = {s2_dg} is negative beyond tolerance; the regularized "
            "trace is nonnegative, so an upstream computation is broken")
    s2_dg = max(float(s2_dg), 0.0)
    bound = 8.0 * np.pi * (2 * genus - 2)
    s_cl = -12.0 * np.pi * s2_dg + bound
    return {
        "genus": int(genus),
        "s2_dg": s2_dg,
        "S_cl": s_cl,
        "bound": bound,
        "slack": bound - s_cl,
        "is_fuchsian_point": bool(s2_dg <= 1e-12),
    }
