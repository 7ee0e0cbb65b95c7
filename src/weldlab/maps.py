"""Welding pairs: construction, normalization, and Schwarzian utilities.

A welding pair is a pair of univalent maps (f on the unit disk, g on the
exterior) sharing one Jordan curve, normalized so that f(0) = 0, f'(0) = 1
and g(infinity) = infinity. The catalog provides three families, whose
names ``cli.FAMILIES`` lists for the command line; their rows in
``FAMILIES`` here alone decide their parameters:

* ``identity``      -- f = g = id (the round circle),
* ``ellipse(c)``    -- curve with semi-axes (1+c, 1-c), whose exterior map
                       is the closed form z + c/z,
* ``fourier_bump(eps, k)`` -- curve rho(theta) = 1 + eps*cos(k*theta).

Every pair is made, gauged and checked by one constructor, ``star_pair``:
it takes the maps a family has in closed form (z and z for the circle,
z + c/z outside the ellipse) and solves the rest. One recipe makes a
missing map: Theodorsen iteration on the polar parametrization for the
interior map, and for the exterior map the reflection z -> 1/conj(z), by
series algebra, of the reflected domain's interior map. ``one_map`` makes
one side's map alone by the same recipe, gauge and check, for a route that
reads no other: a family's f or g, or the reflected curve's f.

Theodorsen's equation is solved by two-step (second-order Richardson)
fixed-point iteration with mesh continuation (solve on a coarse grid,
upsample, refine), which doubles the grid from ``START_SAMPLE_COUNT`` on
until the coefficients are resolved. For the polar smoothness bound
eps = max|rho'/rho|, derived from rho, every mode contracts by
r = eps/(1 + sqrt(1 + eps^2)) < 1 per step (0.5 for the c = 0.5 ellipse)
while the linearization holds. No bound on eps is imposed: a pair is
refused only by what its construction measures, that is the iteration
cap, the analyticity check of the coefficient extraction, the decay of
the reflected coefficients and the boundary check.

Every pair carries its curve, the star domain it was built on, in the
pair's own frame. The boundary check reads each map's trace against it
radially: |w| against rho(arg w) over m = ``BOUNDARY_SAMPLES`` FFT circle
samples w, at O(K + m log m) cost for K terms and no Horner loop, and the
trace must wind once about 0, which a map covering the curve twice does
not.

Every evaluation, derivative, reciprocal and circle sample of a series
goes through ``series`` (``evaluate_array``, ``derivative_array``,
``reciprocal_array``, ``samples_from_coeffs``).
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .series import (
    COEFF_FLOOR,
    ComplexSeries,
    Kind,
    coeffs_from_samples,
    derivative_array,
    evaluate_array,
    reciprocal_array,
    samples_from_coeffs,
)

BOUNDARY_TOL = 1e-8          # pair acceptance tolerance on the shared curve
START_SAMPLE_COUNT = 1024    # the first Theodorsen grid whose coefficients are read
MAX_SAMPLE_COUNT = 16384     # where the Theodorsen continuation stops doubling
THEODORSEN_TOL = 1e-12       # fixed-point residual that ends a mesh level
MAX_ITERATIONS = 4000        # fixed-point steps allowed on one mesh level
BOUNDARY_SAMPLES = 1024      # samples of each map that the boundary check reads
_SMOOTHNESS_GRID = 4096      # samples for the numerical smoothness bound


# ---------------------------------------------------------------------------
# star-like domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarDomain:
    """Star-like Jordan domain given by a polar radius rho(theta) > 0.

    ``order`` is the rotation order k of the domain, rho(theta + 2 pi/k)
    = rho(theta): its interior map then satisfies f(omega z) = omega f(z)
    for omega = e^(2 pi i/k), so its Taylor coefficients vanish off the
    indices 1 mod k. The curve's constructor states it (a rotation order
    is exact, and a sampled rho shows it only to roundoff); a rho that
    does not repeat to 1e-12 under the rotation is refused.

    The other fields derive from rho. ``smoothness_bound`` is max|rho'/rho|,
    estimated spectrally on a uniform grid; it sets the Theodorsen rate.
    ``symmetric`` records that rho(-theta) == rho(theta) holds bitwise on
    the same grid: the domain is then its own conjugate, so its interior
    map has real Taylor coefficients.
    """

    rho: callable = field(repr=False)
    order: int = 1
    smoothness_bound: float = field(init=False)
    symmetric: bool = field(init=False)

    def __post_init__(self):
        theta = 2.0 * np.pi * np.arange(_SMOOTHNESS_GRID) / _SMOOTHNESS_GRID
        vals = np.asarray(self.rho(theta), dtype=float)
        if vals.min() <= 0:
            raise InvalidInput("polar radius must be positive")
        if self.order < 1 or int(self.order) != self.order:
            raise InvalidInput("rotation order must be a positive integer")
        if self.order > 1:
            turned = np.asarray(self.rho(theta + 2.0 * np.pi / self.order), dtype=float)
            if np.abs(turned - vals).max() > 1e-12 * vals.max():
                raise InvalidInput(
                    f"polar radius is not {self.order}-fold symmetric")
        mirrored = np.asarray(self.rho(-theta), dtype=float)
        object.__setattr__(self, "symmetric", bool(np.all(vals == mirrored)))
        spec = np.fft.fft(np.log(vals))
        k = np.fft.fftfreq(_SMOOTHNESS_GRID, 1.0 / _SMOOTHNESS_GRID)
        dlog = np.real(np.fft.ifft(1j * k * spec))
        object.__setattr__(self, "smoothness_bound", float(np.abs(dlog).max()))


def ellipse_domain(c: float) -> StarDomain:
    """Interior of the ellipse with semi-axes (1+c, 1-c)."""
    if not 0 < c < 1:
        raise InvalidInput("ellipse parameter must satisfy 0 < c < 1")
    a, b = 1.0 + c, 1.0 - c
    mean, swing = 0.5 * (a * a + b * b), 0.5 * (b * b - a * a)

    def rho(th):
        # b^2 cos^2 + a^2 sin^2 as one cosine of 2 th
        return a * b / np.sqrt(mean + swing * np.cos(2.0 * np.asarray(th, float)))

    return StarDomain(rho=rho, order=2)


def bump_domain(eps: float, k: int) -> StarDomain:
    """Domain rho(theta) = 1 + eps*cos(k*theta)."""
    if not 0 <= eps < 1:
        raise InvalidInput("bump amplitude must satisfy 0 <= eps < 1")
    if k < 1 or int(k) != k:
        raise InvalidInput("bump frequency must be a positive integer")

    def rho(th):
        return 1.0 + eps * np.cos(k * np.asarray(th, dtype=float))

    return StarDomain(rho=rho, order=k)


def inverted_domain(domain: StarDomain) -> StarDomain:
    """The reflected domain {1/conj(w) : w outside the curve}: rho -> 1/rho,
    with the same smoothness bound, since (log 1/rho)' = -(log rho)', and
    the same rotation order."""
    return StarDomain(rho=lambda th: 1.0 / np.asarray(domain.rho(th), dtype=float),
                      order=domain.order)


# ---------------------------------------------------------------------------
# Theodorsen iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheodorsenResult:
    """Boundary correspondence phi on the final grid plus the interior map."""
    phi: np.ndarray
    series: ComplexSeries
    residual: float
    iterations: int
    sample_count: int


def _conjugate_operator(values: np.ndarray) -> np.ndarray:
    """Harmonic conjugate of a real 2pi-periodic sample vector.

    Spectral multiplier -i*sign(k) on the half-spectrum k >= 0 of an even
    count m; the mean and the Nyquist bin are zeroed.
    """
    spec = np.fft.rfft(values)
    spec *= -1j
    spec[0] = spec[-1] = 0.0
    return np.fft.irfft(spec, len(values))


def _upsample_periodic(values: np.ndarray, m2: int) -> np.ndarray:
    """Trigonometric interpolation of m samples (m even) onto m2."""
    m = len(values)
    return np.fft.irfft(np.fft.rfft(values)[:m // 2], m2) * (m2 / m)


def theodorsen_interior(domain: StarDomain) -> TheodorsenResult:
    """Interior map of a star-like domain by two-step Theodorsen iteration.

    Solves psi = K[log rho(theta + psi)] by mesh continuation from 256
    samples with the two-step rule psi <- psi + alpha (K[.] - psi) +
    beta (psi - psi_prev), beta = -r^2, alpha = 1 - r^2 and
    r = eps/(1 + sqrt(1 + eps^2)) for eps = ``domain.smoothness_bound``:
    on a Jacobian spectrum in i[-eps, eps] every mode contracts by r.
    Each mesh level restarts with psi_prev = psi and iterates until the
    residual |K[.] - psi| is <= ``THEODORSEN_TOL``, for at most
    ``MAX_ITERATIONS`` steps. From ``START_SAMPLE_COUNT`` on, a grid whose
    coefficients are not resolved is doubled, up to ``MAX_SAMPLE_COUNT``;
    the result's ``sample_count`` is the last grid.
    The returned series is rotated so f'(0) > 0 and has f(0) = 0 exactly;
    for a ``symmetric`` domain it keeps only the real parts of the
    coefficients, which f(conj z) = conj f(z) makes real: a float64 series.
    For a domain of rotation order k it keeps only the coefficients of
    index 1 mod k, which f(omega z) = omega f(z) leaves, and zeros the
    rest: the power-of-two grid is not invariant under a rotation by
    2 pi/k unless k is a power of two, so its discretization error lands
    off class, up to 3e-14 for the bump (0.3, 3).
    """
    eps = domain.smoothness_bound
    r2 = (eps / (1.0 + np.sqrt(1.0 + eps * eps))) ** 2

    mesh = 256
    psi = np.zeros(mesh)
    total_iter = 0
    residual = np.inf
    while True:
        theta = 2.0 * np.pi * np.arange(mesh) / mesh
        prev = psi
        for _ in range(MAX_ITERATIONS):
            new = _conjugate_operator(np.log(domain.rho(theta + psi)))
            residual = float(np.abs(new - psi).max())
            # psi + (1 - r2)(new - psi) - r2 (psi - prev), rearranged
            psi, prev = (1.0 - r2) * new + r2 * prev, psi
            total_iter += 1
            if residual <= THEODORSEN_TOL:
                break
        else:
            raise NumericalFailure(
                f"Theodorsen iteration did not converge on {mesh} samples: "
                f"last residual {residual:.3e} (smoothness bound "
                f"{domain.smoothness_bound:.3f})"
            )
        if mesh >= START_SAMPLE_COUNT:
            phi = theta + psi
            boundary = domain.rho(phi) * np.exp(1j * phi)
            f = coeffs_from_samples(boundary)
            if f.resolved or mesh >= MAX_SAMPLE_COUNT:
                break
        mesh *= 2
        psi = _upsample_periodic(psi, mesh)

    coeffs = np.array(f.coeffs)
    # rotation gauge: f'(0) real positive; constant term is discretization
    # noise and is pinned to 0
    if len(coeffs) < 2 or coeffs[1] == 0:
        raise NumericalFailure("degenerate interior map: f'(0) = 0")
    alpha = -np.angle(coeffs[1])
    coeffs *= np.exp(1j * alpha * np.arange(len(coeffs)))
    coeffs[1] = coeffs[1].real
    coeffs[0] = 0.0
    if domain.symmetric:
        coeffs = coeffs.real
    coeffs[(np.arange(len(coeffs)) - 1) % domain.order != 0] = 0.0
    return TheodorsenResult(phi=phi,
                            series=ComplexSeries.taylor(coeffs,
                                                        resolved=f.resolved),
                            residual=residual, iterations=total_iter,
                            sample_count=mesh)


# ---------------------------------------------------------------------------
# inversion z -> 1/conj(z) between interior and exterior maps
# ---------------------------------------------------------------------------

def inverted_series(h: ComplexSeries) -> ComplexSeries:
    """The reflected map 1/conj(h(1/conj(z))) in the other grading.

    A Taylor h = z p(z) reflects to z / conj(p)(1/z) and a Laurent
    h = z p(1/z) to z / conj(p)(z): one reciprocal of conj(p), taken to
    max(64, 2 * order) terms, doubled until its last quarter is below the
    coefficient floor and trimmed there; it is ``resolved`` when h is. No
    reciprocal is longer than ``MAX_SAMPLE_COUNT`` (or than p itself), and
    one that has not decayed there raises NumericalFailure, which names
    an unresolved h: its cut, not a zero of h(z)/z, may be what stops the
    decay. An interior map must map the disk onto the reflected domain
    itself (a rescaled map would recover a rescaled curve).
    """
    if h.kind is Kind.TAYLOR_AT_ZERO:
        if h.coeffs[0] != 0:
            raise InvalidInput("the reflected interior map needs h(0) = 0")
        p, kind = h.coeffs[1:], Kind.LAURENT_AT_INFINITY
    else:
        p, kind = h.coeffs, Kind.TAYLOR_AT_ZERO
    n = max(64, min(2 * h.order, MAX_SAMPLE_COUNT), len(p))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            r = reciprocal_array(np.pad(np.conj(p), (0, n - len(p))))
            mags = np.abs(r)
        floor = COEFF_FLOOR * mags.max()  # not finite once r overflows
        if np.isfinite(floor) and mags[3 * n // 4:].max() < floor:
            break
        if not np.isfinite(floor) or n >= MAX_SAMPLE_COUNT:
            cause = ("h(z)/z vanishes on its side of the unit circle"
                     if h.resolved else
                     f"the input map is unresolved: its {h.order} terms "
                     "are cut above the coefficient floor")
            raise NumericalFailure(
                f"reflected coefficients have not decayed in {n} terms: {cause}")
        n = min(2 * n, MAX_SAMPLE_COUNT)
    r = r[:np.nonzero(mags >= floor)[0][-1] + 1]
    if kind is Kind.TAYLOR_AT_ZERO:
        r = np.concatenate([[0.0], r])
    return ComplexSeries(kind, r, resolved=h.resolved)


# ---------------------------------------------------------------------------
# welding pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeldingPair:
    """Normalized pair: f(0) = 0, f'(0) = 1 (Taylor), g(inf) = inf (Laurent).

    ``curve`` is the shared Jordan curve, as the star domain about 0 in the
    pair's own frame that both maps trace. Every route trusts a pair:
    ``star_pair`` makes every pair and is where its curve is checked.
    """

    interior: ComplexSeries
    exterior: ComplexSeries
    curve: StarDomain
    sample_count: int
    residuals: types.MappingProxyType

    @property
    def g_prime_at_infinity(self) -> complex:
        """The leading Laurent coefficient of g, g(z) ~ g'(inf) z."""
        return complex(self.exterior.coeffs[0])


def boundary_residual(series: ComplexSeries, curve: StarDomain) -> float:
    """Largest radial gap | |w| - rho(arg w) | over ``BOUNDARY_SAMPLES``
    samples w of one map's trace on |z| = 1.

    The gap is the distance from w to one point of the curve, so it is
    never below the true distance: a good map may fail, a bad one never
    passes. The trace must also wind once about 0, its angles
    arg(w_{j+1}/w_j) summing to 2 pi; one that does not, or that has a
    sample which is not a finite number, raises NumericalFailure.
    """
    side = "interior" if series.kind is Kind.TAYLOR_AT_ZERO else "exterior"
    with np.errstate(over="ignore", invalid="ignore"):
        w = samples_from_coeffs(series, 1.0, BOUNDARY_SAMPLES)
        turns = np.angle(np.roll(w, -1) * np.conj(w)).sum() / (2 * np.pi)
        if not abs(turns - 1.0) < 0.5:
            raise NumericalFailure(f"the {side} boundary trace winds "
                                   f"{turns:.3g} times about 0, not once")
        return float(np.abs(np.abs(w) - curve.rho(np.angle(w))).max())


def _side_map(domain: StarDomain, side: str, given: ComplexSeries):
    """The raw map of ``side`` ("interior" or "exterior") of ``domain`` and
    the Theodorsen result that made it: ``given`` as it is (no result) or,
    when it is None, Theodorsen's interior map, or the interior map of the
    reflected domain, reflected back out."""
    if given is not None:
        return None, given
    inside = side == "interior"
    theo = theodorsen_interior(domain if inside else inverted_domain(domain))
    # invert the image-correct reflected map; rescaling it first would
    # scale the recovered curve away from the interior map's curve
    return theo, theo.series if inside else inverted_series(theo.series)


def _gauged(domain: StarDomain, interior: ComplexSeries):
    """The raw interior map in the gauge w -> w/f'(0), its a1 = f'(0), and
    the curve in that gauge, of radius rho(theta + arg a1)/|a1|."""
    a1 = interior.coeffs[1]
    fc = interior.coeffs / a1
    fc[0], fc[1] = 0.0, 1.0
    turn, scale = float(np.angle(a1)), float(abs(a1))
    curve = StarDomain(rho=lambda th: domain.rho(np.asarray(th, dtype=float)
                                                 + turn) / scale,
                       order=domain.order)
    return ComplexSeries.taylor(fc, resolved=interior.resolved), a1, curve


def _checked(resid: float) -> float:
    """A boundary residual within ``BOUNDARY_TOL``; one that is not, or
    is not a number, raises NumericalFailure."""
    if not resid <= BOUNDARY_TOL:
        raise NumericalFailure(f"boundary traces disagree: residual "
                               f"{resid:.3e} is not within {BOUNDARY_TOL:.1e}")
    return resid


def star_pair(domain: StarDomain, interior: ComplexSeries = None,
              exterior: ComplexSeries = None) -> WeldingPair:
    """The welding pair of a star domain, in the gauge w -> w/f'(0).

    A map given is used as it is; a missing map is made by ``_side_map``:
    Theodorsen's map of the domain, or the interior map of the reflected
    domain, reflected back out. The raw interior map must fix 0, the
    centre of ``domain``; the gauge is then a scaling and a rotation, so
    the pair satisfies f(0) = 0 and f'(0) = 1 exactly, g'(inf) is the
    rescaled Laurent leading coefficient, and the curve stays star-shaped
    about 0 with radius rho(theta + arg a1)/|a1| for a1 = f'(0). Both
    boundary traces must lie on that curve to ``BOUNDARY_TOL``; a residual
    that is not a number fails too. The pair records the largest sample
    count of its solves (``START_SAMPLE_COUNT`` without one) and, beside
    the boundary residual, the largest Theodorsen residual when it solved;
    the check reads neither, and the residuals are read-only. It is
    refused (NumericalFailure) only by a step that fails: a solve, the
    reflection or the boundary check.
    """
    theo_f, interior = _side_map(domain, "interior", interior)
    theo_g, exterior = _side_map(domain, "exterior", exterior)
    theos = [theo for theo in (theo_f, theo_g) if theo is not None]
    if interior.kind is not Kind.TAYLOR_AT_ZERO:
        raise InvalidInput("raw interior map must be a Taylor series")
    if exterior.kind is not Kind.LAURENT_AT_INFINITY:
        raise InvalidInput("raw exterior map must be a Laurent series")
    if interior.coeffs[0] != 0:
        raise InvalidInput("raw_f(0) != 0: f does not fix the curve's centre")
    if interior.order < 2 or interior.coeffs[1] == 0:
        raise InvalidInput("raw_f'(0) = 0: not univalent")
    if exterior.coeffs[0] == 0:
        raise InvalidInput("raw_g'(infinity) = 0: g does not fix infinity")

    interior, a1, curve = _gauged(domain, interior)
    exterior = ComplexSeries.laurent(exterior.coeffs / a1,
                                     resolved=exterior.resolved)
    residuals = {"theodorsen": max(t.residual for t in theos)} if theos else {}
    residuals["boundary"] = _checked(
        max(boundary_residual(h, curve) for h in (interior, exterior)))
    return WeldingPair(interior=interior, exterior=exterior, curve=curve,
                       sample_count=max((t.sample_count for t in theos),
                                        default=START_SAMPLE_COUNT),
                       residuals=types.MappingProxyType(residuals))


def one_map(domain: StarDomain, side: str, given: ComplexSeries = None):
    """The map of one ``side`` ("interior" or "exterior") of ``domain``
    alone, ``given`` or solved, by the recipe and check of its pair: the
    interior map is the pair's, checked against the pair's curve, and the
    exterior map the pair's up to the scale f'(0) (B4 is invariant under
    g -> a g + b), checked against ``domain``."""
    h = _side_map(domain, side, given)[1]
    if side == "interior":
        h, _, domain = _gauged(domain, h)
    _checked(boundary_residual(h, domain))
    return h


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# each family: its parameter names, and the function of their values that
# gives its curve and the maps it has in closed form (None: solved). The
# ellipse's exterior map is z + c/z, whose trailing zeros state that the
# higher Laurent coefficients vanish identically
FAMILIES = {
    "identity": ((), lambda: (bump_domain(0.0, 1),
                              ComplexSeries.identity(Kind.TAYLOR_AT_ZERO, 8),
                              ComplexSeries.identity(Kind.LAURENT_AT_INFINITY, 8))),
    "ellipse": (("c",), lambda c: (ellipse_domain(c), None, ComplexSeries.laurent(
        [1.0, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0], resolved=True))),
    "fourier_bump": (("eps", "k"), lambda eps, k: (bump_domain(eps, k), None, None)),
}


@functools.lru_cache(maxsize=64)
def _catalog_cached(family: str, param_items: tuple, side: str):
    """The family's pair, or with ``side`` that side's ``one_map``."""
    if family not in FAMILIES:
        raise InvalidInput(f"unknown family: {family!r}")
    names, build = FAMILIES[family]
    params = dict(param_items)
    missing = [name for name in names if name not in params]
    if missing:
        raise InvalidInput(f"{family} needs parameter "
                           + ", ".join(map(repr, missing)))
    extra = sorted(set(params) - set(names))
    if extra:
        raise InvalidInput(f"{family} takes no parameter "
                           + ", ".join(map(repr, extra)))
    domain, interior, exterior = build(*(params[name] for name in names))
    if side is None:
        return star_pair(domain, interior, exterior)
    return one_map(domain, side, interior if side == "interior" else exterior)


def catalog(family: str, **params) -> WeldingPair:
    """Construct a cataloged welding pair.

    Families: ``identity``, ``ellipse`` (parameter ``c`` in (0,1)),
    ``fourier_bump`` (parameters ``eps`` in [0,1), integer ``k`` >= 1), as
    ``FAMILIES`` lists them; a missing parameter, or one the family does
    not read, is InvalidInput. Every family is one ``star_pair`` call on
    its curve and the maps it has in closed form, so a domain is refused
    (NumericalFailure) only when its construction fails; no smoothness
    bound gates it. The Theodorsen continuation doubles the sample count
    from ``START_SAMPLE_COUNT`` (up to ``MAX_SAMPLE_COUNT``) until the
    coefficients are resolved; a map still unresolved there is kept and
    marked unresolved. The pair holds its maps, their curve and how they
    were resolved, not the family or its parameters. Pairs are cached, and
    each call returns the cached pair itself, whose residuals are
    read-only.
    """
    return _catalog_cached(family, tuple(sorted(params.items())), None)


def catalog_map(family: str, side: str, **params) -> ComplexSeries:
    """A cataloged family's ``one_map`` of ``side`` (a value of
    ``grunsky.ROUTES``), cached with the pairs."""
    return _catalog_cached(family, tuple(sorted(params.items())), side)


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------

def schwarzian(h: ComplexSeries, z):
    """Schwarzian derivative S(h) = (h''/h')' - (h''/h')^2 / 2 at z of a
    Taylor series h, by series arithmetic. Moebius maps give 0; h'(z) = 0
    is rejected.
    """
    if h.kind is not Kind.TAYLOR_AT_ZERO:
        raise InvalidInput("the Schwarzian takes a Taylor series")
    z = np.asarray(z, dtype=complex)
    d1 = derivative_array(h.coeffs)
    d2 = derivative_array(d1)
    h1 = evaluate_array(d1, z)
    if np.any(np.abs(h1) < 1e-13):
        raise NumericalFailure("Schwarzian evaluation at a critical point")
    h2 = evaluate_array(d2, z)
    h3 = evaluate_array(derivative_array(d2), z)
    return h3 / h1 - 1.5 * (h2 / h1) ** 2
