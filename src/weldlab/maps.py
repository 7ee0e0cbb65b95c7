"""Welding pairs: construction, normalization, and Schwarzian utilities.

A welding pair is a pair of univalent maps (f on the unit disk, g on the
exterior) sharing one Jordan curve, normalized so that f(0) = 0, f'(0) = 1
and g(infinity) = infinity. The catalog provides three families, with
the parameters ``FAMILY_PARAMS`` names:

* ``identity``      -- f = g = id (the round circle),
* ``ellipse(c)``    -- curve with semi-axes (1+c, 1-c); the exterior map is
                       the closed form z + c/z, the interior map comes from
                       Theodorsen iteration on the polar parametrization,
* ``fourier_bump(eps, k)`` -- curve rho(theta) = 1 + eps*cos(k*theta); the
                       interior map comes from Theodorsen, the exterior map
                       is the reflection z -> 1/conj(z), by series algebra,
                       of the interior map of the reflected domain.

Theodorsen's equation is solved by damped fixed-point iteration with mesh
continuation (solve on a coarse grid, upsample, refine), which doubles the
grid from ``START_SAMPLE_COUNT`` on until the coefficients are resolved.
For polar smoothness bound max|rho'/rho| < 1, derived from rho, the
undamped/0.8-damped iteration is the classical convergent scheme; above 1
convergence is no longer guaranteed and a stronger damping of 0.4 is used,
with the iteration cap as the safety net.
The boundary of every cataloged pair is cross-checked by a point-to-curve
Newton distance between the two parametrizations, at O(K + L log L) cost
for K terms: its samples are FFT circle sums and its Newton steps read the
FFT-tabulated unit-circle jets, so no Horner loop runs over the series.

Every evaluation, derivative, reciprocal and circle sample of a series
goes through ``series`` (``evaluate_array``, ``unit_circle_jets``,
``derivative_array``, ``reciprocal_array``, ``samples_from_coeffs``);
Moebius maps are plain 2x2 matrices handled by ``fuchsian.apply_mobius``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
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
    unit_circle_jets,
)

BOUNDARY_TOL = 1e-8          # pair acceptance tolerance on the shared curve
START_SAMPLE_COUNT = 1024    # the first Theodorsen grid whose coefficients are read
MAX_SAMPLE_COUNT = 16384     # where the Theodorsen continuation stops doubling
THEODORSEN_TOL = 1e-12       # fixed-point residual that ends a mesh level
MAX_ITERATIONS = 4000        # fixed-point steps allowed on one mesh level
BOUNDARY_SAMPLES = 1024      # samples of each map that the boundary check reads
_SMOOTHNESS_GRID = 4096      # samples for the numerical smoothness bound
_CURVE_SAMPLES = 4096        # curve samples of the nearest-sample start
_START_STRIDE = 16           # the start scans every 16th sample, then +-16
_START_BLOCK = 64            # points per start block: 256 KB distance arrays
_NEWTON_STEPS = 6            # projection steps after the start


# ---------------------------------------------------------------------------
# star-like domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarDomain:
    """Star-like Jordan domain given by a polar radius rho(theta) > 0.

    The other fields derive from rho. ``smoothness_bound`` is max|rho'/rho|,
    estimated spectrally on a uniform grid; it sets the Theodorsen damping.
    ``symmetric`` records that rho(-theta) == rho(theta) holds bitwise on
    the same grid: the domain is then its own conjugate, so its interior
    map has real Taylor coefficients.
    """

    rho: callable = field(repr=False)
    smoothness_bound: float = field(init=False)
    symmetric: bool = field(init=False)

    def __post_init__(self):
        theta = 2.0 * np.pi * np.arange(_SMOOTHNESS_GRID) / _SMOOTHNESS_GRID
        vals = np.asarray(self.rho(theta), dtype=float)
        if vals.min() <= 0:
            raise InvalidInput("polar radius must be positive")
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

    def rho(th):
        th = np.asarray(th, dtype=float)
        return a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)

    return StarDomain(rho=rho)


def bump_domain(eps: float, k: int) -> StarDomain:
    """Domain rho(theta) = 1 + eps*cos(k*theta)."""
    if not 0 <= eps < 1:
        raise InvalidInput("bump amplitude must satisfy 0 <= eps < 1")
    if k < 1 or int(k) != k:
        raise InvalidInput("bump frequency must be a positive integer")

    def rho(th):
        return 1.0 + eps * np.cos(k * np.asarray(th, dtype=float))

    return StarDomain(rho=rho)


def inverted_domain(domain: StarDomain) -> StarDomain:
    """The reflected domain {1/conj(w) : w outside the curve}: rho -> 1/rho,
    with the same smoothness bound, since (log 1/rho)' = -(log rho)'."""
    return StarDomain(rho=lambda th: 1.0 / np.asarray(domain.rho(th), dtype=float))


def domain_from_samples(values) -> StarDomain:
    """Star domain from uniform radius samples, evaluated anywhere by
    trigonometric interpolation.

    Samples that are bitwise even, values[j] == values[-j mod m], have a
    real spectrum: its imaginary part is rounding, which would make the
    interpolant odd at roundoff, so only the real part is kept. The
    interpolant is then bitwise even and the domain ``symmetric``.
    """
    vals = np.asarray(values, dtype=float)
    m = len(vals)
    if m < 8 or (m & (m - 1)) != 0:
        raise InvalidInput("need a power-of-two sample count >= 8")
    if vals.min() <= 0:
        raise InvalidInput("polar radius must be positive")
    spec = np.fft.rfft(vals) / m
    if np.array_equal(vals[1:], vals[:0:-1]):
        spec = spec.real
    k = np.arange(len(spec))

    def rho(th):
        th = np.asarray(th, dtype=float)
        phases = np.exp(1j * np.outer(th, k))
        out = np.real(phases @ (2.0 * spec)) - spec[0].real
        if m % 2 == 0:
            out -= np.real(phases[:, -1] * spec[-1])
        return out.reshape(np.shape(th))

    return StarDomain(rho=rho)


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


def _damping_for(bound: float) -> float:
    """Damping of the fixed-point step for polar smoothness bound ``bound``;
    from 1 on the classical criterion no longer guarantees convergence, so
    the damping is strong and the iteration cap is the safety net."""
    if bound <= 0.5:
        return 1.0
    if bound < 1.0:
        return 0.8
    return 0.4


def theodorsen_interior(domain: StarDomain) -> TheodorsenResult:
    """Interior map of a star-like domain by damped Theodorsen iteration.

    Solves phi(theta) = theta + K[log rho(phi(.))](theta) by mesh
    continuation from 256 samples, damped by
    ``_damping_for(domain.smoothness_bound)``; each mesh level iterates
    until the residual is <= ``THEODORSEN_TOL``, for at most
    ``MAX_ITERATIONS`` steps. From ``START_SAMPLE_COUNT`` on, a grid whose
    coefficients are not resolved is doubled, up to ``MAX_SAMPLE_COUNT``;
    the result's ``sample_count`` is the last grid.
    The returned series is rotated so f'(0) > 0 and has f(0) = 0 exactly;
    for a ``symmetric`` domain it keeps only the real parts of the
    coefficients, which f(conj z) = conj f(z) makes real: a float64 series.
    """
    damping = _damping_for(domain.smoothness_bound)

    mesh = 256
    psi = np.zeros(mesh)
    total_iter = 0
    residual = np.inf
    while True:
        theta = 2.0 * np.pi * np.arange(mesh) / mesh
        for _ in range(MAX_ITERATIONS):
            new = _conjugate_operator(np.log(domain.rho(theta + psi)))
            residual = float(np.abs(new - psi).max())
            psi = (1.0 - damping) * psi + damping * new
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
    max(64, 2 * order) terms, doubled (up to ``MAX_SAMPLE_COUNT``) until its
    last quarter is below the coefficient floor and trimmed there; it is
    ``resolved`` when h is. An interior map must map the disk onto the
    reflected domain itself (a rescaled map would recover a rescaled curve).
    """
    if h.kind is Kind.TAYLOR_AT_ZERO:
        if h.coeffs[0] != 0:
            raise InvalidInput("the reflected interior map needs h(0) = 0")
        p, kind = h.coeffs[1:], Kind.LAURENT_AT_INFINITY
    else:
        p, kind = h.coeffs, Kind.TAYLOR_AT_ZERO
    n = max(64, 2 * h.order)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            r = reciprocal_array(np.pad(np.conj(p), (0, n - len(p))))
            mags = np.abs(r)
        floor = COEFF_FLOOR * mags.max()  # not finite once r overflows
        if np.isfinite(floor) and mags[3 * n // 4:].max() < floor:
            break
        if not np.isfinite(floor) or n >= MAX_SAMPLE_COUNT:
            raise NumericalFailure(
                f"reflected coefficients have not decayed in {n} terms: "
                "h(z)/z vanishes on its side of the unit circle")
        n *= 2
    r = r[:np.nonzero(mags >= floor)[0][-1] + 1]
    if kind is Kind.TAYLOR_AT_ZERO:
        r = np.concatenate([[0.0], r])
    return ComplexSeries(kind, r, resolved=h.resolved)


# ---------------------------------------------------------------------------
# welding pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeldingPair:
    """Normalized pair: f(0) = 0, f'(0) = 1 (Taylor), g(inf) = inf (Laurent)."""

    interior: ComplexSeries
    exterior: ComplexSeries
    family_tag: str
    params: dict = field(default_factory=dict)
    sample_count: int = 0
    residuals: dict = field(default_factory=dict)

    @property
    def g_prime_at_infinity(self) -> complex:
        """The leading Laurent coefficient of g, g(z) ~ g'(inf) z."""
        return complex(self.exterior.coeffs[0])


def distance_to_curve(points: np.ndarray, curve: ComplexSeries) -> np.ndarray:
    """Distance from each point to the image curve of |z| = 1 under ``curve``.

    Starts each point at its nearest of 4096 uniform curve samples (the
    nearest of every 16th sample, then of the 33 around it) and takes six
    Newton projection steps on the parameter t through
    ``unit_circle_jets``; accurate to machine precision for analytic
    curves, which is what makes sub-1e-8 boundary tolerances testable at
    all. For m points and K terms it costs O(K + L log L) to tabulate the
    curve on L > 2K points, O(m) per step, and no m x 4096 array: the start
    runs over blocks of 64 points.

    Every distance returned is |curve(t) - p| for some t, never below the
    true distance: a poor start can only overstate a distance, so it can
    fail a good pair but never pass a bad one.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    samples = samples_from_coeffs(curve, 1.0, _CURVE_SAMPLES)
    offsets = np.arange(-_START_STRIDE, _START_STRIDE + 1)
    start = np.empty(len(pts), dtype=np.int64)
    for lo in range(0, len(pts), _START_BLOCK):
        p = pts[lo:lo + _START_BLOCK, None]
        near = _START_STRIDE * np.abs(p - samples[::_START_STRIDE]).argmin(axis=1)
        window = (near[:, None] + offsets) % _CURVE_SAMPLES
        best = np.abs(p - samples[window]).argmin(axis=1)
        start[lo:lo + _START_BLOCK] = window[np.arange(len(p)), best]
    t = 2.0 * np.pi * start / _CURVE_SAMPLES

    at = unit_circle_jets(curve)
    for _ in range(_NEWTON_STEPS):
        ct, dct = at(t)
        grad = np.real((ct - pts) * np.conj(dct))
        hess = np.abs(dct) ** 2
        t = t - grad / np.maximum(hess, 1e-300)
    return np.abs(at(t)[0] - pts)


def pair_boundary_residual(interior: ComplexSeries, exterior: ComplexSeries) -> float:
    """Two-sided sampled distance between the two boundary parametrizations:
    the largest ``distance_to_curve`` of ``BOUNDARY_SAMPLES`` samples of
    either map to the other's curve. Overflowing series give NaN, which the
    caller rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        fb = samples_from_coeffs(interior, 1.0, BOUNDARY_SAMPLES)
        gb = samples_from_coeffs(exterior, 1.0, BOUNDARY_SAMPLES)
        d = np.concatenate([distance_to_curve(fb, exterior),
                            distance_to_curve(gb, interior)])
    return float(d.max())


def normalize_pair(raw_f: ComplexSeries, raw_g: ComplexSeries,
                   family_tag: str = "custom", params: dict = None,
                   sample_count: int = 1024, extra_residuals: dict = None) -> WeldingPair:
    """Apply the affine gauge lambda(w) = (w - raw_f(0))/raw_f'(0) to both maps.

    The output satisfies f(0) = 0 and f'(0) = 1 exactly; g'(inf) is the
    rescaled Laurent leading coefficient. The two boundary traces must
    agree to ``BOUNDARY_TOL``; a residual that is not a number fails too.
    The pair records ``sample_count``; the check does not read it.
    """
    if raw_f.kind is not Kind.TAYLOR_AT_ZERO:
        raise InvalidInput("raw interior map must be a Taylor series")
    if raw_g.kind is not Kind.LAURENT_AT_INFINITY:
        raise InvalidInput("raw exterior map must be a Laurent series")
    if raw_f.order < 2 or raw_f.coeffs[1] == 0:
        raise InvalidInput("raw_f'(0) = 0: not univalent")
    if raw_g.coeffs[0] == 0:
        raise InvalidInput("raw_g'(infinity) = 0: g does not fix infinity")

    a0, a1 = raw_f.coeffs[0], raw_f.coeffs[1]
    fc = raw_f.coeffs / a1
    fc[0] = 0.0
    fc[1] = 1.0
    gc = raw_g.coeffs / a1
    if raw_g.order >= 2:
        gc[1] -= a0 / a1

    interior = ComplexSeries.taylor(fc, resolved=raw_f.resolved)
    exterior = ComplexSeries.laurent(gc, resolved=raw_g.resolved)
    residuals = dict(extra_residuals or {})
    resid = pair_boundary_residual(interior, exterior)
    residuals["boundary"] = resid
    if not resid <= BOUNDARY_TOL:
        raise NumericalFailure(
            f"boundary traces disagree: residual {resid:.3e} is not within "
            f"{BOUNDARY_TOL:.1e}"
        )
    return WeldingPair(interior=interior, exterior=exterior,
                       family_tag=family_tag, params=dict(params or {}),
                       sample_count=sample_count, residuals=residuals)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# the parameters of each cataloged family, in the order the CLI names them
FAMILY_PARAMS = {"identity": (), "ellipse": ("c",), "fourier_bump": ("eps", "k")}


@functools.lru_cache(maxsize=64)
def _catalog_cached(family_tag: str, param_items: tuple) -> WeldingPair:
    params = dict(param_items)

    if family_tag == "identity":
        return WeldingPair(
            interior=ComplexSeries.identity(Kind.TAYLOR_AT_ZERO, 8),
            exterior=ComplexSeries.identity(Kind.LAURENT_AT_INFINITY, 8),
            family_tag="identity", params={}, sample_count=START_SAMPLE_COUNT,
            residuals={"boundary": 0.0})

    if family_tag == "ellipse":
        c = params["c"]
        theo = theodorsen_interior(ellipse_domain(c))
        # exact closed form z + c/z: trailing zeros state that the higher
        # Laurent coefficients vanish identically
        raw_g = ComplexSeries.laurent([1.0, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0],
                                      resolved=True)
        return normalize_pair(
            theo.series, raw_g, family_tag="ellipse", params=params,
            sample_count=theo.sample_count,
            extra_residuals={"theodorsen": theo.residual})

    if family_tag == "fourier_bump":
        eps, k = params["eps"], int(params["k"])
        domain = bump_domain(eps, k)
        if domain.smoothness_bound >= 1.0:
            raise InvalidInput(
                f"bump({eps},{k}) has smoothness bound "
                f"{domain.smoothness_bound:.3f} >= 1")
        theo = theodorsen_interior(domain)
        theo_inv = theodorsen_interior(inverted_domain(domain))
        # invert the image-correct reflected map; rescaling it first would
        # scale the recovered curve away from the interior map's curve
        raw_g = inverted_series(theo_inv.series)
        return normalize_pair(
            theo.series, raw_g, family_tag="fourier_bump", params=params,
            sample_count=max(theo.sample_count, theo_inv.sample_count),
            extra_residuals={"theodorsen": max(theo.residual, theo_inv.residual)})

    raise InvalidInput(f"unknown family tag: {family_tag!r}")


def catalog(family_tag: str, **params) -> WeldingPair:
    """Construct a cataloged welding pair.

    Families: ``identity``, ``ellipse`` (parameter ``c`` in (0,1)),
    ``fourier_bump`` (parameters ``eps``, ``k``). The Theodorsen
    continuation doubles the sample count from ``START_SAMPLE_COUNT`` (up
    to ``MAX_SAMPLE_COUNT``) until the coefficients are resolved, so even
    slowly-decaying expansions are fully resolved. Pairs are cached; each
    call returns its own ``params`` and ``residuals`` dicts, so a caller's
    edits never reach later results.
    """
    items = tuple(sorted(params.items()))
    pair = _catalog_cached(family_tag, items)
    return dataclasses.replace(pair, params=dict(pair.params),
                               residuals=dict(pair.residuals))


def inverted_pair(pair: WeldingPair) -> WeldingPair:
    """The pair of the reflected curve: roles of f and g swap through
    z -> 1/conj(z), then the result is re-normalized."""
    return normalize_pair(inverted_series(pair.exterior),
                          inverted_series(pair.interior),
                          family_tag=pair.family_tag + "~inverted",
                          params=pair.params, sample_count=pair.sample_count)


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------

def schwarzian(h, z):
    """Schwarzian derivative S(h) = (h''/h')' - (h''/h')^2 / 2 at z.

    ``h`` is a Taylor ComplexSeries (evaluated by series arithmetic) or a
    plain evaluator (local-circle Fourier differentiation of 32 samples on a
    circle of radius max(0.25 (1 - |z|), 1e-4)). Moebius maps give 0;
    h'(z) = 0 is rejected.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(h, ComplexSeries):
        if h.kind is not Kind.TAYLOR_AT_ZERO:
            raise InvalidInput("the Schwarzian takes a Taylor series")
        d1 = derivative_array(h.coeffs)
        d2 = derivative_array(d1)
        h1 = evaluate_array(d1, z)
        if np.any(np.abs(h1) < 1e-13):
            raise NumericalFailure("Schwarzian evaluation at a critical point")
        h2 = evaluate_array(d2, z)
        h3 = evaluate_array(derivative_array(d2), z)
        return h3 / h1 - 1.5 * (h2 / h1) ** 2

    scalar = z.shape == ()
    zv = np.atleast_1d(z)
    radius = np.maximum(0.25 * (1.0 - np.abs(zv)), 1e-4)
    stencil = 32
    theta = 2.0 * np.pi * np.arange(stencil) / stencil
    ring = np.exp(1j * theta)
    samples = np.asarray(h(zv[:, None] + radius[:, None] * ring[None, :]))
    local = np.fft.fft(samples, axis=1) / stencil
    t1 = local[:, 1] / radius
    t2 = local[:, 2] / radius ** 2
    t3 = local[:, 3] / radius ** 3
    if np.any(np.abs(t1) < 1e-13):
        raise NumericalFailure("Schwarzian evaluation at a critical point")
    out = 6.0 * (t1 * t3 - t2 ** 2) / t1 ** 2
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def _complex_list(arr: np.ndarray):
    return [[float(x.real), float(x.imag)] for x in arr]


def pair_to_json(pair: WeldingPair) -> str:
    doc = {
        "family_tag": pair.family_tag,
        "params": pair.params,
        "taylor_coeffs": _complex_list(pair.interior.coeffs),
        "taylor_resolved": pair.interior.resolved,
        "laurent_coeffs": _complex_list(pair.exterior.coeffs),
        "laurent_resolved": pair.exterior.resolved,
        "g_prime_at_infinity": [pair.g_prime_at_infinity.real,
                                pair.g_prime_at_infinity.imag],
        "M": pair.sample_count,
        "residuals": {k: float(v) for k, v in pair.residuals.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)
