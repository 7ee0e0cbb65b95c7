"""Genus-2 cocompact group of the regular hyperbolic octagon.

The group is generated by four hyperbolic translations G_k along the axes
at angles k*pi/4, each pairing two opposite sides of the regular octagon
with vertex angle pi/4 centered at the origin, plus their inverses. The
vertex radius solves the regular-octagon angle condition (angle sum 2 pi
at the glued vertex) in closed form through the right-triangle relation
cosh(vertex) = cot(pi/8) cot(pi/8); the product relation

    G0 G1^-1 G2 G3^-1 G0^-1 G1 G2^-1 G3 = +-identity

certifies the construction. Matrices live in SU(1,1): [[a, b], [conj(b),
conj(a)]] with |a|^2 - |b|^2 = 1, acting by z -> (a z + b)/(conj(b) z +
conj(a)) with derivative 1/(conj(b) z + conj(a))^2.

The Dirichlet domain about 0 is the octagon itself, by Poincare's polygon
theorem bounded by the bisectors between 0 and its eight images under the
side pairings alone; the boundary radius along a ray from 0 is the nearest
crossing of their bisectors, a root of a quadratic. The hyperbolic-area
integral of the Bergman diagonal 1/(pi (1-|z|^2)^2) over the domain equals
genus - 1, the basepoint value entering the trace identities. Its radial
part is closed-form; the boundary radius is analytic between two vertices,
on each side sector k pi/4 +- pi/8, so the angular part is Fejer's first
rule on each of the eight sectors, with no kink inside a rule and exact to
roundoff at 64 nodes per sector. The word-length enumeration only counts
group elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import InvalidInput, NumericalFailure

GENUS = 2
_N_SIDES = 8
_SECTOR = np.pi / _N_SIDES          # half opening angle of one side sector
_TARGET_VERTEX_ANGLE = np.pi / 4.0  # eight corners glue to one 2 pi vertex


def _rotation(phi: float) -> np.ndarray:
    return np.array([[np.exp(1j * phi / 2.0), 0.0],
                     [0.0, np.exp(-1j * phi / 2.0)]], dtype=complex)


def _translation(length: float) -> np.ndarray:
    """Hyperbolic translation along the real axis, length in the curvature
    -1 metric."""
    return np.array([[np.cosh(length / 2.0), np.sinh(length / 2.0)],
                     [np.sinh(length / 2.0), np.cosh(length / 2.0)]],
                    dtype=complex)


def apply_mobius(m: np.ndarray, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def mobius_derivative(m: np.ndarray, z):
    return 1.0 / (m[1, 0] * z + m[1, 1]) ** 2


@dataclass(frozen=True)
class FuchsianGroup:
    """Octagon side-pairing generators (4 translations and inverses)."""

    generators: tuple = field(repr=False)   # 8 SU(1,1) matrices
    genus: int = GENUS
    relation_word: tuple = ()
    vertex_radius: float = 0.0              # hyperbolic distance to a vertex
    translation_length: float = 0.0

    def element(self, index: int) -> np.ndarray:
        """Signed index: +k is generator k (1-based), -k its inverse."""
        if index == 0 or abs(index) > 4:
            raise InvalidInput("generator index must be in 1..4 or -1..-4")
        k = abs(index) - 1
        return self.generators[k] if index > 0 else self.generators[k + 4]

    def relation_product(self) -> np.ndarray:
        out = np.eye(2, dtype=complex)
        for idx in self.relation_word:
            out = out @ self.element(idx)
        return out

    def relation_residual(self) -> float:
        p = self.relation_product()
        eye = np.eye(2)
        return float(min(np.abs(p - eye).max(), np.abs(p + eye).max()))


def octagon_group() -> FuchsianGroup:
    """The genus-2 group of the regular octagon with opposite sides paired.

    The vertex radius solves the vertex-angle condition in closed form,
    cosh(vertex) = cot(pi/8) cot(pi/8), the right-triangle relation
    cosh c = cot A cot B of half a sector; the side distance follows from
    tanh(side) = tanh(vertex) * cos(pi/8), and each pairing translation has
    length twice the side distance.
    """
    rv = float(np.arccosh(
        1.0 / (np.tan(_TARGET_VERTEX_ANGLE / 2.0) * np.tan(_SECTOR))))
    rm = np.arctanh(np.tanh(rv) * np.cos(_SECTOR))
    length = 2.0 * rm
    rotations = [_rotation(k * np.pi / 4.0) for k in range(4)]
    # the inverse of each translation is the translation by -length
    gens = [r @ _translation(sign * length) @ np.conj(r.T)
            for sign in (1.0, -1.0) for r in rotations]
    word = (1, -2, 3, -4, -1, 2, -3, 4)
    group = FuchsianGroup(generators=tuple(gens), genus=GENUS,
                          relation_word=word, vertex_radius=rv,
                          translation_length=length)
    resid = group.relation_residual()
    if resid > 1e-10:
        raise NumericalFailure(
            f"octagon relation product residual {resid:.3e} exceeds 1e-10")
    return group


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupEnumeration:
    """Distinct elements representable by words of length <= max_word_length,
    deduplicated up to overall sign (the matrices act projectively)."""

    max_word_length: int
    elements: np.ndarray = field(repr=False)   # shape (count, 2, 2)

    @property
    def count(self) -> int:
        return len(self.elements)


def _canonical_key(m: np.ndarray, scale: float = 1e-6):
    """Hashable quantization of an SU(1,1) matrix up to sign.

    Two keys per matrix (plain and half-shifted grid) so that a pair of
    representations of one element differing by accumulated roundoff agrees
    on at least one key with overwhelming margin.
    """
    a, b = m[0, 0], m[0, 1]
    if (a.real, a.imag, b.real, b.imag) < (-a.real, -a.imag, -b.real, -b.imag):
        a, b = -a, -b
    vec = np.array([a.real, a.imag, b.real, b.imag])
    k1 = tuple(np.round(vec / scale).astype(np.int64))
    k2 = tuple(np.round(vec / scale + 0.5).astype(np.int64))
    return k1, k2


def enumerate_elements(group: FuchsianGroup, max_word_length: int) -> GroupEnumeration:
    """Breadth-first enumeration over the 8 generators up to the given
    word length (capped at 8 to stay desk scale)."""
    if max_word_length < 0 or max_word_length > 8:
        raise InvalidInput("word length must lie in 0..8")
    eye = np.eye(2, dtype=complex)
    seen = {}
    elements = [eye]
    for key in _canonical_key(eye):
        seen[key] = 0
    frontier = [eye]
    for _ in range(max_word_length):
        new_frontier = []
        for el in frontier:
            for g in group.generators:
                cand = el @ g
                k1, k2 = _canonical_key(cand)
                hit = seen.get(k1, seen.get(k2))
                if hit is not None:
                    continue
                idx = len(elements)
                seen[k1] = idx
                seen[k2] = idx
                elements.append(cand)
                new_frontier.append(cand)
        frontier = new_frontier
    return GroupEnumeration(max_word_length=max_word_length,
                            elements=np.array(elements))


# ---------------------------------------------------------------------------
# Dirichlet domain
# ---------------------------------------------------------------------------

def _side_neighbours(group: FuchsianGroup) -> np.ndarray:
    """gamma(0) = b / conj(a) for the side pairings gamma: the centres of
    the tiles across the octagon's sides."""
    gens = np.array(group.generators)
    return gens[:, 0, 1] / gens[:, 1, 1]


def domain_boundary_radius(group: FuchsianGroup, theta) -> np.ndarray:
    """Euclidean radius where the ray r e^{i theta} leaves the Dirichlet
    domain: the smallest root r = q / (a + sqrt(a^2 - q^2)) over the images
    p of 0 under the side pairings of the bisector equation
    q r^2 - 2 a r + q = 0, where a = Re(conj(p) e^{i theta}) and q = |p|^2
    (a root in (0, 1) needs a > q). A ray that meets no bisector raises
    NumericalFailure."""
    direction = np.exp(1j * np.asarray(theta, dtype=float))
    radius = np.full(direction.shape, np.inf)
    for p in _side_neighbours(group):
        q = abs(p) ** 2
        a = (np.conj(p) * direction).real
        hit = a > q
        radius[hit] = np.minimum(radius[hit],
                                 q / (a[hit] + np.sqrt(a[hit] ** 2 - q * q)))
    if not np.isfinite(radius).all():
        raise NumericalFailure("a ray from 0 meets no side bisector")
    return radius


def domain_area_integral(group: FuchsianGroup, nodes: int = 64) -> dict:
    """Integral of 1/(pi (1-|z|^2)^2) over the Dirichlet octagon.

    The domain is star-shaped about 0, so with the boundary radius R of each
    angle from domain_boundary_radius the radial integral is closed-form,
    R^2 / (2 pi (1 - R^2)). R is analytic on each side sector k pi/4 +- pi/8,
    so the angular integral is Fejer's first rule on each sector: angles
    k pi/4 + (pi/8) cos t_j with t_j = pi (j + 1/2) / nodes, and weights
    (2/nodes) (1 - 2 sum_{m=1}^{nodes/2} cos(2 m t_j) / (4 m^2 - 1))
    (J. Waldvogel, BIT 46, 2006). The value is genus - 1 by Gauss-Bonnet;
    n_theta is [8 * nodes], the number of angles read.
    """
    t = np.pi * (np.arange(nodes) + 0.5) / nodes
    m = np.arange(1, nodes // 2 + 1)
    weights = (2.0 / nodes) * (
        1.0 - 2.0 * (np.cos(2.0 * np.outer(t, m)) / (4.0 * m * m - 1.0)).sum(axis=1))
    theta = (2.0 * _SECTOR * np.arange(_N_SIDES)[:, None]
             + _SECTOR * np.cos(t)[None, :])
    rm = domain_boundary_radius(group, theta)
    # the rule's [-1, 1] spans a sector's half width pi/8 on either side
    value = (float((rm ** 2 / (1.0 - rm ** 2)).sum(axis=0) @ weights)
             * (_SECTOR / (2.0 * np.pi)))
    return {"value": value, "n_theta": [_N_SIDES * nodes]}


# ---------------------------------------------------------------------------
# automorphy and basepoint trace identities
# ---------------------------------------------------------------------------

def automorphy_residual(kernel, gamma: np.ndarray, z_points, w_points) -> float:
    """max |K(gamma z, gamma w) gamma'(z) conj(gamma'(w)) - K(z, w)| over the
    samples, for a kernel anti-holomorphic in its second argument (Bergman
    type)."""
    z = np.asarray(z_points, dtype=complex)
    w = np.asarray(w_points, dtype=complex)
    gz = apply_mobius(gamma, z)
    gw = apply_mobius(gamma, w)
    dz = mobius_derivative(gamma, z)
    dw = np.conj(mobius_derivative(gamma, w))
    resid = kernel(gz, gw) * dz * dw - kernel(z, w)
    return float(np.abs(resid).max())


def disk_points(n: int, radius: float) -> np.ndarray:
    """n distinct points spread evenly by area over |z| <= radius: the
    golden-angle spiral, point j at radius sqrt((j + 1/2)/n) * radius and
    angle j * pi (3 - sqrt 5). A closed form, so the automorphy check needs
    no random generator."""
    j = np.arange(n)
    return (radius * np.sqrt((j + 0.5) / n)
            * np.exp(1j * np.pi * (3.0 - np.sqrt(5.0)) * j))


def bergman_kernel(z, w):
    """Reproducing kernel of the disk, 1/(pi (1 - z conj(w))^2)."""
    return 1.0 / (np.pi * (1.0 - np.asarray(z) * np.conj(w)) ** 2)


def basepoint_trace_term(group: FuchsianGroup, k: int) -> float:
    """Integral of the k-th iterated mixed kernel diagonal over the domain.

    At the basepoint the mixed contraction is the identity operator, whose
    reproducing property makes every power have the Bergman diagonal; each
    term therefore equals the area integral (= genus - 1), here at 64 + 8k
    nodes per side sector. The sector rule is exact to roundoff at each of
    those node counts, so every term is the same integral to roundoff.
    """
    if k < 1:
        raise InvalidInput("trace term index must be >= 1")
    return domain_area_integral(group, 64 + 8 * k)["value"]


def alternating_trace_sum(group: FuchsianGroup, n: int) -> float:
    """sum_{k=0}^{n} (-1)^k C(n,k) * (k-th trace term); zero for n >= 1.

    The k = 0 term is the area integral at its default node count and the
    terms k >= 1 are basepoint_trace_term(group, k). Every term is the same
    exact integral to roundoff, so the sum is roundoff amplified by the
    binomial weights: it checks that the terms agree, not the trace
    identity itself, which needs the surface's own kernels (the quadratic
    differentials' Poincare series).
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    total = domain_area_integral(group)["value"]
    for k in range(1, n + 1):
        total += (-1) ** k * comb(n, k) * basepoint_trace_term(group, k)
    return total
