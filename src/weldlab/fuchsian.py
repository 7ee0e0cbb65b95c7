"""Genus-2 cocompact group of the regular hyperbolic octagon.

The group is generated by four hyperbolic translations G_k along the axes
at angles k*pi/4, each pairing two opposite sides of the regular octagon
with vertex angle pi/4 centered at the origin, plus their inverses. The
vertex radius solves the regular-octagon angle condition (angle sum 2 pi
at the glued vertex) in closed form through the right-triangle relation
cosh(vertex) = cot(pi/8) cot(pi/8); the product relation

    G0 G1^-1 G2 G3^-1 G0^-1 G1 G2^-1 G3 = +-identity

certifies the construction. An element of SU(1,1) is the pair (a, b) of
the matrix [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1, acting by
z -> (a z + b)/(conj(b) z + conj(a)) with derivative
(|a|^2 - |b|^2)/(conj(b) z + conj(a))^2. The side pairings are held
projectively as (1, p), p = G(0), the SU(1,1) element divided by
cosh(l/2) for translation length l, so a word of length L is its SU(1,1)
element divided by cosh(l/2)^L; the relation residual and the
enumeration's keys multiply that factor back.

The Dirichlet domain about 0 is the octagon itself, by Poincare's polygon
theorem bounded by the bisectors between 0 and its eight images under the
side pairings alone; the boundary radius along a ray from 0 is the nearest
crossing of their bisectors, a root of a quadratic. The hyperbolic-area
integral of the Bergman diagonal 1/(pi (1-|z|^2)^2) over the domain equals
genus - 1, the basepoint value entering the trace identities. Its radial
part is closed-form; the boundary radius is analytic between two vertices,
on each side sector k pi/4 +- pi/8, so the angular part is Fejer's first
rule on each of the eight sectors, with no kink inside a rule and exact to
roundoff at 64 nodes per sector. The alternating trace sums of one group
share their terms, so trace_sums integrates each of its four node counts
once and returns the area block with the sums. The word-length
enumeration only counts group elements.

The module is scalar arithmetic on Python floats and complex numbers and
loads no numpy; its functions take numpy arrays of points as well. Its two
records are ``collections.namedtuple`` subclasses, immutable and equal by
value, so importing it loads neither ``dataclasses`` nor the ``inspect``
module that ``dataclasses`` imports: both take a numpy-free command-line
process several milliseconds to load.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import InvalidInput, NumericalFailure

GENUS = 2
_N_SIDES = 8
_SECTOR = math.pi / _N_SIDES          # half opening angle of one side sector
_TARGET_VERTEX_ANGLE = math.pi / 4.0  # eight corners glue to one 2 pi vertex
_IDENTITY = (1.0 + 0.0j, 0.0j)


def compose(g, h):
    """The product g h of two pairs (a, b)."""
    (a1, b1), (a2, b2) = g, h
    return (a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())


def apply_mobius(g, z):
    a, b = g
    return (a * z + b) / (b.conjugate() * z + a.conjugate())


def mobius_derivative(g, z):
    a, b = g
    return (abs(a) ** 2 - abs(b) ** 2) / (b.conjugate() * z + a.conjugate()) ** 2


class FuchsianGroup(namedtuple("FuchsianGroup", (
        "generators", "genus", "relation_word", "vertex_radius",
        "translation_length"))):
    """Octagon side-pairing generators (4 translations and inverses): the
    8 pairs (1, p), p = G(0), the genus, the relation word of signed
    generator indices, the hyperbolic distance from 0 to a vertex and the
    translation length of a generator."""

    __slots__ = ()

    def element(self, index: int):
        """Signed index: +k is generator k (1-based), -k its inverse."""
        if index == 0 or abs(index) > 4:
            raise InvalidInput("generator index must be in 1..4 or -1..-4")
        k = abs(index) - 1
        return self.generators[k] if index > 0 else self.generators[k + 4]

    def relation_residual(self) -> float:
        """Distance of the relation product, as an SU(1,1) element, to the
        nearer of +-identity (largest entry of the difference)."""
        a, b = _IDENTITY
        for idx in self.relation_word:
            a, b = compose((a, b), self.element(idx))
        scale = math.cosh(self.translation_length / 2.0) ** len(self.relation_word)
        a, b = a * scale, b * scale
        return max(min(abs(a - 1.0), abs(a + 1.0)), abs(b))


def octagon_group() -> FuchsianGroup:
    """The genus-2 group of the regular octagon with opposite sides paired.

    The vertex radius solves the vertex-angle condition in closed form,
    cosh(vertex) = cot(pi/8) cot(pi/8), the right-triangle relation
    cosh c = cot A cot B of half a sector; the side distance follows from
    tanh(side) = tanh(vertex) * cos(pi/8), and each pairing translation has
    length twice the side distance. The pairing along angle k pi/4 moves 0
    to p_k = tanh(length/2) e^{i k pi/4}, and its inverse to -p_k.
    """
    rv = math.acosh(
        1.0 / (math.tan(_TARGET_VERTEX_ANGLE / 2.0) * math.tan(_SECTOR)))
    rm = math.atanh(math.tanh(rv) * math.cos(_SECTOR))
    length = 2.0 * rm
    images = [cmath.rect(math.tanh(length / 2.0), k * math.pi / 4.0)
              for k in range(4)]
    gens = [(1.0 + 0.0j, sign * p) for sign in (1.0, -1.0) for p in images]
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

class GroupEnumeration(namedtuple("GroupEnumeration", ("elements",))):
    """Distinct elements representable by words up to a length,
    deduplicated up to overall sign (the pairs act projectively); the
    elements are pairs (a, b), products of the (1, p)."""

    __slots__ = ()

    @property
    def count(self) -> int:     # shadows the tuple method count
        return len(self.elements)


def _canonical_key(a: complex, b: complex, scale: float = 1e-6):
    """Hashable quantization of the SU(1,1) pair (a, b) up to sign.

    Two keys per pair (plain and half-shifted grid) so that a pair of
    representations of one element differing by accumulated roundoff agrees
    on at least one key with overwhelming margin.
    """
    vec = (a.real, a.imag, b.real, b.imag)
    vec = max(vec, tuple(-x for x in vec))
    k1 = tuple(round(x / scale) for x in vec)
    k2 = tuple(round(x / scale + 0.5) for x in vec)
    return k1, k2


def enumerate_elements(group: FuchsianGroup, max_word_length: int) -> GroupEnumeration:
    """Breadth-first enumeration over the 8 generators up to the given
    word length (capped at 8 to stay desk scale). Words of length L are
    keyed as SU(1,1) elements, times cosh(l/2)^L."""
    if not isinstance(max_word_length, int) or not 0 <= max_word_length <= 8:
        raise InvalidInput("word length must lie in 0..8")
    step = math.cosh(group.translation_length / 2.0)
    seen = set(_canonical_key(*_IDENTITY))
    elements = [_IDENTITY]
    frontier = [_IDENTITY]
    for length in range(1, max_word_length + 1):
        scale = step ** length
        new_frontier = []
        for el in frontier:
            for g in group.generators:
                cand = compose(el, g)
                k1, k2 = _canonical_key(cand[0] * scale, cand[1] * scale)
                if k1 in seen or k2 in seen:
                    continue
                seen.update((k1, k2))
                elements.append(cand)
                new_frontier.append(cand)
        frontier = new_frontier
    return GroupEnumeration(elements=elements)


# ---------------------------------------------------------------------------
# Dirichlet domain
# ---------------------------------------------------------------------------

def _side_neighbours(group: FuchsianGroup) -> list:
    """gamma(0) = b / conj(a) for the side pairings gamma: the centres of
    the tiles across the octagon's sides."""
    return [b / a.conjugate() for a, b in group.generators]


def domain_boundary_radius(group: FuchsianGroup, theta) -> list:
    """Euclidean radius where the ray r e^{i theta} leaves the Dirichlet
    domain, for each angle of ``theta``: the smallest root
    r = q / (a + sqrt(a^2 - q^2)) over the images p of 0 under the side
    pairings of the bisector equation q r^2 - 2 a r + q = 0, where
    a = Re(conj(p) e^{i theta}) = Re(p) cos(theta) + Im(p) sin(theta) and
    q = |p|^2 (a root in (0, 1) needs a > q). A ray that meets no bisector
    raises NumericalFailure."""
    sides = [(p.real, p.imag, abs(p) ** 2) for p in _side_neighbours(group)]
    radius = []
    for t in theta:
        cos_t, sin_t = math.cos(t), math.sin(t)
        r = math.inf
        for x, y, q in sides:
            a = x * cos_t + y * sin_t
            if a > q:
                r = min(r, q / (a + math.sqrt(a * a - q * q)))
        if r == math.inf:
            raise NumericalFailure("a ray from 0 meets no side bisector")
        radius.append(r)
    return radius


def domain_area_integral(group: FuchsianGroup, nodes: int = 64) -> dict:
    """Integral of 1/(pi (1-|z|^2)^2) over the Dirichlet octagon.

    The domain is star-shaped about 0, so with the boundary radius R of each
    angle from domain_boundary_radius the radial integral is closed-form,
    R^2 / (2 pi (1 - R^2)). R is analytic on each side sector k pi/4 +- pi/8,
    so the angular integral is Fejer's first rule on each sector: angles
    k pi/4 + (pi/8) cos t_j with t_j = pi (j + 1/2) / nodes, and weights
    (2/nodes) (1 - 2 sum_{m=1}^{nodes/2} cos(2 m t_j) / (4 m^2 - 1))
    (J. Waldvogel, BIT 46, 2006), summed with math.fsum. The value is
    genus - 1 by Gauss-Bonnet; n_theta is [8 * nodes], the number of angles
    read. ``nodes`` must be an integer >= 1.
    """
    if not isinstance(nodes, int) or nodes < 1:
        raise InvalidInput(f"nodes = {nodes!r} is not an integer >= 1")
    t = [math.pi * (j + 0.5) / nodes for j in range(nodes)]
    weights = [(2.0 / nodes) * (1.0 - 2.0 * math.fsum(
        math.cos(2.0 * tj * m) / (4.0 * m * m - 1.0)
        for m in range(1, nodes // 2 + 1))) for tj in t]
    theta = [2.0 * _SECTOR * k + _SECTOR * math.cos(tj)
             for k in range(_N_SIDES) for tj in t]
    rm = domain_boundary_radius(group, theta)
    # the rule's [-1, 1] spans a sector's half width pi/8 on either side
    value = math.fsum(w * r * r / (1.0 - r * r)
                      for w, r in zip(weights * _N_SIDES, rm))
    return {"value": value * (_SECTOR / (2.0 * math.pi)),
            "n_theta": [_N_SIDES * nodes]}


# ---------------------------------------------------------------------------
# automorphy and basepoint trace identities
# ---------------------------------------------------------------------------

def automorphy_residual(kernel, gamma, z_points, w_points) -> float:
    """max |K(gamma z, gamma w) gamma'(z) conj(gamma'(w)) - K(z, w)| over the
    sample pairs (z, w) of the two iterables of points, for a kernel
    anti-holomorphic in its second argument (Bergman type)."""
    return max(float(abs(
        kernel(apply_mobius(gamma, z), apply_mobius(gamma, w))
        * mobius_derivative(gamma, z) * mobius_derivative(gamma, w).conjugate()
        - kernel(z, w))) for z, w in zip(z_points, w_points))


def disk_points(n: int, radius: float) -> list:
    """n distinct points spread evenly by area over |z| <= radius: the
    golden-angle spiral, point j at radius sqrt((j + 1/2)/n) * radius and
    angle j * pi (3 - sqrt 5). A closed form, so the automorphy check needs
    no random generator."""
    return [cmath.rect(radius * math.sqrt((j + 0.5) / n),
                       math.pi * (3.0 - math.sqrt(5.0)) * j) for j in range(n)]


def bergman_kernel(z, w):
    """Reproducing kernel of the disk, 1/(pi (1 - z conj(w))^2)."""
    return 1.0 / (math.pi * (1.0 - z * w.conjugate()) ** 2)


def trace_sums(group: FuchsianGroup):
    """The report's area block, domain_area_integral(group), and the
    alternating trace sums sum_{k=0}^{n} (-1)^k C(n,k) * (term k) keyed
    "1", "2", "3", which vanish.

    At the basepoint the mixed contraction is the identity operator, whose
    reproducing property makes every power have the Bergman diagonal, so
    term k is the area integral (= genus - 1) at 64 + 8k nodes per side
    sector, each integrated once and added in the order of k. The rule is
    exact to roundoff at each node count, so a sum is roundoff amplified by
    the binomial weights: it checks that the terms agree, not the trace
    identity itself, which needs the surface's own kernels (the quadratic
    differentials' Poincare series).
    """
    areas = [domain_area_integral(group, 64 + 8 * k) for k in range(4)]
    sums = {}
    for n in (1, 2, 3):
        total = areas[0]["value"]
        for k in range(1, n + 1):
            total += (-1) ** k * math.comb(n, k) * areas[k]["value"]
        sums[str(n)] = total
    return areas[0], sums
