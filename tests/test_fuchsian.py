import math
from math import comb

import numpy as np
import pytest
from references import hyperbolic_distance, in_dirichlet_domain, vertex_angle

from weldlab import fuchsian as fx
from weldlab.errors import InvalidInput, NumericalFailure


@pytest.fixture(scope="module")
def enum2(octagon):
    return fx.enumerate_elements(octagon, 2)


def orbit_of_zero(enum):
    """gamma(0) for every enumerated gamma, the identity's 0 included."""
    return np.array([b / a.conjugate() for a, b in enum.elements])


def su11(g):
    """The pair g scaled to |a|^2 - |b|^2 = 1 (short words only: the
    determinant of a long word's entries cancels)."""
    a, b = g
    s = math.sqrt(abs(a) ** 2 - abs(b) ** 2)
    return a / s, b / s


def bisector_radius_reference(orbit, theta):
    """The smallest root in (0, 1) of the bisector equations between 0 and
    each nonzero orbit point along the rays at ``theta``, with
    Re(conj(p) e^{i theta}) formed as Re(p) cos(theta) + Im(p) sin(theta)."""
    direction = np.exp(1j * theta)
    radius = np.full(direction.shape, np.inf)
    for p in orbit[np.abs(orbit) > 1e-14]:
        q = abs(p) ** 2
        a = p.real * direction.real + p.imag * direction.imag
        hit = a > q
        radius[hit] = np.minimum(radius[hit],
                                 q / (a[hit] + np.sqrt(a[hit] ** 2 - q * q)))
    return radius


class TestOctagonGroup:
    def test_relation_product(self, octagon):
        assert octagon.relation_residual() <= 1e-10

    def test_generators_hyperbolic(self, octagon):
        for g in octagon.generators:
            a, _ = su11(g)
            assert abs(2.0 * a.real) > 2.0 + 1e-9

    def test_su11_boundary_preservation(self, octagon):
        theta = 2 * np.pi * np.arange(64) / 64
        z = np.exp(1j * theta)
        for g in octagon.generators:
            assert np.abs(np.abs(fx.apply_mobius(g, z)) - 1.0).max() <= 1e-12

    def test_vertex_angle_condition(self, octagon):
        # eight vertex angles glue to 2 pi
        assert abs(vertex_angle(octagon.vertex_radius) - np.pi / 4) <= 1e-12

    def test_translation_geometry(self, octagon):
        # generator moves 0 by the translation length along its axis
        z0 = fx.apply_mobius(octagon.generators[0], 0.0)
        assert abs(hyperbolic_distance(z0, 0.0)
                   - octagon.translation_length) <= 1e-12
        assert abs(np.imag(z0)) <= 1e-14


class TestEnumeration:
    def test_length_zero(self, octagon):
        e = fx.enumerate_elements(octagon, 0)
        assert e.count == 1

    def test_length_one(self, octagon):
        e = fx.enumerate_elements(octagon, 1)
        assert e.count == 9

    def test_counts_weakly_increase_and_bounded(self, octagon):
        counts = [fx.enumerate_elements(octagon, L).count for L in range(4)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        for L, cnt in enumerate(counts):
            bound = 1 + sum(8 * 7 ** max(k - 1, 0) for k in range(1, L + 1))
            assert cnt <= bound

    def test_closed_under_products_at_depth(self, octagon):
        # gamma1 gamma2 with |w1| + |w2| <= L stays in the enumeration
        e1 = fx.enumerate_elements(octagon, 1)
        e2 = fx.enumerate_elements(octagon, 2)
        keys2 = set()
        for m in e2.elements:
            k1, k2 = fx._canonical_key(*su11(m))
            keys2.add(k1)
            keys2.add(k2)
        for a in e1.elements:
            for b in e1.elements:
                k1, k2 = fx._canonical_key(*su11(fx.compose(a, b)))
                assert k1 in keys2 or k2 in keys2

    def test_word_length_cap(self, octagon):
        with pytest.raises(InvalidInput):
            fx.enumerate_elements(octagon, 9)

    def test_no_duplicates_up_to_sign(self, octagon, enum2):
        # the largest entry of a difference of [[a, b], [conj b, conj a]]
        # matrices is that of the pairs
        flat = np.array([su11(m) for m in enum2.elements])
        d_plus = np.abs(flat[:, None, :] - flat[None, :, :]).max(axis=2)
        d_minus = np.abs(flat[:, None, :] + flat[None, :, :]).max(axis=2)
        d = np.minimum(d_plus, d_minus)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 1e-8


class TestDirichletDomain:
    def test_origin_inside(self, octagon):
        assert in_dirichlet_domain(octagon, 0.0)

    def test_orbit_point_outside(self, octagon):
        z = fx.apply_mobius(octagon.generators[2], 0.0)
        assert not in_dirichlet_domain(octagon, z)

    def test_vertices_on_boundary(self, octagon, enum2):
        # octagon vertices: distance ties within slack
        rv = np.tanh(octagon.vertex_radius / 2.0)
        orbit = orbit_of_zero(enum2)
        orbit = orbit[np.abs(orbit) > 1e-14]
        for k in range(8):
            v = rv * np.exp(1j * (np.pi / 8 + k * np.pi / 4))
            assert in_dirichlet_domain(octagon, v, slack=1e-9)
            d0 = hyperbolic_distance(v, 0.0)
            dmin = min(hyperbolic_distance(v, p) for p in orbit)
            assert abs(d0 - dmin) <= 1e-9

    def test_boundary_radius_closed_form(self, octagon):
        # the membership predicate is the independent oracle of the radius
        theta = 2 * np.pi * np.random.default_rng(11).random(1024)
        u = np.exp(1j * theta)
        r = np.array(fx.domain_boundary_radius(octagon, theta))
        assert in_dirichlet_domain(octagon, r * (1 - 1e-9) * u, slack=0.0).all()
        assert not in_dirichlet_domain(octagon, r * (1 + 1e-9) * u,
                                       slack=0.0).any()
        # one side pairing bounds only a half-plane: most rays meet no bisector
        one_side = octagon._replace(generators=octagon.generators[:1])
        with pytest.raises(NumericalFailure):
            fx.domain_boundary_radius(one_side, theta)

    def test_side_bisectors_bound_the_longer_orbit_domain(self, octagon):
        # no word up to length 4 adds a side: membership by the eight side
        # pairings is the min-over-orbit rule of the 3193-element orbit
        orbit = orbit_of_zero(fx.enumerate_elements(octagon, 4))
        rng = np.random.default_rng(31)
        z = 0.9 * np.sqrt(rng.random(20_000)) * np.exp(2j * np.pi * rng.random(20_000))
        d_min = np.full(z.shape, np.inf)
        for p in orbit[np.abs(orbit) > 1e-14]:
            d_min = np.minimum(d_min, hyperbolic_distance(z, p))
        expected = hyperbolic_distance(z, 0.0) <= d_min
        inside = in_dirichlet_domain(octagon, z, slack=0.0)
        assert 0 < expected.sum() < len(z)
        assert np.array_equal(inside, expected)

    @pytest.mark.parametrize("nodes", [64, 72, 80, 88])
    def test_radius_matches_length_two_orbit_bitwise(self, octagon, enum2,
                                                     nodes, monkeypatch):
        # the angle sets of the area integral and the trace terms
        radius = fx.domain_boundary_radius
        read = []
        monkeypatch.setattr(fx, "domain_boundary_radius",
                            lambda group, theta: read.append(theta)
                            or radius(group, theta))
        fx.domain_area_integral(octagon, nodes)
        (theta,) = read
        assert len(theta) == 8 * nodes
        assert np.array_equal(radius(octagon, theta),
                              bisector_radius_reference(orbit_of_zero(enum2),
                                                        np.array(theta)))

    def test_tiling_partition(self, octagon):
        # random points inside the coverage range of the enumeration belong
        # to exactly one translate of the fundamental domain; tiles in the
        # fan around a vertex carry words up to length ~4, hence the depth
        enum4 = fx.enumerate_elements(octagon, 4)
        rng = np.random.default_rng(23)
        n = 10_000
        # uniform in hyperbolic area within the distance cutoff
        cutoff = 0.95 * octagon.translation_length
        rmax = np.tanh(cutoff / 2.0)
        t = rng.random(n)
        r = np.sqrt(t) * rmax / np.sqrt(1 - (1 - t) * rmax ** 2)
        z = r * np.exp(2j * np.pi * rng.random(n))
        orbit = orbit_of_zero(enum4)
        d_orb = 2 * np.arctanh(np.clip(np.abs(orbit), 0.0, 1.0 - 1e-16))
        relevant = [m for m, d in zip(enum4.elements, d_orb)
                    if d <= cutoff + 2 * octagon.vertex_radius + 0.2]
        counts = np.zeros(n, dtype=int)
        boundary_tie = np.zeros(n, dtype=bool)
        for a, b in relevant:
            w = fx.apply_mobius((a.conjugate(), -b), z)  # the inverse
            inside = in_dirichlet_domain(octagon, w, slack=0.0)
            near = in_dirichlet_domain(octagon, w, slack=1e-9) & ~inside
            counts += inside.astype(int)
            boundary_tie |= near
        ok = boundary_tie | (counts == 1)
        assert ok.all()


class TestAreaIntegral:
    def test_genus_bound_value(self, octagon):
        report = fx.domain_area_integral(octagon)
        assert abs(report["value"] - 1.0) <= 1e-13

    def test_integrand_at_origin(self):
        assert abs(fx.bergman_kernel(0.0, 0.0) - 1.0 / np.pi) <= 1e-15

    @pytest.mark.parametrize("nodes", [16, 64, 88])
    def test_report_lists_the_angles_read(self, octagon, nodes):
        # a list, summed by the benchmark's tracer
        assert fx.domain_area_integral(octagon, nodes)["n_theta"] == [8 * nodes]

    def test_stable_under_refinement(self, octagon):
        # the sector rule converges geometrically: each step of the ladder
        # gains digits until roundoff
        errors = [abs(fx.domain_area_integral(octagon, n)["value"] - 1.0)
                  for n in (16, 32, 48, 64)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-13


@pytest.mark.parametrize("call", [
    lambda group: fx.domain_area_integral(group, 0),
    lambda group: fx.domain_area_integral(group, -3),
    lambda group: fx.domain_area_integral(group, 2.5),
    lambda group: fx.enumerate_elements(group, 2.5),
    lambda group: fx.enumerate_elements(group, -1),
], ids=["area-0-nodes", "area-negative-nodes", "area-fractional-nodes",
        "fractional-word-length", "negative-word-length"])
def test_unusable_counts_are_invalid_input(octagon, call):
    # no count of nodes gives an empty rule a 0 area, and no word length
    # fails as a TypeError
    with pytest.raises(InvalidInput):
        call(octagon)


class TestAutomorphy:
    def test_bergman_kernel_invariant(self, octagon):
        rng = np.random.default_rng(5)
        z = 0.8 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        w = 0.8 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        for g in octagon.generators:
            resid = fx.automorphy_residual(fx.bergman_kernel, g, z, w)
            assert resid <= 1e-10

    def test_disk_points_are_distinct_and_spread_by_area(self, octagon):
        points = fx.disk_points(128, 0.8)
        assert np.abs(points).max() <= 0.8
        assert len(np.unique(points)) == 128
        # half of them inside the disk of half the area
        assert np.count_nonzero(np.abs(points) <= 0.8 / np.sqrt(2)) == 64
        zs, ws = points[0::2], points[1::2]
        for g in octagon.generators:
            assert fx.automorphy_residual(fx.bergman_kernel, g, zs, ws) <= 1e-12

    def test_basepoint_interior_kernel_is_zero(self, identity_pair):
        # K1(z, w) = (1/(z-w)^2 - f'(z) f'(w)/(f(z)-f(w))^2)/pi off the
        # diagonal and -S(f)(z)/(6 pi) on it, for the identity pair's f
        from weldlab import maps as mp
        from references import derivative
        from weldlab.series import evaluate
        fp = derivative(identity_pair.interior)
        z, w = 0.2 + 0.1j, -0.4j
        fz, fw = evaluate(identity_pair.interior, [z, w])
        off = (1.0 / (z - w) ** 2
               - evaluate(fp, z) * evaluate(fp, w) / (fz - fw) ** 2) / np.pi
        diag = -mp.schwarzian(identity_pair.interior, 0.5) / (6.0 * np.pi)
        assert max(abs(off), abs(diag)) <= 1e-14


class TestTraceTerms:
    def test_first_term_is_area(self, octagon):
        area, _ = fx.trace_sums(octagon)
        assert area == fx.domain_area_integral(octagon)
        assert abs(area["value"] - 1.0) <= 1e-4

    def test_alternating_sums_vanish(self, octagon):
        _, sums = fx.trace_sums(octagon)
        assert list(sums) == ["1", "2", "3"]
        for value in sums.values():
            assert abs(value) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sums_equal_the_binomial_formula_bitwise(self, n):
        # each term integrated afresh, summed in the same order
        group = fx.octagon_group()
        expected = fx.domain_area_integral(group)["value"]
        for k in range(1, n + 1):
            expected += (-1) ** k * comb(n, k) * fx.domain_area_integral(
                group, 64 + 8 * k)["value"]
        assert fx.trace_sums(group)[1][str(n)] == expected
