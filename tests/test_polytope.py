import random
from fractions import Fraction

import pytest

from conftest import polygon_integral, shoelace_area, unimodular_with_inverse
from hamloop import (
    AffineForm,
    DegenerateInput,
    EmptyPolytope,
    Polytope,
    Simplex,
    UnboundedPolytope,
    enumerate_vertices,
    facet_lattice_volume,
    integrate_affine,
    integrate_affine_facet,
    lasserre_volume,
    simplex_volume,
    triangulate,
    volume,
)
from hamloop import fourier_motzkin as fm
from hamloop.selftest import random_bounded_polytope

# Moment polytope of the projective plane at level 1: the unit right triangle.
CP2_INEQS = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]

# Tetrahedron of side 2 truncated at height 1 (the blow-up polytope in its
# plainest coordinates): slices x1, x2, x3, 1 - x3, 2 - x1 - x2 - x3.
BLOWUP_INEQS = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                ((0, 0, -1), 1), ((-1, -1, -1), 2)]


def cp2():
    return Polytope.from_inequalities(2, CP2_INEQS)


def blowup():
    return Polytope.from_inequalities(3, BLOWUP_INEQS)


class TestEnumerateVertices:
    def test_cp2_triangle(self):
        vertices, incidence = enumerate_vertices(2, [(u, Fraction(c)) for u, c in CP2_INEQS])
        assert set(vertices) == {(0, 0), (1, 0), (0, 1)}
        for v, inc in zip(vertices, incidence):
            assert len(inc) == 2

    def test_blowup_has_six_vertices(self):
        poly = blowup()
        expected = {(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)}
        assert set(poly.vertices) == expected

    def test_incidence_is_complete(self):
        poly = blowup()
        for v, inc in zip(poly.vertices, poly.incidence):
            for k, (u, c) in enumerate(poly.inequalities):
                tight = c + sum(Fraction(a) * b for a, b in zip(u, v)) == 0
                assert (k in inc) == tight

    def test_half_space_unbounded(self):
        with pytest.raises(UnboundedPolytope):
            Polytope.from_inequalities(1, [((1,), Fraction(0))])

    def test_empty(self):
        with pytest.raises(EmptyPolytope):
            Polytope.from_inequalities(1, [((1,), Fraction(0)), ((-1,), Fraction(-1))])


class TestTriangulate:
    def test_triangle_is_single_cell(self):
        cells = triangulate(cp2())
        assert len(cells) == 1

    def test_unit_square(self):
        square = Polytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
        cells = triangulate(square)
        assert len(cells) == 2
        assert sum(simplex_volume(s) for s in cells) == 1

    def test_blowup_cells_sum_to_volume(self):
        cells = triangulate(blowup())
        assert sum(simplex_volume(s) for s in cells) == Fraction(7, 6)

    def test_flat_input_rejected(self):
        flat = Polytope.from_inequalities(
            2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
        with pytest.raises(DegenerateInput):
            triangulate(flat)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(DegenerateInput):
            Simplex(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                     (Fraction(2), Fraction(2))))


class TestVolume:
    def test_cp2(self):
        assert volume(cp2()) == Fraction(1, 2)

    def test_blowup(self):
        poly = blowup()
        assert volume(poly) == Fraction(7, 6)
        assert 6 * volume(poly) == 7  # tau^3 - lambda^3 at tau=2, lambda=1

    def test_segment(self):
        seg = Polytope.from_inequalities(1, [((1,), 0), ((-1,), Fraction(5, 2))])
        assert volume(seg) == Fraction(5, 2)


class TestIntegrateAffine:
    def test_constant_gives_volume(self):
        form = AffineForm.make(1, (0, 0, 0))
        assert integrate_affine(blowup(), form) == volume(blowup())

    def test_x1_on_cp2(self):
        form = AffineForm.make(0, (1, 0))
        assert integrate_affine(cp2(), form) == Fraction(1, 6)

    def test_x1_on_blowup(self):
        form = AffineForm.make(0, (1, 0, 0))
        value = integrate_affine(blowup(), form)
        assert value == Fraction(5, 8)
        assert 6 * value == Fraction(15, 4)  # (tau^4 - lambda^4)/4

    def test_linearity(self):
        rng = random.Random(11)
        poly = blowup()
        for _ in range(5):
            f1 = AffineForm.make(rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(3)])
            f2 = AffineForm.make(rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(3)])
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            combined = f1.scaled(a) + f2.scaled(b)
            assert integrate_affine(poly, combined) == \
                a * integrate_affine(poly, f1) + b * integrate_affine(poly, f2)

    def test_mean_between_vertex_extremes(self):
        rng = random.Random(23)
        for _ in range(5):
            poly = random_bounded_polytope(rng)
            form = AffineForm.make(rng.randint(-2, 2),
                                   [rng.randint(-3, 3) for _ in range(poly.dim)])
            mean = integrate_affine(poly, form) / volume(poly)
            values = [form(v) for v in poly.vertices]
            assert min(values) <= mean <= max(values)


class TestFacetMeasures:
    def test_lattice_volumes(self):
        poly = blowup()
        assert facet_lattice_volume(poly.facet(2)) == 2            # x3 = 0
        assert facet_lattice_volume(poly.facet(3)) == Fraction(1, 2)   # x3 = 1
        assert facet_lattice_volume(poly.facet(4)) == Fraction(3, 2)   # slanted
        assert facet_lattice_volume(poly.facet(0)) == Fraction(3, 2)

    def test_symplectic_areas(self):
        poly = blowup()
        assert 2 * facet_lattice_volume(poly.facet(2)) == 4   # tau^2
        assert 2 * facet_lattice_volume(poly.facet(3)) == 1   # lambda^2
        assert 2 * facet_lattice_volume(poly.facet(4)) == 3   # tau^2 - lambda^2

    def test_integrals(self):
        poly = blowup()
        x1 = AffineForm.make(0, (1, 0, 0))
        assert integrate_affine_facet(poly.facet(0), x1) == 0
        assert integrate_affine_facet(poly.facet(2), x1) == Fraction(4, 3)
        assert integrate_affine_facet(poly.facet(4), x1) == Fraction(7, 6)

    def test_empty_facet_is_zero(self):
        ineqs = CP2_INEQS + [((1, 1), 5)]  # never tight
        poly = Polytope.from_inequalities(2, ineqs)
        facet = poly.facet(3)
        assert facet.is_empty
        assert facet_lattice_volume(facet) == 0
        assert integrate_affine_facet(facet, AffineForm.make(1, (0, 0))) == 0

    def test_tangent_facet_is_degenerate(self):
        ineqs = CP2_INEQS + [((1, 1), 0)]  # touches only the origin
        poly = Polytope.from_inequalities(2, ineqs)
        facet = poly.facet(3)
        assert not facet.full and not facet.is_empty
        assert facet_lattice_volume(facet) == 0

    def test_point_facet_in_dimension_one(self):
        seg = Polytope.from_inequalities(1, [((1,), 0), ((-1,), 3)])
        assert facet_lattice_volume(seg.facet(0)) == 1
        assert integrate_affine_facet(seg.facet(1), AffineForm.make(0, (1,))) == 3


class TestLasserreVolume:
    def test_cp2(self):
        assert lasserre_volume(cp2()) == Fraction(1, 2)

    def test_blowup(self):
        assert lasserre_volume(blowup()) == Fraction(7, 6)

    def test_unit_cube(self):
        cube = Polytope.from_inequalities(
            3, [((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 1, 0), 0),
                ((0, -1, 0), 1), ((0, 0, 1), 0), ((0, 0, -1), 1)])
        assert lasserre_volume(cube) == 1

    def test_duplicate_inequalities_not_double_counted(self):
        seg = Polytope.from_inequalities(1, [((1,), 1), ((1,), 1), ((-1,), 0)])
        assert lasserre_volume(seg) == 1
        assert volume(seg) == 1

    def test_matches_triangulation_on_random_instances(self):
        rng = random.Random(31337)
        for _ in range(10):
            poly = random_bounded_polytope(rng)
            assert volume(poly) == lasserre_volume(poly)


class TestAgainstPolygonOracle:
    def test_cp2_area_and_moment(self):
        poly = cp2()
        assert shoelace_area(poly.vertices) == volume(poly)
        form = AffineForm.make(0, (1, 0))
        assert polygon_integral(poly.vertices, form) == integrate_affine(poly, form)

    def test_random_polygons(self):
        rng = random.Random(2718)
        for _ in range(8):
            ineqs = [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 2)]
            for _ in range(3):
                normal = [rng.randint(-3, 3), rng.randint(-3, 3)]
                if normal == [0, 0]:
                    normal = [1, 0]
                ineqs.append((tuple(normal), Fraction(rng.randint(1, 4))))
            poly = Polytope.from_inequalities(2, ineqs)
            assert shoelace_area(poly.vertices) == volume(poly)
            form = AffineForm.make(rng.randint(-2, 2),
                                   [rng.randint(-3, 3), rng.randint(-3, 3)])
            assert polygon_integral(poly.vertices, form) == integrate_affine(poly, form)


class TestInvarianceProperties:
    def test_apex_rule_independence(self):
        rng = random.Random(4242)
        for _ in range(4):
            poly = random_bounded_polytope(rng)
            form = AffineForm.make(rng.randint(-2, 2),
                                   [rng.randint(-3, 3) for _ in range(poly.dim)])
            assert volume(poly) == volume(poly, apex_rule="lexmax")
            assert integrate_affine(poly, form) == \
                integrate_affine(poly, form, apex_rule="lexmax")

    def test_unimodular_invariance(self):
        rng = random.Random(555)
        poly = blowup()
        n = poly.dim
        for _ in range(4):
            U, Uinv = unimodular_with_inverse(rng, n)
            shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            # y = U x + t transforms (u, c) to (u Uinv, c - <u Uinv, t>)
            new_ineqs = []
            for u, c in poly.inequalities:
                new_u = tuple(sum(u[i] * Uinv.entry(i, j) for i in range(n))
                              for j in range(n))
                new_c = c - sum(Fraction(a) * b for a, b in zip(new_u, shift))
                new_ineqs.append((new_u, new_c))
            image = Polytope.from_inequalities(n, new_ineqs)
            assert volume(image) == volume(poly)
            for k in range(len(poly.inequalities)):
                assert facet_lattice_volume(image.facet(k)) == \
                    facet_lattice_volume(poly.facet(k))
            grad = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            const = Fraction(rng.randint(-2, 2))
            form = AffineForm.make(const, grad)
            new_grad = tuple(sum(grad[i] * Uinv.entry(i, j) for i in range(n))
                             for j in range(n))
            new_const = const - sum(a * b for a, b in zip(new_grad, shift))
            image_form = AffineForm.make(new_const, new_grad)
            assert integrate_affine(image, image_form) == integrate_affine(poly, form)

    def test_dilation_scaling(self):
        poly = blowup()
        n = poly.dim
        gamma = Fraction(3, 2)
        scaled = Polytope.from_inequalities(
            n, [(u, c * gamma) for u, c in poly.inequalities])
        assert volume(scaled) == gamma**n * volume(poly)
        for k in range(len(poly.inequalities)):
            assert facet_lattice_volume(scaled.facet(k)) == \
                gamma**(n - 1) * facet_lattice_volume(poly.facet(k))

    def test_support_maxima_attained_at_vertices(self):
        rng = random.Random(777)
        poly = blowup()
        for _ in range(6):
            direction = [rng.randint(-3, 3) for _ in range(poly.dim)]
            if all(d == 0 for d in direction):
                direction[0] = 1
            best = max(sum(Fraction(d) * x for d, x in zip(direction, v))
                       for v in poly.vertices)
            cons = [fm.make(u, -c) for u, c in poly.inequalities]
            cons.append(fm.make(direction, best, strict=True))
            assert not fm.feasible(cons, poly.dim)

    def test_vertices_tight_on_spanning_normals(self):
        from hamloop.exact_linalg import rational_rank
        poly = blowup()
        for v, inc in zip(poly.vertices, poly.incidence):
            assert len(inc) >= poly.dim
            normals = [poly.inequalities[k][0] for k in inc]
            assert rational_rank(normals) == poly.dim
