import random
from fractions import Fraction

import pytest

from hamloop import (
    AssumptionsViolated,
    EmptyPolytope,
    IntMatrix,
    NotFullDimensional,
    SmoothnessClass,
    blowup_model,
    BlowupParams,
    build_model,
    check_assumptions,
    cpn_model,
    integer_kernel,
    lasserre_volume,
    smoothness_class,
    volume,
)
from hamloop.polytope import _recession_ray, interior_point, moments
from hamloop.selftest import random_bounded_polytope, random_weight_data, standard_grid


def blowup(tau=2, mu=1):
    W, level = blowup_model(BlowupParams(Fraction(tau), Fraction(mu)))
    return build_model(W, level)


def model_with_normals(poly):
    """The model whose kernel basis rows are the polytope's own normals."""
    Q = IntMatrix.from_rows([u for u, _ in poly.inequalities])
    W = integer_kernel(Q.transpose()).transpose()
    offsets = [c for _, c in poly.inequalities]
    return build_model(W, W.mul_vector(offsets), kernel_basis=Q, base_solution=offsets)


class TestCheckAssumptions:
    def test_cp2(self):
        rep = check_assumptions(IntMatrix.from_rows([[1, 1, 1]]))
        assert rep.rank_ok and rep.halfspace_ok
        assert rep.halfspace_witness is not None

    def test_blowup_witness_is_valid(self):
        W, _ = blowup_model(BlowupParams(2, 1))
        rep = check_assumptions(W)
        assert rep.ok
        xi = rep.halfspace_witness
        for j in range(W.cols):
            w = W.column(j)
            assert sum(Fraction(a) * b for a, b in zip(w, xi)) > 0

    def test_opposite_vectors_fail(self):
        rep = check_assumptions(IntMatrix.from_rows([[1, -1]]))
        assert rep.rank_ok and not rep.halfspace_ok
        assert rep.halfspace_witness is None

    def test_rank_deficient(self):
        W = IntMatrix.from_rows([[1, 1], [1, 1]])
        rep = check_assumptions(W)
        assert not rep.rank_ok


class TestBuildModel:
    def test_cp1_segment(self):
        W, level = cpn_model(1, Fraction(1))
        model = build_model(W, level)
        assert model.dim == 1
        assert len(model.polytope.vertices) == 2
        assert volume(model.polytope) == 1
        assert len(model.slices) == 2

    def test_blowup_shape(self):
        model = blowup()
        assert model.dim == 3
        assert len(model.polytope.vertices) == 6
        assert len(model.polytope.inequalities) == 5
        assert volume(model.polytope) == Fraction(7, 6)

    def test_negative_level_is_empty(self):
        W, _ = cpn_model(1, Fraction(1))
        with pytest.raises(EmptyPolytope):
            build_model(W, (Fraction(-1),))

    def test_assumption_violation_raises(self):
        with pytest.raises(AssumptionsViolated):
            build_model(IntMatrix.from_rows([[1, -1]]), (Fraction(1),))

    def test_irregular_level(self):
        # weights (1), (1), (2): level 0 pinches the polytope to a point
        W = IntMatrix.from_rows([[1, 1, 2]])
        with pytest.raises(NotFullDimensional):
            build_model(W, (Fraction(0),))

    def test_slice_relation_holds_at_random_points(self):
        rng = random.Random(314)
        model = blowup(tau=Fraction(7, 3), mu=Fraction(1, 2))
        for _ in range(10):
            x = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                 for _ in range(model.dim)]
            for i in range(model.r):
                w = model.weights.row(i)
                total = sum(w[k] * model.slices[k](x) for k in range(model.m))
                assert total == model.level[i]

    def test_scales_retained(self):
        # weights (1) and (2): the kernel row for coordinate with weight 2
        # columns: w1=(1), w2=(2); kernel basis (2, -1) up to sign
        W = IntMatrix.from_rows([[1, 2]])
        model = build_model(W, (Fraction(1),))
        assert sorted(s for s in model.scales) == [1, 2]
        for k in range(model.m):
            facet = model.facets[k]
            row = model.kernel_basis.row(k)
            assert tuple(model.scales[k] * e for e in facet.normal) == row

    def test_constant_slice_tolerated(self):
        # column w1 lies in the row space: slice 1 is constant, never a facet
        W = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1]])
        model = build_model(W, (Fraction(2), Fraction(1)))
        assert model.dim == 1
        assert model.facets[0] is None and model.scales[0] is None
        assert model.facet_moments[0] is None
        assert model.slices[0].gradient == (Fraction(0),)
        assert model.slices[0].constant == 2


class TestSmoothness:
    def test_cp2_is_delzant(self):
        W, level = cpn_model(2, Fraction(5, 2))
        assert smoothness_class(build_model(W, level)) == SmoothnessClass.DELZANT

    def test_blowup_is_delzant(self):
        assert smoothness_class(blowup()) == SmoothnessClass.DELZANT

    def test_weighted_case_is_simple_only(self):
        W = IntMatrix.from_rows([[1, 1, 2]])
        model = build_model(W, (Fraction(1),))
        assert smoothness_class(model) == SmoothnessClass.SIMPLE_ONLY


class TestChoiceIndependence:
    def test_polytope_summary_stable_under_kernel_change(self):
        from hamloop.selftest import random_unimodular
        from hamloop import facet_lattice_volume

        rng = random.Random(808)
        base = blowup()
        W, level = blowup_model(BlowupParams(2, 1))
        for _ in range(5):
            U = random_unimodular(rng, base.dim)
            shift = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(base.dim)]
            moved = tuple(s + d for s, d in
                          zip(base.base_solution, base.kernel_basis.mul_vector(shift)))
            other = build_model(W, level, kernel_basis=base.kernel_basis @ U,
                                base_solution=moved)
            assert len(other.polytope.vertices) == len(base.polytope.vertices)
            assert volume(other.polytope) == volume(base.polytope)
            for k in range(base.m):
                assert facet_lattice_volume(other.facets[k]) == \
                    facet_lattice_volume(base.facets[k])


class TestMoments:
    """The stored moments agree with the divergence recursion and with the
    triangulation from the other apex."""

    def test_random_weight_data(self):
        rng = random.Random(4242)
        for _ in range(10):
            model = build_model(*random_weight_data(rng))
            assert model.moments.mass == lasserre_volume(model.polytope)
            assert model.moments == moments(model.polytope, "lexmax")

    def test_random_bounded_polytopes(self):
        rng = random.Random(4243)
        regular = 0
        for _ in range(10):
            poly = random_bounded_polytope(rng)
            try:
                model = model_with_normals(poly)
            except NotFullDimensional:
                # a vertex on more than n facets is a level off the regular values
                assert any(len(tight) != poly.dim for tight in poly.incidence)
                continue
            regular += 1
            assert model.polytope.vertices == poly.vertices
            assert model.moments.mass == lasserre_volume(model.polytope)
            assert model.moments == moments(model.polytope, "lexmax")
        assert regular > 0


class TestHypothesesImplyFourierMotzkinChecks:
    """build_model runs no Fourier-Motzkin test on its polytope: the
    half-space check implies boundedness and the regular-level check implies
    full dimension. Fourier-Motzkin stays the reference for both."""

    def test_models_are_bounded_and_full_dimensional(self):
        rng = random.Random(2026)
        models = [blowup(p.tau, p.mu) for p in standard_grid()]
        for _ in range(172):
            try:
                models.append(build_model(*random_weight_data(rng)))
            except NotFullDimensional:
                continue
        assert len(models) > 150
        for model in models:
            poly = model.polytope
            assert _recession_ray(model.dim, [u for u, _ in poly.inequalities]) is None
            x = interior_point(model.dim, poly.inequalities)
            # constant slices are positive constants, or build_model refuses
            assert x is not None and all(s(x) > 0 for s in model.slices)
