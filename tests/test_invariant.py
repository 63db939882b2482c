import random
from fractions import Fraction
from math import factorial

import pytest

from hamloop import (
    AffineForm,
    BlowupParams,
    LoopSpec,
    NotFullDimensional,
    Verdict,
    blowup_model,
    build_model,
    cpn_model,
    integrate_affine,
    invariant_coordinate,
    invariant_loop,
    verdict,
)
from hamloop.selftest import random_weight_data, standard_grid


def blowup_pipeline(tau, mu):
    W, level = blowup_model(BlowupParams(Fraction(tau), Fraction(mu)))
    return build_model(W, level)


class TestNormalizedConstant:
    @pytest.mark.parametrize("tau", [Fraction(1), Fraction(2), Fraction(7, 3)])
    def test_cp1(self, tau):
        W, level = cpn_model(1, tau)
        assert invariant_coordinate(build_model(W, level), 0).kappa == tau / 2

    @pytest.mark.parametrize("tau", [Fraction(1), Fraction(3), Fraction(5, 2)])
    def test_cp2(self, tau):
        W, level = cpn_model(2, tau)
        assert invariant_coordinate(build_model(W, level), 0).kappa == tau / 3

    def test_blowup(self):
        assert invariant_coordinate(blowup_pipeline(2, 1), 0).kappa == Fraction(15, 28)


class TestFacetContribution:
    def test_tabulated_values(self):
        model = blowup_pipeline(2, 1)
        contributions = invariant_coordinate(model, 0).facet_contributions
        assert contributions[2] == Fraction(-44, 28)
        assert contributions[0] == Fraction(135, 28)
        assert contributions[3] == Fraction(17, 28)


class TestInvariantCoordinate:
    @pytest.mark.parametrize("tau", [Fraction(1), Fraction(2), Fraction(7, 3)])
    def test_cp1_vanishes(self, tau):
        W, level = cpn_model(1, tau)
        rep = invariant_coordinate(build_model(W, level), 0)
        assert rep.invariant == 0
        assert rep.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("tau", [Fraction(1), Fraction(3), Fraction(5, 2)])
    def test_cp2_vanishes(self, tau):
        W, level = cpn_model(2, tau)
        assert invariant_coordinate(build_model(W, level), 0).invariant == 0

    def test_blowup_spot_value(self):
        rep = invariant_coordinate(blowup_pipeline(2, 1), 0)
        assert rep.invariant == Fraction(-1, 2)
        assert rep.kappa == Fraction(15, 28)
        assert rep.facet_contributions == (
            Fraction(135, 28), Fraction(-61, 28), Fraction(-44, 28),
            Fraction(17, 28), Fraction(-61, 28))
        assert rep.verdict is Verdict.INFINITE_CYCLIC
        assert sum(rep.facet_contributions) == rep.invariant

    def test_blowup_second_spot(self):
        rep = invariant_coordinate(blowup_pipeline(1, Fraction(1, 2)), 0)
        assert rep.invariant == Fraction(-1, 16)
        assert rep.kappa == Fraction(15, 56)


class TestLoopSpec:
    def test_coerces_to_int_tuple(self):
        assert LoopSpec([1, 0]) == LoopSpec((1, 0))
        assert hash(LoopSpec([1, 0])) == hash(LoopSpec((1, 0)))
        assert all(type(c) is int for c in LoopSpec([True, Fraction(2)]).weights)
        assert LoopSpec((1, 0)) != LoopSpec((0, 1))


class TestInvariantLoop:
    def test_coordinate_three(self):
        rep = invariant_loop(blowup_pipeline(2, 1), LoopSpec((0, 0, 1, 0, 0)))
        assert rep.invariant == Fraction(3, 2)
        assert rep.kappa == Fraction(11, 28)

    def test_coordinate_four(self):
        rep = invariant_loop(blowup_pipeline(2, 1), (0, 0, 0, 1, 0))
        assert rep.invariant == Fraction(-3, 2)
        assert rep.kappa == Fraction(17, 28)

    def test_weight_row_is_null(self):
        model = blowup_pipeline(2, 1)
        rep = invariant_loop(model, (1, 1, 1, 0, 1))
        assert rep.invariant == 0
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_linearity_against_coordinates(self):
        model = blowup_pipeline(Fraction(5, 2), Fraction(3, 4))
        weights = (2, -1, 3, 0, 1)
        rep = invariant_loop(model, weights)
        total = sum(w * invariant_coordinate(model, a).invariant
                    for a, w in enumerate(weights))
        assert rep.invariant == total

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            invariant_loop(blowup_pipeline(2, 1), (1, 0))


class TestVerdict:
    def test_nonzero(self):
        assert verdict(Fraction(-1, 2)) is Verdict.INFINITE_CYCLIC
        assert verdict(Fraction(7, 3)) is Verdict.INFINITE_CYCLIC

    def test_zero_is_inconclusive(self):
        assert verdict(Fraction(0)) is Verdict.INCONCLUSIVE

    def test_wording(self):
        assert Verdict.INFINITE_CYCLIC.value == "infinite cyclic subgroup in pi_1(Ham)"
        assert Verdict.INCONCLUSIVE.value == "inconclusive"


class TestStructuralProperties:
    def test_normalization_integral_vanishes(self):
        model = blowup_pipeline(Fraction(7, 3), Fraction(2, 3))
        for a in range(model.m):
            kappa = invariant_coordinate(model, a).kappa
            centered = model.slices[a] + AffineForm.make(-kappa, (0,) * model.dim)
            assert integrate_affine(model.polytope, centered) == 0

    def test_equal_columns_give_equal_invariants(self):
        model = blowup_pipeline(Fraction(3), Fraction(4, 3))
        reps = [invariant_coordinate(model, a) for a in range(model.m)]
        # coordinates 0, 1, 4 carry the same weight column
        assert reps[0].kappa == reps[1].kappa == reps[4].kappa
        assert reps[0].invariant == reps[1].invariant == reps[4].invariant

    def test_kappa_relation_constants(self):
        model = blowup_pipeline(Fraction(9, 4), Fraction(1, 2))
        kappas = [invariant_coordinate(model, a).kappa for a in range(model.m)]
        for i in range(model.r):
            w = model.weights.row(i)
            assert sum(wk * k for wk, k in zip(w, kappas)) == model.level[i]

    def test_scaling_degree_three(self):
        base = invariant_coordinate(blowup_pipeline(2, 1), 0).invariant
        for gamma in (Fraction(2), Fraction(1, 3)):
            scaled = invariant_coordinate(
                blowup_pipeline(2 * gamma, gamma), 0).invariant
            assert scaled == gamma**3 * base

    def test_torus_rows_null_on_grid_sample(self):
        for p in standard_grid()[:6]:
            model = blowup_pipeline(p.tau, p.mu)
            for i in range(model.r):
                assert invariant_loop(model, model.weights.row(i)).invariant == 0

    def test_torus_rows_null_facet_by_facet(self):
        # sum_a W_ia Q_a = 0, so each facet term of a W-row loop vanishes alone
        rng = random.Random(2027)
        models = [blowup_pipeline(p.tau, p.mu) for p in standard_grid()]
        for _ in range(40):
            try:
                models.append(build_model(*random_weight_data(rng)))
            except NotFullDimensional:
                continue
        for model in models:
            for i in range(model.r):
                rep = invariant_loop(model, model.weights.row(i))
                assert rep.facet_contributions == (0,) * model.m

    def test_monotone_level(self):
        # At tau = lam * sum_a w_a every slice equals lam at one point; with
        # every scale 1 the divergence theorem gives I(e_a) from moments alone.
        rng = random.Random(2028)
        cases = [(blowup_model(BlowupParams(2, 1))[0], lam)
                 for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(1))]
        cases += [(random_weight_data(rng)[0], Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                  for _ in range(60)]
        checked = 0
        for W, lam in cases:
            level = tuple(lam * sum(W.row(i)) for i in range(W.rows))
            try:
                model = build_model(W, level)
            except NotFullDimensional:
                continue
            if not set(model.scales) <= {None, 1}:
                continue
            for a in range(model.m):
                rep = invariant_coordinate(model, a)
                assert rep.invariant == \
                    -factorial(model.dim) * model.moments.mass * (rep.kappa / lam - 1)
                checked += 1
        assert checked > 100

    def test_reports_identical_across_choices(self):
        from hamloop.selftest import random_unimodular

        rng = random.Random(6060)
        W, level = blowup_model(BlowupParams(2, 1))
        base = build_model(W, level)
        base_reports = [invariant_coordinate(base, a) for a in range(base.m)]
        for _ in range(5):
            U = random_unimodular(rng, base.dim)
            t = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 for _ in range(base.dim)]
            moved = tuple(s + d for s, d in
                          zip(base.base_solution, base.kernel_basis.mul_vector(t)))
            other = build_model(W, level, kernel_basis=base.kernel_basis @ U,
                                base_solution=moved)
            for a in range(base.m):
                assert invariant_coordinate(other, a) == base_reports[a]
