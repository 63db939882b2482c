"""Deliberately broken builds must be caught by the right comparisons.

These tests document which checks detect which aggregation mistakes: an
un-normalized facet measure is caught by the tabulated facet values, and a
wrong aggregate factor (-n instead of -n!) slips past the segment family
(where the two coincide) but not past the blow-up grid.
"""

from fractions import Fraction

from hamloop import (
    BlowupParams,
    blowup_model,
    build_model,
    cpn_model,
    facet_values_closed_form,
    invariant_closed_form,
)
import hamloop.invariant as invariant
import hamloop.polytope as polytope


def _blowup_model():
    W, level = blowup_model(BlowupParams(Fraction(2), Fraction(1)))
    return build_model(W, level)


def test_unnormalized_facet_measure_fails_facet_comparison(monkeypatch):
    lattice_measure = polytope._facet_cell_measure

    def euclidean_ish(facet, cell):
        # drop the 1/<u,u> lattice normalization
        return lattice_measure(facet, cell) * facet.normal_norm_sq

    monkeypatch.setattr(polytope, "_facet_cell_measure", euclidean_ish)
    model = _blowup_model()
    p = BlowupParams(Fraction(2), Fraction(1))
    rep = invariant.invariant_coordinate(model, 0)
    # the axis facets are unaffected, the slanted one (norm_sq = 3) is not
    assert rep.facet_contributions != facet_values_closed_form(p, 0)
    assert rep.invariant != invariant_closed_form(p, 0)


def test_linear_factor_slips_past_segments_but_not_the_blowup(monkeypatch):
    monkeypatch.setattr(invariant, "factorial", lambda n: n)

    # n = 1: the factors coincide, the family cannot catch the mutation
    W, level = cpn_model(1, Fraction(2))
    seg = build_model(W, level)
    assert invariant.invariant_coordinate(seg, 0).invariant == 0

    # n = 3: the blow-up comparison catches it
    model = _blowup_model()
    p = BlowupParams(Fraction(2), Fraction(1))
    rep = invariant.invariant_coordinate(model, 0)
    assert rep.invariant != invariant_closed_form(p, 0)
    assert rep.invariant == invariant_closed_form(p, 0) / 2  # -n vs -n! at n=3


def test_unmutated_build_passes(capsys):
    from hamloop.selftest import suite_blowup_grid

    result = suite_blowup_grid()
    assert result.passed, result.detail
