"""Characteristic numbers of coordinate-rotation loops.

For the loop rotating coordinate a, the normalized constant kappa_a is the
mean of slice a over the polytope, and each coordinate k contributes

    N_k = -n! * ( int_{F_k} s_a dm  -  kappa_a * vol_lattice(F_k) )

with F_k the facet where slice k vanishes and dm its lattice measure. The
-n! factor folds the loop-degree factor -n together with the (n-1)! that
converts lattice facet measure back to the symplectic convention; the total
invariant is the sum over all m coordinates. Integer-weight loops combine
linearly (the invariant is a group homomorphism), never by re-deriving the
facet formula for combined rotations.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional, Sequence, Union

from .delzant import DelzantModel
from .polytope import AffineForm, Moments


class Verdict(enum.Enum):
    INFINITE_CYCLIC = "infinite cyclic subgroup in pi_1(Ham)"
    INCONCLUSIVE = "inconclusive"


class LoopSpec:
    """Integer weight per coordinate; weight c rotates that coordinate c times."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[int]) -> None:
        self.weights = tuple(int(c) for c in weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopSpec):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self) -> int:
        return hash(self.weights)

    def __repr__(self) -> str:
        return f"LoopSpec(weights={self.weights})"

    @classmethod
    def coordinate(cls, m: int, index: int) -> "LoopSpec":
        if not 0 <= index < m:
            raise ValueError(f"coordinate index {index} out of range for m={m}")
        return cls(tuple(1 if k == index else 0 for k in range(m)))


class InvariantReport(NamedTuple):
    loop: LoopSpec
    kappa: Fraction
    facet_contributions: tuple[Fraction, ...]
    invariant: Fraction
    verdict: Verdict


def verdict(value: Fraction) -> Verdict:
    """Nonzero certifies an infinite cyclic subgroup; zero proves nothing."""
    return Verdict.INFINITE_CYCLIC if value != 0 else Verdict.INCONCLUSIVE


def invariant_coordinate(model: DelzantModel, coord: int) -> InvariantReport:
    """Full report for the loop rotating one coordinate."""
    loop = LoopSpec.coordinate(model.m, coord)
    s = model.slices[coord]
    kappa = model.moments.integrate(s) / model.moments.mass
    fact = factorial(model.dim)
    contributions = tuple(_facet_term(facet, s, kappa, fact)
                          for facet in model.facet_moments)
    total = sum(contributions, Fraction(0))
    return InvariantReport(loop, kappa, contributions, total, verdict(total))


def invariant_loop(model: DelzantModel,
                   loop: Union[LoopSpec, Sequence[int]]) -> InvariantReport:
    """Invariant of an integer-weight loop by linearity over coordinates."""
    chosen = loop if isinstance(loop, LoopSpec) else LoopSpec(tuple(loop))
    if len(chosen.weights) != model.m:
        raise ValueError(f"loop weights must have length m={model.m}")
    kappa = Fraction(0)
    contributions = [Fraction(0)] * model.m
    for coord, weight in enumerate(chosen.weights):
        if weight == 0:
            continue
        rep = invariant_coordinate(model, coord)
        kappa += weight * rep.kappa
        contributions = [acc + weight * x
                         for acc, x in zip(contributions, rep.facet_contributions)]
    total = sum(contributions, Fraction(0))
    return InvariantReport(chosen, kappa, tuple(contributions), total, verdict(total))


def _facet_term(facet: Optional[Moments], s: AffineForm,
                kappa: Fraction, fact: int) -> Fraction:
    if facet is None:
        return Fraction(0)
    return -fact * (facet.integrate(s) - kappa * facet.mass)
