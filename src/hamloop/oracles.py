"""Closed-form reference values for the two worked manifold families.

Everything here is a direct formula transcription sharing no computation
with the polytope pipeline; the test suites compare the two routes point
by point. Coordinates are 0-based: on the blow-up family the rotations of
coordinates 0, 1 and 4 are interchangeable, coordinate 2 is the one acted
on by both circles, coordinate 3 by the second circle only.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_linalg import IntMatrix


class BadParams(Exception):
    """Parameter outside the valid range; the message names the inequality."""


class InternalInconsistency(Exception):
    """Two independent closed-form routes disagree (an implementation bug)."""


class BlowupParams:
    """Sizes (tau, mu) of the blown-up family, with 0 < mu < tau."""

    __slots__ = ("tau", "mu")

    def __init__(self, tau, mu) -> None:
        self.tau = Fraction(tau)
        self.mu = Fraction(mu)
        if self.tau <= 0:
            raise BadParams("tau > 0 required")
        if self.mu <= 0:
            raise BadParams("mu > 0 required")
        if not self.mu < self.tau:
            raise BadParams("mu < tau required")

    def __repr__(self) -> str:
        return f"BlowupParams(tau={self.tau!r}, mu={self.mu!r})"

    @property
    def lam(self) -> Fraction:
        return self.tau - self.mu


def blowup_model(p: BlowupParams) -> tuple[IntMatrix, tuple[Fraction, Fraction]]:
    """Weight matrix and level of the one-point blow-up of the projective 3-space."""
    W = IntMatrix.from_rows([[1, 1, 1, 0, 1],
                             [0, 0, 1, 1, 0]])
    return W, (p.tau, p.mu)


def cpn_model(n: int, tau) -> tuple[IntMatrix, tuple[Fraction]]:
    """Weight matrix (all ones, 1 x (n+1)) and level of projective n-space."""
    if n < 1:
        raise BadParams("n >= 1 required")
    t = Fraction(tau)
    if t <= 0:
        raise BadParams("tau > 0 required")
    W = IntMatrix.from_rows([[1] * (n + 1)])
    return W, (t,)


def kappa_closed_form(p: BlowupParams, coord: int = 0) -> Fraction:
    """Normalized constant of the loop rotating `coord` on the blow-up."""
    t, l = p.tau, p.lam
    d3 = t**3 - l**3
    if coord in (0, 1, 4):
        num = t**4 - l**4
    elif coord == 2:
        num = t**4 - 4 * t * l**3 + 3 * l**4
    elif coord == 3:
        num = 3 * t**4 - 4 * l * t**3 + l**4
    else:
        raise ValueError("coordinate must be one of 0..4")
    return num / (4 * d3)


def invariant_closed_form(p: BlowupParams, coord: int = 0) -> Fraction:
    """Characteristic number of the loop rotating `coord` on the blow-up.

    The base value is evaluated both as the explicit rational function of
    (tau, lambda) and through the kappa route; coordinate 2 is additionally
    evaluated by its own facet-sum formula and compared against -3 times the
    base value. Any disagreement raises InternalInconsistency.
    """
    t, l = p.tau, p.lam
    d3 = t**3 - l**3
    base = l**2 * (-3 * t**4 + 8 * t**3 * l - 6 * t**2 * l**2 + l**4) / (2 * d3)
    alt = 6 * kappa_closed_form(p, 0) * (2 * t**2 - l**2) + l**3 - 3 * t**3
    if base != alt:
        raise InternalInconsistency(f"rational-function route {base} != kappa route {alt}")
    if coord in (0, 1, 4):
        return base
    if coord == 2:
        kt = kappa_closed_form(p, 2)
        tilde = 6 * kt * (2 * t**2 - l**2) - 3 * (t**3 - 2 * t * l**2 + l**3)
        if tilde != -3 * base:
            raise InternalInconsistency(f"direct route {tilde} != -3 * base {-3 * base}")
        return tilde
    if coord == 3:
        return 3 * base
    raise ValueError("coordinate must be one of 0..4")


def facet_values_closed_form(p: BlowupParams, coord: int = 0) -> tuple[Fraction, ...]:
    """The five per-coordinate facet contributions, in coordinate order."""
    t, l, mu = p.tau, p.lam, p.mu
    d2 = t**2 - l**2
    d3 = t**3 - l**3
    if coord == 0:
        k = kappa_closed_form(p, 0)
        a = 3 * k * d2
        b = -d3 + 3 * k * d2
        return (a, b, t**2 * (3 * k - t), l**2 * (3 * k - l), b)
    if coord == 2:
        kt = kappa_closed_form(p, 2)
        s = -3 * (t - kt) * d2 + 2 * d3
        return (s, s, 3 * kt * t**2, 3 * l**2 * (kt - mu), s)
    if coord == 3:
        kh = kappa_closed_form(p, 3)
        s = 3 * (l + kh) * d2 - 2 * d3
        return (s, s, 3 * t**2 * (kh - mu), 3 * kh * l**2, s)
    raise ValueError("facet values are tabulated for coordinates 0, 2 and 3 only")


def cpn_kappa(n: int, tau) -> Fraction:
    """Mean of one moment coordinate on projective n-space: tau / (n+1)."""
    if n < 1:
        raise BadParams("n >= 1 required")
    t = Fraction(tau)
    if t <= 0:
        raise BadParams("tau > 0 required")
    return t / (n + 1)


def cpn_invariant(n: int, tau) -> Fraction:
    """Characteristic number of a coordinate loop on projective n-space: 0."""
    cpn_kappa(n, tau)
    return Fraction(0)
