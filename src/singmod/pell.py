"""Minimal solutions of the even Pell equation from the principal rho cycle; their units."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import qforms
from .surd import SurdElement


@dataclass(frozen=True)
class PellSolution:
    """Minimal (T, U) with T^2 - delta U^2 = 4; the unit is (T + U sqrt(delta))/2."""

    delta: int
    T: int
    U: int

    def __post_init__(self):
        if self.T * self.T - self.delta * self.U * self.U != 4:
            raise ValueError(f"({self.T}, {self.U}) does not solve the even Pell equation for {self.delta}")


def solve_even_pell(delta: int) -> PellSolution:
    """Minimal solution of T^2 - delta U^2 = 4 with T, U >= 1.

    The rho cycle of the principal form (1, b, c) of discriminant D = delta
    (delta = 0, 1 mod 4) or D = 4 delta (delta = 2, 3 mod 4, where parity
    forces U even) multiplies out to the automorph +-((T - bu)/2, u; -cu,
    (T + bu)/2) of the minimal solution of T^2 - D u^2 = 4; U = u or 2u.
    """
    if delta < 2 or math.isqrt(delta) ** 2 == delta:
        raise ValueError(f"need nonsquare delta >= 2, got {delta}")
    D = delta if delta % 4 in (0, 1) else 4 * delta
    _, g = qforms.rho_cycle(qforms.principal_form(D))
    return PellSolution(delta, abs(g.r + g.u), abs(g.s) * (1 if D == delta else 2))


def unit_value(sol: PellSolution) -> SurdElement:
    """The unit (T + U sqrt(delta))/2 as an exact surd; the constructor reduces the radicand."""
    return SurdElement({1: Fraction(sol.T, 2), sol.delta: Fraction(sol.U, 2)})
