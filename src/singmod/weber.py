"""The g_{2n} engine: weighted sums over form classes and the product formula.

For m = 2n = 2 * (product of t distinct odd primes) with every reduced form of
determinant m diagonal, the surviving weighted sums pair each odd fundamental
discriminant delta = 5 mod 8 dividing m with its complement delta' = -4m/delta
and yield

    g_m ** (2h) = prod over survivors of eps(delta_+) ** (K(delta) K(delta'))

where h = 2^t, eps is the minimal even-Pell unit of the positive member of the
pair and K the weighted class counts (qforms.weighted_class_number), which the
Dirichlet class number formula ties to L(1, chi_delta) L(1, chi_delta').  Both
come from form cycles, so the product is exact; only its cross-check against
the q-series is numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from . import arith, highprec, pell, qforms
from .surd import UnitProduct


@dataclass(frozen=True)
class DiscPair:
    delta: int
    delta_prime: int

    @property
    def positive(self) -> int:
        return self.delta if self.delta > 0 else self.delta_prime

    @property
    def negative(self) -> int:
        return self.delta if self.delta < 0 else self.delta_prime


def _check_m(m: int) -> None:
    if m < 2 or m % 2 or not arith.is_squarefree(m):
        raise ValueError(f"need m = 2 * product of distinct odd primes, got {m}")


def disc_pairs(m: int) -> list[DiscPair]:
    """All 2^t pairs (delta, delta') with delta odd fundamental, delta*delta' = -4m."""
    _check_m(m)
    pairs = []
    for delta in arith.fundamental_discriminants_dividing(-4 * m):
        pairs.append(DiscPair(delta, -4 * m // delta))
    return pairs


@dataclass
class SurvivingSum:
    """One surviving weighted sum: coefficients of ln g_{m/A^2} per pair."""

    delta: int
    pair: DiscPair
    coefficients: dict[int, int] = field(default_factory=dict)  # odd A -> +-2

    def k_product(self) -> Fraction:
        return qforms.weighted_class_number(self.delta) * qforms.weighted_class_number(
            self.pair.delta_prime
        )


def surviving_sums(m: int) -> list[SurvivingSum]:
    """The weighted sums that survive the first cancellation: (2/delta) = -1.

    The coefficient of ln g_{m/A^2} in the sum for delta is
    chi(delta, Q) - chi(delta, Q') = 2 chi(delta, Q) over the pair with odd A.
    """
    _check_m(m)
    return _survivors(m, qforms.homologue_pairs(qforms.reduced_forms(-4 * m)))


def _survivors(m: int, pairs) -> list[SurvivingSum]:
    """`surviving_sums` over the given homologue pairs of the reduced forms of -4m."""
    out = []
    for dp in disc_pairs(m):
        if arith.kronecker(2, dp.delta) != -1:
            continue
        coeffs = {}
        for Q, Qp in pairs:
            coeffs[Q.a] = qforms.chi(dp.delta, Q) - qforms.chi(dp.delta, Qp)
        out.append(SurvivingSum(dp.delta, dp, coeffs))
    return out


def g2n(n: int, prec: int = 60) -> tuple[UnitProduct, mp.mpf]:
    """Weber's invariant g_{2n} as an exact unit product and a numeric value.

    The numeric value of the product is cross-checked against the theta
    series of `highprec.gn_numeric`; disagreement raises ArithmeticError.
    """
    m = 2 * n
    _check_m(m)
    with highprec.working_precision(prec):  # rejects prec < 1 before the exact work
        forms = qforms.reduced_forms(-4 * m)
        h = len(forms)
        product = UnitProduct()
        for s in _survivors(m, qforms.homologue_pairs(forms)):
            sol = pell.solve_even_pell(s.pair.positive)
            eps = pell.unit_value(sol)
            product = product * UnitProduct([(eps, Fraction(s.k_product(), 2 * h))])
        value = product.value()
        check = highprec.gn_numeric(m, prec)
        if abs(value - check) > abs(check) * mp.mpf(10) ** (8 - prec):
            raise ArithmeticError(
                f"g_{m} unit product disagrees with its q-series: {value} vs {check}"
            )
    return product, value


def weighted_sum_table(m: int) -> dict:
    """The Jacobi-symbol table, per-pair coefficient differences and survivors.

    Returns a dict with keys 'deltas', 'rows' (A+C labels against chi values),
    'differences' (per delta, per odd A) and 'survivors'.
    """
    _check_m(m)
    forms = qforms.reduced_forms(-4 * m)
    pairs = qforms.homologue_pairs(forms)
    deltas = arith.fundamental_discriminants_dividing(-4 * m)
    rows = []
    for F in forms:
        rows.append(
            {
                "form": F,
                "label": F.a + F.c,
                "chi": {d: qforms.chi(d, F) for d in deltas},
            }
        )
    differences = {}
    for d in deltas:
        differences[d] = {Q.a: qforms.chi(d, Q) - qforms.chi(d, Qp) for Q, Qp in pairs}
    return {
        "m": m,
        "deltas": deltas,
        "rows": rows,
        "differences": differences,
        "survivors": _survivors(m, pairs),
    }
