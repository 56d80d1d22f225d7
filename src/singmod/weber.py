"""The g_{2n} engine: weighted sums over form classes and the product formula.

For a convenient m = 2n (`is_convenient`: 2 * (product of t distinct odd
primes) with every reduced form of determinant m diagonal), the surviving
weighted sums pair each odd fundamental discriminant delta = 5 mod 8 dividing m
with its complement delta' = -4m/delta and yield

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


def is_convenient(m: int) -> bool:
    """True for m = 2 * (odd squarefree) with every reduced form of -4m diagonal.

    These are the m the product formula and the exact descent cover: below
    3000 exactly the 15 idoneal m = 2, 6, 10, 22, 30, 42, 58, 70, 78, 102, 130,
    190, 210, 330, 462.  The forms scan stops at the first non-diagonal reduced
    form, before the squarefree test trial-divides.
    """
    return (
        m > 0
        and m % 4 == 2
        and all(F.b == 0 for F in qforms.iter_reduced_forms(-4 * m))
        and arith.is_squarefree(m // 2)
    )


def _check_m(m: int) -> None:
    if not is_convenient(m):
        raise ValueError(f"need m = 2 * distinct odd primes with only diagonal forms of -4m, got {m}")


def disc_pairs(m: int) -> list[DiscPair]:
    """All 2^t pairs (delta, delta') with delta odd fundamental, delta*delta' = -4m."""
    return [DiscPair(d, -4 * m // d) for d in arith.fundamental_discriminants_dividing(-4 * m)]


@dataclass
class SurvivingSum:
    """One weighted sum that survives the first cancellation: (2/delta) = -1.

    The coefficient of ln g_{m/A^2} in the sum for delta is
    chi(delta, Q) - chi(delta, Q') = 2 chi(delta, Q) over the pair with odd A.
    """

    delta: int
    pair: DiscPair
    coefficients: dict[int, int] = field(default_factory=dict)  # odd A -> +-2


def g2n(n: int, prec: int = 60) -> tuple[UnitProduct, mp.mpf]:
    """Weber's invariant g_{2n} as an exact unit product and a numeric value.

    The product runs over the pairs with (2/delta) = -1; the weighted sums of
    the other pairs cancel.  Its numeric value is cross-checked against the
    theta series of `highprec.gn_numeric`; disagreement raises ArithmeticError.
    """
    m = 2 * n
    _check_m(m)
    with highprec.working_precision(prec):  # rejects prec < 1 before the exact work
        pairs = disc_pairs(m)
        h = len(pairs)  # every form of -4m is diagonal, so each class is its own genus: h = 2^t
        product = UnitProduct()
        for dp in pairs:
            if arith.kronecker(2, dp.delta) != -1:
                continue
            eps = pell.unit_value(pell.solve_even_pell(dp.positive))
            k = qforms.weighted_class_number(dp.delta) * qforms.weighted_class_number(dp.delta_prime)
            product = product * UnitProduct([(eps, Fraction(k, 2 * h))])
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
    survivors = [
        SurvivingSum(dp.delta, dp, differences[dp.delta])
        for dp in disc_pairs(m)
        if arith.kronecker(2, dp.delta) == -1
    ]
    return {
        "m": m,
        "deltas": deltas,
        "rows": rows,
        "differences": differences,
        "survivors": survivors,
    }
