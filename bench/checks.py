"""Output checks for the benchmark's operations, run outside the timed region.

Every check is made by the benchmark itself, not by the code under test:
exact identities are tested by multiplying out in the surd field (no square
roots are taken), and every modulus is re-checked against K(k')/K(k) = sqrt(n)
through mpmath's own AGM.  A check ends in one of five verdicts:

- ``pass``: the output is what was asked for;
- ``raised``: the operation raised instead of answering;
- ``residual``: the program's own residual misses the requested precision,
  so the program reports the shortfall itself;
- ``understated``: the program's residual passes but the independent one
  misses the precision, so the answer is less accurate than reported;
- ``wrong``: an exact identity fails, a value lies outside its range, or a
  coefficient or factor differs from the reference.  Any such op makes the
  run's ``correct`` false.

Every verdict but ``pass`` counts as a failed op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp

from singmod.surd import SurdElement

PREC = 50  # digits requested from singular_modulus
EPSTEIN_PREC = 30  # digits requested from the Epstein limit-formula checks
JPOLY_PREC = 1000  # digits requested from class_polynomial

# `singmod verify ratio` passes an exact modulus when its residual is below this.
EXACT_RATIO_TOL = mp.mpf("1e-30")

# Factor signatures of k_30 and k_210 as printed in the paper.
PAPER_FACTORS = {
    30: {
        "5 - 2*sqrt(6)": 1,
        "4 - sqrt(15)": 1,
        "sqrt(6) - sqrt(5)": 1,
        "2 - sqrt(3)": 1,
    },
    210: {
        "4 - sqrt(15)": 2,
        "8 - 3*sqrt(7)": 1,
        "6 - sqrt(35)": 1,
        "2 - sqrt(3)": 1,
        "sqrt(7) - sqrt(6)": 2,
        "sqrt(10) - 3": 2,
        "sqrt(2) - 1": 2,
        "sqrt(15) - sqrt(14)": 1,
    },
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def numeric_tol(prec: int):
    """Residual a numeric answer at `prec` digits must stay below: 10^(10 - prec)."""
    return mp.mpf(10) ** (10 - prec)


def load_reference() -> dict[int, list[int]]:
    """Class polynomial coefficients by discriminant, highest degree first."""
    data = json.loads(REFERENCE_PATH.read_text())
    return {int(d): coeffs for d, coeffs in data["class_polynomials"].items()}


@dataclass
class Verdict:
    kind: str  # pass, raised, residual, understated or wrong
    reason: str = ""
    residual: object = None  # the program's own residual, when it returns one
    route: str = ""  # exact, closed or numeric, for singular_modulus ops

    @property
    def passed(self) -> bool:
        return self.kind == "pass"


def independent_ratio_residual(k, n: int):
    """K(k')/K(k) - sqrt(n) = agm(1, k')/agm(1, k) - sqrt(n), via mpmath's agm."""
    with mp.workdps(PREC + 20):
        k = mp.mpf(k)
        if not 0 < k < 1:
            return mp.inf
        kp = mp.sqrt((1 - k) * (1 + k))
        return mp.agm(1, kp) / mp.agm(1, k) - mp.sqrt(n)


def route_of(sm) -> str:
    if sm.witness is not None:
        return "exact"
    if sm.k_surd is not None:
        return "closed"
    return "numeric"


def _witness_errors(sm, g12: SurdElement) -> str:
    """The descent identities of the witness, checked by squaring, not by roots."""
    w = sm.witness
    if w.s1 + w.s2 != g12:
        return "s1 + s2 != g^12"
    if w.alpha * w.beta != w.s1 * w.s1:
        return "alpha beta != s1^2"
    if (w.alpha + 1) * (w.beta - 1) != w.s2 * w.s2:
        return "(alpha + 1)(beta - 1) != s2^2"
    # alpha = ab + (a+1)(b-1) + 2 sqrt(ab (a+1)(b-1)), and the same for beta
    for x, y, z, shift in ((w.a, w.b, w.alpha, 1), (w.c, w.d, w.beta, -1)):
        p = x * y
        q = (x + shift) * (y - 1)
        t = z - p - q
        if t.sign() < 0 or t * t != 4 * p * q:
            return "quartet does not rebuild alpha/beta"
    return ""


def check_modulus(n: int, sm) -> Verdict:
    """Check one singular_modulus(n, PREC) result."""
    route = route_of(sm)
    res = sm.ratio_residual
    tol = EXACT_RATIO_TOL if route == "exact" else numeric_tol(PREC)
    if route != "numeric":
        k = sm.k_surd
        if k.sign() <= 0 or (k - 1).sign() >= 0:
            return Verdict("wrong", "k outside (0, 1)", res, route)
        # k is a small difference of large terms: evaluate well past the
        # digits that cancel before comparing it with the numeric k.
        with mp.workdps(4 * PREC):
            kv = k.evalf()
            if not abs(mp.mpf(sm.k_numeric) - kv) < kv * tol:
                return Verdict("wrong", "k_numeric differs from the exact k", res, route)
    if route == "exact":
        if not sm.simplified:
            return Verdict("wrong", "k product not reduced to fundamental units", res, route)
        if sm.k_product.expand_exact() != k:
            return Verdict("wrong", "k product does not expand to k", res, route)
        g12 = (sm.g_product**12).expand_exact()
        if 1 / k - k != 2 * g12:
            return Verdict("wrong", "1/k - k != 2 g^12", res, route)
        err = _witness_errors(sm, g12)
        if err:
            return Verdict("wrong", err, res, route)
        paper = PAPER_FACTORS.get(n)
        if paper is not None:
            signature = {str(b): int(e) for b, e in sm.k_product.factors}
            if signature != paper:
                return Verdict("wrong", "factors differ from the paper", res, route)
    if not abs(res) < tol:
        return Verdict("residual", f"ratio residual {mp.nstr(res, 3)}", res, route)
    if not abs(independent_ratio_residual(sm.k_numeric, n)) < tol:
        return Verdict("understated", "independent ratio residual misses the tolerance", res, route)
    return Verdict("pass", "", res, route)


def check_class_polynomial(disc: int, coeffs, reference: dict[int, list[int]]) -> Verdict:
    ref = reference[disc]
    if len(coeffs) != len(ref):
        return Verdict("wrong", f"degree {len(coeffs) - 1}, expected h = {len(ref) - 1}")
    if coeffs[0] != 1:
        return Verdict("wrong", "not monic")
    if list(coeffs) != ref:
        return Verdict("wrong", "coefficients differ from the reference")
    return Verdict("pass")


def check_epstein(residual) -> Verdict:
    if not abs(residual) < numeric_tol(EPSTEIN_PREC):
        return Verdict("residual", f"residual {mp.nstr(residual, 3)}", residual)
    return Verdict("pass", "", residual)


def witness_verify_fails(sm) -> bool:
    """True when the library's own DescentWitness.verify() rejects or raises.

    Recorded beside the op verdict, not in it: today verify() raises
    NotASquareError on the correct n = 462 witness, because it calls exact_sqrt
    without the ambient primes the descent itself used.
    """
    try:
        return not sm.witness.verify()
    except ArithmeticError:
        return True
