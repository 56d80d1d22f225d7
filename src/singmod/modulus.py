"""From g_n to the singular modulus k_n, numerically and as exact unit products.

The quadratic 1/k - k = 2 g^12 is solved by one chain of exact steps, with no
search.  The exact expansion of g^12 splits by radicand parity into S1 + S2
(S1 holds the rational part and the odd radicands), and the quartet a, b, c, d
follows from

    alpha*beta = S1^2,  (alpha+1)(beta-1) = S2^2,
    sqrt(alpha) = sqrt(ab) + sqrt((a+1)(b-1)),
    sqrt(beta)  = sqrt(cd) + sqrt((c-1)(d-1)),

where the halves of each root are the cosets {r0, r3} | {r1, r2} of its sorted
radicands (one term each for two terms, one half alone for one term) and the
larger half is the product side.  The root in (0, 1) is

    k = (sqrt(a+1) - sqrt(a))(sqrt(b) - sqrt(b-1))(sqrt(c) - sqrt(c-1))(sqrt(d) - sqrt(d-1)).

Every intermediate square root is an exact surd, so the defining equation is
verified by exact arithmetic, and a step that has no exact root raises
NotASquareError at once.  Each difference factor is then rewritten as a
product of fundamental quadratic units: its log embedding, Walsh-Hadamard
transformed over the quadratic subfields of its field and divided by the log
of each subfield's Pell unit, gives the exponents, and the product is rebuilt
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import arith, highprec, pell, weber
from .surd import (
    NotASquareError,
    SurdElement,
    UnitProduct,
    exact_sqrt,
    field_norm,
    rational_sqrt,
    walsh_hadamard,
)


def k_from_g_numeric(g, prec: int = 50):
    """k = 1/(G + sqrt(G^2 + 1)), G = g^12: the root of 1/k - k = 2 G in (0, 1).

    Every term is positive, so no digit cancels however large G is.  No answer
    calls it; it stays while the benchmark tracer wraps it by name.
    """
    with highprec.working_precision(prec):
        g = mp.mpf(g)
        if g <= 0:
            raise ValueError("g must be positive")
        G = g**12
        return 1 / (G + mp.sqrt(G * G + 1))


def subgroup_splits(g12: SurdElement) -> tuple[SurdElement, SurdElement]:
    """The radicand-parity split (S1, S2) of g12, the one split the descent uses.

    S1 holds the rational part and the odd radicands, S2 the even ones.  The
    odd radicands form a subgroup of index <= 2 and S2 lies on its coset, so
    S1^2, S2^2 and the alpha, beta they define all live in Q(S1's radicands).
    """
    s1 = SurdElement({d: c for d, c in g12.terms.items() if d % 2 == 1})
    return s1, g12 - s1


def solve_pair(
    p: SurdElement, q: SurdElement, shift: int, ambient_primes=None
) -> tuple[SurdElement, SurdElement]:
    """Solve uv = p, (u + shift)(v - 1) = q for shift = +-1 exactly, or NotASquareError.

    u - shift*v = t = p - q - shift is forced, so u is the positive root of
    u^2 - t u - shift*p = 0 and v = shift*(u - t).
    """
    t = p - q - shift
    root = exact_sqrt(t * t + 4 * shift * p, ambient_primes=ambient_primes)
    u = (t + root) / 2
    return u, (u - t) * shift


@dataclass
class DescentWitness:
    """The intermediates of one successful descent from g^12 to k."""

    s1: SurdElement
    s2: SurdElement
    alpha: SurdElement
    beta: SurdElement
    a: SurdElement
    b: SurdElement
    c: SurdElement
    d: SurdElement

    def verify(self) -> bool:
        """Check the defining identities exactly, squaring instead of taking roots.

        sqrt(alpha) = sqrt(P) + sqrt(Q) with P = ab, Q = (a+1)(b-1) holds iff
        t = alpha - P - Q satisfies t >= 0 and t^2 = 4PQ; likewise for beta
        with P = cd, Q = (c-1)(d-1).
        """
        if self.alpha * self.beta != self.s1 * self.s1:
            return False
        if (self.alpha + 1) * (self.beta - 1) != self.s2 * self.s2:
            return False
        for total, x, y, shift in ((self.alpha, self.a, self.b, 1), (self.beta, self.c, self.d, -1)):
            p, q = x * y, (x + shift) * (y - 1)
            t = total - p - q
            if t.sign() < 0 or t * t != 4 * p * q:
                return False
        return True


def _quartet(root: SurdElement, shift: int, ambient_primes):
    """Split sqrt(alpha) (or sqrt(beta)) into two halves and solve the pair.

    With root's radicands sorted, the halves are T1 = rads[:1] + rads[3:] and
    T2 the rest: {r0, r3} | {r1, r2} for four terms, the cosets of
    <sqrt(r0 r3)>, whose field holds the pair; one term each for two terms;
    T1 = root and T2 = 0 for one.  Any other term count raises
    NotASquareError.  The larger half, by exact sign, is the plain product
    side, solved by `solve_pair` with the given shift.  Returns (minus1,
    minus2, plus1, plus2, u, v) where minus/plus are the difference and sum
    factors sqrt(X) -+ sqrt(X - 1) built from the solved pair.
    """
    rads = sorted(root.radicands)
    if len(rads) not in (1, 2, 4):
        raise NotASquareError(f"no halves rule for the {len(rads)} terms of {root}")
    t1 = SurdElement({d: root.coefficient(d) for d in rads[:1] + rads[3:]})
    t2 = root - t1
    big, small = (t1, t2) if (t1 - t2).sign() >= 0 else (t2, t1)
    u, v = solve_pair(big * big, small * small, shift, ambient_primes)
    if (u - v).sign() < 0 or (v - 1).sign() < 0:
        raise NotASquareError("pair solution out of order")
    ru = exact_sqrt(u, ambient_primes=ambient_primes)
    ru1 = exact_sqrt(u + shift, ambient_primes=ambient_primes)
    rv = exact_sqrt(v, ambient_primes=ambient_primes)
    rv1 = exact_sqrt(v - 1, ambient_primes=ambient_primes)
    hi, lo = (ru1, ru) if shift > 0 else (ru, ru1)
    return hi - lo, rv - rv1, hi + lo, rv + rv1, u, v


def quartet_roots(s1: SurdElement, s2: SurdElement, ambient_primes=None):
    """Both roots of 1/x - x = 2 (s1 + s2) via the a, b, c, d quartet.

    Returns (x1, x2, factors, witness): x1 in (0, 1) as an exact surd, x2 the
    companion root with x1 * x2 = -1 exactly, factors the four-difference unit
    product, witness the recovered intermediates.  The defining quadratic is
    checked exactly before returning.
    """
    alpha, beta = solve_pair(s1 * s1, s2 * s2, 1, ambient_primes)
    root_alpha = exact_sqrt(alpha, ambient_primes=ambient_primes)
    root_beta = exact_sqrt(beta, ambient_primes=ambient_primes)
    f1, f2, p1, p2, a, b = _quartet(root_alpha, 1, ambient_primes)
    f3, f4, p3, p4, c, d = _quartet(root_beta, -1, ambient_primes)
    x1 = f1 * f2 * f3 * f4
    x2 = -(p1 * p2 * p3 * p4)
    if x1 * x2 != SurdElement(-1):
        raise NotASquareError("quartet roots do not multiply to -1")
    if -x2 - x1 != 2 * (s1 + s2):  # 1/x1 = -x2 by the check above
        raise NotASquareError("quartet root fails its defining quadratic")
    witness = DescentWitness(s1, s2, alpha, beta, a, b, c, d)
    factors = UnitProduct([(f1, 1), (f2, 1), (f3, 1), (f4, 1)])
    return x1, x2, factors, witness


# -- reduction of difference factors to fundamental units -------------------


def _subfield_units(x: SurdElement) -> UnitProduct:
    """x as a product of quadratic units of its own field, rebuilt exactly.

    The 2^r embeddings of K = Q(sqrt(p) : p | x) flip the signs of the primes
    picked by the bits of s.  Half the Walsh-Hadamard transform W_d of the
    values log|sigma_s(x)| is log|N_{K/Q(sqrt d)}(x)|, and for a unit
    x^(2^(r-1)) = +-prod_d N_{K/Q(sqrt d)}(x), so x has the exponent
    -W_d / (2^r log eps_d) on eps_d^-1, eps_d the even-Pell unit of Q(sqrt d).
    One transform gives every W_d.  Every eps_d is at least the golden ratio
    phi, so a W_d below 2^r log(phi)/4 in size rounds to exponent 0 and needs
    no Pell solve; elsewhere log eps_d comes from the Pell pair, and a unit is
    built exactly only for a nonzero exponent.
    eps_d^-1 = (T - U sqrt d)/2 is replaced by its square root
    w = (sqrt(T + 2) - sqrt(T - 2))/2, by (T + 2)(T - 2) = d U^2, when both
    roots lie in Q(sqrt(p) : p | d) and w has integer coefficients.
    """
    primes = x.prime_support()
    r = len(primes)
    height = max(abs(c) * d for d, c in x.terms.items())
    # Every conjugate is below B <= 2^r * height and their product is +-1, so
    # the smallest can be B^-(2^r - 1): its signed sum cancels this many digits.
    dps = (1 << r) * (len(str(math.ceil(height))) + r) + 20
    units = []
    with mp.workdps(dps):
        walsh = walsh_hadamard([mp.log(abs(v)) for v in x.embeddings(primes)])
        small = (1 << r) * mp.log(mp.phi) / 4  # |W_d| below this gives e = 0
        for mask in range(1, 1 << r):
            if abs(walsh[mask]) < small:
                continue
            sub = tuple(p for i, p in enumerate(primes) if mask >> i & 1)
            d = math.prod(sub)
            sol = pell.solve_even_pell(d)
            log_eps = mp.log((sol.T + sol.U * mp.sqrt(d)) / 2)
            e = Fraction(int(mp.nint(-2 * walsh[mask] / ((1 << r) * log_eps))), 2)
            if e == 0:
                continue
            eps = pell.unit_value(sol)
            hi, lo = rational_sqrt(sol.T + 2, sub), rational_sqrt(sol.T - 2, sub)
            w = None if hi is None or lo is None else (hi - lo) * Fraction(1, 2)
            if w is None or any(c.denominator != 1 for c in w.terms.values()):
                units.append((eps, (eps.conjugate(d), e)))
            else:
                units.append((w.inverse() if w.rational_part else eps, (w, 2 * e)))
    # Smallest fundamental unit of Q(sqrt d) first (1/w if w has a rational part,
    # else eps_d), compared exactly.
    units.sort(key=lambda t: t[0])
    rebuilt = UnitProduct(unit for _, unit in units)
    if any(e.denominator != 1 for _, e in rebuilt.factors) or rebuilt.expand_exact() != x:
        raise ArithmeticError(f"{x} is not a product of quadratic units of its field")
    return rebuilt


def factor_into_units(product: UnitProduct) -> UnitProduct:
    """Rewrite each multi-term factor as a product of fundamental quadratic units.

    Two-term unit factors (the sqrt(X) - sqrt(X-1) shapes that are already
    simple) pass through untouched.  Every other factor x is read off its log
    embedding (`_subfield_units`): each exponent of eps_d^-1 is rounded to the
    nearest half-integer, eps_d^-1 = (T - U sqrt d)/2 is replaced by its square
    root (sqrt(T + 2) - sqrt(T - 2))/2 where that has integer coefficients, and
    the product must rebuild x exactly.
    ArithmeticError is raised when it does not, e.g. when x is not a unit.
    """
    out = UnitProduct()
    for base, exp in product.factors:
        if len(base.terms) <= 2 and abs(field_norm(base)) == 1:
            out = out * UnitProduct([(base, exp)])
        else:
            out = out * _subfield_units(base) ** exp
    return out


# -- closed forms for n = 3, 7 and the full pipeline -------------------------


_CLOSED_FORMS = {
    3: SurdElement({6: Fraction(1, 4), 2: -Fraction(1, 4)}),
    7: SurdElement({2: Fraction(3, 8), 14: -Fraction(1, 8)}),
}


@dataclass
class SingularModulus:
    """The modulus k_n, alpha = k^2 and its residual, with the exact forms of its route.

    The routes in order: the exact descent sets `k_surd`, `k_product`,
    `g_product` and `witness`, a closed form only `k_surd`, a numeric k none.
    `simplified` is derived: True when the witness is set.
    """

    n: int
    k_numeric: mp.mpf
    alpha_numeric: mp.mpf
    ratio_residual: mp.mpf
    k_surd: SurdElement | None = None
    k_product: UnitProduct | None = None
    g_product: UnitProduct | None = None
    witness: DescentWitness | None = None

    @property
    def simplified(self) -> bool:
        """True for a result of the exact descent, whose k is reduced to units."""
        return self.witness is not None


def _result(n: int, k, prec: int, **exact) -> SingularModulus:
    """The one builder of a SingularModulus: numeric k, k^2 and the AGM ratio residual.

    Called inside `singular_modulus`'s working precision, so k, alpha and the
    residual K(k')/K(k) - sqrt(n) all carry its guard digits.
    """
    residual = highprec.verify_ratio_value(k, prec) - mp.sqrt(n)
    return SingularModulus(n, k, k * k, residual, **exact)


def singular_modulus(n: int, prec: int = 50) -> SingularModulus:
    """The modulus with K(k')/K(k) = sqrt(n); exact where n is convenient.

    The route is picked in this order.  A convenient n (see `weber.is_convenient`,
    n = 2 included) takes the exact descent, run once with no retry: exact
    g^12 from the unit product for g_n, its radicand-parity split
    (`subgroup_splits`), the a, b, c, d quartet with the halves rule of
    `_quartet`, exact root verification, and reduction of the four factors to
    fundamental units; NotASquareError is raised if any exact root is missing.
    There k_numeric is -1/x2, where x2 = -1/k is minus the product of the four
    sum factors sqrt(X) + sqrt(X - 1): a large value, not a small difference of
    large terms.  n = 3 and 7 take their closed forms (`_CLOSED_FORMS`).  Every
    other n is numeric: k from theta sums (`highprec.k_numeric`), its ratio
    residual below 10^(10 - prec).  Every route ends in `_result`, and
    `simplified` is derived from the witness.  ValueError for prec < 1.
    """
    with highprec.working_precision(prec):
        if weber.is_convenient(n):
            g_product, _ = weber._g2n(n, prec)  # n is convenient: one forms scan per op
            s1, s2 = subgroup_splits((g_product**12).expand_exact())
            x1, x2, factors, witness = quartet_roots(s1, s2, ambient_primes=tuple(arith.factorize(2 * n)))
            k_product = factor_into_units(factors)
            exact = dict(k_surd=x1, k_product=k_product, g_product=g_product, witness=witness)
            return _result(n, -1 / x2.evalf(), prec, **exact)
        if n in _CLOSED_FORMS:
            k = _CLOSED_FORMS[n]
            return _result(n, k.evalf(), prec, k_surd=k)
        return _result(n, highprec.k_numeric(n, prec), prec)
