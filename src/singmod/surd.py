"""Exact arithmetic in real multiquadratic fields Q(sqrt(p1), ..., sqrt(pr)).

Elements are finite sums  sum_d c_d * sqrt(d)  with squarefree radicands d >= 1
and rational coefficients c_d (d = 1 is the rational part).  The representation
is canonical -- radicands reduced to their squarefree kernel, zero coefficients
dropped -- so equality is structural.  Square roots are exact: the classical
denesting sqrt(a + b sqrt(p)) = y + b sqrt(p)/(2y), y^2 = (a +- sqrt(a^2 - p b^2))/2,
recurses down the tower of quadratic extensions to integer square roots, with
no numeric search.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from . import arith


class NotASquareError(ArithmeticError):
    """Raised when no exact square root exists in the field considered."""


def _red_mul(u: int, v: int) -> tuple[int, int]:
    """sqrt(u)*sqrt(v) = g*sqrt(w) for squarefree u, v; returns (g, w)."""
    g = math.gcd(u, v)
    return g, (u // g) * (v // g)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class SurdElement:
    """Immutable exact element of a multiquadratic field."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """From an int, a Fraction or a {radicand: coefficient} dict.

        Radicands are reduced by trial division, which stops by 10^6 below the
        limit 10^12; a radicand outside [1, 10^12) raises ValueError.
        """
        if isinstance(terms, (int, Fraction)):
            self._terms = {1: Fraction(terms)} if terms else {}
            return
        clean: dict[int, Fraction] = {}
        for rad, coef in (terms or {}).items():
            coef = _as_fraction(coef)
            if coef == 0:
                continue
            if not 1 <= rad < 10**12:
                raise ValueError(f"radicand must lie in [1, 10^12), got {rad}")
            s, d = arith.squarefree_decompose(rad)
            clean[d] = clean.get(d, Fraction(0)) + coef * s
        self._terms = {d: c for d, c in sorted(clean.items()) if c != 0}

    @classmethod
    def _reduced(cls, terms: dict[int, Fraction]) -> "SurdElement":
        """Build from squarefree radicands and Fraction coefficients, unchecked."""
        self = cls.__new__(cls)
        self._terms = {d: c for d, c in sorted(terms.items()) if c != 0}
        return self

    # -- basic structure -------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def radicands(self) -> tuple[int, ...]:
        return tuple(self._terms)

    def coefficient(self, rad: int) -> Fraction:
        return self._terms.get(rad, Fraction(0))

    @property
    def rational_part(self) -> Fraction:
        return self._terms.get(1, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def prime_support(self) -> tuple[int, ...]:
        primes: set[int] = set()
        for d in self._terms:
            primes.update(arith.factorize(d))
        return tuple(sorted(primes))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SurdElement(other)
        if not isinstance(other, SurdElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        """A rational element hashes as its rational_part, since it equals that number."""
        if self.is_rational():
            return hash(self.rational_part)
        return hash(tuple(self._terms.items()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "SurdElement":
        if isinstance(other, (int, Fraction)):
            other = SurdElement(other)
        if not isinstance(other, SurdElement):
            return NotImplemented
        out = dict(self._terms)
        for d, c in other._terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return SurdElement._reduced(out)

    __radd__ = __add__

    def __neg__(self) -> "SurdElement":
        return SurdElement._reduced({d: -c for d, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SurdElement) else -SurdElement(other))

    def __rsub__(self, other):
        return SurdElement(other) - self

    def __mul__(self, other) -> "SurdElement":
        if isinstance(other, (int, Fraction)):
            return SurdElement._reduced({d: c * other for d, c in self._terms.items()})
        if not isinstance(other, SurdElement):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g, w = _red_mul(d1, d2)
                out[w] = out.get(w, Fraction(0)) + c1 * c2 * g
        return SurdElement._reduced(out)

    __rmul__ = __mul__

    def conjugate(self, prime: int) -> "SurdElement":
        """Flip the sign of sqrt(prime) in every radicand containing it."""
        return SurdElement._reduced(
            {d: (-c if d % prime == 0 else c) for d, c in self._terms.items()}
        )

    def inverse(self) -> "SurdElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd")
        partial = self
        mult = SurdElement(1)
        for p in self.prime_support():
            if all(d % p != 0 for d in partial._terms):
                continue
            conj = partial.conjugate(p)
            mult = mult * conj
            partial = partial * conj
        if not partial.is_rational():
            raise ArithmeticError("conjugate tower failed to rationalize")
        return mult * (Fraction(1) / partial.rational_part)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        if isinstance(other, SurdElement):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return SurdElement(other) * self.inverse()

    def __pow__(self, n: int) -> "SurdElement":
        if not isinstance(n, int):
            raise TypeError("surd powers must be integers; use UnitProduct for rational exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = SurdElement(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- numerics ---------------------------------------------------------

    def evalf(self):
        """Numeric value under the identity embedding."""
        return self.embed({})

    def embed(self, signs: dict[int, int]):
        """Numeric value with sqrt(p) -> signs[p]*sqrt(p) for each generator prime."""
        total = mp.mpf(0)
        for d, c in self._terms.items():
            sign = 1
            for p, s in signs.items():
                if d % p == 0 and s < 0:
                    sign = -sign
            total += sign * mp.mpf(c.numerator) / c.denominator * mp.sqrt(d)
        return total

    def sign(self) -> int:
        """Exact sign of the identity embedding (`_sign_in_tower`)."""
        return _sign_in_tower(self, self.prime_support())

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda t: (t[1] < 0, t[0]))
        parts = []
        for d, c in ordered:
            mag = abs(c)
            if d == 1:
                body = str(mag)
            elif mag == 1:
                body = f"sqrt({d})"
            else:
                body = f"{mag}*sqrt({d})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SurdElement({str(self)!r})"


def parse_surd(text: str) -> SurdElement:
    """Parse the rendering grammar: terms c or c*sqrt(d) joined by +/-."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty surd expression")
    if s == "0":
        return SurdElement()
    tokens = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "*/(":
            tokens.append(cur)
            cur = ch
        else:
            cur += ch
    tokens.append(cur)
    terms: dict[int, Fraction] = {}
    for tok in tokens:
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        elif tok.startswith("+"):
            tok = tok[1:]
        if "sqrt(" in tok:
            coef_part, _, rad_part = tok.partition("sqrt(")
            coef_part = coef_part.rstrip("*")
            rad = int(rad_part.rstrip(")"))
            coef = Fraction(coef_part) if coef_part else Fraction(1)
        else:
            rad = 1
            coef = Fraction(tok)
        terms[rad] = terms.get(rad, Fraction(0)) + sign * coef
    return SurdElement(terms)


# -- field norm and unit recognition --------------------------------------


def field_norm(x: SurdElement, primes: tuple[int, ...] | None = None) -> Fraction:
    """Product of x over all 2^r sign embeddings of Q(sqrt(p) : p in primes)."""
    if primes is None:
        primes = x.prime_support()
    partial = x
    for p in primes:
        partial = partial * partial.conjugate(p)
    if not partial.is_rational():
        raise ArithmeticError(f"norm of {x} not rational over primes {primes}")
    return partial.rational_part


# -- the field tower: exact signs and square roots ----------------------------


def _split(x: SurdElement, p: int) -> tuple[SurdElement, SurdElement]:
    """(a, b) with x = a + b*sqrt(p), a and b free of sqrt(p)."""
    a = SurdElement._reduced({d: c for d, c in x._terms.items() if d % p})
    b = SurdElement._reduced({d // p: c for d, c in x._terms.items() if d % p == 0})
    return a, b


def _sign_in_tower(x: SurdElement, primes: tuple[int, ...]) -> int:
    """Sign of x in Q(sqrt(p) : p in primes), by exact recursion down the tower.

    With p the largest prime write x = a + b*sqrt(p).  When b = 0 or a and b
    have one sign, that is the sign of x.  Otherwise a and b*sqrt(p) differ in
    sign and the larger in size decides: sign(x) = sign(a) * sign(a^2 - p b^2).
    Every sign on the right lies in the field of the smaller primes.
    """
    if x.is_rational():
        r = x.rational_part
        return (r > 0) - (r < 0)
    p, rest = primes[-1], primes[:-1]
    a, b = _split(x, p)
    sa, sb = _sign_in_tower(a, rest), _sign_in_tower(b, rest)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa * _sign_in_tower(a * a - b * b * p, rest)


def rational_sqrt(q: int | Fraction, primes: tuple[int, ...]) -> SurdElement | None:
    """The positive square root of q in Q(sqrt(p) : p in primes), or None.

    num*den = s^2 * d, with d the product of the given primes that divide it to
    an odd power: only those primes are divided out, and what remains must be a
    perfect square.  The root is then s sqrt(d) / den.
    """
    if q < 0:
        return None
    rest, s, d = q.numerator * q.denominator, 1, 1
    for p in primes:
        e = 0
        while rest and rest % p == 0:
            rest //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    r = math.isqrt(rest)
    if r * r != rest:
        return None
    return SurdElement._reduced({d: Fraction(r * s, q.denominator)})


def _sqrt_in_tower(x: SurdElement, primes: tuple[int, ...]) -> SurdElement | None:
    """Some w in Q(sqrt(p) : p in primes) with w*w == x, or None.

    With p the largest prime write x = a + b*sqrt(p), a and b in the field of
    the remaining primes.  If b != 0, any root is y + b*sqrt(p)/(2y) where
    N = sqrt(a^2 - p b^2) and y^2 = (a + N)/2 or (a - N)/2; both are solved
    in the smaller field, and when y exists the candidate squares to x
    identically.  If b == 0, a root is either sqrt(a) or sqrt(a/p)*sqrt(p).
    A rational x, at any level, takes its root from `rational_sqrt`.
    """
    if x.is_rational():
        return rational_sqrt(x.rational_part, primes)
    p, rest = primes[-1], primes[:-1]
    a, b = _split(x, p)
    if b.is_zero():
        y = _sqrt_in_tower(a, rest)
        if y is not None:
            return y
        y = _sqrt_in_tower(a * Fraction(1, p), rest)
        return None if y is None else y * SurdElement._reduced({p: Fraction(1)})
    norm_root = _sqrt_in_tower(a * a - b * b * p, rest)
    if norm_root is None:
        return None
    for half in ((a + norm_root) * Fraction(1, 2), (a - norm_root) * Fraction(1, 2)):
        y = _sqrt_in_tower(half, rest)
        if y is not None:
            return y + b * SurdElement._reduced({p: Fraction(1, 2)}) * y.inverse()
    return None


def exact_sqrt(x: SurdElement, ambient_primes=None) -> SurdElement:
    """The positive square root of x in Q(sqrt(p) : p in P), or NotASquareError.

    P is the prime support of x, widened by `ambient_primes`.  The root is found
    by denesting down the tower of quadratic extensions (`_sqrt_in_tower`) and
    verified by squaring.  A rational x follows the same rule, so its root must
    lie in Q(sqrt(P)) too: sqrt(2) needs ambient_primes=(2,).
    """
    if x.is_zero():
        return SurdElement()
    primes = set(x.prime_support())
    if ambient_primes:
        primes.update(ambient_primes)
    root = _sqrt_in_tower(x, tuple(sorted(primes)))
    if root is None:
        raise NotASquareError(f"{x} has no square root over the primes {sorted(primes)}")
    if root.sign() < 0:
        root = -root
    if root * root != x:
        raise ArithmeticError(f"denested root {root} does not square to {x}")
    return root


# -- formal products of units ----------------------------------------------


class UnitProduct:
    """Formal product of surd bases raised to rational exponents."""

    def __init__(self, factors=None):
        self.factors: list[tuple[SurdElement, Fraction]] = []
        for base, exp in factors or []:
            self._push(base, _as_fraction(exp))

    def _push(self, base: SurdElement, exp: Fraction):
        if exp == 0 or base == SurdElement(1):
            return
        for i, (b, e) in enumerate(self.factors):
            if b == base:
                e2 = e + exp
                if e2 == 0:
                    del self.factors[i]
                else:
                    self.factors[i] = (b, e2)
                return
        self.factors.append((base, exp))

    def __mul__(self, other: "UnitProduct") -> "UnitProduct":
        out = UnitProduct(self.factors)
        for b, e in other.factors:
            out._push(b, e)
        return out

    def __pow__(self, k) -> "UnitProduct":
        k = _as_fraction(k)
        return UnitProduct([(b, e * k) for b, e in self.factors])

    def value(self):
        """Numeric value at the identity embedding."""
        total = mp.mpf(1)
        for b, e in self.factors:
            total *= mp.power(b.evalf(), mp.mpf(e.numerator) / e.denominator)
        return total

    def expand_exact(self) -> SurdElement:
        """Multiply out; requires every exponent to be an integer."""
        out = SurdElement(1)
        for b, e in self.factors:
            if e.denominator != 1:
                raise ValueError(f"non-integer exponent {e} cannot be expanded exactly")
            out = out * b ** int(e)
        return out

    def all_unit_norms(self) -> bool:
        return all(abs(field_norm(b)) == 1 for b, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for b, e in self.factors:
            base = f"({b})"
            if e == 1:
                parts.append(base)
            elif e.denominator == 1:
                parts.append(f"{base}^{e}")
            else:
                parts.append(f"{base}^({e})")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"UnitProduct({str(self)!r})"
