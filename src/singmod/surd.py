"""Exact arithmetic in real multiquadratic fields Q(sqrt(p1), ..., sqrt(pr)).

Elements are finite sums  sum_d c_d * sqrt(d)  with squarefree radicands d >= 1
and rational coefficients c_d (d = 1 is the rational part).  An element is
stored as one positive common denominator `_den` and a dict `_num` from
radicand to integer numerator, c_d = _num[d] / _den.  The layout is canonical --
radicands reduced to their squarefree kernel and sorted, no zero numerators,
gcd(_den, every numerator) = 1 -- so equality is structural.  Every operation
works on integers and reduces once, in `_build`.  Square roots are exact: the
classical denesting sqrt(a + b sqrt(p)) = y + b sqrt(p)/(2y),
y^2 = (a +- sqrt(a^2 - p b^2))/2, recurses down the tower of quadratic
extensions to integer square roots, with no numeric search.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from . import arith


class NotASquareError(ArithmeticError):
    """Raised when no exact square root exists in the field considered."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class SurdElement:
    """Immutable exact element of a multiquadratic field."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        """From an int, a Fraction or a {radicand: coefficient} dict.

        Radicands are reduced by trial division, which stops by 10^6 below the
        limit 10^12; a radicand outside [1, 10^12) raises ValueError.
        """
        if isinstance(terms, (int, Fraction)):
            self._num = {1: terms.numerator} if terms else {}
            self._den = terms.denominator
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
        den = math.lcm(*(c.denominator for c in clean.values()))
        canonical = SurdElement._build({d: c.numerator * (den // c.denominator) for d, c in clean.items()}, den)
        self._num, self._den = canonical._num, canonical._den

    @classmethod
    def _build(cls, num: dict[int, int], den: int = 1) -> "SurdElement":
        """From squarefree radicands and integer numerators over den > 0, unchecked.

        The one reducer: drops zero numerators, sorts the radicands and divides
        out gcd(den, numerators).
        """
        self = cls.__new__(cls)
        num = {d: c for d, c in sorted(num.items()) if c}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {d: c // g for d, c in num.items()}
        self._num = num
        self._den = den
        return self

    # -- basic structure -------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {d: Fraction(c, self._den) for d, c in self._num.items()}

    @property
    def radicands(self) -> tuple[int, ...]:
        return tuple(self._num)

    def coefficient(self, rad: int) -> Fraction:
        return Fraction(self._num.get(rad, 0), self._den)

    @property
    def rational_part(self) -> Fraction:
        return self.coefficient(1)

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return not self._num or (len(self._num) == 1 and 1 in self._num)

    def prime_support(self) -> tuple[int, ...]:
        primes: set[int] = set()
        for d in self._num:
            primes.update(arith.factorize(d))
        return tuple(sorted(primes))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurdElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SurdElement(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """A rational element hashes as its rational_part, since it equals that number."""
        if self.is_rational():
            return hash(self.rational_part)
        return hash((self._den, tuple(self._num.items())))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "SurdElement":
        if not isinstance(other, SurdElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SurdElement(other)
        den1, den2 = self._den, other._den
        g = math.gcd(den1, den2)
        f1, f2 = den2 // g, den1 // g
        out = {d: c * f1 for d, c in self._num.items()}
        for d, c in other._num.items():
            out[d] = out.get(d, 0) + c * f2
        return SurdElement._build(out, den1 * f1)

    __radd__ = __add__

    def __neg__(self) -> "SurdElement":
        return SurdElement._build({d: -c for d, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SurdElement) else -SurdElement(other))

    def __rsub__(self, other):
        return SurdElement(other) - self

    def __mul__(self, other) -> "SurdElement":
        if not isinstance(other, SurdElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return SurdElement._build(
                {d: c * other.numerator for d, c in self._num.items()}, self._den * other.denominator
            )
        # sqrt(u) * sqrt(v) = g * sqrt(uv / g^2), g = gcd(u, v), for squarefree u, v
        out: dict[int, int] = {}
        for d1, c1 in self._num.items():
            for d2, c2 in other._num.items():
                g = math.gcd(d1, d2)
                w = (d1 // g) * (d2 // g)
                out[w] = out.get(w, 0) + c1 * c2 * g
        return SurdElement._build(out, self._den * other._den)

    __rmul__ = __mul__

    def conjugate(self, prime: int) -> "SurdElement":
        """Flip the sign of sqrt(prime) in every radicand containing it."""
        return SurdElement._build(
            {d: (-c if d % prime == 0 else c) for d, c in self._num.items()}, self._den
        )

    def inverse(self) -> "SurdElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd")
        partial = self
        mult = SurdElement(1)
        for p in self.prime_support():
            if all(d % p != 0 for d in partial._num):
                continue
            conj = partial.conjugate(p)
            mult = mult * conj
            partial = partial * conj
        if not partial.is_rational():
            raise ArithmeticError("conjugate tower failed to rationalize")
        return mult * Fraction(partial._den, partial._num[1])

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
        """Numeric value under the identity embedding, summed term by term."""
        total = mp.mpf(0)
        for d, c in self.terms.items():
            total += mp.mpf(c.numerator) / c.denominator * mp.sqrt(d)
        return total

    def embeddings(self, primes: tuple[int, ...]) -> list:
        """All 2^r values sigma_s(x), sigma_s flipping sqrt(p_i) for each bit i of s.

        Each term c_d sqrt(d) sits at the mask of the primes p_i dividing d, and
        one in-place Walsh-Hadamard transform gives every signed sum at once.
        """
        size = 1 << len(primes)
        vals = [mp.mpf(0)] * size
        for d, c in self._num.items():
            mask = sum(1 << i for i, p in enumerate(primes) if d % p == 0)
            vals[mask] = mp.mpf(c) * mp.sqrt(d) / self._den
        h = 1
        while h < size:
            for i in range(0, size, 2 * h):
                for j in range(i, i + h):
                    vals[j], vals[j + h] = vals[j] + vals[j + h], vals[j] - vals[j + h]
            h *= 2
        return vals

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
        if not self._num:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda t: (t[1] < 0, t[0]))
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
    a = SurdElement._build({d: c for d, c in x._num.items() if d % p}, x._den)
    b = SurdElement._build({d // p: c for d, c in x._num.items() if d % p == 0}, x._den)
    return a, b


def _sign_in_tower(x: SurdElement, primes: tuple[int, ...]) -> int:
    """Sign of x in Q(sqrt(p) : p in primes), by exact recursion down the tower.

    With p the largest prime write x = a + b*sqrt(p).  When b = 0 or a and b
    have one sign, that is the sign of x.  Otherwise a and b*sqrt(p) differ in
    sign and the larger in size decides: sign(x) = sign(a) * sign(a^2 - p b^2).
    Every sign on the right lies in the field of the smaller primes.
    """
    if x.is_rational():
        r = x._num.get(1, 0)
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
    return SurdElement._build({d: r * s}, q.denominator)


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
        return None if y is None else y * SurdElement._build({p: 1})
    norm_root = _sqrt_in_tower(a * a - b * b * p, rest)
    if norm_root is None:
        return None
    for half in ((a + norm_root) * Fraction(1, 2), (a - norm_root) * Fraction(1, 2)):
        y = _sqrt_in_tower(half, rest)
        if y is not None:
            return y + b * SurdElement._build({p: 1}, 2) * y.inverse()
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
