"""Integer-level number theory: Jacobi/Kronecker symbols, divisors, discriminants."""

from __future__ import annotations


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extending jacobi to every integer n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    return result * jacobi(a % n, n)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to the square root of the cofactor.

    The checked `SurdElement` constructor passes radicands below 10**12, so
    its divisions stop below 10**6.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return dict(sorted(factors.items()))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s*d with d squarefree; returns (s, d)."""
    s, d = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def is_squarefree(n: int) -> bool:
    return squarefree_decompose(abs(n))[0] == 1


def is_fundamental_discriminant(value: int) -> bool:
    """True when value is 1 mod 4 squarefree, or 4*d1 with d1 squarefree, d1 != 1 mod 4."""
    if value == 0:
        return False
    if value % 4 == 1:
        return is_squarefree(value)
    if value % 4 == 0:
        d1 = value // 4
        return d1 % 4 != 1 and is_squarefree(d1)
    return False


def _signed_one_mod_four(d: int) -> int:
    """Attach the sign making the odd squarefree d congruent to 1 mod 4."""
    return d if d % 4 == 1 else -d


def fundamental_discriminants_dividing(D: int) -> list[int]:
    """Signed odd fundamental discriminants delta with delta | m, for D = -4m.

    Requires D = -4m with m = 2 * (product of distinct odd primes); there are
    exactly 2**t of them, one per odd divisor of m, each signed so that
    delta = 1 mod 4.  Sorted by absolute value.
    """
    if D >= 0 or D % 4 != 0:
        raise ValueError(f"expected D = -4m < 0, got {D}")
    m = -D // 4
    if m % 2 != 0:
        raise ValueError(f"expected even m, got m={m}")
    P = m // 2
    if P % 2 == 0 or not is_squarefree(P):
        raise ValueError(f"expected m = 2 * odd squarefree, got m={m}")
    out = [_signed_one_mod_four(d) for d in divisors(P)]
    out.sort(key=abs)
    return out
