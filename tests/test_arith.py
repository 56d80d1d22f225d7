import math
import random

import pytest

from singmod import arith


def legendre_brute(a: int, p: int) -> int:
    """Euler's criterion, valid for odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi_brute(a: int, n: int) -> int:
    out = 1
    for p, e in arith.factorize(n).items():
        out *= legendre_brute(a, p) ** e
    return out


def test_jacobi_golden_values():
    assert arith.jacobi(-3, 107) == -1
    assert arith.jacobi(105, 29) == -1
    for a in (-5, 0, 1, 7, 841):
        assert arith.jacobi(a, 1) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.jacobi(3, 10)
    with pytest.raises(ValueError):
        arith.jacobi(3, -7)
    with pytest.raises(ValueError):
        arith.jacobi(3, 0)


def test_jacobi_against_euler_criterion():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**4) * 2 + 1
        a = rng.randrange(-10**4, 10**4)
        assert arith.jacobi(a, n) == jacobi_brute(a, n)


def test_jacobi_multiplicative_in_numerator():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 5000) * 2 + 1
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert arith.jacobi(a * b, n) == arith.jacobi(a, n) * arith.jacobi(b, n)


def kronecker_two_table(delta: int) -> int:
    """(2/delta) for odd delta: +1 iff delta = +-1 mod 8."""
    return 1 if delta % 8 in (1, 7) else -1


def test_kronecker_golden_values():
    assert arith.kronecker(2, -3) == kronecker_two_table(-3) == -1
    assert arith.kronecker(2, -7) == kronecker_two_table(-7) == 1
    for a in (-3, 0, 2, 17):
        assert arith.kronecker(a, 1) == 1


def test_kronecker_two_against_case_table():
    for delta in range(-999, 1000, 2):
        assert arith.kronecker(2, delta) == kronecker_two_table(delta)


def test_kronecker_extends_jacobi():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 3000) * 2 + 1
        a = rng.randrange(-3000, 3000)
        assert arith.kronecker(a, n) == arith.jacobi(a, n)


def test_reciprocity_shift_identity():
    # (delta / M) = (2 / delta) whenever M = 2 mod |delta|, M odd coprime
    for delta in arith.fundamental_discriminants_dividing(-840):
        if delta == 1:
            continue
        q = abs(delta)
        for M in range(3, 500, 2):
            if M % q == 2 % q and math.gcd(M, q) == 1:
                assert arith.jacobi(delta, M) == arith.kronecker(2, delta)


def divisors_brute(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors():
    assert arith.divisors(1769) == [1, 29, 61, 1769]
    assert arith.divisors(1) == [1]
    assert arith.divisors(210) == divisors_brute(210)
    for n in (2, 12, 97, 360):
        assert arith.divisors(n) == divisors_brute(n)


def test_squarefree_decompose():
    assert arith.squarefree_decompose(280) == (2, 70)
    assert arith.squarefree_decompose(1) == (1, 1)
    assert arith.squarefree_decompose(360) == (6, 10)


def test_is_fundamental_discriminant():
    for d in (5, -3, -7, 21, 105, -840, -4, 8, -8, 280, -168, 24, -40):
        assert arith.is_fundamental_discriminant(d), d
    for d in (0, 2, 3, -5, -12, 16, 25, -9, 100):
        assert not arith.is_fundamental_discriminant(d), d


def fundamental_discs_brute(D: int) -> list[int]:
    m = -D // 4
    out = []
    for d in range(1, m + 1):
        if m % d == 0 and d % 2 == 1 and arith.is_squarefree(d):
            out.append(d if d % 4 == 1 else -d)
    return sorted(out, key=abs)


def test_fundamental_discriminants_dividing():
    assert arith.fundamental_discriminants_dividing(-840) == [1, -3, 5, -7, -15, 21, -35, 105]
    assert arith.fundamental_discriminants_dividing(-8) == [1]
    assert arith.fundamental_discriminants_dividing(-40) == fundamental_discs_brute(-40) == [1, 5]
    assert arith.fundamental_discriminants_dividing(-120) == fundamental_discs_brute(-120)


def test_fundamental_discriminants_reject_bad_shape():
    for D in (840, -30, -36, -420, -16):
        with pytest.raises(ValueError):
            arith.fundamental_discriminants_dividing(D)


def test_discriminant_set_closed_under_pairing():
    # the signed squarefree kernel of any product of members is again a member
    members = arith.fundamental_discriminants_dividing(-840)
    mset = set(members)
    for d1 in members:
        for d2 in members:
            _, kernel = arith.squarefree_decompose(abs(d1 * d2))
            signed = kernel if kernel % 4 == 1 else -kernel
            assert signed in mset
