import math
import random
import time
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singmod import highprec
from singmod.surd import (
    NotASquareError,
    SurdElement,
    UnitProduct,
    exact_sqrt,
    field_norm,
    parse_surd,
    rational_sqrt,
)

# expressions appearing along the k_210 / k_30 computations
CORPUS = [
    "171 + 54*sqrt(10) + 76*sqrt(5) + 120*sqrt(2)",
    "171 + 54*sqrt(10)",
    "76*sqrt(5) + 120*sqrt(2)",
    "759 + 240*sqrt(10)",
    "8*sqrt(6) + 5*sqrt(15)",
    "39 + 12*sqrt(10)",
    "2*sqrt(6) + sqrt(15)",
    "5 - 2*sqrt(6)",
    "4 - sqrt(15)",
    "sqrt(6) - sqrt(5)",
    "2 - sqrt(3)",
    "120134025 + 53725540*sqrt(5) + 26215380*sqrt(21) + 11723880*sqrt(105)",
    "49044510*sqrt(6) + 32107152*sqrt(14) + 21933360*sqrt(30) + 14358762*sqrt(70)",
    "120621959 + 53943744*sqrt(5) + 26321856*sqrt(21) + 11676456*sqrt(105)",
    "3168*sqrt(3) + 2076*sqrt(7) + 1419*sqrt(15) + 928*sqrt(35)",
    "119648071 + 53508216*sqrt(5) + 26109336*sqrt(21) + 11676456*sqrt(105)",
    "3156*sqrt(3) + 2068*sqrt(7) + 1413*sqrt(15) + 924*sqrt(35)",
    "2076*sqrt(7) + 1419*sqrt(15)",
    "3168*sqrt(3) + 928*sqrt(35)",
    "121983 + 11904*sqrt(105)",
    "249 + 24*sqrt(105)",
    "2068*sqrt(7) + 1413*sqrt(15)",
    "3156*sqrt(3) + 924*sqrt(35)",
    "121489 + 11856*sqrt(105)",
    "247 + 24*sqrt(105)",
    "121984 + 11904*sqrt(105)",
    "248 + 24*sqrt(105)",
    "93*sqrt(7) + 64*sqrt(15)",
    "12 + sqrt(105)",
    "6*sqrt(3) + 2*sqrt(35)",
    "121488 + 11856*sqrt(105)",
    "78*sqrt(10) + 38*sqrt(42)",
    "4*sqrt(7) + 3*sqrt(15)",
    "3*sqrt(14) + 2*sqrt(30)",
    "31 - 8*sqrt(15)",
    "8 - 3*sqrt(7)",
    "6 - sqrt(35)",
    "13 - 2*sqrt(42)",
    "19 - 6*sqrt(10)",
    "sqrt(7) - sqrt(6)",
    "sqrt(10) - 3",
    "3 - 2*sqrt(2)",
    "sqrt(15) - sqrt(14)",
    "sqrt(2) - 1",
    "251 + 30*sqrt(70)",
    "3/2 + 1/2*sqrt(5)",
    "5/2 + 1/2*sqrt(21)",
    "5 + 2*sqrt(6)",
    "6 + 5*sqrt(2) + 3*sqrt(5) + 2*sqrt(10)",
    "1/4 - 1/16*sqrt(7) + 2/3*sqrt(2)",
]


def random_surd(rng: random.Random, rads=(1, 2, 3, 6), span=9) -> SurdElement:
    return SurdElement(
        {d: Fraction(rng.randrange(-span, span + 1), rng.choice((1, 1, 2))) for d in rads}
    )


def test_canonical_form():
    assert SurdElement({8: 1}) == SurdElement({2: 2})
    assert hash(SurdElement({8: 1})) == hash(SurdElement({2: 2}))
    assert SurdElement({12: Fraction(1, 2), 3: 1}) == SurdElement({3: 2})
    assert SurdElement({2: 0, 1: 5}) == SurdElement(5)
    assert SurdElement({18: 1, 2: -3}).is_zero()


@pytest.mark.parametrize("q", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_a_rational_element_hashes_as_its_number(q):
    # SurdElement(q) == q, so the two must hash alike and find each other in a dict
    assert hash(SurdElement(q)) == hash(q)
    assert {SurdElement(q): 1}[q] == 1


def test_product_of_conjugates():
    r2, r3 = SurdElement({2: 1}), SurdElement({3: 1})
    assert (r3 + r2) * (r3 - r2) == SurdElement(1)


def test_g30_twelfth_power_expansion():
    g6 = SurdElement({1: 3, 10: 1}) * SurdElement({1: 2, 5: 1})
    assert g6 * g6 == parse_surd("171 + 54*sqrt(10) + 76*sqrt(5) + 120*sqrt(2)")


def test_square_reduces_radicands():
    assert SurdElement({5: 5, 14: 3}) ** 2 == parse_surd("251 + 30*sqrt(70)")


def test_ring_axioms_randomized():
    rng = random.Random(17)
    for _ in range(60):
        x, y, z = (random_surd(rng) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_inverse_round_trip():
    rng = random.Random(19)
    for _ in range(40):
        x = random_surd(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == SurdElement(1)
    with pytest.raises(ZeroDivisionError):
        SurdElement(0).inverse()


def test_integer_powers():
    x = parse_surd("1 + sqrt(2)")
    assert x**0 == SurdElement(1)
    assert x**5 == x * x * x * x * x
    assert x**-2 == (x * x).inverse()


def test_embedding_values():
    with mp.workdps(30):
        v = parse_surd("sqrt(2) - 1").evalf()
        assert abs(v - (mp.sqrt(2) - 1)) < mp.mpf("1e-25")
        golden = SurdElement({1: Fraction(3, 2), 5: Fraction(1, 2)})
        flipped = golden.embeddings((5,))[1]
        assert abs(flipped - (3 - mp.sqrt(5)) / 2) < mp.mpf("1e-25")


def test_identity_embedding_matches_qseries():
    g6 = SurdElement({1: 3, 10: 1}) * SurdElement({1: 2, 5: 1})
    g12 = g6 * g6
    with mp.workdps(40):
        assert abs(g12.evalf() - highprec.gn_numeric(30, 40) ** 12) < mp.mpf("1e-30")


def test_field_norms():
    assert field_norm(parse_surd("sqrt(2) - 1")) == -1
    assert field_norm(parse_surd("4 - sqrt(15)")) == 1
    q = Fraction(3, 2)
    assert field_norm(SurdElement(q), primes=(2, 5)) == q**4
    assert field_norm(SurdElement(q)) == q


def test_exact_sqrt_square_recognitions():
    cases = [
        ("121984 + 11904*sqrt(105)", "248 + 24*sqrt(105)"),
        ("121983 + 11904*sqrt(105)", "93*sqrt(7) + 64*sqrt(15)"),
        ("249 + 24*sqrt(105)", "12 + sqrt(105)"),
        ("248 + 24*sqrt(105)", "6*sqrt(3) + 2*sqrt(35)"),
        ("121489 + 11856*sqrt(105)", "247 + 24*sqrt(105)"),
        ("121488 + 11856*sqrt(105)", "78*sqrt(10) + 38*sqrt(42)"),
        ("247 + 24*sqrt(105)", "4*sqrt(7) + 3*sqrt(15)"),
        ("246 + 24*sqrt(105)", "3*sqrt(14) + 2*sqrt(30)"),
    ]
    for square, root in cases:
        got = exact_sqrt(parse_surd(square), ambient_primes=(2, 3, 5, 7))
        assert got == parse_surd(root), square
        assert got * got == parse_surd(square)


def test_exact_sqrt_with_targets():
    # both roots lie in Q(sqrt(3), sqrt(5), sqrt(7)), the field of x's own primes
    got = exact_sqrt(parse_surd("249 + 24*sqrt(105)"))
    assert got == parse_surd("12 + sqrt(105)")
    got = exact_sqrt(parse_surd("248 + 24*sqrt(105)"))
    assert got == parse_surd("6*sqrt(3) + 2*sqrt(35)")


def test_exact_sqrt_trivia():
    assert exact_sqrt(SurdElement(4)) == SurdElement(2)
    assert exact_sqrt(SurdElement(Fraction(9, 4))) == SurdElement(Fraction(3, 2))
    assert exact_sqrt(SurdElement(0)).is_zero()
    assert exact_sqrt(SurdElement(2), ambient_primes=(2,)) == SurdElement({2: 1})


def test_a_rational_root_lies_in_the_field_of_the_given_primes():
    # sqrt(2) is not in Q, the field of 2's (empty) radicand support
    with pytest.raises(NotASquareError):
        exact_sqrt(SurdElement(2))
    assert exact_sqrt(SurdElement(Fraction(15, 8)), ambient_primes=(2, 3, 5)) == parse_surd("1/4*sqrt(30)")
    with pytest.raises(NotASquareError):
        exact_sqrt(SurdElement(Fraction(15, 8)), ambient_primes=(2, 3))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4), ()) == SurdElement(Fraction(3, 2))
    assert rational_sqrt(Fraction(-9, 4), ()) is None
    assert rational_sqrt(0, ()).is_zero()
    assert rational_sqrt(2**101 * 3**4 * 7, (2, 7)) == SurdElement({14: 2**50 * 9})
    assert rational_sqrt(2**101 * 3**4 * 7, (2,)) is None
    assert rational_sqrt(Fraction(5, 12), (3, 5)) == SurdElement({15: Fraction(1, 6)})


@pytest.mark.parametrize("c", [100000007, 2**61 - 1])
def test_exact_sqrt_of_a_rational_tall_square_is_fast(c):
    # the root of c^2 takes one integer square root; trial division of c took
    # seconds for c = 100000007 and never finished for c = 2^61 - 1
    start = time.perf_counter()
    assert exact_sqrt(SurdElement(c * c)) == SurdElement(c)
    assert time.perf_counter() - start < 1


def test_exact_sqrt_failures():
    with pytest.raises(NotASquareError):
        exact_sqrt(SurdElement(-1))
    with pytest.raises(NotASquareError):
        exact_sqrt(parse_surd("1 + sqrt(2)"))  # norm -1, no real square root exists
    with pytest.raises(NotASquareError):
        exact_sqrt(parse_surd("sqrt(2) - 2"))  # negative


def test_exact_sqrt_of_random_squares():
    rng = random.Random(23)
    done = 0
    while done < 100:
        y = random_surd(rng, rads=(1, 2, 3, 6), span=6)
        if y.is_zero():
            continue
        got = exact_sqrt(y * y, ambient_primes=(2, 3))
        assert got == y or got == -y
        done += 1


FIELD_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def field_elements(draw):
    """(y, P): P a set of 1-5 primes from FIELD_PRIMES, y a nonzero element of Q(sqrt(P))."""
    primes = tuple(sorted(draw(st.sets(st.sampled_from(FIELD_PRIMES), min_size=1, max_size=5))))
    rads = [math.prod(c) for r in range(len(primes) + 1) for c in combinations(primes, r)]
    chosen = draw(st.lists(st.sampled_from(rads), min_size=1, max_size=6, unique=True))
    coef = st.fractions(min_value=-50, max_value=50, max_denominator=6).filter(lambda f: f != 0)
    y = SurdElement({d: draw(coef) for d in chosen})
    return y, primes


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_exact_sqrt_of_squares_over_fields_of_rank_1_to_5(case):
    y, primes = case
    got = exact_sqrt(y * y, ambient_primes=primes)
    assert got in (y, -y)
    assert got.sign() > 0


def test_sign_of_powers_of_a_small_unit():
    # (1 - sqrt(2))^k has coefficients of about 0.38 k digits and a value of size
    # 10^(-0.38 k); a sign read off a fixed number of digits failed from k = 176
    x = parse_surd("1 - sqrt(2)")
    power = SurdElement(1)
    for k in range(1, 400):
        power = power * x
        assert power.sign() == (-1) ** k, k


def test_exact_sqrt_of_a_tiny_square_is_positive():
    u = parse_surd("sqrt(2) - 1") ** 176  # about 4.3e-68
    assert exact_sqrt(u * u) == u
    assert u > 0 and -u < 0 and u < 2 * u


# a unit below 1 in size for each prime of FIELD_PRIMES
SMALL_UNITS = {2: "sqrt(2) - 1", 3: "2 - sqrt(3)", 5: "9 - 4*sqrt(5)", 7: "8 - 3*sqrt(7)", 11: "10 - 3*sqrt(11)"}


@st.composite
def tall_elements(draw):
    """y * u^k over at most 4 primes: y with integer coefficients up to 10^80, u a small unit.

    The coefficients of y * u^k are large while its value can be tiny, so its
    sign cannot be read off a fixed number of digits.
    """
    primes = sorted(draw(st.sets(st.sampled_from(FIELD_PRIMES), min_size=1, max_size=4)))
    rads = [math.prod(c) for r in range(len(primes) + 1) for c in combinations(primes, r)]
    chosen = draw(st.lists(st.sampled_from(rads), min_size=1, max_size=6, unique=True))
    y = SurdElement({d: draw(st.integers(-(10**80), 10**80).filter(bool)) for d in chosen})
    unit = parse_surd(SMALL_UNITS[draw(st.sampled_from(primes))])
    return y * unit ** draw(st.integers(0, 120))


@settings(max_examples=60, deadline=None)
@given(tall_elements(), tall_elements())
def test_sign_is_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign() != 0


@settings(max_examples=60, deadline=None)
@given(tall_elements())
def test_exact_sqrt_of_a_tall_square(x):
    x = x if x.sign() > 0 else -x
    assert exact_sqrt(x * x, ambient_primes=x.prime_support()) == x


@settings(max_examples=60, deadline=None)
@given(tall_elements(), tall_elements())
def test_order_is_the_sign_of_the_difference(x, y):
    assert (x < y) == ((y - x).sign() > 0) == (y > x)
    assert not (x < x) and x <= x


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.sampled_from((13, 17, 19, 23)))
def test_exact_sqrt_rejects_a_prime_outside_the_field(case, q):
    y, primes = case
    x = y * y * q
    with pytest.raises(NotASquareError):
        exact_sqrt(x, ambient_primes=primes)


def test_parse_print_round_trip():
    assert len(CORPUS) == 50
    for text in CORPUS:
        x = parse_surd(text)
        assert parse_surd(str(x)) == x
        assert str(parse_surd(str(x))) == str(x)


def test_unit_product_basics():
    base = parse_surd("4 - sqrt(15)")
    other = parse_surd("8 - 3*sqrt(7)")
    prod = UnitProduct([(base, 2), (other, 1)])
    assert prod.all_unit_norms()
    assert (prod**2).expand_exact() == (base**4) * (other**2)
    merged = prod * UnitProduct([(base, -2)])
    assert merged.factors == [(other, Fraction(1))]
    with mp.workdps(30):
        val = prod.value()
        expect = (4 - mp.sqrt(15)) ** 2 * (8 - 3 * mp.sqrt(7))
        assert abs(val - expect) < mp.mpf("1e-25")
    assert UnitProduct([(base, 1), (base, 2)]).factors == [(base, Fraction(3))]


def test_reflected_operators_and_order():
    x = parse_surd("1 + sqrt(2)")
    assert 1 - x == -(x - 1)
    assert Fraction(1, 2) / x == x.inverse() / 2
    assert x >= x and x >= 2 and not x >= 3
    assert Fraction(5, 2) >= x and not 2 >= x


def test_radicand_limit():
    # trial division would take seconds for the first radicand and never end for the second
    for make in (lambda: parse_surd("sqrt(10000001400000049)"), lambda: SurdElement({(2**61 - 1) ** 2: 1})):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="radicand"):
            make()
        assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="radicand"):
        SurdElement({10**12: 1})
    start = time.perf_counter()
    assert SurdElement({999999999989: 2}).terms == {999999999989: 2}  # the largest prime below 10^12
    assert time.perf_counter() - start < 1


def test_unit_product_fractional_exponent_value():
    eps = parse_surd("251 + 30*sqrt(70)")
    up = UnitProduct([(eps, Fraction(1, 12))])
    with mp.workdps(40):
        expect = (251 + 30 * mp.sqrt(70)) ** (mp.mpf(1) / 12)
        assert abs(up.value() - expect) < mp.mpf("1e-35")
    with pytest.raises(ValueError):
        up.expand_exact()


def test_embedding_multiplicative_consistency():
    # the sign of a composite radicand is the product of the generator signs
    with mp.workdps(30):
        x = SurdElement({6: 1})
        assert abs(x.embeddings((2, 3))[3] - mp.sqrt(6)) < mp.mpf("1e-25")  # both flipped
        assert abs(x.embeddings((2, 3))[1] + mp.sqrt(6)) < mp.mpf("1e-25")  # sqrt(2) flipped
        y = SurdElement({30: 1})
        assert abs(y.embeddings((2, 3, 5))[7] + mp.sqrt(30)) < mp.mpf("1e-25")


# -- kernel properties: integer numerators over one common denominator --------

RADICANDS = [math.prod(c) for k in range(5) for c in combinations((2, 3, 5, 7), k)]
COEFFICIENTS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
SURDS = st.dictionaries(st.sampled_from(RADICANDS), COEFFICIENTS, max_size=8).map(SurdElement)


def _assert_canonical(x):
    assert x._den > 0
    assert math.gcd(x._den, *x._num.values()) == 1
    assert list(x._num) == sorted(x._num)
    assert all(x._num.values())


def _ref_add(t1, t2):
    out = dict(t1)
    for d, c in t2.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def _ref_mul(t1, t2):
    out = {}
    for d1, c1 in t1.items():
        for d2, c2 in t2.items():
            g = math.gcd(d1, d2)
            w = (d1 // g) * (d2 // g)
            out[w] = out.get(w, 0) + c1 * c2 * g
    return {d: c for d, c in out.items() if c}


def _ref_conjugate(t, p):
    return {d: -c if d % p == 0 else c for d, c in t.items()}


def _ref_inverse(t):
    """1/x = prod_{s != 0} sigma_s(x) / N(x), every sigma_s a product of conjugations."""
    primes = (2, 3, 5, 7)
    others = {1: Fraction(1)}
    for s in range(1, 16):
        sigma = t
        for i, p in enumerate(primes):
            if s >> i & 1:
                sigma = _ref_conjugate(sigma, p)
        others = _ref_mul(others, sigma)
    norm = _ref_mul(others, t)
    assert set(norm) == {1}
    return {d: c / norm[1] for d, c in others.items()}


@settings(max_examples=150, deadline=None)
@given(SURDS, SURDS, st.sampled_from((2, 3, 5, 7)))
def test_kernel_matches_the_fraction_reference(x, y, p):
    tx, ty = x.terms, y.terms
    for got, want in (
        (x + y, _ref_add(tx, ty)),
        (x - y, _ref_add(tx, {d: -c for d, c in ty.items()})),
        (x * y, _ref_mul(tx, ty)),
        (x.conjugate(p), _ref_conjugate(tx, p)),
    ):
        _assert_canonical(got)
        assert got.terms == want
    if not y.is_zero():
        inv = y.inverse()
        _assert_canonical(inv)
        assert inv.terms == _ref_inverse(ty)
        assert (x * y) / y == x
    zero = x + (-x)
    _assert_canonical(zero)
    assert zero.is_zero() and zero == 0


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(RADICANDS),
        st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**20),
        min_size=1,
        max_size=16,
    ),
    st.sampled_from((20, 30, 60)),
)
def test_embeddings_match_the_signed_term_sums(terms, dps):
    x = SurdElement(terms)
    primes = (2, 3, 5, 7)
    with mp.workdps(dps):
        values = x.embeddings(primes)
    assert len(values) == 16
    with mp.workdps(dps + 20):
        scale = max(1, sum(abs(mp.mpf(c.numerator) / c.denominator) * mp.sqrt(d) for d, c in x.terms.items()))
        for s in range(16):
            want = mp.fsum(
                (-1) ** sum(s >> i & 1 for i, q in enumerate(primes) if d % q == 0)
                * mp.mpf(c.numerator) / c.denominator * mp.sqrt(d)
                for d, c in x.terms.items()
            )
            assert abs(values[s] - want) <= mp.mpf(10) ** (5 - dps) * scale, s
