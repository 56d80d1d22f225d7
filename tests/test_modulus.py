import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singmod import arith, highprec, modulus, pell
from singmod.surd import NotASquareError, SurdElement, UnitProduct, exact_sqrt, field_norm, parse_surd

K210_FACTORS = {
    "4 - sqrt(15)": 2,
    "8 - 3*sqrt(7)": 1,
    "6 - sqrt(35)": 1,
    "2 - sqrt(3)": 1,
    "sqrt(7) - sqrt(6)": 2,
    "sqrt(10) - 3": 2,
    "sqrt(2) - 1": 2,
    "sqrt(15) - sqrt(14)": 1,
}

K30_FACTORS = {
    "5 - 2*sqrt(6)": 1,
    "4 - sqrt(15)": 1,
    "sqrt(6) - sqrt(5)": 1,
    "2 - sqrt(3)": 1,
}


def product_signature(product):
    return {str(base): int(exp) for base, exp in product.factors}


def test_k_from_g_numeric():
    with mp.workdps(45):
        k = modulus.k_from_g_numeric(1, 40)
        assert abs(k - (mp.sqrt(2) - 1)) < mp.mpf("1e-35")
        g = highprec.gn_numeric(30, 40)
        k30 = modulus.k_from_g_numeric(g, 40)
        exact = (5 - 2 * mp.sqrt(6)) * (4 - mp.sqrt(15)) * (mp.sqrt(6) - mp.sqrt(5)) * (2 - mp.sqrt(3))
        assert abs(k30 - exact) < mp.mpf("1e-33")
        # round trip and monotonicity
        for gv in (mp.mpf("0.9"), mp.mpf("1.3"), mp.mpf(2)):
            kv = modulus.k_from_g_numeric(gv, 40)
            assert abs((1 / kv - kv) - 2 * gv**12) < mp.mpf("1e-32")
        assert modulus.k_from_g_numeric(1.5, 40) > modulus.k_from_g_numeric(1.6, 40)
        # at G = g^12 ~ 1e32 the form g^6 (sqrt(G + 1/G) - g^6) cancels every
        # digit (relative error 2.88); the theta-sum k is the independent value
        k2256 = modulus.k_from_g_numeric(highprec.gn_numeric(2256, 40), 40)
        exact = highprec.k_numeric(2256, 40)
        assert abs(k2256 - exact) < mp.mpf("1e-35") * exact


def test_split_even_odd(k30):
    g12 = parse_surd(
        "120134025 + 53725540*sqrt(5) + 26215380*sqrt(21) + 11723880*sqrt(105)"
        "+ 49044510*sqrt(6) + 32107152*sqrt(14) + 21933360*sqrt(30) + 14358762*sqrt(70)"
    )
    odd, even = modulus.subgroup_splits(g12)
    assert set(odd.radicands) == {1, 5, 21, 105}
    assert set(even.radicands) == {6, 14, 30, 70}
    assert odd + even == g12
    ranum, zero = modulus.subgroup_splits(SurdElement(7))
    assert ranum == SurdElement(7) and zero.is_zero()
    # the parity rule on the 30-invariant: this is the split of k_30's witness
    odd30, even30 = modulus.subgroup_splits(
        parse_surd("171 + 54*sqrt(10) + 76*sqrt(5) + 120*sqrt(2)")
    )
    assert odd30 == parse_surd("171 + 76*sqrt(5)")
    assert even30 == parse_surd("54*sqrt(10) + 120*sqrt(2)")
    assert (odd30, even30) == (k30.witness.s1, k30.witness.s2)


def test_solve_pair_golden():
    u, v = modulus.solve_pair(SurdElement(384), SurdElement(375), 1)
    assert (u, v) == (SurdElement(24), SurdElement(16))
    p = parse_surd("2076*sqrt(7) + 1419*sqrt(15)") ** 2
    q = parse_surd("3168*sqrt(3) + 928*sqrt(35)") ** 2
    u, v = modulus.solve_pair(p, q, 1)
    assert u == parse_surd("121983 + 11904*sqrt(105)")
    assert v == parse_surd("249 + 24*sqrt(105)")


def test_solve_pair_degenerate():
    u, v = modulus.solve_pair(SurdElement(30), SurdElement(30), 1)
    assert u * v == SurdElement(30)
    assert (u + 1) * (v - 1) == SurdElement(30)
    assert (u, v) == (SurdElement(5), SurdElement(6))


def test_solve_pair_shifted_down_golden():
    u, v = modulus.solve_pair(SurdElement(24), SurdElement(15), -1)
    assert (u, v) == (SurdElement(6), SurdElement(4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**12), st.integers(1, 10**12), st.sampled_from((1, -1)))
def test_solve_pair_recovers_its_pair(x, y, shift):
    u, v = max(x, y), min(x, y)
    p, q = SurdElement(u * v), SurdElement((u + shift) * (v - 1))
    assert modulus.solve_pair(p, q, shift) == (SurdElement(u), SurdElement(v))


def test_quartet_roots_known_split():
    s1 = parse_surd("171 + 54*sqrt(10)")
    s2 = parse_surd("76*sqrt(5) + 120*sqrt(2)")
    x1, x2, factors, w = modulus.quartet_roots(s1, s2, ambient_primes=(2, 3, 5))
    assert (w.alpha, w.beta) == (parse_surd("759 + 240*sqrt(10)"), parse_surd("39 + 12*sqrt(10)"))
    assert (w.a, w.b, w.c, w.d) == (
        SurdElement(24),
        SurdElement(16),
        SurdElement(6),
        SurdElement(4),
    )
    assert w.verify()
    assert x1 * x2 == SurdElement(-1)
    assert x1.inverse() - x1 == 2 * (s1 + s2)
    assert product_signature(factors) == K30_FACTORS


CONVENIENT = (2, 6, 10, 22, 30, 42, 58, 70, 78, 102, 130, 190, 210, 330, 462)
SUBFIELDS_210 = tuple(d for d in arith.divisors(210) if d > 1)


def test_witness_verifies_for_every_convenient_n():
    for n in CONVENIENT:
        sm = modulus.singular_modulus(n, 50)
        assert sm.simplified, n
        assert sm.k_product.expand_exact() == sm.k_surd, n
        assert sm.k_product.all_unit_norms(), n
        w = sm.witness
        assert w.verify(), n
        assert not dataclasses.replace(w, a=w.a + 1).verify(), n
        assert not dataclasses.replace(w, d=w.d + 1).verify(), n


def test_witness_rejects_a_doctored_split(k30):
    w = k30.witness
    assert not dataclasses.replace(w, s1=w.s1 + 1).verify()  # alpha beta != s1^2
    assert not dataclasses.replace(w, s2=w.s2 + 1).verify()  # (alpha + 1)(beta - 1) != s2^2


def test_route_order_and_derived_simplified():
    # a convenient n takes the descent before the closed-form table, so n = 2 is exact
    assert "simplified" not in {f.name for f in dataclasses.fields(modulus.SingularModulus)}
    routes = {}
    for n in (2, 3, 5, 7, 30):
        sm = modulus.singular_modulus(n, 40)
        assert sm.simplified == (sm.witness is not None), n
        with mp.workdps(40 + highprec.GUARD):
            assert sm.alpha_numeric == sm.k_numeric**2, n
        assert abs(sm.ratio_residual) < mp.mpf("1e-30"), n
        routes[n] = "exact" if sm.simplified else "closed" if sm.k_surd is not None else "numeric"
    assert routes == {2: "exact", 3: "closed", 5: "numeric", 7: "closed", 30: "exact"}
    assert not dataclasses.replace(modulus.singular_modulus(30, 40), witness=None).simplified


def test_large_non_convenient_n_is_fast():
    # the forms scan rejects 2p at once; trial division of p = 10^17 + 3 would take about 20 s
    n = 2 * 100000000000000003
    start = time.perf_counter()
    sm = modulus.singular_modulus(n, 50)
    assert time.perf_counter() - start < 1
    assert sm.k_surd is None and not sm.simplified
    assert 0 < sm.k_numeric < mp.mpf("1e-305000000")


# str(k_product) and the witness a, b, c, d of every convenient n, pinned from
# the descent as it stood before the split and the halves were fixed by rule
DESCENT_PINS = {
    2: ("(sqrt(2) - 1)", ("1", "1", "1", "1")),
    6: ("(2 - sqrt(3)) * (sqrt(3) - sqrt(2))", ("3", "1", "3", "1")),
    10: ("(sqrt(10) - 3) * (3 - 2*sqrt(2))", ("9", "9", "1", "1")),
    22: ("(10 - 3*sqrt(11)) * (3*sqrt(11) - 7*sqrt(2))", ("99", "1", "99", "1")),
    30: (
        "(5 - 2*sqrt(6)) * (sqrt(6) - sqrt(5)) * (4 - sqrt(15)) * (2 - sqrt(3))",
        ("24", "6", "16", "4"),
    ),
    42: (
        "(8 - 3*sqrt(7)) * (7 - 4*sqrt(3)) * (3 - 2*sqrt(2)) * (sqrt(7) - sqrt(6))",
        ("63", "49", "9", "7"),
    ),
    58: ("(13*sqrt(58) - 99) * (99 - 70*sqrt(2))", ("9801", "9801", "1", "1")),
    70: (
        "(15 - 4*sqrt(14)) * (3*sqrt(14) - 5*sqrt(5)) * (8 - 3*sqrt(7)) * (6 - sqrt(35))",
        ("224", "126", "64", "36"),
    ),
    78: (
        "(26 - 15*sqrt(3)) * (25 - 4*sqrt(39)) * (3*sqrt(3) - sqrt(26)) * (5 - 2*sqrt(6))",
        ("675", "625", "27", "25"),
    ),
    102: (
        "(50 - 7*sqrt(51)) * (7 - 4*sqrt(3)) * (49 - 20*sqrt(6)) * (sqrt(51) - 5*sqrt(2))",
        ("2499", "49", "2401", "51"),
    ),
    130: (
        "(sqrt(2) - 1)^4 * (5*sqrt(130) - 57) * (sqrt(10) - 3)^2 * (sqrt(26) - 5)^2",
        ("1874961 + 232560*sqrt(65)", "1874961 + 232560*sqrt(65)", "1", "1"),
    ),
    190: (
        "(170 - 39*sqrt(19)) * (39 - 4*sqrt(95)) * (37*sqrt(19) - 51*sqrt(10)) * (37 - 6*sqrt(38))",
        ("28899", "1521", "26011", "1369"),
    ),
    210: (
        "(4 - sqrt(15))^2 * (8 - 3*sqrt(7)) * (2 - sqrt(3)) * (6 - sqrt(35)) * (sqrt(10) - 3)^2"
        " * (sqrt(7) - sqrt(6))^2 * (sqrt(2) - 1)^2 * (sqrt(15) - sqrt(14))",
        ("121983 + 11904*sqrt(105)", "249 + 24*sqrt(105)", "121489 + 11856*sqrt(105)", "247 + 24*sqrt(105)"),
    ),
    330: (
        "(2 - sqrt(3))^3 * (3*sqrt(5) - 2*sqrt(11))^2 * (4 - sqrt(15)) * (10 - 3*sqrt(11)) * (sqrt(10) - 3)^2"
        " * (sqrt(33) - 4*sqrt(2))^2 * (sqrt(2) - 1)^2 * (sqrt(55) - 3*sqrt(6))",
        ("10700595 + 833040*sqrt(165)", "3085 + 240*sqrt(165)", "3045865 + 237120*sqrt(165)", "927 + 72*sqrt(165)"),
    ),
    462: (
        "(2*sqrt(2) - sqrt(7))^2 * (3*sqrt(11) - 7*sqrt(2))^2 * (sqrt(3) - sqrt(2))^4 * (sqrt(22) - sqrt(21))"
        " * (8 - 3*sqrt(7))^2 * (10 - 3*sqrt(11)) * (2 - sqrt(3))^2 * (76 - 5*sqrt(231))",
        (
            "17425016 + 1985760*sqrt(77)",
            "103222 + 11760*sqrt(77)",
            "3209572 + 365760*sqrt(77)",
            "560224 + 63840*sqrt(77)",
        ),
    ),
}


def test_descent_golden_pins():
    assert tuple(DESCENT_PINS) == CONVENIENT
    for n, (product, quartet) in DESCENT_PINS.items():
        sm = modulus.singular_modulus(n, 50)
        w = sm.witness
        assert str(sm.k_product) == product, n
        assert tuple(str(x) for x in (w.a, w.b, w.c, w.d)) == quartet, n


# SHA-256 of every exact form and the printed numerics of the 15 convenient n
# at prec 50: k_surd, k_product, g_product, the eight witness fields,
# k_numeric to 50 digits and ratio_residual to 3 digits, one line each
DESCENT_SHA256 = "74a46c3f567c564e9fee161a8aab08ecd26bd7f017a23453184c775c76031bfb"
WITNESS_FIELDS = ("s1", "s2", "alpha", "beta", "a", "b", "c", "d")


def test_descent_outputs_match_their_sha256():
    blocks = []
    for n in CONVENIENT:
        sm = modulus.singular_modulus(n, 50)
        lines = [str(sm.k_surd), str(sm.k_product), str(sm.g_product)]
        lines += [str(getattr(sm.witness, f)) for f in WITNESS_FIELDS]
        lines += [mp.nstr(sm.k_numeric, 50), mp.nstr(sm.ratio_residual, 3)]
        blocks.append("\n".join(lines))
    assert hashlib.sha256("\n".join(blocks).encode()).hexdigest() == DESCENT_SHA256


def test_sqrt_alpha_halves_are_cosets():
    # sqrt(alpha) = sqrt(ab) + sqrt((a+1)(b-1)); the two halves are the cosets
    # of <sqrt(r0 r3)> among the four sorted radicands of sqrt(alpha)
    for n, product_side, shifted_side in (
        (210, "2076*sqrt(7) + 1419*sqrt(15)", "3168*sqrt(3) + 928*sqrt(35)"),
        (462, "1341060 + 152824*sqrt(77)", "292635*sqrt(21) + 233448*sqrt(33)"),
    ):
        w = modulus.singular_modulus(n, 50).witness
        primes = tuple(arith.factorize(2 * n))
        assert exact_sqrt(w.a * w.b, ambient_primes=primes) == parse_surd(product_side), n
        assert exact_sqrt((w.a + 1) * (w.b - 1), ambient_primes=primes) == parse_surd(shifted_side), n
    # the rule covers one, two and four terms; any other count has no halves
    with pytest.raises(NotASquareError, match="3 terms"):
        modulus._quartet(parse_surd("sqrt(3) + sqrt(5) + sqrt(7)"), 1, None)


def test_k_surd_matches_the_exact_root_of_the_quadratic():
    # 1/k - k = 2G has the root k = sqrt(G^2 + 1) - G in (0, 1): one exact
    # denesting, independent of the split, the quartet and the unit factoring
    for n in CONVENIENT:
        sm = modulus.singular_modulus(n, 50)
        G = (sm.g_product**12).expand_exact()
        primes = tuple(arith.factorize(2 * n))
        assert sm.k_surd == exact_sqrt(G * G + 1, ambient_primes=primes) - G, n


def test_descent_solves_once_and_raises_on_a_doctored_split(monkeypatch, k210):
    calls = []
    solve = modulus.quartet_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(modulus, "quartet_roots", counted)
    for n in CONVENIENT:
        calls.clear()
        modulus.singular_modulus(n, 50)
        assert len(calls) == 1, n

    w = k210.witness
    with pytest.raises(NotASquareError):
        solve(w.s1 + 1, w.s2, ambient_primes=(2, 3, 5, 7))
    split = modulus.subgroup_splits

    def doctored(g12):
        s1, s2 = split(g12)
        return s1 + 1, s2

    monkeypatch.setattr(modulus, "subgroup_splits", doctored)
    calls.clear()
    with pytest.raises(NotASquareError):
        modulus.singular_modulus(210, 50)
    assert len(calls) == 1


def test_quartet_210_parity_split(k210):
    w = k210.witness
    assert w.a == parse_surd("121983 + 11904*sqrt(105)")
    assert w.b == parse_surd("249 + 24*sqrt(105)")
    assert w.c == parse_surd("121489 + 11856*sqrt(105)")
    assert w.d == parse_surd("247 + 24*sqrt(105)")
    # alpha is pinned through its printed square root; the expanded constant
    # on the sqrt(105) slot is 11771496 (the companion beta genuinely has
    # 11676456 there, which squares against beta's own root below)
    assert w.alpha == parse_surd("3168*sqrt(3) + 2076*sqrt(7) + 1419*sqrt(15) + 928*sqrt(35)") ** 2
    assert w.alpha.coefficient(1) == 120621959
    assert w.alpha.coefficient(5) == 53943744
    assert w.alpha.coefficient(21) == 26321856
    assert w.beta == parse_surd(
        "119648071 + 53508216*sqrt(5) + 26109336*sqrt(21) + 11676456*sqrt(105)"
    )
    assert w.beta == parse_surd("3156*sqrt(3) + 2068*sqrt(7) + 1413*sqrt(15) + 924*sqrt(35)") ** 2
    assert w.verify()


def test_quartet_root_defining_equation(k210):
    x1 = k210.k_surd
    g12 = (k210.g_product**12).expand_exact()
    assert x1.inverse() - x1 == 2 * g12


def test_alpha_from_unit_pair_30():
    u, v = parse_surd("3 + sqrt(10)"), parse_surd("2 + sqrt(5)")
    alpha, product = modulus.alpha_from_unit_pair(u, v, ambient_primes=(2, 3, 5))
    k30 = (
        parse_surd("5 - 2*sqrt(6)")
        * parse_surd("4 - sqrt(15)")
        * parse_surd("sqrt(6) - sqrt(5)")
        * parse_surd("2 - sqrt(3)")
    )
    assert alpha == k30 * k30
    assert product.all_unit_norms()


def test_alpha_from_unit_pair_degenerate():
    alpha, product = modulus.alpha_from_unit_pair(SurdElement(1), SurdElement(1), ambient_primes=(2,))
    assert alpha == parse_surd("3 - 2*sqrt(2)")
    root = parse_surd("sqrt(2) - 1")
    assert alpha == root * root


def test_alpha_from_unit_pair_210_cross_method(k210):
    w = k210.witness
    S = w.a + 1
    U, V = S - w.c, S - w.b
    uu = U + exact_sqrt(U * U - 1, ambient_primes=(2, 3, 5, 7))
    vv = V + exact_sqrt(V * V - 1, ambient_primes=(2, 3, 5, 7))
    u = exact_sqrt(uu, ambient_primes=(2, 3, 5, 7))
    v = exact_sqrt(vv, ambient_primes=(2, 3, 5, 7))
    g6 = exact_sqrt((k210.g_product**12).expand_exact(), ambient_primes=(2, 3, 5, 7))
    assert u * v == g6
    alpha, _ = modulus.alpha_from_unit_pair(u, v, ambient_primes=(2, 3, 5, 7))
    assert alpha == k210.k_surd * k210.k_surd


def test_factor_into_units_golden():
    d2 = parse_surd("12 + sqrt(105)") - parse_surd("6*sqrt(3) + 2*sqrt(35)")
    d4 = parse_surd("4*sqrt(7) + 3*sqrt(15)") - parse_surd("3*sqrt(14) + 2*sqrt(30)")
    out = modulus.factor_into_units(UnitProduct([(d2, 1), (d4, 1)]))
    assert product_signature(out) == {
        "2 - sqrt(3)": 1,
        "6 - sqrt(35)": 1,
        "sqrt(2) - 1": 2,
        "sqrt(15) - sqrt(14)": 1,
    }


def test_factor_into_units_takes_unit_roots_without_factoring():
    # eps_d^-1 = (T - U sqrt d)/2 has the root (sqrt(T + 2) - sqrt(T - 2))/2; a
    # divisor search over U/4 = 56,211,456,782,882,376 took over 30 s for d = 337
    eps = {d: pell.unit_value(pell.solve_even_pell(d)) for d in (2, 337)}
    x = eps[337].inverse() * eps[2].inverse()
    start = time.perf_counter()
    out = modulus.factor_into_units(UnitProduct([(x, 1)]))
    assert time.perf_counter() - start < 1
    assert str(out) == "(sqrt(2) - 1)^2 * (55335641*sqrt(337) - 1015827336)^2"


def test_factor_into_units_rejects_a_non_unit():
    with pytest.raises(ArithmeticError):
        modulus.factor_into_units(UnitProduct([(parse_surd("2 + sqrt(2)"), 1)]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=15, max_size=15).filter(any))
@example([2] * 15)
def test_factor_into_units_rebuilds_products_of_subfield_units(powers):
    # x = prod_d eps_d^-k_d over the 15 quadratic subfields of Q(sqrt(2), sqrt(3), sqrt(5), sqrt(7));
    # all k_d = 2 gives x ~ 1e-38 from 12-digit coefficients, which 2*12 + 20 digits cannot resolve
    x = SurdElement(1)
    for d, k in zip(SUBFIELDS_210, powers):
        eps = pell.unit_value(pell.solve_even_pell(d if d % 4 == 1 else 4 * d))
        x = x * eps.conjugate(d) ** k
    out = modulus.factor_into_units(UnitProduct([(x, 1)]))
    assert all(e.denominator == 1 for _, e in out.factors)
    assert out.expand_exact() == x
    assert out.all_unit_norms()


def test_small_modulus_closed_forms():
    # n = 2 by the descent, n = 3 and 7 by their closed forms
    k2 = modulus.singular_modulus(2, 50)
    assert k2.k_surd == parse_surd("sqrt(2) - 1")
    assert abs(k2.ratio_residual) < mp.mpf("1e-30")

    k3 = modulus.singular_modulus(3, 50)
    assert k3.k_surd * k3.k_surd == SurdElement({1: Fraction(1, 2), 3: -Fraction(1, 4)})
    assert abs(k3.ratio_residual) < mp.mpf("1e-30")

    k7 = modulus.singular_modulus(7, 50)
    assert k7.k_surd * k7.k_surd == SurdElement({1: Fraction(1, 2), 7: -Fraction(3, 16)})
    assert abs(k7.ratio_residual) < mp.mpf("1e-30")

    assert modulus.singular_modulus(5, 50).k_surd is None


def test_singular_modulus_dispatch_small():
    for n in (3, 7):
        sm = modulus.singular_modulus(n, 50)
        assert sm.k_surd is not None
        assert abs(sm.ratio_residual) < mp.mpf("1e-30")


def test_singular_modulus_pipeline_k2():
    sm = modulus.singular_modulus(2, 50)
    assert sm.k_surd == parse_surd("sqrt(2) - 1")


def test_singular_modulus_k6_k10():
    k6 = modulus.singular_modulus(6, 50)
    assert product_signature(k6.k_product) == {"2 - sqrt(3)": 1, "sqrt(3) - sqrt(2)": 1}
    k10 = modulus.singular_modulus(10, 50)
    assert product_signature(k10.k_product) == {"sqrt(10) - 3": 1, "3 - 2*sqrt(2)": 1}
    for sm in (k6, k10):
        assert abs(sm.ratio_residual) < mp.mpf("1e-30")
        assert sm.k_surd == sm.k_product.expand_exact()


def test_singular_modulus_k30(k30):
    assert product_signature(k30.k_product) == K30_FACTORS
    assert abs(k30.ratio_residual) < mp.mpf("1e-30")
    assert k30.simplified


def test_singular_modulus_k210(k210):
    assert product_signature(k210.k_product) == K210_FACTORS
    assert abs(k210.ratio_residual) < mp.mpf("1e-30")
    assert 0 < k210.k_numeric < 1
    assert k210.k_surd == k210.k_product.expand_exact()


def test_every_emitted_factor_is_a_unit(k210, k30):
    for sm in (k210, k30):
        assert sm.k_product.all_unit_norms()
        assert abs(field_norm(sm.k_surd, primes=(2, 3, 5, 7))) == 1


def test_singular_modulus_generic_convenient_numbers():
    # the engine is not specific to 210: every even convenient number of the
    # same shape descends exactly; the defining quadratic is the oracle
    for n in (42, 58, 70):
        sm = modulus.singular_modulus(n, 50)
        g12 = (sm.g_product**12).expand_exact()
        assert sm.k_surd.inverse() - sm.k_surd == 2 * g12
        assert sm.k_product.all_unit_norms()
        assert abs(sm.ratio_residual) < mp.mpf("1e-30")
        assert 0 < sm.k_numeric < 1
        assert sm.k_surd == sm.k_product.expand_exact()


def test_numeric_modulus_fallback():
    sm = modulus.singular_modulus(5, 30)
    assert sm.k_surd is None
    assert abs(sm.ratio_residual) < mp.mpf("1e-25")
    assert 0 < sm.alpha_numeric < 1
    with mp.workdps(40):
        one = modulus.singular_modulus(1, 35)
        assert abs(one.alpha_numeric - mp.mpf(1) / 2) < mp.mpf("1e-30")
        four = modulus.singular_modulus(4, 35)
        assert abs(four.k_numeric - (mp.sqrt(2) - 1) ** 2) < mp.mpf("1e-30")
    for n in (0, -6):
        with pytest.raises(ValueError, match="n > 0"):
            modulus.singular_modulus(n)


def test_singular_modulus_rejects_precision_below_one():
    # prec = -30 once gave k_30 = 2^-10 with a ratio residual of 0
    for n in (3, 5, 30):
        for prec in (0, -30):
            with pytest.raises(ValueError, match="precision"):
                modulus.singular_modulus(n, prec)
    assert modulus.singular_modulus(30, 1).simplified


def _assert_numeric_answer(sm, n, prec):
    # the program's residual, and an independent mpmath AGM ratio at prec + 20
    tol = mp.mpf(10) ** (10 - prec)
    assert abs(sm.ratio_residual) < tol, (n, prec)
    with mp.workdps(prec + 20):
        k = mp.mpf(sm.k_numeric)
        kp = mp.sqrt((1 - k) * (1 + k))
        assert abs(mp.agm(1, kp) / mp.agm(1, k) - mp.sqrt(n)) < tol, (n, prec)


def test_singular_modulus_sweep_reaches_the_precision():
    for n in range(1, 3001):
        sm = modulus.singular_modulus(n, 50)
        # n = 390, 510, ..., 2310 are 2 * (odd squarefree) with non-diagonal
        # reduced forms of -4n: they must take the numeric path, not g2n
        assert (sm.witness is not None) == (n in CONVENIENT), n
        _assert_numeric_answer(sm, n, 50)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=20, max_value=200))
@example(2256, 50)
@example(10**6, 200)
def test_singular_modulus_reaches_any_precision(n, prec):
    _assert_numeric_answer(modulus.singular_modulus(n, prec), n, prec)


def test_descent_k_numeric_keeps_every_digit():
    # k_numeric = -1/x2 has no cancelling terms, so it keeps the working
    # precision; x1.evalf() would lose 27 digits at n = 462
    for n in CONVENIENT:
        sm = modulus.singular_modulus(n, 50)
        with mp.workdps(200):
            exact = sm.k_surd.evalf()
            assert abs(sm.k_numeric - exact) < mp.mpf("1e-60") * exact, n


def test_verify_ratio_trivia():
    with mp.workdps(52):
        assert abs(highprec.verify_ratio_value(mp.sqrt(mp.mpf(0.5)), 40) - 1) < mp.mpf("1e-35")
        k2 = SurdElement({1: -1, 2: 1}).evalf()  # sqrt(2) - 1
        assert abs(highprec.verify_ratio_value(k2, 40) - mp.sqrt(2)) < mp.mpf("1e-35")


def test_ratio_monotone_on_grid():
    with mp.workdps(30):
        vals = []
        for i in range(1, 101):
            k = mp.mpf(i) / 101
            vals.append(highprec.verify_ratio_value(k, 25))
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_complement_square_over_k_round_trip():
    # k'^2 / k = 2 g_n^12 for the moduli with known closed or descended forms
    with mp.workdps(50):
        for n in (2, 3, 7, 30, 210):
            sm = modulus.singular_modulus(n, 45)
            g = highprec.gn_numeric(n, 45)
            lhs = (1 - sm.k_numeric**2) / sm.k_numeric
            assert abs(lhs - 2 * g**12) < mp.mpf("1e-35") * max(1, 2 * g**12), n


def test_modular_equation_degree_2():
    # l^2 (1+k)^2 = 4k with k = k2, l = k2' (self-complementary point)
    with mp.workdps(40):
        k = mp.sqrt(2) - 1
        l = mp.sqrt(1 - k * k)
        assert abs(l * l * (1 + k) ** 2 - 4 * k) < mp.mpf("1e-25")


def test_modular_equation_degree_3():
    with mp.workdps(40):
        alpha = (2 - mp.sqrt(3)) / 4
        k, l = mp.sqrt(1 - alpha), mp.sqrt(alpha)
        kp, lp = l, k
        assert abs(mp.sqrt(k * l) + mp.sqrt(kp * lp) - 1) < mp.mpf("1e-25")


def test_modular_equation_degree_5():
    # kl + k'l' + cbrt(32 k l k' l') = 1 at the self-complementary point,
    # where both products collapse to k5 * k5'
    with mp.workdps(45):
        k5 = modulus.singular_modulus(5, 40).k_numeric
        kl = k5 * mp.sqrt(1 - k5 * k5)
        assert abs(2 * kl + mp.cbrt(32 * kl * kl) - 1) < mp.mpf("1e-30")


def test_modular_equation_degree_7():
    with mp.workdps(40):
        alpha = (8 - 3 * mp.sqrt(7)) / 16
        k, l = mp.sqrt(1 - alpha), mp.sqrt(alpha)
        kp, lp = l, k
        assert abs((k * l) ** mp.mpf(0.25) + (kp * lp) ** mp.mpf(0.25) - 1) < mp.mpf("1e-25")


def test_landen_transformation_random():
    rng = random.Random(31)
    with mp.workdps(40):
        for _ in range(20):
            k = mp.mpf(rng.uniform(0.01, 0.99))
            lhs = highprec.ell_K(k, 35)
            rhs = highprec.ell_K(2 * mp.sqrt(k) / (1 + k), 35) / (1 + k)
            assert abs(lhs - rhs) < mp.mpf("1e-25")


def test_small_modulus_root_selection():
    # the rejected sign choice solves the reciprocal equation instead
    with mp.workdps(40):
        wrong = (mp.sqrt(6) + mp.sqrt(2)) / 4  # k^2 = (2 + sqrt(3))/4
        ratio = highprec.verify_ratio_value(wrong, 35)
        assert abs(ratio - 1 / mp.sqrt(3)) < mp.mpf("1e-30")
        right = (mp.sqrt(6) - mp.sqrt(2)) / 4  # k^2 = (2 - sqrt(3))/4
        assert abs(highprec.verify_ratio_value(right, 35) - mp.sqrt(3)) < mp.mpf("1e-30")
