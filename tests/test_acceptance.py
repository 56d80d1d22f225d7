"""Acceptance suite: one test per criterion, each reporting a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import math
import time
from fractions import Fraction

import mpmath as mp

from singmod import arith, cli, highprec, modulus, pell, qforms, weber
from singmod.qforms import GLMatrix, QuadForm
from singmod.surd import SurdElement, UnitProduct, exact_sqrt, field_norm, parse_surd

GOLDEN_FORMS_840 = [
    (1, 0, 210),
    (2, 0, 105),
    (3, 0, 70),
    (5, 0, 42),
    (6, 0, 35),
    (7, 0, 30),
    (10, 0, 21),
    (14, 0, 15),
]

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


def report(num: int, text: str):
    print(f"PASS criterion {num:2d}: {text}")


def test_criterion_01_reduced_forms(capsys):
    code = cli.main(["forms", "--disc", "-840"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.strip() for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    expected = [
        "1. X^2 + 210Y^2",
        "2. 2X^2 + 105Y^2",
        "3. 3X^2 + 70Y^2",
        "4. 5X^2 + 42Y^2",
        "5. 6X^2 + 35Y^2",
        "6. 7X^2 + 30Y^2",
        "7. 10X^2 + 21Y^2",
        "8. 14X^2 + 15Y^2",
    ]
    assert rows == expected
    assert "class number h(-840) = 8" in out
    assert [(F.a, F.b, F.c) for F in qforms.reduced_forms(-840)] == GOLDEN_FORMS_840
    with capsys.disabled():
        report(1, "the eight reduced forms of discriminant -840, h = 8, exact")


def test_criterion_02_reduction_witness(capsys):
    F = QuadForm(5266, -8424, 3369)
    red, g = qforms.reduce_form(F)
    assert red == QuadForm(1, 0, 210)
    assert g.det in (1, -1)
    assert qforms.apply(g, F) == red
    with capsys.disabled():
        report(2, "5266X^2 - 8424XY + 3369Y^2 reduces to X^2 + 210Y^2 with verified witness")


def test_criterion_03_representations(capsys):
    F = QuadForm(6, 0, 35)
    assert qforms.representation_count(F, 1769) == 8
    sols = {
        (x, y)
        for x in range(-20, 21)
        for y in range(-20, 21)
        if 6 * x * x + 35 * y * y == 1769
    }
    assert sols == {(3, 7), (3, -7), (-3, 7), (-3, -7), (17, 1), (17, -1), (-17, 1), (-17, -1)}
    assert qforms.total_representations(210, 1769) == 8
    with capsys.disabled():
        report(3, "6X^2 + 35Y^2 = 1769 has the eight expected solutions; formula count agrees")


def test_criterion_04_pell_table(capsys):
    table = {280: (502, 30), 5: (3, 1), 21: (5, 1), 24: (10, 2)}
    for delta, (T, U) in table.items():
        sol = pell.solve_even_pell(delta)
        assert (sol.T, sol.U) == (T, U)
    with capsys.disabled():
        report(4, "minimal even Pell solutions for 280, 5, 21, 24, exact")


def test_criterion_05_dirichlet_values(capsys):
    with mp.workdps(45):
        L3 = highprec.dirichlet_l_one(-3, 40)
        assert abs(L3 - mp.pi / (3 * mp.sqrt(3))) < mp.mpf("1e-25")
        L280 = highprec.dirichlet_l_one(280, 40)
        closed = 8 / mp.sqrt(280) * mp.log(5 * mp.sqrt(5) + 3 * mp.sqrt(14))
        assert abs(L280 - closed) < mp.mpf("1e-25")
    with capsys.disabled():
        report(5, "L(1, chi) finite sums match pi/(3 sqrt(3)) and the 280 unit form to 1e-25")


def test_criterion_06_g210(capsys):
    product, value = weber.g2n(105, 60)
    with mp.workdps(70):
        qseries = highprec.gn_numeric(210, 60)
        boxed = (
            mp.sqrt(mp.sqrt(2) + mp.sqrt(3))
            * mp.power(5 * mp.sqrt(5) + 3 * mp.sqrt(14), mp.mpf(1) / 6)
            * mp.sqrt((mp.sqrt(3) + mp.sqrt(7)) / 2)
            * mp.sqrt((mp.sqrt(5) + 1) / 2)
        )
        assert abs(value - qseries) < mp.mpf("1e-40")
        assert abs(value - boxed) < mp.mpf("1e-40")
    g30_product, _ = weber.g2n(15, 60)
    g12 = (g30_product**12).expand_exact()
    g6 = exact_sqrt(g12, ambient_primes=(2, 3, 5))
    assert g6 == SurdElement({1: 3, 10: 1}) * SurdElement({1: 2, 5: 1})
    with capsys.disabled():
        report(6, "g_210 agrees with q-series and boxed surd form to 1e-40; g_30^6 exact")


def test_criterion_07_k210_pipeline(capsys, k210, k30):
    code = cli.main(["kn", "--n", "210"])
    out = capsys.readouterr().out
    assert code == 0
    assert (
        "(4 - sqrt(15))^2 * (8 - 3*sqrt(7)) * (2 - sqrt(3)) * (6 - sqrt(35))"
        " * (sqrt(10) - 3)^2 * (sqrt(7) - sqrt(6))^2 * (sqrt(2) - 1)^2 * (sqrt(15) - sqrt(14))"
    ) in out
    sig = {str(b): int(e) for b, e in k210.k_product.factors}
    assert sig == K210_FACTORS
    assert abs(k210.ratio_residual) < mp.mpf("1e-30")
    sig30 = {str(b): int(e) for b, e in k30.k_product.factors}
    assert sig30 == {"5 - 2*sqrt(6)": 1, "4 - sqrt(15)": 1, "sqrt(6) - sqrt(5)": 1, "2 - sqrt(3)": 1}
    k2 = modulus.singular_modulus(2, 50)
    assert k2.k_surd == parse_surd("sqrt(2) - 1")
    a3 = modulus.singular_modulus(3, 50)
    assert a3.k_surd * a3.k_surd == SurdElement({1: Fraction(1, 2), 3: -Fraction(1, 4)})
    a7 = modulus.singular_modulus(7, 50)
    assert a7.k_surd * a7.k_surd == SurdElement({1: Fraction(1, 2), 7: -Fraction(3, 16)})
    with capsys.disabled():
        report(7, "k_210 equals the eight-factor unit product; ratio residual < 1e-30; k_30, k_2, a_3, a_7 reproduced")


def test_criterion_08_descent_intermediates(capsys, k210):
    w = k210.witness
    assert w.a == parse_surd("121983 + 11904*sqrt(105)")
    assert w.b == parse_surd("249 + 24*sqrt(105)")
    assert w.c == parse_surd("121489 + 11856*sqrt(105)")
    assert w.d == parse_surd("247 + 24*sqrt(105)")
    # cross-method agreement, both descents exact
    u30, v30 = parse_surd("3 + sqrt(10)"), parse_surd("2 + sqrt(5)")
    alpha30, _ = modulus.alpha_from_unit_pair(u30, v30, ambient_primes=(2, 3, 5))
    k30 = modulus.singular_modulus(30, 50)
    assert alpha30 == k30.k_surd * k30.k_surd
    S = w.a + 1
    U, V = S - w.c, S - w.b
    u = exact_sqrt(U + exact_sqrt(U * U - 1, ambient_primes=(2, 3, 5, 7)), ambient_primes=(2, 3, 5, 7))
    v = exact_sqrt(V + exact_sqrt(V * V - 1, ambient_primes=(2, 3, 5, 7)), ambient_primes=(2, 3, 5, 7))
    alpha210, _ = modulus.alpha_from_unit_pair(u, v, ambient_primes=(2, 3, 5, 7))
    assert alpha210 == k210.k_surd * k210.k_surd
    with mp.workdps(60):
        assert abs(alpha210.evalf() - k210.alpha_numeric) < mp.mpf("1e-30")
    with capsys.disabled():
        report(8, "quartet a, b, c, d recovered exactly; the unit-pair route agrees (exactly, hence to 1e-30)")


def test_criterion_09_class_polynomial(capsys):
    t0 = time.time()
    coeffs = highprec.class_polynomial(-840, 300)
    elapsed = time.time() - t0
    assert elapsed < 60
    assert coeffs[0] == 1
    assert coeffs[1] == -3494487845306481075093315600749304691200
    a8 = int(
        "7587169380271379738636919142674280077130439504327732605512510089785122"
        "099137867107270656000000000000"
    )
    assert coeffs[8] == a8
    with capsys.disabled():
        report(9, f"class polynomial integral at 300 digits in {elapsed:.1f}s; a1 and a8 digit-for-digit")


def test_criterion_10_j_cross_check(capsys):
    with mp.workdps(70):
        big = (
            (mp.sqrt(3) + mp.sqrt(2)) ** 12
            * (3 * mp.sqrt(14) + 5 * mp.sqrt(5)) ** 4
            * ((mp.sqrt(7) + mp.sqrt(3)) / 2) ** 12
            * ((mp.sqrt(5) + 1) / 2) ** 12
        )
        boxed = 64 * (4 * big + 1) ** 3 / big
        j = highprec.j_invariant(mp.mpc(0, mp.sqrt(210)), 60)
        assert abs(j - boxed) / abs(boxed) < mp.mpf("1e-30")
    with capsys.disabled():
        report(10, "j(i sqrt(210)) matches the closed-form quotient to 1e-30 relative")


def test_criterion_11_kronecker_formulas(capsys):
    for A, C in ((1, 105), (3, 35), (5, 21), (7, 15)):
        assert abs(highprec.verify_formula_g(A, C, 30)) < mp.mpf("1e-8"), (A, C)
    assert abs(highprec.verify_grenzformel(1, 0, 210, 30)) < mp.mpf("1e-8")
    with capsys.disabled():
        report(11, "pair-difference formula holds for all four pairs; limit formula for (1,0,210); residuals < 1e-8")


def test_criterion_12_cancellations(capsys):
    forms = qforms.reduced_forms(-840)
    deltas = arith.fundamental_discriminants_dividing(-840)
    for F in forms:
        total = sum(qforms.chi(d, F) for d in deltas)
        assert total == (8 if (F.a, F.c) == (1, 210) else 0)
    survivors = weber.weighted_sum_table(210)["survivors"]
    summed = {}
    for s in survivors:
        for a, c in s.coefficients.items():
            summed[a] = summed.get(a, 0) + c
    assert summed == {1: 8, 3: 0, 5: 0, 7: 0}
    with capsys.disabled():
        report(12, "chi sums: h on the principal class, 0 elsewhere; surviving sums collapse onto ln g_210, exact")


def test_criterion_13_property_suites(capsys, k210, k30):
    # unit-norm checks on every emitted factor
    g210_product, _ = weber.g2n(105, 60)
    for prod in (g210_product, k210.k_product, k30.k_product):
        assert prod.all_unit_norms()
    assert abs(field_norm(k210.k_surd, primes=(2, 3, 5, 7))) == 1
    # exact root round trip
    g12 = (k210.g_product**12).expand_exact()
    assert k210.k_surd.inverse() - k210.k_surd == 2 * g12
    # modular equations of degrees 2, 3, 7
    with mp.workdps(40):
        k = mp.sqrt(2) - 1
        assert abs((1 - k * k) * (1 + k) ** 2 - 4 * k) < mp.mpf("1e-25")
        alpha = (2 - mp.sqrt(3)) / 4
        kk, ll = mp.sqrt(1 - alpha), mp.sqrt(alpha)
        assert abs(mp.sqrt(kk * ll) + mp.sqrt(ll * kk) - 1) < mp.mpf("1e-25")
        alpha = (8 - 3 * mp.sqrt(7)) / 16
        kk, ll = mp.sqrt(1 - alpha), mp.sqrt(alpha)
        assert abs((kk * ll) ** mp.mpf(0.25) + (ll * kk) ** mp.mpf(0.25) - 1) < mp.mpf("1e-25")
        # Landen on a deterministic pseudo-random grid
        import random

        rng = random.Random(99)
        for _ in range(20):
            kv = mp.mpf(rng.uniform(0.01, 0.99))
            lhs = highprec.ell_K(kv, 35)
            rhs = highprec.ell_K(2 * mp.sqrt(kv) / (1 + kv), 35) / (1 + kv)
            assert abs(lhs - rhs) < mp.mpf("1e-25")
    with capsys.disabled():
        report(13, "unit norms, exact quadratic round trip, modular equations (2,3,7), Landen identity")
