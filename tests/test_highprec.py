import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singmod import highprec as hp
from singmod import arith, modulus, qforms, weber
from singmod.surd import SurdElement

A1_840 = -3494487845306481075093315600749304691200
# the 100-digit constant term, cross-checked against an independent
# evaluation of the modular j function at the same eight points
A8_840 = int(
    "7587169380271379738636919142674280077130439504327732605512510089785122"
    "099137867107270656000000000000"
)
POLY_840 = [
    1,
    A1_840,
    206573882876758009898241769258678546966352946154161788928000,
    -3134769336133353615460866275393209275783941494973163498240275428147200000,
    267678830160178923896641219852982233572924885080172883621331723095220158464000000,
    -1111712812272489788109971969097031933551408742194642794550538731744862298072678400000000,
    454668527671405657965710869144455214652592634921420559367890411545189775674863255552000000000,
    -5112159939990146378938499680802637042771646067107417706535388782137560566356569069977600000000000,
    A8_840,
]


def test_agm_and_K_basics():
    with mp.workdps(40):
        assert abs(hp.ell_K(0, 35) - mp.pi / 2) < mp.mpf("1e-33")
        golden = mp.gamma(mp.mpf(1) / 4) ** 2 / (4 * mp.sqrt(mp.pi))
        assert abs(hp.ell_K(1 / mp.sqrt(2), 35) - golden) < mp.mpf("1e-30")
    with pytest.raises(ValueError):
        hp.ell_K(1.0)


def test_K_ratio_at_alpha3():
    with mp.workdps(45):
        alpha = (2 - mp.sqrt(3)) / 4
        ratio = hp.ell_K(mp.sqrt(1 - alpha), 40) / hp.ell_K(mp.sqrt(alpha), 40)
        assert abs(ratio - mp.sqrt(3)) < mp.mpf("1e-35")


def test_agm_self_consistency():
    with mp.workdps(60):
        a = hp.ell_K(mp.mpf(3) / 5, 40)
        b = hp.ell_K(mp.mpf(3) / 5, 80)
        assert abs(a - b) < mp.mpf("1e-38")


def test_k_numeric_closed_forms():
    with mp.workdps(70):
        closed = {
            1: 1 / mp.sqrt(2),
            2: mp.sqrt(2) - 1,
            3: (mp.sqrt(6) - mp.sqrt(2)) / 4,
            4: (mp.sqrt(2) - 1) ** 2,
        }
        for n, k in closed.items():
            assert abs(hp.k_numeric(n, 60) - k) < mp.mpf("1e-60") * k, n
    with pytest.raises(ValueError):
        hp.k_numeric(0)


def test_verify_ratio_value_for_tiny_alpha():
    # alpha = k_1000^2 ~ 1.1e-42: agm(1, k) takes k itself, so no digit of k is lost
    with mp.workdps(70):
        k = hp.k_numeric(1000, 60)
        assert abs(hp.verify_ratio_value(k, 50) - mp.sqrt(1000)) < mp.mpf("1e-45")
    for k in (0, 1, -0.5):
        with pytest.raises(ValueError):
            hp.verify_ratio_value(k)


def test_F_series():
    with mp.workdps(45):
        val, bound = hp.F_series(0, 40)
        assert val == 1 and bound == 0
        alpha2 = (mp.sqrt(2) - 1) ** 2
        num, _ = hp.F_series(1 - alpha2, 40)
        den, _ = hp.F_series(alpha2, 40)
        assert abs(num / den - mp.sqrt(2)) < mp.mpf("1e-35")
        val, bound = hp.F_series(0.5, 40)
        agm_route = 2 / mp.pi * hp.ell_K(mp.sqrt(0.5), 45)
        assert abs(val - agm_route) <= bound + mp.mpf("1e-38")


def test_gn_numeric_golden():
    with mp.workdps(50):
        g30 = hp.gn_numeric(30, 45)
        assert abs(g30**6 - (3 + mp.sqrt(10)) * (2 + mp.sqrt(5))) < mp.mpf("1e-40")
        low = hp.gn_numeric(Fraction(210, 49), 45)
        assert low > 0
        a = hp.gn_numeric(210, 45)
        b = hp.gn_numeric(210, 90)
        assert abs(a - b) < mp.mpf("1e-43")


GN_POINTS = [Fraction(1, 10**k) for k in (5, 4, 3)] + [
    Fraction(1, 2), Fraction(1), Fraction(2), Fraction(30, 7), Fraction(462), Fraction(10**6)
]


# theta4 = 1 - 2q + ... cancels as q -> 1, so small n must go through g_(4/n);
# the reference is the defining product 2^(-1/4) q^(-1/24) prod(1 - q^(2k-1))
@pytest.mark.parametrize("prec", [30, 60])
@pytest.mark.parametrize("n", GN_POINTS, ids=str)
def test_gn_numeric_against_the_product(n, prec):
    with mp.workdps(200):
        q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(n.numerator) / n.denominator))
        ref = mp.power(2, mp.mpf(-1) / 4) * mp.power(q, mp.mpf(-1) / 24) * mp.qp(q, q * q)
        g = hp.gn_numeric(n, prec)
        assert abs(g / ref - 1) < mp.mpf(10) ** -prec
        assert abs(g * hp.gn_numeric(4 / n, prec) - 1) < mp.mpf(10) ** -prec


def test_four_log_sum_identity():
    # ln g210 + ln g(210/9) - ln g(210/25) + ln g(210/49) = (1/3) ln (5r5+3r14)^2
    with mp.workdps(50):
        lhs = (
            mp.log(hp.gn_numeric(210, 45))
            + mp.log(hp.gn_numeric(Fraction(210, 9), 45))
            - mp.log(hp.gn_numeric(Fraction(210, 25), 45))
            + mp.log(hp.gn_numeric(Fraction(210, 49), 45))
        )
        rhs = mp.log((5 * mp.sqrt(5) + 3 * mp.sqrt(14)) ** 2) / 3
        assert abs(lhs - rhs) < mp.mpf("1e-30")


def test_eta_ratio_gives_g210():
    with mp.workdps(45):
        w = mp.mpc(0, mp.sqrt(210))
        lhs = mp.eta(w / 2) / mp.eta(w)
        rhs = mp.power(2, mp.mpf(1) / 4) * hp.gn_numeric(210, 40)
        assert abs(lhs - rhs) < mp.mpf("1e-38")


def test_j_classical_points():
    with mp.workdps(45):
        assert abs(hp.j_invariant(mp.mpc(0, 1), 40) - 1728) < mp.mpf("1e-35")
        rho = mp.mpc(mp.mpf(1) / 2, mp.sqrt(3) / 2)
        assert abs(hp.j_invariant(rho, 40)) < mp.mpf("1e-30")
    with pytest.raises(ValueError):
        hp.j_invariant(mp.mpc(0, -2))


def test_j_real_on_imaginary_axis():
    with mp.workdps(45):
        v = hp.j_invariant(mp.mpc(0, mp.sqrt(210)), 40)
        assert mp.im(v) == 0  # the real branch is taken exactly


def test_j_at_sqrt_minus_210_boxed_quotient():
    # the second parenthesized line of the closed form is the reciprocal of
    # the big first-line product, so it multiplies rather than divides; the
    # two readings differ by a factor of about 1e36 and only this one matches
    with mp.workdps(70):
        big = (
            (mp.sqrt(3) + mp.sqrt(2)) ** 12
            * (3 * mp.sqrt(14) + 5 * mp.sqrt(5)) ** 4
            * ((mp.sqrt(7) + mp.sqrt(3)) / 2) ** 12
            * ((mp.sqrt(5) + 1) / 2) ** 12
        )
        second_line = (
            (mp.sqrt(3) - mp.sqrt(2)) ** 12
            * (3 * mp.sqrt(14) - 5 * mp.sqrt(5)) ** 4
            * ((mp.sqrt(7) - mp.sqrt(3)) / 2) ** 12
            * ((mp.sqrt(5) - 1) / 2) ** 12
        )
        assert abs(big * second_line - 1) < mp.mpf("1e-60")
        boxed = 64 * (4 * big + 1) ** 3 * second_line
        j = hp.j_invariant(mp.mpc(0, mp.sqrt(210)), 60)
        assert abs(j - boxed) / abs(boxed) < mp.mpf("1e-30")


CONVENIENT = (2, 6, 10, 22, 30, 42, 58, 70, 78, 102, 130, 190, 210, 330, 462)


def _reduced_form_roots(disc):
    root = mp.sqrt(-disc)
    return [(-F.b + 1j * root) / (2 * F.a) for F in qforms.reduced_forms(disc)]


def test_j_matches_kleinj_at_every_cm_point():
    # the points of the class polynomials: all reduced forms of -4n over the
    # convenient n, plus the conjugate pairs of -23 and the deep point of -163
    discs = [-4 * n for n in CONVENIENT] + [-23, -163]
    with mp.workdps(1000 + hp.GUARD):
        for disc in discs:
            for tau in _reduced_form_roots(disc):
                mine = hp.j_invariant(tau, 1000)
                oracle = 1728 * mp.kleinj(tau)
                assert abs(mine - oracle) < mp.mpf("1e-990") * abs(oracle), (disc, tau)


@st.composite
def fundamental_domain_points(draw):
    x = draw(st.floats(min_value=-0.5, max_value=0.5))
    t = draw(st.floats(min_value=0, max_value=1))
    floor = (1 - x * x) ** 0.5
    return mp.mpc(x, floor + t * (3 - floor))


@settings(max_examples=40, deadline=None)
@given(fundamental_domain_points())
def test_j_is_modular(tau):
    with mp.workdps(80):
        shifted, inverted = tau + 1, -1 / tau
        j = hp.j_invariant(tau, 60)
        tol = mp.mpf("1e-50") * max(1, abs(j))
        assert abs(hp.j_invariant(shifted, 60) - j) < tol
        assert abs(hp.j_invariant(inverted, 60) - j) < tol


def test_class_polynomial_degree_one():
    assert hp.class_polynomial(-4, 40) == [1, -1728]


def test_class_polynomial_840():
    t0 = time.time()
    coeffs = hp.class_polynomial(-840, 300)
    elapsed = time.time() - t0
    assert elapsed < 60
    assert len(coeffs) == 9
    assert coeffs[0] == 1
    assert coeffs[1] == A1_840
    assert coeffs[8] == A8_840


@pytest.mark.parametrize("prec", [1, 5, 20, 30, 40, 300, 320])
def test_class_polynomial_is_exact_at_any_precision(prec):
    # the working precision comes from the height bound, not from prec; a
    # fixed 20 or 40 digits once returned wrong coefficients with no error
    assert hp.class_polynomial(-840, prec) == POLY_840


# the 13 discriminants of class number one and their rational j-invariants
CLASS_NUMBER_ONE = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -12: 54000,
    -16: 287496,
    -19: -884736,
    -27: -12288000,
    -28: 16581375,
    -43: -884736000,
    -67: -147197952000,
    -163: -262537412640768000,
}


@pytest.mark.parametrize("disc", sorted(CLASS_NUMBER_ONE))
def test_class_polynomial_of_class_number_one(disc):
    assert hp.class_polynomial(disc, 1) == [1, -CLASS_NUMBER_ONE[disc]]


def _expanded_at(disc, digits):
    """Reference class polynomial from j_invariant and the product, at `digits`."""
    with mp.workdps(digits):
        coeffs = [mp.mpc(1)]
        for tau in _reduced_form_roots(disc):
            jv = hp.j_invariant(tau, digits)
            coeffs = [a - jv * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        out = [int(mp.nint(mp.re(c))) for c in coeffs]
        assert max(abs(c - n) for c, n in zip(coeffs, out)) < mp.mpf(10) ** -40
        return out


def test_class_polynomial_sweep_against_50_more_digits():
    for n in range(1, 301):
        disc = -4 * n
        digits = hp._height_digits(disc, qforms.reduced_forms(disc)) + 50
        assert hp.class_polynomial(disc, 1) == _expanded_at(disc, digits), n


def _sign_conjugates(x):
    """The distinct values of x under every sign flip of its square roots."""
    out = {x}
    for p in x.prime_support():
        out |= {y.conjugate(p) for y in out}
    return out


def test_class_polynomial_from_the_exact_chain():
    # j(sqrt(-n)) = (64 G^2 + 16)^3 / (64 G^2) with G = g_n^12 from the unit
    # product (Weber; Yui and Zagier, Math. Comp. 66, 1997); its conjugates
    # are the j-values of the h reduced forms, so the product over them is the
    # class polynomial, here in exact surd arithmetic
    for n in CONVENIENT:
        G = (modulus.singular_modulus(n, 50).g_product ** 12).expand_exact()
        f24 = 64 * G * G
        j = (f24 + 16) ** 3 / f24
        poly = [SurdElement(1)]
        for root in _sign_conjugates(j):
            poly = [a - root * b for a, b in zip(poly + [SurdElement(0)], [SurdElement(0)] + poly)]
        assert all(c.is_rational() and c.rational_part.denominator == 1 for c in poly), n
        assert [int(c.rational_part) for c in poly] == hp.class_polynomial(-4 * n), n


def test_epstein_zeta_at_two():
    with mp.workdps(40):
        val = hp.epstein_zeta(1, 0, 1, 2, 30)
        assert abs(val - 4 * mp.zeta(2) * mp.catalan) < mp.mpf("1e-28")


def test_epstein_zeta_symmetry_and_pole():
    with mp.workdps(40):
        a = hp.epstein_zeta(2, 0, 105, mp.mpf(3) / 2, 30)
        b = hp.epstein_zeta(105, 0, 2, mp.mpf(3) / 2, 30)
        assert abs(a - b) < mp.mpf("1e-28")
        s = 1 + mp.mpf("1e-8")
        near = (s - 1) * hp.epstein_zeta(1, 0, 210, s, 30)
        assert abs(near - mp.pi / mp.sqrt(210)) < mp.mpf("1e-7")
    with pytest.raises(ValueError):
        hp.epstein_zeta(1, 0, 1, 1, 30)


def test_epstein_zeta_below_one_self_consistent():
    # the continuation is the only route for 1/2 < s < 1; doubling the working
    # precision must not move the value
    with mp.workdps(45):
        s = mp.mpf(3) / 4
        a = hp.epstein_zeta(1, 0, 210, s, 25)
        b = hp.epstein_zeta(1, 0, 210, s, 50)
        assert abs(a - b) < mp.mpf("1e-22")


def test_epstein_constant_term_golden():
    # Laurent constant of 4 zeta(s) beta(s) at s = 1 is 4 (gamma beta(1) + beta'(1));
    # the beta derivative needs heavy guard digits because the Hurwitz zetas
    # individually blow up at s = 1 before their poles cancel
    with mp.workdps(300):

        def beta(s):
            return mp.power(4, -s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))

        h = mp.mpf(10) ** -60
        bprime = (beta(1 + h) - beta(1 - h)) / (2 * h)
        known = 4 * (mp.euler * mp.pi / 4 + bprime)
    mine = hp.epstein_constant_term(1, 0, 1, 30)
    assert abs(mine - known) < mp.mpf("1e-25")


def test_grenzformel_residuals():
    for form in ((1, 0, 1), (1, 0, 210), (2, 0, 105), (5, 2, 7)):
        res = hp.verify_grenzformel(*form, prec=30)
        assert abs(res) < mp.mpf("1e-8"), form


@st.composite
def reduced_positive_forms(draw):
    C = draw(st.integers(min_value=1, max_value=60))
    A = draw(st.integers(min_value=1, max_value=C))
    B = draw(st.integers(min_value=-(A // 2), max_value=A // 2))
    return A, B, C


@settings(max_examples=40, deadline=None)
@given(reduced_positive_forms())
def test_grenzformel_residual_reaches_the_precision(form):
    assert abs(hp.verify_grenzformel(*form, prec=30)) < mp.mpf("1e-20"), form


@pytest.mark.parametrize("form", [(1, 0, 210), (2, 0, 105), (5, 2, 7)])
def test_epstein_constant_term_equals_the_pointwise_sum(form):
    A, B, C = form
    m = A * C - B * B
    # the fixed-point width of the walk follows the working bits, so check two precisions
    for prec in (30, 60):
        with mp.workdps(prec + hp.GUARD):
            c = mp.pi / mp.sqrt(m)
            cutoff = (mp.mp.prec + 16) * mp.log(2) / c
            reach = int(mp.sqrt(2 * cutoff)) + 1  # Q >= 3 max(|x|, |y|)^2 / 4 when reduced
            total = c * (mp.euler + mp.log(c) - 1)
            for x in range(-reach, reach + 1):
                for y in range(-reach, reach + 1):
                    qv = A * x * x + 2 * B * x * y + C * y * y
                    if (x or y) and qv <= cutoff:
                        total += mp.exp(-c * qv) / qv + c * mp.e1(c * qv)
            err = abs(hp.epstein_constant_term(A, B, C, prec) - total)
            assert err < mp.mpf(10) ** -(prec + 8), prec


# the fixed-point walk keeps its roundings 8 bits below 2^-bits, so the sum
# keeps its guard digits: within a few units of the last
@pytest.mark.parametrize("prec", [50, 60, 80])
@pytest.mark.parametrize("form", [(1, 0, 1), (1, 0, 2), (2, 1, 3)])
def test_epstein_constant_term_keeps_its_guard_digits(form, prec):
    with mp.workdps(prec + 60):
        exact = hp.epstein_constant_term(*form, prec + 40)
        err = abs(hp.epstein_constant_term(*form, prec) - exact)
    assert err < 3 * mp.mpf(10) ** -(prec + hp.GUARD)


# (1, 0, 1) has c = pi, the largest step h = c dQ (7 pi at prec 120), and two
# reseeds (1 -> 2 -> 4); (1, 0, 3000) walks 123 values at prec 120
@pytest.mark.parametrize("prec", [30, 120])
@pytest.mark.parametrize("form", [(1, 0, 1), (2, 1, 3), (1, 0, 3000)])
def test_exp_e1_walk_against_mpmath(form, prec):
    A, B, C = form
    m = A * C - B * B
    with hp.working_precision(prec):
        W = mp.mp.prec
        qs = sorted(hp._lattice_values(A, B, C, (W + 16) * mp.log(2) / (mp.pi / mp.sqrt(m))))
    with mp.workprec(W + 20):
        walk = list(hp._exp_e1_walk(mp.pi / mp.sqrt(m), qs, W))
    gaps = [(q - p, p) for p, q in zip(qs, qs[1:])]
    assert any(2 * dq > p for dq, p in gaps) and any(2 * dq <= p for dq, p in gaps)
    if m == 1:
        assert max(dq for dq, p in gaps if 2 * dq <= p) >= 5
    # each value is within 2^(log2(number of values) + 2) units of 2^-W
    tol = mp.ldexp(1, len(qs).bit_length() + 2 - W)
    with mp.workdps(prec + 40):
        c = mp.pi / mp.sqrt(m)
        for q, (ex, e1) in zip(qs, walk):
            assert abs(mp.ldexp(ex, -W) - mp.exp(-c * q)) < tol, q
            assert abs(mp.ldexp(e1, -W) - mp.e1(c * q)) < tol, q


@st.composite
def positive_definite_forms(draw):
    A = draw(st.integers(min_value=1, max_value=80))
    B = draw(st.integers(min_value=-40, max_value=40))
    C = draw(st.integers(min_value=B * B // A + 1, max_value=(5000 + B * B) // A))
    return A, B, C


@settings(max_examples=40, deadline=None)
@given(positive_definite_forms(), st.integers(min_value=10, max_value=120))
def test_epstein_constant_term_keeps_its_guard_digits_for_any_form(form, prec):
    with mp.workdps(prec + 60):
        exact = hp.epstein_constant_term(*form, prec + 40)
        err = abs(hp.epstein_constant_term(*form, prec) - exact)
    assert err < 3 * mp.mpf(10) ** -(prec + hp.GUARD)


@pytest.mark.parametrize("prec", [20, 50, 80])
@pytest.mark.parametrize(
    "form", [(1, 0, 1), (2, 1, 3), (5, 2, 7), (7, 3, 60), (1000, 0, 1), (10000, 3, 1)]
)
def test_grenzformel_residual_at_each_precision(form, prec):
    assert abs(hp.verify_grenzformel(*form, prec)) < mp.mpf(10) ** (10 - prec)


# the Dirichlet characters mod 4 and mod 8 that factor the forms of
# determinant 1 and 2: Z_(1,0,1) = 4 zeta beta, Z_(1,0,2) = 2 zeta L(chi_-8)
CHI_MINUS_4 = [0, 1, 0, -1]
CHI_MINUS_8 = [0, 1, 0, 1, 0, -1, 0, -1]


@pytest.mark.parametrize("prec", [30, 60])
@pytest.mark.parametrize("s", ["0.75", "1.5", "2", "3"])
@pytest.mark.parametrize(
    "form, weight, chi", [((1, 0, 1), 4, CHI_MINUS_4), ((1, 0, 2), 2, CHI_MINUS_8)]
)
def test_epstein_zeta_closed_forms(form, weight, chi, s, prec):
    with mp.workdps(prec + hp.GUARD):
        s = mp.mpf(s)
        known = weight * mp.zeta(s) * mp.dirichlet(s, chi)
        assert abs(hp.epstein_zeta(*form, s, prec) - known) < mp.mpf(10) ** (10 - prec)


def test_fundamental_lemma_difference():
    # S(2,0,105) - S(1,0,210) at s=1 equals (2 pi/sqrt(m)) ln (sqrt(2/1) eta(w)^2/eta(w/2)^2):
    # the first form has root w/2, the second w, with w = i sqrt(210)
    with mp.workdps(40):
        lhs = hp.epstein_constant_term(2, 0, 105, 30) - hp.epstein_constant_term(1, 0, 210, 30)
        m = 210
        w = mp.mpc(0, mp.sqrt(m))
        rhs = (
            2
            * mp.pi
            / mp.sqrt(m)
            * mp.log(mp.sqrt(2) * (mp.eta(w) / mp.eta(w / 2)) ** 2)
        )
        assert abs(lhs - mp.re(rhs)) < mp.mpf("1e-25")


def test_formula_g_residuals():
    for A, C in ((1, 105), (3, 35), (5, 21), (7, 15)):
        assert abs(hp.verify_formula_g(A, C, 30)) < mp.mpf("1e-8"), (A, C)


def test_formula_g_trivial_m2():
    assert abs(hp.verify_formula_g(1, 1, 30)) < mp.mpf("1e-8")


def _formula_g_lhs_against_two_constant_terms(monkeypatch, A, C, prec):
    """|one-walk lhs - (S_(A,0,2C) - S_(2A,0,C)) at prec + 40| in units of 10^-(prec+GUARD).

    With g_n patched to 1 the right side is exactly 0, so the residual is the
    one-walk left side itself.
    """
    monkeypatch.setattr(hp, "gn_numeric", lambda *args: mp.mpf(1))
    with mp.workdps(prec + 60):
        exact = hp.epstein_constant_term(A, 0, 2 * C, prec + 40)
        exact -= hp.epstein_constant_term(2 * A, 0, C, prec + 40)
        return abs(hp.verify_formula_g(A, C, prec) - exact) * mp.mpf(10) ** (prec + hp.GUARD)


# m = 2 is the empty walk: (1, 0, 2) and (2, 0, 1) represent each value equally often
@pytest.mark.parametrize("prec", [30, 60])
@pytest.mark.parametrize("A, C", [(1, 1), (1, 105), (3, 5), (1, 231)])
def test_formula_g_walks_the_difference_of_two_constant_terms(monkeypatch, A, C, prec):
    assert _formula_g_lhs_against_two_constant_terms(monkeypatch, A, C, prec) < 1
    if A * C == 1:
        assert hp.verify_formula_g(A, C, prec) == 0


@st.composite
def formula_g_pairs(draw):
    A = draw(st.integers(min_value=1, max_value=50))
    C = draw(st.integers(min_value=1, max_value=2500 // A))
    return A, C


@settings(max_examples=30, deadline=None)
@given(formula_g_pairs(), st.integers(min_value=10, max_value=80))
def test_formula_g_walk_keeps_its_guard_digits_for_any_pair(pair, prec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _formula_g_lhs_against_two_constant_terms(monkeypatch, *pair, prec) < 1


def _dirichlet_l_one_full_sum(delta, prec):
    """L(1, chi_delta) by the character sums over every 0 < a < |delta|."""
    with hp.working_precision(prec):
        if delta < 0:
            q = -delta
            S = sum(arith.kronecker(delta, a) * (q - 2 * a) for a in range(1, q))
            return mp.pi * S / (2 * mp.power(q, mp.mpf(3) / 2))
        total = mp.mpf(0)
        for a in range(1, delta):
            chi = arith.kronecker(delta, a)
            if chi:
                total += chi * mp.log(mp.sin(mp.pi * a / delta))
        return -total / mp.sqrt(delta)


# the sums over a < |delta|/2 are the full sums: the same integer for
# delta < 0, and within 10^-(prec+10) for delta > 0, where the logs of the
# full sum become one log of a ratio of products
@pytest.mark.parametrize("sign", [-1, 1])
def test_dirichlet_l_one_half_sums_equal_the_full_sums(sign):
    prec = 20
    for q in range(3, 2001):
        delta = sign * q
        if not arith.is_fundamental_discriminant(delta):
            continue
        full, half = _dirichlet_l_one_full_sum(delta, prec), hp.dirichlet_l_one(delta, prec)
        if delta < 0:
            assert half == full, delta
        else:
            assert abs(half - full) < mp.mpf(10) ** -(prec + 10), delta


def test_nome_is_real_on_the_imaginary_axis():
    # j and Kronecker's closed form share the rule; B = 0 forms take real theta sums
    with mp.workdps(30):
        assert isinstance(hp._nome(mp.mpc(0, 2)), mp.mpf)
        assert isinstance(hp._nome(mp.mpc(mp.mpf(1) / 2, 2)), mp.mpc)


def test_dirichlet_l_one_rejects_bad():
    with pytest.raises(ValueError):
        hp.dirichlet_l_one(1)
    with pytest.raises(ValueError):
        hp.dirichlet_l_one(25)


def test_verify_dirichlet_agrees_with_the_class_number_formula():
    for delta in (-3, -4, -840, 5, 8, 280):
        finite, closed = hp.verify_dirichlet(delta, 40)
        assert abs(finite - closed) < mp.mpf(10) ** -40, delta
    with pytest.raises(ValueError):
        hp.verify_dirichlet(25)


def test_class_polynomial_complex_conjugate_classes():
    # classes with b != 0 come in conjugate pairs; the product is still integral
    assert hp.class_polynomial(-23, 120) == [1, 3491750, -5151296875, 12771880859375]
    assert hp.class_polynomial(-163, 120) == [1, 262537412640768000]


PREC_ENTRY_POINTS = {
    "ell_K": lambda p: hp.ell_K(mp.mpf("0.5"), p),
    "F_series": lambda p: hp.F_series(mp.mpf("0.5"), p),
    "verify_ratio_value": lambda p: hp.verify_ratio_value(mp.mpf("0.5"), p),
    "gn_numeric": lambda p: hp.gn_numeric(210, p),
    "j_invariant": lambda p: hp.j_invariant(1j, p),
    "k_numeric": lambda p: hp.k_numeric(5, p),
    "class_polynomial": lambda p: hp.class_polynomial(-840, p),
    "dirichlet_l_one": lambda p: hp.dirichlet_l_one(-3, p),
    "verify_dirichlet": lambda p: hp.verify_dirichlet(-3, p),
    "epstein_zeta": lambda p: hp.epstein_zeta(1, 0, 1, 2, p),
    "epstein_constant_term": lambda p: hp.epstein_constant_term(1, 0, 1, p),
    "grenzformel_rhs": lambda p: hp.grenzformel_rhs(1, 0, 1, p),
    "verify_grenzformel": lambda p: hp.verify_grenzformel(1, 0, 210, p),
    "verify_formula_g": lambda p: hp.verify_formula_g(1, 105, p),
    "weber.g2n": lambda p: weber.g2n(15, p),
    "modulus.k_from_g_numeric": lambda p: modulus.k_from_g_numeric(2, p),
    "modulus.singular_modulus": lambda p: modulus.singular_modulus(3, p),
}


# at prec -30 these once answered: verify_grenzformel a residual of 0.0,
# g2n the value 1.0, k_numeric 0.0625
@pytest.mark.parametrize("prec", [0, -30])
@pytest.mark.parametrize("name", sorted(PREC_ENTRY_POINTS))
def test_precision_below_one_is_rejected(name, prec):
    with pytest.raises(ValueError, match="precision"):
        PREC_ENTRY_POINTS[name](prec)
